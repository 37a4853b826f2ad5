//! The SCRAM kernel: System Control Reconfiguration Analysis and
//! Management.
//!
//! The SCRAM "implements the external reconfiguration portion of the
//! architecture by receiving component failure signals when they occur
//! and determining necessary reconfiguration actions based on a
//! statically-defined set of valid system transitions" (§3). It drives
//! each reconfiguration through the three-frame SFTA protocol of Table 1:
//!
//! | Frame | Message              | Action                                  |
//! |-------|----------------------|-----------------------------------------|
//! | 0     | failure signal→SCRAM | (applications running / interrupted)     |
//! | 1     | halt → all apps      | applications cease, establish postconditions |
//! | 2     | prepare(Ct) → all    | applications establish transition conditions |
//! | 3     | initialize → all     | applications establish preconditions for Ct |
//!
//! The kernel is a pure, deterministic state machine: [`Scram::step`] is
//! called exactly once per frame with the frame's environment state and
//! returns the per-application commands plus the end-of-frame trace
//! annotations. All I/O (stable-storage variables, bus messages) is done
//! by the surrounding [`System`](crate::system::System), which keeps the
//! kernel itself trivially testable — mirroring the paper's observation
//! that "the functional aspects of the SCRAM will remain constant ...
//! this simplifies subsequent verification, since the SCRAM need only be
//! verified once".

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use arfs_assure::fp;
use arfs_failstop::CowLog;

use crate::app::ConfigStatus;
use crate::chaos::ChaosDefense;
use crate::environment::EnvState;
use crate::spec::{dependency_depths, ReconfigSpec, StageBounds};
use crate::trace::ReconfSt;
use crate::{AppId, ConfigId, SpecId};

/// The phase of an in-flight reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Phase {
    /// Applications establish postconditions and cease execution.
    Halt,
    /// Applications establish transition conditions for the target.
    Prepare,
    /// Applications establish preconditions and start the target
    /// specifications.
    Init,
    /// Artificial stall inserted by [`ScramMutation::ExtraDelayFrames`]
    /// (verification experiments only).
    Stall,
}

impl Phase {
    /// Stable small-integer encoding for compact event streams (the
    /// flight-recorder ring stores this instead of the display name;
    /// [`RingLegend`](crate::obs::RingLegend) decodes it back).
    pub fn index(self) -> u32 {
        match self {
            Phase::Halt => 0,
            Phase::Prepare => 1,
            Phase::Init => 2,
            Phase::Stall => 3,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Halt => "halt",
            Phase::Prepare => "prepare",
            Phase::Init => "initialize",
            Phase::Stall => "stall",
        };
        f.write_str(s)
    }
}

/// Policy for triggers that arrive while a reconfiguration is already in
/// progress (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MidReconfigPolicy {
    /// Finish the current reconfiguration, then handle the new trigger
    /// from the (new) steady state — "buffered until the next stable
    /// storage commit of other applications".
    #[default]
    BufferUntilComplete,
    /// Address the trigger immediately: re-choose the target and, if the
    /// protocol has advanced past the halt phase, fall back to the
    /// prepare phase for the new target ("ensuring the applications have
    /// met their postconditions and choosing a different target
    /// specification").
    ImmediateRetarget,
}

/// Policy for sequencing application stages relative to their declared
/// dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// All applications execute each stage together (Table 1). This
    /// satisfies the paper's default dependency requirement — every
    /// independent application is halted (frame 1) before any dependent
    /// application computes its precondition (frame 3).
    #[default]
    Simultaneous,
    /// The richer §6.3 extension: within the initialize phase,
    /// applications are staged in dependency waves, so a dependent
    /// application initializes only after everything it depends on has
    /// completed its initialization (the avionics example's
    /// "autopilot cannot resume service until the FCS has completed its
    /// reconfiguration").
    PhaseChecked,
}

/// Policy for how many SCRAM signals drive the post-halt stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StagePolicy {
    /// One signal per stage, as in Table 1: halt, prepare, initialize on
    /// three successive frames.
    #[default]
    Signalled,
    /// The §6.3 relaxation: applications "complete multiple sequential
    /// stages without signals from the SCRAM" — prepare and initialize
    /// run back to back in a single frame, shortening the protocol to
    /// three cycles (trigger, halt, prepare+initialize).
    CompressedPrepareInit,
}

/// A deliberately seeded protocol defect, used to demonstrate that the
/// SP1–SP4 checkers are not vacuous (each mutation violates exactly the
/// property named in its documentation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScramMutation {
    /// Reconfigure to some configuration other than the one the choice
    /// function selects — violates **SP2**.
    WrongTarget,
    /// Stall for the given number of extra frames between prepare and
    /// initialize — violates **SP3** when the stall pushes the duration
    /// past `T(cᵢ, cⱼ)`.
    ExtraDelayFrames(u64),
    /// Declare the reconfiguration complete without ever running the
    /// initialize stage — the target preconditions are never
    /// established, violating **SP4**.
    SkipInitPhase,
    /// Jump straight from the trigger to the prepare phase without ever
    /// commanding halt. SP1–SP4 cannot see this defect (the window
    /// boundaries, choice, timing, and preconditions all remain
    /// plausible); it is caught by the Table 1 **protocol conformance**
    /// check ([`crate::properties::PropertyId::ProtocolConformance`]), which
    /// requires postcondition evidence from a halt stage in every
    /// reconfiguration.
    SkipHaltPhase,
    /// Let the named application keep running normally through the
    /// reconfiguration — violates **SP1** (a normal application strictly
    /// inside the reconfiguration window).
    LeaveAppRunning(AppId),
    /// Abort (panic) the moment a trigger is accepted. Unlike the other
    /// mutations this is not a protocol defect the SP checkers can see —
    /// it is a harness-robustness fixture: an exhaustive-exploration
    /// engine must attribute a worker crash to the schedule that caused
    /// it, not swallow it in a join error.
    PanicOnTrigger,
}

/// The per-application command for one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppCommand {
    /// The configuration-status value to write to the application's
    /// stable-storage variable.
    pub status: ConfigStatus,
    /// The target specification, present for prepare/initialize commands.
    pub target: Option<SpecId>,
}

/// An auditable kernel event (the signal flows of Figure 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScramEvent {
    /// A reconfiguration trigger was accepted.
    TriggerAccepted {
        /// Frame of the trigger.
        frame: u64,
        /// Environment state that caused it.
        env: EnvState,
        /// Source configuration.
        from: ConfigId,
        /// Chosen target configuration.
        target: ConfigId,
        /// Applications whose fault-tolerant actions were interrupted
        /// (their specification changes in the transition).
        interrupted: Vec<AppId>,
    },
    /// A protocol phase was entered.
    PhaseEntered {
        /// Frame at which the phase begins issuing commands.
        frame: u64,
        /// The phase.
        phase: Phase,
        /// Target configuration of the in-flight reconfiguration.
        target: ConfigId,
    },
    /// A mid-reconfiguration trigger replaced the target
    /// ([`MidReconfigPolicy::ImmediateRetarget`]).
    Retargeted {
        /// Frame of the retarget.
        frame: u64,
        /// The abandoned target.
        old_target: ConfigId,
        /// The new target.
        new_target: ConfigId,
    },
    /// The reconfiguration completed; the system now operates in the
    /// target configuration.
    Completed {
        /// Completion frame (`end_c`).
        frame: u64,
        /// The new current configuration.
        config: ConfigId,
    },
    /// A trigger was observed but suppressed by the minimum-dwell cycle
    /// guard (§5.3).
    DwellSuppressed {
        /// Frame of the suppressed trigger.
        frame: u64,
        /// First frame at which a trigger will be accepted.
        until: u64,
    },
    /// A Table 1 stage frame was voided by a substrate fault (a torn
    /// stable-storage commit) and will be retried: the frame's stage
    /// ran but its commit never took effect, so the protocol holds its
    /// position and re-issues the stage, burning one frame of the
    /// retry budget (plus any configured backoff).
    CommitRetry {
        /// The disrupted frame.
        frame: u64,
        /// Target of the in-flight reconfiguration being retried.
        target: ConfigId,
        /// Retry-budget frames consumed so far, this one included.
        used: u64,
        /// The configured budget
        /// ([`ChaosDefense::retry_budget_frames`]).
        budget: u64,
    },
    /// The retry budget was exhausted mid-reconfiguration: the SCRAM
    /// abandoned the in-flight target and fell back to the safe
    /// configuration — the last-resort defense. Deliberately ignores
    /// the choice function (which still wants the abandoned target),
    /// so a fallback is visible to SP2 whenever safe ≠ chosen.
    SafeFallback {
        /// The frame the budget ran out.
        frame: u64,
        /// The abandoned in-flight target.
        abandoned: ConfigId,
        /// The safe configuration now being reconfigured to.
        safe: ConfigId,
    },
}

/// What the kernel decided for one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameDecision {
    /// The frame this decision is for.
    pub frame: u64,
    /// Per-application commands (every declared application receives
    /// one).
    pub commands: BTreeMap<AppId, AppCommand>,
    /// The end-of-frame `reconf_st` annotation for the trace.
    pub reconf_st: BTreeMap<AppId, ReconfSt>,
    /// The end-of-frame service level (current configuration).
    pub svclvl: ConfigId,
    /// Events raised this frame.
    pub events: Vec<ScramEvent>,
}

#[derive(Debug, Clone)]
struct InFlight {
    source: ConfigId,
    target: ConfigId,
    phase: Phase,
    /// Frames already spent in the current phase.
    phase_progress: u64,
    /// Remaining stall frames (mutation only).
    stall_left: u64,
    /// Retry-budget frames consumed by substrate faults so far.
    retries_used: u64,
    /// Remaining backoff Hold frames before the next stage attempt.
    backoff_left: u64,
    /// Whether the current phase instance has already pushed its
    /// `PhaseEntered` event — retried frames keep `phase_progress` at
    /// its pre-fault value, and must not announce the phase again.
    announced: bool,
}

#[derive(Debug, Clone)]
enum KernelState {
    Steady { since: u64 },
    Reconfiguring(InFlight),
}

/// The SCRAM kernel.
///
/// See the [module documentation](self) for the protocol. Construct with
/// [`Scram::new`], then call [`Scram::step`] exactly once per frame.
/// The kernel owns no shared handles, so `Clone` is a full fork of the
/// protocol state machine mid-flight (phase, progress, dwell origin,
/// event log); the model checker relies on this to branch exploration
/// at schedule prefixes.
#[derive(Debug, Clone)]
pub struct Scram {
    spec: Arc<ReconfigSpec>,
    current: ConfigId,
    state: KernelState,
    mid_policy: MidReconfigPolicy,
    sync_policy: SyncPolicy,
    stage_policy: StagePolicy,
    mutation: Option<ScramMutation>,
    defense: ChaosDefense,
    phase_frames: StageBounds,
    depths: BTreeMap<AppId, u64>,
    wave_count: u64,
    log: CowLog<ScramEvent>,
    /// The latest frame's decision. Every step gives every application
    /// an entry in both maps, so the next step refills them in place and
    /// a frame without events allocates nothing.
    decision: FrameDecision,
}

/// A read-only view of the in-flight reconfiguration protocol state,
/// for mid-reconfiguration ("busy") state fingerprinting.
///
/// Together with the frames elapsed since the trigger, these fields
/// determine every future `PhaseEntered`/`WaveCompleted`/completion
/// event and every remaining restricted frame of the reconfiguration:
/// two kernels with equal busy views at the same protocol offset
/// behave identically under identical future inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusyView<'a> {
    /// The configuration being reconfigured away from.
    pub source: &'a ConfigId,
    /// The target configuration.
    pub target: &'a ConfigId,
    /// The protocol phase currently executing.
    pub phase: Phase,
    /// Frames already spent in the current phase.
    pub phase_progress: u64,
    /// Remaining stall frames (mutation only).
    pub stall_left: u64,
    /// Retry-budget frames consumed by substrate faults so far.
    pub retries_used: u64,
    /// Remaining backoff Hold frames before the next stage attempt.
    pub backoff_left: u64,
    /// Whether the current phase instance already announced itself.
    pub announced: bool,
}

impl Scram {
    /// Creates a kernel in the specification's initial configuration with
    /// default policies.
    pub fn new(spec: Arc<ReconfigSpec>) -> Self {
        let phase_frames = spec.phase_frames();
        let depths = dependency_depths(spec.apps());
        let wave_count = depths.values().copied().max().unwrap_or(0) + 1;
        Scram {
            current: spec.initial_config().clone(),
            decision: FrameDecision {
                frame: 0,
                commands: BTreeMap::new(),
                reconf_st: BTreeMap::new(),
                svclvl: spec.initial_config().clone(),
                events: Vec::new(),
            },
            state: KernelState::Steady { since: 0 },
            mid_policy: MidReconfigPolicy::default(),
            sync_policy: SyncPolicy::default(),
            stage_policy: StagePolicy::default(),
            mutation: None,
            defense: ChaosDefense::default(),
            phase_frames,
            depths,
            wave_count,
            spec,
            log: CowLog::new(),
        }
    }

    /// Sets the mid-reconfiguration trigger policy.
    #[must_use]
    pub fn with_mid_policy(mut self, policy: MidReconfigPolicy) -> Self {
        self.mid_policy = policy;
        self
    }

    /// Sets the dependency synchronization policy.
    #[must_use]
    pub fn with_sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Sets the stage-signalling policy.
    ///
    /// # Panics
    ///
    /// [`StagePolicy::CompressedPrepareInit`] requires one-frame prepare
    /// and initialize bounds for every application and the
    /// [`SyncPolicy::Simultaneous`] synchronization policy; other
    /// combinations panic, because a compressed stage cannot be split
    /// across frames or waves.
    #[must_use]
    pub fn with_stage_policy(self, policy: StagePolicy) -> Self {
        if policy == StagePolicy::CompressedPrepareInit {
            assert_eq!(
                self.sync_policy,
                SyncPolicy::Simultaneous,
                "compressed stages require simultaneous synchronization"
            );
            assert!(
                self.spec
                    .apps()
                    .iter()
                    .all(|a| { a.bounds().prepare_frames == 1 && a.bounds().init_frames == 1 }),
                "compressed stages require one-frame prepare/initialize bounds"
            );
        }
        Scram {
            stage_policy: policy,
            ..self
        }
    }

    /// Seeds a protocol defect for verification experiments. Production
    /// systems never call this; it exists so the property checkers can be
    /// shown to catch real violations.
    #[must_use]
    pub fn with_mutation(mut self, mutation: ScramMutation) -> Self {
        self.mutation = Some(mutation);
        self
    }

    /// Tunes the substrate-fault defenses (retry budget and backoff).
    /// Only consulted on frames a fault actually disrupts, so kernels
    /// stepped without faults behave identically under every setting.
    #[must_use]
    pub fn with_chaos_defense(mut self, defense: ChaosDefense) -> Self {
        self.defense = defense;
        self
    }

    /// The configuration the system currently operates in (the service
    /// level).
    pub fn current_config(&self) -> &ConfigId {
        &self.current
    }

    /// Returns `true` while a reconfiguration is in flight.
    pub fn is_reconfiguring(&self) -> bool {
        matches!(self.state, KernelState::Reconfiguring(_))
    }

    /// Returns `true` if the kernel was built with an injected defect
    /// ([`ScramMutation`]).
    ///
    /// Mutated kernels may misbehave even on frames where a pristine
    /// kernel provably does nothing, so fast paths that skip the kernel
    /// step must stand down when a mutation is present.
    pub fn has_mutation(&self) -> bool {
        self.mutation.is_some()
    }

    /// Frames of minimum dwell still suppressing triggers at `frame`,
    /// or `None` while a reconfiguration is in flight.
    ///
    /// This — not the absolute steady-since frame — is the dwell
    /// component of the model checker's canonical state fingerprint:
    /// two steady kernels with the same remaining dwell accept the same
    /// future triggers, regardless of *when* they became steady.
    pub fn steady_dwell_remaining(&self, frame: u64) -> Option<u64> {
        match &self.state {
            KernelState::Steady { since } => {
                Some((since + self.spec.min_dwell_frames()).saturating_sub(frame))
            }
            KernelState::Reconfiguring(_) => None,
        }
    }

    /// The cumulative event log, collected into a fresh vector.
    pub fn log(&self) -> Vec<ScramEvent> {
        self.log.to_vec()
    }

    /// Number of events logged so far.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// The in-flight protocol state, or `None` while steady. See
    /// [`BusyView`].
    pub fn busy_view(&self) -> Option<BusyView<'_>> {
        match &self.state {
            KernelState::Steady { .. } => None,
            KernelState::Reconfiguring(inflight) => Some(BusyView {
                source: &inflight.source,
                target: &inflight.target,
                phase: inflight.phase,
                phase_progress: inflight.phase_progress,
                stall_left: inflight.stall_left,
                retries_used: inflight.retries_used,
                backoff_left: inflight.backoff_left,
                announced: inflight.announced,
            }),
        }
    }

    /// Forks the kernel: protocol state is duplicated, the event log's
    /// history is sealed and shared (never copied) with the fork.
    pub fn fork(&mut self) -> Scram {
        Scram {
            spec: Arc::clone(&self.spec),
            current: self.current.clone(),
            state: self.state.clone(),
            mid_policy: self.mid_policy,
            sync_policy: self.sync_policy,
            stage_policy: self.stage_policy,
            mutation: self.mutation.clone(),
            defense: self.defense,
            phase_frames: self.phase_frames,
            depths: self.depths.clone(),
            wave_count: self.wave_count,
            log: self.log.fork(),
            decision: self.decision.clone(),
        }
    }

    /// The number of frames one complete reconfiguration takes under the
    /// active policies, from trigger frame to completion frame inclusive.
    pub fn protocol_frames(&self) -> u64 {
        match self.stage_policy {
            StagePolicy::Signalled => {
                1 + self.phase_frames.halt_frames
                    + self.phase_frames.prepare_frames
                    + self.init_phase_len()
            }
            StagePolicy::CompressedPrepareInit => 1 + self.phase_frames.halt_frames + 1,
        }
    }

    fn init_phase_len(&self) -> u64 {
        match self.sync_policy {
            SyncPolicy::Simultaneous => self.phase_frames.init_frames,
            SyncPolicy::PhaseChecked => self.phase_frames.init_frames * self.wave_count,
        }
    }

    fn interrupted_apps(&self, from: &ConfigId, to: &ConfigId) -> Vec<AppId> {
        let from_cfg = self.spec.config(from).expect("validated config");
        let to_cfg = self.spec.config(to).expect("validated config");
        self.spec
            .apps()
            .iter()
            .filter(|a| from_cfg.spec_for(a.id()) != to_cfg.spec_for(a.id()))
            .map(|a| a.id().clone())
            .collect()
    }

    fn target_spec_for(&self, target: &ConfigId, app: &AppId) -> SpecId {
        self.spec
            .config(target)
            .expect("validated config")
            .spec_for(app)
            .expect("validated assignment")
            .clone()
    }

    fn mutated_target(&self, chosen: &ConfigId) -> ConfigId {
        if matches!(self.mutation, Some(ScramMutation::WrongTarget)) {
            if let Some(other) = self
                .spec
                .configs()
                .iter()
                .map(|c| c.id())
                .find(|c| *c != chosen && **c != self.current)
            {
                return other.clone();
            }
        }
        chosen.clone()
    }

    fn exempted(&self, app: &AppId) -> bool {
        matches!(&self.mutation, Some(ScramMutation::LeaveAppRunning(a)) if a == app)
    }

    /// Advances the kernel by one frame.
    ///
    /// `env` is the environment state in effect during this frame (the
    /// output of the monitoring applications). The returned decision
    /// carries the commands the system must deliver to the applications
    /// *this* frame and the end-of-frame trace annotations.
    pub fn step(&mut self, frame: u64, env: &EnvState) -> FrameDecision {
        self.step_chaos(frame, env, &BTreeSet::new()).clone()
    }

    /// [`step`](Scram::step) under substrate faults: `faulted` names
    /// the applications whose stable-storage commit tears this frame.
    ///
    /// A frame is atomic — a stage whose commit tears contributes no
    /// protocol progress. The kernel still issues this frame's
    /// commands (the stage *runs*; its effects are simply never
    /// committed), but an in-flight reconfiguration holds its phase
    /// position and retries, burning one frame of the
    /// [`ChaosDefense::retry_budget_frames`] budget and emitting
    /// [`ScramEvent::CommitRetry`]; past the budget it abandons the
    /// target for the safe configuration
    /// ([`ScramEvent::SafeFallback`]). Faults on steady or stall
    /// frames disturb no protocol state and are absorbed silently —
    /// the torn application data is the surrounding system's problem.
    ///
    /// The kernel keeps the returned decision and refills it in place
    /// next step, so a steady frame allocates nothing;
    /// [`step`](Scram::step) returns an owned copy instead.
    pub fn step_chaos(
        &mut self,
        frame: u64,
        env: &EnvState,
        faulted: &BTreeSet<AppId>,
    ) -> &FrameDecision {
        let mut events = std::mem::take(&mut self.decision.events);
        events.clear();
        let decision = match &mut self.state {
            KernelState::Steady { since } => {
                let since = *since;
                let chosen = self.spec.choose(&self.current, env).cloned();
                match chosen {
                    Some(target) if target != self.current => {
                        let dwell_until = since + self.spec.min_dwell_frames();
                        if frame < dwell_until {
                            events.push(ScramEvent::DwellSuppressed {
                                frame,
                                until: dwell_until,
                            });
                            self.steady_decision(frame)
                        } else {
                            let target = self.mutated_target(&target);
                            let mut interrupted = self.interrupted_apps(&self.current, &target);
                            if interrupted.is_empty() {
                                // A placement-only transition (identical
                                // assignments, different processors)
                                // interrupts every application: they all
                                // must stop to migrate.
                                interrupted =
                                    self.spec.apps().iter().map(|a| a.id().clone()).collect();
                            }
                            if matches!(self.mutation, Some(ScramMutation::PanicOnTrigger)) {
                                panic!("SCRAM aborted on trigger acceptance (PanicOnTrigger)");
                            }
                            // Failpoint: trigger acceptance is the kernel's
                            // point of no return into the SFTA protocol.
                            // Skip defers the trigger by one frame — the
                            // environment change persists, so the kernel
                            // re-chooses next frame (a delayed failure
                            // signal, defended by SP4's bound starting at
                            // acceptance).
                            fp!("scram.trigger", action => {
                                if matches!(action, arfs_assure::FpAction::Skip) {
                                    let decision = self.steady_decision(frame);
                                    return self.settle(decision, events);
                                }
                            });
                            events.push(ScramEvent::TriggerAccepted {
                                frame,
                                env: env.clone(),
                                from: self.current.clone(),
                                target: target.clone(),
                                interrupted: interrupted.clone(),
                            });
                            let stall = match self.mutation {
                                Some(ScramMutation::ExtraDelayFrames(n)) => n,
                                _ => 0,
                            };
                            self.state = KernelState::Reconfiguring(InFlight {
                                source: self.current.clone(),
                                target,
                                phase: Phase::Halt,
                                phase_progress: 0,
                                stall_left: stall,
                                retries_used: 0,
                                backoff_left: 0,
                                announced: false,
                            });
                            // Trigger frame: applications still hold their
                            // current (interrupted) state; commands stay
                            // Normal per Table 1 frame 0.
                            let (mut commands, mut reconf_st) = self.reuse_maps();
                            for app in self.spec.apps() {
                                let id = app.id().clone();
                                commands.insert(
                                    id.clone(),
                                    AppCommand {
                                        status: ConfigStatus::Normal,
                                        target: None,
                                    },
                                );
                                let st = if interrupted.contains(&id) && !self.exempted(&id) {
                                    ReconfSt::Interrupted
                                } else {
                                    ReconfSt::Normal
                                };
                                reconf_st.insert(id, st);
                            }
                            FrameDecision {
                                frame,
                                commands,
                                reconf_st,
                                svclvl: self.current.clone(),
                                events: Vec::new(),
                            }
                        }
                    }
                    _ => self.steady_decision(frame),
                }
            }
            KernelState::Reconfiguring(_) => {
                self.reconfiguring_step(frame, env, faulted, &mut events)
            }
        };
        self.settle(decision, events)
    }

    /// Installs `decision` with this frame's `events` as the latest one
    /// and logs the events.
    fn settle(&mut self, mut decision: FrameDecision, events: Vec<ScramEvent>) -> &FrameDecision {
        decision.events = events;
        self.log.extend(decision.events.iter().cloned());
        self.decision = decision;
        &self.decision
    }

    /// The previous decision's per-application maps, to be refilled in
    /// place: every step inserts every application, so the key set never
    /// changes and no map node is reallocated.
    fn reuse_maps(&mut self) -> (BTreeMap<AppId, AppCommand>, BTreeMap<AppId, ReconfSt>) {
        (
            std::mem::take(&mut self.decision.commands),
            std::mem::take(&mut self.decision.reconf_st),
        )
    }

    fn steady_decision(&mut self, frame: u64) -> FrameDecision {
        let (mut commands, mut reconf_st) = self.reuse_maps();
        for app in self.spec.apps() {
            commands.insert(
                app.id().clone(),
                AppCommand {
                    status: ConfigStatus::Normal,
                    target: None,
                },
            );
            reconf_st.insert(app.id().clone(), ReconfSt::Normal);
        }
        FrameDecision {
            frame,
            commands,
            reconf_st,
            svclvl: self.current.clone(),
            events: Vec::new(),
        }
    }

    fn reconfiguring_step(
        &mut self,
        frame: u64,
        env: &EnvState,
        faulted: &BTreeSet<AppId>,
        events: &mut Vec<ScramEvent>,
    ) -> FrameDecision {
        // Backoff frames are dead frames: every application holds, the
        // phase position is untouched, and (since Hold carries no
        // protocol progress) a fault striking one costs nothing. A
        // pending retarget is noticed on the next live frame — the
        // choice function is recomputed from `env` every frame.
        {
            let KernelState::Reconfiguring(r) = &mut self.state else {
                unreachable!("caller checked state")
            };
            if r.backoff_left > 0 {
                r.backoff_left -= 1;
                let phase = r.phase;
                let svclvl = self.current.clone();
                let (mut commands, mut reconf_st) = self.reuse_maps();
                for app in self.spec.apps() {
                    let id = app.id().clone();
                    if self.exempted(&id) {
                        commands.insert(
                            id.clone(),
                            AppCommand {
                                status: ConfigStatus::Normal,
                                target: None,
                            },
                        );
                        reconf_st.insert(id, ReconfSt::Normal);
                        continue;
                    }
                    commands.insert(
                        id.clone(),
                        AppCommand {
                            status: ConfigStatus::Hold,
                            target: None,
                        },
                    );
                    let st = match phase {
                        Phase::Halt | Phase::Prepare => ReconfSt::Halted,
                        Phase::Init | Phase::Stall => ReconfSt::Prepared,
                    };
                    reconf_st.insert(id, st);
                }
                return FrameDecision {
                    frame,
                    commands,
                    reconf_st,
                    svclvl,
                    events: Vec::new(),
                };
            }
        }

        // Mid-reconfiguration trigger handling.
        if self.mid_policy == MidReconfigPolicy::ImmediateRetarget {
            let (source, target, phase) = {
                let KernelState::Reconfiguring(r) = &self.state else {
                    unreachable!("caller checked state")
                };
                (r.source.clone(), r.target.clone(), r.phase)
            };
            if let Some(new_target) = self.spec.choose(&source, env).cloned() {
                // Retarget only to a genuinely different, non-source
                // configuration: retargeting "back to where we came from"
                // would require a zero-bound self transition and is
                // handled by completing and re-triggering instead.
                if new_target != target && new_target != source {
                    // Failpoint: mid-flight retarget decision. Counted for
                    // coverage; Panic models a kernel crash at the retarget
                    // boundary (caught by the fail-stop harness).
                    fp!("scram.retarget");
                    let KernelState::Reconfiguring(r) = &mut self.state else {
                        unreachable!("caller checked state")
                    };
                    events.push(ScramEvent::Retargeted {
                        frame,
                        old_target: r.target.clone(),
                        new_target: new_target.clone(),
                    });
                    r.target = new_target;
                    if r.phase != Phase::Halt {
                        // Postconditions are already established; fall
                        // back to preparing for the new target.
                        r.phase = Phase::Prepare;
                        r.phase_progress = 0;
                        r.announced = false;
                        events.push(ScramEvent::PhaseEntered {
                            frame,
                            phase: Phase::Prepare,
                            target: r.target.clone(),
                        });
                    }
                    let _ = phase;
                }
            }
        }

        let (target, phase, progress, announced, retries_used) = {
            let KernelState::Reconfiguring(r) = &self.state else {
                unreachable!("caller checked state")
            };
            (
                r.target.clone(),
                r.phase,
                r.phase_progress,
                r.announced,
                r.retries_used,
            )
        };
        let (mut next_phase, mut next_progress, mut next_stall) = {
            let KernelState::Reconfiguring(r) = &self.state else {
                unreachable!("caller checked state")
            };
            (r.phase, r.phase_progress, r.stall_left)
        };
        let mut next_target = target.clone();
        let mut next_retries = retries_used;
        let mut next_backoff = 0u64;
        let mut next_announced = announced;

        if progress == 0 && !announced {
            // Announce once per phase instance: a retried frame keeps
            // `progress` at its pre-fault value, and must not announce
            // the phase a second time.
            // Failpoint: SFTA phase transition (Table 1 rows). Counted for
            // coverage; Panic models a kernel crash at a phase boundary.
            fp!("scram.phase");
            events.push(ScramEvent::PhaseEntered {
                frame,
                phase,
                target: target.clone(),
            });
            next_announced = true;
        }

        let (mut commands, mut reconf_st) = self.reuse_maps();
        let mut completed = false;

        match phase {
            Phase::Halt => {
                let skip_halt = matches!(self.mutation, Some(ScramMutation::SkipHaltPhase));
                for app in self.spec.apps() {
                    let id = app.id().clone();
                    if self.exempted(&id) {
                        commands.insert(
                            id.clone(),
                            AppCommand {
                                status: ConfigStatus::Normal,
                                target: None,
                            },
                        );
                        reconf_st.insert(id, ReconfSt::Normal);
                        continue;
                    }
                    let status = if skip_halt {
                        // Defect: hold without ever commanding halt.
                        ConfigStatus::Hold
                    } else if progress < app.bounds().halt_frames {
                        ConfigStatus::Halt
                    } else {
                        ConfigStatus::Hold
                    };
                    commands.insert(
                        id.clone(),
                        AppCommand {
                            status,
                            target: None,
                        },
                    );
                    reconf_st.insert(id, ReconfSt::Halted);
                }
                next_progress = progress + 1;
                if next_progress >= self.phase_frames.halt_frames {
                    next_phase = Phase::Prepare;
                    next_progress = 0;
                }
            }
            Phase::Prepare => {
                // The §6.3 compressed path: prepare and initialize run
                // back to back this frame and the reconfiguration
                // completes. Seeded defects (stall / skip-init) force the
                // signalled protocol so they remain observable.
                let compressed = self.stage_policy == StagePolicy::CompressedPrepareInit
                    && next_stall == 0
                    && !matches!(self.mutation, Some(ScramMutation::SkipInitPhase));
                for app in self.spec.apps() {
                    let id = app.id().clone();
                    if self.exempted(&id) {
                        commands.insert(
                            id.clone(),
                            AppCommand {
                                status: ConfigStatus::Normal,
                                target: None,
                            },
                        );
                        reconf_st.insert(id, ReconfSt::Normal);
                        continue;
                    }
                    let spec_target = self.target_spec_for(&target, &id);
                    let status = if compressed {
                        ConfigStatus::PrepareInitialize
                    } else if progress < app.bounds().prepare_frames {
                        ConfigStatus::Prepare
                    } else {
                        ConfigStatus::Hold
                    };
                    commands.insert(
                        id.clone(),
                        AppCommand {
                            status,
                            target: Some(spec_target),
                        },
                    );
                    let st = if compressed {
                        ReconfSt::Normal
                    } else if progress + 1 >= app.bounds().prepare_frames {
                        ReconfSt::Prepared
                    } else {
                        ReconfSt::Halted
                    };
                    reconf_st.insert(id, st);
                }
                if compressed {
                    completed = true;
                } else {
                    next_progress = progress + 1;
                    if next_progress >= self.phase_frames.prepare_frames {
                        if next_stall > 0 {
                            next_phase = Phase::Stall;
                        } else if matches!(self.mutation, Some(ScramMutation::SkipInitPhase)) {
                            completed = true;
                            for app in self.spec.apps() {
                                reconf_st.insert(app.id().clone(), ReconfSt::Normal);
                            }
                        } else {
                            next_phase = Phase::Init;
                        }
                        next_progress = 0;
                    }
                }
            }
            Phase::Stall => {
                for app in self.spec.apps() {
                    let id = app.id().clone();
                    if self.exempted(&id) {
                        commands.insert(
                            id.clone(),
                            AppCommand {
                                status: ConfigStatus::Normal,
                                target: None,
                            },
                        );
                        reconf_st.insert(id, ReconfSt::Normal);
                        continue;
                    }
                    commands.insert(
                        id.clone(),
                        AppCommand {
                            status: ConfigStatus::Hold,
                            target: None,
                        },
                    );
                    reconf_st.insert(id, ReconfSt::Prepared);
                }
                next_stall -= 1;
                if next_stall == 0 {
                    next_phase = Phase::Init;
                    next_progress = 0;
                }
            }
            Phase::Init => {
                let init_len = self.init_phase_len();
                let per_app_init = self.phase_frames.init_frames;
                let last_frame_of_phase = progress + 1 >= init_len;
                for app in self.spec.apps() {
                    let id = app.id().clone();
                    if self.exempted(&id) {
                        commands.insert(
                            id.clone(),
                            AppCommand {
                                status: ConfigStatus::Normal,
                                target: None,
                            },
                        );
                        reconf_st.insert(id, ReconfSt::Normal);
                        continue;
                    }
                    let wave = match self.sync_policy {
                        SyncPolicy::Simultaneous => 0,
                        SyncPolicy::PhaseChecked => self.depths.get(&id).copied().unwrap_or(0),
                    };
                    let wave_start = wave * per_app_init;
                    let spec_target = self.target_spec_for(&target, &id);
                    let in_window =
                        progress >= wave_start && progress < wave_start + app.bounds().init_frames;
                    let status = if in_window {
                        ConfigStatus::Initialize
                    } else {
                        ConfigStatus::Hold
                    };
                    commands.insert(
                        id.clone(),
                        AppCommand {
                            status,
                            target: Some(spec_target),
                        },
                    );
                    let st = if last_frame_of_phase {
                        ReconfSt::Normal
                    } else if progress >= wave_start {
                        ReconfSt::Initializing
                    } else {
                        ReconfSt::Prepared
                    };
                    reconf_st.insert(id, st);
                }
                next_progress = progress + 1;
                if last_frame_of_phase {
                    completed = true;
                }
            }
        }

        let fault_hit = phase != Phase::Stall
            && self
                .spec
                .apps()
                .iter()
                .any(|a| faulted.contains(a.id()) && !self.exempted(a.id()));
        if fault_hit {
            // The frame is atomic: its stage ran, but the torn commit
            // voids the outcome. Hold the phase position, keep every
            // application visibly restricted (a voided completion must
            // not end the SP1 window), and spend the retry budget.
            completed = false;
            next_phase = phase;
            next_progress = progress;
            for app in self.spec.apps() {
                let id = app.id().clone();
                if self.exempted(&id) {
                    continue;
                }
                let st = match phase {
                    Phase::Halt | Phase::Prepare => ReconfSt::Halted,
                    Phase::Init => ReconfSt::Initializing,
                    Phase::Stall => ReconfSt::Prepared,
                };
                reconf_st.insert(id, st);
            }
            next_retries = retries_used + 1;
            if next_retries > self.defense.retry_budget_frames {
                let safe = self
                    .spec
                    .safe_configs()
                    .first()
                    .map(|c| (*c).clone())
                    .expect("validated specs declare a safe configuration");
                events.push(ScramEvent::SafeFallback {
                    frame,
                    abandoned: target.clone(),
                    safe: safe.clone(),
                });
                // Postconditions established by a completed halt phase
                // survive (earlier frames committed); anything later is
                // redone for the safe target, mirroring the §5.3
                // retarget fallback-to-prepare rule.
                next_phase = if phase == Phase::Halt {
                    Phase::Halt
                } else {
                    Phase::Prepare
                };
                next_progress = 0;
                next_retries = 0;
                next_announced = false;
                next_target = safe;
            } else {
                events.push(ScramEvent::CommitRetry {
                    frame,
                    target: target.clone(),
                    used: next_retries,
                    budget: self.defense.retry_budget_frames,
                });
                // Clamped: a misconfigured backoff must not be able to
                // stall the protocol past the Table 1 accounting (see
                // `ChaosDefense::worst_case_stall_frames`).
                next_backoff = self.defense.bounded_backoff_frames();
            }
        }

        let svclvl = if completed {
            self.current = target.clone();
            self.state = KernelState::Steady { since: frame + 1 };
            events.push(ScramEvent::Completed {
                frame,
                config: target.clone(),
            });
            target
        } else {
            if next_phase != phase {
                // A fresh phase instance announces itself next frame.
                next_announced = false;
            }
            if let KernelState::Reconfiguring(r) = &mut self.state {
                r.phase = next_phase;
                r.phase_progress = next_progress;
                r.stall_left = next_stall;
                r.target = next_target;
                r.retries_used = next_retries;
                r.backoff_left = next_backoff;
                r.announced = next_announced;
            }
            self.current.clone()
        };

        FrameDecision {
            frame,
            commands,
            reconf_st,
            svclvl,
            events: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AppDecl, Configuration, FunctionalSpec};
    use arfs_failstop::ProcessorId;
    use arfs_rtos::Ticks;

    fn two_app_spec(dwell: u64) -> Arc<ReconfigSpec> {
        Arc::new(
            ReconfigSpec::builder()
                .frame_len(Ticks::new(100))
                .env_factor("power", ["good", "low", "critical"])
                .app(
                    AppDecl::new("fcs")
                        .spec(FunctionalSpec::new("full"))
                        .spec(FunctionalSpec::new("direct")),
                )
                .app(
                    AppDecl::new("autopilot")
                        .spec(FunctionalSpec::new("full"))
                        .spec(FunctionalSpec::new("alt-hold"))
                        .depends_on("fcs"),
                )
                .config(
                    Configuration::new("full-service")
                        .assign("fcs", "full")
                        .assign("autopilot", "full")
                        .place("fcs", ProcessorId::new(0))
                        .place("autopilot", ProcessorId::new(1)),
                )
                .config(
                    Configuration::new("reduced")
                        .assign("fcs", "direct")
                        .assign("autopilot", "alt-hold")
                        .place("fcs", ProcessorId::new(0))
                        .place("autopilot", ProcessorId::new(0)),
                )
                .config(
                    Configuration::new("minimal")
                        .assign("fcs", "direct")
                        .assign("autopilot", "off")
                        .place("fcs", ProcessorId::new(0))
                        .safe(),
                )
                .transition("full-service", "reduced", Ticks::new(800))
                .transition("full-service", "minimal", Ticks::new(800))
                .transition("reduced", "minimal", Ticks::new(800))
                .transition("reduced", "full-service", Ticks::new(800))
                .transition("minimal", "reduced", Ticks::new(800))
                .choose_when("power", "critical", "minimal")
                .choose_when("power", "low", "reduced")
                .choose_when("power", "good", "full-service")
                .initial_config("full-service")
                .initial_env([("power", "good")])
                .min_dwell_frames(dwell)
                .build()
                .unwrap(),
        )
    }

    fn env(v: &str) -> EnvState {
        EnvState::new([("power", v)])
    }

    fn statuses(d: &FrameDecision) -> Vec<(String, ConfigStatus)> {
        d.commands
            .iter()
            .map(|(k, v)| (k.to_string(), v.status))
            .collect()
    }

    #[test]
    fn steady_state_issues_normal_commands() {
        let mut scram = Scram::new(two_app_spec(0));
        let d = scram.step(0, &env("good"));
        assert!(!scram.is_reconfiguring());
        assert!(d
            .commands
            .values()
            .all(|c| c.status == ConfigStatus::Normal));
        assert!(d.reconf_st.values().all(|s| s.is_normal()));
        assert_eq!(d.svclvl, ConfigId::new("full-service"));
        assert!(d.events.is_empty());
    }

    #[test]
    fn table1_protocol_sequence() {
        let mut scram = Scram::new(two_app_spec(0));
        scram.step(0, &env("good"));

        // Frame 1: trigger. Commands still Normal; affected apps
        // Interrupted.
        let d1 = scram.step(1, &env("low"));
        assert!(scram.is_reconfiguring());
        assert!(d1
            .commands
            .values()
            .all(|c| c.status == ConfigStatus::Normal));
        assert_eq!(d1.reconf_st[&AppId::new("fcs")], ReconfSt::Interrupted);
        assert_eq!(
            d1.reconf_st[&AppId::new("autopilot")],
            ReconfSt::Interrupted
        );
        assert_eq!(d1.svclvl, ConfigId::new("full-service"));
        assert!(matches!(d1.events[0], ScramEvent::TriggerAccepted { .. }));

        // Frame 2: halt -> all apps.
        let d2 = scram.step(2, &env("low"));
        assert!(d2.commands.values().all(|c| c.status == ConfigStatus::Halt));
        assert!(d2.reconf_st.values().all(|s| *s == ReconfSt::Halted));

        // Frame 3: prepare(Ct) -> all apps, with target specs.
        let d3 = scram.step(3, &env("low"));
        assert!(d3
            .commands
            .values()
            .all(|c| c.status == ConfigStatus::Prepare));
        assert_eq!(
            d3.commands[&AppId::new("fcs")].target,
            Some(SpecId::new("direct"))
        );
        assert_eq!(
            d3.commands[&AppId::new("autopilot")].target,
            Some(SpecId::new("alt-hold"))
        );
        assert!(d3.reconf_st.values().all(|s| *s == ReconfSt::Prepared));

        // Frame 4: initialize -> all apps; reconfiguration completes.
        let d4 = scram.step(4, &env("low"));
        assert!(d4
            .commands
            .values()
            .all(|c| c.status == ConfigStatus::Initialize));
        assert!(d4.reconf_st.values().all(|s| s.is_normal()));
        assert_eq!(d4.svclvl, ConfigId::new("reduced"));
        assert!(!scram.is_reconfiguring());
        assert_eq!(scram.current_config(), &ConfigId::new("reduced"));
        assert!(d4
            .events
            .iter()
            .any(|e| matches!(e, ScramEvent::Completed { .. })));

        // Frame 5: steady again under the new configuration.
        let d5 = scram.step(5, &env("low"));
        assert!(d5
            .commands
            .values()
            .all(|c| c.status == ConfigStatus::Normal));
        assert_eq!(d5.svclvl, ConfigId::new("reduced"));
    }

    #[test]
    fn placement_only_transition_interrupts_every_app() {
        // Two configurations with identical assignments but different
        // processor placements: a pure migration.
        let spec = Arc::new(
            ReconfigSpec::builder()
                .frame_len(Ticks::new(100))
                .env_factor("site", ["a", "b"])
                .app(AppDecl::new("x").spec(FunctionalSpec::new("s")))
                .config(
                    Configuration::new("on-a")
                        .assign("x", "s")
                        .place("x", ProcessorId::new(0)),
                )
                .config(
                    Configuration::new("on-b")
                        .assign("x", "s")
                        .place("x", ProcessorId::new(1))
                        .safe(),
                )
                .transition("on-a", "on-b", Ticks::new(800))
                .transition("on-b", "on-a", Ticks::new(800))
                .choose_when("site", "b", "on-b")
                .choose_when("site", "a", "on-a")
                .initial_config("on-a")
                .initial_env([("site", "a")])
                .min_dwell_frames(1)
                .build()
                .unwrap(),
        );
        let mut scram = Scram::new(spec);
        scram.step(0, &EnvState::new([("site", "a")]));
        let d = scram.step(1, &EnvState::new([("site", "b")]));
        // The migrating application is interrupted even though its
        // specification does not change (SP1 requires a witness).
        assert_eq!(d.reconf_st[&AppId::new("x")], ReconfSt::Interrupted);
        for f in 2..=4 {
            scram.step(f, &EnvState::new([("site", "b")]));
        }
        assert_eq!(scram.current_config(), &ConfigId::new("on-b"));
    }

    #[test]
    fn protocol_frames_matches_walkthrough() {
        let scram = Scram::new(two_app_spec(0));
        assert_eq!(scram.protocol_frames(), 4);
    }

    #[test]
    fn off_assignment_is_a_valid_target_spec() {
        let mut scram = Scram::new(two_app_spec(0));
        scram.step(0, &env("good"));
        scram.step(1, &env("critical"));
        scram.step(2, &env("critical"));
        let d3 = scram.step(3, &env("critical"));
        assert_eq!(
            d3.commands[&AppId::new("autopilot")].target,
            Some(SpecId::off())
        );
        let d4 = scram.step(4, &env("critical"));
        assert_eq!(d4.svclvl, ConfigId::new("minimal"));
    }

    #[test]
    fn dwell_guard_suppresses_early_retrigger() {
        let mut scram = Scram::new(two_app_spec(10));
        scram.step(0, &env("good"));
        // Trigger at frame 1 is suppressed: steady since 0, dwell 10.
        let d = scram.step(1, &env("low"));
        assert!(!scram.is_reconfiguring());
        assert!(matches!(
            d.events[0],
            ScramEvent::DwellSuppressed { until: 10, .. }
        ));
        // Still suppressed at frame 9.
        scram.step(9, &env("low"));
        assert!(!scram.is_reconfiguring());
        // Accepted at frame 10.
        scram.step(10, &env("low"));
        assert!(scram.is_reconfiguring());
    }

    #[test]
    fn buffer_policy_chains_reconfigurations() {
        let mut scram = Scram::new(two_app_spec(0));
        scram.step(0, &env("good"));
        scram.step(1, &env("low")); // trigger -> reduced
        scram.step(2, &env("critical")); // halt; env worsens mid-flight
        scram.step(3, &env("critical")); // prepare (still for reduced)
        let d4 = scram.step(4, &env("critical")); // init completes reduced
        assert_eq!(d4.svclvl, ConfigId::new("reduced"));
        // Buffered trigger fires from the new steady state.
        let d5 = scram.step(5, &env("critical"));
        assert!(scram.is_reconfiguring());
        assert!(matches!(
            d5.events[0],
            ScramEvent::TriggerAccepted { ref target, .. } if *target == ConfigId::new("minimal")
        ));
        scram.step(6, &env("critical"));
        scram.step(7, &env("critical"));
        let d8 = scram.step(8, &env("critical"));
        assert_eq!(d8.svclvl, ConfigId::new("minimal"));
    }

    #[test]
    fn immediate_retarget_switches_target_during_prepare() {
        let mut scram =
            Scram::new(two_app_spec(0)).with_mid_policy(MidReconfigPolicy::ImmediateRetarget);
        scram.step(0, &env("good"));
        scram.step(1, &env("low")); // trigger -> reduced
        scram.step(2, &env("low")); // halt
        scram.step(3, &env("critical")); // prepare; retarget to minimal, prepare restarts
        let events: Vec<_> = scram.log().to_vec();
        assert!(events
            .iter()
            .any(|e| matches!(e, ScramEvent::Retargeted { new_target, .. } if *new_target == ConfigId::new("minimal"))));
        // Prepare for minimal, then init.
        let d4 = scram.step(4, &env("critical"));
        assert!(matches!(
            d4.commands[&AppId::new("fcs")].status,
            ConfigStatus::Initialize
        ));
        assert_eq!(d4.svclvl, ConfigId::new("minimal"));
        assert_eq!(scram.current_config(), &ConfigId::new("minimal"));
    }

    #[test]
    fn immediate_retarget_during_halt_needs_no_replay() {
        let mut scram =
            Scram::new(two_app_spec(0)).with_mid_policy(MidReconfigPolicy::ImmediateRetarget);
        scram.step(0, &env("good"));
        scram.step(1, &env("low"));
        // Env worsens during the halt frame: target flips to minimal
        // before prepare ever ran.
        let d2 = scram.step(2, &env("critical"));
        assert!(d2.commands.values().all(|c| c.status == ConfigStatus::Halt));
        let d3 = scram.step(3, &env("critical"));
        assert_eq!(
            d3.commands[&AppId::new("autopilot")].target,
            Some(SpecId::off())
        );
        let d4 = scram.step(4, &env("critical"));
        assert_eq!(d4.svclvl, ConfigId::new("minimal"));
    }

    #[test]
    fn retarget_back_to_source_stays_the_course() {
        let mut scram =
            Scram::new(two_app_spec(0)).with_mid_policy(MidReconfigPolicy::ImmediateRetarget);
        scram.step(0, &env("good"));
        scram.step(1, &env("low")); // trigger -> reduced
        scram.step(2, &env("low")); // halt
                                    // Env recovers: choose(full-service, good) = full-service =
                                    // source; no retarget, finish moving to reduced.
        scram.step(3, &env("good"));
        let d4 = scram.step(4, &env("good"));
        assert_eq!(d4.svclvl, ConfigId::new("reduced"));
        // The recovery then triggers a fresh reconfiguration back.
        let d5 = scram.step(5, &env("good"));
        assert!(scram.is_reconfiguring());
        assert!(matches!(
            d5.events[0],
            ScramEvent::TriggerAccepted { ref target, .. } if *target == ConfigId::new("full-service")
        ));
    }

    #[test]
    fn phase_checked_policy_staggers_init_by_dependency() {
        let mut scram = Scram::new(two_app_spec(0)).with_sync_policy(SyncPolicy::PhaseChecked);
        assert_eq!(scram.protocol_frames(), 5); // 1 + 1 + 1 + 2 waves
        scram.step(0, &env("good"));
        scram.step(1, &env("low"));
        scram.step(2, &env("low")); // halt
        scram.step(3, &env("low")); // prepare
                                    // Init wave 0: fcs initializes, autopilot (depends on fcs) holds.
        let d4 = scram.step(4, &env("low"));
        assert_eq!(
            d4.commands[&AppId::new("fcs")].status,
            ConfigStatus::Initialize
        );
        assert_eq!(
            d4.commands[&AppId::new("autopilot")].status,
            ConfigStatus::Hold
        );
        assert_eq!(d4.reconf_st[&AppId::new("autopilot")], ReconfSt::Prepared);
        assert_eq!(d4.reconf_st[&AppId::new("fcs")], ReconfSt::Initializing);
        assert!(scram.is_reconfiguring());
        // Init wave 1: autopilot initializes; reconfiguration completes.
        let d5 = scram.step(5, &env("low"));
        assert_eq!(
            d5.commands[&AppId::new("autopilot")].status,
            ConfigStatus::Initialize
        );
        assert_eq!(d5.commands[&AppId::new("fcs")].status, ConfigStatus::Hold);
        assert!(d5.reconf_st.values().all(|s| s.is_normal()));
        assert_eq!(d5.svclvl, ConfigId::new("reduced"));
    }

    #[test]
    fn wrong_target_mutation_changes_destination() {
        let mut scram = Scram::new(two_app_spec(0)).with_mutation(ScramMutation::WrongTarget);
        scram.step(0, &env("good"));
        scram.step(1, &env("low")); // chosen: reduced; mutated to minimal
        for f in 2..=4 {
            scram.step(f, &env("low"));
        }
        assert_ne!(scram.current_config(), &ConfigId::new("reduced"));
    }

    #[test]
    fn extra_delay_mutation_stalls_between_prepare_and_init() {
        let mut scram =
            Scram::new(two_app_spec(0)).with_mutation(ScramMutation::ExtraDelayFrames(3));
        scram.step(0, &env("good"));
        scram.step(1, &env("low"));
        scram.step(2, &env("low")); // halt
        scram.step(3, &env("low")); // prepare
        for f in 4..7 {
            let d = scram.step(f, &env("low"));
            assert!(d.commands.values().all(|c| c.status == ConfigStatus::Hold));
            assert!(scram.is_reconfiguring());
        }
        let d = scram.step(7, &env("low")); // init at last
        assert_eq!(d.svclvl, ConfigId::new("reduced"));
    }

    #[test]
    fn skip_init_mutation_completes_without_initialize() {
        let mut scram = Scram::new(two_app_spec(0)).with_mutation(ScramMutation::SkipInitPhase);
        scram.step(0, &env("good"));
        scram.step(1, &env("low"));
        scram.step(2, &env("low")); // halt
        let d3 = scram.step(3, &env("low")); // prepare; completes here
        assert_eq!(d3.svclvl, ConfigId::new("reduced"));
        assert!(d3.reconf_st.values().all(|s| s.is_normal()));
        assert!(!scram.is_reconfiguring());
        // No Initialize command was ever issued.
        assert!(!scram.log().iter().any(|e| matches!(
            e,
            ScramEvent::PhaseEntered {
                phase: Phase::Init,
                ..
            }
        )));
    }

    #[test]
    fn leave_app_running_mutation_exempts_one_app() {
        let mut scram = Scram::new(two_app_spec(0))
            .with_mutation(ScramMutation::LeaveAppRunning(AppId::new("autopilot")));
        scram.step(0, &env("good"));
        scram.step(1, &env("low"));
        let d2 = scram.step(2, &env("low"));
        assert_eq!(
            d2.commands[&AppId::new("autopilot")].status,
            ConfigStatus::Normal
        );
        assert_eq!(d2.reconf_st[&AppId::new("autopilot")], ReconfSt::Normal);
        assert_eq!(d2.commands[&AppId::new("fcs")].status, ConfigStatus::Halt);
        let _ = statuses(&d2);
    }

    #[test]
    fn event_log_accumulates_in_order() {
        let mut scram = Scram::new(two_app_spec(0));
        scram.step(0, &env("good"));
        for f in 1..=4 {
            scram.step(f, &env("low"));
        }
        let kinds: Vec<&'static str> = scram
            .log()
            .iter()
            .map(|e| match e {
                ScramEvent::TriggerAccepted { .. } => "trigger",
                ScramEvent::PhaseEntered {
                    phase: Phase::Halt, ..
                } => "halt",
                ScramEvent::PhaseEntered {
                    phase: Phase::Prepare,
                    ..
                } => "prepare",
                ScramEvent::PhaseEntered {
                    phase: Phase::Init, ..
                } => "init",
                ScramEvent::PhaseEntered {
                    phase: Phase::Stall,
                    ..
                } => "stall",
                ScramEvent::Retargeted { .. } => "retarget",
                ScramEvent::Completed { .. } => "completed",
                ScramEvent::DwellSuppressed { .. } => "dwell",
                ScramEvent::CommitRetry { .. } => "retry",
                ScramEvent::SafeFallback { .. } => "fallback",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["trigger", "halt", "prepare", "init", "completed"]
        );
    }

    #[test]
    fn compressed_stage_policy_shortens_protocol_to_three_cycles() {
        let mut scram =
            Scram::new(two_app_spec(0)).with_stage_policy(StagePolicy::CompressedPrepareInit);
        assert_eq!(scram.protocol_frames(), 3);
        scram.step(0, &env("good"));
        let d1 = scram.step(1, &env("low")); // trigger
        assert_eq!(d1.reconf_st[&AppId::new("fcs")], ReconfSt::Interrupted);
        let d2 = scram.step(2, &env("low")); // halt
        assert!(d2.commands.values().all(|c| c.status == ConfigStatus::Halt));
        let d3 = scram.step(3, &env("low")); // prepare+initialize in one frame
        assert!(d3
            .commands
            .values()
            .all(|c| c.status == ConfigStatus::PrepareInitialize));
        assert!(d3.reconf_st.values().all(|s| s.is_normal()));
        assert_eq!(d3.svclvl, ConfigId::new("reduced"));
        assert!(!scram.is_reconfiguring());
        assert_eq!(
            d3.commands[&AppId::new("autopilot")].target,
            Some(SpecId::new("alt-hold"))
        );
    }

    #[test]
    fn compressed_policy_with_stall_mutation_falls_back_to_signalled() {
        let mut scram = Scram::new(two_app_spec(0))
            .with_stage_policy(StagePolicy::CompressedPrepareInit)
            .with_mutation(ScramMutation::ExtraDelayFrames(2));
        scram.step(0, &env("good"));
        scram.step(1, &env("low"));
        scram.step(2, &env("low")); // halt
        let d3 = scram.step(3, &env("low")); // prepare (signalled: stall pending)
        assert!(d3
            .commands
            .values()
            .all(|c| c.status == ConfigStatus::Prepare));
        scram.step(4, &env("low")); // stall
        scram.step(5, &env("low")); // stall
        let d6 = scram.step(6, &env("low")); // initialize
        assert_eq!(d6.svclvl, ConfigId::new("reduced"));
    }

    #[test]
    #[should_panic(expected = "simultaneous")]
    fn compressed_policy_rejects_phase_checked_sync() {
        let _ = Scram::new(two_app_spec(0))
            .with_sync_policy(SyncPolicy::PhaseChecked)
            .with_stage_policy(StagePolicy::CompressedPrepareInit);
    }

    #[test]
    #[should_panic(expected = "one-frame")]
    fn compressed_policy_rejects_multi_frame_stages() {
        use crate::spec::StageBounds;
        let spec = Arc::new(
            ReconfigSpec::builder()
                .frame_len(Ticks::new(100))
                .env_factor("p", ["0", "1"])
                .app(
                    AppDecl::new("a")
                        .spec(FunctionalSpec::new("s"))
                        .spec(FunctionalSpec::new("d"))
                        .stage_bounds(StageBounds {
                            halt_frames: 1,
                            prepare_frames: 2,
                            init_frames: 1,
                        }),
                )
                .config(
                    Configuration::new("c1")
                        .assign("a", "s")
                        .place("a", ProcessorId::new(0)),
                )
                .config(
                    Configuration::new("c2")
                        .assign("a", "d")
                        .place("a", ProcessorId::new(0))
                        .safe(),
                )
                .transition("c1", "c2", Ticks::new(900))
                .choose_when("p", "1", "c2")
                .choose_when("p", "0", "c1")
                .initial_config("c1")
                .initial_env([("p", "0")])
                .build()
                .unwrap(),
        );
        let _ = Scram::new(spec).with_stage_policy(StagePolicy::CompressedPrepareInit);
    }

    fn fault(names: &[&str]) -> BTreeSet<AppId> {
        names.iter().map(|n| AppId::new(*n)).collect()
    }

    #[test]
    fn step_chaos_with_empty_fault_set_is_plain_step() {
        let mut a = Scram::new(two_app_spec(0));
        let mut b = Scram::new(two_app_spec(0));
        for f in 0..=5 {
            let e = if f == 1 { env("low") } else { env("good") };
            let da = a.step(f, &e);
            let db = b.step_chaos(f, &e, &BTreeSet::new());
            assert_eq!(&da, db, "frame {f}");
        }
        assert_eq!(a.log(), b.log());
    }

    #[test]
    fn torn_commit_retries_the_stage_and_stretches_the_protocol() {
        let mut scram = Scram::new(two_app_spec(0)).with_chaos_defense(ChaosDefense {
            retry_budget_frames: 2,
            retry_backoff_frames: 0,
            quarantine_window_frames: 3,
        });
        scram.step(0, &env("good"));
        scram.step(1, &env("low")); // trigger -> reduced
                                    // Frame 2's halt commit tears: the stage is retried.
        let d2 = scram.step_chaos(2, &env("low"), &fault(&["fcs"]));
        assert!(d2.commands.values().all(|c| c.status == ConfigStatus::Halt));
        assert!(d2.reconf_st.values().all(|s| *s == ReconfSt::Halted));
        assert!(scram.log().iter().any(|e| matches!(
            e,
            ScramEvent::CommitRetry {
                used: 1,
                budget: 2,
                ..
            }
        )));
        // The halt stage re-runs, then prepare/init as usual: the
        // protocol completes one frame late, on the chosen target.
        let d3 = scram.step(3, &env("low"));
        assert!(d3.commands.values().all(|c| c.status == ConfigStatus::Halt));
        scram.step(4, &env("low")); // prepare
        let d5 = scram.step(5, &env("low")); // init completes
        assert_eq!(d5.svclvl, ConfigId::new("reduced"));
        assert!(!scram.is_reconfiguring());
        // Exactly one PhaseEntered per phase instance despite the retry.
        let halts = scram
            .log()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    ScramEvent::PhaseEntered {
                        phase: Phase::Halt,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(halts, 1);
        assert!(!scram
            .log()
            .iter()
            .any(|e| matches!(e, ScramEvent::SafeFallback { .. })));
    }

    #[test]
    fn voided_completion_frame_keeps_the_window_restricted() {
        let mut scram = Scram::new(two_app_spec(0));
        scram.step(0, &env("good"));
        scram.step(1, &env("low"));
        scram.step(2, &env("low")); // halt
        scram.step(3, &env("low")); // prepare
                                    // Frame 4 would complete, but the init commit tears.
        let d4 = scram
            .step_chaos(4, &env("low"), &fault(&["autopilot"]))
            .clone();
        assert!(scram.is_reconfiguring(), "completion must be voided");
        assert_eq!(d4.svclvl, ConfigId::new("full-service"));
        // The trace must not show a normal frame inside the window.
        assert!(d4.reconf_st.values().all(|s| *s == ReconfSt::Initializing));
        assert!(!scram
            .log()
            .iter()
            .any(|e| matches!(e, ScramEvent::Completed { .. })));
        // The retried init completes next frame.
        let d5 = scram.step(5, &env("low"));
        assert_eq!(d5.svclvl, ConfigId::new("reduced"));
        assert!(!scram.is_reconfiguring());
    }

    #[test]
    fn exhausted_retry_budget_falls_back_to_the_safe_configuration() {
        let mut scram = Scram::new(two_app_spec(0)).with_chaos_defense(ChaosDefense {
            retry_budget_frames: 0,
            retry_backoff_frames: 0,
            quarantine_window_frames: 3,
        });
        scram.step(0, &env("good"));
        scram.step(1, &env("low")); // trigger -> reduced
                                    // Budget 0: the first torn frame abandons "reduced" for the
                                    // safe configuration "minimal".
        scram.step_chaos(2, &env("low"), &fault(&["fcs"]));
        assert!(scram.log().iter().any(|e| matches!(
            e,
            ScramEvent::SafeFallback { abandoned, safe, .. }
                if *abandoned == ConfigId::new("reduced") && *safe == ConfigId::new("minimal")
        )));
        // Halt restarts for the safe target, then prepare and init.
        scram.step(3, &env("low"));
        scram.step(4, &env("low"));
        let d5 = scram.step(5, &env("low"));
        assert_eq!(d5.svclvl, ConfigId::new("minimal"));
        assert_eq!(scram.current_config(), &ConfigId::new("minimal"));
        // The choice function wanted "reduced": SP2 will see this.
        assert_ne!(scram.current_config(), &ConfigId::new("reduced"));
    }

    #[test]
    fn retry_backoff_inserts_hold_frames_between_attempts() {
        let mut scram = Scram::new(two_app_spec(0)).with_chaos_defense(ChaosDefense {
            retry_budget_frames: 2,
            retry_backoff_frames: 2,
            quarantine_window_frames: 3,
        });
        scram.step(0, &env("good"));
        scram.step(1, &env("low"));
        scram.step_chaos(2, &env("low"), &fault(&["fcs"])); // halt torn
                                                            // Two backoff frames: all-Hold, no progress, still restricted.
        for f in 3..=4 {
            let d = scram.step(f, &env("low"));
            assert!(
                d.commands.values().all(|c| c.status == ConfigStatus::Hold),
                "frame {f}"
            );
            assert!(d.reconf_st.values().all(|s| *s == ReconfSt::Halted));
            assert!(scram.is_reconfiguring());
        }
        // Attempt resumes: halt retries, then prepare, then init.
        let d5 = scram.step(5, &env("low"));
        assert!(d5.commands.values().all(|c| c.status == ConfigStatus::Halt));
        scram.step(6, &env("low"));
        let d7 = scram.step(7, &env("low"));
        assert_eq!(d7.svclvl, ConfigId::new("reduced"));
    }

    #[test]
    fn absurd_backoff_settings_clamp_to_the_hard_ceiling() {
        use crate::chaos::MAX_RETRY_BACKOFF_FRAMES;
        let defense = ChaosDefense {
            retry_budget_frames: 1,
            retry_backoff_frames: u64::MAX,
            quarantine_window_frames: 3,
        };
        let mut scram = Scram::new(two_app_spec(0)).with_chaos_defense(defense);
        scram.step(0, &env("good"));
        scram.step(1, &env("low"));
        scram.step_chaos(2, &env("low"), &fault(&["fcs"])); // halt torn
        let mut frame = 3;
        // Exactly the clamped window of Hold frames — not u64::MAX.
        for _ in 0..MAX_RETRY_BACKOFF_FRAMES {
            let d = scram.step(frame, &env("low"));
            assert!(
                d.commands.values().all(|c| c.status == ConfigStatus::Hold),
                "frame {frame} should still be backing off"
            );
            frame += 1;
        }
        let resumed = scram.step(frame, &env("low"));
        assert!(
            resumed
                .commands
                .values()
                .all(|c| c.status == ConfigStatus::Halt),
            "attempt resumes immediately after the clamped window"
        );
        while scram.is_reconfiguring() {
            frame += 1;
            scram.step(frame, &env("low"));
            assert!(frame < 64, "reconfiguration failed to converge");
        }
        assert_eq!(scram.current_config(), &ConfigId::new("reduced"));
        // The episode obeys the published worst-case accounting: the
        // fault-free protocol runs 3 frames (halt, prepare, init) from
        // acceptance at frame 1.
        let bound = 1 + 3 + defense.worst_case_stall_frames();
        assert!(
            frame <= bound,
            "completed at frame {frame}, worst-case bound {bound}"
        );
    }

    #[test]
    fn steady_frame_faults_do_not_disturb_the_kernel() {
        let mut scram = Scram::new(two_app_spec(0));
        let d = scram.step_chaos(0, &env("good"), &fault(&["fcs", "autopilot"]));
        assert!(d
            .commands
            .values()
            .all(|c| c.status == ConfigStatus::Normal));
        assert!(!scram.is_reconfiguring());
        assert!(scram.log().is_empty());
        // A later fault-free reconfiguration runs the normal protocol.
        scram.step(1, &env("low"));
        for f in 2..=4 {
            scram.step(f, &env("low"));
        }
        assert_eq!(scram.current_config(), &ConfigId::new("reduced"));
    }

    #[test]
    fn fault_on_exempted_app_costs_no_budget() {
        let mut scram = Scram::new(two_app_spec(0))
            .with_mutation(ScramMutation::LeaveAppRunning(AppId::new("autopilot")));
        scram.step(0, &env("good"));
        scram.step(1, &env("low"));
        // Only the exempted app faults: the protocol proceeds.
        scram.step_chaos(2, &env("low"), &fault(&["autopilot"]));
        scram.step(3, &env("low"));
        let d4 = scram.step(4, &env("low"));
        assert_eq!(d4.svclvl, ConfigId::new("reduced"));
        assert!(!scram
            .log()
            .iter()
            .any(|e| matches!(e, ScramEvent::CommitRetry { .. })));
    }

    #[test]
    fn phase_display() {
        assert_eq!(Phase::Halt.to_string(), "halt");
        assert_eq!(Phase::Init.to_string(), "initialize");
        assert_eq!(Phase::Stall.to_string(), "stall");
        assert_eq!(Phase::Prepare.to_string(), "prepare");
    }
}
