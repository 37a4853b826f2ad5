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
//!
//! # The decision core
//!
//! Every decision the kernel makes is one of three side-effect-free
//! functions, which [`Scram`] only sequences and stores:
//!
//! - **choice** — [`ReconfigSpec::wanted_change`]: the configuration the
//!   choice function wants to move to, `None` when it endorses the
//!   current one (also asked by the fast path, the fingerprint, the
//!   responsiveness monitor and lint reachability);
//! - **the phase transition** — [`InFlight::step`]: phase, progress,
//!   stall, announcement, retry, backoff and safe fallback of an
//!   in-flight reconfiguration, returning the next record (or
//!   completion) and the frame's events;
//! - **the Table 1 row** — [`table1_row`]: one application's command
//!   and end-of-frame `reconf_st` for a [`FrameKind`].
//!
//! Their bounded domains are small enough to enumerate, so the kernel
//! obligations in `tests/tests/kernel_obligations.rs` check each of
//! them over every input in its bounds (bounded proofs by enumeration).
//!
//! # Configuration
//!
//! The kernel's parameters beyond the spec — the §5.3
//! mid-reconfiguration policy, the §6.3 sync and stage policies, the
//! chaos defense and the verification-only mutation — travel as one
//! [`KernelConfig`]. [`Scram::new`] validates it whole and derives the
//! phase transition's static inputs, a [`Protocol`], and each
//! application's row inputs once. [`Protocol::new`] is the one
//! constructor of a protocol, and [`Protocol::protocol_frames`] the one
//! protocol length: the kernel's, the lint passes', the model checker's
//! event tail and the mutation screen's all come from it.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use arfs_assure::fp;

use crate::app::ConfigStatus;
use crate::chaos::ChaosDefense;
use crate::environment::EnvState;
use crate::spec::{dependency_depths, ReconfigSpec, StageBounds};
use crate::trace::ReconfSt;
use crate::{AppId, ConfigId, SpecId, SystemError};

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

/// An in-flight reconfiguration: the protocol record [`InFlight::step`]
/// advances one frame at a time.
///
/// Together with the frames elapsed since the trigger, these fields
/// determine every future `PhaseEntered`/completion event and every
/// remaining restricted frame of the reconfiguration: two kernels with
/// equal records at the same protocol offset behave identically under
/// identical future inputs, which is what the busy-state fingerprint
/// relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InFlight {
    /// The configuration being reconfigured away from.
    pub source: ConfigId,
    /// The target configuration.
    pub target: ConfigId,
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
    /// Whether the current phase instance has already pushed its
    /// `PhaseEntered` event — retried frames keep `phase_progress` at
    /// its pre-fault value, and must not announce the phase again.
    pub announced: bool,
}

/// The kernel's parameters beyond the specification: the §5.3
/// mid-reconfiguration policy, the two §6.3 relaxations, the
/// substrate-fault defense and the verification-only mutation. The
/// default is the Table 1 protocol under the default defense.
///
/// This is the only way the five values reach a kernel: [`Scram::new`]
/// takes one, and [`SystemBuilder::kernel`](crate::system::SystemBuilder::kernel)
/// and [`ModelChecker::with_kernel`](crate::model::ModelChecker::with_kernel)
/// keep one for every kernel they build.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KernelConfig {
    /// Triggers arriving while a reconfiguration is in flight.
    pub mid: MidReconfigPolicy,
    /// How initialize windows are staged across dependency waves.
    pub sync: SyncPolicy,
    /// How many signals drive the post-halt stages.
    pub stage: StagePolicy,
    /// Retry budget, backoff and quarantine window under substrate
    /// faults. Only consulted on frames a fault disrupts, so kernels
    /// stepped without faults behave identically under every setting.
    pub defense: ChaosDefense,
    /// A seeded protocol defect. Production systems never set one; it
    /// exists so the property checkers can be shown to catch real
    /// violations.
    pub mutation: Option<ScramMutation>,
}

impl KernelConfig {
    /// Checks that a kernel can run this config on `spec`: a
    /// [`StagePolicy::CompressedPrepareInit`] stage cannot be split
    /// across waves or frames, so it needs the
    /// [`SyncPolicy::Simultaneous`] synchronization policy and one-frame
    /// prepare and initialize bounds for every application.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidKernelConfig`] naming the broken
    /// requirement.
    pub fn check(&self, spec: &ReconfigSpec) -> Result<(), SystemError> {
        if self.stage != StagePolicy::CompressedPrepareInit {
            return Ok(());
        }
        if self.sync != SyncPolicy::Simultaneous {
            return Err(SystemError::InvalidKernelConfig(
                "compressed stages require simultaneous synchronization",
            ));
        }
        let multi_frame = |b: StageBounds| b.prepare_frames != 1 || b.init_frames != 1;
        if spec.apps().iter().any(|a| multi_frame(a.bounds())) {
            return Err(SystemError::InvalidKernelConfig(
                "compressed stages require one-frame prepare/initialize bounds",
            ));
        }
        Ok(())
    }
}

/// The static parameters of the phase transition, fixed when the
/// kernel is built ([`Protocol::new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Protocol {
    /// Each phase's length: the longest bound any application declares
    /// for that stage ([`ReconfigSpec::phase_frames`]).
    pub phase_frames: StageBounds,
    /// Dependency waves: one more than the deepest dependency depth.
    pub wave_count: u64,
    /// How initialize windows are staged across dependency waves.
    pub sync: SyncPolicy,
    /// Whether prepare and initialize share one frame.
    pub stage: StagePolicy,
    /// Retry budget and backoff for voided frames.
    pub defense: ChaosDefense,
    /// Where an exhausted retry budget falls back to.
    pub safe: ConfigId,
    /// Complete after prepare without ever initializing
    /// ([`ScramMutation::SkipInitPhase`]).
    pub skip_init: bool,
}

impl Protocol {
    /// The protocol a kernel built from `spec` under `config` runs.
    /// Every protocol length — the kernel's, the lint passes', the
    /// model checker's event tail — is this protocol's
    /// [`protocol_frames`](Protocol::protocol_frames).
    pub fn new(spec: &ReconfigSpec, config: &KernelConfig) -> Self {
        let depths = dependency_depths(spec.apps());
        Protocol {
            phase_frames: spec.phase_frames(),
            wave_count: depths.values().copied().max().unwrap_or(0) + 1,
            sync: config.sync,
            stage: config.stage,
            defense: config.defense,
            safe: spec
                .safe_configs()
                .first()
                .map(|c| (*c).clone())
                .expect("validated specs declare a safe configuration"),
            skip_init: config.mutation == Some(ScramMutation::SkipInitPhase),
        }
    }

    /// Each application's Table 1 row inputs under this protocol and
    /// `config`'s mutation.
    fn roles(&self, spec: &ReconfigSpec, config: &KernelConfig) -> Vec<(AppId, AppRole)> {
        // Only phase-checked init windows open by dependency depth.
        let depths =
            (self.sync == SyncPolicy::PhaseChecked).then(|| dependency_depths(spec.apps()));
        let skip_halt = config.mutation == Some(ScramMutation::SkipHaltPhase);
        spec.apps()
            .iter()
            .map(|app| {
                let id = app.id();
                let mut bounds = app.bounds();
                if skip_halt {
                    bounds.halt_frames = 0;
                }
                let role = AppRole {
                    bounds,
                    init_start: self.init_start(depths.as_ref().map_or(0, |depths| depths[id])),
                    exempt: matches!(&config.mutation, Some(ScramMutation::LeaveAppRunning(a)) if a == id),
                };
                (id.clone(), role)
            })
            .collect()
    }

    /// Frames of the initialize phase: one init window per dependency
    /// wave under [`SyncPolicy::PhaseChecked`].
    pub fn init_len(&self) -> u64 {
        match self.sync {
            SyncPolicy::Simultaneous => self.phase_frames.init_frames,
            SyncPolicy::PhaseChecked => self.phase_frames.init_frames * self.wave_count,
        }
    }

    /// The initialize-phase frame at which an application at dependency
    /// depth `depth` opens its init window.
    pub fn init_start(&self, depth: u64) -> u64 {
        match self.sync {
            SyncPolicy::Simultaneous => 0,
            SyncPolicy::PhaseChecked => depth * self.phase_frames.init_frames,
        }
    }

    /// The number of frames one fault-free reconfiguration takes, from
    /// trigger frame to completion frame inclusive.
    pub fn protocol_frames(&self) -> u64 {
        let after_halt = match self.stage {
            StagePolicy::Signalled => self.phase_frames.prepare_frames + self.init_len(),
            StagePolicy::CompressedPrepareInit => 1,
        };
        1 + self.phase_frames.halt_frames + after_halt
    }
}

/// A stage frame's position in the protocol, as the Table 1 rows see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    /// The phase the frame executes.
    pub phase: Phase,
    /// Frames already spent in the phase before this one.
    pub progress: u64,
    /// Prepare and initialize run back to back this frame
    /// ([`StagePolicy::CompressedPrepareInit`]).
    pub compressed: bool,
}

/// The kind of frame a Table 1 row is computed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// No reconfiguration in flight.
    Steady,
    /// The trigger frame (Table 1 frame 0).
    Trigger {
        /// The transition interrupts the application.
        interrupted: bool,
    },
    /// A backoff Hold frame after a voided frame in the phase.
    Backoff(Phase),
    /// A stage frame whose commits take effect.
    Live {
        /// Where the frame sits in the protocol.
        stage: Stage,
        /// The reconfiguration completes this frame.
        completes: bool,
    },
    /// A stage frame voided by a torn commit: the stage ran, but its
    /// outcome never took effect.
    Voided(Stage),
}

/// The fixed inputs of one application's Table 1 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppRole {
    /// The application's stage bounds. A kernel seeded with
    /// [`ScramMutation::SkipHaltPhase`] gives every application a
    /// zero-frame halt window, so none is ever commanded to halt.
    pub bounds: StageBounds,
    /// The initialize-phase frame its init window opens at
    /// ([`Protocol::init_start`] of its dependency depth).
    pub init_start: u64,
    /// Left running through reconfigurations
    /// ([`ScramMutation::LeaveAppRunning`]).
    pub exempt: bool,
}

/// One application's Table 1 row for a frame: the configuration status
/// it is commanded, whether the command carries its target
/// specification, and its end-of-frame `reconf_st`.
pub fn table1_row(kind: FrameKind, role: &AppRole) -> (ConfigStatus, bool, ReconfSt) {
    use ConfigStatus as C;
    use ReconfSt as R;
    if role.exempt {
        return (C::Normal, false, R::Normal);
    }
    let (stage, voided, completes) = match kind {
        FrameKind::Steady => return (C::Normal, false, R::Normal),
        FrameKind::Trigger { interrupted: true } => return (C::Normal, false, R::Interrupted),
        FrameKind::Trigger { interrupted: false } => return (C::Normal, false, R::Normal),
        FrameKind::Backoff(Phase::Halt | Phase::Prepare) => return (C::Hold, false, R::Halted),
        FrameKind::Backoff(Phase::Init | Phase::Stall) => return (C::Hold, false, R::Prepared),
        FrameKind::Live { stage, completes } => (stage, false, completes),
        FrameKind::Voided(stage) => (stage, true, false),
    };
    let (phase, progress, b) = (stage.phase, stage.progress, role.bounds);
    let init_started = progress >= role.init_start;
    let status = match phase {
        Phase::Halt if progress < b.halt_frames => C::Halt,
        Phase::Prepare if stage.compressed => C::PrepareInitialize,
        Phase::Prepare if progress < b.prepare_frames => C::Prepare,
        Phase::Init if init_started && progress < role.init_start + b.init_frames => C::Initialize,
        _ => C::Hold,
    };
    let st = match phase {
        _ if completes => R::Normal,
        // A voided frame keeps every application visibly restricted: a
        // voided completion must not end the SP1 window.
        Phase::Halt | Phase::Prepare if voided => R::Halted,
        Phase::Init if voided => R::Initializing,
        Phase::Prepare if progress + 1 >= b.prepare_frames => R::Prepared,
        Phase::Halt | Phase::Prepare => R::Halted,
        Phase::Init if init_started => R::Initializing,
        Phase::Init | Phase::Stall => R::Prepared,
    };
    (status, matches!(phase, Phase::Prepare | Phase::Init), st)
}

/// What one frame of an in-flight reconfiguration did; see
/// [`InFlight::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The frame's kind, for the Table 1 rows.
    pub kind: FrameKind,
    /// The target of this frame's stage: its commands carry this
    /// configuration's specifications, and a completion moves to it.
    pub target: ConfigId,
    /// The record for the next frame, or `None` when the
    /// reconfiguration completed.
    pub next: Option<InFlight>,
}

impl InFlight {
    /// The record of a reconfiguration accepted this frame: its halt
    /// phase starts next frame. `stall_left` is the mutation-only stall
    /// between prepare and initialize.
    pub fn accepted(source: ConfigId, target: ConfigId, stall_left: u64) -> Self {
        InFlight {
            source,
            target,
            phase: Phase::Halt,
            phase_progress: 0,
            stall_left,
            retries_used: 0,
            backoff_left: 0,
            announced: false,
        }
    }

    /// The new target [`MidReconfigPolicy::ImmediateRetarget`] switches
    /// to under `env`: the choice from the source, unless it is the
    /// current target or the source itself. Going back to the source
    /// would need a zero-bound self transition, so it is handled by
    /// completing and re-triggering instead.
    pub fn retarget<'s>(&self, spec: &'s ReconfigSpec, env: &EnvState) -> Option<&'s ConfigId> {
        spec.wanted_change(&self.source, env)
            .filter(|&t| *t != self.target)
    }

    /// One frame of the reconfiguration: the SCRAM phase transition.
    ///
    /// `retarget` is this frame's [`retarget`](InFlight::retarget)
    /// under the active mid-reconfiguration policy, and `faulted` says
    /// whether a torn commit voids the frame. The frame's events are
    /// pushed onto `events`.
    ///
    /// A backoff frame only counts down. A live frame retargets if asked
    /// (falling back to prepare once postconditions are established),
    /// announces a fresh phase instance once, and advances the phase
    /// position. A frame is atomic: a voided stage frame holds its
    /// position and spends one frame of the retry budget, followed by
    /// the clamped backoff; past the budget it abandons the target for
    /// the safe configuration. Faults on stall frames void nothing.
    pub fn step(
        &self,
        protocol: &Protocol,
        frame: u64,
        retarget: Option<&ConfigId>,
        faulted: bool,
        events: &mut Vec<ScramEvent>,
    ) -> Step {
        let mut next = self.clone();
        if next.backoff_left > 0 {
            // Backoff frames are dead frames: every application holds,
            // the phase position is untouched, and (since Hold carries
            // no protocol progress) a fault striking one costs nothing.
            // A pending retarget is noticed on the next live frame.
            next.backoff_left -= 1;
            return Step {
                kind: FrameKind::Backoff(next.phase),
                target: next.target.clone(),
                next: Some(next),
            };
        }
        if let Some(new_target) = retarget {
            // Failpoint: mid-flight retarget decision. Counted for
            // coverage; Panic models a kernel crash at the retarget
            // boundary (caught by the fail-stop harness).
            fp!("scram.retarget");
            let old_target = std::mem::replace(&mut next.target, new_target.clone());
            events.push(ScramEvent::Retargeted {
                frame,
                old_target,
                new_target: new_target.clone(),
            });
            if next.phase != Phase::Halt {
                // Postconditions are already established; fall back to
                // preparing for the new target, announced below.
                next.phase = Phase::Prepare;
                next.phase_progress = 0;
                next.announced = false;
            }
        }

        let (phase, progress, target) = (next.phase, next.phase_progress, next.target.clone());
        if progress == 0 && !next.announced {
            // Failpoint: SFTA phase transition (Table 1 rows). Counted for
            // coverage; Panic models a kernel crash at a phase boundary.
            fp!("scram.phase");
            events.push(ScramEvent::PhaseEntered {
                frame,
                phase,
                target: target.clone(),
            });
            next.announced = true;
        }

        // The §6.3 compressed path: prepare and initialize run back to
        // back this frame and the reconfiguration completes. Seeded
        // defects (stall / skip-init) force the signalled protocol so
        // they remain observable.
        let compressed = phase == Phase::Prepare
            && protocol.stage == StagePolicy::CompressedPrepareInit
            && next.stall_left == 0
            && !protocol.skip_init;
        let mut completes = false;
        match phase {
            Phase::Halt => {
                next.phase_progress += 1;
                if next.phase_progress >= protocol.phase_frames.halt_frames {
                    next.phase = Phase::Prepare;
                    next.phase_progress = 0;
                }
            }
            Phase::Prepare if compressed => completes = true,
            Phase::Prepare => {
                next.phase_progress += 1;
                if next.phase_progress >= protocol.phase_frames.prepare_frames {
                    next.phase_progress = 0;
                    if next.stall_left > 0 {
                        next.phase = Phase::Stall;
                    } else if protocol.skip_init {
                        completes = true;
                    } else {
                        next.phase = Phase::Init;
                    }
                }
            }
            Phase::Stall => {
                next.stall_left = next.stall_left.saturating_sub(1);
                if next.stall_left == 0 {
                    next.phase = Phase::Init;
                    next.phase_progress = 0;
                }
            }
            Phase::Init => {
                next.phase_progress += 1;
                completes = next.phase_progress >= protocol.init_len();
            }
        }

        let stage = Stage {
            phase,
            progress,
            compressed,
        };
        if faulted && phase != Phase::Stall {
            // The frame is atomic: its stage ran, but the torn commit
            // voids the outcome. Hold the phase position and spend the
            // retry budget.
            next.phase = phase;
            next.phase_progress = progress;
            next.retries_used += 1;
            let budget = protocol.defense.retry_budget_frames;
            if next.retries_used > budget {
                events.push(ScramEvent::SafeFallback {
                    frame,
                    abandoned: target.clone(),
                    safe: protocol.safe.clone(),
                });
                // Postconditions established by a completed halt phase
                // survive (earlier frames committed); anything later is
                // redone for the safe target, mirroring the §5.3
                // retarget fallback-to-prepare rule.
                if phase != Phase::Halt {
                    next.phase = Phase::Prepare;
                }
                next.phase_progress = 0;
                next.retries_used = 0;
                next.announced = false;
                next.target = protocol.safe.clone();
            } else {
                events.push(ScramEvent::CommitRetry {
                    frame,
                    target: target.clone(),
                    used: next.retries_used,
                    budget,
                });
                // Clamped: a misconfigured backoff must not be able to
                // stall the protocol past the Table 1 accounting (see
                // `ChaosDefense::worst_case_stall_frames`).
                next.backoff_left = protocol.defense.bounded_backoff_frames();
            }
            return Step {
                kind: FrameKind::Voided(stage),
                target,
                next: Some(next),
            };
        }

        if completes {
            events.push(ScramEvent::Completed {
                frame,
                config: target.clone(),
            });
        } else if next.phase != phase {
            // A fresh phase instance announces itself next frame.
            next.announced = false;
        }
        Step {
            kind: FrameKind::Live { stage, completes },
            target,
            next: (!completes).then_some(next),
        }
    }
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
/// protocol state machine mid-flight (phase, progress, dwell origin);
/// the model checker relies on this to branch exploration at schedule
/// prefixes.
#[derive(Debug, Clone)]
pub struct Scram {
    spec: Arc<ReconfigSpec>,
    current: ConfigId,
    state: KernelState,
    mid_policy: MidReconfigPolicy,
    protocol: Protocol,
    mutation: Option<ScramMutation>,
    /// Each application's Table 1 row inputs.
    roles: Vec<(AppId, AppRole)>,
    /// The latest frame's decision. Every step gives every application
    /// an entry in both maps, so the next step refills them in place and
    /// a frame without events allocates nothing.
    decision: FrameDecision,
}

impl Scram {
    /// Creates a kernel in the specification's initial configuration,
    /// running the protocol `config` states.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidKernelConfig`] if `config` cannot
    /// run on `spec` ([`KernelConfig::check`]).
    pub fn new(spec: Arc<ReconfigSpec>, config: KernelConfig) -> Result<Self, SystemError> {
        config.check(&spec)?;
        let protocol = Protocol::new(&spec, &config);
        let roles = protocol.roles(&spec, &config);
        Ok(Scram {
            current: spec.initial_config().clone(),
            decision: FrameDecision {
                frame: 0,
                commands: BTreeMap::new(),
                reconf_st: BTreeMap::new(),
                svclvl: spec.initial_config().clone(),
                events: Vec::new(),
            },
            state: KernelState::Steady { since: 0 },
            mid_policy: config.mid,
            protocol,
            mutation: config.mutation,
            roles,
            spec,
        })
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

    /// Frames of minimum dwell left at `frame` when the kernel is steady
    /// and the choice function endorses the current configuration under
    /// `env`, so that this frame's step is the steady no-op; `None`
    /// otherwise.
    ///
    /// The remaining dwell — not the absolute steady-since frame — is
    /// the dwell component of the model checker's canonical state
    /// fingerprint: two such kernels with the same remaining dwell
    /// accept the same future triggers, regardless of *when* they became
    /// steady.
    pub fn settled_dwell(&self, frame: u64, env: &EnvState) -> Option<u64> {
        match self.state {
            KernelState::Steady { since }
                if self.spec.wanted_change(&self.current, env).is_none() =>
            {
                Some((since + self.spec.min_dwell_frames()).saturating_sub(frame))
            }
            _ => None,
        }
    }

    /// The in-flight protocol record, or `None` while steady.
    pub fn busy_view(&self) -> Option<&InFlight> {
        match &self.state {
            KernelState::Steady { .. } => None,
            KernelState::Reconfiguring(inflight) => Some(inflight),
        }
    }

    /// The protocol this kernel runs.
    pub fn protocol(&self) -> &Protocol {
        &self.protocol
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
        let since = match &self.state {
            KernelState::Steady { since } => *since,
            KernelState::Reconfiguring(inflight) => {
                let retarget = match self.mid_policy {
                    MidReconfigPolicy::ImmediateRetarget => inflight.retarget(&self.spec, env),
                    MidReconfigPolicy::BufferUntilComplete => None,
                };
                let faulted = self
                    .roles
                    .iter()
                    .any(|(id, role)| !role.exempt && faulted.contains(id));
                let step = inflight.step(&self.protocol, frame, retarget, faulted, &mut events);
                self.state = match step.next {
                    Some(next) => KernelState::Reconfiguring(next),
                    None => {
                        self.current = step.target.clone();
                        KernelState::Steady { since: frame + 1 }
                    }
                };
                return self.settle(frame, events, |_| step.kind, Some(&step.target));
            }
        };
        let Some(chosen) = self.spec.wanted_change(&self.current, env) else {
            return self.settle(frame, events, |_| FrameKind::Steady, None);
        };
        let dwell_until = since + self.spec.min_dwell_frames();
        if frame < dwell_until {
            events.push(ScramEvent::DwellSuppressed {
                frame,
                until: dwell_until,
            });
            return self.settle(frame, events, |_| FrameKind::Steady, None);
        }
        let target = self.mutated_target(chosen);
        let mut interrupted = self.interrupted_apps(&self.current, &target);
        if interrupted.is_empty() {
            // A placement-only transition (identical assignments,
            // different processors) interrupts every application: they
            // all must stop to migrate.
            interrupted = self.roles.iter().map(|(id, _)| id.clone()).collect();
        }
        if matches!(self.mutation, Some(ScramMutation::PanicOnTrigger)) {
            panic!("SCRAM aborted on trigger acceptance (PanicOnTrigger)");
        }
        // Failpoint: trigger acceptance is the kernel's point of no
        // return into the SFTA protocol. Skip defers the trigger by one
        // frame — the environment change persists, so the kernel
        // re-chooses next frame (a delayed failure signal, defended by
        // SP4's bound starting at acceptance).
        fp!("scram.trigger", action => {
            if matches!(action, arfs_assure::FpAction::Skip) {
                return self.settle(frame, events, |_| FrameKind::Steady, None);
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
        self.state =
            KernelState::Reconfiguring(InFlight::accepted(self.current.clone(), target, stall));
        // Trigger frame: applications still hold their current
        // (interrupted) state; commands stay Normal per Table 1 frame 0.
        let kind = |id: &AppId| FrameKind::Trigger {
            interrupted: interrupted.contains(id),
        };
        self.settle(frame, events, kind, None)
    }

    /// Installs this frame's decision: each application's Table 1 row
    /// for the frame `kind` gives it, refilled into the previous
    /// decision's maps in place (the key set never changes, so no map
    /// node is reallocated), with target specifications from `target`.
    fn settle(
        &mut self,
        frame: u64,
        events: Vec<ScramEvent>,
        kind: impl Fn(&AppId) -> FrameKind,
        target: Option<&ConfigId>,
    ) -> &FrameDecision {
        let target = target.map(|t| self.spec.config(t).expect("validated config"));
        let decision = &mut self.decision;
        for (id, role) in &self.roles {
            let (status, carries_target, st) = table1_row(kind(id), role);
            let target = carries_target.then(|| {
                target
                    .and_then(|config| config.spec_for(id))
                    .expect("validated assignment")
                    .clone()
            });
            decision
                .commands
                .insert(id.clone(), AppCommand { status, target });
            decision.reconf_st.insert(id.clone(), st);
        }
        decision.frame = frame;
        decision.svclvl.clone_from(&self.current);
        decision.events = events;
        &self.decision
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::ModelChecker;
    use crate::spec::{AppDecl, Configuration, FunctionalSpec};
    use crate::system::System;
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

    /// The default config seeded with `mutation`.
    pub(crate) fn mutated(mutation: ScramMutation) -> KernelConfig {
        KernelConfig {
            mutation: Some(mutation),
            ..KernelConfig::default()
        }
    }

    /// Every valid policy combination: both mid-reconfiguration
    /// policies under each (sync, stage) pair the kernel accepts.
    pub(crate) fn policy_grid() -> Vec<KernelConfig> {
        let mut grid = Vec::new();
        for mid in [
            MidReconfigPolicy::BufferUntilComplete,
            MidReconfigPolicy::ImmediateRetarget,
        ] {
            for (sync, stage) in [
                (SyncPolicy::Simultaneous, StagePolicy::Signalled),
                (SyncPolicy::Simultaneous, StagePolicy::CompressedPrepareInit),
                (SyncPolicy::PhaseChecked, StagePolicy::Signalled),
            ] {
                grid.push(KernelConfig {
                    mid,
                    sync,
                    stage,
                    ..KernelConfig::default()
                });
            }
        }
        grid
    }

    /// A kernel over `two_app_spec(0)` whose default config `edit`
    /// adjusts.
    fn kernel(edit: impl FnOnce(&mut KernelConfig)) -> Scram {
        let mut config = KernelConfig::default();
        edit(&mut config);
        Scram::new(two_app_spec(0), config).unwrap()
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
        let mut scram = Scram::new(two_app_spec(0), KernelConfig::default()).unwrap();
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
        let mut scram = Scram::new(two_app_spec(0), KernelConfig::default()).unwrap();
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
        let mut scram = Scram::new(spec, KernelConfig::default()).unwrap();
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
        let scram = Scram::new(two_app_spec(0), KernelConfig::default()).unwrap();
        assert_eq!(scram.protocol().protocol_frames(), 4);
    }

    #[test]
    fn off_assignment_is_a_valid_target_spec() {
        let mut scram = Scram::new(two_app_spec(0), KernelConfig::default()).unwrap();
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
        let mut scram = Scram::new(two_app_spec(10), KernelConfig::default()).unwrap();
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
        let mut scram = Scram::new(two_app_spec(0), KernelConfig::default()).unwrap();
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
        let mut scram = kernel(|c| c.mid = MidReconfigPolicy::ImmediateRetarget);
        let mut log = Vec::new();
        step(&mut scram, &mut log, 0, &env("good"), &[]);
        step(&mut scram, &mut log, 1, &env("low"), &[]); // trigger -> reduced
        step(&mut scram, &mut log, 2, &env("low"), &[]); // halt
        step(&mut scram, &mut log, 3, &env("critical"), &[]); // prepare; retarget to minimal, prepare restarts
        assert!(log
            .iter()
            .any(|e| matches!(e, ScramEvent::Retargeted { new_target, .. } if *new_target == ConfigId::new("minimal"))));
        // Prepare for minimal, then init.
        let d4 = step(&mut scram, &mut log, 4, &env("critical"), &[]);
        assert!(matches!(
            d4.commands[&AppId::new("fcs")].status,
            ConfigStatus::Initialize
        ));
        assert_eq!(d4.svclvl, ConfigId::new("minimal"));
        assert_eq!(scram.current_config(), &ConfigId::new("minimal"));
    }

    #[test]
    fn immediate_retarget_during_halt_needs_no_replay() {
        let mut scram = kernel(|c| c.mid = MidReconfigPolicy::ImmediateRetarget);
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
        let mut scram = kernel(|c| c.mid = MidReconfigPolicy::ImmediateRetarget);
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
        let mut scram = kernel(|c| c.sync = SyncPolicy::PhaseChecked);
        assert_eq!(scram.protocol().protocol_frames(), 5); // 1 + 1 + 1 + 2 waves
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
        let mut scram = kernel(|c| c.mutation = Some(ScramMutation::WrongTarget));
        scram.step(0, &env("good"));
        scram.step(1, &env("low")); // chosen: reduced; mutated to minimal
        for f in 2..=4 {
            scram.step(f, &env("low"));
        }
        assert_ne!(scram.current_config(), &ConfigId::new("reduced"));
    }

    #[test]
    fn extra_delay_mutation_stalls_between_prepare_and_init() {
        let mut scram = kernel(|c| c.mutation = Some(ScramMutation::ExtraDelayFrames(3)));
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
        let mut scram = kernel(|c| c.mutation = Some(ScramMutation::SkipInitPhase));
        let mut log = Vec::new();
        step(&mut scram, &mut log, 0, &env("good"), &[]);
        step(&mut scram, &mut log, 1, &env("low"), &[]);
        step(&mut scram, &mut log, 2, &env("low"), &[]); // halt
        let d3 = step(&mut scram, &mut log, 3, &env("low"), &[]); // prepare; completes here
        assert_eq!(d3.svclvl, ConfigId::new("reduced"));
        assert!(d3.reconf_st.values().all(|s| s.is_normal()));
        assert!(!scram.is_reconfiguring());
        // No Initialize command was ever issued.
        assert!(!log.iter().any(|e| matches!(
            e,
            ScramEvent::PhaseEntered {
                phase: Phase::Init,
                ..
            }
        )));
    }

    #[test]
    fn leave_app_running_mutation_exempts_one_app() {
        let mut scram =
            kernel(|c| c.mutation = Some(ScramMutation::LeaveAppRunning(AppId::new("autopilot"))));
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
        let mut scram = Scram::new(two_app_spec(0), KernelConfig::default()).unwrap();
        let mut log = Vec::new();
        step(&mut scram, &mut log, 0, &env("good"), &[]);
        for f in 1..=4 {
            step(&mut scram, &mut log, f, &env("low"), &[]);
        }
        let kinds: Vec<&'static str> = log
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
        let mut scram = kernel(|c| c.stage = StagePolicy::CompressedPrepareInit);
        assert_eq!(scram.protocol().protocol_frames(), 3);
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
        let mut scram = kernel(|c| {
            c.stage = StagePolicy::CompressedPrepareInit;
            c.mutation = Some(ScramMutation::ExtraDelayFrames(2));
        });
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
    fn compressed_policy_rejects_phase_checked_sync() {
        // The config is validated whole, so the field order it was
        // written in cannot matter, and every kernel entry point
        // rejects it with the same error before any kernel runs.
        let config = KernelConfig {
            stage: StagePolicy::CompressedPrepareInit,
            sync: SyncPolicy::PhaseChecked,
            ..KernelConfig::default()
        };
        assert_rejected_everywhere(two_app_spec(0), config, "simultaneous");
    }

    /// Asserts that the kernel, the system builder and the model checker
    /// all reject `config` on `spec` with the same
    /// [`SystemError::InvalidKernelConfig`], whose reason names `needle`.
    fn assert_rejected_everywhere(spec: Arc<ReconfigSpec>, config: KernelConfig, needle: &str) {
        let errors = [
            Scram::new(Arc::clone(&spec), config.clone()).err(),
            System::builder_arc(Arc::clone(&spec))
                .kernel(config.clone())
                .build()
                .err(),
            ModelChecker::new((*spec).clone(), 12, 1)
                .with_kernel(config)
                .err(),
        ];
        for error in errors {
            match error {
                Some(SystemError::InvalidKernelConfig(reason)) => {
                    assert!(reason.contains(needle), "{reason}");
                }
                other => panic!("expected an invalid kernel config, got {other:?}"),
            }
        }
    }

    #[test]
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
        let config = KernelConfig {
            stage: StagePolicy::CompressedPrepareInit,
            ..KernelConfig::default()
        };
        assert_rejected_everywhere(spec, config, "one-frame");
    }

    fn fault(names: &[&str]) -> BTreeSet<AppId> {
        names.iter().map(|n| AppId::new(*n)).collect()
    }

    /// Steps the kernel with the `faulted` applications' commits torn,
    /// appending the frame's events to `log`.
    fn step(
        scram: &mut Scram,
        log: &mut Vec<ScramEvent>,
        frame: u64,
        env: &EnvState,
        faulted: &[&str],
    ) -> FrameDecision {
        let decision = scram.step_chaos(frame, env, &fault(faulted)).clone();
        log.extend(decision.events.iter().cloned());
        decision
    }

    #[test]
    fn step_chaos_with_empty_fault_set_is_plain_step() {
        let mut a = Scram::new(two_app_spec(0), KernelConfig::default()).unwrap();
        let mut b = Scram::new(two_app_spec(0), KernelConfig::default()).unwrap();
        let (mut log_a, mut log_b) = (Vec::new(), Vec::new());
        for f in 0..=5 {
            let e = if f == 1 { env("low") } else { env("good") };
            let da = a.step(f, &e);
            log_a.extend(da.events.iter().cloned());
            let db = b.step_chaos(f, &e, &BTreeSet::new());
            log_b.extend(db.events.iter().cloned());
            assert_eq!(&da, db, "frame {f}");
        }
        assert_eq!(log_a, log_b);
    }

    #[test]
    fn torn_commit_retries_the_stage_and_stretches_the_protocol() {
        let mut scram = kernel(|c| {
            c.defense = ChaosDefense {
                retry_budget_frames: 2,
                retry_backoff_frames: 0,
                quarantine_window_frames: 3,
            }
        });
        let mut log = Vec::new();
        step(&mut scram, &mut log, 0, &env("good"), &[]);
        step(&mut scram, &mut log, 1, &env("low"), &[]); // trigger -> reduced
                                                         // Frame 2's halt commit tears: the stage is retried.
        let d2 = step(&mut scram, &mut log, 2, &env("low"), &["fcs"]);
        assert!(d2.commands.values().all(|c| c.status == ConfigStatus::Halt));
        assert!(d2.reconf_st.values().all(|s| *s == ReconfSt::Halted));
        assert!(log.iter().any(|e| matches!(
            e,
            ScramEvent::CommitRetry {
                used: 1,
                budget: 2,
                ..
            }
        )));
        // The halt stage re-runs, then prepare/init as usual: the
        // protocol completes one frame late, on the chosen target.
        let d3 = step(&mut scram, &mut log, 3, &env("low"), &[]);
        assert!(d3.commands.values().all(|c| c.status == ConfigStatus::Halt));
        step(&mut scram, &mut log, 4, &env("low"), &[]); // prepare
        let d5 = step(&mut scram, &mut log, 5, &env("low"), &[]); // init completes
        assert_eq!(d5.svclvl, ConfigId::new("reduced"));
        assert!(!scram.is_reconfiguring());
        // Exactly one PhaseEntered per phase instance despite the retry.
        let halts = log
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
        assert!(!log
            .iter()
            .any(|e| matches!(e, ScramEvent::SafeFallback { .. })));
    }

    #[test]
    fn voided_completion_frame_keeps_the_window_restricted() {
        let mut scram = Scram::new(two_app_spec(0), KernelConfig::default()).unwrap();
        let mut log = Vec::new();
        step(&mut scram, &mut log, 0, &env("good"), &[]);
        step(&mut scram, &mut log, 1, &env("low"), &[]);
        step(&mut scram, &mut log, 2, &env("low"), &[]); // halt
        step(&mut scram, &mut log, 3, &env("low"), &[]); // prepare
                                                         // Frame 4 would complete, but the init commit tears.
        let d4 = step(&mut scram, &mut log, 4, &env("low"), &["autopilot"]);
        assert!(scram.is_reconfiguring(), "completion must be voided");
        assert_eq!(d4.svclvl, ConfigId::new("full-service"));
        // The trace must not show a normal frame inside the window.
        assert!(d4.reconf_st.values().all(|s| *s == ReconfSt::Initializing));
        assert!(!log
            .iter()
            .any(|e| matches!(e, ScramEvent::Completed { .. })));
        // The retried init completes next frame.
        let d5 = step(&mut scram, &mut log, 5, &env("low"), &[]);
        assert_eq!(d5.svclvl, ConfigId::new("reduced"));
        assert!(!scram.is_reconfiguring());
    }

    #[test]
    fn exhausted_retry_budget_falls_back_to_the_safe_configuration() {
        let mut scram = kernel(|c| {
            c.defense = ChaosDefense {
                retry_budget_frames: 0,
                retry_backoff_frames: 0,
                quarantine_window_frames: 3,
            }
        });
        let mut log = Vec::new();
        step(&mut scram, &mut log, 0, &env("good"), &[]);
        step(&mut scram, &mut log, 1, &env("low"), &[]); // trigger -> reduced
                                                         // Budget 0: the first torn frame abandons "reduced" for the
                                                         // safe configuration "minimal".
        step(&mut scram, &mut log, 2, &env("low"), &["fcs"]);
        assert!(log.iter().any(|e| matches!(
            e,
            ScramEvent::SafeFallback { abandoned, safe, .. }
                if *abandoned == ConfigId::new("reduced") && *safe == ConfigId::new("minimal")
        )));
        // Halt restarts for the safe target, then prepare and init.
        step(&mut scram, &mut log, 3, &env("low"), &[]);
        step(&mut scram, &mut log, 4, &env("low"), &[]);
        let d5 = step(&mut scram, &mut log, 5, &env("low"), &[]);
        assert_eq!(d5.svclvl, ConfigId::new("minimal"));
        assert_eq!(scram.current_config(), &ConfigId::new("minimal"));
        // The choice function wanted "reduced": SP2 will see this.
        assert_ne!(scram.current_config(), &ConfigId::new("reduced"));
    }

    #[test]
    fn retry_backoff_inserts_hold_frames_between_attempts() {
        let mut scram = kernel(|c| {
            c.defense = ChaosDefense {
                retry_budget_frames: 2,
                retry_backoff_frames: 2,
                quarantine_window_frames: 3,
            }
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
        let mut scram = kernel(|c| c.defense = defense);
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
        let mut scram = Scram::new(two_app_spec(0), KernelConfig::default()).unwrap();
        let mut log = Vec::new();
        let d = step(&mut scram, &mut log, 0, &env("good"), &["fcs", "autopilot"]);
        assert!(d
            .commands
            .values()
            .all(|c| c.status == ConfigStatus::Normal));
        assert!(!scram.is_reconfiguring());
        assert!(log.is_empty());
        // A later fault-free reconfiguration runs the normal protocol.
        step(&mut scram, &mut log, 1, &env("low"), &[]);
        for f in 2..=4 {
            step(&mut scram, &mut log, f, &env("low"), &[]);
        }
        assert_eq!(scram.current_config(), &ConfigId::new("reduced"));
    }

    #[test]
    fn fault_on_exempted_app_costs_no_budget() {
        let mut scram =
            kernel(|c| c.mutation = Some(ScramMutation::LeaveAppRunning(AppId::new("autopilot"))));
        let mut log = Vec::new();
        step(&mut scram, &mut log, 0, &env("good"), &[]);
        step(&mut scram, &mut log, 1, &env("low"), &[]);
        // Only the exempted app faults: the protocol proceeds.
        step(&mut scram, &mut log, 2, &env("low"), &["autopilot"]);
        step(&mut scram, &mut log, 3, &env("low"), &[]);
        let d4 = step(&mut scram, &mut log, 4, &env("low"), &[]);
        assert_eq!(d4.svclvl, ConfigId::new("reduced"));
        assert!(!log
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
