//! The executable system: Figure 1 realized.
//!
//! A [`System`] assembles every element of the paper's logical
//! architecture:
//!
//! - the **applications** (trait objects implementing
//!   [`ReconfigurableApp`]), each with its own stable-storage region on
//!   the simulated fail-stop platform;
//! - the **SCRAM kernel**, stepped once per frame;
//! - the **time-triggered bus**, which carries the architecture's three
//!   signal kinds — fault signals from the environment monitor to the
//!   SCRAM, reconfiguration signals from the SCRAM to the applications,
//!   and status signals back — and whose membership service observes
//!   processor failures;
//! - the **fail-stop processor pool** hosting the applications per the
//!   statically determined placement;
//! - the **environment**, whose changes are the reconfiguration triggers;
//! - the **trace recorder**, producing the [`SysTrace`] the property
//!   checkers consume.
//!
//! Each call to [`System::run_frame`] executes one synchronous real-time
//! frame: environment sampling, SCRAM decision, signal delivery through
//! stable-storage variables and the bus, one unit of work per
//! application, frame-end stable-storage commits, and trace recording.
//!
//! # Processor-status environment factors
//!
//! Since "the status of a component is modeled as an element of the
//! environment" (§6.3), the system auto-maintains any environment factor
//! named `processor-<n>` (domain `{"up", "down"}`): when the bus
//! membership service observes processor `n` silent, the factor flips to
//! `"down"` without any manual [`System::set_env`] call.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use arfs_failstop::{CowLog, ProcessorId, ProcessorPool, SharedStableStorage, StableSnapshot};
use arfs_rtos::{Ticks, VirtualClock};
use arfs_ttbus::{Message, NodeId, TtBus};

use crate::app::{
    AppContext, Blackboard, ConfigStatus, NullApp, ReconfigurableApp, CONFIG_STATUS_KEY,
    TARGET_SPEC_KEY,
};
use crate::chaos::{ChaosDefense, ChaosState, FaultKind, FaultPlan};
use crate::environment::Environment;
use crate::lint::assembly::{Assembly, ENV_NODE, PROC_NODE_BASE, SCRAM_NODE};
use crate::obs::{
    FlightRing, Journal, MetricsRegistry, MetricsSnapshot, RingCode, RingEvent, Subsystem,
};
use crate::scram::{
    FrameDecision, MidReconfigPolicy, Scram, ScramEvent, ScramMutation, StagePolicy, SyncPolicy,
};
use crate::snapshot::ForkSnapshot;
use crate::spec::{dependency_order, ReconfigSpec};
use crate::trace::{AppFrameRecord, SysState, SysTrace};
use crate::{AppId, ConfigId, SystemError};

/// An auditable system-level event (the arrows of Figure 1, plus health
/// conditions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemEvent {
    /// An environment factor changed value.
    EnvChanged {
        /// Frame of the change.
        frame: u64,
        /// The factor.
        factor: String,
        /// The new value.
        value: String,
    },
    /// A signal crossed an architecture edge.
    SignalSent {
        /// Frame of the signal.
        frame: u64,
        /// Originating element (`"environment"`, `"scram"`, an app id, a
        /// processor).
        from: String,
        /// Receiving element.
        to: String,
        /// Signal kind (`"fault"`, `"reconfig"`, `"status"`).
        topic: String,
        /// Payload summary.
        detail: String,
    },
    /// An application's stage reported an error.
    AppStageError {
        /// Frame of the error.
        frame: u64,
        /// The application.
        app: AppId,
        /// The stage that failed (`"normal"`, `"halt"`, ...).
        stage: String,
        /// The reported error.
        error: String,
    },
    /// An application overran its declared compute budget — a software
    /// timing failure.
    DeadlineMiss {
        /// Frame of the overrun.
        frame: u64,
        /// The application.
        app: AppId,
        /// Ticks consumed.
        consumed: Ticks,
        /// Declared budget.
        budget: Ticks,
    },
    /// An application could not run because its host processor has
    /// failed.
    AppLost {
        /// Frame of the loss.
        frame: u64,
        /// The application.
        app: AppId,
        /// The failed host.
        processor: ProcessorId,
    },
    /// A processor was observed failed by the membership service.
    ProcessorDown {
        /// Frame of the observation.
        frame: u64,
        /// The processor.
        processor: ProcessorId,
    },
}

/// Builder for [`System`].
pub struct SystemBuilder {
    spec: Arc<ReconfigSpec>,
    apps: Vec<Box<dyn ReconfigurableApp>>,
    monitors: Vec<Box<dyn crate::environment::EnvMonitor>>,
    mid_policy: MidReconfigPolicy,
    sync_policy: SyncPolicy,
    stage_policy: StagePolicy,
    mutation: Option<ScramMutation>,
    observability: bool,
    ring_capacity: usize,
    fault_plan: FaultPlan,
    chaos_defense: ChaosDefense,
}

impl std::fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("apps", &self.apps.len())
            .field("mid_policy", &self.mid_policy)
            .field("sync_policy", &self.sync_policy)
            .finish_non_exhaustive()
    }
}

impl SystemBuilder {
    /// Registers a concrete application implementation.
    ///
    /// If no application is ever registered, the builder fills in a
    /// [`NullApp`] for every declared application — the configuration
    /// used by the bounded model checker.
    #[must_use]
    pub fn app(mut self, app: Box<dyn ReconfigurableApp>) -> Self {
        self.apps.push(app);
        self
    }

    /// Registers a virtual environment-monitoring application (§6.3);
    /// it is sampled at the start of every frame, before the SCRAM's
    /// decision.
    #[must_use]
    pub fn monitor(mut self, monitor: Box<dyn crate::environment::EnvMonitor>) -> Self {
        self.monitors.push(monitor);
        self
    }

    /// Sets the mid-reconfiguration trigger policy.
    #[must_use]
    pub fn mid_policy(mut self, policy: MidReconfigPolicy) -> Self {
        self.mid_policy = policy;
        self
    }

    /// Sets the dependency synchronization policy.
    #[must_use]
    pub fn sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Sets the stage-signalling policy (see
    /// [`StagePolicy::CompressedPrepareInit`] for the §6.3 relaxation).
    #[must_use]
    pub fn stage_policy(mut self, policy: StagePolicy) -> Self {
        self.stage_policy = policy;
        self
    }

    /// Seeds a SCRAM protocol mutation (verification experiments only).
    #[must_use]
    pub fn mutation(mut self, mutation: ScramMutation) -> Self {
        self.mutation = Some(mutation);
        self
    }

    /// Enables or disables the observability layer (the structured
    /// journal and metrics registry). On by default; the bounded model
    /// checker turns it off for its hot exhaustive-exploration loop.
    #[must_use]
    pub fn observability(mut self, enabled: bool) -> Self {
        self.observability = enabled;
        self
    }

    /// Enables the flight-recorder ring with the given event capacity
    /// (0, the default, disables it). The ring is heap-preallocated
    /// here, written with zero allocations on every frame — including
    /// the steady-state fast path — and drained into a
    /// [`TriageBundle`](crate::obs::TriageBundle) by the fleet when a
    /// streaming violation or chaos defense fires. Unlike full
    /// observability it does **not** disqualify the fast path.
    #[must_use]
    pub fn flight_recorder(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// Installs a substrate fault-injection plan (chaos campaigns).
    /// The default is the empty plan — no faults ever strike.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Configures the chaos defenses (commit retry budget, backoff,
    /// bus-silence quarantine window).
    #[must_use]
    pub fn chaos_defense(mut self, defense: ChaosDefense) -> Self {
        self.chaos_defense = defense;
        self
    }

    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::UndeclaredApp`] if a registered application
    /// is not in the specification, or [`SystemError::UnregisteredApp`]
    /// if applications were registered but some declared application is
    /// missing.
    pub fn build(self) -> Result<System, SystemError> {
        let spec = self.spec;
        let mut apps = self.apps;

        // Auto-filled NullApps ignore their blackboard inputs, which is
        // what licenses the steady-state fast path to skip building the
        // per-frame blackboard of region snapshots.
        let apps_auto_null = apps.is_empty();
        if apps.is_empty() {
            let initial = spec
                .config(spec.initial_config())
                .expect("validated initial config");
            for decl in spec.apps() {
                let spec_id = initial
                    .spec_for(decl.id())
                    .expect("validated assignment")
                    .clone();
                apps.push(Box::new(NullApp::new(decl.id().clone(), spec_id)));
            }
        }

        for app in &apps {
            if spec.app(app.id()).is_none() {
                return Err(SystemError::UndeclaredApp(app.id().clone()));
            }
        }
        for decl in spec.apps() {
            if !apps.iter().any(|a| a.id() == decl.id()) {
                return Err(SystemError::UnregisteredApp(decl.id().clone()));
            }
        }

        // Platform and bus: the derived assembly (shared with the
        // assembly-level lint passes).
        let assembly = Assembly::derive(&spec)?;
        let mut pool = ProcessorPool::new();
        for &p in &assembly.platform {
            pool.add(arfs_failstop::Processor::new(p));
        }
        let mut bus = TtBus::new(assembly.bus);
        bus.enable_log();

        let environment = Environment::new(spec.env_model().clone(), spec.initial_env().clone())?;

        let scram = Scram::new(Arc::clone(&spec))
            .with_mid_policy(self.mid_policy)
            .with_sync_policy(self.sync_policy)
            .with_stage_policy(self.stage_policy)
            .with_chaos_defense(self.chaos_defense);
        let scram = match self.mutation {
            Some(m) => scram.with_mutation(m),
            None => scram,
        };

        let order: Vec<AppId> = dependency_order(spec.apps())
            .into_iter()
            .map(|a| a.id().clone())
            .collect();
        let regions = apps
            .iter()
            .map(|a| (a.id().clone(), SharedStableStorage::new()))
            .collect();

        Ok(System {
            clock: VirtualClock::new(spec.frame_len()),
            spec,
            apps,
            app_order: order,
            regions,
            pool,
            bus,
            environment,
            scram,
            monitors: self.monitors,
            trace: SysTrace::new(),
            events: CowLog::new(),
            pending_env: Vec::new(),
            pending_failures: Vec::new(),
            journal: Journal::new(),
            metrics: MetricsRegistry::new(),
            obs_enabled: self.observability,
            ring: if self.ring_capacity > 0 {
                Some(FlightRing::new(self.ring_capacity))
            } else {
                None
            },
            ring_reconfig_started: None,
            defense_events: 0,
            pool_events_cursor: 0,
            membership_cursor: 0,
            reconfig_started_at: None,
            chaos: ChaosState {
                plan: self.fault_plan,
                defense: self.chaos_defense,
                silenced_until: BTreeMap::new(),
                silent_streak: BTreeMap::new(),
            },
            trace_recording: true,
            last_state: None,
            apps_auto_null,
            fast_board: Blackboard::new(),
            fast_plan: None,
        })
    }
}

/// One entry of the cached steady-state execution plan: which app runs,
/// under what budget, against which stable-storage region.
struct FastAppSlot {
    app_index: usize,
    budget: Ticks,
    region: SharedStableStorage,
}

/// The running system; see the [module documentation](self).
pub struct System {
    spec: Arc<ReconfigSpec>,
    clock: VirtualClock,
    apps: Vec<Box<dyn ReconfigurableApp>>,
    app_order: Vec<AppId>,
    regions: BTreeMap<AppId, SharedStableStorage>,
    pool: ProcessorPool,
    bus: TtBus,
    environment: Environment,
    scram: Scram,
    monitors: Vec<Box<dyn crate::environment::EnvMonitor>>,
    trace: SysTrace,
    events: CowLog<SystemEvent>,
    pending_env: Vec<(String, String)>,
    pending_failures: Vec<ProcessorId>,
    journal: Journal,
    metrics: MetricsRegistry,
    obs_enabled: bool,
    /// The optional flight-recorder ring: always-on compact event
    /// capture, written with zero allocations even on the fast path
    /// (unlike the journal it never disqualifies fast-path
    /// eligibility).
    ring: Option<FlightRing>,
    /// Trigger frame tracked for the ring's `Completed` latency
    /// argument. Deliberately separate from
    /// [`reconfig_started_at`](System::reconfig_started_at), which is
    /// obs-gated and feeds the busy-state fingerprint — the ring must
    /// not perturb model-checker dedup.
    ring_reconfig_started: Option<u64>,
    /// Always-on count of chaos-defense activations (commit retries,
    /// safe fallbacks, quarantines) — the fleet's triage trigger for
    /// systems that defended successfully without violating a property.
    defense_events: u64,
    /// Tail cursor into the processor pool's audit log.
    pool_events_cursor: usize,
    /// Tail cursor into the bus's membership-change log.
    membership_cursor: usize,
    /// Trigger frame of the in-flight reconfiguration, for the latency
    /// histogram.
    reconfig_started_at: Option<u64>,
    /// The substrate fault-injection plan and its live state (silence
    /// windows, quarantine streaks).
    chaos: ChaosState,
    /// Whether executed frames append [`SysState`]s to the trace.
    trace_recording: bool,
    /// The most recent frame's full state, kept when trace recording is
    /// off so streaming verifiers can still inspect it.
    last_state: Option<SysState>,
    /// All applications are auto-filled [`NullApp`]s (they ignore their
    /// blackboard inputs), a precondition of the steady-state fast path.
    apps_auto_null: bool,
    /// Persistent empty blackboard handed to apps on the fast path.
    fast_board: Blackboard,
    /// Cached steady-state execution plan; invalidated by every full
    /// frame (a reconfiguration may have changed budgets or specs).
    fast_plan: Option<Vec<FastAppSlot>>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("frame", &self.clock.frame())
            .field("config", self.scram.current_config())
            .field("apps", &self.app_order)
            .finish_non_exhaustive()
    }
}

impl System {
    /// Starts building a system for a specification.
    pub fn builder(spec: ReconfigSpec) -> SystemBuilder {
        System::builder_arc(Arc::new(spec))
    }

    /// Starts building a system for an already-shared specification.
    ///
    /// Systems never mutate their specification, so callers that build
    /// many systems over the same spec — the bounded model checker
    /// builds one per run plus one per counterexample replay — share
    /// one `Arc` instead of deep-cloning the spec each time.
    pub fn builder_arc(spec: Arc<ReconfigSpec>) -> SystemBuilder {
        SystemBuilder {
            spec,
            apps: Vec::new(),
            monitors: Vec::new(),
            mid_policy: MidReconfigPolicy::default(),
            sync_policy: SyncPolicy::default(),
            stage_policy: StagePolicy::default(),
            mutation: None,
            observability: true,
            ring_capacity: 0,
            fault_plan: FaultPlan::new(),
            chaos_defense: ChaosDefense::default(),
        }
    }

    /// Enables or disables the observability layer on a running (or
    /// forked) system.
    ///
    /// The journal and metrics only cover frames executed while
    /// observability is on; flipping it mid-run does not reconstruct
    /// history. The counterexample flight recorder uses this to re-arm
    /// journaling on systems rebuilt for a replay, and debugging
    /// sessions can use it to journal only the frames under suspicion.
    pub fn set_observability(&mut self, enabled: bool) {
        self.obs_enabled = enabled;
    }

    /// Whether the observability layer is currently recording.
    pub fn observability(&self) -> bool {
        self.obs_enabled
    }

    /// The specification the system runs under.
    pub fn spec(&self) -> &ReconfigSpec {
        &self.spec
    }

    /// A shared handle to the specification (for constructing an
    /// [`InvariantOracle`](crate::assure::InvariantOracle) or another
    /// system over the same spec without cloning it).
    pub fn spec_arc(&self) -> Arc<ReconfigSpec> {
        Arc::clone(&self.spec)
    }

    /// The next frame to execute.
    pub fn frame(&self) -> u64 {
        self.clock.frame()
    }

    /// The current configuration (service level).
    pub fn current_config(&self) -> &ConfigId {
        self.scram.current_config()
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &SysTrace {
        &self.trace
    }

    /// The SCRAM kernel (for event-log inspection).
    pub fn scram(&self) -> &Scram {
        &self.scram
    }

    /// The live environment.
    pub fn environment(&self) -> &Environment {
        &self.environment
    }

    /// The time-triggered bus (its log carries every signal).
    pub fn bus(&self) -> &TtBus {
        &self.bus
    }

    /// The fail-stop processor pool.
    pub fn pool(&self) -> &ProcessorPool {
        &self.pool
    }

    /// The chaos plan and its live state (silence windows, streaks).
    pub fn chaos(&self) -> &ChaosState {
        &self.chaos
    }

    /// The cumulative system event log, collected into a fresh vector.
    pub fn events(&self) -> Vec<SystemEvent> {
        self.events.to_vec()
    }

    /// Number of system events recorded so far.
    pub fn events_len(&self) -> usize {
        self.events.len()
    }

    /// The structured observability journal (empty when observability
    /// was disabled at build time).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The run's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A serializable snapshot of the run's metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The flight-recorder ring, when one was enabled at build time.
    pub fn flight_ring(&self) -> Option<&FlightRing> {
        self.ring.as_ref()
    }

    /// Total chaos-defense activations (commit retries, safe fallbacks,
    /// quarantines) since construction. Always counted, independent of
    /// observability.
    pub fn defense_events(&self) -> u64 {
        self.defense_events
    }

    /// Records a compact ring event if the ring is enabled. No-op and
    /// allocation-free otherwise.
    #[inline]
    fn ring_push(&mut self, frame: u64, code: RingCode, a: u32, b: u32) {
        if let Some(ring) = &mut self.ring {
            ring.push(RingEvent { frame, code, a, b });
        }
    }

    /// Index of a configuration in the spec's declaration order (the
    /// ring legend's vocabulary); `u32::MAX` when unknown.
    fn cfg_index(&self, id: &ConfigId) -> u32 {
        self.spec
            .configs()
            .iter()
            .position(|c| c.id() == id)
            .map_or(u32::MAX, |i| i as u32)
    }

    /// Index of an application in the spec's declaration order.
    fn app_index_of(&self, id: &AppId) -> u32 {
        self.spec
            .apps()
            .iter()
            .position(|a| a.id() == id)
            .map_or(u32::MAX, |i| i as u32)
    }

    /// Indices of an environment factor and one of its domain values.
    fn env_index_of(&self, factor: &str, value: &str) -> (u32, u32) {
        let factors = self.spec.env_model().factors();
        match factors.iter().position(|f| f.name() == factor) {
            Some(fi) => {
                let vi = factors[fi]
                    .domain()
                    .iter()
                    .position(|v| v == value)
                    .map_or(u32::MAX, |i| i as u32);
                (fi as u32, vi)
            }
            None => (u32::MAX, u32::MAX),
        }
    }

    /// A consistent snapshot of an application's stable-storage region.
    pub fn app_stable(&self, id: &AppId) -> Option<StableSnapshot> {
        self.regions.get(id).map(SharedStableStorage::snapshot)
    }

    /// A canonical fingerprint of the system's behavioral state, or
    /// `None` if the system is not *quiescent* enough to summarize.
    ///
    /// Two quiescent systems with equal fingerprints at the same frame
    /// produce identical futures under identical future inputs; the
    /// model checker's visited-state deduplication relies on exactly
    /// this to merge converged schedule subtrees. Quiescence requires:
    /// the SCRAM steady with no pending trigger (the choice function
    /// endorses the current configuration), no queued environment
    /// updates or processor failures, no live or future chaos faults,
    /// every processor alive, no attached monitors (their hidden state
    /// is not summarizable), and every application able to digest
    /// itself ([`ReconfigurableApp::state_digest`]).
    ///
    /// The hash covers the environment, the current configuration, the
    /// *remaining* dwell (not the absolute steady-since frame — see
    /// [`Scram::steady_dwell_remaining`]), and each application's
    /// digest plus committed stable-storage region.
    pub fn quiescent_fingerprint(&self) -> Option<u64> {
        if self.scram.is_reconfiguring() {
            return None;
        }
        self.state_fingerprint()
    }

    /// A canonical fingerprint of the system's behaviorally relevant
    /// state — quiescent *or* mid-reconfiguration.
    ///
    /// This widens [`System::quiescent_fingerprint`] to "busy" states:
    /// when a reconfiguration is in flight, the hash additionally
    /// covers the SCRAM's in-flight protocol record
    /// ([`BusyView`](crate::scram::BusyView):
    /// source and target configuration, phase, phase progress, stall /
    /// retry / backoff counters, announcement flag) and the offset into
    /// the reconfiguration window (`frame - trigger frame`). Those
    /// fields determine every future protocol decision and every
    /// remaining restricted frame, so two busy systems with equal
    /// fingerprints at the same frame — reached by *different* event
    /// schedules — produce identical futures under identical future
    /// inputs, and the model checker may merge their subtrees exactly
    /// as it merges quiescent ones.
    ///
    /// The same preconditions as for quiescent fingerprints apply
    /// (no monitors, no queued inputs, no failed processors, no live or
    /// future chaos, digestible applications); a pending-but-unaccepted
    /// trigger still disqualifies a *steady* kernel.
    pub fn state_fingerprint(&self) -> Option<u64> {
        let frame = self.clock.frame();
        if !self.monitors.is_empty()
            || !self.pending_env.is_empty()
            || !self.pending_failures.is_empty()
            || !self.pool.failed_ids().is_empty()
            || !self.chaos.silent_streak.is_empty()
            || self
                .chaos
                .silenced_until
                .values()
                .any(|&until| until > frame)
            || (!self.chaos.plan.is_empty() && self.chaos.plan.last_frame() >= frame)
        {
            return None;
        }
        let current = self.scram.current_config();
        let busy = self.scram.busy_view();
        let dwell_remaining = match busy {
            Some(_) => 0,
            None => {
                let remaining = self
                    .scram
                    .steady_dwell_remaining(frame)
                    .expect("steady kernel has a dwell");
                if let Some(target) = self.spec.choose(current, self.environment.current()) {
                    if target != current {
                        return None; // trigger pending, not quiescent
                    }
                }
                remaining
            }
        };

        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let eat = |h: &mut u64, bytes: &[u8]| {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (factor, value) in self.environment.current().iter() {
            eat(&mut h, factor.as_bytes());
            eat(&mut h, value.as_bytes());
        }
        eat(&mut h, current.as_str().as_bytes());
        eat(&mut h, &dwell_remaining.to_le_bytes());
        if let Some(view) = &self.scram.busy_view() {
            // The protocol offset: where in the reconfiguration window
            // this frame sits. Together with the in-flight record it
            // pins the remaining restricted-frame pattern.
            let offset = self
                .reconfig_started_at
                .map(|started| frame - started)
                .unwrap_or(0);
            eat(&mut h, b"busy");
            eat(&mut h, &offset.to_le_bytes());
            eat(&mut h, view.source.as_str().as_bytes());
            eat(&mut h, view.target.as_str().as_bytes());
            eat(&mut h, format!("{:?}", view.phase).as_bytes());
            eat(&mut h, &view.phase_progress.to_le_bytes());
            eat(&mut h, &view.stall_left.to_le_bytes());
            eat(&mut h, &view.retries_used.to_le_bytes());
            eat(&mut h, &view.backoff_left.to_le_bytes());
            eat(&mut h, &[u8::from(view.announced)]);
        }
        for app in &self.apps {
            eat(&mut h, app.id().as_str().as_bytes());
            eat(&mut h, &app.state_digest()?.to_le_bytes());
        }
        for (id, region) in &self.regions {
            eat(&mut h, id.as_str().as_bytes());
            for (key, value) in region.snapshot().iter() {
                eat(&mut h, key.as_bytes());
                eat(&mut h, format!("{value:?}").as_bytes());
            }
        }
        Some(h)
    }

    /// Forks the whole system at the current frame boundary.
    ///
    /// The fork is an independent replica: running frames on the fork
    /// and the original thereafter produces exactly the traces two
    /// independently constructed systems would, which is what lets the
    /// bounded model checker share the simulation of common schedule
    /// prefixes instead of replaying every schedule from frame 0.
    ///
    /// Independence does **not** mean deep copies. Every append-only
    /// history — the trace, the system/SCRAM event logs, the bus
    /// delivery and membership logs, the pool audit log — is a
    /// [`CowLog`] whose sealed past is shared behind `Arc`s (which is
    /// why forking takes `&mut self`: the open tails are sealed into
    /// shared segments), and stable-storage regions share their
    /// committed store copy-on-write. The cost of a fork is therefore
    /// O(components + prior forks), independent of how much history has
    /// accumulated. Bounded live state (clock, queues, pending inputs,
    /// chaos ledger, environment) is cloned; the boxed applications and
    /// monitors are duplicated through the explicit
    /// [`ForkSnapshot`](crate::snapshot::ForkSnapshot) protocol.
    pub fn fork(&mut self) -> System {
        System {
            spec: Arc::clone(&self.spec),
            clock: self.clock.fork(),
            apps: self.apps.fork_snapshot(),
            app_order: self.app_order.clone(),
            regions: self
                .regions
                .iter()
                .map(|(id, region)| (id.clone(), region.fork()))
                .collect(),
            pool: self.pool.fork(),
            bus: self.bus.fork(),
            environment: self.environment.clone(),
            scram: self.scram.fork(),
            monitors: self.monitors.fork_snapshot(),
            trace: self.trace.fork(),
            events: self.events.fork(),
            pending_env: self.pending_env.clone(),
            pending_failures: self.pending_failures.clone(),
            journal: self.journal.clone(),
            metrics: self.metrics.clone(),
            obs_enabled: self.obs_enabled,
            ring: self.ring.clone(),
            ring_reconfig_started: self.ring_reconfig_started,
            defense_events: self.defense_events,
            pool_events_cursor: self.pool_events_cursor,
            membership_cursor: self.membership_cursor,
            reconfig_started_at: self.reconfig_started_at,
            chaos: self.chaos.clone(),
            trace_recording: self.trace_recording,
            last_state: self.last_state.clone(),
            apps_auto_null: self.apps_auto_null,
            fast_board: Blackboard::new(),
            fast_plan: None,
        }
    }

    /// Schedules an environment change; it takes effect at the start of
    /// the next frame (the monitor samples once per frame).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Env`] if the factor or value is invalid.
    pub fn set_env(&mut self, factor: &str, value: &str) -> Result<(), SystemError> {
        // Validate eagerly so callers get the error at the set site.
        let f = self
            .environment
            .model()
            .factor(factor)
            .ok_or_else(|| crate::SpecError::UnknownEnvFactor(factor.to_owned()))?;
        if !f.admits(value) {
            return Err(crate::SpecError::InvalidEnvValue {
                factor: factor.to_owned(),
                value: value.to_owned(),
            }
            .into());
        }
        self.pending_env.push((factor.to_owned(), value.to_owned()));
        Ok(())
    }

    /// Schedules a fail-stop failure of a processor; it takes effect at
    /// the start of the next frame.
    pub fn fail_processor(&mut self, id: ProcessorId) {
        self.pending_failures.push(id);
    }

    /// Runs `n` frames.
    pub fn run_frames(&mut self, n: u64) {
        for _ in 0..n {
            self.run_frame();
        }
    }

    /// Enables or disables trace recording.
    ///
    /// With recording off, executed frames do not append [`SysState`]s to
    /// the trace; the most recent full frame's state is kept in
    /// [`last_state`](System::last_state) instead. Fleet-scale callers
    /// turn this off so memory stays flat over millions of frames and
    /// run their property checks on a streaming window.
    ///
    /// Must be configured before the first frame runs and left alone
    /// thereafter: the trace requires contiguous frames from 0, so
    /// re-enabling recording mid-run would corrupt it.
    pub fn set_trace_recording(&mut self, enabled: bool) {
        self.trace_recording = enabled;
    }

    /// Whether executed frames are appended to the trace.
    pub fn trace_recording(&self) -> bool {
        self.trace_recording
    }

    /// The state recorded by the most recent *full* frame, when trace
    /// recording is off.
    ///
    /// `None` if no frame has run yet, if trace recording is on (the
    /// trace itself has the state), or if the most recent frame took the
    /// steady-state fast path (which proves the state is the previous
    /// full frame's state with only the frame number advanced).
    pub fn last_state(&self) -> Option<&SysState> {
        self.last_state.as_ref()
    }

    /// Advances one frame, taking the allocation-free steady-state fast
    /// path when it is provably equivalent to [`run_frame`]
    /// (`System::run_frame`). Returns `true` when the fast path ran.
    ///
    /// The fast path is sound only when nothing the full frame does
    /// could change observable state: observability and trace recording
    /// are off, all applications are auto-filled [`NullApp`]s (so the
    /// blackboard is never read), no monitors, no pending inputs, every
    /// processor is alive, no chaos fault strikes this frame, the SCRAM
    /// is steady with no injected mutation, and the choice function
    /// endorses the current configuration (so the kernel step is the
    /// steady no-op). In that situation the frame reduces to: each app
    /// runs its normal stage and commits its region — which is what this
    /// path executes, against a cached plan, with zero heap allocations.
    pub fn advance_frame(&mut self) -> bool {
        if self.steady_fast_eligible() {
            self.run_steady_frame();
            true
        } else {
            self.run_frame();
            false
        }
    }

    /// See [`advance_frame`](System::advance_frame) for the conditions.
    fn steady_fast_eligible(&self) -> bool {
        let frame = self.clock.frame();
        !self.obs_enabled
            && !self.trace_recording
            && self.apps_auto_null
            && self.monitors.is_empty()
            && self.pending_env.is_empty()
            && self.pending_failures.is_empty()
            && !self.scram.is_reconfiguring()
            && !self.scram.has_mutation()
            && self.chaos.silenced_until.is_empty()
            && self.chaos.silent_streak.is_empty()
            && self.chaos.plan.events_at(frame).next().is_none()
            && self.pool.all_alive()
            && match self
                .spec
                .choose(self.scram.current_config(), self.environment.current())
            {
                None => true,
                Some(target) => target == self.scram.current_config(),
            }
    }

    /// The steady-state frame body: every app runs its normal stage
    /// against the cached plan and commits. Allocates only on the first
    /// fast frame after a full frame (plan construction) or on an
    /// anomaly (event logging).
    fn run_steady_frame(&mut self) {
        let frame = self.clock.frame();
        // Flight-recorder bump: coalesced run-length update, in-place,
        // zero allocations (the alloc-free contract of this path is
        // proven ring-enabled by tests/alloc_free_frame.rs).
        if let Some(ring) = &mut self.ring {
            ring.bump_run(frame, RingCode::FastFrames);
        }
        if self.fast_plan.is_none() {
            let mut plan = Vec::with_capacity(self.app_order.len());
            for app_id in &self.app_order {
                let app_index = self
                    .apps
                    .iter()
                    .position(|a| a.id() == app_id)
                    .expect("registered app");
                let budget = self
                    .spec
                    .app(app_id)
                    .and_then(|d| d.find_spec(&self.apps[app_index].current_spec()))
                    .map(|s| s.compute_ticks())
                    .unwrap_or(Ticks::ZERO);
                let region = self.regions.get(app_id).expect("region per app").clone();
                plan.push(FastAppSlot {
                    app_index,
                    budget,
                    region,
                });
            }
            self.fast_plan = Some(plan);
        }
        let plan = self.fast_plan.take().expect("just built");
        for slot in &plan {
            let app = &mut self.apps[slot.app_index];
            let (result, consumed) = slot.region.write(|stable| {
                let mut ctx = AppContext {
                    frame,
                    stable,
                    inputs: &self.fast_board,
                    env: self.environment.current(),
                    consumed: Ticks::ZERO,
                };
                let result = app.run_normal(&mut ctx);
                let consumed = ctx.consumed;
                // Frame-end stable-storage commit (§6.1), same as the
                // full path; slot-retaining staging makes it alloc-free.
                stable.commit();
                (result, consumed)
            });
            if let Err(error) = result {
                let app_id = self.apps[slot.app_index].id().clone();
                let a = self.app_index_of(&app_id);
                self.ring_push(frame, RingCode::StageError, a, 0);
                self.events.push(SystemEvent::AppStageError {
                    frame,
                    app: app_id,
                    stage: "normal".into(),
                    error,
                });
            }
            if slot.budget > Ticks::ZERO && consumed > slot.budget {
                let app_id = self.apps[slot.app_index].id().clone();
                let a = self.app_index_of(&app_id);
                self.ring_push(
                    frame,
                    RingCode::DeadlineMiss,
                    a,
                    consumed.raw().min(u64::from(u32::MAX)) as u32,
                );
                self.events.push(SystemEvent::DeadlineMiss {
                    frame,
                    app: app_id,
                    consumed,
                    budget: slot.budget,
                });
            }
        }
        self.fast_plan = Some(plan);
        // The previous full frame's state no longer describes the
        // current frame; dropping it is what lets `last_state` promise
        // "the most recent full frame".
        if self.last_state.is_some() {
            self.last_state = None;
        }
        self.clock.advance_frame();
    }

    /// Executes one synchronous real-time frame and returns the SCRAM's
    /// decision for it.
    pub fn run_frame(&mut self) -> FrameDecision {
        let frame = self.clock.frame();

        if let Some(ring) = &mut self.ring {
            ring.bump_run(frame, RingCode::FullFrames);
        }

        if self.obs_enabled {
            self.journal.record(
                frame,
                Subsystem::System,
                "frame-start",
                serde_json::json!({"config": self.scram.current_config().to_string()}),
            );
            self.metrics.incr("frames");
        }

        // --- Virtual monitoring applications sample their components
        // (§6.3); their updates join the frame's environment changes. ---
        for monitor in &mut self.monitors {
            for (factor, value) in monitor.sample(frame) {
                self.pending_env.push((factor, value));
            }
        }

        // --- Pending hardware failures take effect. ---
        for p in std::mem::take(&mut self.pending_failures) {
            if self.pool.is_alive(p) {
                let _ = self.pool.fail(p);
                self.ring_push(frame, RingCode::ProcessorFailed, p.raw(), 0);
                self.events.push(SystemEvent::ProcessorDown {
                    frame,
                    processor: p,
                });
                if self.obs_enabled {
                    self.journal.record(
                        frame,
                        Subsystem::Failstop,
                        "fault-injected",
                        serde_json::json!({"processor": p.raw() as u64}),
                    );
                    self.metrics.incr("failstop.fault_injections");
                }
            }
        }

        // --- Scheduled substrate faults strike (the chaos plan). ---
        let mut faulted_apps: BTreeSet<AppId> = BTreeSet::new();
        let mut jitter: BTreeMap<AppId, Ticks> = BTreeMap::new();
        let struck: Vec<FaultKind> = self
            .chaos
            .plan
            .events_at(frame)
            .map(|e| e.kind.clone())
            .collect();
        for kind in struck {
            match &kind {
                FaultKind::CommitFault { app } => {
                    faulted_apps.insert(app.clone());
                    let a = self.app_index_of(app);
                    self.ring_push(frame, RingCode::TornWrite, a, 0);
                    if self.obs_enabled {
                        self.journal.record(
                            frame,
                            Subsystem::Failstop,
                            "torn-write",
                            serde_json::json!({"app": app.to_string()}),
                        );
                    }
                }
                FaultKind::BusSilence { processor, frames } => {
                    let until = frame + frames;
                    let entry = self.chaos.silenced_until.entry(*processor).or_insert(until);
                    *entry = (*entry).max(until);
                    let (p, n) = (processor.raw(), (*frames).min(u64::from(u32::MAX)) as u32);
                    self.ring_push(frame, RingCode::BusSilenced, p, n);
                    if self.obs_enabled {
                        self.journal.record(
                            frame,
                            Subsystem::Bus,
                            "bus-silenced",
                            serde_json::json!({
                                "processor": processor.raw() as u64,
                                "frames": *frames,
                            }),
                        );
                    }
                }
                FaultKind::ClockJitter { app, ticks } => {
                    let slot = jitter.entry(app.clone()).or_insert(Ticks::ZERO);
                    *slot += Ticks::new(*ticks);
                    let a = self.app_index_of(app);
                    self.ring_push(
                        frame,
                        RingCode::ClockJitter,
                        a,
                        (*ticks).min(u64::from(u32::MAX)) as u32,
                    );
                    if self.obs_enabled {
                        self.journal.record(
                            frame,
                            Subsystem::Rtos,
                            "clock-jitter",
                            serde_json::json!({"app": app.to_string(), "ticks": *ticks}),
                        );
                    }
                }
            }
            if self.obs_enabled {
                self.metrics.incr("chaos.faults_injected");
            }
        }

        // Failpoint: an injected torn stable-storage write, equivalent to
        // a scheduled CommitFault on the first application. Routed through
        // `faulted_apps` so the SCRAM's commit-retry defense sees it on
        // the same path as plan-driven faults.
        arfs_assure::fp!("system.stable.commit", action => {
            if matches!(
                action,
                arfs_assure::FpAction::Err | arfs_assure::FpAction::Skip
            ) {
                if let Some(app) = self.app_order.first() {
                    faulted_apps.insert(app.clone());
                    let a = self.app_index_of(app);
                    self.ring_push(frame, RingCode::TornWrite, a, 0);
                }
            }
        });

        // --- Membership: alive processors announce themselves; silent
        // processors flip their status factors. A chaos-silenced
        // processor skips its slot without halting; past the detection
        // window the defense converts it into an explicit fail-stop
        // quarantine (the membership-by-silence contract restored by
        // force). ---
        for p in self.pool.alive_ids() {
            if self.chaos.is_silenced(p, frame) {
                let streak = self.chaos.silent_streak.entry(p).or_insert(0);
                *streak += 1;
                let streak = *streak;
                if streak >= self.chaos.defense.quarantine_window_frames {
                    let _ = self.pool.fail(p);
                    self.events.push(SystemEvent::ProcessorDown {
                        frame,
                        processor: p,
                    });
                    self.defense_events += 1;
                    self.ring_push(
                        frame,
                        RingCode::Quarantined,
                        p.raw(),
                        streak.min(u64::from(u32::MAX)) as u32,
                    );
                    if self.obs_enabled {
                        self.journal.record(
                            frame,
                            Subsystem::Failstop,
                            "quarantined",
                            serde_json::json!({
                                "processor": p.raw() as u64,
                                "silent_frames": streak,
                            }),
                        );
                        self.metrics.incr("chaos.quarantines");
                    }
                    self.chaos.silent_streak.remove(&p);
                    self.chaos.silenced_until.remove(&p);
                }
                continue;
            }
            self.chaos.silent_streak.remove(&p);
            self.bus.mark_present(NodeId::new(PROC_NODE_BASE + p.raw()));
        }
        for p in self.pool.failed_ids() {
            let factor = format!("processor-{}", p.raw());
            if self.environment.model().factor(&factor).is_some()
                && self.environment.current().get(&factor) != Some("down")
            {
                self.pending_env.push((factor, "down".into()));
            }
        }

        // --- Pending environment changes take effect (the monitor's
        // sample for this frame). ---
        for (factor, value) in std::mem::take(&mut self.pending_env) {
            if self.environment.set(frame, &factor, &value) == Ok(true) {
                self.events.push(SystemEvent::EnvChanged {
                    frame,
                    factor: factor.clone(),
                    value: value.clone(),
                });
                let (fi, vi) = self.env_index_of(&factor, &value);
                self.ring_push(frame, RingCode::EnvChanged, fi, vi);
                // Fault signal: environment monitor -> SCRAM over the bus.
                // Failpoint: counted for coverage (the SCRAM reads the
                // environment directly, so a lost modeled signal is
                // property-benign); Panic models a monitor crash.
                arfs_assure::fp!("system.env.submit");
                let payload = format!("{factor}={value}");
                let _ = self.bus.submit(
                    ENV_NODE,
                    Message::new("fault", payload.clone().into_bytes()),
                );
                self.events.push(SystemEvent::SignalSent {
                    frame,
                    from: "environment".into(),
                    to: "scram".into(),
                    topic: "fault".into(),
                    detail: payload.clone(),
                });
                if self.obs_enabled {
                    self.journal.record(
                        frame,
                        Subsystem::Env,
                        "env-changed",
                        serde_json::json!({"factor": factor, "value": value}),
                    );
                    self.journal.record(
                        frame,
                        Subsystem::Env,
                        "fault-signal",
                        serde_json::json!({"from": "environment", "to": "scram", "detail": payload}),
                    );
                    self.metrics.incr("signals.fault");
                }
            }
        }
        self.bus.mark_present(ENV_NODE);
        let env = self.environment.current().clone();

        // --- SCRAM decision. ---
        let decision_started = self.obs_enabled.then(std::time::Instant::now);
        let decision = self.scram.step_chaos(frame, &env, &faulted_apps);
        if let Some(started) = decision_started {
            self.metrics.observe(
                "scram.decision_ns",
                started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            );
        }
        self.record_scram_events(frame, &decision);

        // --- Reconfiguration signals: SCRAM -> each application, via the
        // configuration_status variable in stable storage and the bus. ---
        for (app_id, command) in &decision.commands {
            let region = self.regions.get(app_id).expect("region per app");
            region.write(|s| {
                s.stage_str(CONFIG_STATUS_KEY, command.status.as_str());
                match &command.target {
                    Some(t) => s.stage_str(TARGET_SPEC_KEY, t.as_str()),
                    None => s.stage_remove(TARGET_SPEC_KEY),
                }
                s.commit();
            });
            if command.status != ConfigStatus::Normal {
                if self.obs_enabled {
                    self.journal.record(
                        frame,
                        Subsystem::System,
                        "stable-commit",
                        serde_json::json!({
                            "app": app_id.to_string(),
                            "status": command.status.as_str(),
                            "target": match &command.target {
                                Some(t) => serde_json::Value::Str(t.to_string()),
                                None => serde_json::Value::Null,
                            },
                        }),
                    );
                    self.metrics.incr("stable.commits");
                }
                let payload = format!("{app_id}:{}", command.status);
                let _ = self.bus.submit(
                    SCRAM_NODE,
                    Message::new("reconfig", payload.clone().into_bytes()),
                );
                self.events.push(SystemEvent::SignalSent {
                    frame,
                    from: "scram".into(),
                    to: app_id.to_string(),
                    topic: "reconfig".into(),
                    detail: payload.clone(),
                });
                if self.obs_enabled {
                    self.journal.record(
                        frame,
                        Subsystem::System,
                        "reconfig-signal",
                        serde_json::json!({
                            "from": "scram",
                            "to": app_id.to_string(),
                            "detail": payload,
                        }),
                    );
                    self.metrics.incr("signals.reconfig");
                }
            }
        }
        self.bus.mark_present(SCRAM_NODE);

        // --- Frame-start blackboard: last frame's committed state. ---
        let mut board = Blackboard::new();
        for (id, region) in &self.regions {
            board.insert(id.clone(), region.snapshot());
        }

        // --- Applications execute one unit of work each, in dependency
        // order (the executive's static window order). ---
        let placement_config = self
            .spec
            .config(self.scram.current_config())
            .expect("validated config")
            .clone();
        let mut post_ok: BTreeMap<AppId, Option<bool>> = BTreeMap::new();
        let mut pre_ok: BTreeMap<AppId, Option<bool>> = BTreeMap::new();
        let mut spec_now: BTreeMap<AppId, crate::SpecId> = BTreeMap::new();
        let mut lost: BTreeMap<AppId, bool> = BTreeMap::new();

        for app_id in self.app_order.clone() {
            let command = decision
                .commands
                .get(&app_id)
                .expect("command per app")
                .clone();
            let app_index = self
                .apps
                .iter()
                .position(|a| *a.id() == app_id)
                .expect("registered app");

            // An application on a failed processor cannot run its stage.
            let placed = placement_config.placement_for(&app_id);
            let host_alive = placed.map(|p| self.pool.is_alive(p)).unwrap_or(true);
            if !host_alive {
                self.events.push(SystemEvent::AppLost {
                    frame,
                    app: app_id.clone(),
                    processor: placed.expect("checked above"),
                });
                let a = self.app_index_of(&app_id);
                self.ring_push(
                    frame,
                    RingCode::AppLost,
                    a,
                    placed.expect("checked above").raw(),
                );
                if self.obs_enabled {
                    self.journal.record(
                        frame,
                        Subsystem::App,
                        "app-lost",
                        serde_json::json!({
                            "app": app_id.to_string(),
                            "processor": placed.expect("checked above").raw() as u64,
                        }),
                    );
                }
                let app = &self.apps[app_index];
                post_ok.insert(app_id.clone(), None);
                pre_ok.insert(app_id.clone(), None);
                spec_now.insert(app_id.clone(), app.current_spec());
                lost.insert(app_id.clone(), true);
                continue;
            }

            let region = self.regions.get(&app_id).expect("region per app").clone();
            // Normal work is budgeted by the current specification's
            // declared compute; reconfiguration stages must fit within
            // the frame itself -- "each application meets prescribed time
            // bounds for each stage of the reconfiguration activity" (§3).
            let budget = if command.status == ConfigStatus::Normal {
                let app = &self.apps[app_index];
                self.spec
                    .app(&app_id)
                    .and_then(|d| d.find_spec(&app.current_spec()))
                    .map(|s| s.compute_ticks())
                    .unwrap_or(Ticks::ZERO)
            } else {
                self.spec.frame_len()
            };
            let torn = faulted_apps.contains(&app_id);
            let app = &mut self.apps[app_index];
            let (result, consumed, stage) = region.write(|stable| {
                let mut ctx = AppContext {
                    frame,
                    stable,
                    inputs: &board,
                    env: &env,
                    consumed: Ticks::ZERO,
                };
                let (result, stage) = match command.status {
                    ConfigStatus::Normal => (app.run_normal(&mut ctx), "normal"),
                    ConfigStatus::Halt => (app.halt(&mut ctx), "halt"),
                    ConfigStatus::Prepare => {
                        let target = command.target.clone().expect("prepare carries target");
                        (app.prepare(&mut ctx, &target), "prepare")
                    }
                    ConfigStatus::Initialize => {
                        let target = command.target.clone().expect("initialize carries target");
                        (app.initialize(&mut ctx, &target), "initialize")
                    }
                    ConfigStatus::PrepareInitialize => {
                        // The compressed §6.3 path: both stages back to
                        // back, no intervening SCRAM signal.
                        let target = command
                            .target
                            .clone()
                            .expect("prepare-initialize carries target");
                        let result = app
                            .prepare(&mut ctx, &target)
                            .and_then(|()| app.initialize(&mut ctx, &target));
                        (result, "prepare-initialize")
                    }
                    ConfigStatus::Hold => (Ok(()), "hold"),
                };
                let consumed = ctx.consumed;
                // Frame-end stable-storage commit (§6.1) — unless this
                // frame's commit tears, in which case every staged write
                // is discarded and the stage leaves no durable effect.
                if torn {
                    stable.discard();
                } else {
                    stable.commit();
                }
                (result, consumed, stage)
            });
            // Injected clock jitter inflates the frame's consumed ticks
            // before the deadline check sees them.
            let consumed = match jitter.get(&app_id) {
                Some(extra) => consumed + *extra,
                None => consumed,
            };

            if let Err(error) = result {
                let a = self.app_index_of(&app_id);
                self.ring_push(frame, RingCode::StageError, a, 0);
                if self.obs_enabled {
                    self.journal.record(
                        frame,
                        Subsystem::App,
                        "stage-error",
                        serde_json::json!({
                            "app": app_id.to_string(),
                            "stage": stage,
                            "error": error.clone(),
                        }),
                    );
                    self.metrics.incr("app.stage_errors");
                }
                self.events.push(SystemEvent::AppStageError {
                    frame,
                    app: app_id.clone(),
                    stage: stage.into(),
                    error,
                });
            }
            if budget > Ticks::ZERO && consumed > budget {
                self.events.push(SystemEvent::DeadlineMiss {
                    frame,
                    app: app_id.clone(),
                    consumed,
                    budget,
                });
                let a = self.app_index_of(&app_id);
                self.ring_push(
                    frame,
                    RingCode::DeadlineMiss,
                    a,
                    consumed.raw().min(u64::from(u32::MAX)) as u32,
                );
                if self.obs_enabled {
                    // The executive's health-monitor view of the same
                    // overrun (the paper's "timing monitor" trigger
                    // source).
                    let health = arfs_rtos::HealthEvent {
                        frame,
                        partition: app_id.to_string(),
                        kind: arfs_rtos::HealthKind::DeadlineMiss { consumed, budget },
                    };
                    self.journal.record(
                        frame,
                        Subsystem::Rtos,
                        health.kind.code(),
                        serde_json::json!({
                            "app": app_id.to_string(),
                            "consumed": consumed.raw(),
                            "budget": budget.raw(),
                            "detail": health.to_string(),
                        }),
                    );
                    self.metrics.incr("rtos.deadline_misses");
                }
            }

            // Predicate evidence for the trace (Table 1's Predicate
            // column).
            let app = &self.apps[app_index];
            let this_post = match command.status {
                ConfigStatus::Halt => Some(app.postcondition_established()),
                _ => None,
            };
            let this_pre = match command.status {
                ConfigStatus::Initialize | ConfigStatus::PrepareInitialize => {
                    let target = command.target.as_ref().expect("initialize carries target");
                    Some(app.precondition_established(target))
                }
                _ => None,
            };
            post_ok.insert(app_id.clone(), this_post);
            pre_ok.insert(app_id.clone(), this_pre);
            spec_now.insert(app_id.clone(), app.current_spec());

            // Status signal: application -> SCRAM.
            if command.status != ConfigStatus::Normal && command.status != ConfigStatus::Hold {
                let node = placed
                    .map(|p| NodeId::new(PROC_NODE_BASE + p.raw()))
                    .unwrap_or(SCRAM_NODE);
                let payload = format!("{app_id}:{}:done", command.status);
                let _ = self
                    .bus
                    .submit(node, Message::new("status", payload.clone().into_bytes()));
                self.events.push(SystemEvent::SignalSent {
                    frame,
                    from: app_id.to_string(),
                    to: "scram".into(),
                    topic: "status".into(),
                    detail: payload.clone(),
                });
                if self.obs_enabled {
                    self.journal.record(
                        frame,
                        Subsystem::App,
                        "status-signal",
                        serde_json::json!({
                            "from": app_id.to_string(),
                            "to": "scram",
                            "detail": payload,
                        }),
                    );
                    self.metrics.incr("signals.status");
                }
            }
        }

        // At a completion frame, record precondition evidence for every
        // application against its new assignment — SP4's check point.
        let completed_now = decision
            .events
            .iter()
            .any(|e| matches!(e, crate::scram::ScramEvent::Completed { .. }));
        if completed_now {
            let new_config = self
                .spec
                .config(&decision.svclvl)
                .expect("validated config");
            for app in &self.apps {
                let assigned = new_config.spec_for(app.id()).expect("validated assignment");
                pre_ok.insert(
                    app.id().clone(),
                    Some(app.precondition_established(assigned)),
                );
            }
        }

        // --- Record the end-of-frame system state. ---
        let mut apps = BTreeMap::new();
        for app_id in &self.app_order {
            let command = decision.commands.get(app_id).expect("command per app");
            apps.insert(
                app_id.clone(),
                AppFrameRecord {
                    reconf_st: decision.reconf_st[app_id],
                    spec: spec_now
                        .get(app_id)
                        .cloned()
                        .expect("spec recorded per app"),
                    commanded: command.status,
                    post_ok: post_ok
                        .get(app_id)
                        .copied()
                        .flatten()
                        .map(Some)
                        .unwrap_or(None),
                    pre_ok: pre_ok
                        .get(app_id)
                        .copied()
                        .flatten()
                        .map(Some)
                        .unwrap_or(None),
                    lost: lost.get(app_id).copied().unwrap_or(false),
                },
            );
        }
        let state = SysState {
            frame,
            svclvl: decision.svclvl.clone(),
            env: env.clone(),
            apps,
        };
        if self.trace_recording {
            self.trace.push(state);
        } else {
            self.last_state = Some(state);
        }

        // --- One bus round per frame. ---
        let round = self.bus.run_round();

        if self.obs_enabled {
            self.metrics.add("bus.deliveries", round.delivered as u64);

            // Tail the substrate audit logs into the journal. The
            // cursor-based iterators skip already-seen history without
            // rescanning (or copying) the shared COW segments.
            for change in self.bus.membership_changes_from(self.membership_cursor) {
                self.journal.record(
                    frame,
                    Subsystem::Bus,
                    "membership-changed",
                    serde_json::json!({
                        "round": change.round,
                        "node": change.node.to_string(),
                        "present": change.present,
                    }),
                );
                self.metrics.incr("bus.membership_changes");
            }
            self.membership_cursor = self.bus.membership_len();

            for event in self.pool.events_since(self.pool_events_cursor) {
                self.journal.push(crate::obs::JournalEvent {
                    frame,
                    subsystem: Subsystem::Failstop,
                    kind: event.kind().to_owned(),
                    payload: serde_json::Value::Str(format!("{event:?}")),
                });
            }
            self.pool_events_cursor = self.pool.events_len();

            let restricted = decision
                .commands
                .values()
                .any(|c| c.status != ConfigStatus::Normal);
            self.journal.record(
                frame,
                Subsystem::System,
                "frame-end",
                serde_json::json!({
                    "config": decision.svclvl.to_string(),
                    "restricted": restricted,
                }),
            );
            let frames = self.trace.len() as f64;
            if frames > 0.0 {
                self.metrics.set_gauge(
                    "frames.restricted_ratio",
                    self.trace.restricted_frames() as f64 / frames,
                );
            }
        }

        self.clock.advance_frame();
        // A full frame may have changed configurations, budgets, or app
        // specs; the steady-state plan is rebuilt on the next fast frame.
        self.fast_plan = None;
        decision
    }

    /// Mirrors the SCRAM's per-frame events into the flight ring (always)
    /// and the journal + metrics (when observability is on). The ring's
    /// reconfiguration clock (`ring_reconfig_started`) is maintained here
    /// unconditionally — the obs-gated `reconfig_started_at` twin feeds
    /// the busy-state fingerprint and must keep its exact legacy
    /// behavior.
    fn record_scram_events(&mut self, frame: u64, decision: &FrameDecision) {
        for event in &decision.events {
            match event {
                ScramEvent::TriggerAccepted {
                    env,
                    from,
                    target,
                    interrupted,
                    ..
                } => {
                    let (f, t) = (self.cfg_index(from), self.cfg_index(target));
                    self.ring_push(frame, RingCode::TriggerAccepted, f, t);
                    self.ring_reconfig_started = Some(frame);
                    if self.obs_enabled {
                        self.journal.record(
                            frame,
                            Subsystem::Scram,
                            "trigger-accepted",
                            serde_json::json!({
                                "env": env.to_string(),
                                "from": from.to_string(),
                                "target": target.to_string(),
                                "interrupted": interrupted
                                    .iter()
                                    .map(|a| serde_json::Value::Str(a.to_string()))
                                    .collect::<Vec<_>>(),
                            }),
                        );
                        self.metrics.incr("scram.triggers");
                        self.reconfig_started_at = Some(frame);
                    }
                }
                ScramEvent::PhaseEntered { phase, target, .. } => {
                    let t = self.cfg_index(target);
                    self.ring_push(frame, RingCode::PhaseEntered, phase.index(), t);
                    if self.obs_enabled {
                        self.journal.record(
                            frame,
                            Subsystem::Scram,
                            "phase-entered",
                            serde_json::json!({
                                "phase": phase.to_string(),
                                "target": target.to_string(),
                            }),
                        );
                    }
                }
                ScramEvent::Retargeted {
                    old_target,
                    new_target,
                    ..
                } => {
                    let (o, n) = (self.cfg_index(old_target), self.cfg_index(new_target));
                    self.ring_push(frame, RingCode::Retargeted, o, n);
                    if self.obs_enabled {
                        self.journal.record(
                            frame,
                            Subsystem::Scram,
                            "retargeted",
                            serde_json::json!({
                                "old_target": old_target.to_string(),
                                "new_target": new_target.to_string(),
                            }),
                        );
                        self.metrics.incr("scram.retargets");
                    }
                }
                ScramEvent::Completed { config, .. } => {
                    let ring_cycles = self
                        .ring_reconfig_started
                        .take()
                        .map(|start| frame - start + 1);
                    let c = self.cfg_index(config);
                    self.ring_push(
                        frame,
                        RingCode::Completed,
                        c,
                        ring_cycles.unwrap_or(0).min(u64::from(u32::MAX)) as u32,
                    );
                    if self.obs_enabled {
                        let cycles = self
                            .reconfig_started_at
                            .take()
                            .map(|start| frame - start + 1);
                        self.journal.record(
                            frame,
                            Subsystem::Scram,
                            "completed",
                            serde_json::json!({
                                "config": config.to_string(),
                                "cycles": match cycles {
                                    Some(c) => serde_json::Value::U64(c),
                                    None => serde_json::Value::Null,
                                },
                            }),
                        );
                        self.metrics.incr("scram.completions");
                        if let Some(c) = cycles {
                            self.metrics.observe("reconfig.latency_cycles", c);
                        }
                    }
                }
                ScramEvent::DwellSuppressed { until, .. } => {
                    self.ring_push(
                        frame,
                        RingCode::DwellSuppressed,
                        (*until).min(u64::from(u32::MAX)) as u32,
                        0,
                    );
                    if self.obs_enabled {
                        self.journal.record(
                            frame,
                            Subsystem::Scram,
                            "dwell-suppressed",
                            serde_json::json!({"until": *until}),
                        );
                        self.metrics.incr("scram.dwell_suppressed");
                    }
                }
                ScramEvent::CommitRetry {
                    target,
                    used,
                    budget,
                    ..
                } => {
                    self.defense_events += 1;
                    self.ring_push(
                        frame,
                        RingCode::CommitRetry,
                        (*used).min(u64::from(u32::MAX)) as u32,
                        (*budget).min(u64::from(u32::MAX)) as u32,
                    );
                    if self.obs_enabled {
                        self.journal.record(
                            frame,
                            Subsystem::Scram,
                            "commit-retry",
                            serde_json::json!({
                                "target": target.to_string(),
                                "used": *used,
                                "budget": *budget,
                            }),
                        );
                        self.metrics.incr("chaos.commit_retries");
                    }
                }
                ScramEvent::SafeFallback {
                    abandoned, safe, ..
                } => {
                    self.defense_events += 1;
                    let (a, s) = (self.cfg_index(abandoned), self.cfg_index(safe));
                    self.ring_push(frame, RingCode::SafeFallback, a, s);
                    if self.obs_enabled {
                        self.journal.record(
                            frame,
                            Subsystem::Scram,
                            "safe-fallback",
                            serde_json::json!({
                                "abandoned": abandoned.to_string(),
                                "safe": safe.to_string(),
                            }),
                        );
                        self.metrics.incr("chaos.safe_fallbacks");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use crate::scram::ScramMutation;
    use crate::spec::{AppDecl, Configuration, FunctionalSpec};
    use crate::trace::ReconfSt;
    use crate::SpecId;

    fn spec() -> ReconfigSpec {
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["good", "low", "critical"])
            .app(
                AppDecl::new("fcs")
                    .spec(FunctionalSpec::new("full").compute(Ticks::new(30)))
                    .spec(FunctionalSpec::new("direct").compute(Ticks::new(10))),
            )
            .app(
                AppDecl::new("autopilot")
                    .spec(FunctionalSpec::new("full").compute(Ticks::new(30)))
                    .spec(FunctionalSpec::new("alt-hold").compute(Ticks::new(10)))
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
            .build()
            .unwrap()
    }

    #[test]
    fn null_apps_auto_registered() {
        let system = System::builder(spec()).build().unwrap();
        assert_eq!(system.frame(), 0);
        assert_eq!(system.current_config(), &ConfigId::new("full-service"));
        assert!(system.app_stable(&AppId::new("fcs")).is_some());
        assert!(system.app_stable(&AppId::new("ghost")).is_none());
        let dbg = format!("{system:?}");
        assert!(dbg.contains("full-service"));
    }

    #[test]
    fn undeclared_app_rejected() {
        let err = System::builder(spec())
            .app(Box::new(NullApp::new("ghost", "x")))
            .build()
            .unwrap_err();
        assert_eq!(err, SystemError::UndeclaredApp(AppId::new("ghost")));
    }

    #[test]
    fn partially_registered_apps_rejected() {
        let err = System::builder(spec())
            .app(Box::new(NullApp::new("fcs", "full")))
            .build()
            .unwrap_err();
        assert_eq!(err, SystemError::UnregisteredApp(AppId::new("autopilot")));
    }

    #[test]
    fn steady_run_records_normal_trace() {
        let mut system = System::builder(spec()).build().unwrap();
        system.run_frames(5);
        assert_eq!(system.trace().len(), 5);
        assert!(system.trace().states().all(SysState::all_normal));
        assert!(system.trace().get_reconfigs().is_empty());
        let report = properties::check_extended(system.trace(), system.spec());
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn power_loss_reconfigures_and_satisfies_all_properties() {
        let mut system = System::builder(spec()).build().unwrap();
        system.run_frames(3);
        system.set_env("power", "low").unwrap();
        system.run_frames(8);

        assert_eq!(system.current_config(), &ConfigId::new("reduced"));
        let reconfigs = system.trace().get_reconfigs();
        assert_eq!(reconfigs.len(), 1);
        assert_eq!(reconfigs[0].cycles(), 4); // Table 1: 4 cycles inclusive
        let report = properties::check_extended(system.trace(), system.spec());
        assert!(report.is_ok(), "{report}");

        // The configuration_status variable walked the documented
        // sequence (final value: normal).
        let snap = system.app_stable(&AppId::new("fcs")).unwrap();
        assert_eq!(snap.get_str(CONFIG_STATUS_KEY), Some("normal"));
    }

    #[test]
    fn trace_marks_interrupted_apps_at_trigger() {
        let mut system = System::builder(spec()).build().unwrap();
        system.run_frames(2);
        system.set_env("power", "low").unwrap();
        system.run_frames(6);
        let r = system.trace().get_reconfigs()[0];
        let start = system.trace().state(r.start_c).unwrap();
        assert_eq!(
            start.apps[&AppId::new("fcs")].reconf_st,
            ReconfSt::Interrupted
        );
        // Specs changed after completion.
        let end = system.trace().state(r.end_c).unwrap();
        assert_eq!(end.apps[&AppId::new("fcs")].spec, SpecId::new("direct"));
        assert_eq!(
            end.apps[&AppId::new("autopilot")].spec,
            SpecId::new("alt-hold")
        );
        assert_eq!(end.apps[&AppId::new("fcs")].pre_ok, Some(true));
    }

    #[test]
    fn fault_and_reconfig_signals_flow_over_the_bus() {
        let mut system = System::builder(spec()).build().unwrap();
        system.run_frames(2);
        system.set_env("power", "critical").unwrap();
        system.run_frames(6);
        let log = system.bus().log();
        let topics: Vec<&str> = log.iter().map(|d| d.message.topic()).collect();
        assert!(topics.contains(&"fault"));
        assert!(topics.contains(&"reconfig"));
        assert!(topics.contains(&"status"));
        // And the event log mirrors the Figure 1 edges.
        assert!(system.events().iter().any(|e| matches!(
            e,
            SystemEvent::SignalSent { from, to, topic, .. }
                if from == "environment" && to == "scram" && topic == "fault"
        )));
        assert!(system.events().iter().any(|e| matches!(
            e,
            SystemEvent::SignalSent { from, topic, .. }
                if from == "scram" && topic == "reconfig"
        )));
    }

    #[test]
    fn journal_captures_every_figure1_edge() {
        let mut system = System::builder(spec()).build().unwrap();
        system.run_frames(2);
        system.set_env("power", "low").unwrap();
        system.run_frames(8);
        let journal = system.journal();

        // Failure signal -> SCRAM decision -> phase signals -> commits.
        assert_eq!(journal.of_kind("env-changed").count(), 1);
        assert_eq!(journal.of_kind("fault-signal").count(), 1);
        assert_eq!(journal.of_kind("trigger-accepted").count(), 1);
        let phases: Vec<&str> = journal
            .of_kind("phase-entered")
            .filter_map(|e| e.payload.get("phase").and_then(|p| p.as_str()))
            .collect();
        assert_eq!(phases, ["halt", "prepare", "initialize"]);
        assert_eq!(journal.of_kind("completed").count(), 1);
        assert!(journal.of_kind("reconfig-signal").count() >= 3);
        assert!(journal.of_kind("status-signal").count() >= 3);
        assert!(journal.of_kind("stable-commit").count() >= 3);

        // The protocol's causal order holds in the journal.
        let pos = |kind: &str| {
            journal
                .events()
                .iter()
                .position(|e| e.kind == kind)
                .unwrap_or_else(|| panic!("journal lacks {kind}"))
        };
        assert!(pos("fault-signal") < pos("trigger-accepted"));
        assert!(pos("trigger-accepted") < pos("phase-entered"));
        assert!(pos("phase-entered") < pos("completed"));

        // Frame boundaries bracket the run; events serialize as JSON
        // Lines and round-trip.
        assert_eq!(journal.of_kind("frame-start").count(), 10);
        assert_eq!(journal.of_kind("frame-end").count(), 10);
        let text = journal.to_json_lines();
        let back = crate::obs::Journal::from_json_lines(&text).unwrap();
        assert_eq!(&back, journal);

        // Metrics mirror the journal's story.
        let snap = system.metrics_snapshot();
        assert_eq!(snap.counters["frames"], 10);
        assert_eq!(snap.counters["scram.triggers"], 1);
        assert_eq!(snap.counters["scram.completions"], 1);
        assert_eq!(snap.counters["signals.fault"], 1);
        assert!(snap.counters["signals.reconfig"] >= 3);
        let latency = &snap.histograms["reconfig.latency_cycles"];
        assert_eq!(latency.count, 1);
        assert_eq!(latency.max, 4); // Table 1: 4 cycles inclusive
        assert!(snap.gauges["frames.restricted_ratio"] > 0.0);
        assert_eq!(snap.histograms["scram.decision_ns"].count, 10);
    }

    #[test]
    fn journal_records_substrate_events() {
        let mut system = System::builder(spec()).build().unwrap();
        system.run_frames(2);
        system.fail_processor(ProcessorId::new(1));
        system.run_frames(2);
        let journal = system.journal();
        assert_eq!(journal.of_kind("fault-injected").count(), 1);
        assert_eq!(journal.of_kind("processor-failed").count(), 1);
        assert!(journal.of_kind("app-lost").count() >= 1);
        // The membership service observed the silent node drop.
        assert!(journal
            .of_kind("membership-changed")
            .any(|e| e.payload.get("present") == Some(&serde_json::Value::Bool(false))));
        assert_eq!(system.metrics().counter("failstop.fault_injections"), 1);
        assert!(system.metrics().counter("bus.membership_changes") >= 1);
    }

    #[test]
    fn observability_can_be_disabled() {
        let mut system = System::builder(spec())
            .observability(false)
            .build()
            .unwrap();
        system.run_frames(2);
        system.set_env("power", "low").unwrap();
        system.run_frames(6);
        assert!(system.journal().is_empty());
        assert_eq!(system.metrics().counter("frames"), 0);
        // The trace and legacy event log are unaffected.
        assert_eq!(system.trace().len(), 8);
        assert!(!system.events().is_empty());
    }

    #[test]
    fn observability_can_be_rearmed_mid_run() {
        // The flight recorder's replay path: a system built dark (as
        // the model checker builds them) starts journaling the moment
        // observability is re-armed.
        let mut system = System::builder(spec())
            .observability(false)
            .build()
            .unwrap();
        system.run_frames(2);
        assert!(!system.observability());
        assert!(system.journal().is_empty());

        system.set_observability(true);
        assert!(system.observability());
        system.set_env("power", "low").unwrap();
        system.run_frames(6);
        let journal = system.journal();
        assert_eq!(journal.of_kind("trigger-accepted").count(), 1);
        // History is not reconstructed: the journal starts at the frame
        // observability came on.
        assert_eq!(journal.events().first().unwrap().frame, 2);
        assert_eq!(system.metrics().counter("frames"), 6);
    }

    #[test]
    fn builder_arc_shares_the_specification() {
        let shared = Arc::new(spec());
        let a = System::builder_arc(Arc::clone(&shared)).build().unwrap();
        let b = System::builder_arc(Arc::clone(&shared)).build().unwrap();
        assert!(Arc::ptr_eq(&a.spec, &shared));
        assert!(Arc::ptr_eq(&b.spec, &shared));
    }

    #[test]
    fn double_failure_chains_to_minimal() {
        let mut system = System::builder(spec()).build().unwrap();
        system.run_frames(2);
        system.set_env("power", "low").unwrap();
        system.run_frames(6); // reduced
        assert_eq!(system.current_config(), &ConfigId::new("reduced"));
        system.set_env("power", "critical").unwrap();
        system.run_frames(6); // minimal
        assert_eq!(system.current_config(), &ConfigId::new("minimal"));
        assert_eq!(system.trace().get_reconfigs().len(), 2);
        let report = properties::check_extended(system.trace(), system.spec());
        assert!(report.is_ok(), "{report}");
        // Autopilot is off in minimal service.
        let last = system.trace().states().last().unwrap();
        assert!(last.apps[&AppId::new("autopilot")].spec.is_off());
    }

    #[test]
    fn wrong_target_mutation_caught_by_sp2() {
        let mut system = System::builder(spec())
            .mutation(ScramMutation::WrongTarget)
            .build()
            .unwrap();
        system.run_frames(2);
        system.set_env("power", "low").unwrap();
        system.run_frames(8);
        let report = properties::check_all(system.trace(), system.spec());
        assert!(!report.of(crate::properties::PropertyId::Sp2).is_empty());
    }

    #[test]
    fn extra_delay_mutation_caught_by_sp3() {
        let mut system = System::builder(spec())
            .mutation(ScramMutation::ExtraDelayFrames(10))
            .build()
            .unwrap();
        system.run_frames(2);
        system.set_env("power", "low").unwrap();
        system.run_frames(20);
        let report = properties::check_all(system.trace(), system.spec());
        assert!(!report.of(crate::properties::PropertyId::Sp3).is_empty());
    }

    #[test]
    fn skip_init_mutation_caught_by_sp4() {
        let mut system = System::builder(spec())
            .mutation(ScramMutation::SkipInitPhase)
            .build()
            .unwrap();
        system.run_frames(2);
        system.set_env("power", "low").unwrap();
        system.run_frames(8);
        let report = properties::check_all(system.trace(), system.spec());
        assert!(!report.of(crate::properties::PropertyId::Sp4).is_empty());
    }

    #[test]
    fn leave_app_running_mutation_caught_by_sp1() {
        let mut system = System::builder(spec())
            .mutation(ScramMutation::LeaveAppRunning(AppId::new("autopilot")))
            .build()
            .unwrap();
        system.run_frames(2);
        system.set_env("power", "low").unwrap();
        system.run_frames(8);
        let report = properties::check_all(system.trace(), system.spec());
        assert!(!report.of(crate::properties::PropertyId::Sp1).is_empty());
    }

    #[test]
    fn invalid_env_change_rejected_eagerly() {
        let mut system = System::builder(spec()).build().unwrap();
        assert!(system.set_env("power", "purple").is_err());
        assert!(system.set_env("fuel", "low").is_err());
    }

    #[test]
    fn processor_failure_loses_hosted_apps() {
        let mut system = System::builder(spec()).build().unwrap();
        system.run_frames(2);
        system.fail_processor(ProcessorId::new(1)); // autopilot's host
        system.run_frames(2);
        assert!(system.events().iter().any(|e| matches!(
            e,
            SystemEvent::ProcessorDown { processor, .. } if *processor == ProcessorId::new(1)
        )));
        assert!(system.events().iter().any(|e| matches!(
            e,
            SystemEvent::AppLost { app, .. } if *app == AppId::new("autopilot")
        )));
    }

    #[test]
    fn processor_status_env_factor_auto_updates() {
        let spec = ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("processor-1", ["up", "down"])
            .app(
                AppDecl::new("fcs")
                    .spec(FunctionalSpec::new("full"))
                    .spec(FunctionalSpec::new("direct")),
            )
            .app(
                AppDecl::new("autopilot")
                    .spec(FunctionalSpec::new("full"))
                    .spec(FunctionalSpec::new("off2")),
            )
            .config(
                Configuration::new("full-service")
                    .assign("fcs", "full")
                    .assign("autopilot", "full")
                    .place("fcs", ProcessorId::new(0))
                    .place("autopilot", ProcessorId::new(1)),
            )
            .config(
                Configuration::new("solo")
                    .assign("fcs", "direct")
                    .assign("autopilot", "off")
                    .place("fcs", ProcessorId::new(0))
                    .safe(),
            )
            .transition("full-service", "solo", Ticks::new(800))
            .choose_when("processor-1", "down", "solo")
            .choose_when("processor-1", "up", "full-service")
            .initial_config("full-service")
            .initial_env([("processor-1", "up")])
            .build()
            .unwrap();
        let mut system = System::builder(spec).build().unwrap();
        system.run_frames(2);
        system.fail_processor(ProcessorId::new(1));
        system.run_frames(8);
        // The membership-derived environment change drove the
        // reconfiguration to the solo configuration.
        assert_eq!(system.current_config(), &ConfigId::new("solo"));
        assert_eq!(
            system.environment().current().get("processor-1"),
            Some("down")
        );
        let report = properties::check_all(system.trace(), system.spec());
        assert!(report.is_ok(), "{report}");
    }

    #[derive(Clone)]
    struct OverrunApp(NullApp);
    impl ReconfigurableApp for OverrunApp {
        fn id(&self) -> &AppId {
            self.0.id()
        }
        fn current_spec(&self) -> SpecId {
            self.0.current_spec()
        }
        fn run_normal(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
            ctx.consume(Ticks::new(1000));
            self.0.run_normal(ctx)
        }
        fn halt(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
            self.0.halt(ctx)
        }
        fn prepare(&mut self, ctx: &mut AppContext<'_>, t: &SpecId) -> Result<(), String> {
            self.0.prepare(ctx, t)
        }
        fn initialize(&mut self, ctx: &mut AppContext<'_>, t: &SpecId) -> Result<(), String> {
            self.0.initialize(ctx, t)
        }
        fn postcondition_established(&self) -> bool {
            self.0.postcondition_established()
        }
        fn precondition_established(&self, s: &SpecId) -> bool {
            self.0.precondition_established(s)
        }
        fn clone_box(&self) -> Box<dyn ReconfigurableApp> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn compressed_stages_reconfigure_in_three_cycles_with_properties_intact() {
        let mut system = System::builder(spec())
            .stage_policy(StagePolicy::CompressedPrepareInit)
            .build()
            .unwrap();
        system.run_frames(3);
        system.set_env("power", "low").unwrap();
        system.run_frames(6);
        assert_eq!(system.current_config(), &ConfigId::new("reduced"));
        let reconfigs = system.trace().get_reconfigs();
        assert_eq!(reconfigs.len(), 1);
        assert_eq!(reconfigs[0].cycles(), 3);
        let report = properties::check_extended(system.trace(), system.spec());
        assert!(report.is_ok(), "{report}");
        // The compressed stage recorded precondition evidence.
        let end = system.trace().state(reconfigs[0].end_c).unwrap();
        assert!(end.apps.values().all(|a| a.pre_ok == Some(true)));
    }

    #[test]
    fn skip_halt_mutation_evades_sp_properties_but_not_conformance() {
        let mut system = System::builder(spec())
            .mutation(ScramMutation::SkipHaltPhase)
            .build()
            .unwrap();
        system.run_frames(2);
        system.set_env("power", "low").unwrap();
        system.run_frames(10);
        assert_eq!(system.current_config(), &ConfigId::new("reduced"));
        // The four Table 2 properties cannot see the missing halt...
        let table2 = properties::check_all(system.trace(), system.spec());
        assert!(table2.is_ok(), "{table2}");
        // ...the protocol-conformance extension can.
        let conformance = properties::check_protocol_conformance(system.trace(), system.spec());
        assert!(!conformance.is_empty());
        assert!(conformance.iter().any(|v| v.detail.contains("halt stage")));
    }

    #[test]
    fn registered_monitor_drives_reconfiguration() {
        use crate::environment::FnMonitor;
        let mut system = System::builder(spec())
            .monitor(Box::new(FnMonitor::new("power-watch", |frame| {
                if frame == 5 {
                    vec![("power".to_string(), "low".to_string())]
                } else {
                    Vec::new()
                }
            })))
            .build()
            .unwrap();
        system.run_frames(12);
        assert_eq!(system.current_config(), &ConfigId::new("reduced"));
        // The monitor's change produced a fault signal on the bus.
        assert!(system.events().iter().any(|e| matches!(
            e,
            SystemEvent::SignalSent { topic, .. } if topic == "fault"
        )));
        let report = properties::check_extended(system.trace(), system.spec());
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn monitor_reporting_invalid_values_is_ignored_gracefully() {
        use crate::environment::FnMonitor;
        let mut system = System::builder(spec())
            .monitor(Box::new(FnMonitor::new("broken", |_| {
                vec![("power".to_string(), "purple".to_string())]
            })))
            .build()
            .unwrap();
        system.run_frames(4);
        // Out-of-domain samples never reach the environment.
        assert_eq!(system.environment().current().get("power"), Some("good"));
        assert!(system.trace().states().all(SysState::all_normal));
    }

    #[derive(Clone)]
    struct SlowStageApp(NullApp);
    impl ReconfigurableApp for SlowStageApp {
        fn id(&self) -> &AppId {
            self.0.id()
        }
        fn current_spec(&self) -> SpecId {
            self.0.current_spec()
        }
        fn run_normal(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
            self.0.run_normal(ctx)
        }
        fn halt(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
            // Overruns the whole frame while halting: a stage-bound
            // violation.
            ctx.consume(Ticks::new(5000));
            self.0.halt(ctx)
        }
        fn prepare(&mut self, ctx: &mut AppContext<'_>, t: &SpecId) -> Result<(), String> {
            self.0.prepare(ctx, t)
        }
        fn initialize(&mut self, ctx: &mut AppContext<'_>, t: &SpecId) -> Result<(), String> {
            self.0.initialize(ctx, t)
        }
        fn postcondition_established(&self) -> bool {
            self.0.postcondition_established()
        }
        fn precondition_established(&self, s: &SpecId) -> bool {
            self.0.precondition_established(s)
        }
        fn clone_box(&self) -> Box<dyn ReconfigurableApp> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn stage_overrun_reported_as_deadline_miss() {
        let mut system = System::builder(spec())
            .app(Box::new(SlowStageApp(NullApp::new("fcs", "full"))))
            .app(Box::new(NullApp::new("autopilot", "full")))
            .build()
            .unwrap();
        system.run_frames(2);
        assert!(!system
            .events()
            .iter()
            .any(|e| matches!(e, SystemEvent::DeadlineMiss { .. })));
        system.set_env("power", "low").unwrap();
        system.run_frames(6);
        // The halt stage blew the frame budget.
        assert!(system.events().iter().any(|e| matches!(
            e,
            SystemEvent::DeadlineMiss { app, consumed, .. }
                if *app == AppId::new("fcs") && *consumed == Ticks::new(5000)
        )));
    }

    #[test]
    fn torn_commit_mid_reconfig_retries_and_still_lands_with_properties_intact() {
        // One torn write on the halt frame: the default retry budget
        // absorbs it, the reconfiguration completes a frame late, and
        // SP1-SP4 still hold over the chaos trace.
        let mut plan = FaultPlan::new();
        plan.push(
            3,
            FaultKind::CommitFault {
                app: AppId::new("fcs"),
            },
        );
        let mut system = System::builder(spec()).fault_plan(plan).build().unwrap();
        system.run_frames(2);
        system.set_env("power", "low").unwrap();
        system.run_frames(10);

        assert_eq!(system.current_config(), &ConfigId::new("reduced"));
        let journal = system.journal();
        assert_eq!(journal.of_kind("torn-write").count(), 1);
        assert_eq!(journal.of_kind("commit-retry").count(), 1);
        assert_eq!(journal.of_kind("safe-fallback").count(), 0);
        assert_eq!(system.metrics().counter("chaos.faults_injected"), 1);
        assert_eq!(system.metrics().counter("chaos.commit_retries"), 1);
        // The retry stretched Table 1's 4 cycles to 5.
        let reconfigs = system.trace().get_reconfigs();
        assert_eq!(reconfigs.len(), 1);
        assert_eq!(reconfigs[0].cycles(), 5);
        let report = properties::check_all(system.trace(), system.spec());
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn exhausted_retry_budget_falls_back_to_safe_and_sp2_sees_it() {
        // Retry budget zero: the same torn write aborts the in-flight
        // reconfiguration to "reduced" and restarts toward the safe
        // configuration. The system lands somewhere safe — but not
        // where the choice function pointed, which is exactly an SP2
        // violation.
        let mut plan = FaultPlan::new();
        plan.push(
            3,
            FaultKind::CommitFault {
                app: AppId::new("fcs"),
            },
        );
        let defense = crate::chaos::ChaosDefense {
            retry_budget_frames: 0,
            ..crate::chaos::ChaosDefense::default()
        };
        let mut system = System::builder(spec())
            .fault_plan(plan)
            .chaos_defense(defense)
            .build()
            .unwrap();
        system.run_frames(2);
        system.set_env("power", "low").unwrap();
        system.run_frames(10);

        let journal = system.journal();
        assert_eq!(journal.of_kind("safe-fallback").count(), 1);
        assert_eq!(system.metrics().counter("chaos.safe_fallbacks"), 1);
        // The fallback window landed in "minimal" (not the chosen
        // "reduced"); once the substrate calmed, a fresh trigger
        // re-converged on the choice function's target.
        let reconfigs = system.trace().get_reconfigs();
        assert_eq!(reconfigs.len(), 2);
        let fallback_end = system.trace().state(reconfigs[0].end_c).unwrap();
        assert_eq!(fallback_end.svclvl, ConfigId::new("minimal"));
        assert_eq!(system.current_config(), &ConfigId::new("reduced"));
        let report = properties::check_all(system.trace(), system.spec());
        assert!(!report.of(crate::properties::PropertyId::Sp2).is_empty());
    }

    #[test]
    fn persistent_bus_silence_is_quarantined_as_fail_stop() {
        // Three silent frames hit the default detection window: the
        // processor is force-failed, and from there the ordinary
        // membership/processor-status machinery takes over.
        let mut plan = FaultPlan::new();
        plan.push(
            2,
            FaultKind::BusSilence {
                processor: ProcessorId::new(1),
                frames: 3,
            },
        );
        let mut system = System::builder(spec()).fault_plan(plan).build().unwrap();
        system.run_frames(6);

        assert!(!system.pool().is_alive(ProcessorId::new(1)));
        let journal = system.journal();
        assert_eq!(journal.of_kind("bus-silenced").count(), 1);
        assert_eq!(journal.of_kind("quarantined").count(), 1);
        assert_eq!(system.metrics().counter("chaos.quarantines"), 1);
        assert!(system.events().iter().any(|e| matches!(
            e,
            SystemEvent::ProcessorDown { processor, .. } if *processor == ProcessorId::new(1)
        )));
        // The quarantined host's application is lost thereafter.
        assert!(system.events().iter().any(|e| matches!(
            e,
            SystemEvent::AppLost { app, .. } if *app == AppId::new("autopilot")
        )));
    }

    #[test]
    fn single_membership_flap_is_harmless() {
        // A one-frame silence never reaches the quarantine window; the
        // streak resets and the processor stays in service.
        let mut plan = FaultPlan::new();
        plan.push(
            2,
            FaultKind::BusSilence {
                processor: ProcessorId::new(1),
                frames: 1,
            },
        );
        let mut system = System::builder(spec()).fault_plan(plan).build().unwrap();
        system.run_frames(8);

        assert!(system.pool().is_alive(ProcessorId::new(1)));
        assert_eq!(system.journal().of_kind("quarantined").count(), 0);
        assert!(system.chaos().silent_streak.is_empty());
        assert!(system.trace().states().all(SysState::all_normal));
        let report = properties::check_all(system.trace(), system.spec());
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn clock_jitter_surfaces_as_deadline_miss() {
        let mut plan = FaultPlan::new();
        plan.push(
            1,
            FaultKind::ClockJitter {
                app: AppId::new("fcs"),
                ticks: 200,
            },
        );
        let mut system = System::builder(spec()).fault_plan(plan).build().unwrap();
        system.run_frames(3);

        assert_eq!(system.journal().of_kind("clock-jitter").count(), 1);
        assert_eq!(system.metrics().counter("rtos.deadline_misses"), 1);
        assert!(system.events().iter().any(|e| matches!(
            e,
            SystemEvent::DeadlineMiss { frame, app, .. }
                if *frame == 1 && *app == AppId::new("fcs")
        )));
    }

    #[test]
    fn compute_overrun_reported_as_deadline_miss() {
        let mut system = System::builder(spec())
            .app(Box::new(OverrunApp(NullApp::new("fcs", "full"))))
            .app(Box::new(NullApp::new("autopilot", "full")))
            .build()
            .unwrap();
        system.run_frames(1);
        assert!(system.events().iter().any(|e| matches!(
            e,
            SystemEvent::DeadlineMiss { app, .. } if *app == AppId::new("fcs")
        )));
    }
}
