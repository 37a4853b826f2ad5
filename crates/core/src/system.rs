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
//! `System` is the frame-synchronous executive of §6.1. Each call to
//! [`System::run_frame`] executes one synchronous real-time frame:
//! environment sampling, SCRAM decision, signal delivery through
//! stable-storage variables and the bus, one unit of work per
//! application in a fixed window order and within its budget (an overrun
//! is a `deadline-miss` health event), frame-end stable-storage commits,
//! and trace recording.
//!
//! # Processor-status environment factors
//!
//! Since "the status of a component is modeled as an element of the
//! environment" (§6.3), the system auto-maintains any environment factor
//! named `processor-<n>` (domain `{"up", "down"}`): when the bus
//! membership service observes processor `n` silent, the factor flips to
//! `"down"` without any manual [`System::set_env`] call.
//!
//! # Fail-stop axioms
//!
//! A processor failure ([`System::fail_processor`], or a chaos
//! quarantine) takes effect at the start of a frame and is permanent.
//! An application whose placement in the frame's configuration is a
//! failed processor is *lost* for that frame (the trace marks it), and
//! `System` keeps the two fail-stop axioms for it:
//!
//! 1. It stages and commits nothing of its own: none of its stages runs,
//!    so it emits no stage or status report, and its region takes no
//!    frame-end commit. The SCRAM's signal pass is the one exception: it
//!    writes the SCRAM-owned `configuration_status` and `target_spec`
//!    keys into every region, lost ones included (§6.2).
//! 2. Its committed stable state is kept unchanged while it is lost, and
//!    it is the state the application resumes from once a configuration
//!    places it on a live processor. The application object itself is
//!    kept too; since none of its stages runs, its in-memory fields stay
//!    as they were at its last committed frame.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;

use arfs_failstop::{ProcessorId, ProcessorPool, SharedStableStorage, StableSnapshot};
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
    Event, FlightRing, Journal, JournalEvent, MetricsRegistry, MetricsSnapshot, Recorder,
};
use crate::scram::{
    FrameDecision, MidReconfigPolicy, Scram, ScramEvent, ScramMutation, StagePolicy, SyncPolicy,
};
use crate::snapshot::{Fnv, ForkSnapshot};
use crate::spec::{dependency_order, ReconfigSpec};
use crate::trace::{AppFrameRecord, SysState, SysTrace};
use crate::{AppId, ConfigId, SpecId, SystemError};

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
        // what licenses the steady-state fast path to hand them an empty
        // board and commit each region right after its stage.
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
            pool.add(p);
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

        let mut slots: Vec<AppSlot> = apps
            .iter()
            .enumerate()
            .map(|(app, a)| AppSlot::new(&spec, a.id().clone(), app, a.current_spec()))
            .collect();
        slots.sort_by(|a, b| a.id.cmp(&b.id));
        slots.dedup_by(|a, b| a.id == b.id);
        let order = dependency_order(spec.apps())
            .into_iter()
            .map(|d| slot_index(&slots, d.id()).expect("registered app"))
            .collect();

        let obs = Recorder::new(Arc::clone(&spec), self.observability, self.ring_capacity);
        Ok(System {
            clock: VirtualClock::new(spec.frame_len()),
            spec,
            apps,
            slots,
            order,
            pool,
            bus,
            environment,
            scram,
            monitors: self.monitors,
            trace: SysTrace::new(),
            pending_env: Vec::new(),
            pending_failures: Vec::new(),
            obs,
            pool_events_cursor: 0,
            membership_cursor: 0,
            reconfig_started_at: None,
            chaos: ChaosState {
                plan: self.fault_plan,
                defense: self.chaos_defense,
                ..ChaosState::default()
            },
            trace_recording: true,
            last_state: None,
            apps_auto_null,
            board: Blackboard::new(),
        })
    }
}

/// One application's standing in the frame: its stable-storage region,
/// the compute budget of its current specification, and the evidence a
/// full frame gathers for its trace record. Slots live as long as the
/// system, so a frame carries slot indices, not `AppId`-keyed maps.
#[derive(Clone)]
struct AppSlot {
    id: AppId,
    /// Index of the application in `System::apps`.
    app: usize,
    region: SharedStableStorage,
    /// The specification the application reported after its last stage.
    spec: SpecId,
    /// The declared compute budget of `spec`.
    budget: Ticks,
    /// Clock jitter injected into this frame.
    jitter: Ticks,
    post_ok: Option<bool>,
    pre_ok: Option<bool>,
    lost: bool,
}

impl AppSlot {
    fn new(spec: &ReconfigSpec, id: AppId, app: usize, current: SpecId) -> Self {
        AppSlot {
            budget: AppSlot::budget_of(spec, &id, &current),
            id,
            app,
            region: SharedStableStorage::new(),
            spec: current,
            jitter: Ticks::ZERO,
            post_ok: None,
            pre_ok: None,
            lost: false,
        }
    }

    fn budget_of(spec: &ReconfigSpec, app: &AppId, current: &SpecId) -> Ticks {
        spec.app(app)
            .and_then(|d| d.find_spec(current))
            .map_or(Ticks::ZERO, |s| s.compute_ticks())
    }

    /// Records the specification the application reports now.
    fn set_spec(&mut self, spec: &ReconfigSpec, current: SpecId) {
        if current != self.spec {
            self.budget = AppSlot::budget_of(spec, &self.id, &current);
            self.spec = current;
        }
    }
}

/// The position of application `id` in id-ordered `slots`.
fn slot_index(slots: &[AppSlot], id: &AppId) -> Option<usize> {
    slots.binary_search_by(|s| s.id.cmp(id)).ok()
}

/// Reports one application stage: its error, if it failed, then the
/// §6.1 budget rule — a stage that consumed more than a non-zero budget
/// missed its deadline. Both frame paths call it; it adds no allocation
/// of its own.
#[inline]
fn report_stage(
    obs: &mut Recorder,
    frame: u64,
    app: &AppId,
    stage: &str,
    result: &Result<(), String>,
    consumed: Ticks,
    budget: Ticks,
) {
    if let Err(error) = result {
        obs.emit(frame, &Event::StageError { app, stage, error });
    }
    if budget > Ticks::ZERO && consumed > budget {
        obs.emit(
            frame,
            &Event::DeadlineMiss {
                app,
                consumed,
                budget,
            },
        );
    }
}

/// The running system; see the [module documentation](self).
pub struct System {
    spec: Arc<ReconfigSpec>,
    clock: VirtualClock,
    apps: Vec<Box<dyn ReconfigurableApp>>,
    /// One slot per application, in application-id order.
    slots: Vec<AppSlot>,
    /// The executive's static window order: slot indices in dependency
    /// order.
    order: Arc<[usize]>,
    pool: ProcessorPool,
    bus: TtBus,
    environment: Environment,
    scram: Scram,
    monitors: Vec<Box<dyn crate::environment::EnvMonitor>>,
    trace: SysTrace,
    pending_env: Vec<(String, String)>,
    pending_failures: Vec<ProcessorId>,
    /// Where every [`Event`] goes: the journal and metrics (while
    /// observability is on), the optional flight ring (always; it never
    /// disqualifies the fast path), and the chaos-defense count.
    obs: Recorder,
    /// Tail cursor into the processor pool's audit log.
    pool_events_cursor: usize,
    /// Tail cursor into the bus's membership-change log.
    membership_cursor: usize,
    /// Trigger frame of the in-flight reconfiguration: the start of the
    /// latency a completion reports and of the window offset the
    /// busy-state fingerprint hashes. Kept whether or not anything is
    /// recording.
    reconfig_started_at: Option<u64>,
    /// The substrate fault-injection plan and its live state (silence
    /// windows, quarantine streaks).
    chaos: ChaosState,
    /// Whether executed frames append [`SysState`]s to the trace.
    trace_recording: bool,
    /// The most recent full frame's state, kept (and rewritten in
    /// place) when trace recording is off so streaming verifiers can
    /// still inspect it.
    last_state: Option<SysState>,
    /// All applications are auto-filled [`NullApp`]s (they ignore their
    /// blackboard inputs), a precondition of the steady-state fast path.
    apps_auto_null: bool,
    /// The frame-start blackboard: filled while a full frame's stages
    /// run, empty otherwise.
    board: Blackboard,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("frame", &self.clock.frame())
            .field("config", self.scram.current_config())
            .field("apps", &self.apps.len())
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
        self.obs.enabled = enabled;
    }

    /// Whether the observability layer is currently recording.
    pub fn observability(&self) -> bool {
        self.obs.enabled
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

    /// The SCRAM kernel (its configuration and protocol state).
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

    /// The structured observability journal (empty when observability
    /// was disabled at build time).
    pub fn journal(&self) -> &Journal {
        &self.obs.journal
    }

    /// Moves the journal's events out, oldest first, leaving it empty:
    /// a journaling fleet cell ships each frame's events this way
    /// instead of keeping the whole horizon in the system.
    pub(crate) fn drain_journal(&mut self) -> impl Iterator<Item = JournalEvent> + '_ {
        self.obs.journal.drain()
    }

    /// The run's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.obs.metrics
    }

    /// A serializable snapshot of the run's metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.metrics.snapshot()
    }

    /// The flight-recorder ring, when one was enabled at build time.
    pub fn flight_ring(&self) -> Option<&FlightRing> {
        self.obs.ring.as_ref()
    }

    /// Total chaos-defense activations (commit retries, safe fallbacks,
    /// quarantines) since construction. Always counted, independent of
    /// observability.
    pub fn defense_events(&self) -> u64 {
        self.obs.defense_events
    }

    /// A consistent snapshot of an application's stable-storage region.
    pub fn app_stable(&self, id: &AppId) -> Option<StableSnapshot> {
        slot_index(&self.slots, id).map(|at| self.slots[at].region.snapshot())
    }

    /// A canonical fingerprint of the system's behaviorally relevant
    /// state — quiescent *or* mid-reconfiguration — or `None` if the
    /// state cannot be summarized.
    ///
    /// Two systems with equal fingerprints at the same frame — reached
    /// by *different* event schedules — produce identical futures
    /// under identical future inputs; the model checker's visited-state
    /// deduplication relies on exactly this to merge converged schedule
    /// subtrees. A fingerprint requires no queued environment updates
    /// or processor failures, no live or future chaos faults, every
    /// processor alive, no attached monitors (their hidden state is not
    /// summarizable), and every application able to digest itself
    /// ([`ReconfigurableApp::state_digest`]); a *steady* kernel must
    /// also have no pending trigger (the choice function endorses the
    /// current configuration).
    ///
    /// The hash covers the environment, the current configuration, the
    /// *remaining* dwell (not the absolute steady-since frame — see
    /// [`Scram::settled_dwell`]), and each application's digest plus
    /// committed stable-storage region. When a reconfiguration is in
    /// flight it also covers the SCRAM's in-flight protocol record
    /// ([`InFlight`](crate::scram::InFlight): source and target
    /// configuration, phase, phase progress, stall / retry / backoff
    /// counters, announcement flag) and the offset into the
    /// reconfiguration window (`frame - trigger frame`). Those fields
    /// determine every future protocol decision and every remaining
    /// restricted frame.
    pub fn state_fingerprint(&self) -> Option<u64> {
        let frame = self.clock.frame();
        let plan = &self.chaos.plan;
        if !self.monitors.is_empty()
            || !self.pending_env.is_empty()
            || !self.pending_failures.is_empty()
            || !self.pool.all_alive()
            || !self.chaos.quiet_at(frame)
            || (!plan.is_empty() && plan.last_frame() >= frame)
        {
            return None;
        }
        let current = self.scram.current_config();
        let busy = self.scram.busy_view();
        let dwell_remaining = match busy {
            Some(_) => 0,
            // A steady kernel with a trigger pending is not quiescent.
            None => self
                .scram
                .settled_dwell(frame, self.environment.current())?,
        };

        let mut h = Fnv::new();
        for (factor, value) in self.environment.current().iter() {
            h.write(factor.as_bytes());
            h.write(value.as_bytes());
        }
        h.write(current.as_str().as_bytes());
        h.write(&dwell_remaining.to_le_bytes());
        if let Some(view) = busy {
            // The protocol offset: where in the reconfiguration window
            // this frame sits. Together with the in-flight record it
            // pins the remaining restricted-frame pattern.
            let offset = self
                .reconfig_started_at
                .map(|started| frame - started)
                .unwrap_or(0);
            h.write(b"busy");
            h.write(&offset.to_le_bytes());
            h.write(view.source.as_str().as_bytes());
            h.write(view.target.as_str().as_bytes());
            write!(h, "{:?}", view.phase).expect("hashing cannot fail");
            h.write(&view.phase_progress.to_le_bytes());
            h.write(&view.stall_left.to_le_bytes());
            h.write(&view.retries_used.to_le_bytes());
            h.write(&view.backoff_left.to_le_bytes());
            h.write(&[u8::from(view.announced)]);
        }
        for app in &self.apps {
            h.write(app.id().as_str().as_bytes());
            h.write(&app.state_digest()?.to_le_bytes());
        }
        for slot in &self.slots {
            h.write(slot.id.as_str().as_bytes());
            // The snapshot views the committed map in place.
            for (key, value) in slot.region.snapshot().iter() {
                h.write(key.as_bytes());
                write!(h, "{value:?}").expect("hashing cannot fail");
            }
        }
        Some(h.finish())
    }

    /// Forks the whole system at the current frame boundary.
    ///
    /// The fork is an independent replica: running frames on the fork
    /// and the original thereafter produces exactly the traces two
    /// independently constructed systems would, which is what lets the
    /// bounded model checker share the simulation of common schedule
    /// prefixes instead of replaying every schedule from frame 0.
    ///
    /// Independence does **not** mean deep copies. Every log — the
    /// trace, the bus delivery log (what the audit log and unread
    /// inboxes still hold), the bus membership log, the pool audit log —
    /// is a [`CowLog`](arfs_failstop::CowLog) whose sealed past is
    /// shared behind `Arc`s (which is why forking takes `&mut self`: the
    /// open tails are sealed into shared segments), and stable-storage
    /// regions share their committed store copy-on-write. The cost of a
    /// fork is therefore O(components + prior forks), independent of
    /// how much history has accumulated. Bounded live state (clock,
    /// queues, pending inputs, chaos ledger, the environment's current
    /// state) is cloned; the boxed applications and monitors are
    /// duplicated through the explicit [`ForkSnapshot`] protocol.
    pub fn fork(&mut self) -> System {
        System {
            spec: Arc::clone(&self.spec),
            clock: self.clock.fork(),
            apps: self.apps.fork_snapshot(),
            slots: self
                .slots
                .iter()
                .map(|slot| AppSlot {
                    region: slot.region.fork(),
                    ..slot.clone()
                })
                .collect(),
            order: Arc::clone(&self.order),
            pool: self.pool.fork(),
            bus: self.bus.fork(),
            environment: self.environment.clone(),
            scram: self.scram.clone(),
            monitors: self.monitors.fork_snapshot(),
            trace: self.trace.fork(),
            pending_env: self.pending_env.clone(),
            pending_failures: self.pending_failures.clone(),
            obs: self.obs.clone(),
            pool_events_cursor: self.pool_events_cursor,
            membership_cursor: self.membership_cursor,
            reconfig_started_at: self.reconfig_started_at,
            chaos: self.chaos.clone(),
            trace_recording: self.trace_recording,
            last_state: self.last_state.clone(),
            apps_auto_null: self.apps_auto_null,
            board: Blackboard::new(),
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

    /// Enables or disables trace recording, and the bus audit log with
    /// it.
    ///
    /// With recording off, executed frames do not append [`SysState`]s to
    /// the trace; the most recent full frame's state is kept in
    /// [`last_state`](System::last_state) instead. The bus audit log is
    /// off too ([`TtBus::log`] is empty), so the bus releases each
    /// round's deliveries once every node has read them. Fleet-scale
    /// callers turn this off so memory stays flat over millions of
    /// frames and run their property checks on a streaming window.
    ///
    /// Must be configured before the first frame runs and left alone
    /// thereafter: the trace requires contiguous frames from 0, so
    /// re-enabling recording mid-run would corrupt it.
    pub fn set_trace_recording(&mut self, enabled: bool) {
        self.trace_recording = enabled;
        if enabled {
            self.bus.enable_log();
        } else {
            self.bus.disable_log();
        }
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
        self.last_state
            .as_ref()
            .filter(|state| state.frame + 1 == self.clock.frame())
    }

    /// Advances one frame, taking the allocation-free steady-state fast
    /// path when it is provably equivalent to
    /// [`run_frame`](System::run_frame). Returns `true` when the fast
    /// path ran.
    ///
    /// The fast path is sound only when nothing the full frame does
    /// could change observable state: observability and trace recording
    /// are off, all applications are auto-filled [`NullApp`]s (so the
    /// blackboard is never read), no monitors, no pending inputs, every
    /// processor is alive, no chaos fault strikes this frame and no bus
    /// silence is running ([`ChaosState::quiet_at`]), the SCRAM is
    /// steady with no injected mutation, and the choice function
    /// endorses the current configuration (so the kernel step is the
    /// steady no-op). In that situation the frame reduces to: each app
    /// runs its normal stage and commits its region — which is what this
    /// path executes, over the per-app slots, with zero heap allocations.
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
        !self.obs.enabled
            && !self.trace_recording
            && self.apps_auto_null
            && self.monitors.is_empty()
            && self.pending_env.is_empty()
            && self.pending_failures.is_empty()
            && !self.scram.has_mutation()
            && self.chaos.quiet_at(frame)
            && self.chaos.plan.events_at(frame).next().is_none()
            && self.pool.all_alive()
            && self
                .scram
                .settled_dwell(frame, self.environment.current())
                .is_some()
    }

    /// The steady-state frame body: every app runs its normal stage
    /// against its slot and commits. Allocates only on an anomaly (a
    /// stage error's message).
    fn run_steady_frame(&mut self) {
        let frame = self.clock.frame();
        // Coalesced into the ring's current run in place: zero
        // allocations (proven ring-enabled by tests/alloc_free_frame.rs).
        self.obs.emit(frame, &Event::FastFrame);
        for &at in self.order.iter() {
            let slot = &self.slots[at];
            let app = &mut self.apps[slot.app];
            let (result, consumed) = slot.region.write(|stable| {
                let mut ctx = AppContext {
                    frame,
                    stable,
                    inputs: &self.board,
                    env: self.environment.current(),
                    consumed: Ticks::ZERO,
                };
                let result = app.run_normal(&mut ctx);
                let consumed = ctx.consumed;
                // Frame-end stable-storage commit (§6.1). Auto-filled
                // apps never read the blackboard, so committing right
                // after the stage cannot leak into another app's inputs;
                // slot-retaining staging makes it alloc-free.
                stable.commit();
                (result, consumed)
            });
            report_stage(
                &mut self.obs,
                frame,
                &slot.id,
                "normal",
                &result,
                consumed,
                slot.budget,
            );
        }
        self.clock.advance_frame();
    }

    /// Executes one synchronous real-time frame and returns the SCRAM's
    /// decision for it.
    pub fn run_frame(&mut self) -> &FrameDecision {
        let frame = self.clock.frame();
        self.obs.emit(
            frame,
            &Event::FrameStart {
                config: self.scram.current_config(),
            },
        );

        // --- Virtual monitoring applications sample their components
        // (§6.3); their updates join the frame's environment changes. ---
        for monitor in &mut self.monitors {
            for (factor, value) in monitor.sample(frame) {
                self.pending_env.push((factor, value));
            }
        }

        // --- Pending hardware failures take effect. ---
        for processor in self.pending_failures.drain(..) {
            if self.pool.is_alive(processor) {
                let _ = self.pool.fail(processor);
                self.obs.emit(frame, &Event::FaultInjected { processor });
            }
        }

        // --- Scheduled substrate faults strike (the chaos plan). ---
        let mut faulted_apps: BTreeSet<AppId> = BTreeSet::new();
        for fault in self.chaos.plan.events_at(frame) {
            let event = match &fault.kind {
                FaultKind::CommitFault { app } => {
                    faulted_apps.insert(app.clone());
                    Event::TornWrite {
                        app,
                        scheduled: true,
                    }
                }
                FaultKind::BusSilence { processor, frames } => {
                    let until = frame + frames;
                    let entry = self.chaos.silenced_until.entry(*processor).or_insert(until);
                    *entry = (*entry).max(until);
                    Event::BusSilenced {
                        processor: *processor,
                        frames: *frames,
                    }
                }
                FaultKind::ClockJitter { app, ticks } => {
                    if let Some(at) = slot_index(&self.slots, app) {
                        self.slots[at].jitter += Ticks::new(*ticks);
                    }
                    Event::ClockJitter { app, ticks: *ticks }
                }
            };
            self.obs.emit(frame, &event);
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
                if let Some(&first) = self.order.first() {
                    let app = &self.slots[first].id;
                    faulted_apps.insert(app.clone());
                    self.obs.emit(frame, &Event::TornWrite { app, scheduled: false });
                }
            }
        });
        // --- Membership: alive processors announce themselves; silent
        // processors flip their status factors. A chaos-silenced
        // processor skips its slot without halting; past the detection
        // window the defense converts it into an explicit fail-stop
        // quarantine (the membership-by-silence contract restored by
        // force). ---
        let mut quarantined = Vec::new();
        for p in self.pool.alive() {
            if self.chaos.is_silenced(p, frame) {
                let streak = self.chaos.silent_streak.entry(p).or_insert(0);
                *streak += 1;
                let silent_frames = *streak;
                if silent_frames >= self.chaos.defense.quarantine_window_frames {
                    quarantined.push(p);
                    self.obs.emit(
                        frame,
                        &Event::Quarantined {
                            processor: p,
                            silent_frames,
                        },
                    );
                    self.chaos.silent_streak.remove(&p);
                    self.chaos.silenced_until.remove(&p);
                }
                continue;
            }
            self.chaos.silent_streak.remove(&p);
            self.bus.mark_present(NodeId::new(PROC_NODE_BASE + p.raw()));
        }
        for p in quarantined {
            let _ = self.pool.fail(p);
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
        for (factor, value) in self.pending_env.drain(..) {
            if self.environment.set(&factor, &value) == Ok(true) {
                let (factor, value) = (factor.as_str(), value.as_str());
                self.obs.emit(frame, &Event::EnvChanged { factor, value });
                // Fault signal: environment monitor -> SCRAM over the bus.
                // Failpoint: counted for coverage (the SCRAM reads the
                // environment directly, so a lost modeled signal is
                // property-benign); Panic models a monitor crash.
                arfs_assure::fp!("system.env.submit");
                let payload = format!("{factor}={value}");
                let _ = self
                    .bus
                    .submit(ENV_NODE, Message::new("fault", payload.into_bytes()));
                self.obs.emit(frame, &Event::FaultSignal { factor, value });
            }
        }
        self.bus.mark_present(ENV_NODE);
        let env = self.environment.current().clone();

        // --- SCRAM decision. ---
        let decision_started = self.obs.enabled.then(std::time::Instant::now);
        let decision = self.scram.step_chaos(frame, &env, &faulted_apps);
        if let Some(started) = decision_started {
            self.obs.metrics.observe(
                "scram.decision_ns",
                started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            );
        }
        for event in &decision.events {
            // The reconfiguration clock: trigger frame to completion
            // frame, for the latency and the busy-state fingerprint.
            let cycles = match event {
                ScramEvent::TriggerAccepted { .. } => {
                    self.reconfig_started_at = Some(frame);
                    None
                }
                ScramEvent::Completed { .. } => self
                    .reconfig_started_at
                    .take()
                    .map(|start| frame - start + 1),
                _ => None,
            };
            self.obs.emit(frame, &Event::Scram { event, cycles });
        }

        // --- Reconfiguration signals: SCRAM -> each application, via the
        // configuration_status variable in stable storage and the bus.
        // An unchanged variable is not re-staged; the commit still bumps
        // the version. ---
        for slot in &self.slots {
            let command = &decision.commands[&slot.id];
            let target = command.target.as_ref().map(SpecId::as_str);
            slot.region.write(|s| {
                if s.get_str(CONFIG_STATUS_KEY) != Some(command.status.as_str()) {
                    s.stage_str(CONFIG_STATUS_KEY, command.status.as_str());
                }
                match target {
                    Some(t) if s.get_str(TARGET_SPEC_KEY) != Some(t) => {
                        s.stage_str(TARGET_SPEC_KEY, t);
                    }
                    None if s.contains(TARGET_SPEC_KEY) => s.stage_remove(TARGET_SPEC_KEY),
                    _ => {}
                }
                s.commit();
            });
            if command.status != ConfigStatus::Normal {
                let (app, status) = (&slot.id, command.status);
                self.obs.emit(
                    frame,
                    &Event::StableCommit {
                        app,
                        status,
                        target: command.target.as_ref(),
                    },
                );
                let payload = format!("{app}:{status}");
                let _ = self
                    .bus
                    .submit(SCRAM_NODE, Message::new("reconfig", payload.into_bytes()));
                self.obs.emit(frame, &Event::ReconfigSignal { app, status });
            }
        }
        self.bus.mark_present(SCRAM_NODE);

        // --- Frame-start blackboard: last frame's committed state,
        // viewed in place. No stage commits before the frame-end pass
        // below, so every app reads last frame's values (§6.2). ---
        for slot in &self.slots {
            self.board.insert(slot.id.clone(), slot.region.snapshot());
        }

        // --- Applications execute one unit of work each, in dependency
        // order (the executive's static window order). On a completion
        // frame the configuration is already the new one. ---
        let config = self
            .spec
            .config(&decision.svclvl)
            .expect("validated config");
        for &at in self.order.iter() {
            let slot = &mut self.slots[at];
            let command = &decision.commands[&slot.id];
            let jitter = std::mem::take(&mut slot.jitter);
            slot.post_ok = None;
            slot.pre_ok = None;
            slot.lost = false;

            // An application on a failed processor cannot run its stage.
            let placed = config.placement_for(&slot.id);
            if let Some(processor) = placed.filter(|p| !self.pool.is_alive(*p)) {
                self.obs.emit(
                    frame,
                    &Event::AppLost {
                        app: &slot.id,
                        processor,
                    },
                );
                slot.lost = true;
                slot.set_spec(&self.spec, self.apps[slot.app].current_spec());
                continue;
            }

            // Normal work is budgeted by the current specification's
            // declared compute; reconfiguration stages must fit within
            // the frame itself -- "each application meets prescribed time
            // bounds for each stage of the reconfiguration activity" (§3).
            let budget = if command.status == ConfigStatus::Normal {
                slot.budget
            } else {
                self.spec.frame_len()
            };
            let app = &mut self.apps[slot.app];
            let (result, consumed, stage) = slot.region.write(|stable| {
                let mut ctx = AppContext {
                    frame,
                    stable,
                    inputs: &self.board,
                    env: &env,
                    consumed: Ticks::ZERO,
                };
                let target = command.target.as_ref();
                let (result, stage) = match command.status {
                    ConfigStatus::Normal => (app.run_normal(&mut ctx), "normal"),
                    ConfigStatus::Halt => (app.halt(&mut ctx), "halt"),
                    ConfigStatus::Prepare => {
                        let target = target.expect("prepare carries target");
                        (app.prepare(&mut ctx, target), "prepare")
                    }
                    ConfigStatus::Initialize => {
                        let target = target.expect("initialize carries target");
                        (app.initialize(&mut ctx, target), "initialize")
                    }
                    ConfigStatus::PrepareInitialize => {
                        // The compressed §6.3 path: both stages back to
                        // back, no intervening SCRAM signal.
                        let target = target.expect("prepare-initialize carries target");
                        let result = app
                            .prepare(&mut ctx, target)
                            .and_then(|()| app.initialize(&mut ctx, target));
                        (result, "prepare-initialize")
                    }
                    ConfigStatus::Hold => (Ok(()), "hold"),
                };
                (result, ctx.consumed, stage)
            });
            // Injected clock jitter inflates the frame's consumed ticks
            // before the deadline check sees them.
            let consumed = consumed + jitter;

            report_stage(
                &mut self.obs,
                frame,
                &slot.id,
                stage,
                &result,
                consumed,
                budget,
            );

            // Predicate evidence for the trace (Table 1's Predicate
            // column).
            let app = &self.apps[slot.app];
            if command.status == ConfigStatus::Halt {
                slot.post_ok = Some(app.postcondition_established());
            }
            if let ConfigStatus::Initialize | ConfigStatus::PrepareInitialize = command.status {
                let target = command.target.as_ref().expect("initialize carries target");
                slot.pre_ok = Some(app.precondition_established(target));
            }
            slot.set_spec(&self.spec, app.current_spec());

            // Status signal: application -> SCRAM.
            if command.status != ConfigStatus::Normal && command.status != ConfigStatus::Hold {
                let node = placed
                    .map(|p| NodeId::new(PROC_NODE_BASE + p.raw()))
                    .unwrap_or(SCRAM_NODE);
                let payload = format!("{}:{}:done", slot.id, command.status);
                let _ = self
                    .bus
                    .submit(node, Message::new("status", payload.into_bytes()));
                self.obs.emit(
                    frame,
                    &Event::StatusSignal {
                        app: &slot.id,
                        status: command.status,
                    },
                );
            }
        }

        // --- Frame-end stable-storage commit (§6.1), in window order,
        // once the board has let go of the committed maps (so each
        // commit updates its map in place). A torn commit discards every
        // staged write and the stage leaves no durable effect; a lost
        // application staged nothing and commits nothing. ---
        self.board.clear();
        for &at in self.order.iter() {
            let slot = &self.slots[at];
            if !slot.lost {
                let torn = faulted_apps.contains(&slot.id);
                slot.region.write(|s| {
                    if torn {
                        s.discard();
                    } else {
                        s.commit();
                    }
                });
            }
        }

        // At a completion frame, record precondition evidence for every
        // application against its new assignment — SP4's check point.
        let completed_now = decision
            .events
            .iter()
            .any(|e| matches!(e, ScramEvent::Completed { .. }));
        if completed_now {
            for slot in &mut self.slots {
                let assigned = config.spec_for(&slot.id).expect("validated assignment");
                slot.pre_ok = Some(self.apps[slot.app].precondition_established(assigned));
            }
        }

        // --- Record the end-of-frame system state. With trace recording
        // off, the previous record is rewritten in place. ---
        let mut state = self.last_state.take().unwrap_or_else(|| SysState {
            frame,
            svclvl: decision.svclvl.clone(),
            env: env.clone(),
            apps: BTreeMap::new(),
        });
        state.frame = frame;
        state.svclvl.clone_from(&decision.svclvl);
        state.env = env;
        for slot in &self.slots {
            let record = AppFrameRecord {
                reconf_st: decision.reconf_st[&slot.id],
                spec: slot.spec.clone(),
                commanded: decision.commands[&slot.id].status,
                post_ok: slot.post_ok,
                pre_ok: slot.pre_ok,
                lost: slot.lost,
            };
            // An existing entry keeps its key: no allocation.
            state.apps.insert(slot.id.clone(), record);
        }
        if self.trace_recording {
            self.trace.push(state);
        } else {
            self.last_state = Some(state);
        }

        // --- One bus round per frame. ---
        let round = self.bus.run_round();
        // The nodes act on their signals within the frame (the SCRAM
        // and the applications read the environment and stable storage
        // directly), so every inbox is read once the round is done.
        // Unless the audit log holds them, the deliveries are released.
        self.bus.mark_all_read();

        if self.obs.enabled {
            // Tail the substrate audit logs into the journal. The
            // cursor-based iterators skip already-seen history without
            // rescanning (or copying) the shared COW segments.
            for change in self.bus.membership_changes_from(self.membership_cursor) {
                self.obs.emit(frame, &Event::MembershipChanged(change));
            }
            self.membership_cursor = self.bus.membership_len();
            for event in self.pool.events_since(self.pool_events_cursor) {
                self.obs.emit(frame, &Event::PoolAudit(&event));
            }
            self.pool_events_cursor = self.pool.events_len();

            let restricted = decision
                .commands
                .values()
                .any(|c| c.status != ConfigStatus::Normal);
            self.obs.emit(
                frame,
                &Event::FrameEnd {
                    config: &decision.svclvl,
                    restricted,
                },
            );
            let metrics = &mut self.obs.metrics;
            metrics.add("bus.deliveries", round.delivered as u64);
            let frames = self.trace.len() as f64;
            if frames > 0.0 {
                metrics.set_gauge(
                    "frames.restricted_ratio",
                    self.trace.restricted_frames() as f64 / frames,
                );
            }
        }

        self.clock.advance_frame();
        decision
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::properties;
    use crate::scram::ScramMutation;
    use crate::spec::{AppDecl, Configuration, FunctionalSpec};
    use crate::trace::ReconfSt;
    use crate::SpecId;

    /// Whether the journal holds a `kind` event whose payload field
    /// `key` is the string `value`.
    fn journaled(system: &System, kind: &str, key: &str, value: &str) -> bool {
        system
            .journal()
            .of_kind(kind)
            .any(|e| e.payload.get(key).and_then(|v| v.as_str()) == Some(value))
    }

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
        // And the journal mirrors the Figure 1 edges.
        assert!(journaled(&system, "fault-signal", "from", "environment"));
        assert!(journaled(&system, "fault-signal", "to", "scram"));
        assert!(journaled(&system, "reconfig-signal", "from", "scram"));
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
            .flight_recorder(64)
            .build()
            .unwrap();
        system.run_frames(2);
        system.set_env("power", "low").unwrap();
        system.run_frames(6);
        assert!(system.journal().is_empty());
        assert_eq!(system.metrics().counter("frames"), 0);
        // The trace and the flight ring are unaffected.
        assert_eq!(system.trace().len(), 8);
        let ring = system.flight_ring().unwrap();
        assert!(ring
            .iter()
            .any(|e| e.code == crate::obs::RingCode::TriggerAccepted));
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
        assert!(system
            .journal()
            .of_kind("fault-injected")
            .any(|e| e.payload.get("processor") == Some(&serde_json::Value::U64(1))));
        assert!(journaled(&system, "app-lost", "app", "autopilot"));
    }

    /// Two applications on P0 and P1; failing P1 drives the derived
    /// `processor-1` factor down and the system into the safe `solo`.
    pub(crate) fn processor_status_spec() -> ReconfigSpec {
        ReconfigSpec::builder()
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
            .unwrap()
    }

    #[test]
    fn processor_status_env_factor_auto_updates() {
        let mut system = System::builder(processor_status_spec()).build().unwrap();
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
        let report = properties::check_extended(system.trace(), system.spec());
        let conformance = report.of(properties::PropertyId::ProtocolConformance);
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
        // The monitor's change produced a fault signal.
        assert_eq!(system.journal().of_kind("fault-signal").count(), 1);
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
        assert_eq!(system.journal().of_kind("deadline-miss").count(), 0);
        system.set_env("power", "low").unwrap();
        system.run_frames(6);
        // The halt stage blew the frame budget.
        assert!(system.journal().of_kind("deadline-miss").any(|e| {
            e.payload.get("app").and_then(|v| v.as_str()) == Some("fcs")
                && e.payload.get("consumed") == Some(&serde_json::Value::U64(5000))
        }));
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
        assert_eq!(system.journal().of_kind("processor-failed").count(), 1);
        // The quarantined host's application is lost thereafter.
        assert!(journaled(&system, "app-lost", "app", "autopilot"));
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
        let miss = system.journal().of_kind("deadline-miss").next().unwrap();
        assert_eq!(miss.frame, 1);
        assert_eq!(
            miss.payload.get("app").and_then(|v| v.as_str()),
            Some("fcs")
        );
    }

    #[test]
    fn compute_overrun_reported_as_deadline_miss() {
        let mut system = System::builder(spec())
            .app(Box::new(OverrunApp(NullApp::new("fcs", "full"))))
            .app(Box::new(NullApp::new("autopilot", "full")))
            .build()
            .unwrap();
        system.run_frames(1);
        assert!(journaled(&system, "deadline-miss", "app", "fcs"));
    }
}
