//! Fleet-scale simulation: advance 10⁵+ independent [`System`]s on a
//! work-stealing pool, each shard run to completion.
//!
//! The paper verifies *one* three-processor fail-stop system. This
//! module is the population-scale counterpart: a [`Fleet`] constructs N
//! independent systems from a seeded scenario distribution (one
//! [`workload::random_scenario`] per system, seeds derived from a master
//! seed by a splitmix-style mix), partitions them into cache-friendly
//! contiguous [shards](FleetConfig::shards), and runs each shard to
//! completion: a cell advances through the whole horizon before the
//! next cell of its shard starts. Cells never interact, so no frame
//! needs a fleet-wide cut.
//!
//! # Execution model
//!
//! Every shard is pushed once into a [`crossbeam::deque::Injector`]
//! (the same work-stealing pattern as `ModelChecker`'s parallel walk);
//! a worker that steals a shard owns it until it finishes — no
//! barriers, no shard locks. The serial path drains the same queue on
//! the caller's thread. Within a shard, each cell applies its scenario
//! stimuli and calls [`System::advance_frame`] — the allocation-free
//! steady-state fast path when eligible, the full frame otherwise.
//!
//! # Streaming verification
//!
//! Traces are **not** recorded (memory would grow with
//! `systems × horizon`). Instead a per-system [`StreamVerifier`] watches
//! each frame: steady fast frames only bump counters; around every
//! reconfiguration it buffers the restricted window (forcing full
//! frames while the window is open), then replays the window through the
//! real [`properties`] checkers on a miniature trace and maps frame
//! numbers back. Violations carry the offending system's seed and
//! stimulus schedule, so any report line replays through the existing
//! flight-recorder tooling.
//!
//! # Sharded metrics
//!
//! The fleet's hot-path metrics ([`FleetMetrics`]: frame counters,
//! reconfiguration-latency and restricted-ratio histograms,
//! defense/violation counters) live **per shard**. Exactly one worker
//! owns a shard for its whole run, so per-frame bumps are plain
//! unsynchronized increments — no shared registry, no lock traffic.
//! Aggregation merges shard locals in shard order (and counters and
//! log₂ histograms merge commutatively), so the merged snapshot is
//! byte-identical across thread counts.
//!
//! # Flight recorders and triage bundles
//!
//! Every cell carries a fixed-capacity [`FlightRing`]
//! (see [`FleetConfig::ring_capacity`]) that records compact 16-byte
//! events on both the fast and the full path — allocation-free, so even
//! the unsampled majority retains a recent-history window. When a
//! [`StreamVerifier`] violation or a chaos defense fires, aggregation
//! drains that ring plus the seed, stimulus schedule, and metrics
//! snapshot into a [`TriageBundle`] on the report; `arfs-trace fleet
//! triage` renders it.
//!
//! # Journal sampling, binary encoding, and the background writer
//!
//! Journaling every system at fleet scale is ruinous; journaling none
//! blinds you. The [`journal_sample`](FleetConfig::journal_sample) knob
//! journals 1-in-K systems with full fidelity (those cells keep
//! observability on and never take the fast path). Serialization runs
//! **off** the frame loop: each sampled cell clones its frame's events
//! into a batch and ships it over a bounded channel to a
//! [`BackgroundJournalWriter`] thread, which encodes with the compact
//! binary codec ([`obs::codec`](crate::obs::codec)). Backpressure
//! blocks the producer (lossless, bounded memory — see
//! [`obs::writer`](crate::obs::writer)) while the writer drains, so
//! shards need no bounded skew. `arfs-trace fleet decode` converts the
//! binary journal back to JSON-Lines interchange form.
//!
//! # Determinism
//!
//! A fleet run is a pure function of its config: systems are seeded
//! deterministically, cells never share mutable state, and aggregation
//! iterates cells in global system-id order. Journal batches interleave
//! arbitrarily on the writer channel, but the writer demultiplexes per
//! system and assembly concatenates sections in ascending system id.
//! The aggregate [`FleetReport`] and journal are therefore
//! byte-identical across thread counts *and* shard counts; wall-clock
//! timing lives outside the report (see [`FleetTimings`] and
//! [`FleetReport::rollup_metrics`]).

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use crate::assure::{InvariantOracle, OracleProfile};
use crate::chaos::{ChaosProfile, FaultPlan};
use crate::obs::codec;
use crate::obs::triage::trigger;
use crate::obs::writer::DEFAULT_CHANNEL_CAPACITY;
use crate::obs::{
    BackgroundJournalWriter, FleetMetrics, FleetMetricsSnapshot, FlightRing, JournalBatch,
    JournalBytes, JournalEvent, MetricsRegistry, RingLegend, SystemJournal, TriageBundle,
};
use crate::properties::{self, PropertyViolation};
use crate::scenario::{ScenarioAction, ScenarioEvent};
use crate::scram::ScramMutation;
use crate::spec::ReconfigSpec;
use crate::system::System;
use crate::trace::{SysState, SysTrace};
use crate::workload::{self, WorkloadConfig};
use crate::SystemError;

/// Cap on triage bundles per report: the first few failing systems are
/// diagnostic gold, the rest are bulk (their identities still appear in
/// [`FleetReport::violations`]).
const MAX_TRIAGE_BUNDLES: usize = 8;

/// Mixes a master seed and a system index into an independent
/// per-system seed (splitmix64 finalizer).
fn mix_seed(master: u64, index: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of independent systems.
    pub systems: usize,
    /// Number of shards; `0` picks one shard per 256 systems (at least
    /// one per worker thread) so work steals at useful granularity.
    pub shards: usize,
    /// Worker threads; `<= 1` runs serially on the caller's thread.
    pub threads: usize,
    /// Master seed; every per-system seed derives from it.
    pub seed: u64,
    /// Frames to advance every system through.
    pub horizon: u64,
    /// Journal 1-in-K systems (`0` disables journaling entirely).
    pub journal_sample: usize,
    /// Ship each journaling cell's batched events to the background
    /// writer every K frames.
    pub journal_flush_frames: u64,
    /// Per-cell flight-recorder capacity in events (`0` disables the
    /// rings — and with them, triage bundles).
    pub ring_capacity: usize,
    /// Seeds one system with a SCRAM protocol defect (verification of
    /// the triage pipeline: the mutated system's violation must surface
    /// as a renderable [`TriageBundle`]).
    pub mutate_system: Option<(usize, ScramMutation)>,
    /// Scenario distribution; `None` runs a quiet fleet (no stimuli).
    pub workload: Option<WorkloadConfig>,
    /// Per-system substrate fault plans drawn from this profile.
    pub chaos: Option<ChaosProfile>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            systems: 1_000,
            shards: 0,
            threads: 1,
            seed: 0xA2F5,
            horizon: 120,
            journal_sample: 0,
            journal_flush_frames: 16,
            ring_capacity: 256,
            mutate_system: None,
            workload: Some(WorkloadConfig::default()),
            chaos: None,
        }
    }
}

/// One aggregate-level violation, carrying everything needed to replay
/// the offending system through the flight recorder: its seed and its
/// full stimulus schedule.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FleetViolation {
    /// Global index of the offending system.
    pub system: usize,
    /// The system's derived seed (rebuilds its scenario and fault plan).
    pub seed: u64,
    /// The violated property (`"SP1"` ... `"PROTOCOL-CONFORMANCE"`).
    pub property: String,
    /// The frame involved, in the system's own frame numbering.
    pub frame: Option<u64>,
    /// The reconfiguration interval involved, `(start_c, end_c)`.
    pub reconfig: Option<(u64, u64)>,
    /// Human-readable description from the underlying checker.
    pub detail: String,
    /// The system's stimulus schedule, one `"f<frame> <action>"` line
    /// per event.
    pub schedule: Vec<String>,
}

/// Where a fleet run's wall clock went. Kept outside [`FleetReport`] so
/// the report stays deterministic; [`FleetReport::rollup_metrics`]
/// consumes it for honest throughput attribution — frames/sec is
/// computed from the frame loop alone, with journal-writer drain and
/// aggregation time reported separately instead of silently inflating
/// the denominator.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetTimings {
    /// Frame loop only (what throughput gauges divide by).
    pub frame_loop_secs: f64,
    /// Draining and joining the background journal writer.
    pub journal_finish_secs: f64,
    /// Deterministic aggregation (verifier finish, metrics merge,
    /// bundle and journal assembly).
    pub aggregate_secs: f64,
}

impl FleetTimings {
    /// End-to-end wall clock.
    pub fn total_secs(&self) -> f64 {
        self.frame_loop_secs + self.journal_finish_secs + self.aggregate_secs
    }
}

/// The deterministic result of a fleet run.
///
/// Everything in here is a pure function of the [`FleetConfig`]:
/// byte-identical across thread and shard counts. Wall-clock throughput
/// is deliberately excluded; see [`FleetReport::rollup_metrics`].
#[derive(Debug, Clone, serde::Serialize)]
pub struct FleetReport {
    /// Number of systems advanced.
    pub systems: usize,
    /// Frames each system was advanced through.
    pub horizon: u64,
    /// Total frames advanced (`systems × horizon`).
    pub total_frames: u64,
    /// Frames that took the allocation-free steady-state fast path.
    pub fast_frames: u64,
    /// Frames that ran the full per-frame machinery.
    pub full_frames: u64,
    /// Completed reconfigurations across the fleet.
    pub reconfigs: u64,
    /// Frames spent with service restricted, across the fleet.
    pub restricted_frames: u64,
    /// All property violations, in system-id order.
    pub violations: Vec<FleetViolation>,
    /// Triage bundles for the first [`MAX_TRIAGE_BUNDLES`] systems whose
    /// streaming verifier fired (or, absent violations, whose chaos
    /// defenses fired), in system-id order.
    pub bundles: Vec<TriageBundle>,
    /// Merged shard-local fleet metrics (frame counters, latency and
    /// restricted-ratio histograms, defense/violation counters).
    pub metrics: FleetMetricsSnapshot,
    /// Aggregate binary journal of the sampled systems: file magic, then
    /// per system (in id order) one header record and its events in
    /// recording order. Empty when sampling is off.
    pub journal: JournalBytes,
    /// Event and header records in the aggregate journal.
    pub journal_events: u64,
}

impl FleetReport {
    /// Returns `true` if streaming verification found no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Folds wall-clock measurements into a [`MetricsRegistry`] holding
    /// both the deterministic fleet counters and throughput gauges.
    ///
    /// Timing lives here, outside the report, so that the report itself
    /// stays byte-identical across runs — the determinism tests compare
    /// serialized reports directly. Throughput gauges divide by the
    /// **frame loop** time only; writer-drain and aggregation seconds
    /// get their own gauges so that journal cost is attributed, never
    /// hidden inside frames/sec.
    pub fn rollup_metrics(&self, timings: &FleetTimings, cores: usize) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        registry.add("fleet.systems", self.systems as u64);
        registry.add("fleet.frames_total", self.total_frames);
        registry.add("fleet.frames_fast", self.fast_frames);
        registry.add("fleet.frames_full", self.full_frames);
        registry.add("fleet.reconfigs", self.reconfigs);
        registry.add("fleet.violations", self.violations.len() as u64);
        registry.set_gauge("fleet.frame_loop_secs", timings.frame_loop_secs);
        registry.set_gauge("fleet.journal_finish_secs", timings.journal_finish_secs);
        registry.set_gauge("fleet.aggregate_secs", timings.aggregate_secs);
        registry.set_gauge("fleet.wall_secs", timings.total_secs());
        if timings.frame_loop_secs > 0.0 {
            let fps = self.total_frames as f64 / timings.frame_loop_secs;
            registry.set_gauge("fleet.frames_per_sec", fps);
            registry.set_gauge("fleet.frames_per_sec_per_core", fps / cores.max(1) as f64);
        }
        if timings.total_secs() > 0.0 {
            registry.set_gauge(
                "fleet.violations_per_sec",
                self.violations.len() as f64 / timings.total_secs(),
            );
        }
        registry
    }
}

/// Streams one system's frames past the SP1–SP4 (and extension)
/// checkers without retaining its trace.
///
/// Steady fast frames cannot change the verified state (the fast path's
/// eligibility proof covers exactly the checkers' premises), so they
/// only bump counters. Around a reconfiguration the verifier asks the
/// fleet to force full frames ([`needs_full_state`]
/// (StreamVerifier::needs_full_state)), buffers the restricted window
/// plus one all-normal state on each side, replays that miniature trace
/// through the unified [`InvariantOracle`] (profile
/// [`OracleProfile::StreamWindow`]: SP1–SP4 plus protocol
/// conformance), and maps reported frames back to the system's own
/// numbering. Responsiveness is checked incrementally (the same
/// run-length rule as [`properties::check_responsiveness`]); a window
/// still open at the horizon goes through
/// [`InvariantOracle::check_open`].
#[derive(Debug)]
pub struct StreamVerifier {
    spec: Arc<ReconfigSpec>,
    /// The unified oracle the closed windows replay through
    /// ([`OracleProfile::StreamWindow`]).
    oracle: InvariantOracle,
    /// Last all-normal full state seen (stays valid across fast frames:
    /// they can change neither configuration nor environment).
    prev_normal: Option<SysState>,
    /// Restricted states of the currently open window, in real frames.
    window: Vec<SysState>,
    /// Completed-reconfiguration latencies, in cycles.
    latencies: Vec<u64>,
    reconfigs: u64,
    restricted_frames: u64,
    mismatch_run: u64,
    mismatch_reported: bool,
    violations: Vec<PropertyViolation>,
}

impl StreamVerifier {
    /// Creates a verifier for one system running under `spec`.
    pub fn new(spec: Arc<ReconfigSpec>) -> Self {
        StreamVerifier {
            oracle: InvariantOracle::new(Arc::clone(&spec), OracleProfile::StreamWindow),
            spec,
            prev_normal: None,
            window: Vec::new(),
            latencies: Vec::new(),
            reconfigs: 0,
            restricted_frames: 0,
            mismatch_run: 0,
            mismatch_reported: false,
            violations: Vec::new(),
        }
    }

    /// `true` while a restricted window is open: the next frame must be
    /// a full frame so its state can be observed.
    pub fn needs_full_state(&self) -> bool {
        !self.window.is_empty()
    }

    /// Observes a steady fast frame (no state recorded; eligibility
    /// proved the frame changed nothing the checkers look at).
    pub fn observe_fast(&mut self) {
        debug_assert!(self.window.is_empty(), "fast frame inside open window");
        // The fast path requires the choice function to endorse the
        // current configuration, so any responsiveness mismatch run ends.
        self.mismatch_run = 0;
        self.mismatch_reported = false;
    }

    /// Observes a full frame's recorded state.
    pub fn observe_full(&mut self, state: &SysState) {
        // Incremental responsiveness — the same rule as
        // `check_responsiveness`, evaluated online.
        let steady = state.all_normal();
        let wants_move = steady
            && self
                .spec
                .choose(&state.svclvl, &state.env)
                .is_some_and(|t| *t != state.svclvl);
        if wants_move {
            self.mismatch_run += 1;
            if self.mismatch_run > self.spec.min_dwell_frames() + 1 && !self.mismatch_reported {
                self.violations.push(PropertyViolation {
                    property: properties::PropertyId::Responsiveness,
                    reconfig: None,
                    frame: Some(state.frame),
                    detail: format!(
                        "choice function has selected `{}` over `{}` for {} frames with no reconfiguration started",
                        self.spec.choose(&state.svclvl, &state.env).expect("checked above"),
                        state.svclvl,
                        self.mismatch_run,
                    ),
                });
                self.mismatch_reported = true;
            }
        } else {
            self.mismatch_run = 0;
            self.mismatch_reported = false;
        }

        if state.any_reconfiguring() {
            self.restricted_frames += 1;
            self.window.push(state.clone());
        } else if self.window.is_empty() {
            self.prev_normal = Some(state.clone());
        } else {
            // Window closes on this all-normal state: replay it through
            // the real checkers as a miniature trace.
            self.close_window(state);
            self.prev_normal = Some(state.clone());
        }
    }

    /// Drains `[prev_normal?, window..., end?]` into a miniature trace
    /// numbered from zero, plus the real frame of each of its states.
    fn take_window(&mut self, end: Option<&SysState>) -> (SysTrace, Vec<u64>) {
        let mut states: Vec<SysState> = Vec::with_capacity(self.window.len() + 2);
        states.extend(self.prev_normal.clone());
        states.append(&mut self.window);
        states.extend(end.cloned());

        let real_frames = states.iter().map(|s| s.frame).collect();
        let mut mini = SysTrace::new();
        for (i, mut state) in states.into_iter().enumerate() {
            state.frame = i as u64;
            mini.push(state);
        }
        (mini, real_frames)
    }

    /// Replays `[prev_normal?, window..., end]` through the checkers.
    fn close_window(&mut self, end: &SysState) {
        let (mini, real_frames) = self.take_window(Some(end));
        let reconfigs = mini.get_reconfigs();
        self.reconfigs += reconfigs.len() as u64;
        for r in &reconfigs {
            self.latencies.push(r.cycles());
        }

        for v in self.oracle.check(&mini) {
            self.violations.push(Self::map_frames(v, &real_frames));
        }
    }

    /// Maps a violation's mini-trace frame numbers back to real frames.
    fn map_frames(mut v: PropertyViolation, real_frames: &[u64]) -> PropertyViolation {
        let real = |mini: u64| real_frames.get(mini as usize).copied().unwrap_or(mini);
        v.frame = v.frame.map(real);
        v.reconfig = v.reconfig.map(|r| crate::trace::Reconfiguration {
            start_c: real(r.start_c),
            end_c: real(r.end_c),
        });
        v
    }

    /// Finishes verification at the end of the horizon; a window still
    /// open is judged by the open-reconfiguration rule.
    pub fn finish(&mut self) {
        if self.window.is_empty() {
            return;
        }
        let (mini, real_frames) = self.take_window(None);
        for v in self.oracle.check_open(&mini) {
            self.violations.push(Self::map_frames(v, &real_frames));
        }
    }
}

/// One system plus its per-cell runtime state.
struct Cell {
    id: usize,
    seed: u64,
    system: System,
    verifier: StreamVerifier,
    /// Stimulus schedule, sorted by frame.
    events: Vec<ScenarioEvent>,
    next_event: usize,
    fast_frames: u64,
    full_frames: u64,
    /// Drain cursors: how much of the verifier/system state has already
    /// been folded into the shard-local metrics.
    reconfigs_seen: u64,
    latency_cursor: usize,
    defense_seen: u64,
    /// Journal batching state, present only on sampled cells.
    journal: Option<CellJournal>,
}

/// A sampled cell's link to the background journal writer: events are
/// cloned into `batch` on the frame loop (cheap — a frame produces a
/// handful) and shipped every `flush_every` frames; serialization
/// happens on the writer thread.
struct CellJournal {
    tx: std::sync::mpsc::SyncSender<JournalBatch>,
    batch: Vec<JournalEvent>,
    cursor: usize,
    frames_since_send: u64,
    flush_every: u64,
    /// Set when a send found the writer gone (its thread panicked or
    /// hit a sink error and dropped the receiver). Journaling stops for
    /// this cell; the root cause surfaces as the [`Fleet::run`] error
    /// when [`Fleet::finish_journal`] joins the writer.
    disconnected: bool,
}

impl CellJournal {
    fn ship(&mut self, system: u64, seed: u64) {
        if self.batch.is_empty() || self.disconnected {
            self.batch.clear();
            return;
        }
        // Failpoint: Skip drops the batch on the floor — lost journal
        // data is an observability loss, never a safety violation.
        arfs_assure::fp!("fleet.journal.send", action => {
            if matches!(action, arfs_assure::FpAction::Skip) {
                self.batch.clear();
                return;
            }
        });
        let sent = self.tx.send(JournalBatch {
            system,
            seed,
            events: std::mem::take(&mut self.batch),
        });
        // A disconnect means the writer thread is dead. Don't panic the
        // frame loop (that would tear down every worker mid-frame):
        // finish the horizon without journaling and let the join report
        // why the writer died.
        self.disconnected = sent.is_err();
    }
}

impl Cell {
    fn advance(&mut self, frame: u64, metrics: &mut FleetMetrics) {
        while let Some(event) = self.events.get(self.next_event) {
            if event.frame != frame {
                break;
            }
            match &event.action {
                ScenarioAction::SetEnv { factor, value } => {
                    // The scenario generator only emits declared factors.
                    let _ = self.system.set_env(factor, value);
                }
                ScenarioAction::FailProcessor(p) => self.system.fail_processor(*p),
            }
            self.next_event += 1;
        }

        if self.verifier.needs_full_state() {
            // The verifier must observe every frame of an open
            // restricted window; force the full path.
            self.system.run_frame();
            self.full_frames += 1;
            metrics.frames_full += 1;
            let state = self.system.last_state().expect("full frame records state");
            self.verifier.observe_full(state);
        } else if self.system.advance_frame() {
            self.fast_frames += 1;
            metrics.frames_fast += 1;
            self.verifier.observe_fast();
        } else {
            self.full_frames += 1;
            metrics.frames_full += 1;
            let state = self.system.last_state().expect("full frame records state");
            self.verifier.observe_full(state);
        }

        // Fold this frame's deltas into the shard-local metrics — plain
        // increments; the worker owns the shard for its whole run.
        self.drain_verifier(metrics);
        let defenses = self.system.defense_events();
        metrics.defense_events += defenses - self.defense_seen;
        self.defense_seen = defenses;

        if let Some(journal) = &mut self.journal {
            let events = self.system.journal().events();
            journal.batch.extend_from_slice(&events[journal.cursor..]);
            journal.cursor = events.len();
            journal.frames_since_send += 1;
            if journal.frames_since_send >= journal.flush_every {
                journal.frames_since_send = 0;
                let (id, seed) = (self.id as u64, self.seed);
                journal.ship(id, seed);
            }
        }
    }

    /// Folds the verifier's reconfigurations and latencies since the
    /// last drain into `metrics`.
    fn drain_verifier(&mut self, metrics: &mut FleetMetrics) {
        metrics.reconfigs += self.verifier.reconfigs - self.reconfigs_seen;
        self.reconfigs_seen = self.verifier.reconfigs;
        for &latency in &self.verifier.latencies[self.latency_cursor..] {
            metrics.reconfig_latency_cycles.record(latency);
        }
        self.latency_cursor = self.verifier.latencies.len();
    }

    fn schedule_lines(&self) -> Vec<String> {
        self.events
            .iter()
            .map(|e| match &e.action {
                ScenarioAction::SetEnv { factor, value } => {
                    format!("f{} set-env {factor}={value}", e.frame)
                }
                ScenarioAction::FailProcessor(p) => {
                    format!("f{} fail-processor {}", e.frame, p.raw())
                }
            })
            .collect()
    }
}

/// A contiguous slice of the fleet's cells, the unit of work stealing —
/// and the home of the lock-free metrics locals.
struct Shard {
    cells: Vec<Cell>,
    metrics: FleetMetrics,
}

impl Shard {
    /// Advances each cell through the whole horizon, one cell at a time.
    fn run(&mut self, horizon: u64) {
        // Failpoint: shard start. Counted for coverage; Panic models a
        // worker dying mid-run (surfaces through the scope join).
        arfs_assure::fp!("fleet.shard");
        let Shard { cells, metrics } = self;
        for cell in cells {
            for frame in 0..horizon {
                cell.advance(frame, metrics);
            }
        }
    }
}

/// The fleet runtime. See the [module documentation](self).
pub struct Fleet {
    spec: Arc<ReconfigSpec>,
    config: FleetConfig,
    shards: Vec<Shard>,
    writer: Option<BackgroundJournalWriter>,
}

impl Fleet {
    /// Builds `config.systems` seeded systems, sharded and ready to run.
    ///
    /// # Errors
    ///
    /// Propagates any [`SystemError`] from system construction (a spec
    /// that fails [`System::builder`] validation).
    pub fn new(spec: Arc<ReconfigSpec>, config: FleetConfig) -> Result<Fleet, SystemError> {
        let shard_count = if config.shards > 0 {
            config.shards
        } else {
            (config.systems / 256).max(config.threads).max(1)
        };
        let shard_count = shard_count.min(config.systems.max(1));

        let mut shards: Vec<Shard> = (0..shard_count)
            .map(|_| Shard {
                cells: Vec::new(),
                metrics: FleetMetrics::default(),
            })
            .collect();

        let writer = (config.journal_sample > 0)
            .then(|| BackgroundJournalWriter::spawn(DEFAULT_CHANNEL_CAPACITY));

        for id in 0..config.systems {
            let seed = mix_seed(config.seed, id as u64);
            let sampled = config.journal_sample > 0 && id % config.journal_sample == 0;

            let mut builder = System::builder_arc(Arc::clone(&spec))
                .observability(sampled)
                .flight_recorder(config.ring_capacity);
            if let Some(profile) = &config.chaos {
                builder = builder.fault_plan(FaultPlan::random(mix_seed(seed, 1), profile));
            }
            if let Some((target, mutation)) = &config.mutate_system {
                if *target == id {
                    builder = builder.mutation(mutation.clone());
                }
            }
            let mut system = builder.build()?;
            system.set_trace_recording(false);

            let events = match &config.workload {
                Some(wl) => {
                    let mut events = workload::random_scenario(&spec, wl, seed).events().to_vec();
                    events.sort_by_key(|e| e.frame);
                    events
                }
                None => Vec::new(),
            };

            let journal = match (&writer, sampled) {
                (Some(writer), true) => Some(CellJournal {
                    tx: writer.sender(),
                    batch: Vec::new(),
                    cursor: 0,
                    frames_since_send: 0,
                    flush_every: config.journal_flush_frames.max(1),
                    disconnected: false,
                }),
                _ => None,
            };

            let shard = id * shard_count / config.systems.max(1);
            shards[shard].cells.push(Cell {
                id,
                seed,
                system,
                verifier: StreamVerifier::new(Arc::clone(&spec)),
                events,
                next_event: 0,
                fast_frames: 0,
                full_frames: 0,
                reconfigs_seen: 0,
                latency_cursor: 0,
                defense_seen: 0,
                journal,
            });
        }

        Ok(Fleet {
            spec,
            config,
            shards,
            writer,
        })
    }

    /// Number of shards the fleet was partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Advances every cell of every shard through one frame, serially.
    ///
    /// A frame-major stepper for timing one frame of the whole fleet;
    /// [`run`](Fleet::run) is the normal entry point. Stepping frames
    /// `0..horizon` here yields the same cell states as `run`.
    pub fn advance_frame(&mut self, frame: u64) {
        for shard in &mut self.shards {
            let Shard { cells, metrics } = shard;
            for cell in cells {
                cell.advance(frame, metrics);
            }
        }
    }

    /// Runs the whole horizon and aggregates the deterministic report.
    ///
    /// # Errors
    ///
    /// Returns the background journal writer's failure — a sink I/O
    /// error or a writer-thread panic — discovered when the writer is
    /// joined at the end of the horizon. The frame loop itself never
    /// fails: cells that lose their writer finish the horizon
    /// unjournaled, and the root cause is reported here instead of
    /// panicking a worker mid-frame.
    pub fn run(&mut self) -> io::Result<FleetReport> {
        Ok(self.run_timed()?.0)
    }

    /// Runs the whole horizon, returning the deterministic report plus
    /// the wall-clock attribution (frame loop vs. journal drain vs.
    /// aggregation) for [`FleetReport::rollup_metrics`].
    ///
    /// # Errors
    ///
    /// As [`Fleet::run`].
    pub fn run_timed(&mut self) -> io::Result<(FleetReport, FleetTimings)> {
        let started = Instant::now();
        self.run_shards();
        let frame_loop_secs = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let sections = self.finish_journal()?;
        let journal_finish_secs = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let report = self.aggregate(sections);
        let aggregate_secs = started.elapsed().as_secs_f64();

        Ok((
            report,
            FleetTimings {
                frame_loop_secs,
                journal_finish_secs,
                aggregate_secs,
            },
        ))
    }

    /// The work-stealing loop: every shard is queued once, and each
    /// worker steals whole shards and runs them to completion. With one
    /// thread the caller's thread drains the queue itself.
    fn run_shards(&mut self) {
        use crossbeam::deque::{Injector, Steal};

        let horizon = self.config.horizon;
        let threads = self.config.threads.min(self.shards.len()).max(1);
        let injector = Injector::new();
        for shard in &mut self.shards {
            injector.push(shard);
        }
        let drain = || loop {
            match injector.steal() {
                Steal::Success(shard) => shard.run(horizon),
                Steal::Empty => break,
                Steal::Retry => {}
            }
        };
        if threads <= 1 {
            drain();
            return;
        }
        crossbeam::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|_| drain());
            }
        })
        .expect("fleet worker panicked");
    }

    /// Ships every sampled cell's tail batch, drops all producer
    /// senders, and joins the background writer for its per-system
    /// sections.
    ///
    /// # Errors
    ///
    /// Propagates the writer thread's sink error, or its panic mapped
    /// to an [`io::Error`] — the one place a background journal failure
    /// becomes visible to the caller.
    fn finish_journal(&mut self) -> io::Result<BTreeMap<u64, SystemJournal>> {
        for shard in &mut self.shards {
            for cell in &mut shard.cells {
                if let Some(mut journal) = cell.journal.take() {
                    journal.ship(cell.id as u64, cell.seed);
                    // Dropping `journal` drops this cell's sender.
                }
            }
        }
        match self.writer.take() {
            Some(writer) => writer.finish(),
            None => Ok(BTreeMap::new()),
        }
    }

    /// Folds per-cell results into the deterministic report, iterating
    /// cells in global system-id order regardless of sharding.
    fn aggregate(&mut self, sections: BTreeMap<u64, SystemJournal>) -> FleetReport {
        let legend = RingLegend::for_spec(&self.spec);

        // Merge the shard-local metrics in shard order (commutative, so
        // the order is cosmetic — determinism does not depend on it).
        let mut merged = FleetMetrics::default();
        let mut cells: Vec<&mut Cell> = Vec::new();
        for shard in &mut self.shards {
            merged.merge(&shard.metrics);
            cells.extend(shard.cells.iter_mut());
        }
        cells.sort_by_key(|c| c.id);

        let mut fast_frames = 0u64;
        let mut full_frames = 0u64;
        let mut restricted = 0u64;
        let mut violations = Vec::new();
        let mut bundles: Vec<TriageBundle> = Vec::new();

        for cell in cells {
            cell.verifier.finish();
            // `finish` can close an open window: fold the post-horizon
            // deltas the per-frame drain never saw.
            cell.drain_verifier(&mut merged);

            fast_frames += cell.fast_frames;
            full_frames += cell.full_frames;
            restricted += cell.verifier.restricted_frames;
            // Restricted-frame ratio in basis points, per system.
            if let Some(bp) =
                (cell.verifier.restricted_frames * 10_000).checked_div(self.config.horizon)
            {
                merged.restricted_frame_bp.record(bp);
            }

            if !cell.verifier.violations.is_empty() {
                let schedule = cell.schedule_lines();
                for v in &cell.verifier.violations {
                    merged.violations += 1;
                    violations.push(FleetViolation {
                        system: cell.id,
                        seed: cell.seed,
                        property: v.property.to_string(),
                        frame: v.frame,
                        reconfig: v.reconfig.map(|r| (r.start_c, r.end_c)),
                        detail: v.detail.clone(),
                        schedule: schedule.clone(),
                    });
                }
            }

            if bundles.len() < MAX_TRIAGE_BUNDLES {
                if let Some(bundle) = Self::triage(cell, &legend) {
                    bundles.push(bundle);
                }
            }
        }

        let mut journal = Vec::new();
        let mut journal_events = 0u64;
        if !sections.is_empty() {
            codec::encode_magic(&mut journal);
            for (system, section) in &sections {
                codec::encode_system_header(&mut journal, *system, section.seed);
                journal.extend_from_slice(&section.bytes);
                journal_events += section.events + 1;
            }
        }

        let reconfigs = merged.reconfigs;
        FleetReport {
            systems: self.config.systems,
            horizon: self.config.horizon,
            total_frames: self.config.systems as u64 * self.config.horizon,
            fast_frames,
            full_frames,
            reconfigs,
            restricted_frames: restricted,
            violations,
            bundles,
            metrics: merged.snapshot(),
            journal: JournalBytes(journal),
            journal_events,
        }
    }

    /// Drains one misbehaving cell's flight ring into a bundle. A
    /// verifier violation wins; absent one, fired chaos defenses
    /// qualify; a healthy cell (or one with rings disabled) yields
    /// nothing.
    fn triage(cell: &Cell, legend: &RingLegend) -> Option<TriageBundle> {
        let ring: &FlightRing = cell.system.flight_ring()?;
        let (trigger, property, frame, reconfig, detail) =
            if let Some(v) = cell.verifier.violations.first() {
                (
                    trigger::STREAM_VERIFIER,
                    v.property.to_string(),
                    v.frame,
                    v.reconfig.map(|r| (r.start_c, r.end_c)),
                    v.detail.clone(),
                )
            } else if cell.system.defense_events() > 0 {
                (
                    trigger::CHAOS_DEFENSE,
                    String::new(),
                    None,
                    None,
                    format!(
                        "{} chaos defense(s) fired without a property violation",
                        cell.system.defense_events()
                    ),
                )
            } else {
                return None;
            };
        let decoded = legend.decode_ring(ring);
        let causal_chain = TriageBundle::causal_chain(&decoded, frame, &property, &detail);
        // A journaled cell also times its SCRAM decisions; wall-clock
        // histograms (`*_ns`) would make the report differ run to run.
        let mut metrics = cell.system.metrics_snapshot();
        metrics.histograms.retain(|name, _| !name.ends_with("_ns"));
        Some(TriageBundle {
            system: cell.id,
            seed: cell.seed,
            trigger: trigger.to_owned(),
            property,
            frame,
            reconfig,
            detail,
            schedule: cell.schedule_lines(),
            ring: decoded,
            causal_chain,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::NullApp;
    use crate::obs::{BinaryJournalReader, BinaryRecord};
    use crate::prelude::*;
    use arfs_rtos::Ticks;

    fn small_spec() -> ReconfigSpec {
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["good", "bad"])
            .app(
                AppDecl::new("worker")
                    .spec(FunctionalSpec::new("full"))
                    .spec(FunctionalSpec::new("degraded")),
            )
            .config(
                Configuration::new("full-service")
                    .assign("worker", "full")
                    .place("worker", ProcessorId::new(0)),
            )
            .config(
                Configuration::new("safe-service")
                    .assign("worker", "degraded")
                    .place("worker", ProcessorId::new(0))
                    .safe(),
            )
            .transition("full-service", "safe-service", Ticks::new(900))
            .transition("safe-service", "full-service", Ticks::new(900))
            .choose_when("power", "bad", "safe-service")
            .choose_when("power", "good", "full-service")
            .initial_config("full-service")
            .initial_env([("power", "good")])
            .min_dwell_frames(2)
            .build()
            .expect("valid spec")
    }

    fn quiet_config(systems: usize) -> FleetConfig {
        FleetConfig {
            systems,
            workload: None,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn quiet_fleet_is_all_fast_frames_and_clean() {
        let mut fleet = Fleet::new(
            Arc::new(small_spec()),
            FleetConfig {
                horizon: 40,
                ..quiet_config(8)
            },
        )
        .unwrap();
        let report = fleet.run().expect("journal writer is healthy");
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.total_frames, 8 * 40);
        assert_eq!(report.reconfigs, 0);
        // Every frame after the first is eligible for the fast path; the
        // first frame is too (steady, choice endorses initial config).
        // The flight rings are on by default and must not disqualify it.
        assert_eq!(report.fast_frames, report.total_frames);
        assert_eq!(report.full_frames, 0);
        assert_eq!(report.metrics.counters["fleet.frames_fast"], 8 * 40);
        assert!(report.bundles.is_empty(), "healthy fleet needs no triage");
    }

    #[test]
    fn stimulated_fleet_reconfigures_and_verifies_clean() {
        let mut fleet = Fleet::new(
            Arc::new(small_spec()),
            FleetConfig {
                systems: 32,
                horizon: 120,
                journal_sample: 8,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let report = fleet.run().expect("journal writer is healthy");
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.reconfigs > 0, "workload should trigger reconfigs");
        assert!(
            report.fast_frames > 0,
            "steady stretches take the fast path"
        );
        assert!(report.full_frames > 0, "reconfigs force full frames");
        assert!(report.journal_events > 0, "sampled systems journal");
        // The shard-local metrics agree with the per-cell counters.
        assert_eq!(
            report.metrics.counters["fleet.frames_fast"],
            report.fast_frames
        );
        assert_eq!(
            report.metrics.counters["fleet.frames_full"],
            report.full_frames
        );
        assert_eq!(report.metrics.counters["fleet.reconfigs"], report.reconfigs);
        assert!(
            report.metrics.histograms["fleet.reconfig_latency_cycles"].count > 0,
            "completed reconfigs record latencies"
        );
        // The binary journal decodes: headers in ascending id order,
        // total record count matching the report.
        let mut records = 0u64;
        let mut last_header: i64 = -1;
        for record in BinaryJournalReader::new(report.journal.as_slice()) {
            match record.expect("aggregate journal decodes") {
                BinaryRecord::System { system, .. } => {
                    assert!((system as i64) > last_header, "sections out of id order");
                    last_header = system as i64;
                    records += 1;
                }
                BinaryRecord::Event(_) => records += 1,
            }
        }
        assert_eq!(records, report.journal_events);
        assert!(last_header >= 0, "at least one section header expected");
    }

    #[test]
    fn mutated_system_yields_a_renderable_triage_bundle() {
        // Seed one system with a protocol defect: the streaming verifier
        // must flag it AND its flight ring must drain into a bundle
        // whose causal chain ends in the violation.
        let mut fleet = Fleet::new(
            Arc::new(small_spec()),
            FleetConfig {
                systems: 16,
                horizon: 120,
                mutate_system: Some((5, ScramMutation::SkipInitPhase)),
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let report = fleet.run().expect("journal writer is healthy");
        assert!(
            report.violations.iter().any(|v| v.system == 5),
            "mutated system must violate; got {:?}",
            report.violations
        );
        let bundle = report
            .bundles
            .iter()
            .find(|b| b.system == 5)
            .expect("mutated system gets a bundle");
        assert_eq!(bundle.trigger, "stream-verifier");
        assert!(!bundle.ring.is_empty(), "ring retained the history");
        assert_eq!(
            bundle.causal_chain.last().map(|l| l.role.as_str()),
            Some("violation")
        );
        // The violating frame window is present in the ring timeline.
        if let Some(frame) = bundle.frame {
            assert!(
                bundle.ring.iter().any(|e| e.frame <= frame),
                "ring must cover the violation window"
            );
        }
        assert!(report.metrics.counters["fleet.violations"] > 0);
    }

    #[test]
    fn streaming_verifier_matches_batch_checkers_on_one_system() {
        // Drive one system with recorded trace AND the streaming
        // verifier; the batch checkers on the full trace and the
        // streaming verdicts must agree.
        let spec = Arc::new(small_spec());
        let mut recorded = System::builder_arc(Arc::clone(&spec)).build().unwrap();
        let mut streamed = System::builder_arc(Arc::clone(&spec))
            .observability(false)
            .build()
            .unwrap();
        streamed.set_trace_recording(false);
        let mut verifier = StreamVerifier::new(Arc::clone(&spec));

        let stimuli = [(5u64, "bad"), (40, "good"), (70, "bad")];
        for frame in 0..110u64 {
            if let Some((_, value)) = stimuli.iter().find(|(f, _)| *f == frame) {
                recorded.set_env("power", value).unwrap();
                streamed.set_env("power", value).unwrap();
            }
            recorded.run_frame();
            if verifier.needs_full_state() {
                streamed.run_frame();
                verifier.observe_full(streamed.last_state().unwrap());
            } else if streamed.advance_frame() {
                verifier.observe_fast();
            } else {
                verifier.observe_full(streamed.last_state().unwrap());
            }
        }
        verifier.finish();

        let batch = properties::check_extended(recorded.trace(), &spec);
        assert!(batch.is_ok(), "{batch}");
        assert!(verifier.violations.is_empty(), "{:?}", verifier.violations);
        assert_eq!(
            verifier.reconfigs as usize,
            recorded.trace().get_reconfigs().len()
        );
        assert_eq!(
            verifier.restricted_frames,
            recorded.trace().restricted_frames()
        );
        let batch_latencies: Vec<u64> = recorded
            .trace()
            .get_reconfigs()
            .iter()
            .map(|r| r.cycles())
            .collect();
        assert_eq!(verifier.latencies, batch_latencies);
    }

    #[test]
    fn streaming_verifier_flags_a_stalled_kernel() {
        // Forge the trace of a kernel that ignores its trigger: the
        // environment demands `safe-service` frame after frame but the
        // service level never moves. The incremental responsiveness rule
        // must fire once the dwell allowance is exhausted, exactly like
        // the batch checker.
        let spec = Arc::new(small_spec());
        let mut system = System::builder_arc(Arc::clone(&spec)).build().unwrap();
        system.run_frame();
        let mut stalled = system.trace().states().last().unwrap().clone();
        assert!(stalled.all_normal());
        stalled.env.set("power", "bad");

        let mut verifier = StreamVerifier::new(Arc::clone(&spec));
        for frame in 0..10u64 {
            let mut state = stalled.clone();
            state.frame = frame;
            verifier.observe_full(&state);
        }
        verifier.finish();
        let responsiveness: Vec<_> = verifier
            .violations
            .iter()
            .filter(|v| v.property == properties::PropertyId::Responsiveness)
            .collect();
        assert_eq!(responsiveness.len(), 1, "{:?}", verifier.violations);
    }

    #[test]
    fn report_is_shard_and_thread_invariant() {
        // Nothing may depend on a fleet-wide frame cut: stepping every
        // cell frame by frame must give the same report and journal as
        // running each shard to completion, for any sharding, serially
        // or in parallel.
        let spec = Arc::new(small_spec());
        let base = FleetConfig {
            systems: 24,
            shards: 1,
            horizon: 100,
            journal_sample: 3,
            journal_flush_frames: 5,
            chaos: Some(ChaosProfile::for_spec(&spec, 60)),
            ..FleetConfig::default()
        };
        let mut stepped = Fleet::new(Arc::clone(&spec), base.clone()).unwrap();
        for frame in 0..base.horizon {
            stepped.advance_frame(frame);
        }
        let sections = stepped.finish_journal().expect("journal writer is healthy");
        let reference = stepped.aggregate(sections);
        assert!(reference.reconfigs > 0 && reference.journal_events > 0);
        assert!(
            reference.bundles.iter().any(|b| b.system % 3 == 0),
            "a journaled cell must yield a bundle"
        );
        let reference_json = serde_json::to_string(&reference).unwrap();

        for (shards, threads) in [(1usize, 1usize), (3, 1), (5, 2), (24, 3)] {
            let report = Fleet::new(
                Arc::clone(&spec),
                FleetConfig {
                    shards,
                    threads,
                    ..base.clone()
                },
            )
            .unwrap()
            .run()
            .expect("journal writer is healthy");
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                reference_json,
                "shards={shards} threads={threads}"
            );
            assert_eq!(
                report.journal, reference.journal,
                "shards={shards} threads={threads}"
            );
        }
    }

    #[test]
    fn chaos_fleet_violations_replay_through_batch_checkers() {
        // Chaos faults can genuinely break reconfigurations; the point of
        // carrying `(seed, schedule)` in every FleetViolation is that the
        // offending system replays exactly. Rebuild each reported system
        // from its seed alone and assert the batch checkers on its full
        // recorded trace report the same property.
        let spec = Arc::new(small_spec());
        let profile = ChaosProfile::for_spec(&spec, 60);
        let config = FleetConfig {
            systems: 12,
            horizon: 100,
            chaos: Some(profile.clone()),
            ..FleetConfig::default()
        };
        let report = Fleet::new(Arc::clone(&spec), config.clone())
            .unwrap()
            .run()
            .expect("journal writer is healthy");

        for v in &report.violations {
            let mut system = System::builder_arc(Arc::clone(&spec))
                .fault_plan(FaultPlan::random(mix_seed(v.seed, 1), &profile))
                .build()
                .unwrap();
            let workload_config = config.workload.clone().expect("default has workload");
            let mut events = workload::random_scenario(&spec, &workload_config, v.seed)
                .events()
                .to_vec();
            events.sort_by_key(|e| e.frame);
            let mut next = 0;
            for frame in 0..config.horizon {
                while let Some(event) = events.get(next) {
                    if event.frame != frame {
                        break;
                    }
                    match &event.action {
                        ScenarioAction::SetEnv { factor, value } => {
                            let _ = system.set_env(factor, value);
                        }
                        ScenarioAction::FailProcessor(p) => system.fail_processor(*p),
                    }
                    next += 1;
                }
                system.run_frame();
            }
            let batch = properties::check_extended(system.trace(), &spec);
            assert!(
                batch
                    .violations
                    .iter()
                    .any(|b| b.property.to_string() == v.property),
                "streamed violation {v:?} did not replay; batch said {:?}",
                batch.violations
            );
        }
    }

    #[test]
    fn mix_seed_spreads_indices() {
        let a = mix_seed(1, 0);
        let b = mix_seed(1, 1);
        let c = mix_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stable across calls: seeds are reproducible.
        assert_eq!(a, mix_seed(1, 0));
    }

    #[test]
    fn registered_custom_apps_never_take_the_fast_path() {
        // A system with explicitly registered apps (even NullApps) must
        // not take the fast path: the auto-null proof does not apply.
        let spec = Arc::new(small_spec());
        let mut system = System::builder_arc(Arc::clone(&spec))
            .observability(false)
            .app(Box::new(NullApp::new(
                AppId::new("worker"),
                SpecId::new("full"),
            )))
            .build()
            .unwrap();
        system.set_trace_recording(false);
        assert!(!system.advance_frame(), "explicit apps force full frames");
    }
}
