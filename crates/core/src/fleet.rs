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
//! `systems × horizon`). Instead a per-system [`StreamVerifier`] feeds
//! each frame to the same [`properties`] monitors the batch checkers
//! fold over a trace: steady fast frames only reset a counter; while a
//! reconfiguration is open the cell runs full frames so the monitors
//! see every restricted state. Violations carry the offending system's
//! seed and case — its stimuli, chaos fault plan and the fleet's
//! horizon — so any report line replays through
//! [`Scenario::run_with`]. Cells keep no copy of their case:
//! aggregation re-derives it from the seed for the cells a report
//! names.
//!
//! # Metrics
//!
//! The frame loop keeps no metrics of its own. Each cell already holds
//! the facts a report needs — its fast/full frame counts, its
//! verifier's reconfiguration-latency histogram and violations, its system's
//! defense count — and aggregation folds them, in system-id order, into
//! the report's one [`MetricsRegistry`]: the `fleet.*` counters and the
//! log₂ `fleet.reconfig_latency_cycles` and `fleet.restricted_frame_bp`
//! histograms. The id order alone makes the snapshot byte-identical
//! across thread and shard counts.
//!
//! # Flight recorders and triage bundles
//!
//! Every cell carries a fixed-capacity [`FlightRing`]
//! (see [`FleetConfig::ring_capacity`]) that records compact 16-byte
//! events on both the fast and the full path — allocation-free, so even
//! the unsampled majority retains a recent-history window. When a
//! [`StreamVerifier`] violation or a chaos defense fires, aggregation
//! drains that ring plus the seed and the cell's case into a
//! [`TriageBundle`] on the report; `arfs-trace fleet triage` renders
//! it.
//!
//! # Journal sampling
//!
//! Journaling every system at fleet scale is ruinous; journaling none
//! blinds you. The [`journal_sample`](FleetConfig::journal_sample) knob
//! journals 1-in-K systems with full fidelity (those cells keep
//! observability on and never take the fast path). Each sampled cell
//! owns its journal section: a `{"system":N,"seed":N}` header line,
//! then, after every frame, its system's drained events as JSON lines
//! ([`JournalLine::write`]). The final assembly moves the sections, in
//! system-id order, into one JSON-Lines text that every journal tool
//! reads as it is.
//!
//! # Determinism
//!
//! A fleet run is a pure function of its config: systems are seeded
//! deterministically, cells never share mutable state (each writes its
//! own journal section), and aggregation iterates cells in global
//! system-id order. The aggregate [`FleetReport`] and journal are
//! therefore byte-identical across thread counts *and* shard counts;
//! wall-clock timing lives outside the report (see [`FleetTimings`] and
//! [`FleetReport::rollup_metrics`]).

use std::io;
use std::sync::Arc;
use std::time::Instant;

use crate::chaos::{ChaosProfile, FaultPlan};
use crate::obs::triage::trigger;
use crate::obs::{
    FlightRing, JournalLine, Log2Histogram, MetricsRegistry, MetricsSnapshot, RingLegend,
    TriageBundle,
};
use crate::properties::{self, Monitors, PropertyViolation};
use crate::scenario::{Scenario, ScenarioEvent};
use crate::scram::{KernelConfig, ScramMutation};
use crate::spec::ReconfigSpec;
use crate::system::System;
use crate::trace::SysState;
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

/// System `id`'s seed and case, derived from the master seed alone:
/// the workload's stimuli and, under a chaos profile, a seeded fault
/// plan, over the fleet's horizon ([`Fleet::new`] holds the workload's
/// horizon to it). Aggregation calls it again for the cells a report
/// names, so a cell keeps no copy of its case.
fn system_case(spec: &ReconfigSpec, config: &FleetConfig, id: usize) -> (u64, Scenario) {
    let seed = mix_seed(config.seed, id as u64);
    let mut case = match &config.workload {
        Some(wl) => workload::random_scenario(spec, wl, seed),
        None => Scenario::new("quiet", config.horizon),
    };
    if let Some(profile) = &config.chaos {
        case = case.with_faults(FaultPlan::random(mix_seed(seed, 1), profile));
    }
    (seed, case)
}

/// System `id`'s kernel: the default one, with the fleet's seeded
/// mutation if `id` is its target.
fn kernel_of(config: &FleetConfig, id: usize) -> KernelConfig {
    let mutation = config
        .mutate_system
        .as_ref()
        .filter(|(target, _)| *target == id);
    KernelConfig {
        mutation: mutation.map(|(_, mutation)| mutation.clone()),
        ..KernelConfig::default()
    }
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
    /// Frames to advance every system through; a workload's
    /// [`horizon`](WorkloadConfig::horizon) must equal it.
    pub horizon: u64,
    /// Journal 1-in-K systems (`0` disables journaling entirely).
    pub journal_sample: usize,
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
            ring_capacity: 256,
            mutate_system: None,
            workload: Some(WorkloadConfig::default()),
            chaos: None,
        }
    }
}

/// One aggregate-level violation, carrying the case that replays the
/// offending system through [`Scenario::run_with`].
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
    /// The system's case: its stimuli, its chaos fault plan and the
    /// fleet's horizon, shared by all of the system's violations.
    pub case: Arc<Scenario>,
}

/// Where a fleet run's wall clock went. Kept outside [`FleetReport`] so
/// the report stays deterministic; [`FleetReport::rollup_metrics`]
/// consumes it for honest throughput attribution — frames/sec is
/// computed from the frame loop alone, with journal assembly and
/// aggregation time reported separately instead of silently inflating
/// the denominator.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetTimings {
    /// Frame loop only (what throughput gauges divide by).
    pub frame_loop_secs: f64,
    /// Concatenating the sampled cells' journal sections.
    pub journal_finish_secs: f64,
    /// Deterministic aggregation (verifier finish, metrics, bundles).
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
    /// Triage bundles for the first eight (`MAX_TRIAGE_BUNDLES`) systems
    /// whose streaming verifier fired (or, absent violations, whose
    /// chaos defenses fired), in system-id order.
    pub bundles: Vec<TriageBundle>,
    /// Fleet metrics folded from the cells (frame counters, latency and
    /// restricted-ratio histograms, defense/violation counters).
    pub metrics: MetricsSnapshot,
    /// Aggregate JSON-Lines journal of the sampled systems: per sampled
    /// system (in id order) one `{"system":N,"seed":N}` header line and
    /// its events in recording order. Empty when sampling is off.
    pub journal: String,
    /// Event and header lines in the aggregate journal.
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
    /// **frame loop** time only; journal-assembly and aggregation
    /// seconds get their own gauges so that journal cost is attributed,
    /// never hidden inside frames/sec.
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
/// checkers without retaining its trace: the property monitors of the
/// `Extended` oracle profile, fed live.
///
/// Steady fast frames cannot change the verified state (the fast path's
/// eligibility proof covers exactly the checkers' premises). While a
/// reconfiguration interval is open the verifier asks the fleet to force
/// full frames ([`needs_full_state`](StreamVerifier::needs_full_state))
/// so every restricted state is observed.
pub struct StreamVerifier {
    spec: Arc<ReconfigSpec>,
    monitors: Monitors,
    /// Completed-reconfiguration latencies, in cycles: one sample per
    /// reconfiguration, in fixed-size state however long the run.
    latencies: Log2Histogram,
    violations: Vec<PropertyViolation>,
}

/// The derived form plus a top-level `reconfigs` (the sample count of
/// `latencies`), which perfbench's traced replica reads from this form.
impl std::fmt::Debug for StreamVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamVerifier")
            .field("spec", &self.spec)
            .field("monitors", &self.monitors)
            .field("latencies", &self.latencies)
            .field("reconfigs", &self.latencies.count())
            .field("violations", &self.violations)
            .finish()
    }
}

impl StreamVerifier {
    /// Creates a verifier for one system running under `spec`.
    pub fn new(spec: Arc<ReconfigSpec>) -> Self {
        StreamVerifier {
            monitors: Monitors::new(&spec, properties::EXTENDED),
            spec,
            latencies: Log2Histogram::new(),
            violations: Vec::new(),
        }
    }

    /// `true` while a reconfiguration interval is open: the next frame
    /// must be a full frame so its state can be observed.
    pub fn needs_full_state(&self) -> bool {
        self.monitors.open().is_some()
    }

    /// Observes a steady fast frame (no state recorded; eligibility
    /// proved the frame changed nothing the checkers look at).
    pub fn observe_fast(&mut self) {
        self.monitors.observe_steady();
    }

    /// Observes a full frame's recorded state.
    pub fn observe_full(&mut self, state: &SysState) {
        if let Some(r) = self
            .monitors
            .observe(&self.spec, state, &mut self.violations)
        {
            self.latencies.record(r.cycles());
        }
    }

    /// Finishes verification at the end of the horizon; an interval
    /// still open is judged by the open-reconfiguration rule.
    pub fn finish(&mut self) {
        self.monitors.finish(&self.spec, &mut self.violations);
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
    /// The journal section, present only on sampled cells.
    journal: Option<Section>,
}

/// A sampled cell's share of the fleet journal: its header line, then
/// its events in recording order, as JSON Lines.
#[derive(Default)]
struct Section {
    text: String,
    lines: u64,
}

impl Section {
    /// A section holding only its `{"system":N,"seed":N}` header line.
    fn new(system: u64, seed: u64) -> Section {
        let mut section = Section::default();
        section.push(JournalLine::Header { system, seed });
        section
    }

    fn push(&mut self, line: JournalLine) {
        line.write(&mut self.text);
        self.lines += 1;
    }
}

impl Cell {
    fn advance(&mut self, frame: u64) {
        while let Some(event) = self.events.get(self.next_event) {
            if event.frame != frame {
                break;
            }
            // The scenario generator only emits declared factors.
            let _ = event.action.apply(&mut self.system);
            self.next_event += 1;
        }

        if self.verifier.needs_full_state() {
            // The verifier must observe every frame of an open
            // restricted window; force the full path.
            self.system.run_frame();
            self.full_frames += 1;
            let state = self.system.last_state().expect("full frame records state");
            self.verifier.observe_full(state);
        } else if self.system.advance_frame() {
            self.fast_frames += 1;
            self.verifier.observe_fast();
        } else {
            self.full_frames += 1;
            let state = self.system.last_state().expect("full frame records state");
            self.verifier.observe_full(state);
        }

        if let Some(section) = &mut self.journal {
            let events = self.system.drain_journal();
            // Failpoint: Skip drops this frame's events — lost journal
            // data is an observability loss, never a safety violation.
            arfs_assure::fp!("fleet.journal.append", action => {
                if matches!(action, arfs_assure::FpAction::Skip) {
                    return;
                }
            });
            for event in events {
                section.push(JournalLine::Event(event));
            }
        }
    }
}

/// A contiguous slice of the fleet's cells, the unit of work stealing.
struct Shard {
    cells: Vec<Cell>,
}

impl Shard {
    /// Advances each cell through the whole horizon, one cell at a time.
    fn run(&mut self, horizon: u64) {
        // Failpoint: shard start. Counted for coverage; Panic models a
        // worker dying mid-run (surfaces through the scope join).
        arfs_assure::fp!("fleet.shard");
        for cell in &mut self.cells {
            for frame in 0..horizon {
                cell.advance(frame);
            }
        }
    }
}

/// The fleet runtime. See the [module documentation](self).
pub struct Fleet {
    spec: Arc<ReconfigSpec>,
    config: FleetConfig,
    shards: Vec<Shard>,
}

impl Fleet {
    /// Builds `config.systems` seeded systems, sharded and ready to run.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::HorizonMismatch`] if the workload's
    /// horizon is not the fleet's, and propagates any [`SystemError`]
    /// from system construction (a spec that fails [`System::builder`]
    /// validation).
    pub fn new(spec: Arc<ReconfigSpec>, config: FleetConfig) -> Result<Fleet, SystemError> {
        if let Some(workload) = config.workload.as_ref() {
            if workload.horizon != config.horizon {
                return Err(SystemError::HorizonMismatch {
                    fleet: config.horizon,
                    workload: workload.horizon,
                });
            }
        }
        let shard_count = if config.shards > 0 {
            config.shards
        } else {
            (config.systems / 256).max(config.threads).max(1)
        };
        let shard_count = shard_count.min(config.systems.max(1));

        let mut shards: Vec<Shard> = (0..shard_count)
            .map(|_| Shard { cells: Vec::new() })
            .collect();

        for id in 0..config.systems {
            let (seed, case) = system_case(&spec, &config, id);
            let sampled = config.journal_sample > 0 && id % config.journal_sample == 0;

            let mut system = System::builder_arc(Arc::clone(&spec))
                .kernel(kernel_of(&config, id))
                .observability(sampled)
                .flight_recorder(config.ring_capacity)
                .fault_plan(case.faults().clone())
                .build()?;
            system.set_trace_recording(false);

            let mut events = case.events().to_vec();
            events.sort_by_key(|e| e.frame);

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
                journal: sampled.then(|| Section::new(id as u64, seed)),
            });
        }

        Ok(Fleet {
            spec,
            config,
            shards,
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
        for cell in self.shards.iter_mut().flat_map(|shard| &mut shard.cells) {
            cell.advance(frame);
        }
    }

    /// Runs the whole horizon and aggregates the deterministic report.
    ///
    /// # Errors
    ///
    /// Currently always returns `Ok`: every journal section is an
    /// in-memory buffer its cell writes itself. The `io::Result` leaves
    /// room for a fallible journal sink.
    pub fn run(&mut self) -> io::Result<FleetReport> {
        Ok(self.run_timed()?.0)
    }

    /// Runs the whole horizon, returning the deterministic report plus
    /// the wall-clock attribution (frame loop vs. journal assembly vs.
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
        let (journal, journal_events) = self.finish_journal();
        let journal_finish_secs = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let report = self.aggregate(journal, journal_events);
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

    /// Assembles the aggregate journal by moving each sampled cell's
    /// section out of its cell, in system-id order: the first section's
    /// buffer becomes the journal, and each later one is freed once
    /// appended. Returns the text and its line count (headers included);
    /// empty when sampling is off.
    fn finish_journal(&mut self) -> (String, u64) {
        let mut sections: Vec<(usize, Section)> = self
            .shards
            .iter_mut()
            .flat_map(|shard| &mut shard.cells)
            .filter_map(|cell| Some((cell.id, std::mem::take(cell.journal.as_mut()?))))
            .collect();
        sections.sort_by_key(|(id, _)| *id);
        let lines = sections.iter().map(|(_, s)| s.lines).sum();
        let journal = sections.into_iter().map(|(_, s)| s.text).collect();
        (journal, lines)
    }

    /// Folds per-cell results into the deterministic report, iterating
    /// cells in global system-id order regardless of sharding.
    fn aggregate(&mut self, journal: String, journal_events: u64) -> FleetReport {
        let legend = RingLegend::for_spec(&self.spec);

        let mut cells: Vec<&mut Cell> = self
            .shards
            .iter_mut()
            .flat_map(|shard| shard.cells.iter_mut())
            .collect();
        cells.sort_by_key(|c| c.id);

        let mut metrics = MetricsRegistry::new();
        let mut fast_frames = 0u64;
        let mut full_frames = 0u64;
        let mut reconfigs = 0u64;
        let mut defenses = 0u64;
        let mut restricted = 0u64;
        let mut violations = Vec::new();
        let mut bundles: Vec<TriageBundle> = Vec::new();

        for cell in cells {
            cell.verifier.finish();

            fast_frames += cell.fast_frames;
            full_frames += cell.full_frames;
            reconfigs += cell.verifier.latencies.count();
            metrics.merge_histogram("fleet.reconfig_latency_cycles", &cell.verifier.latencies);
            defenses += cell.system.defense_events();
            let cell_restricted = cell.verifier.monitors.restricted_frames();
            restricted += cell_restricted;
            // Restricted-frame ratio in basis points, per system.
            if let Some(bp) = (cell_restricted * 10_000).checked_div(self.config.horizon) {
                metrics.observe("fleet.restricted_frame_bp", bp);
            }

            if !cell.verifier.violations.is_empty() {
                let case = Arc::new(system_case(&self.spec, &self.config, cell.id).1);
                for v in &cell.verifier.violations {
                    violations.push(FleetViolation {
                        system: cell.id,
                        seed: cell.seed,
                        property: v.property.to_string(),
                        frame: v.frame,
                        reconfig: v.reconfig.map(|r| (r.start_c, r.end_c)),
                        detail: v.detail.clone(),
                        case: Arc::clone(&case),
                    });
                }
            }

            if bundles.len() < MAX_TRIAGE_BUNDLES {
                let case = || system_case(&self.spec, &self.config, cell.id).1;
                if let Some(bundle) = Self::triage(cell, &legend, case) {
                    bundles.push(bundle);
                }
            }
        }

        metrics.add("fleet.frames_fast", fast_frames);
        metrics.add("fleet.frames_full", full_frames);
        metrics.add("fleet.reconfigs", reconfigs);
        metrics.add("fleet.defense_events", defenses);
        metrics.add("fleet.violations", violations.len() as u64);
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
            metrics: metrics.snapshot(),
            journal,
            journal_events,
        }
    }

    /// Drains one misbehaving cell's flight ring into a bundle with the
    /// cell's case. A verifier violation wins; absent one, fired chaos
    /// defenses qualify; a healthy cell (or one with rings disabled)
    /// yields nothing.
    fn triage(
        cell: &Cell,
        legend: &RingLegend,
        case: impl FnOnce() -> Scenario,
    ) -> Option<TriageBundle> {
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
        Some(TriageBundle {
            system: cell.id,
            seed: cell.seed,
            trigger: trigger.to_owned(),
            property,
            frame,
            reconfig,
            detail,
            case: case(),
            ring: decoded,
            causal_chain,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::NullApp;
    use crate::prelude::*;
    use crate::system::SystemBuilder;
    use arfs_rtos::Ticks;
    use std::collections::BTreeMap;

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
        let spec = Arc::new(small_spec());
        let config = FleetConfig {
            horizon: 40,
            ..quiet_config(8)
        };
        // One horizon per cell: a quiet case spans the fleet's, and a
        // workload over any other is rejected.
        assert_eq!(system_case(&spec, &config, 1).1.horizon(), 40);
        let mismatched = FleetConfig {
            horizon: 40,
            ..FleetConfig::default()
        };
        assert_eq!(
            Fleet::new(Arc::clone(&spec), mismatched).err(),
            Some(SystemError::HorizonMismatch {
                fleet: 40,
                workload: 120
            })
        );
        let mut fleet = Fleet::new(spec, config).unwrap();
        let report = fleet.run().expect("an in-memory journal never fails");
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
        let report = fleet.run().expect("an in-memory journal never fails");
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.reconfigs > 0, "workload should trigger reconfigs");
        assert!(
            report.fast_frames > 0,
            "steady stretches take the fast path"
        );
        assert!(report.full_frames > 0, "reconfigs force full frames");
        assert!(report.journal_events > 0, "sampled systems journal");
        assert_eq!(
            report.metrics.histograms["fleet.reconfig_latency_cycles"].count, report.reconfigs,
            "one latency per completed reconfiguration"
        );
        // The journal reads back: headers in ascending id order, total
        // line count matching the report.
        let mut lines = 0u64;
        let mut last_header: i64 = -1;
        for line in report.journal.lines() {
            lines += 1;
            if let JournalLine::Header { system, .. } =
                JournalLine::parse(line).expect("aggregate journal reads")
            {
                assert!((system as i64) > last_header, "sections out of id order");
                last_header = system as i64;
            }
        }
        assert_eq!(lines, report.journal_events);
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
        let report = fleet.run().expect("an in-memory journal never fails");
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
            verifier.latencies.count(),
            recorded.trace().get_reconfigs().len() as u64
        );
        assert_eq!(
            verifier.monitors.restricted_frames(),
            recorded.trace().restricted_frames()
        );
        let mut batch_latencies = Log2Histogram::new();
        for r in recorded.trace().get_reconfigs() {
            batch_latencies.record(r.cycles());
        }
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
            journal_sample: 3,
            chaos: Some(ChaosProfile::for_spec(&spec, 60)),
            ..FleetConfig::default()
        };
        let mut stepped = Fleet::new(Arc::clone(&spec), base.clone()).unwrap();
        for frame in 0..base.horizon {
            stepped.advance_frame(frame);
        }
        let (journal, journal_events) = stepped.finish_journal();
        let reference = stepped.aggregate(journal, journal_events);
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
            .expect("an in-memory journal never fails");
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

    /// A violation as the stream≡batch comparison sees it.
    type Key = (String, Option<u64>, Option<(u64, u64)>, String);

    fn key(v: &PropertyViolation) -> Key {
        (
            v.property.to_string(),
            v.frame,
            v.reconfig.map(|r| (r.start_c, r.end_c)),
            v.detail.clone(),
        )
    }

    /// Rebuilds system `id` of a fleet from its seed alone (scenario,
    /// fault plan, mutation) and drives it through the horizon with
    /// `step`, applying its stimuli as the fleet does.
    fn drive_alone(
        spec: &Arc<ReconfigSpec>,
        config: &FleetConfig,
        id: usize,
        builder: SystemBuilder,
        step: impl Fn(&mut System),
    ) -> System {
        let (_, case) = system_case(spec, config, id);
        let mut system = builder
            .kernel(kernel_of(config, id))
            .fault_plan(case.faults().clone())
            .build()
            .unwrap();
        let mut events = case.events().to_vec();
        events.sort_by_key(|e| e.frame);
        let mut next = events.iter().peekable();
        for frame in 0..config.horizon {
            while let Some(event) = next.next_if(|e| e.frame == frame) {
                let _ = event.action.apply(&mut system);
            }
            step(&mut system);
        }
        system
    }

    /// Replays system `id` with its trace recorded.
    fn replay(spec: &Arc<ReconfigSpec>, config: &FleetConfig, id: usize) -> System {
        let builder = System::builder_arc(Arc::clone(spec));
        drive_alone(spec, config, id, builder, |system| {
            system.run_frame();
        })
    }

    #[test]
    fn fleet_journal_sections_equal_standalone_journals() {
        // Each sampled cell writes its own section. Header excluded, the
        // section must be byte for byte the JSON Lines of the journal the
        // same system keeps when it runs alone.
        for spec in [small_spec(), crate::assure::tests::two_app_spec()] {
            let spec = Arc::new(spec);
            let config = FleetConfig {
                systems: 24,
                threads: 2,
                journal_sample: 3,
                chaos: Some(ChaosProfile::for_spec(&spec, 60)),
                ..FleetConfig::default()
            };
            let report = Fleet::new(Arc::clone(&spec), config.clone())
                .unwrap()
                .run()
                .expect("an in-memory journal never fails");

            let mut sections: BTreeMap<usize, String> = BTreeMap::new();
            let mut current = None;
            for line in report.journal.lines() {
                match JournalLine::parse(line).expect("aggregate journal reads") {
                    JournalLine::Header { system, seed } => {
                        let id = system as usize;
                        assert_eq!(seed, mix_seed(config.seed, system));
                        assert!(sections.insert(id, String::new()).is_none());
                        current = Some(id);
                    }
                    JournalLine::Event(_) => {
                        let id = current.expect("events follow a section header");
                        let section = sections.get_mut(&id).unwrap();
                        section.push_str(line);
                        section.push('\n');
                    }
                }
            }
            let sampled: Vec<usize> = (0..config.systems).step_by(3).collect();
            assert_eq!(sections.keys().copied().collect::<Vec<_>>(), sampled);

            for (id, section) in sections {
                let builder =
                    System::builder_arc(Arc::clone(&spec)).flight_recorder(config.ring_capacity);
                let alone = drive_alone(&spec, &config, id, builder, |system| {
                    system.advance_frame();
                });
                assert!(!section.is_empty(), "system {id}");
                assert_eq!(section, alone.journal().to_json_lines(), "system {id}");
            }
        }
    }

    #[test]
    fn chaos_fleet_violations_replay_through_batch_checkers() {
        // Chaos faults and seeded protocol defects genuinely break
        // reconfigurations; the point of carrying the case in every
        // FleetViolation and bundle is that the system replays exactly.
        // Rebuild every system from its seed alone: the batch checkers
        // on its full recorded trace must report exactly what the
        // stream reported, frame numbers and details included. A
        // chaos-defense bundle replays from its case alone to the
        // defense count it reports.
        for spec in [small_spec(), crate::assure::tests::two_app_spec()] {
            let spec = Arc::new(spec);
            let base = FleetConfig {
                systems: 12,
                ..FleetConfig::default()
            };
            let mut configs = vec![FleetConfig {
                chaos: Some(ChaosProfile::for_spec(&spec, 60)),
                ..base.clone()
            }];
            for mutation in [
                ScramMutation::WrongTarget,
                ScramMutation::ExtraDelayFrames(12),
                ScramMutation::SkipInitPhase,
                ScramMutation::SkipHaltPhase,
                ScramMutation::LeaveAppRunning(spec.apps()[0].id().clone()),
            ] {
                configs.push(FleetConfig {
                    mutate_system: Some((5, mutation)),
                    ..base.clone()
                });
            }
            for config in configs {
                let report = Fleet::new(Arc::clone(&spec), config.clone())
                    .unwrap()
                    .run()
                    .expect("an in-memory journal never fails");
                if config.mutate_system.is_some() && spec.apps().len() > 1 {
                    assert!(
                        report.violations.iter().any(|v| v.system == 5),
                        "{:?} went unnoticed",
                        config.mutate_system
                    );
                }
                for v in &report.violations {
                    assert_eq!(*v.case, system_case(&spec, &config, v.system).1);
                }
                let defended = report
                    .bundles
                    .iter()
                    .filter(|b| b.trigger == trigger::CHAOS_DEFENSE);
                assert_eq!(config.chaos.is_some(), defended.clone().count() > 0);
                for bundle in defended {
                    let alone = System::builder_arc(Arc::clone(&spec));
                    let fired = bundle.case.run_with(alone).unwrap().defense_events();
                    let reported = format!("{fired} chaos defense(s) fired");
                    assert!(bundle.detail.starts_with(&reported), "{}", bundle.detail);
                }
                for id in 0..config.systems {
                    let mut streamed: Vec<Key> = report
                        .violations
                        .iter()
                        .filter(|v| v.system == id)
                        .map(|v| (v.property.clone(), v.frame, v.reconfig, v.detail.clone()))
                        .collect();
                    let system = replay(&spec, &config, id);
                    let batch = properties::check_extended(system.trace(), &spec);
                    let mut batch: Vec<Key> = batch.violations.iter().map(key).collect();
                    streamed.sort();
                    batch.sort();
                    assert_eq!(
                        streamed,
                        batch,
                        "system {id} under {:?}, chaos {}",
                        config.mutate_system,
                        config.chaos.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn forged_open_reconfiguration_reports_real_frames() {
        // 40 all-normal frames, then halted to the horizon: the stream
        // and the batch checkers both date the open reconfiguration at
        // frame 40.
        let spec = Arc::new(small_spec());
        let mut system = System::builder_arc(Arc::clone(&spec)).build().unwrap();
        system.run_frame();
        let steady = system.trace().states().last().unwrap().clone();
        let mut trace = SysTrace::new();
        let mut verifier = StreamVerifier::new(Arc::clone(&spec));
        for frame in 0..100u64 {
            let mut state = steady.clone();
            state.frame = frame;
            if frame >= 40 {
                for rec in state.apps.values_mut() {
                    rec.reconf_st = crate::trace::ReconfSt::Halted;
                }
            }
            verifier.observe_full(&state);
            trace.push(state);
        }
        verifier.finish();
        let streamed: Vec<Key> = verifier.violations.iter().map(key).collect();
        let batch: Vec<Key> = properties::check_extended(&trace, &spec)
            .violations
            .iter()
            .map(key)
            .collect();
        assert_eq!(streamed, batch);
        assert_eq!(streamed.len(), 1);
        assert_eq!(streamed[0].1, Some(40));
        assert!(
            streamed[0].3.contains("open since frame 40"),
            "{}",
            streamed[0].3
        );
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
