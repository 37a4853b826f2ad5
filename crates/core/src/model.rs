//! Bounded exhaustive exploration of trigger schedules.
//!
//! The paper's assurance argument rests on PVS proofs that SP1–SP4 hold
//! for *every* trace of the abstract model. This module is the executable
//! analogue: it enumerates **every** schedule of environment changes up
//! to a bounded horizon and event count, runs the full system (with
//! [`NullApp`](crate::app::NullApp)s standing in for application
//! functionality, exactly the abstraction level of the PVS model), and
//! checks the four properties on every resulting trace.
//!
//! # The schedule trie
//!
//! Schedules form a trie: every prefix of an enumerated schedule is
//! itself an enumerated schedule, so the set of schedules is exactly the
//! set of nodes of a tree rooted at the quiescent (empty) schedule,
//! where each child appends one event at a frame strictly after its
//! parent's last event. The explorer exploits that structure three ways:
//!
//! - **Streaming enumeration** — [`ModelChecker::schedule_iter`] walks
//!   the trie lazily in depth-first pre-order (the canonical enumeration
//!   order) holding only the current path, O(depth) memory instead of
//!   the O(total schedules) `Vec` the eager enumerator needs.
//!   [`ModelChecker::schedules`] remains as a thin collect.
//! - **Prefix-sharing replay** — schedules sharing a prefix share the
//!   simulation of that prefix. The tree walk runs each trie *node*
//!   once: while advancing a node's own run toward the horizon it
//!   [forks](crate::system::System::fork) the system at every branch
//!   frame, seeds the child's event, and recurses after the node's own
//!   trace has been checked. Total work drops from
//!   O(schedules × horizon) simulated frames to one spine per node.
//! - **No-op elision** — an event that sets a factor to the value it
//!   already holds at that point in the prefix leaves the environment,
//!   and therefore the trace, untouched ([`Environment::set`] returns
//!   `Ok(false)` and changes nothing), so the subtree under it explores
//!   traces identical to ones reached without the event. Those subtrees
//!   are skipped — a sound symmetry reduction — and counted in
//!   [`ModelCheckReport::cases_elided`].
//!
//! # Certified partial-order reduction
//!
//! [`ModelChecker::with_por`] layers two further reductions on top of
//! no-op elision, both justified by the static
//! [`IndependenceCertificate`]
//! (see [`crate::lint::independence`]):
//!
//! - **Choice-equivalence merging** — the kernel consumes the
//!   environment only through the choice function, so an event moving a
//!   factor to a value in the same choice-equivalence class as the one
//!   it already holds — or as an already-forked sibling's value — is
//!   behaviorally inert: every trace under it coincides, verdict-wise,
//!   with one under the class representative. The subtree is merged
//!   into the representative's and counted in
//!   [`ModelCheckReport::cases_merged`].
//! - **State deduplication** — when the parent state at a branch frame
//!   can be summarized (pending queues empty, substrate healthy, chaos
//!   quiet; the kernel steady with no pending trigger, or mid-protocol),
//!   the child subtree's future is a function of the parent's canonical
//!   fingerprint ([`System::state_fingerprint`]), the branch frame, the
//!   seeded event, and the remaining event budget alone. A subtree
//!   whose identity was already explored is merged instead of
//!   re-walked.
//!
//! The accounting invariant `cases_run + cases_elided + cases_merged =
//! total_schedule_count` always holds. Reduction is *opt-in* because a
//! reduced run reports a (verdict-preserving) subset of the unreduced
//! failure list; the equivalence suite diffs reduced verdicts against
//! [`ModelChecker::run_reference`] wholesale, and debug builds
//! spot-check a sample of claimed commutations against the live choice
//! function as they are used.
//!
//! # One node loop
//!
//! Every walk runs the same loop: pop a trie node, process it under
//! `catch_unwind`, push its children. [`ModelChecker::run`] runs it on
//! the caller's thread over a stack, in canonical pre-order;
//! [`ModelChecker::run_parallel`] runs it in each worker of a
//! work-stealing pool (each idle worker steals the oldest — largest —
//! queued subtree), so uneven per-schedule cost does not idle workers
//! the way static chunking did. Spaces smaller than [`SERIAL_CUTOVER`]
//! schedules are walked on the caller's thread, where thread spin-up
//! would cost more than it saves. Either way a kernel panic is reported
//! with the offending schedule named and the progress made before it
//! ([`ParallelPanic`]).
//! [`ModelChecker::run_reference`] keeps the seed replay-from-frame-0
//! engine as the executable specification the optimized engines are
//! tested against.
//!
//! # The flight recorder and the walk profiler
//!
//! When a run fails, the **counterexample flight recorder** (on by
//! default, [`ModelChecker::with_flight_recorder`] to disable)
//! shrinks the first failure in canonical order to a 1-minimal case
//! with [`Scenario::shrink`], the shrinker every harness shares,
//! replays it with observability forced on, and attaches the
//! packaged [`Counterexample`] — the original and minimized cases,
//! shrink lineage, journal, per-frame verdicts, causal chain — to the
//! report. The artifact is
//! deterministic: serial and work-stealing runs produce byte-identical
//! JSON. Every engine also profiles itself: span totals for
//! fork/advance/check/shrink and per-worker run/elide/steal counters
//! land in [`ModelCheckReport::metrics`].
//!
//! [`Environment::set`]: crate::environment::Environment::set

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::assure::{InvariantOracle, OracleProfile};
use crate::chaos::{ChaosDefense, FaultPlan};
use crate::lint::independence::IndependenceCertificate;
use crate::obs::counterexample::{Counterexample, ShrinkStep};
use crate::obs::{MetricsRegistry, MetricsSnapshot};
use crate::properties::PropertyViolation;
use crate::scenario::Scenario;
use crate::spec::ReconfigSpec;
use crate::system::{System, SystemBuilder};

/// One enumerated schedule of environment changes: `(frame, factor,
/// value)` triples applied in order.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Schedule(pub Vec<(u64, String, String)>);

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "(no events)");
        }
        for (i, (frame, factor, value)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "@{frame} {factor}:={value}")?;
        }
        Ok(())
    }
}

/// A schedule whose trace violated at least one property.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CaseFailure {
    /// The offending schedule.
    pub schedule: Schedule,
    /// The violations its trace produced.
    pub violations: Vec<PropertyViolation>,
}

/// The result of a model-checking run.
///
/// Equality compares the verification outcome — explored and elided
/// case counts and the failure list (including order) — and ignores
/// [`frames_simulated`](ModelCheckReport::frames_simulated),
/// [`counterexample`](ModelCheckReport::counterexample), and
/// [`metrics`](ModelCheckReport::metrics), which are engine-performance
/// and diagnostic artifacts: the prefix-sharing engines simulate far
/// fewer frames than the reference engine while proving exactly the
/// same thing, and the flight recorder's artifact is derived from the
/// (compared) failure list.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct ModelCheckReport {
    /// Number of schedules explored (trie nodes actually simulated and
    /// checked).
    pub cases_run: usize,
    /// Number of schedules elided as no-op-equivalent: they contain an
    /// event setting a factor to the value it already held, so their
    /// traces are identical to an explored schedule's.
    pub cases_elided: usize,
    /// Number of schedules merged by the certified partial-order
    /// reduction ([`ModelChecker::with_por`]): the independence
    /// certificate proves their subtrees verdict-equivalent to an
    /// explored representative's, so their outcomes are implied rather
    /// than simulated. Always zero with reduction off (the default).
    #[serde(default)]
    pub cases_merged: usize,
    /// `true` if any analytic schedule count overflowed `usize` during
    /// the run. The affected counts (`cases_elided`, `cases_merged`,
    /// and [`ModelChecker::total_schedule_count`]) saturate instead of
    /// wrapping, so they remain safe lower bounds, but the exact
    /// accounting invariant `run + elided + merged = total` can no
    /// longer be relied on. See
    /// [`ModelChecker::try_total_schedule_count`].
    #[serde(default)]
    pub count_overflowed: bool,
    /// Total frames simulated across the run — the engine's work
    /// measure. The seed engine spends `(cases_run × horizon)`; the
    /// prefix-sharing walk spends one spine per trie node.
    pub frames_simulated: u64,
    /// Schedules that violated a property (empty = all proved), in
    /// canonical enumeration order.
    pub failures: Vec<CaseFailure>,
    /// The flight recorder's artifact for the first failure in
    /// canonical order: the schedule delta-debugged to 1-minimal form,
    /// replayed with observability on, with journal, per-frame
    /// verdicts, and causal chain. `None` when every case passed, the
    /// recorder was disabled
    /// ([`ModelChecker::with_flight_recorder`]), or the run aborted on
    /// a worker panic.
    pub counterexample: Option<Counterexample>,
    /// The walk profiler's view of the run: span totals for
    /// fork/advance/check/shrink plus per-worker steal/run/elide
    /// counters. Span timings are wall-clock and therefore
    /// nondeterministic; everything else is exact.
    pub metrics: MetricsSnapshot,
}

impl PartialEq for ModelCheckReport {
    fn eq(&self, other: &Self) -> bool {
        self.cases_run == other.cases_run
            && self.cases_elided == other.cases_elided
            && self.failures == other.failures
    }
}

impl Eq for ModelCheckReport {}

impl ModelCheckReport {
    /// Returns `true` if every explored case satisfied every property.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Total schedules accounted for: explored plus elided plus merged.
    pub fn cases_total(&self) -> usize {
        self.cases_run + self.cases_elided + self.cases_merged
    }
}

impl fmt::Display for ModelCheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.all_passed() {
            write!(
                f,
                "SP1-SP4 hold on all {} explored schedules",
                self.cases_run
            )?;
            if self.cases_elided > 0 {
                write!(f, " ({} elided as no-op-equivalent)", self.cases_elided)?;
            }
            if self.cases_merged > 0 {
                write!(
                    f,
                    " ({} merged by partial-order reduction)",
                    self.cases_merged
                )?;
            }
            Ok(())
        } else {
            write!(
                f,
                "{} of {} explored schedules violated a property",
                self.failures.len(),
                self.cases_run,
            )?;
            if self.cases_elided > 0 {
                write!(f, " ({} elided as no-op-equivalent)", self.cases_elided)?;
            }
            if self.cases_merged > 0 {
                write!(
                    f,
                    " ({} merged by partial-order reduction)",
                    self.cases_merged
                )?;
            }
            writeln!(f, ":")?;
            for c in self.failures.iter().take(5) {
                writeln!(f, "  {}:", c.schedule)?;
                for v in &c.violations {
                    writeln!(f, "    {v}")?;
                }
            }
            if self.failures.len() > 5 {
                writeln!(f, "  ... and {} more", self.failures.len() - 5)?;
            }
            if let Some(ce) = &self.counterexample {
                writeln!(
                    f,
                    "  counterexample: `{}` minimized to `{}` ({} shrink steps)",
                    ce.case.events_line(),
                    ce.minimized.events_line(),
                    ce.shrink_steps.len()
                )?;
            }
            Ok(())
        }
    }
}

/// Lazy depth-first generator over the schedule trie, yielding schedules
/// in the canonical enumeration order (pre-order: every prefix before
/// its extensions, siblings by ascending `(frame, factor, value)`).
/// Holds only the current path — O(depth) memory.
#[derive(Debug, Clone)]
pub struct ScheduleIter {
    /// All candidate single events, sorted frame-major (then factor
    /// order, then domain order) — the trie's alphabet.
    single_events: Vec<(u64, String, String)>,
    max_events: usize,
    /// The current trie path as indices into `single_events`.
    stack: Vec<usize>,
    started: bool,
    done: bool,
}

impl ScheduleIter {
    fn current(&self) -> Schedule {
        Schedule(
            self.stack
                .iter()
                .map(|&i| self.single_events[i].clone())
                .collect(),
        )
    }
}

impl Iterator for ScheduleIter {
    type Item = Schedule;

    fn next(&mut self) -> Option<Schedule> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(self.current()); // The root: the empty schedule.
        }
        // Descend to the first child: the first event at a frame after
        // the current node's last event. Events are frame-sorted, so
        // every index from that point on is a valid child.
        if self.stack.len() < self.max_events {
            let min_frame = self
                .stack
                .last()
                .map(|&i| self.single_events[i].0 + 1)
                .unwrap_or(1);
            let from = self.single_events.partition_point(|e| e.0 < min_frame);
            if from < self.single_events.len() {
                self.stack.push(from);
                return Some(self.current());
            }
        }
        // Backtrack to the nearest ancestor with a next sibling.
        while let Some(top) = self.stack.pop() {
            if top + 1 < self.single_events.len() {
                self.stack.push(top + 1);
                return Some(self.current());
            }
        }
        self.done = true;
        None
    }
}

/// One unit of work for the tree-walk engines: a trie node, carried as
/// the forked system (positioned at the node's last event frame, event
/// pending) plus the event prefix that identifies it.
struct NodeTask {
    system: System,
    events: Vec<(u64, String, String)>,
    depth: usize,
}

/// Mutable run state threaded through the walk (per worker under
/// parallelism, merged at the end). Carries the profiler's raw numbers
/// alongside the verification outcome.
#[derive(Default)]
struct WalkAccum {
    cases_run: usize,
    cases_elided: usize,
    cases_merged: usize,
    count_overflowed: bool,
    frames_simulated: u64,
    failures: Vec<CaseFailure>,
    /// Nanoseconds spent forking child systems at branch frames.
    fork_ns: u64,
    /// Nanoseconds spent advancing systems frame by frame.
    advance_ns: u64,
    /// Nanoseconds spent checking SP1–SP4 on completed traces.
    check_ns: u64,
    /// Tasks this worker stole from a sibling's deque.
    steals: u64,
}

impl WalkAccum {
    /// Folds another accumulator into this one.
    fn merge(&mut self, other: WalkAccum) {
        self.cases_run += other.cases_run;
        self.cases_elided += other.cases_elided;
        self.cases_merged += other.cases_merged;
        self.count_overflowed |= other.count_overflowed;
        self.frames_simulated += other.frames_simulated;
        self.failures.extend(other.failures);
        self.fork_ns += other.fork_ns;
        self.advance_ns += other.advance_ns;
        self.check_ns += other.check_ns;
        self.steals += other.steals;
    }
}

/// A worker panic surfaced by
/// [`ModelChecker::try_run_parallel`]: the formatted panic message
/// (naming the offending schedule) plus the partial report merged from
/// every worker's accumulated state — the progress made before the
/// abort is not discarded.
#[derive(Debug, Clone)]
pub struct ParallelPanic {
    /// The panic message, naming the offending schedule and the
    /// partial progress.
    pub message: String,
    /// Counts, failures, and per-worker metrics accumulated before the
    /// abort. No counterexample is recorded: a kernel that panics
    /// during exploration would panic again during shrink replays.
    pub partial: ModelCheckReport,
}

impl fmt::Display for ParallelPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Below this many total schedules [`ModelChecker::run_parallel`] walks
/// the space on the caller's thread: spinning up a work-stealing scope
/// costs a few hundred microseconds, which small spaces (the whole
/// h14/e1 avionics space, say) cannot amortize.
pub const SERIAL_CUTOVER: usize = 256;

/// Identity of one fork subtree for canonical-state deduplication:
/// `(parent state fingerprint, branch frame, factor index, value
/// index, events left)`. The fingerprint covers quiescent *and*
/// mid-reconfiguration ("busy") parents — see
/// [`System::state_fingerprint`].
type SubtreeKey = (u64, u64, usize, usize, usize);

/// Per-run state of the certified partial-order reduction: the
/// certificate driving choice-equivalence merges, the visited-subtree
/// set backing state deduplication (shared across workers),
/// and the debug-build spot-check counter.
struct PorRun {
    certificate: Arc<IndependenceCertificate>,
    /// Identities of subtrees already claimed for exploration. Two
    /// forks with equal keys have frame-identical futures, so the
    /// second is merged.
    visited: Mutex<HashSet<SubtreeKey>>,
    /// Commutation merges spot-checked so far (debug builds re-verify
    /// the first [`SPOT_CHECK_BUDGET`] against the live choice
    /// function).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    spot_checks: AtomicU32,
}

/// How many choice-equivalence merges a debug build re-verifies
/// dynamically per run.
#[cfg_attr(not(debug_assertions), allow(dead_code))]
const SPOT_CHECK_BUDGET: u32 = 64;

impl PorRun {
    fn new(certificate: Arc<IndependenceCertificate>) -> Self {
        PorRun {
            certificate,
            visited: Mutex::new(HashSet::new()),
            spot_checks: AtomicU32::new(0),
        }
    }
}

/// Exhaustive bounded explorer of environment-change schedules.
#[derive(Debug, Clone)]
pub struct ModelChecker {
    spec: Arc<ReconfigSpec>,
    horizon: u64,
    max_events: usize,
    mid_policy: crate::scram::MidReconfigPolicy,
    sync_policy: crate::scram::SyncPolicy,
    stage_policy: crate::scram::StagePolicy,
    mutation: Option<crate::scram::ScramMutation>,
    observability: bool,
    flight_recorder: bool,
    fault_plan: FaultPlan,
    chaos_defense: ChaosDefense,
    por: Option<Arc<IndependenceCertificate>>,
}

impl ModelChecker {
    /// Creates a checker exploring traces of `horizon` frames with at
    /// most `max_events` environment changes each, under the default
    /// kernel policies.
    ///
    /// # Example
    ///
    /// ```
    /// use arfs_core::model::ModelChecker;
    ///
    /// # let spec = arfs_core::spec::ReconfigSpec::builder()
    /// #     .frame_len(arfs_rtos::Ticks::new(100))
    /// #     .env_factor("power", ["good", "bad"])
    /// #     .app(arfs_core::spec::AppDecl::new("a")
    /// #         .spec(arfs_core::spec::FunctionalSpec::new("f"))
    /// #         .spec(arfs_core::spec::FunctionalSpec::new("d")))
    /// #     .config(arfs_core::spec::Configuration::new("full")
    /// #         .assign("a", "f").place("a", arfs_failstop::ProcessorId::new(0)))
    /// #     .config(arfs_core::spec::Configuration::new("safe")
    /// #         .assign("a", "d").place("a", arfs_failstop::ProcessorId::new(0)).safe())
    /// #     .transition("full", "safe", arfs_rtos::Ticks::new(800))
    /// #     .transition("safe", "full", arfs_rtos::Ticks::new(800))
    /// #     .choose_when("power", "bad", "safe")
    /// #     .choose_when("power", "good", "full")
    /// #     .initial_config("full")
    /// #     .initial_env([("power", "good")])
    /// #     .min_dwell_frames(1)
    /// #     .build()
    /// #     .unwrap();
    /// let report = ModelChecker::new(spec, 10, 1).run();
    /// assert!(report.all_passed(), "{report}");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn new(spec: ReconfigSpec, horizon: u64, max_events: usize) -> Self {
        assert!(horizon > 0, "horizon must be positive");
        ModelChecker {
            spec: Arc::new(spec),
            horizon,
            max_events,
            mid_policy: crate::scram::MidReconfigPolicy::default(),
            sync_policy: crate::scram::SyncPolicy::default(),
            stage_policy: crate::scram::StagePolicy::default(),
            mutation: None,
            observability: false,
            flight_recorder: true,
            fault_plan: FaultPlan::new(),
            chaos_defense: ChaosDefense::default(),
            por: None,
        }
    }

    /// Enables or disables the observability layer on every system the
    /// checker builds. Off by default — the exhaustive loop builds
    /// thousands of systems whose journals nobody reads — but debugging
    /// runs can turn it on instead of hand-building a parallel system.
    /// Counterexample replays always journal, regardless of this knob.
    #[must_use]
    pub fn with_observability(mut self, enabled: bool) -> Self {
        self.observability = enabled;
        self
    }

    /// Enables or disables the counterexample flight recorder (on by
    /// default). With it off, a failing run reports bare
    /// [`CaseFailure`]s and skips the shrink/replay work — useful for
    /// benchmarking the walk engines in isolation.
    #[must_use]
    pub fn with_flight_recorder(mut self, enabled: bool) -> Self {
        self.flight_recorder = enabled;
        self
    }

    /// Explores systems running under the given kernel policies — every
    /// protocol variant deserves the same exhaustive treatment.
    #[must_use]
    pub fn with_policies(
        mut self,
        mid: crate::scram::MidReconfigPolicy,
        sync: crate::scram::SyncPolicy,
        stage: crate::scram::StagePolicy,
    ) -> Self {
        self.mid_policy = mid;
        self.sync_policy = sync;
        self.stage_policy = stage;
        self
    }

    /// Seeds a SCRAM protocol mutation into every explored system —
    /// the verification-of-the-verifier experiment: a mutated kernel
    /// must fail the exhaustive check.
    #[must_use]
    pub fn with_mutation(mut self, mutation: crate::scram::ScramMutation) -> Self {
        self.mutation = Some(mutation);
        self
    }

    /// Installs a substrate fault plan into every explored system: the
    /// checker replays the same plan under every enumerated schedule (a
    /// chaos campaign). Empty by default — the pre-chaos behavior.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Configures the chaos defenses (retry budget, backoff,
    /// quarantine window) of every explored system.
    #[must_use]
    pub fn with_chaos_defense(mut self, defense: ChaosDefense) -> Self {
        self.chaos_defense = defense;
        self
    }

    /// Enables certified partial-order reduction: derives the
    /// [`IndependenceCertificate`] for this checker's spec and lets the
    /// walk engines merge subtrees the certificate proves
    /// verdict-equivalent to an explored representative
    /// (choice-equivalence merging plus state deduplication;
    /// see the module docs). Merged subtrees are counted in
    /// [`ModelCheckReport::cases_merged`]; the accounting invariant
    /// `cases_run + cases_elided + cases_merged ==
    /// total_schedule_count` always holds.
    ///
    /// Off by default: a reduced run reports a verdict-preserving
    /// *subset* of the unreduced failure list, so the reference engine
    /// and unreduced walks remain the baseline for report-equality
    /// comparisons. [`run_reference`](ModelChecker::run_reference)
    /// ignores the reduction either way.
    #[must_use]
    pub fn with_por(mut self) -> Self {
        self.por = Some(Arc::new(IndependenceCertificate::build(&self.spec)));
        self
    }

    /// Like [`with_por`](ModelChecker::with_por) but consumes a
    /// pre-built certificate — e.g. the `arfs-lint independence
    /// --write` artifact CI keeps fresh — instead of re-deriving it.
    ///
    /// # Errors
    ///
    /// Returns the certificate back if its content hash was not derived
    /// from exactly this checker's spec: a stale certificate must never
    /// drive reduction.
    pub fn with_certificate(
        mut self,
        certificate: IndependenceCertificate,
    ) -> Result<Self, Box<IndependenceCertificate>> {
        if !certificate.matches_spec(&self.spec) {
            return Err(Box::new(certificate));
        }
        self.por = Some(Arc::new(certificate));
        Ok(self)
    }

    /// The fault plan installed into every explored system.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// The exploration horizon in frames.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The last frame an event may land on: a triggered protocol
    /// (reconfig frames plus dwell) plus one steady frame must fit
    /// within the horizon. Zero means only the quiescent schedule is
    /// enumerable.
    fn last_event_frame(&self) -> u64 {
        let protocol = self.spec.reconfig_frames() + self.spec.min_dwell_frames();
        self.horizon.saturating_sub(protocol + 1)
    }

    /// All candidate single events, frame-major (the trie alphabet and
    /// the canonical sibling order).
    fn single_events(&self) -> Vec<(u64, String, String)> {
        let last_event_frame = self.last_event_frame();
        let mut single_events = Vec::new();
        for frame in 1..=last_event_frame {
            for factor in self.spec.env_model().factors() {
                for value in factor.domain() {
                    single_events.push((frame, factor.name().to_owned(), value.clone()));
                }
            }
        }
        single_events
    }

    /// Distinct events available per frame (factors × domain values).
    fn events_per_frame(&self) -> usize {
        self.spec
            .env_model()
            .factors()
            .iter()
            .map(|f| f.domain().len())
            .sum()
    }

    /// Number of schedules in the subtree rooted at a node whose last
    /// event sits on `last_frame` with `depth_left` more events allowed
    /// (including the node itself): Σₖ C(frames-left, k) · eᵏ.
    ///
    /// # Errors
    ///
    /// Returns [`CountOverflow`] if the exact count does not fit in a
    /// `usize` — every term is computed with checked arithmetic, so an
    /// overflow is detected rather than silently saturated.
    fn try_subtree_count(
        &self,
        last_frame: u64,
        depth_left: usize,
    ) -> Result<usize, CountOverflow> {
        let frames_left = self.last_event_frame().saturating_sub(last_frame) as usize;
        let e = self.events_per_frame();
        let overflow = || CountOverflow {
            frames_left,
            events_per_frame: e,
            depth_left,
        };
        let mut total = 1usize;
        for k in 1..=depth_left {
            let placements = checked_binomial(frames_left, k).ok_or_else(overflow)?;
            let choices = e.checked_pow(k as u32).ok_or_else(overflow)?;
            total = placements
                .checked_mul(choices)
                .and_then(|term| total.checked_add(term))
                .ok_or_else(overflow)?;
        }
        Ok(total)
    }

    /// [`ModelChecker::try_subtree_count`], saturated at `usize::MAX`
    /// on overflow with the condition recorded in the accumulator —
    /// the walk engines' counting path. A saturated count is still a
    /// safe lower bound; the report's
    /// [`count_overflowed`](ModelCheckReport::count_overflowed) flag
    /// tells consumers the exact accounting invariant is off the table.
    fn subtree_count_recorded(
        &self,
        last_frame: u64,
        depth_left: usize,
        acc: &mut WalkAccum,
    ) -> usize {
        self.try_subtree_count(last_frame, depth_left)
            .unwrap_or_else(|_| {
                acc.count_overflowed = true;
                usize::MAX
            })
    }

    /// Total schedules in the bounded space (explored + elided +
    /// merged), counted analytically.
    ///
    /// # Errors
    ///
    /// Returns [`CountOverflow`] if the total exceeds `usize::MAX`. A
    /// space that large is not walkable anyway, but the explicit error
    /// lets planning tools (and the bench harness) distinguish "huge"
    /// from a silently wrong number.
    pub fn try_total_schedule_count(&self) -> Result<usize, CountOverflow> {
        self.try_subtree_count(0, self.max_events)
    }

    /// Total schedules in the bounded space (explored + elided), counted
    /// analytically; saturates at `usize::MAX` if the exact total
    /// overflows (see [`ModelChecker::try_total_schedule_count`]).
    pub fn total_schedule_count(&self) -> usize {
        self.try_total_schedule_count().unwrap_or(usize::MAX)
    }

    /// Streams every schedule lazily in canonical (depth-first
    /// pre-order) enumeration order; O(depth) memory. The quiescent
    /// (empty) schedule comes first; each schedule precedes its
    /// extensions.
    pub fn schedule_iter(&self) -> ScheduleIter {
        ScheduleIter {
            single_events: self.single_events(),
            max_events: self.max_events,
            stack: Vec::new(),
            started: false,
            done: false,
        }
    }

    /// Enumerates every schedule eagerly (a thin collect over
    /// [`schedule_iter`](ModelChecker::schedule_iter)): each event is a
    /// `(frame, factor, value)` triple with frames strictly increasing
    /// within a schedule; event frames leave enough tail for a triggered
    /// reconfiguration to complete within the horizon. A horizon too
    /// short for even one event plus its protocol tail yields only the
    /// quiescent (empty) schedule.
    pub fn schedules(&self) -> Vec<Schedule> {
        self.schedule_iter().collect()
    }

    /// The canonical enumeration-order sort key of a schedule: events as
    /// `(frame, factor index, domain index)` triples, compared
    /// lexicographically (so a prefix sorts before its extensions —
    /// exactly pre-order). Used to reassemble work-stealing results
    /// deterministically.
    fn schedule_key(&self, schedule: &Schedule) -> Vec<(u64, usize, usize)> {
        let factors = self.spec.env_model().factors();
        schedule
            .0
            .iter()
            .map(|(frame, factor, value)| {
                let fi = factors
                    .iter()
                    .position(|f| f.name() == factor)
                    .unwrap_or(usize::MAX);
                let vi = factors
                    .get(fi)
                    .and_then(|f| f.domain().iter().position(|v| v == value))
                    .unwrap_or(usize::MAX);
                (*frame, fi, vi)
            })
            .collect()
    }

    /// A builder under the checker's policies and no fault plan (a
    /// case installs its own). `observed` forces the observability
    /// layer on (counterexample replays); otherwise the checker-level
    /// knob decides, defaulting to off for the hot exhaustive loop.
    fn builder(&self, observed: bool) -> SystemBuilder {
        let mut builder = System::builder_arc(Arc::clone(&self.spec))
            .mid_policy(self.mid_policy)
            .sync_policy(self.sync_policy)
            .stage_policy(self.stage_policy)
            .chaos_defense(self.chaos_defense)
            .observability(observed || self.observability);
        if let Some(mutation) = self.mutation.clone() {
            builder = builder.mutation(mutation);
        }
        builder
    }

    /// The walk's root task: the empty schedule's system at frame 0
    /// under the checker's policies, installed fault plan and
    /// observability knob.
    fn root_task(&self) -> NodeTask {
        let system = self
            .builder(false)
            .fault_plan(self.fault_plan.clone())
            .build()
            .expect("validated spec builds");
        NodeTask {
            system,
            events: Vec::new(),
            depth: 0,
        }
    }

    /// Processes one trie node: advances its system through the branch
    /// frames (forking a child per non-elided event), continues the
    /// spine to the horizon — the node's own complete run — and checks
    /// the properties on its trace. Returns the children in canonical
    /// sibling order. With `por` set, subtrees the certificate proves
    /// verdict-equivalent to an explored representative are merged
    /// instead of forked. The task keeps its event prefix, so a caller
    /// that catches a panic here can still name the schedule.
    fn process_node(
        &self,
        task: &mut NodeTask,
        acc: &mut WalkAccum,
        por: Option<&PorRun>,
    ) -> Vec<NodeTask> {
        let NodeTask {
            system,
            events,
            depth,
        } = task;
        let depth = *depth;
        let start_frame = system.frame();
        let last_event_frame = self.last_event_frame();
        let mut children = Vec::new();

        if depth < self.max_events {
            while system.frame() < last_event_frame {
                let advance_started = Instant::now();
                system.run_frame();
                acc.advance_ns += span_ns(advance_started);
                let frame = system.frame();
                let remaining = self.max_events - depth - 1;
                // One canonical fingerprint per branch frame; `None`
                // (state not summarizable, or reduction off) disables
                // deduplication for every fork below. Busy
                // (mid-reconfiguration) states fingerprint too, so
                // schedules converging inside a reconfiguration window
                // also merge.
                let parent_fp = por.and_then(|_| system.state_fingerprint());
                for (fi, factor) in self.spec.env_model().factors().iter().enumerate() {
                    let current = system
                        .environment()
                        .current()
                        .get(factor.name())
                        .map(str::to_owned);
                    let classes = por.and_then(|r| r.certificate.factor(factor.name()));
                    // Choice-equivalence classes already represented at
                    // this branch point, seeded by the held value:
                    // staying inside its class is behaviorally inert.
                    let mut covered: Vec<(usize, String)> = Vec::new();
                    if let (Some(fc), Some(cur)) = (classes, current.as_deref()) {
                        if let Some(class) = fc.class_of(cur) {
                            covered.push((class, cur.to_owned()));
                        }
                    }
                    for (vi, value) in factor.domain().iter().enumerate() {
                        if current.as_deref() == Some(value.as_str()) {
                            // Setting a factor to its current value is a
                            // no-op: the subtree's traces all coincide
                            // with traces of schedules without this
                            // event, which are explored elsewhere.
                            let elided = self.subtree_count_recorded(frame, remaining, acc);
                            acc.cases_elided += elided;
                            continue;
                        }
                        if let Some(fc) = classes {
                            if let Some(class) = fc.class_of(value) {
                                if let Some((_, rep)) = covered.iter().find(|(c, _)| *c == class) {
                                    // The certificate proves every choice
                                    // outcome under this value equal to
                                    // the representative's, so the
                                    // subtrees share their verdicts.
                                    let merged = self.subtree_count_recorded(frame, remaining, acc);
                                    acc.cases_merged += merged;
                                    if let Some(run) = por {
                                        self.spot_check_commutation(
                                            run,
                                            system.environment().current(),
                                            factor.name(),
                                            value,
                                            rep,
                                        );
                                    }
                                    continue;
                                }
                                covered.push((class, value.clone()));
                            }
                        }
                        if let (Some(fp), Some(run)) = (parent_fp, por) {
                            // Fingerprinted parent: this fork's future is a
                            // function of (fingerprint, frame, event,
                            // budget). Walk each identity once.
                            let key = (fp, frame, fi, vi, remaining);
                            let claimed = run.visited.lock().expect("POR visited set").insert(key);
                            if !claimed {
                                let merged = self.subtree_count_recorded(frame, remaining, acc);
                                acc.cases_merged += merged;
                                continue;
                            }
                        }
                        let fork_started = Instant::now();
                        let mut child = system.fork();
                        acc.fork_ns += span_ns(fork_started);
                        child
                            .set_env(factor.name(), value)
                            .expect("enumerated values are valid");
                        let mut child_events = events.clone();
                        child_events.push((frame, factor.name().to_owned(), value.clone()));
                        children.push(NodeTask {
                            system: child,
                            events: child_events,
                            depth: depth + 1,
                        });
                    }
                }
            }
        }
        let advance_started = Instant::now();
        while system.frame() < self.horizon {
            system.run_frame();
        }
        acc.advance_ns += span_ns(advance_started);
        acc.frames_simulated += self.horizon - start_frame;
        acc.cases_run += 1;

        let check_started = Instant::now();
        let violations = collect_violations(system);
        acc.check_ns += span_ns(check_started);
        if !violations.is_empty() {
            acc.failures.push(CaseFailure {
                schedule: Schedule(events.clone()),
                violations,
            });
        }
        children
    }

    /// The dynamic soundness oracle behind the static certificate: in
    /// debug builds the first [`SPOT_CHECK_BUDGET`] choice-equivalence
    /// merges are re-verified against the live choice function on the
    /// concrete environment the merge happened in — over *every*
    /// configuration, since the claim is universally quantified.
    /// Compiled to nothing in release builds.
    fn spot_check_commutation(
        &self,
        run: &PorRun,
        env: &crate::environment::EnvState,
        factor: &str,
        merged: &str,
        rep: &str,
    ) {
        #[cfg(debug_assertions)]
        {
            if run.spot_checks.fetch_add(1, Ordering::Relaxed) < SPOT_CHECK_BUDGET {
                let with_merged = env.with(factor, merged);
                let with_rep = env.with(factor, rep);
                for config in self.spec.configs() {
                    assert_eq!(
                        self.spec.choose(config.id(), &with_merged),
                        self.spec.choose(config.id(), &with_rep),
                        "independence certificate is unsound: from `{}`, `{factor}:={merged}` \
                         and `{factor}:={rep}` choose different configurations",
                        config.id()
                    );
                }
            }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = (run, env, factor, merged, rep);
        }
    }

    /// The node loop every walk engine runs: `pop` a task from `queue`,
    /// process it under `catch_unwind`, `push` its children back.
    /// Returns `Ok` once `pop` yields nothing, or the message naming
    /// the offending schedule as soon as a node panics.
    fn drain<Q>(
        &self,
        queue: &mut Q,
        acc: &mut WalkAccum,
        por: Option<&PorRun>,
        pop: impl Fn(&mut Q, &mut WalkAccum) -> Option<NodeTask>,
        push: impl Fn(&mut Q, Vec<NodeTask>),
    ) -> Result<(), String> {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        while let Some(mut task) = pop(queue, acc) {
            match catch_unwind(AssertUnwindSafe(|| self.process_node(&mut task, acc, por))) {
                Ok(children) => push(queue, children),
                Err(payload) => {
                    let detail = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_owned());
                    return Err(format!(
                        "model-check worker panicked on schedule `{}`: {detail}",
                        Schedule(task.events)
                    ));
                }
            }
        }
        Ok(())
    }

    /// Turns the accumulators of a finished or aborted walk into its
    /// outcome: the report, or — if a node panicked — a
    /// [`ParallelPanic`] carrying the partial report. The flight
    /// recorder is skipped after a panic: a kernel that panicked during
    /// exploration would panic again during shrink replays.
    fn conclude(
        &self,
        accums: Vec<WalkAccum>,
        panicked: Option<String>,
    ) -> Result<ModelCheckReport, Box<ParallelPanic>> {
        let Some(msg) = panicked else {
            return Ok(self.finish(accums, true));
        };
        let partial = self.finish(accums, false);
        let message = format!(
            "{msg} ({} cases checked, {} failures found before abort)",
            partial.cases_run,
            partial.failures.len()
        );
        Err(Box::new(ParallelPanic { message, partial }))
    }

    /// Merges per-worker accumulators into the final report: failures
    /// sorted into canonical enumeration order, the profiler's spans
    /// and per-worker counters snapshotted into
    /// [`ModelCheckReport::metrics`], and — when `record` is set and
    /// the run failed — the flight recorder's [`Counterexample`] for
    /// the first failure.
    fn finish(&self, accums: Vec<WalkAccum>, record: bool) -> ModelCheckReport {
        let mut metrics = MetricsRegistry::new();
        for (worker, acc) in accums.iter().enumerate() {
            metrics.add(&format!("walk.worker.{worker}.runs"), acc.cases_run as u64);
            metrics.add(
                &format!("walk.worker.{worker}.elided"),
                acc.cases_elided as u64,
            );
            metrics.add(
                &format!("walk.worker.{worker}.merged"),
                acc.cases_merged as u64,
            );
            metrics.add(&format!("walk.worker.{worker}.steals"), acc.steals);
        }
        let mut total = WalkAccum::default();
        for acc in accums {
            total.merge(acc);
        }
        // Work stealing scatters completion order; the canonical key
        // restores the deterministic enumeration order (a no-op for the
        // serial engines, which already walk in pre-order).
        total
            .failures
            .sort_by_key(|f| self.schedule_key(&f.schedule));

        metrics.add("walk.cases_run", total.cases_run as u64);
        metrics.add("walk.cases_elided", total.cases_elided as u64);
        metrics.add("walk.cases_merged", total.cases_merged as u64);
        metrics.add("walk.frames_simulated", total.frames_simulated);
        metrics.add("walk.span.fork_ns", total.fork_ns);
        metrics.add("walk.span.advance_ns", total.advance_ns);
        metrics.add("walk.span.check_ns", total.check_ns);

        let counterexample = if record && self.flight_recorder {
            let shrink_started = Instant::now();
            let ce = total
                .failures
                .first()
                .map(|failure| self.record_counterexample(self.case(&failure.schedule)));
            metrics.add("walk.span.shrink_ns", span_ns(shrink_started));
            ce
        } else {
            None
        };

        ModelCheckReport {
            cases_run: total.cases_run,
            cases_elided: total.cases_elided,
            cases_merged: total.cases_merged,
            count_overflowed: total.count_overflowed,
            frames_simulated: total.frames_simulated,
            failures: total.failures,
            counterexample,
            metrics: metrics.snapshot(),
        }
    }

    /// Explores every schedule on the caller's thread with the
    /// prefix-sharing tree walk: each trie node is simulated exactly
    /// once, and no-op events are elided. Failures come out in
    /// canonical enumeration order. The same as
    /// [`run_parallel`](ModelChecker::run_parallel)`(1)`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel panics while simulating a schedule; the
    /// message names the offending schedule and the progress made
    /// before the abort.
    pub fn run(&self) -> ModelCheckReport {
        self.run_parallel(1)
    }

    /// Explores every schedule across `threads` workers with
    /// work-stealing subtree distribution (deterministic result, same
    /// as [`run`](ModelChecker::run): failures are reassembled into
    /// canonical enumeration order).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero, or if a worker panics while
    /// simulating a schedule — in that case the panic message names the
    /// offending schedule and the progress made before the abort. Use
    /// [`try_run_parallel`](ModelChecker::try_run_parallel) to recover
    /// the partial report instead.
    pub fn run_parallel(&self, threads: usize) -> ModelCheckReport {
        match self.try_run_parallel(threads) {
            Ok(report) => report,
            Err(failure) => panic!("{failure}"),
        }
    }

    /// [`run_parallel`](ModelChecker::run_parallel) with the worker
    /// panic surfaced as a value: on a panic the per-worker accumulators
    /// gathered before the abort — counts, failures found so far, and
    /// the profiler's per-worker metrics — are merged into
    /// [`ParallelPanic::partial`] instead of being discarded.
    ///
    /// # Errors
    ///
    /// Returns [`ParallelPanic`] (boxed — it carries the whole partial
    /// report) if any worker panicked while simulating a schedule.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn try_run_parallel(&self, threads: usize) -> Result<ModelCheckReport, Box<ParallelPanic>> {
        assert!(threads > 0, "need at least one thread");
        use crossbeam::deque::{Injector, Steal, Worker};
        use std::sync::atomic::{AtomicBool, AtomicUsize};

        let por_run = self.por.as_ref().map(|c| PorRun::new(Arc::clone(c)));
        let por = por_run.as_ref();

        // Small spaces lose more to thread spin-up and steal traffic
        // than sharing saves: walk them on the caller's thread with the
        // same panic contract and accumulator shape.
        if threads == 1 || self.total_schedule_count() < SERIAL_CUTOVER {
            return self.run_serial_for(threads, por);
        }

        let injector: Injector<NodeTask> = Injector::new();
        injector.push(self.root_task());
        // Tasks queued or in flight anywhere; workers spin until zero.
        let pending = AtomicUsize::new(1);
        let abort = AtomicBool::new(false);
        let panicked: Mutex<Option<String>> = Mutex::new(None);

        let locals: Vec<Worker<NodeTask>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<_> = locals.iter().map(Worker::stealer).collect();

        let mut accums: Vec<WalkAccum> = Vec::new();
        crossbeam::scope(|scope| {
            let mut handles = Vec::new();
            for (me, mut local) in locals.into_iter().enumerate() {
                let (injector, stealers) = (&injector, &stealers);
                let (pending, abort, panicked) = (&pending, &abort, &panicked);
                handles.push(scope.spawn(move |_| {
                    let pop = |local: &mut Worker<NodeTask>, acc: &mut WalkAccum| loop {
                        if abort.load(Ordering::Acquire) {
                            return None;
                        }
                        // Own deque first (LIFO: depth-first, hot
                        // caches), then the injector, then steal the
                        // oldest — largest — subtree from a sibling.
                        if let Some(task) = local.pop().or_else(|| injector.steal().success()) {
                            return Some(task);
                        }
                        for (i, stealer) in stealers.iter().enumerate() {
                            if i == me {
                                continue;
                            }
                            if let Steal::Success(task) = stealer.steal() {
                                acc.steals += 1;
                                return Some(task);
                            }
                        }
                        if pending.load(Ordering::Acquire) == 0 {
                            return None;
                        }
                        std::thread::yield_now();
                    };
                    let push = |local: &mut Worker<NodeTask>, children: Vec<NodeTask>| {
                        // Children become visible before their parent
                        // retires, so `pending` never dips to zero
                        // while work remains.
                        pending.fetch_add(children.len(), Ordering::AcqRel);
                        for child in children {
                            local.push(child);
                        }
                        pending.fetch_sub(1, Ordering::AcqRel);
                    };
                    let mut acc = WalkAccum::default();
                    if let Err(msg) = self.drain(&mut local, &mut acc, por, pop, push) {
                        panicked.lock().expect("panic slot").get_or_insert(msg);
                        abort.store(true, Ordering::Release);
                    }
                    acc
                }));
            }
            for h in handles {
                accums.push(h.join().expect("worker panics are captured per-node"));
            }
        })
        .expect("crossbeam scope");

        self.conclude(accums, panicked.into_inner().expect("panic slot"))
    }

    /// The walk on the caller's thread — [`run`](ModelChecker::run) and
    /// the parallel engine's small-space fast path: an exact pre-order
    /// walk that keeps `run_parallel`'s contract — panics surface as
    /// [`ParallelPanic`] naming the offending schedule with partial
    /// progress attached, and the accumulator list is padded to
    /// `threads` entries so the per-worker metric keys exist either
    /// way.
    fn run_serial_for(
        &self,
        threads: usize,
        por: Option<&PorRun>,
    ) -> Result<ModelCheckReport, Box<ParallelPanic>> {
        let mut acc = WalkAccum::default();
        let mut stack = vec![self.root_task()];
        let panicked = self
            .drain(
                &mut stack,
                &mut acc,
                por,
                |stack, _| stack.pop(),
                // LIFO stack: reversed children keep the visit in
                // canonical pre-order.
                |stack, children| stack.extend(children.into_iter().rev()),
            )
            .err();
        let mut accums = vec![acc];
        accums.resize_with(threads, WalkAccum::default);
        self.conclude(accums, panicked)
    }

    /// The seed engine: replays every schedule independently from frame
    /// 0 — O(schedules × horizon) frames. Kept as the executable
    /// specification of the optimized engines (the equivalence tests
    /// diff their reports against this one) and as the baseline for
    /// speedup measurements. Elides the same no-op-equivalent schedules
    /// the tree walk elides, so the reports agree exactly.
    pub fn run_reference(&self) -> ModelCheckReport {
        let mut acc = WalkAccum::default();
        for schedule in self.schedule_iter() {
            if self.contains_noop(&schedule) {
                acc.cases_elided += 1;
                continue;
            }
            acc.cases_run += 1;
            acc.frames_simulated += self.horizon;
            if let Some(failure) = self.run_case(&schedule) {
                acc.failures.push(failure);
            }
        }
        self.finish(vec![acc], true)
    }

    /// Whether any event in the schedule sets a factor to the value it
    /// already holds at that point — the static mirror of the dynamic
    /// elision check (valid because schedule events are the only
    /// environment changes during model checking).
    fn contains_noop(&self, schedule: &Schedule) -> bool {
        let mut env = self.spec.initial_env().clone();
        for (_, factor, value) in &schedule.0 {
            if env.get(factor) == Some(value.as_str()) {
                return true;
            }
            env.set(factor.clone(), value.clone());
        }
        false
    }

    fn run_case(&self, schedule: &Schedule) -> Option<CaseFailure> {
        let violations = self.check_case(&self.case(schedule));
        if violations.is_empty() {
            None
        } else {
            Some(CaseFailure {
                schedule: schedule.clone(),
                violations,
            })
        }
    }

    /// The case a schedule labels: its environment changes over the
    /// checker's horizon, under the checker's installed fault plan.
    pub fn case(&self, schedule: &Schedule) -> Scenario {
        let mut case =
            Scenario::new("model-check", self.horizon).with_faults(self.fault_plan.clone());
        for (frame, factor, value) in &schedule.0 {
            case = case.set_env(*frame, factor.clone(), value.clone());
        }
        case
    }

    /// Replays one case on a fresh system under the checker's policies
    /// and returns the finished system. `observed` forces the
    /// observability layer on: counterexample replays capture a journal
    /// even when the exhaustive loop explores dark.
    fn replay(&self, case: &Scenario, observed: bool) -> System {
        case.run_with(self.builder(observed))
            .expect("case stimuli are valid for the checker's spec")
    }

    /// Runs one case from frame 0 under the checker's policies and
    /// checks SP1–SP4 plus the open-reconfiguration property on its
    /// trace. The case's own fault and failpoint plans apply, not the
    /// checker's. This is the oracle the reference engine and the
    /// flight recorder's shrinker call per candidate.
    ///
    /// # Panics
    ///
    /// Panics if a stimulus names a factor, value or processor the
    /// checker's specification does not declare.
    pub fn check_case(&self, case: &Scenario) -> Vec<PropertyViolation> {
        collect_violations(&self.replay(case, false))
    }

    /// The flight recorder: shrinks a failing case to 1-minimal form
    /// (recording every attempt as a [`ShrinkStep`]), replays it with
    /// observability on, and packages the original and minimized
    /// cases, lineage, journal, per-frame verdicts, and causal chain
    /// into the [`Counterexample`] artifact.
    fn record_counterexample(&self, case: Scenario) -> Counterexample {
        let mut shrink_steps = Vec::new();
        let minimized = case.shrink(|action, candidate| {
            let kept = !self.check_case(candidate).is_empty();
            shrink_steps.push(ShrinkStep {
                action,
                candidate: candidate.clone(),
                kept,
            });
            kept
        });
        let system = self.replay(&minimized, true);
        let violations = collect_violations(&system);
        let journal = system.journal().clone();
        let frame_verdicts = Counterexample::derive_frame_verdicts(&violations, self.horizon);
        let causal_chain = Counterexample::derive_causal_chain(&journal, &violations, self.horizon);
        Counterexample {
            case,
            minimized,
            violations,
            shrink_steps,
            journal,
            frame_verdicts,
            causal_chain,
        }
    }
}

/// Elapsed nanoseconds since `started`, clamped into `u64`.
fn span_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Checks SP1–SP4 plus the open-reconfiguration property on a finished
/// system's trace, through the unified oracle's exhaustive profile.
fn collect_violations(system: &System) -> Vec<PropertyViolation> {
    InvariantOracle::new(system.spec_arc(), OracleProfile::Exhaustive).check(system.trace())
}

/// An analytic schedule count exceeded `usize::MAX`.
///
/// Raised by [`ModelChecker::try_total_schedule_count`] (and the
/// internal subtree counting it shares with the walk engines' elision
/// and merge accounting) when `Σₖ C(frames_left, k) · eᵏ` overflows.
/// The parameters identify the subtree whose count blew up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountOverflow {
    /// Frames still available for event placement in the subtree.
    pub frames_left: usize,
    /// Distinct events available per frame (factors × domain values).
    pub events_per_frame: usize,
    /// Events the budget still allows in the subtree.
    pub depth_left: usize,
}

impl fmt::Display for CountOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule count overflows usize: {} frames x {} events/frame, \
             up to {} more events",
            self.frames_left, self.events_per_frame, self.depth_left
        )
    }
}

impl std::error::Error for CountOverflow {}

/// C(n, k) with checked arithmetic: `None` if the exact value (or the
/// single-step product `C(n, i) · (n - i)` on the way to it, which is
/// at most `k` times larger) does not fit in a `usize`. Conservative
/// by at most that factor, never silently wrong.
fn checked_binomial(n: usize, k: usize) -> Option<usize> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut result = 1usize;
    for i in 0..k {
        result = result.checked_mul(n - i)? / (i + 1);
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioAction;
    use crate::scram::ScramMutation;
    use crate::spec::{AppDecl, Configuration, FunctionalSpec};
    use arfs_failstop::ProcessorId;
    use arfs_rtos::Ticks;

    fn small_spec() -> ReconfigSpec {
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["good", "bad"])
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("full"))
                    .spec(FunctionalSpec::new("deg")),
            )
            .config(
                Configuration::new("full")
                    .assign("a", "full")
                    .place("a", ProcessorId::new(0)),
            )
            .config(
                Configuration::new("safe")
                    .assign("a", "deg")
                    .place("a", ProcessorId::new(0))
                    .safe(),
            )
            .transition("full", "safe", Ticks::new(600))
            .transition("safe", "full", Ticks::new(600))
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .min_dwell_frames(1)
            .build()
            .unwrap()
    }

    #[test]
    fn schedule_enumeration_counts() {
        let mc = ModelChecker::new(small_spec(), 12, 1);
        // protocol = 4 + 1 dwell; last event frame = 12 - 6 = 6.
        // 6 frames x 1 factor x 2 values = 12 single-event schedules + 1
        // empty.
        let schedules = mc.schedules();
        assert_eq!(schedules.len(), 13);
        assert_eq!(schedules[0], Schedule(Vec::new()));
        assert_eq!(mc.total_schedule_count(), 13);
        assert_eq!(mc.horizon(), 12);
    }

    #[test]
    fn schedule_count_overflow_is_an_explicit_condition() {
        // A deliberately overflowing space: at horizon 2^40 with a
        // 30-event budget, Σₖ C(frames,k)·2ᵏ blows through usize well
        // before k reaches 30. The checked path must say so rather
        // than return a silently saturated (or, worse, wrapped) count.
        let mc = ModelChecker::new(small_spec(), 1 << 40, 30);
        let err = mc
            .try_total_schedule_count()
            .expect_err("2^40 frames x 30 events must overflow");
        assert_eq!(err.events_per_frame, 2);
        assert_eq!(err.depth_left, 30);
        assert!(err.frames_left > (1 << 39));
        assert!(err.to_string().contains("overflows usize"));
        // The lossy accessor saturates instead of wrapping.
        assert_eq!(mc.total_schedule_count(), usize::MAX);
        // And the walk-side accounting records the condition in the
        // accumulator (the report's `count_overflowed` flag).
        let mut acc = WalkAccum::default();
        assert_eq!(mc.subtree_count_recorded(0, 30, &mut acc), usize::MAX);
        assert!(acc.count_overflowed);
        // Small spaces stay exact and unflagged.
        let small = ModelChecker::new(small_spec(), 12, 1);
        assert_eq!(small.try_total_schedule_count(), Ok(13));
        let mut acc = WalkAccum::default();
        assert_eq!(small.subtree_count_recorded(0, 1, &mut acc), 13);
        assert!(!acc.count_overflowed);
        let report = small.run();
        assert!(!report.count_overflowed);
    }

    #[test]
    fn checked_binomial_detects_overflow() {
        assert_eq!(checked_binomial(6, 2), Some(15));
        assert_eq!(checked_binomial(2, 6), Some(0));
        assert_eq!(checked_binomial(64, 0), Some(1));
        assert_eq!(checked_binomial(68, 34), None); // C(68,34) > 2^64
        assert_eq!(checked_binomial(1 << 40, 8), None);
    }

    #[test]
    fn short_horizon_yields_only_the_quiescent_schedule() {
        // protocol = 4 + 1 dwell. A horizon of 6 leaves no frame with
        // enough tail for a triggered reconfiguration to complete, so
        // nothing may be scheduled (the pre-fix clamp forced events onto
        // frame 1 anyway, producing 3 schedules here).
        for horizon in 1..=6 {
            let mc = ModelChecker::new(small_spec(), horizon, 1);
            assert_eq!(
                mc.schedules(),
                vec![Schedule(Vec::new())],
                "horizon {horizon}"
            );
        }
        // The first horizon with tail room schedules events again.
        let mc = ModelChecker::new(small_spec(), 7, 1);
        assert_eq!(mc.schedules().len(), 3);
    }

    #[test]
    fn two_event_schedules_have_increasing_frames() {
        let mc = ModelChecker::new(small_spec(), 12, 2);
        for Schedule(events) in mc.schedules() {
            for pair in events.windows(2) {
                assert!(pair[0].0 < pair[1].0);
            }
            assert!(events.len() <= 2);
        }
    }

    #[test]
    fn streaming_enumeration_is_preorder_and_complete() {
        let mc = ModelChecker::new(small_spec(), 12, 2);
        let schedules = mc.schedules();
        // Analytic count: Σₖ C(6,k)·2^k = 1 + 12 + 60.
        assert_eq!(schedules.len(), 73);
        assert_eq!(mc.total_schedule_count(), 73);
        // Pre-order: every schedule's immediate prefix appears earlier.
        for (i, s) in schedules.iter().enumerate() {
            if s.0.is_empty() {
                continue;
            }
            let prefix = Schedule(s.0[..s.0.len() - 1].to_vec());
            let at = schedules.iter().position(|x| *x == prefix).unwrap();
            assert!(at < i, "prefix of {s} enumerated after it");
        }
        // No duplicates.
        for (i, a) in schedules.iter().enumerate() {
            assert!(!schedules[i + 1..].contains(a), "duplicate {a}");
        }
    }

    #[test]
    fn correct_protocol_passes_exhaustively() {
        let mc = ModelChecker::new(small_spec(), 14, 2);
        let report = mc.run();
        // protocol tail leaves frames 1..=8; Σₖ C(8,k)·2^k = 145... the
        // bounded space is 1 + 16 + 112 = 129 schedules, of which the
        // walk explores the 37 with no no-op events.
        assert_eq!(report.cases_total(), 129);
        assert_eq!(report.cases_run, 37);
        assert_eq!(report.cases_elided, 92);
        assert!(report.all_passed(), "{report}");
        assert!(report.to_string().contains("hold on all"));
    }

    #[test]
    fn prefix_sharing_simulates_far_fewer_frames_than_replay() {
        // The acceptance bound: the tree walk must simulate fewer than
        // 0.4 × (total schedules × horizon) frames — a ≥ 2.5× reduction
        // over the seed engine, which replays every explored schedule
        // from frame 0.
        let mc = ModelChecker::new(small_spec(), 14, 1);
        let report = mc.run();
        let replay_frames = (report.cases_total() as u64) * mc.horizon();
        assert!(
            (report.frames_simulated as f64) < 0.4 * replay_frames as f64,
            "walk simulated {} frames vs replay {}",
            report.frames_simulated,
            replay_frames
        );
        // And the same holds for node count vs schedule count trivially.
        assert!(report.cases_run < report.cases_total());
    }

    #[test]
    fn tree_walk_matches_reference_engine() {
        let mc = ModelChecker::new(small_spec(), 14, 2);
        let reference = mc.run_reference();
        let walk = mc.run();
        assert_eq!(reference, walk);
        // The point of the exercise: same verdict, meaningfully fewer
        // frames (at this depth the prefix savings concentrate near the
        // root, so the ratio is gentler than the single-event case).
        assert!(walk.frames_simulated * 3 < reference.frames_simulated * 2);
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let mc = ModelChecker::new(small_spec(), 12, 2);
        let seq = mc.run();
        let par = mc.run_parallel(4);
        // Full report equality: same cases, same failures, same order —
        // the determinism `run_parallel` documents. The work measure is
        // deterministic too: both engines walk the same trie.
        assert_eq!(seq, par);
        assert_eq!(seq.frames_simulated, par.frames_simulated);
    }

    #[test]
    fn parallel_failure_order_matches_sequential() {
        // A mutated kernel fails many schedules; work-stealing
        // exploration must reassemble them in enumeration order.
        let mc = ModelChecker::new(small_spec(), 12, 2).with_mutation(ScramMutation::SkipInitPhase);
        let seq = mc.run();
        assert!(!seq.all_passed());
        assert!(seq.failures.len() > 1);
        for threads in [2, 3, 8] {
            assert_eq!(seq, mc.run_parallel(threads), "threads={threads}");
        }
    }

    #[test]
    fn every_policy_combination_passes_exhaustively() {
        use crate::scram::{MidReconfigPolicy, StagePolicy, SyncPolicy};
        for mid in [
            MidReconfigPolicy::BufferUntilComplete,
            MidReconfigPolicy::ImmediateRetarget,
        ] {
            for (sync, stage) in [
                (SyncPolicy::Simultaneous, StagePolicy::Signalled),
                (SyncPolicy::Simultaneous, StagePolicy::CompressedPrepareInit),
                (SyncPolicy::PhaseChecked, StagePolicy::Signalled),
            ] {
                let mc = ModelChecker::new(small_spec(), 14, 1).with_policies(mid, sync, stage);
                let report = mc.run();
                assert!(report.all_passed(), "{mid:?}/{sync:?}/{stage:?}: {report}");
            }
        }
    }

    #[test]
    fn mutated_kernel_fails_model_check() {
        let mc = ModelChecker::new(small_spec(), 12, 1).with_mutation(ScramMutation::SkipInitPhase);
        let report = mc.run();
        assert!(!report.all_passed());
        assert!(report.to_string().contains("violated"));
    }

    #[test]
    fn worker_panic_names_the_offending_schedule() {
        // PanicOnTrigger aborts the kernel the moment a schedule's event
        // actually triggers a reconfiguration; the parallel engine must
        // attribute the crash to that schedule instead of losing it in a
        // bare join error.
        let mc =
            ModelChecker::new(small_spec(), 12, 1).with_mutation(ScramMutation::PanicOnTrigger);
        let result = std::panic::catch_unwind(|| mc.run_parallel(2));
        let payload = result.expect_err("a triggering schedule must panic the worker");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is the formatted message");
        assert!(
            message.contains("model-check worker panicked on schedule"),
            "{message}"
        );
        assert!(message.contains("power:=bad"), "{message}");
    }

    #[test]
    fn flight_recorder_packages_a_counterexample() {
        let mc = ModelChecker::new(small_spec(), 12, 2).with_mutation(ScramMutation::SkipInitPhase);
        let report = mc.run();
        assert!(!report.all_passed());
        let ce = report.counterexample.as_ref().expect("recorder is on");
        // The artifact describes the first failure in canonical order...
        assert_eq!(ce.case, mc.case(&report.failures[0].schedule));
        // ...shrunk no larger than the original and still failing.
        assert!(ce.minimized.events().len() <= ce.case.events().len());
        assert!(!ce.violations.is_empty());
        assert!(
            !mc.check_case(&ce.minimized).is_empty(),
            "minimized case must still violate"
        );
        // The replay journaled, and the chain ends at a violating frame.
        assert!(!ce.journal.events().is_empty());
        let violating = ce.violating_frame().expect("chain has a violation link");
        assert!(violating < mc.horizon());
        assert!(ce.frame_verdicts.len() as u64 == mc.horizon());
        assert!(!ce.frame_verdicts[violating as usize].violated.is_empty());
        // 1-minimality: the minimized case is a fixpoint of the
        // shrinker, so dropping any single event loses the violation.
        let reshrunk = ce.minimized.shrink(|_, c| !mc.check_case(c).is_empty());
        assert_eq!(reshrunk, ce.minimized);
        assert!(report.to_string().contains(&format!(
            "counterexample: `{}` minimized to `{}`",
            ce.case.events_line(),
            ce.minimized.events_line()
        )));
    }

    #[test]
    fn counterexample_keeps_a_processor_failure_and_replays_from_json() {
        // Failing P1 drives the system into `solo`; with the Init phase
        // skipped that reconfiguration violates SP4, so the failure is
        // the case's one essential event.
        let spec = crate::system::tests::processor_status_spec();
        let mc = ModelChecker::new(spec, 12, 1).with_mutation(ScramMutation::SkipInitPhase);
        let case = mc
            .case(&Schedule(Vec::new()))
            .fail_processor(3, ProcessorId::new(1));
        let ce = mc.record_counterexample(case.clone());
        assert_eq!(ce.case, case);
        assert!(!ce.violations.is_empty());
        let failure = ScenarioAction::FailProcessor(ProcessorId::new(1));
        assert!(matches!(ce.minimized.events(), [e] if e.action == failure));
        let back = Counterexample::from_json_str(&ce.to_json_pretty()).expect("round trip");
        assert_eq!(back, ce);
        assert_eq!(mc.check_case(&back.minimized), ce.violations);
        assert!(!mc.check_case(&back.case).is_empty());
    }

    #[test]
    fn flight_recorder_can_be_disabled() {
        let mc = ModelChecker::new(small_spec(), 12, 1)
            .with_mutation(ScramMutation::SkipInitPhase)
            .with_flight_recorder(false);
        let report = mc.run();
        assert!(!report.all_passed());
        assert!(report.counterexample.is_none());
        // A passing run records nothing either, recorder on or off.
        let clean = ModelChecker::new(small_spec(), 12, 1).run();
        assert!(clean.counterexample.is_none());
    }

    #[test]
    fn walk_profiler_reports_spans_and_worker_counters() {
        let mc = ModelChecker::new(small_spec(), 12, 2);
        let seq = mc.run();
        for key in [
            "walk.span.fork_ns",
            "walk.span.advance_ns",
            "walk.span.check_ns",
        ] {
            assert!(
                seq.metrics.counters.contains_key(key),
                "missing span counter {key}"
            );
        }
        assert_eq!(seq.metrics.counters["walk.cases_run"], seq.cases_run as u64);
        assert_eq!(
            seq.metrics.counters["walk.worker.0.runs"],
            seq.cases_run as u64
        );
        assert_eq!(seq.metrics.counters["walk.worker.0.steals"], 0);

        let par = mc.run_parallel(3);
        let runs: u64 = (0..3)
            .map(|w| par.metrics.counters[&format!("walk.worker.{w}.runs")])
            .sum();
        assert_eq!(runs, par.cases_run as u64);
    }

    #[test]
    fn parallel_panic_surfaces_partial_progress() {
        // PanicOnTrigger only fires once a schedule's event actually
        // triggers a reconfiguration, so the root (quiescent) node
        // always completes first: the partial report deterministically
        // carries at least that case, and the per-worker accumulators
        // merge into its metrics instead of being discarded.
        let mc =
            ModelChecker::new(small_spec(), 12, 1).with_mutation(ScramMutation::PanicOnTrigger);
        let err = mc
            .try_run_parallel(2)
            .expect_err("a triggering schedule must panic the worker");
        assert!(
            err.message
                .contains("model-check worker panicked on schedule"),
            "{}",
            err.message
        );
        assert!(err.message.contains("before abort"), "{}", err.message);
        assert!(err.partial.cases_run >= 1);
        assert!(err.partial.counterexample.is_none());
        assert_eq!(
            err.partial.metrics.counters["walk.cases_run"],
            err.partial.cases_run as u64
        );
        let worker_runs: u64 = (0..2)
            .map(|w| err.partial.metrics.counters[&format!("walk.worker.{w}.runs")])
            .sum();
        assert_eq!(worker_runs, err.partial.cases_run as u64);
        assert_eq!(err.to_string(), err.message);
    }

    #[test]
    fn counterexample_is_deterministic_across_engines() {
        let mc = ModelChecker::new(small_spec(), 12, 2).with_mutation(ScramMutation::SkipInitPhase);
        let serial = mc.run().counterexample.expect("serial counterexample");
        let parallel = mc
            .run_parallel(4)
            .counterexample
            .expect("parallel counterexample");
        assert_eq!(serial.to_json_pretty(), parallel.to_json_pretty());
    }

    #[test]
    fn report_display_stays_truthful_about_elision() {
        let passed = ModelCheckReport {
            cases_run: 37,
            cases_elided: 92,
            ..ModelCheckReport::default()
        };
        assert_eq!(
            passed.to_string(),
            "SP1-SP4 hold on all 37 explored schedules (92 elided as no-op-equivalent)"
        );
        let no_elision = ModelCheckReport {
            cases_run: 13,
            ..ModelCheckReport::default()
        };
        assert_eq!(
            no_elision.to_string(),
            "SP1-SP4 hold on all 13 explored schedules"
        );
        let failed = ModelCheckReport {
            cases_run: 9,
            cases_elided: 8,
            failures: vec![CaseFailure {
                schedule: Schedule(vec![(3, "power".into(), "bad".into())]),
                violations: Vec::new(),
            }],
            ..ModelCheckReport::default()
        };
        let rendered = failed.to_string();
        assert!(
            rendered.contains(
                "1 of 9 explored schedules violated a property (8 elided as no-op-equivalent):"
            ),
            "{rendered}"
        );
        assert!(rendered.contains("@3 power:=bad"), "{rendered}");
        let merged = ModelCheckReport {
            cases_run: 5,
            cases_merged: 4,
            ..ModelCheckReport::default()
        };
        assert_eq!(
            merged.to_string(),
            "SP1-SP4 hold on all 5 explored schedules (4 merged by partial-order reduction)"
        );
    }

    #[test]
    fn schedule_display() {
        assert_eq!(Schedule(Vec::new()).to_string(), "(no events)");
        let s = Schedule(vec![(3, "power".into(), "bad".into())]);
        assert_eq!(s.to_string(), "@3 power:=bad");
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn zero_horizon_panics() {
        let _ = ModelChecker::new(small_spec(), 0, 1);
    }

    /// Three service levels so a safe-state fallback is observable: the
    /// choice function points at "mid" but the fallback lands in
    /// "safe", which SP2 distinguishes.
    fn three_level_spec() -> ReconfigSpec {
        let mut b = ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["good", "degraded", "bad"])
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("full"))
                    .spec(FunctionalSpec::new("reduced"))
                    .spec(FunctionalSpec::new("minimal")),
            )
            .min_dwell_frames(1);
        let configs = [("full", "full"), ("mid", "reduced"), ("safe", "minimal")];
        for (i, (name, spec)) in configs.iter().enumerate() {
            let mut config = Configuration::new(*name)
                .assign("a", *spec)
                .place("a", ProcessorId::new(0));
            if i == configs.len() - 1 {
                config = config.safe();
            }
            b = b.config(config);
        }
        for (from, _) in &configs {
            for (to, _) in &configs {
                if from != to {
                    b = b.transition(*from, *to, Ticks::new(600));
                }
            }
        }
        b.choose_when("power", "good", "full")
            .choose_when("power", "degraded", "mid")
            .choose_when("power", "bad", "safe")
            .initial_config("full")
            .initial_env([("power", "good")])
            .build()
            .expect("three-level spec is structurally valid")
    }

    fn torn_write_plan(frame: u64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        plan.push(
            frame,
            crate::chaos::FaultKind::CommitFault {
                app: crate::AppId::new("a"),
            },
        );
        plan
    }

    #[test]
    fn chaos_campaign_within_budget_passes_with_zero_fallbacks() {
        // Acceptance: h >= 10, schedules x a nonempty plan, defenses at
        // their defaults — SP1-SP4 hold and no schedule ever needed the
        // safe-state fallback. The torn write lands mid-protocol for
        // early-event schedules, so the retry path genuinely runs.
        let mc = ModelChecker::new(three_level_spec(), 12, 1).with_fault_plan(torn_write_plan(3));
        let report = mc.run();
        assert!(report.all_passed(), "{report}");
        assert_eq!(report, mc.run_parallel(3));

        let mut retries = 0u64;
        for schedule in mc.schedule_iter() {
            if mc.contains_noop(&schedule) {
                continue;
            }
            let system = mc.replay(&mc.case(&schedule), true);
            assert_eq!(
                system.journal().of_kind("safe-fallback").count(),
                0,
                "schedule {schedule} fell back to the safe state"
            );
            retries += system.journal().of_kind("commit-retry").count() as u64;
        }
        assert!(retries > 0, "the campaign never exercised the retry path");
    }

    #[test]
    fn zero_retry_budget_campaign_shrinks_to_a_minimal_fault_and_schedule() {
        // Retry budget 0: the same plan aborts an in-flight
        // reconfiguration to "mid" into the safe state, and SP2 flags
        // the divergence. The flight recorder shrinks schedule and
        // fault plan jointly to a 1-minimal pair.
        let defense = ChaosDefense {
            retry_budget_frames: 0,
            ..ChaosDefense::default()
        };
        let mc = ModelChecker::new(three_level_spec(), 12, 1)
            .with_fault_plan(torn_write_plan(3))
            .with_chaos_defense(defense);
        let report = mc.run();
        assert!(!report.all_passed());
        let ce = report.counterexample.as_ref().expect("recorder is on");
        assert_eq!(ce.case.faults(), mc.fault_plan());
        assert_eq!(ce.minimized.events().len(), 1);
        assert_eq!(ce.minimized.faults().len(), 1);
        // Joint 1-minimality: the case still fails and is a fixpoint of
        // the shrinker, so dropping the event or the fault each loses
        // the violation.
        assert!(!mc.check_case(&ce.minimized).is_empty());
        let reshrunk = ce.minimized.shrink(|_, c| !mc.check_case(c).is_empty());
        assert_eq!(reshrunk, ce.minimized);
        // The shrink lineage records fault-side attempts too.
        assert!(ce.shrink_steps.iter().any(|s| matches!(
            s.action,
            crate::obs::ShrinkAction::RemoveFault { .. }
                | crate::obs::ShrinkAction::ShiftFaultLeft { .. }
        )));
        // The replayed journal carries the chaos causal kinds.
        assert!(ce.journal.of_kind("torn-write").count() >= 1);
        assert!(ce.journal.of_kind("safe-fallback").count() >= 1);
        assert!(ce
            .causal_chain
            .iter()
            .any(|l| l.role == "torn-write" || l.role == "safe-fallback"));
    }

    /// `telemetry` never appears in a choice rule, so the certificate
    /// collapses its domain to one class: every telemetry event is
    /// behaviorally inert and POR merges its whole subtree.
    fn inert_factor_spec() -> ReconfigSpec {
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["good", "bad"])
            .env_factor("telemetry", ["on", "off"])
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("full"))
                    .spec(FunctionalSpec::new("deg")),
            )
            .config(
                Configuration::new("full")
                    .assign("a", "full")
                    .place("a", ProcessorId::new(0)),
            )
            .config(
                Configuration::new("safe")
                    .assign("a", "deg")
                    .place("a", ProcessorId::new(0))
                    .safe(),
            )
            .transition("full", "safe", Ticks::new(600))
            .transition("safe", "full", Ticks::new(600))
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good"), ("telemetry", "on")])
            .min_dwell_frames(1)
            .build()
            .unwrap()
    }

    #[test]
    fn por_merges_inert_subtrees_and_accounts_for_the_whole_space() {
        let plain = ModelChecker::new(inert_factor_spec(), 14, 2);
        let reduced = ModelChecker::new(inert_factor_spec(), 14, 2).with_por();
        let full = plain.run();
        let por = reduced.run();

        // Soundness: same verdict; completeness of the accounting: every
        // schedule in the bounded space is run, elided, or merged.
        assert!(full.all_passed(), "{full}");
        assert!(por.all_passed(), "{por}");
        assert_eq!(por.cases_total(), plain.total_schedule_count());
        assert_eq!(full.cases_total(), por.cases_total());

        // The point of the exercise: the inert factor's subtrees are
        // merged, not simulated.
        assert!(por.cases_merged > 0, "{por}");
        assert!(por.cases_run < full.cases_run, "{por} vs {full}");
        assert!(por.frames_simulated < full.frames_simulated);
        assert_eq!(
            por.metrics.counters["walk.cases_merged"],
            por.cases_merged as u64
        );
        assert_eq!(full.cases_merged, 0);
        assert!(por
            .to_string()
            .contains("merged by partial-order reduction"));
    }

    #[test]
    fn por_preserves_the_failure_verdict_under_mutation() {
        // The dynamic soundness oracle in miniature: a mutated kernel
        // must fail identically with reduction on — same first failure
        // in canonical order, every reduced failure present unreduced.
        let plain = ModelChecker::new(small_spec(), 12, 2)
            .with_mutation(ScramMutation::SkipInitPhase)
            .with_flight_recorder(false);
        let reduced = ModelChecker::new(small_spec(), 12, 2)
            .with_mutation(ScramMutation::SkipInitPhase)
            .with_flight_recorder(false)
            .with_por();
        let full = plain.run();
        let por = reduced.run();

        assert!(!full.all_passed());
        assert!(!por.all_passed());
        assert_eq!(por.failures[0], full.failures[0], "first failure drifted");
        for failure in &por.failures {
            assert!(
                full.failures.contains(failure),
                "reduced run invented a failure: {}",
                failure.schedule
            );
        }
        assert_eq!(por.cases_total(), plain.total_schedule_count());
    }

    #[test]
    fn por_parallel_agrees_with_por_serial() {
        // h16 pushes the space past SERIAL_CUTOVER, so the true
        // work-stealing path runs with the shared visited set.
        let mc = ModelChecker::new(inert_factor_spec(), 16, 2).with_por();
        assert!(mc.total_schedule_count() >= SERIAL_CUTOVER);
        let seq = mc.run();
        let par = mc.run_parallel(4);
        assert_eq!(seq.cases_run, par.cases_run);
        assert_eq!(seq.cases_elided, par.cases_elided);
        assert_eq!(seq.cases_merged, par.cases_merged);
        assert_eq!(seq.failures, par.failures);
        assert!(seq.all_passed() && par.all_passed());
    }

    #[test]
    fn stale_certificate_is_rejected_fresh_one_accepted() {
        let foreign = crate::lint::independence::IndependenceCertificate::build(&small_spec());
        let err = ModelChecker::new(three_level_spec(), 12, 1)
            .with_certificate(foreign)
            .expect_err("a certificate for another spec must be refused");
        assert!(!err.matches_spec(&three_level_spec()));

        let fresh = crate::lint::independence::IndependenceCertificate::build(&small_spec());
        let mc = ModelChecker::new(small_spec(), 12, 1)
            .with_certificate(fresh)
            .expect("matching certificate installs");
        let report = mc.run();
        assert!(report.all_passed(), "{report}");
        assert_eq!(report.cases_total(), mc.total_schedule_count());
    }

    #[test]
    fn small_space_parallel_fast_path_matches_the_walk() {
        // h12/e1 sits far below SERIAL_CUTOVER: run_parallel takes the
        // caller-thread fast path but must report identically, padded
        // per-worker metric keys included.
        let mc = ModelChecker::new(small_spec(), 12, 1);
        assert!(mc.total_schedule_count() < SERIAL_CUTOVER);
        let seq = mc.run();
        let par = mc.run_parallel(3);
        assert_eq!(seq, par);
        assert_eq!(seq.frames_simulated, par.frames_simulated);
        for w in 0..3 {
            assert!(par
                .metrics
                .counters
                .contains_key(&format!("walk.worker.{w}.runs")));
        }
        assert_eq!(par.metrics.counters["walk.worker.1.runs"], 0);
    }

    #[test]
    fn chaos_counterexample_is_byte_identical_across_engines() {
        let defense = ChaosDefense {
            retry_budget_frames: 0,
            ..ChaosDefense::default()
        };
        let mc = ModelChecker::new(three_level_spec(), 12, 1)
            .with_fault_plan(torn_write_plan(3))
            .with_chaos_defense(defense);
        let serial = mc.run().counterexample.expect("serial counterexample");
        let parallel = mc
            .run_parallel(3)
            .counterexample
            .expect("parallel counterexample");
        assert_eq!(serial.to_json_pretty(), parallel.to_json_pretty());
    }
}
