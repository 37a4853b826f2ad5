//! The traced run: per-layer numbers, timed from the benchmark's own
//! code around calls into each layer's public functions.
//!
//! A fleet workload's traced run has three parts, all on the same seed:
//!
//! 1. one untraced batch, whose `FleetReport` and `FleetTimings` give
//!    the exact counts and the journal and aggregation times;
//! 2. the real `Fleet`, stepped through `Fleet::advance_frame` with one
//!    span per lockstep frame;
//! 3. a replica of the per-cell step built only from public calls. One
//!    frame in [`TRACE_EVERY`] records a span around every call into
//!    `System` and `StreamVerifier`; the frames between record only
//!    their own span. A fast frame takes little more than a hundred
//!    nanoseconds, so timing every call would cost more than it
//!    measures; counts are kept for every frame.
//!
//! Parts 2 and 3 advance together, a fleet frame then the same replica
//! frame, so that the host's speed drifts out of their comparison; so
//! do traced and untraced replica frames. The difference of the replica
//! frames' means is the tracing overhead; spread over the call spans it
//! is the cost of one span, which is subtracted from each call. The
//! fleet frame makes the same calls on the same states as the replica,
//! so its mean less the calls' cost is the fleet loop's own time. The
//! replica must reach the untraced report's counts exactly, or the run
//! fails.

use std::sync::Arc;

use arfs_core::chaos::FaultPlan;
use arfs_core::fleet::{Fleet, FleetConfig, StreamVerifier};
use arfs_core::lint::IndependenceCertificate;
use arfs_core::model::ModelChecker;
use arfs_core::scenario::{ScenarioAction, ScenarioEvent};
use arfs_core::spec::ReconfigSpec;
use arfs_core::system::System;
use arfs_core::workload;

use crate::spans::{self, Totals, Tracer};
use crate::workloads::{self, Workload};
use crate::{host, Metric, Outcome};

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not execute reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("fleet.frame_loop_s", "s"),
    ("fleet.loop_self_ns_per_frame", "ns"),
    ("fleet.unattributed_share", "ratio"),
    ("fleet.parallel_efficiency", "ratio"),
    ("system.fast_frames", "count"),
    ("system.fast_share", "ratio"),
    ("system.fast_frame_ns", "ns"),
    ("system.full_frames", "count"),
    ("system.full_frame_ns", "ns"),
    ("system.stimulus_ns", "ns"),
    ("fleet.defense_events", "count"),
    ("verifier.observe_full_ns", "ns"),
    ("verifier.observe_fast_ns", "ns"),
    ("verifier.finish_ns", "ns"),
    ("fleet.reconfigs", "count"),
    ("fleet.restricted_frames", "count"),
    ("fleet.violations", "count"),
    ("fleet.journal_finish_s", "s"),
    ("fleet.aggregate_s", "s"),
    ("fleet.journal_events", "count"),
    ("fleet.journal_bytes", "bytes"),
    ("fleet.bundles", "count"),
    ("setup.scenario_s", "s"),
    ("setup.system_build_s", "s"),
    ("lint.certificate_s", "s"),
    ("model.cases_run", "count"),
    ("model.cases_merged", "count"),
    ("model.cases_elided", "count"),
    ("model.frames_simulated", "count"),
    ("model.frames_per_schedule", "frames"),
    ("model.ns_per_frame", "ns"),
    ("model.fork_s", "s"),
    ("model.advance_s", "s"),
    ("model.check_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.span_cost_ns", "ns"),
];

/// One replica frame in this many records a span around every call of
/// every cell; the frames between record only their own span.
const TRACE_EVERY: u64 = 4;

/// The spans around calls into `System` and `StreamVerifier` on the
/// frame loop.
const CALLS: [&str; 5] = [
    "system.stimulus",
    "system.fast_frame",
    "system.full_frame",
    "verifier.observe_fast",
    "verifier.observe_full",
];

pub fn run(w: Workload, seed: u64) -> Outcome {
    let mut run = TracedRun {
        metrics: PER_LAYER.iter().map(|&(n, u)| (n, 0.0, u)).collect(),
        attempted: 0,
        failed: 0,
    };
    match w {
        Workload::VerifyExtended => run.verify(),
        _ => run.fleet(w, seed),
    }
    Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics: run.metrics,
    }
}

struct TracedRun {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl TracedRun {
    fn set(&mut self, name: &str, value: f64) {
        let metric = self
            .metrics
            .iter_mut()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        metric.1 = value;
    }

    fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            eprintln!("check failed: {e}");
            self.failed += 1;
        }
    }

    fn fleet(&mut self, w: Workload, seed: u64) {
        // Part 1: untraced.
        let (batch, outcome) = workloads::fleet_batch(w, seed, 1);
        self.check(batch.check.clone());
        let Some((report, timings)) = outcome else {
            return;
        };
        if w.inputs() == Workload::FleetSteady {
            // The `run_parallel` pool, on the same input.
            let threads = host::nproc();
            let (parallel, _) = workloads::fleet_batch(w, seed, threads);
            self.check(parallel.check);
            self.set(
                "fleet.parallel_efficiency",
                batch.run_s / parallel.run_s / threads as f64,
            );
        }
        self.set("fleet.journal_finish_s", timings.journal_finish_secs);
        self.set("fleet.aggregate_s", timings.aggregate_secs);
        self.set("fleet.journal_events", report.journal_events as f64);
        self.set("fleet.journal_bytes", report.journal.len() as f64);
        self.set("fleet.bundles", report.bundles.len() as f64);
        self.set("fleet.reconfigs", report.reconfigs as f64);
        self.set("fleet.restricted_frames", report.restricted_frames as f64);
        self.set("fleet.violations", report.violations.len() as f64);
        let defenses = report.metrics.counters.get("fleet.defense_events");
        self.set(
            "fleet.defense_events",
            defenses.copied().unwrap_or(0) as f64,
        );

        // Parts 2 and 3: the real fleet, one span per lockstep frame, and
        // the replica, frame by frame.
        let spec = workloads::avionics();
        let config = workloads::fleet_config(w, &spec, seed, 1);
        let mut replica = Replica::build(&spec, &config);
        let mut fleet = Fleet::new(Arc::clone(&spec), config.clone()).expect("the fleet builds");
        for frame in 0..config.horizon {
            replica.tracer.open("fleet.frame");
            fleet.advance_frame(frame);
            replica.tracer.close();
            replica.frame(frame);
        }
        drop(fleet);
        let (reconfigs, violations) = replica.finish();
        let c = replica.counts;
        let fidelity = [
            ("fast frames", c.fast, report.fast_frames),
            ("full frames", c.full, report.full_frames),
            ("restricted frames", c.restricted, report.restricted_frames),
            ("reconfigurations", reconfigs, report.reconfigs),
            ("violations", violations, report.violations.len() as u64),
        ];
        for (what, replica, untraced) in fidelity {
            self.check(if replica == untraced {
                Ok(())
            } else {
                Err(format!(
                    "replica {what} {replica}, untraced report {untraced}"
                ))
            });
        }

        let totals = spans::by_name(&replica.tracer.spans);
        let get = |name: &str| totals.get(name).copied().unwrap_or_default();
        let (traced, untraced) = (get("replica.traced_frame"), get("replica.frame"));
        let real = get("fleet.frame");
        let mean = |t: Totals| t.total_ns as f64 / t.count.max(1) as f64;
        // Traced and untraced frames alternate, so host drift cancels:
        // their difference is what the call spans cost, per span.
        let calls: u64 = CALLS.iter().map(|&name| get(name).count).sum();
        let calls_per_frame = calls as f64 / traced.count.max(1) as f64;
        let span_cost = ((mean(traced) - mean(untraced)) / calls_per_frame.max(1.0)).max(0.0);
        let per_call = |name: &str| (get(name).mean_self_ns() - span_cost).max(0.0);
        let busy_s = |name: &str| get(name).total_ns as f64 / 1e9;

        let (fast, full) = (c.fast as f64, c.full as f64);
        // What the calls into `System` and `StreamVerifier` cost per
        // lockstep frame: each call's mean times its complete count.
        let calls_ns = per_call("system.stimulus") * c.stimuli as f64
            + (per_call("system.fast_frame") + per_call("verifier.observe_fast")) * fast
            + (per_call("system.full_frame") + per_call("verifier.observe_full")) * full;
        let attributed_ns = calls_ns / config.horizon as f64;
        let loop_self_ns = (mean(real) - attributed_ns).max(0.0);
        self.set("fleet.frame_loop_s", real.total_ns as f64 / 1e9);
        self.set(
            "fleet.loop_self_ns_per_frame",
            loop_self_ns / config.systems as f64,
        );
        self.set("fleet.unattributed_share", loop_self_ns / mean(real));
        self.set("system.fast_frames", fast);
        self.set("system.full_frames", full);
        self.set("system.fast_share", fast / (fast + full));
        self.set("system.fast_frame_ns", per_call("system.fast_frame"));
        self.set("system.full_frame_ns", per_call("system.full_frame"));
        self.set("system.stimulus_ns", per_call("system.stimulus"));
        self.set(
            "verifier.observe_fast_ns",
            per_call("verifier.observe_fast"),
        );
        self.set(
            "verifier.observe_full_ns",
            per_call("verifier.observe_full"),
        );
        // `finish` runs once per cell after the horizon, outside the
        // frame loop, so the in-loop span cost does not apply to it.
        self.set("verifier.finish_ns", get("verifier.finish").mean_self_ns());
        self.set("setup.scenario_s", busy_s("setup.scenario"));
        self.set("setup.system_build_s", busy_s("setup.system_build"));
        self.set("trace.overhead_share", mean(traced) / mean(untraced) - 1.0);
        self.set("trace.span_cost_ns", span_cost);
    }

    fn verify(&mut self) {
        let (untraced, _) = workloads::verify_batch();
        self.check(untraced.check);

        let mut t = Tracer::default();
        let spec =
            arfs_avionics::extended::extended_uav_spec().expect("the extended spec is valid");
        t.open("lint.certificate");
        let certificate = IndependenceCertificate::build(&spec);
        t.close();
        let checker = ModelChecker::new(
            spec,
            workloads::VERIFY_HORIZON,
            workloads::VERIFY_MAX_EVENTS,
        )
        .with_certificate(certificate)
        .expect("the certificate was built from this spec");
        let total = checker.total_schedule_count();
        t.open("model.run");
        let report = checker.run();
        t.close();
        self.check(workloads::check_verify(&report, total));

        let totals = spans::by_name(&t.spans);
        let run_ns = totals["model.run"].total_ns as f64;
        let frames = report.frames_simulated as f64;
        let walk_s =
            |name: &str| report.metrics.counters.get(name).copied().unwrap_or(0) as f64 / 1e9;
        self.set(
            "lint.certificate_s",
            totals["lint.certificate"].total_ns as f64 / 1e9,
        );
        self.set("model.cases_run", report.cases_run as f64);
        self.set("model.cases_merged", report.cases_merged as f64);
        self.set("model.cases_elided", report.cases_elided as f64);
        self.set("model.frames_simulated", frames);
        self.set(
            "model.frames_per_schedule",
            frames / report.cases_run.max(1) as f64,
        );
        self.set("model.ns_per_frame", run_ns / frames.max(1.0));
        self.set("model.fork_s", walk_s("walk.span.fork_ns"));
        self.set("model.advance_s", walk_s("walk.span.advance_ns"));
        self.set("model.check_s", walk_s("walk.span.check_ns"));
        // Every frame the checker simulates is a full frame (trace
        // recording makes the fast path ineligible).
        self.set("system.full_frames", frames);
        self.set(
            "system.full_frame_ns",
            walk_s("walk.span.advance_ns") * 1e9 / frames.max(1.0),
        );
        self.set("trace.overhead_share", run_ns / 1e9 / untraced.run_s - 1.0);
        self.set("trace.span_cost_ns", spans::empty_span_ns());
    }
}

/// The fleet's per-system seed derivation (splitmix64 finalizer over
/// master seed and system index), repeated here because the fleet keeps
/// it private.
fn mix_seed(master: u64, index: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Complete counts over every replica cell.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    fast: u64,
    full: u64,
    restricted: u64,
    stimuli: u64,
}

struct ReplicaCell {
    system: System,
    verifier: StreamVerifier,
    events: Vec<ScenarioEvent>,
    next_event: usize,
}

fn open(t: &mut Option<&mut Tracer>, name: &'static str) {
    if let Some(t) = t {
        t.open(name);
    }
}

fn close(t: &mut Option<&mut Tracer>, name: &'static str) {
    if let Some(t) = t {
        t.close_as(name);
    }
}

impl ReplicaCell {
    /// The fleet's per-cell step, call for call.
    fn step(&mut self, frame: u64, mut t: Option<&mut Tracer>, counts: &mut Counts) {
        while let Some(event) = self.events.get(self.next_event) {
            if event.frame != frame {
                break;
            }
            counts.stimuli += 1;
            open(&mut t, "system.stimulus");
            match &event.action {
                ScenarioAction::SetEnv { factor, value } => {
                    // The scenario generator only emits declared factors.
                    let _ = self.system.set_env(factor, value);
                }
                ScenarioAction::FailProcessor(p) => self.system.fail_processor(*p),
            }
            close(&mut t, "system.stimulus");
            self.next_event += 1;
        }

        let fast = if self.verifier.needs_full_state() {
            open(&mut t, "system.full_frame");
            self.system.run_frame();
            close(&mut t, "system.full_frame");
            false
        } else {
            open(&mut t, "system.advance_frame");
            let fast = self.system.advance_frame();
            close(
                &mut t,
                if fast {
                    "system.fast_frame"
                } else {
                    "system.full_frame"
                },
            );
            fast
        };

        if fast {
            counts.fast += 1;
            open(&mut t, "verifier.observe_fast");
            self.verifier.observe_fast();
            close(&mut t, "verifier.observe_fast");
        } else {
            counts.full += 1;
            let state = self.system.last_state().expect("full frame records state");
            counts.restricted += u64::from(state.any_reconfiguring());
            open(&mut t, "verifier.observe_full");
            self.verifier.observe_full(state);
            close(&mut t, "verifier.observe_full");
        }
    }
}

struct Replica {
    cells: Vec<ReplicaCell>,
    tracer: Tracer,
    counts: Counts,
}

impl Replica {
    /// Builds the cells as `Fleet::new` does, timing every scenario
    /// generation and system build.
    fn build(spec: &Arc<ReconfigSpec>, config: &FleetConfig) -> Replica {
        let mut tracer = Tracer::default();
        let mut cells = Vec::with_capacity(config.systems);
        for id in 0..config.systems {
            let seed = mix_seed(config.seed, id as u64);
            let journaled = config.journal_sample > 0 && id % config.journal_sample == 0;

            tracer.open("setup.scenario");
            let mut events = match &config.workload {
                Some(wl) => workload::random_scenario(spec, wl, seed).events().to_vec(),
                None => Vec::new(),
            };
            tracer.close();
            events.sort_by_key(|e| e.frame);

            tracer.open("setup.system_build");
            let mut builder = System::builder_arc(Arc::clone(spec))
                .observability(journaled)
                .flight_recorder(config.ring_capacity);
            if let Some(profile) = &config.chaos {
                builder = builder.fault_plan(FaultPlan::random(mix_seed(seed, 1), profile));
            }
            let mut system = builder.build().expect("the system builds");
            tracer.close();
            system.set_trace_recording(false);

            cells.push(ReplicaCell {
                system,
                verifier: StreamVerifier::new(Arc::clone(spec)),
                events,
                next_event: 0,
            });
        }
        Replica {
            cells,
            tracer,
            counts: Counts::default(),
        }
    }

    /// Advances every cell through one lockstep frame.
    fn frame(&mut self, frame: u64) {
        let Replica {
            cells,
            tracer,
            counts,
        } = self;
        let traced = frame.is_multiple_of(TRACE_EVERY);
        tracer.open(if traced {
            "replica.traced_frame"
        } else {
            "replica.frame"
        });
        for cell in cells.iter_mut() {
            let t = if traced { Some(&mut *tracer) } else { None };
            cell.step(frame, t, counts);
        }
        tracer.close();
    }

    /// Finishes every verifier (timed) and returns the completed
    /// reconfigurations and violations they found.
    fn finish(&mut self) -> (u64, u64) {
        let (mut reconfigs, mut violations) = (0, 0);
        for cell in &mut self.cells {
            self.tracer.open("verifier.finish");
            cell.verifier.finish();
            self.tracer.close();
            let (r, v) = verifier_counts(&cell.verifier);
            reconfigs += r;
            violations += v;
        }
        (reconfigs, violations)
    }
}

/// A verifier's completed reconfigurations and violations.
///
/// `StreamVerifier` keeps these counters private and offers no accessor,
/// so they are read from its public `Debug` form: the top-level
/// `reconfigs` field and the entries of the top-level `violations` list.
fn verifier_counts(v: &StreamVerifier) -> (u64, u64) {
    let text = format!("{v:#?}");
    let (mut reconfigs, mut violations) = (0, 0);
    let mut in_violations = false;
    for line in text.lines() {
        let top_level = line.strip_prefix("    ").filter(|f| !f.starts_with(' '));
        if let Some(field) = top_level {
            in_violations = field == "violations: [";
            if let Some(n) = field.strip_prefix("reconfigs: ") {
                reconfigs = n.trim_end_matches(',').parse().unwrap_or(0);
            }
        } else if in_violations && line.starts_with("        PropertyViolation {") {
            violations += 1;
        }
    }
    (reconfigs, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arfs_core::workload::WorkloadConfig;

    #[test]
    fn verifier_counts_reads_a_reconfiguring_system() {
        let spec = workloads::avionics();
        let config = FleetConfig {
            systems: 1,
            horizon: 200,
            workload: Some(WorkloadConfig {
                horizon: 200,
                mean_gap: 4,
                cooldown: 20,
            }),
            ..FleetConfig::default()
        };
        let mut replica = Replica::build(&spec, &config);
        assert_eq!(verifier_counts(&replica.cells[0].verifier), (0, 0));
        for frame in 0..config.horizon {
            replica.frame(frame);
        }
        let (reconfigs, violations) = replica.finish();
        assert!(reconfigs > 0, "dense changes reconfigure");
        assert_eq!(violations, 0);
        let report = Fleet::new(spec, config).unwrap().run().unwrap();
        assert_eq!(reconfigs, report.reconfigs);
        assert_eq!(replica.counts.fast, report.fast_frames);
        assert_eq!(replica.counts.full, report.full_frames);
    }
}
