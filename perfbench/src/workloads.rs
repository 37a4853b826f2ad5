//! The workloads, their untraced batches and their output checks.
//!
//! Each workload is a batch with a fixed input size, run to completion
//! through the public `arfs-core` API. A run repeats the batch until its
//! time is up.

use std::sync::Arc;
use std::time::Instant;

use arfs_core::chaos::ChaosProfile;
use arfs_core::fleet::{Fleet, FleetConfig, FleetReport, FleetTimings};
use arfs_core::model::{ModelCheckReport, ModelChecker};
use arfs_core::spec::ReconfigSpec;
use arfs_core::workload::WorkloadConfig;

use crate::digest::{self, Outcome};
use crate::host;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetSteady,
    FleetChurn,
    VerifyExtended,
    /// `fleet_steady`'s inputs on `nproc` threads.
    FleetParallel,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetSteady,
        Workload::FleetChurn,
        Workload::VerifyExtended,
        Workload::FleetParallel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet_steady",
            Workload::FleetChurn => "fleet_churn",
            Workload::VerifyExtended => "verify_extended",
            Workload::FleetParallel => "fleet_parallel",
        }
    }

    /// The workload whose inputs and recorded digests this one uses.
    pub fn inputs(self) -> Workload {
        match self {
            Workload::FleetParallel => Workload::FleetSteady,
            w => w,
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Fleet inputs with a recorded digest: `--seed n` selects input
/// `n mod RECORDED_SEEDS`.
pub const RECORDED_SEEDS: u64 = 64;

// Working sets of a few megabytes: larger fleets leave the shared cache
// at the mercy of other tenants, and their runs spread far beyond any
// usable bound (see README.md).
const STEADY_SYSTEMS: usize = 100;
const STEADY_HORIZON: u64 = 6_000;
const CHURN_SYSTEMS: usize = 200;
const CHURN_HORIZON: u64 = 240;
/// One churn system in this many is journaled.
const CHURN_JOURNAL_SAMPLE: usize = 20;
/// Chaos faults stop this many frames before the horizon, as do
/// environment changes, so in-flight reconfigurations can complete.
const COOLDOWN: u64 = 20;

pub const VERIFY_HORIZON: u64 = 30;
pub const VERIFY_MAX_EVENTS: usize = 3;
/// Size of the bounded schedule space of `verify_extended`.
const VERIFY_SCHEDULES: usize = 151_879;
/// `verify_extended` set-up takes about a millisecond, so each batch
/// repeats it this many times to sample it.
const VERIFY_SETUP_REPS: usize = 16;

/// The fleet input of a fleet workload for one seed, run on `threads`
/// worker threads, with four shards per thread so that every thread has
/// work to steal (the report does not depend on the shard count).
pub fn fleet_config(w: Workload, spec: &ReconfigSpec, seed: u64, threads: usize) -> FleetConfig {
    let churn = w.inputs() == Workload::FleetChurn;
    let (systems, horizon, mean_gap) = if churn {
        (CHURN_SYSTEMS, CHURN_HORIZON, 4)
    } else {
        (STEADY_SYSTEMS, STEADY_HORIZON, 100)
    };
    FleetConfig {
        systems,
        horizon,
        seed: seed % RECORDED_SEEDS,
        threads,
        shards: 4 * threads,
        journal_sample: if churn { CHURN_JOURNAL_SAMPLE } else { 0 },
        workload: Some(WorkloadConfig {
            horizon,
            mean_gap,
            cooldown: COOLDOWN,
        }),
        chaos: churn.then(|| ChaosProfile::for_spec(spec, horizon - COOLDOWN)),
        ..FleetConfig::default()
    }
}

pub fn avionics() -> Arc<ReconfigSpec> {
    Arc::new(arfs_avionics::avionics_spec().expect("the avionics spec is valid"))
}

/// Timings of one batch, and whether its output check passed.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Set-up samples (one per fleet batch, several per verify batch).
    pub setup_s: Vec<f64>,
    pub run_s: f64,
    /// Schedules the batch covers, and the frames it simulates.
    pub schedules: f64,
    pub frames: f64,
    pub check: Result<(), String>,
}

/// One untraced fleet batch: spec build and `Fleet::new` (set-up), then
/// the whole `Fleet::run_timed` call. The outcome must not depend on
/// `threads`.
pub fn fleet_batch(
    w: Workload,
    seed: u64,
    threads: usize,
) -> (Batch, Option<(FleetReport, FleetTimings)>) {
    let started = Instant::now();
    let spec = avionics();
    let config = fleet_config(w, &spec, seed, threads);
    let (systems, horizon) = (config.systems as f64, config.horizon as f64);
    let mut fleet = Fleet::new(spec, config).expect("the fleet builds");
    let setup_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let outcome = fleet.run_timed();
    let run_s = started.elapsed().as_secs_f64();
    drop(fleet);
    let (check, outcome) = match outcome {
        Ok((report, timings)) => (check_fleet(w, seed, &report), Some((report, timings))),
        Err(e) => (Err(format!("fleet run failed: {e}")), None),
    };
    let batch = Batch {
        setup_s: vec![setup_s],
        run_s,
        schedules: systems,
        frames: systems * horizon,
        check,
    };
    (batch, outcome)
}

pub fn check_fleet(w: Workload, seed: u64, report: &FleetReport) -> Result<(), String> {
    let digest = Outcome::of(report).digest();
    digest::check(w.inputs().name(), seed % RECORDED_SEEDS, digest)
}

/// `verify_extended` set-up: spec build, `ModelChecker::new(..)
/// .with_por()` (which builds the independence certificate) and the
/// schedule count.
pub fn verify_setup() -> (ModelChecker, usize) {
    let spec = arfs_avionics::extended::extended_uav_spec().expect("the extended spec is valid");
    let checker = ModelChecker::new(spec, VERIFY_HORIZON, VERIFY_MAX_EVENTS).with_por();
    let total = checker.total_schedule_count();
    (checker, total)
}

/// One untraced `verify_extended` batch: repeated set-up, then the
/// serial `ModelChecker::run`.
pub fn verify_batch() -> (Batch, ModelCheckReport) {
    let mut setup_s = Vec::with_capacity(VERIFY_SETUP_REPS);
    let mut setup = None;
    for _ in 0..VERIFY_SETUP_REPS {
        let started = Instant::now();
        setup = Some(verify_setup());
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let (checker, total) = setup.expect("at least one set-up");
    let started = Instant::now();
    let report = checker.run();
    let run_s = started.elapsed().as_secs_f64();
    let batch = Batch {
        setup_s,
        run_s,
        schedules: total as f64,
        frames: report.frames_simulated as f64,
        check: check_verify(&report, total),
    };
    (batch, report)
}

pub fn check_verify(report: &ModelCheckReport, total: usize) -> Result<(), String> {
    if !report.all_passed() {
        return Err(format!("{} schedules fail SP1-SP4", report.failures.len()));
    }
    if total != VERIFY_SCHEDULES {
        return Err(format!(
            "schedule space is {total}, expected {VERIFY_SCHEDULES}"
        ));
    }
    if report.cases_total() != total {
        return Err(format!(
            "run + elided + merged = {}, not the {total} schedules",
            report.cases_total()
        ));
    }
    Ok(())
}

pub fn batch(w: Workload, seed: u64) -> Batch {
    match w {
        Workload::VerifyExtended => verify_batch().0,
        Workload::FleetParallel => fleet_batch(w, seed, host::nproc()).0,
        _ => fleet_batch(w, seed, 1).0,
    }
}

/// The mean of the `k` smallest of `values` (of all, if there are
/// fewer).
pub fn fastest_mean(values: &[f64], k: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(k);
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_mean_averages_the_smallest_values() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(fastest_mean(&v, 3), 2.0);
        assert_eq!(fastest_mean(&v, 1), 1.0);
        assert_eq!(fastest_mean(&v[..2], 3), 2.5);
        assert_eq!(fastest_mean(&[], 3), 0.0);
    }
}
