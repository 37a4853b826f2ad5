//! End-to-end failpoint campaigns against the real runtime — only
//! meaningful with `--features failpoints` (the registry is inert
//! otherwise, so the whole file is compiled out).
//!
//! Covered here: unarmed sites count hits without intervening, a
//! skipped SCRAM trigger defers one frame without violating the
//! properties, a skipped fleet journal append loses one frame of
//! journal evidence and nothing else, and the one shrinker
//! ([`Scenario::shrink`]) reduces a failing case that needs an armed
//! failpoint to a 1-minimal case that keeps it.

#![cfg(feature = "failpoints")]

use std::sync::{Arc, Mutex, MutexGuard};

use arfs_assure::{FailpointPlan, FpAction};
use arfs_avionics::{avionics_spec, three_level_spec};
use arfs_core::chaos::{ChaosDefense, FaultKind, FaultPlan};
use arfs_core::fleet::{Fleet, FleetConfig};
use arfs_core::model::ModelChecker;
use arfs_core::obs::JournalLine;
use arfs_core::scenario::Scenario;
use arfs_core::scram::KernelConfig;
use arfs_core::system::System;
use arfs_core::AppId;

/// The failpoint registry is process-global; campaigns must not
/// overlap. Every test takes this lock for its whole body.
static CAMPAIGN_SLOT: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    CAMPAIGN_SLOT.lock().unwrap_or_else(|e| e.into_inner())
}

fn journaled_fleet() -> Fleet {
    let spec = Arc::new(avionics_spec().expect("avionics spec is structurally valid"));
    Fleet::new(
        spec,
        FleetConfig {
            systems: 4,
            threads: 1,
            journal_sample: 1,
            ..FleetConfig::default()
        },
    )
    .expect("fleet builds")
}

#[test]
fn skipped_journal_append_drops_one_frame_of_evidence_only() {
    let _slot = exclusive();
    let baseline = {
        let _campaign = arfs_assure::install(&FailpointPlan::new());
        journaled_fleet()
            .run()
            .expect("an in-memory journal never fails")
    };
    let mut plan = FailpointPlan::new();
    // One thread runs cell 0 first: hit 1 is system 0's frame 0.
    plan.push("fleet.journal.append", 1, FpAction::Skip);
    let _campaign = arfs_assure::install(&plan);
    let skipped = journaled_fleet()
        .run()
        .expect("an in-memory journal never fails");

    let frame_zero_of_system_zero = |report: &arfs_core::fleet::FleetReport| {
        let mut system = None;
        let mut count = 0u64;
        for line in report.journal.lines() {
            match JournalLine::parse(line).expect("aggregate journal reads") {
                JournalLine::Header { system: id, .. } => system = Some(id),
                JournalLine::Event(e) => count += u64::from(system == Some(0) && e.frame == 0),
            }
        }
        count
    };
    let dropped = frame_zero_of_system_zero(&baseline);
    assert!(dropped > 0, "frame 0 journals at least its frame-start");
    assert_eq!(frame_zero_of_system_zero(&skipped), 0);
    assert_eq!(skipped.journal_events, baseline.journal_events - dropped);
    // Observability only: every verdict and counter is unchanged.
    assert_eq!(skipped.violations, baseline.violations);
    assert_eq!(
        (skipped.fast_frames, skipped.full_frames, skipped.reconfigs),
        (
            baseline.fast_frames,
            baseline.full_frames,
            baseline.reconfigs
        )
    );
}

#[test]
fn unarmed_runs_are_unaffected_and_sites_count_hits() {
    let _slot = exclusive();
    let _campaign = arfs_assure::install(&FailpointPlan::new());

    let spec = avionics_spec().expect("avionics spec is structurally valid");
    let mut system = System::builder(spec).build().expect("spec builds");
    system.set_env("electrical", "one").expect("declared value");
    for _ in 0..12 {
        system.run_frame();
    }

    let hits: std::collections::BTreeMap<String, u64> =
        arfs_assure::hit_counts().into_iter().collect();
    // The frame path passes these sites every frame even with no plan
    // armed — the instrumentation observes without intervening.
    for site in [
        "rtos.clock.advance",
        "system.stable.commit",
        "failstop.stable.commit",
    ] {
        assert!(
            hits.get(site).copied().unwrap_or(0) > 0,
            "site `{site}` never counted a hit; got {hits:?}"
        );
    }
    // And the reconfiguration the env change forced crossed the SCRAM
    // trigger site.
    assert!(hits.get("scram.trigger").copied().unwrap_or(0) > 0);
}

#[test]
fn skipped_trigger_defers_one_frame_without_violating_properties() {
    let _slot = exclusive();
    let mut plan = FailpointPlan::new();
    plan.push("scram.trigger", 1, FpAction::Skip);
    let _campaign = arfs_assure::install(&plan);

    let spec = avionics_spec().expect("avionics spec is structurally valid");
    let oracle = arfs_core::assure::InvariantOracle::new(
        Arc::new(spec.clone()),
        arfs_core::assure::OracleProfile::Exhaustive,
    );
    let mut system = System::builder(spec).build().expect("spec builds");
    system.set_env("electrical", "one").expect("declared value");
    for _ in 0..16 {
        system.run_frame();
    }
    let violations = oracle.check(system.trace());
    assert!(
        violations.is_empty(),
        "a single deferred trigger is within the responsiveness allowance: {violations:?}"
    );
}

/// The oracle for the shrink tests: the model checker's exhaustive
/// profile on the three-level spec with no commit retry budget, so one
/// torn commit mid-reconfiguration falls back to the safe state.
fn budget0_checker() -> ModelChecker {
    ModelChecker::new(three_level_spec(1), 12, 1)
        .with_kernel(KernelConfig {
            defense: ChaosDefense {
                retry_budget_frames: 0,
                ..ChaosDefense::default()
            },
            ..KernelConfig::default()
        })
        .unwrap()
}

/// `power=degraded` at frame 1 and the third `system.stable.commit`
/// failing: the reconfiguration to `mid` tears and falls back to
/// `safe`.
fn torn_commit_case() -> Scenario {
    let mut failpoints = FailpointPlan::new();
    failpoints.push("system.stable.commit", 3, FpAction::Err);
    Scenario::new("torn-commit", 12)
        .set_env(1, "power", "degraded")
        .with_failpoints(failpoints)
}

#[test]
fn shrinker_keeps_the_armed_failpoint_and_drops_the_padding() {
    let _slot = exclusive();
    let mc = budget0_checker();
    let needed = torn_commit_case();
    let violations = mc.check_case(&needed);
    assert!(
        violations
            .iter()
            .any(|v| v.to_string().starts_with("SP2 [R 1..5]")),
        "{violations:?}"
    );

    // Padding: a no-op environment event, a one-tick jitter after the
    // reconfiguration, and a failpoint entry on a hit never reached.
    let mut faults = FaultPlan::new();
    faults.push(
        9,
        FaultKind::ClockJitter {
            app: AppId::new("a"),
            ticks: 1,
        },
    );
    let mut failpoints = needed.failpoints().clone();
    failpoints.push("scram.trigger", 9, FpAction::Skip);
    let padded = needed
        .clone()
        .set_env(8, "power", "degraded")
        .with_faults(faults)
        .with_failpoints(failpoints);
    assert!(!mc.check_case(&padded).is_empty());

    let minimized = padded.shrink(|_, candidate| !mc.check_case(candidate).is_empty());
    assert_eq!(minimized, needed);

    // 1-minimal: dropping the commit failure or the event passes (the
    // case has no faults left to drop).
    let without_failpoint = needed.clone().with_failpoints(FailpointPlan::new());
    assert!(mc.check_case(&without_failpoint).is_empty());
    let without_event =
        Scenario::new("torn-commit", 12).with_failpoints(needed.failpoints().clone());
    assert!(mc.check_case(&without_event).is_empty());
}

#[test]
fn a_case_without_failpoints_runs_under_a_held_campaign() {
    let _slot = exclusive();
    let _campaign = arfs_assure::install(&FailpointPlan::new());
    let case = torn_commit_case().with_failpoints(FailpointPlan::new());
    let system = case
        .run_with(System::builder(three_level_spec(1)))
        .expect("the case is valid");
    assert_eq!(system.trace().len(), 12);
    // The held campaign counted the run's hits.
    assert!(arfs_assure::hit_counts()
        .iter()
        .any(|(site, hits)| site == "system.stable.commit" && *hits > 0));
}
