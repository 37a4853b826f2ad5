//! Engine-equivalence properties for the bounded model checker: the
//! streaming, prefix-sharing tree walk (sequential and work-stealing
//! parallel) must report exactly what the seed replay engine reports —
//! same explored/elided counts, same failures, same failure order — on
//! every horizon, event bound, policy combination, and mutated kernel.
//!
//! The seed engine ([`ModelChecker::run_reference`]) replays each
//! schedule independently from frame 0; it is the executable
//! specification the optimized engines are diffed against here.

use arfs_avionics::three_level_spec;
use arfs_core::chaos::{ChaosProfile, FaultPlan};
use arfs_core::model::ModelChecker;
use arfs_core::scram::{KernelConfig, MidReconfigPolicy, ScramMutation, StagePolicy, SyncPolicy};
use arfs_core::system::System;

/// Asserts all three engines agree on the full verification outcome,
/// and that the walk engines account for every schedule in the bounded
/// space (explored + elided = analytic total).
fn assert_engines_agree(mc: &ModelChecker, label: &str) {
    let reference = mc.run_reference();
    let walk = mc.run();
    let parallel = mc.run_parallel(3);
    assert_eq!(reference, walk, "{label}: reference vs sequential walk");
    assert_eq!(reference, parallel, "{label}: reference vs work-stealing");
    assert_eq!(
        walk.cases_total(),
        mc.total_schedule_count(),
        "{label}: explored + elided must cover the schedule space"
    );
    // Failure order is part of the contract, not just the set.
    let seq_order: Vec<String> = walk.failures.iter().map(|f| f.case.events_line()).collect();
    let par_order: Vec<String> = parallel
        .failures
        .iter()
        .map(|f| f.case.events_line())
        .collect();
    assert_eq!(seq_order, par_order, "{label}: failure order");
}

#[test]
fn engines_agree_across_horizons_and_event_bounds() {
    let spec = three_level_spec(1);
    for horizon in 7..=14 {
        for max_events in 1..=2 {
            let mc = ModelChecker::new(spec.clone(), horizon, max_events);
            assert_engines_agree(&mc, &format!("h{horizon} e{max_events}"));
        }
    }
}

#[test]
fn engines_agree_under_seeded_chaos() {
    // The chaos campaigns replay each schedule on its own, so this is
    // where the prefix-sharing walk meets random fault plans: the
    // campaigns' shape (h12, torn writes and jitter), and a denser one
    // with two events.
    let spec = three_level_spec(1);
    for (commit_fault_permille, max_events) in [(80, 1), (300, 2)] {
        let profile = ChaosProfile {
            bus_silence_permille: 0,
            commit_fault_permille,
            clock_jitter_permille: 60,
            ..ChaosProfile::for_spec(&spec, 8)
        };
        for seed in 1..=30 {
            let mc = ModelChecker::new(spec.clone(), 12, max_events)
                .with_fault_plan(FaultPlan::random(seed, &profile));
            assert_engines_agree(&mc, &format!("chaos seed {seed} e{max_events}"));
        }
    }
}

/// Every valid kernel policy combination: both mid-reconfiguration
/// policies under each (sync, stage) pair the kernel accepts.
fn policy_grid() -> Vec<KernelConfig> {
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

#[test]
fn engines_agree_under_every_policy_combination() {
    for kernel in policy_grid() {
        let label = format!("{kernel:?}");
        let mc = ModelChecker::new(three_level_spec(1), 12, 1)
            .with_kernel(kernel)
            .unwrap();
        assert_engines_agree(&mc, &label);
    }
}

#[test]
fn engines_agree_on_a_mutated_kernel() {
    // A broken protocol produces many failures; the engines must agree
    // on all of them, in order — not just on the happy path.
    let mc = ModelChecker::new(three_level_spec(1), 12, 2)
        .with_kernel(KernelConfig {
            mutation: Some(ScramMutation::SkipInitPhase),
            ..KernelConfig::default()
        })
        .unwrap();
    let reference = mc.run_reference();
    assert!(
        !reference.all_passed(),
        "mutation screen needs failing cases to compare"
    );
    assert!(reference.failures.len() > 1);
    assert_engines_agree(&mc, "SkipInitPhase h12 e2");
}

/// Asserts the POR-enabled walk agrees with the reference engine at the
/// outcome level: same verdict, failures a subset of the reference set
/// (the serial pre-order preserves the first one), and full accounting
/// of the schedule space (`run + elided + merged = total`).
fn assert_por_agrees(mc: ModelChecker, label: &str) {
    let reference = mc.run_reference();
    let por = mc.with_por();
    let report = por.run();
    assert_eq!(
        reference.all_passed(),
        report.all_passed(),
        "{label}: POR verdict"
    );
    assert_eq!(
        report.cases_run + report.cases_elided + report.cases_merged,
        por.total_schedule_count(),
        "{label}: run + elided + merged must cover the schedule space"
    );
    for f in &report.failures {
        assert!(
            reference.failures.contains(f),
            "{label}: POR failure `{}` not found by the reference engine",
            f.case.events_line()
        );
    }
    assert_eq!(
        reference.failures.first(),
        report.failures.first(),
        "{label}: the serial POR walk must preserve the first failure"
    );
    // The parallel POR walk agrees with the serial one on every count;
    // fingerprint dedup may vary *which* witness survives, so failures
    // are only required to be reference failures.
    let parallel = por.run_parallel(3);
    assert_eq!(report.cases_run, parallel.cases_run, "{label}: run count");
    assert_eq!(
        report.cases_elided, parallel.cases_elided,
        "{label}: elided count"
    );
    assert_eq!(
        report.cases_merged, parallel.cases_merged,
        "{label}: merged count"
    );
    assert_eq!(
        report.all_passed(),
        parallel.all_passed(),
        "{label}: parallel POR verdict"
    );
    for f in &parallel.failures {
        assert!(
            reference.failures.contains(f),
            "{label}: parallel POR failure `{}` not found by the reference engine",
            f.case.events_line()
        );
    }
}

#[test]
fn por_matches_the_reference_outcome_across_horizons_and_event_bounds() {
    let spec = three_level_spec(1);
    for horizon in 7..=14 {
        for max_events in 1..=2 {
            assert_por_agrees(
                ModelChecker::new(spec.clone(), horizon, max_events),
                &format!("POR h{horizon} e{max_events}"),
            );
        }
    }
}

#[test]
fn por_matches_the_reference_outcome_under_every_policy_combination() {
    for kernel in policy_grid() {
        let label = format!("POR {kernel:?}");
        assert_por_agrees(
            ModelChecker::new(three_level_spec(1), 12, 1)
                .with_kernel(kernel)
                .unwrap(),
            &label,
        );
    }
}

#[test]
fn por_matches_the_reference_outcome_on_mutated_kernels() {
    let spec = three_level_spec(1);
    for mutation in [
        ScramMutation::WrongTarget,
        ScramMutation::ExtraDelayFrames(3),
        ScramMutation::SkipInitPhase,
        ScramMutation::SkipHaltPhase,
    ] {
        let label = format!("POR {mutation:?} h12 e2");
        assert_por_agrees(
            ModelChecker::new(spec.clone(), 12, 2)
                .with_kernel(KernelConfig {
                    mutation: Some(mutation),
                    ..KernelConfig::default()
                })
                .unwrap(),
            &label,
        );
    }
}

#[test]
fn busy_state_fingerprints_merge_mid_reconfiguration_schedules() {
    // On the avionics h22/e2 space the quiescent-only fingerprint
    // merged 40 schedules; hashing mid-reconfiguration SCRAM state
    // (`Scram::busy_view` + window offset) merges 100 — schedules that
    // converge *inside* a reconfiguration window now dedup too. Guard
    // the strict improvement and the exact accounting around it.
    let spec = arfs_avionics::avionics_spec().expect("valid spec");
    let mc = ModelChecker::new(spec, 22, 2).with_por();
    let report = mc.run();
    assert!(report.all_passed());
    assert!(
        report.cases_merged > 40,
        "busy-state fingerprinting must merge more than the \
         quiescent-only baseline of 40, got {}",
        report.cases_merged
    );
    assert_eq!(
        report.cases_run + report.cases_elided + report.cases_merged,
        mc.total_schedule_count(),
        "merging must never lose accounting of the schedule space"
    );
}

#[test]
fn forked_systems_diverge_independently() {
    // The substrate guarantee the prefix-sharing walk rests on: a fork
    // is a full snapshot, so the parent's future and the child's future
    // are causally independent.
    let spec = three_level_spec(1);
    let mut parent = System::builder(spec).build().expect("builds");
    for _ in 0..3 {
        parent.run_frame();
    }
    let mut child = parent.fork();
    assert_eq!(parent.frame(), child.frame());

    // Diverge: the child degrades, the parent stays quiescent.
    child.set_env("power", "bad").expect("valid value");
    for _ in 0..10 {
        parent.run_frame();
        child.run_frame();
    }
    assert_eq!(parent.trace().get_reconfigs().len(), 0);
    assert_eq!(child.trace().get_reconfigs().len(), 1);
    assert_eq!(
        parent.environment().current().get("power"),
        Some("good"),
        "child's environment change must not leak into the parent"
    );
    // And the prefix they share is literally shared history: the first
    // three frames of both traces coincide.
    let parent_prefix: Vec<_> = parent.trace().states().take(3).cloned().collect();
    let child_prefix: Vec<_> = child.trace().states().take(3).cloned().collect();
    assert_eq!(parent_prefix, child_prefix);
}

/// The exploration counts of a report: what the walk ran, elided,
/// merged and simulated, plus its failures.
fn exploration(report: &arfs_core::model::ModelCheckReport) -> (usize, usize, usize, u64, String) {
    (
        report.cases_run,
        report.cases_elided,
        report.cases_merged,
        report.frames_simulated,
        format!("{:?}", report.failures),
    )
}

/// Runs `mc` with observability off and on and asserts the two walks
/// explore identically; returns the shared counts.
fn assert_observability_blind(mc: ModelChecker, label: &str) -> (usize, usize, usize, u64, String) {
    let dark = exploration(&mc.clone().with_observability(false).run());
    let lit = exploration(&mc.with_observability(true).run());
    assert_eq!(dark, lit, "{label}: observability changed the exploration");
    dark
}

#[test]
fn model_checking_does_not_depend_on_the_observability_knob() {
    // Busy-state fingerprints hash the offset into the reconfiguration
    // window; the clock behind it must tick the same whether or not the
    // system journals.
    let extended = arfs_avionics::extended::extended_uav_spec().expect("valid spec");
    let (run, elided, merged, _, failures) = assert_observability_blind(
        ModelChecker::new(extended.clone(), 20, 2).with_por(),
        "extended POR h20 e2",
    );
    assert_eq!((run, elided, merged), (211, 392, 196));
    assert_eq!(failures, "[]");

    let avionics = arfs_avionics::avionics_spec().expect("valid spec");
    for spec in [avionics, extended] {
        for (slug, mutation) in arfs_avionics::known_bad_mutations() {
            let (_, _, _, _, failures) = assert_observability_blind(
                ModelChecker::new(spec.clone(), 24, 2)
                    .with_por()
                    .with_kernel(KernelConfig {
                        mutation: Some(mutation),
                        ..KernelConfig::default()
                    })
                    .unwrap()
                    .with_flight_recorder(false),
                &format!("{slug} POR h24 e2"),
            );
            assert_ne!(failures, "[]", "{slug}: the mutant must be caught");
        }
    }
}
