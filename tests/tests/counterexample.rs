//! The counterexample flight recorder, end to end on the avionics
//! fixture set: every known-bad SCRAM mutation must yield a packaged
//! [`Counterexample`] whose shrunk case is 1-minimal and still
//! failing, whose replayed journal reproduces the walk engine's verdict
//! (tied back to the seed replay engine), and whose JSON artifact is
//! byte-identical across the serial and work-stealing engines.

use arfs_avionics::{avionics_spec, known_bad_mutations, KNOWN_BAD_HORIZON};
use arfs_core::model::ModelChecker;
use arfs_core::obs::Counterexample;
use arfs_core::scram::{KernelConfig, ScramMutation};

fn checker_for(mutation: ScramMutation) -> ModelChecker {
    let spec = avionics_spec().expect("avionics spec builds");
    ModelChecker::new(spec, KNOWN_BAD_HORIZON, 1)
        .with_kernel(KernelConfig {
            mutation: Some(mutation),
            ..KernelConfig::default()
        })
        .unwrap()
}

#[test]
fn every_known_bad_mutant_yields_a_counterexample() {
    for (slug, mutation) in known_bad_mutations() {
        let mc = checker_for(mutation);
        let report = mc.run();
        assert!(!report.all_passed(), "{slug}: mutation not caught");
        let ce = report
            .counterexample
            .as_ref()
            .unwrap_or_else(|| panic!("{slug}: no counterexample recorded"));
        // The artifact's acceptance shape: shrunk schedule no larger
        // than the original, non-empty replayed journal, causal chain
        // ending at the violating frame.
        assert_eq!(ce.case, report.failures[0].case, "{slug}");
        assert!(
            ce.minimized.events().len() <= ce.case.events().len(),
            "{slug}"
        );
        assert!(!ce.journal.events().is_empty(), "{slug}: journal empty");
        assert!(!ce.causal_chain.is_empty(), "{slug}: causal chain empty");
        let violating = ce
            .violating_frame()
            .unwrap_or_else(|| panic!("{slug}: chain has no violation link"));
        assert_eq!(
            ce.causal_chain.last().map(|l| l.frame),
            Some(violating),
            "{slug}: chain must end at the violating frame"
        );
        assert!(
            !ce.frame_verdicts[usize::try_from(violating).unwrap()]
                .violated
                .is_empty(),
            "{slug}: violating frame has a clean verdict"
        );
    }
}

#[test]
fn shrunk_schedules_are_one_minimal_and_still_failing() {
    for (slug, mutation) in known_bad_mutations() {
        let mc = checker_for(mutation);
        let ce = mc.run().counterexample.expect("counterexample");
        // Soundness: the minimized case still violates.
        assert!(
            !mc.check_case(&ce.minimized).is_empty(),
            "{slug}: minimized case no longer fails"
        );
        // 1-minimality: the minimized case is a fixpoint of the
        // shrinker, so removing any single event loses the violation.
        assert_eq!(
            ce.minimized
                .shrink(|_, candidate| !mc.check_case(candidate).is_empty()),
            ce.minimized,
            "{slug}: not 1-minimal"
        );
        // Every kept shrink step was re-checked; the lineage ends on the
        // minimized case.
        let last_kept = ce.shrink_steps.iter().rev().find(|s| s.kept);
        if let Some(step) = last_kept {
            assert_eq!(step.candidate, ce.minimized, "{slug}: lineage mismatch");
        } else {
            assert_eq!(ce.minimized, ce.case, "{slug}: nothing kept");
        }
    }
}

#[test]
fn counterexample_artifacts_are_byte_identical_across_engines() {
    for (slug, mutation) in known_bad_mutations() {
        let mc = checker_for(mutation);
        let serial = mc.run().counterexample.expect("serial counterexample");
        let parallel = mc
            .run_parallel(4)
            .counterexample
            .expect("parallel counterexample");
        let text = serial.to_json_pretty();
        assert_eq!(
            text,
            parallel.to_json_pretty(),
            "{slug}: serial and work-stealing artifacts differ"
        );
        // And the artifact round-trips losslessly.
        let back = Counterexample::from_json_str(&text).expect("round trip");
        assert_eq!(back, serial, "{slug}: JSON round trip lost data");
    }
}

#[test]
fn replayed_journals_reproduce_the_walk_engines_verdict() {
    // Fidelity, tied back to the seed engine: for every mutant, the
    // reference replay agrees with the walk, and re-simulating the
    // recorded schedule reproduces exactly the violations the walk
    // attributed to it — the journaled replay is the same trace.
    for (slug, mutation) in known_bad_mutations() {
        let mc = checker_for(mutation);
        let reference = mc.run_reference();
        let walk = mc.run();
        assert_eq!(reference, walk, "{slug}: engines disagree");
        for failure in walk.failures.iter().chain(&reference.failures) {
            assert_eq!(
                mc.check_case(&failure.case),
                failure.violations,
                "{slug}: replaying `{}` changes the verdict",
                failure.case.events_line()
            );
        }
        // The minimized replay's verdict (captured in the artifact) hits
        // the same frame-verdict shape as a fresh check of the
        // minimized schedule.
        let ce = walk.counterexample.expect("counterexample");
        assert_eq!(
            ce.violations,
            mc.check_case(&ce.minimized),
            "{slug}: packaged violations drift from a fresh replay"
        );
    }
}

#[test]
fn worker_panic_keeps_partial_progress_and_metrics() {
    // Regression: the panic path must still merge per-worker counters
    // into the (partial) report instead of discarding them.
    let mc = checker_for(ScramMutation::PanicOnTrigger);
    let err = mc
        .try_run_parallel(3)
        .expect_err("PanicOnTrigger must abort the parallel walk");
    assert!(
        err.message
            .contains("model-check worker panicked on schedule"),
        "{}",
        err.message
    );
    // The quiescent root completes before any triggering child panics.
    assert!(err.partial.cases_run >= 1, "{}", err.message);
    assert!(err.partial.counterexample.is_none());
    let merged: u64 = (0..3)
        .map(|w| {
            err.partial
                .metrics
                .counters
                .get(&format!("walk.worker.{w}.runs"))
                .copied()
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(
        merged,
        u64::try_from(err.partial.cases_run).unwrap(),
        "per-worker counters must merge into the partial report"
    );
}
