//! Property tests for the certified partial-order reduction: on
//! randomized small specifications — clean and with `ScramMutation`
//! known-bad kernels — the POR-pruned, fingerprint-deduplicated walk
//! must be outcome-identical to the seed replay engine
//! ([`ModelChecker::run_reference`]): same verdict, failures drawn from
//! the reference set with the first one preserved, full accounting of
//! the schedule space, and the same 1-minimal shrunk counterexample.
//!
//! A second property reuses the [`random_scenario`] workload generator
//! to corroborate the bounded POR verdict with long random schedules
//! the exhaustive search cannot reach.

use arfs_core::model::ModelChecker;
use arfs_core::properties;
use arfs_core::scram::{KernelConfig, ScramMutation};
use arfs_core::spec::{AppDecl, Configuration, FunctionalSpec, ReconfigSpec};
use arfs_core::workload::{random_scenario, WorkloadConfig};
use arfs_failstop::ProcessorId;
use arfs_rtos::Ticks;
use proptest::prelude::*;

/// A small randomized spec: `levels` degradation configurations driven
/// by one live factor (value `i` selects configuration `i`, the last
/// one safe), optionally widened by an inert `telemetry` factor no
/// choice rule references.
fn small_spec(levels: usize, dwell: u64, bound: u64, inert: bool) -> ReconfigSpec {
    let names: Vec<String> = (0..levels).map(|i| format!("cfg-{i}")).collect();
    let values: Vec<String> = (0..levels).map(|i| format!("v{i}")).collect();
    let mut app = AppDecl::new("a");
    for i in 0..levels {
        app = app.spec(FunctionalSpec::new(format!("s{i}")));
    }
    let mut b = ReconfigSpec::builder()
        .frame_len(Ticks::new(100))
        .env_factor("power", values.iter().map(String::as_str));
    if inert {
        b = b.env_factor("telemetry", ["on", "off"]);
    }
    b = b.app(app);
    for (i, name) in names.iter().enumerate() {
        let mut c = Configuration::new(name.clone())
            .assign("a", format!("s{i}"))
            .place("a", ProcessorId::new(0));
        if i == levels - 1 {
            c = c.safe();
        }
        b = b.config(c);
    }
    for from in &names {
        for to in &names {
            if from != to {
                b = b.transition(from.clone(), to.clone(), Ticks::new(bound));
            }
        }
    }
    for (value, target) in values.iter().zip(&names) {
        b = b.choose_when("power", value.clone(), target.clone());
    }
    let mut env = vec![("power".to_owned(), "v0".to_owned())];
    if inert {
        env.push(("telemetry".to_owned(), "on".to_owned()));
    }
    b.initial_config("cfg-0")
        .initial_env(env)
        .min_dwell_frames(dwell)
        .build()
        .expect("randomized small spec is structurally valid")
}

fn mutation_for(index: usize) -> Option<ScramMutation> {
    match index {
        1 => Some(ScramMutation::WrongTarget),
        2 => Some(ScramMutation::ExtraDelayFrames(2)),
        3 => Some(ScramMutation::SkipInitPhase),
        4 => Some(ScramMutation::SkipHaltPhase),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The POR walk is outcome-identical to the reference engine on
    /// randomized small specs, clean and mutated alike.
    #[test]
    fn por_is_outcome_identical_to_the_reference_engine(
        levels in 2usize..4,
        dwell in 1u64..4,
        bound in 600u64..1000,
        inert in any::<bool>(),
        horizon in 8u64..11,
        max_events in 1usize..3,
        mutation_index in 0usize..5,
    ) {
        let spec = small_spec(levels, dwell, bound, inert);
        let mc = ModelChecker::new(spec, horizon, max_events).with_kernel(KernelConfig {
            mutation: mutation_for(mutation_index),
            ..KernelConfig::default()
        }).unwrap();
        let reference = mc.run_reference();
        let por = mc.with_por();
        let report = por.run();

        prop_assert_eq!(reference.all_passed(), report.all_passed(), "verdict");
        prop_assert_eq!(
            report.cases_run + report.cases_elided + report.cases_merged,
            por.total_schedule_count(),
            "run + elided + merged must cover the schedule space"
        );
        if inert {
            prop_assert!(
                report.cases_merged > 0,
                "an inert factor must give the reduction something to merge"
            );
        }
        for f in &report.failures {
            prop_assert!(
                reference.failures.contains(f),
                "POR failure `{}` not found by the reference engine",
                f.case.events_line()
            );
        }
        prop_assert_eq!(
            reference.failures.first(),
            report.failures.first(),
            "the serial POR walk must preserve the first failure"
        );
        // Same first failure, same deterministic shrink: the 1-minimal
        // counterexamples coincide event for event.
        let reference_min = reference.counterexample.as_ref().map(|ce| ce.minimized.clone());
        let por_min = report.counterexample.as_ref().map(|ce| ce.minimized.clone());
        prop_assert_eq!(reference_min, por_min, "1-minimal shrunk schedule");
    }

    /// On clean specs the bounded POR verdict is corroborated by long
    /// random trigger schedules from the workload generator.
    #[test]
    fn por_verdict_agrees_with_random_soak_schedules(
        levels in 2usize..4,
        dwell in 3u64..6,
        bound in 800u64..1000,
        seed in 0u64..1000,
        mean_gap in 5u64..9,
    ) {
        let spec = small_spec(levels, dwell, bound, false);
        let mc = ModelChecker::new(spec.clone(), 10, 2).with_por();
        let report = mc.run();
        prop_assert!(report.all_passed(), "{report}");

        let scenario = random_scenario(
            &spec,
            &WorkloadConfig { horizon: 70, mean_gap, cooldown: 20 },
            seed,
        );
        let system = scenario.run_on_spec(&spec).expect("scenario runs");
        let soak = properties::check_extended(system.trace(), system.spec());
        prop_assert!(soak.is_ok(), "seed {}: {}", seed, soak);
    }
}
