//! Property-based tests of the reconfiguration protocol itself: for
//! randomly generated specifications and randomly timed trigger
//! schedules, SP1–SP4 must hold on every trace — the statistical
//! companion to the exhaustive bounded model checker.

use arfs_core::model::ModelChecker;
use arfs_core::properties;
use arfs_core::scenario::Scenario;
use arfs_core::spec::{AppDecl, ChooseRule, Configuration, FunctionalSpec, ReconfigSpec};
use arfs_core::system::System;
use arfs_failstop::ProcessorId;
use arfs_rtos::Ticks;
use proptest::prelude::*;

/// Generates a "ladder" specification with `n_configs` service levels,
/// `n_apps` applications, full degradation/upgrade transitions, and a
/// level-indexed choice function.
fn ladder_spec(n_apps: usize, n_configs: usize, dwell: u64) -> ReconfigSpec {
    let mut b = ReconfigSpec::builder()
        .frame_len(Ticks::new(100))
        .env_factor("level", (0..n_configs).map(|i| i.to_string()))
        .min_dwell_frames(dwell);
    for a in 0..n_apps {
        let mut app = AppDecl::new(format!("app{a}"));
        for c in 0..n_configs {
            app = app.spec(FunctionalSpec::new(format!("s{c}")));
        }
        if a > 0 {
            app = app.depends_on(format!("app{}", a - 1));
        }
        b = b.app(app);
    }
    for c in 0..n_configs {
        let mut config = Configuration::new(format!("c{c}"));
        for a in 0..n_apps {
            config = config
                .assign(format!("app{a}"), format!("s{c}"))
                .place(format!("app{a}"), ProcessorId::new((a % 2) as u32));
        }
        if c == n_configs - 1 {
            config = config.safe();
        }
        b = b.config(config);
    }
    for from in 0..n_configs {
        for to in 0..n_configs {
            if from != to {
                b = b.transition(format!("c{from}"), format!("c{to}"), Ticks::new(2000));
            }
        }
    }
    for c in 0..n_configs {
        b = b.choose_rule(ChooseRule::any_from(format!("c{c}")).when("level", c.to_string()));
    }
    b.initial_config("c0")
        .initial_env([("level", "0")])
        .build()
        .expect("ladder spec is structurally valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SP1-SP4 hold for arbitrary trigger schedules over arbitrary
    /// ladder systems, under the default policies.
    #[test]
    fn random_schedules_satisfy_all_properties(
        n_apps in 1usize..4,
        n_configs in 2usize..5,
        dwell in 0u64..8,
        schedule in proptest::collection::vec((1u64..40, 0usize..5), 0..6),
    ) {
        let case = schedule.into_iter().fold(Scenario::new("ladder", 90), |case, (f, lvl)| {
            case.set_env(f, "level", (lvl % n_configs).to_string())
        });
        let system = case.run_on_spec(&ladder_spec(n_apps, n_configs, dwell)).expect("valid level");
        let report = properties::check_all(system.trace(), system.spec());
        prop_assert!(report.is_ok(), "{}", report);
        // No reconfiguration may be stuck open past its bound either.
        let extended = properties::check_extended(system.trace(), system.spec());
        let open = extended.of(properties::PropertyId::OpenReconfiguration);
        prop_assert!(open.is_empty(), "{:?}", open);
    }

    /// Every completed reconfiguration takes exactly the protocol length
    /// for its synchronization policy (determinism of the SFTA timing).
    #[test]
    fn reconfiguration_duration_is_deterministic(
        n_apps in 1usize..4,
        trigger_frame in 1u64..20,
    ) {
        let system = Scenario::new("trigger", trigger_frame + 12)
            .set_env(trigger_frame, "level", "1")
            .run_on_spec(&ladder_spec(n_apps, 2, 0))
            .expect("valid");
        let reconfigs = system.trace().get_reconfigs();
        prop_assert_eq!(reconfigs.len(), 1);
        // Default policy is Simultaneous with one-frame stages: trigger +
        // halt + prepare + init = 4 cycles, always.
        prop_assert_eq!(reconfigs[0].cycles(), 4);
    }

    /// The dwell guard really does rate-limit reconfigurations: with an
    /// oscillating environment, completed reconfigurations are separated
    /// by at least the dwell.
    #[test]
    fn dwell_guard_rate_limits_oscillation(dwell in 2u64..10) {
        let spec = ladder_spec(1, 2, dwell);
        let mut system = System::builder(spec).build().expect("builds");
        for frame in 0..120u64 {
            // Flip the desired level every frame: a pathological
            // environment oscillation (§5.3's cyclic reconfiguration).
            system.set_env("level", if frame % 2 == 0 { "1" } else { "0" }).expect("valid");
            system.run_frame();
        }
        let reconfigs = system.trace().get_reconfigs();
        for pair in reconfigs.windows(2) {
            let gap = pair[1].start_c - pair[0].end_c;
            prop_assert!(
                gap >= dwell.saturating_sub(4),
                "reconfigurations too close: {:?} then {:?} (dwell {})",
                pair[0], pair[1], dwell
            );
        }
        let report = properties::check_all(system.trace(), system.spec());
        prop_assert!(report.is_ok(), "{}", report);
    }
}

/// Exhaustive model checking over a sample of the ladder family — small
/// enough to run in CI, broad enough to cover dependency depths 1-3.
#[test]
fn exhaustive_check_over_ladder_family() {
    for n_apps in 1..=3 {
        for n_configs in 2..=3 {
            let spec = ladder_spec(n_apps, n_configs, 1);
            let report = ModelChecker::new(spec, 14, 1).run();
            assert!(
                report.all_passed(),
                "apps={n_apps} configs={n_configs}: {report}"
            );
        }
    }
}
