//! Randomized workload generation: seeded, reproducible trigger
//! schedules for soak testing.
//!
//! The model checker explores *every* schedule up to a small bound; the
//! workload generator complements it with *long* random schedules that a
//! bounded exhaustive search cannot reach. Every generated
//! [`Scenario`] is fully determined by its
//! seed, so a failing soak case is a one-line reproduction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scenario::Scenario;
use crate::spec::ReconfigSpec;

/// Configuration for the generator.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadConfig {
    /// Frames per generated scenario; a fleet's workload must match
    /// [`FleetConfig::horizon`](crate::fleet::FleetConfig::horizon).
    pub horizon: u64,
    /// Mean frames between environment changes (exponential-ish gaps).
    pub mean_gap: u64,
    /// Leave this many trigger-free frames at the end so in-flight
    /// reconfigurations can complete before the trace is judged.
    pub cooldown: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            horizon: 120,
            mean_gap: 12,
            cooldown: 20,
        }
    }
}

/// Generates a random-but-reproducible scenario for a specification.
///
/// Events are environment changes drawn uniformly from the
/// specification's factors and domains, at gaps drawn from
/// `1..=2*mean_gap` (mean ≈ `mean_gap`). The same `(spec, config, seed)`
/// triple always yields the same scenario.
///
/// # Panics
///
/// Panics if the configuration's cooldown exceeds its horizon. A
/// cooldown equal to the horizon is allowed and simply yields an
/// event-free scenario.
pub fn random_scenario(spec: &ReconfigSpec, config: &WorkloadConfig, seed: u64) -> Scenario {
    assert!(
        config.cooldown <= config.horizon,
        "cooldown must not exceed the horizon"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scenario = Scenario::new(format!("random-{seed}"), config.horizon);
    let factors = spec.env_model().factors();
    if factors.is_empty() {
        return scenario;
    }
    let last_event_frame = config.horizon - config.cooldown;
    let mut frame = 1u64;
    loop {
        frame += rng.gen_range(1..=config.mean_gap.max(1) * 2);
        if frame > last_event_frame {
            break;
        }
        let factor = &factors[rng.gen_range(0..factors.len())];
        let value = &factor.domain()[rng.gen_range(0..factor.domain().len())];
        scenario = scenario.set_env(frame, factor.name(), value.clone());
    }
    scenario
}

/// Generates `count` scenarios with consecutive seeds starting at
/// `first_seed`.
pub fn scenario_batch(
    spec: &ReconfigSpec,
    config: &WorkloadConfig,
    first_seed: u64,
    count: u64,
) -> Vec<Scenario> {
    (first_seed..first_seed + count)
        .map(|seed| random_scenario(spec, config, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AppDecl, Configuration, FunctionalSpec};
    use arfs_failstop::ProcessorId;
    use arfs_rtos::Ticks;

    fn spec() -> ReconfigSpec {
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["good", "low", "bad"])
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("f"))
                    .spec(FunctionalSpec::new("m"))
                    .spec(FunctionalSpec::new("d")),
            )
            .config(
                Configuration::new("full")
                    .assign("a", "f")
                    .place("a", ProcessorId::new(0)),
            )
            .config(
                Configuration::new("mid")
                    .assign("a", "m")
                    .place("a", ProcessorId::new(0)),
            )
            .config(
                Configuration::new("safe")
                    .assign("a", "d")
                    .place("a", ProcessorId::new(0))
                    .safe(),
            )
            .transition("full", "mid", Ticks::new(900))
            .transition("full", "safe", Ticks::new(900))
            .transition("mid", "safe", Ticks::new(900))
            .transition("mid", "full", Ticks::new(900))
            .transition("safe", "mid", Ticks::new(900))
            .transition("safe", "full", Ticks::new(900))
            .choose_when("power", "bad", "safe")
            .choose_when("power", "low", "mid")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .min_dwell_frames(3)
            .build()
            .unwrap()
    }

    #[test]
    fn same_seed_same_scenario() {
        let s = spec();
        let cfg = WorkloadConfig::default();
        assert_eq!(random_scenario(&s, &cfg, 7), random_scenario(&s, &cfg, 7));
        assert_ne!(random_scenario(&s, &cfg, 7), random_scenario(&s, &cfg, 8));
    }

    #[test]
    fn generated_events_respect_cooldown() {
        let s = spec();
        let cfg = WorkloadConfig {
            horizon: 60,
            mean_gap: 3,
            cooldown: 15,
        };
        for seed in 0..20 {
            let scenario = random_scenario(&s, &cfg, seed);
            for e in scenario.events() {
                assert!(e.frame <= cfg.horizon - cfg.cooldown);
            }
        }
    }

    #[test]
    fn soak_batch_satisfies_all_properties() {
        let s = spec();
        let cfg = WorkloadConfig {
            horizon: 80,
            mean_gap: 6,
            cooldown: 15,
        };
        let oracle = crate::assure::InvariantOracle::new(
            std::sync::Arc::new(s.clone()),
            crate::assure::OracleProfile::Extended,
        );
        let mut reconfigs = 0;
        for scenario in scenario_batch(&s, &cfg, 0, 25) {
            let system = scenario.run_on_spec(&s).unwrap();
            let report = oracle.report(system.trace());
            assert!(report.is_ok(), "seed {}: {report}", scenario.name());
            reconfigs += report.reconfigs_checked;
        }
        assert!(
            reconfigs > 10,
            "soak exercised {reconfigs} reconfigurations"
        );
    }

    #[test]
    fn factorless_spec_yields_empty_scenario() {
        let s = ReconfigSpec::builder()
            .frame_len(Ticks::new(10))
            .app(AppDecl::new("a").spec(FunctionalSpec::new("f")))
            .config(
                Configuration::new("c")
                    .assign("a", "f")
                    .place("a", ProcessorId::new(0))
                    .safe(),
            )
            .initial_config("c")
            .initial_env(Vec::<(String, String)>::new())
            .build()
            .unwrap();
        let scenario = random_scenario(&s, &WorkloadConfig::default(), 1);
        assert!(scenario.events().is_empty());
    }

    #[test]
    fn cooldown_equal_to_horizon_is_a_quiet_scenario() {
        // The documented contract panics only when cooldown *exceeds*
        // the horizon; equality leaves zero frames for events and must
        // simply produce an empty schedule (the pre-fix assert fired
        // here too).
        for seed in 0..5 {
            let scenario = random_scenario(
                &spec(),
                &WorkloadConfig {
                    horizon: 10,
                    mean_gap: 2,
                    cooldown: 10,
                },
                seed,
            );
            assert!(scenario.events().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "cooldown must not exceed the horizon")]
    fn cooldown_exceeding_horizon_panics() {
        let _ = random_scenario(
            &spec(),
            &WorkloadConfig {
                horizon: 10,
                mean_gap: 2,
                cooldown: 11,
            },
            0,
        );
    }
}
