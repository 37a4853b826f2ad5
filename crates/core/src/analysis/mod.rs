//! Static analysis of reconfiguration specifications: the executable
//! analogue of the paper's PVS proof obligations.
//!
//! In the paper, "the powerful type mechanisms of PVS are used to
//! automatically generate all of the proof obligations required to verify
//! that a system instance is compliant with the desired properties"
//! (§6.4), and Figure 2 shows one such type-correctness condition: the
//! `covering_txns` predicate, which "ensures a transition exists for any
//! possible failure-environment pair". This module discharges the same
//! obligations by exhaustive checking over the finite specification:
//!
//! - [`coverage`] — the `covering_txns` TCC and its relatives;
//! - [`timing`] — the §5.3 restriction-time analysis: the chain bound
//!   `Σ T(cᵢ₋₁, cᵢ)`, the interposed-safe-configuration bound
//!   `max{T(cᵢ, cₛ)}`, and transition-graph cycle detection;
//! - [`resources`] — the §5.1 hardware model comparing masking with
//!   reconfiguration.
//!
//! [`check_obligations`] runs the full obligation suite and produces a
//! report styled after PVS's `proved - complete` output.

pub mod coverage;
pub mod resources;
pub mod schedulability;
pub mod timing;

use crate::lint::{LintEngine, LintTarget};
use crate::spec::ReconfigSpec;

pub use crate::lint::{Obligation, ObligationReport, ObligationResult};

/// Runs the complete obligation suite over a specification.
///
/// This is a thin bridge over the lint engine: the specification is
/// linted by [`LintEngine::run`] and the error diagnostics are mapped
/// onto the classic seven-obligation report by
/// [`crate::lint::obligations_from`].
pub fn check_obligations(spec: &ReconfigSpec) -> ObligationReport {
    let report = LintEngine::new().run(&LintTarget::spec_only(spec));
    crate::lint::obligations_from(spec, &report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AppDecl, Configuration, FunctionalSpec};
    use arfs_failstop::ProcessorId;
    use arfs_rtos::Ticks;

    fn good_spec() -> ReconfigSpec {
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
            .transition("full", "safe", Ticks::new(500))
            .transition("safe", "full", Ticks::new(500))
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .min_dwell_frames(5)
            .build()
            .unwrap()
    }

    #[test]
    fn good_spec_discharges_all_obligations() {
        let report = check_obligations(&good_spec());
        assert!(report.all_passed(), "{report}");
        assert!(report.failures().is_empty());
        assert_eq!(report.len(), 7);
        assert!(!report.is_empty());
        let text = report.to_string();
        assert!(text.contains("covering_txns : proved - complete"));
        assert!(text.contains("7/7 obligations proved"));
    }

    #[test]
    fn missing_choice_rule_fails_coverage() {
        // Remove the "good" rule: no choice is defined for power=good
        // from the safe configuration... actually from any config.
        let spec = ReconfigSpec::builder()
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
            .transition("full", "safe", Ticks::new(500))
            .transition("safe", "full", Ticks::new(500))
            .choose_when("power", "bad", "safe")
            .initial_config("full")
            .initial_env([("power", "good")])
            .min_dwell_frames(5)
            .build()
            .unwrap();
        let report = check_obligations(&spec);
        assert!(!report.all_passed());
        let failed = report.failures();
        assert_eq!(failed[0].name, "covering_txns");
        assert!(report.to_string().contains("UNPROVED"));
    }

    #[test]
    fn unguarded_cycle_fails_cycle_obligation() {
        let spec = ReconfigSpec::builder()
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
            .transition("full", "safe", Ticks::new(500))
            .transition("safe", "full", Ticks::new(500))
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .build() // min_dwell_frames defaults to 0
            .unwrap();
        let report = check_obligations(&spec);
        let failed = report.failures();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].name, "cycle_guarded");
    }

    #[test]
    fn too_tight_bound_fails_feasibility() {
        let spec = ReconfigSpec::builder()
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
            .transition("full", "safe", Ticks::new(300)) // < 4 frames * 100
            .transition("safe", "full", Ticks::new(500))
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .min_dwell_frames(1)
            .build()
            .unwrap();
        let report = check_obligations(&spec);
        let failed = report.failures();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].name, "transition_bounds_feasible");
        assert!(matches!(failed[0].result, ObligationResult::Failed(ref m) if m.contains("300t")));
    }

    #[test]
    fn unreachable_safe_config_detected() {
        let spec = ReconfigSpec::builder()
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
            .transition("safe", "full", Ticks::new(500)) // no way INTO safe
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .min_dwell_frames(1)
            .build()
            .unwrap();
        let report = check_obligations(&spec);
        assert!(report.failures().iter().any(|o| o.name == "safe_reachable"));
    }
}
