//! One-call verification: the paper's full assurance argument as a
//! single API.
//!
//! The DSN 2005 assurance argument has three parts: "(1) a formal model
//! of a reconfigurable system architecture; (2) a set of formal
//! properties ... that we use as our definition of system
//! reconfiguration; and (3) proofs of the theorems". [`verify_spec`]
//! packages the executable analogues:
//!
//! 1. **static obligations** ([`crate::analysis::check_obligations`]) —
//!    the TCC suite;
//! 2. **exhaustive bounded exploration**
//!    ([`crate::model::ModelChecker`]) — SP1–SP4 on every trigger
//!    schedule up to the bound;
//! 3. **mutation screening** (optional) — seeded protocol defects must
//!    be detected, guarding the checkers themselves against vacuity.
//!
//! A passing [`VerificationReport`] is the strongest statement this
//! implementation can make about a specification short of a mechanized
//! proof.

use std::fmt;

use crate::analysis::ObligationReport;
use crate::assure::{InvariantOracle, OracleProfile};
use crate::lint::{obligations_from, Assembly, LintEngine, LintReport, LintTarget};
use crate::model::{ModelCheckReport, ModelChecker};
use crate::properties::PropertyId;
use crate::scenario::Scenario;
use crate::scram::ScramMutation;
use crate::spec::ReconfigSpec;
use crate::system::System;

/// Tuning knobs for [`verify_spec`].
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Frames per explored schedule.
    pub horizon: u64,
    /// Maximum environment changes per schedule.
    pub max_events: usize,
    /// Worker threads for the exhaustive pass.
    pub threads: usize,
    /// Whether to run the mutation screen (adds four full simulations).
    pub mutation_screen: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            horizon: 20,
            max_events: 2,
            threads: 4,
            mutation_screen: true,
        }
    }
}

/// One mutation-screen result.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MutationResult {
    /// Human-readable mutation name.
    pub mutation: String,
    /// The property expected to catch it.
    pub property: PropertyId,
    /// Whether it was caught.
    pub caught: bool,
}

/// The bundled verification verdict.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct VerificationReport {
    /// Static obligation results.
    pub obligations: ObligationReport,
    /// The full lint report (the obligations are derived from its error
    /// half; it additionally carries assembly-level errors and
    /// `ARFS-W1xx` warnings). Diagnostics always carry codes from the
    /// [`crate::lint::codes`] registry; the pre-registry ad-hoc
    /// `ARFS-W1` code survives only as a deserialization alias that
    /// [`crate::lint::codes::canonical`] folds into `ARFS-W101`.
    #[serde(default)]
    pub lint: LintReport,
    /// Exhaustive bounded exploration results.
    pub model_check: ModelCheckReport,
    /// Mutation-screen results (empty if the screen was disabled).
    pub mutations: Vec<MutationResult>,
}

impl VerificationReport {
    /// Returns `true` if every layer passed: all obligations proved, no
    /// lint errors, all schedules clean, and (when screened) every
    /// mutation caught.
    pub fn is_verified(&self) -> bool {
        self.obligations.all_passed()
            && !self.lint.has_errors()
            && self.model_check.all_passed()
            && self.mutations.iter().all(|m| m.caught)
    }
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "static obligations: {}",
            if self.obligations.all_passed() {
                format!("{} proved", self.obligations.len())
            } else {
                format!("{} FAILED", self.obligations.failures().len())
            }
        )?;
        writeln!(
            f,
            "lint:               {} error(s), {} warning(s)",
            self.lint.errors().count(),
            self.lint.warnings().count()
        )?;
        writeln!(f, "exhaustive check:   {}", self.model_check)?;
        if self.mutations.is_empty() {
            writeln!(f, "mutation screen:    skipped")?;
        } else {
            let caught = self.mutations.iter().filter(|m| m.caught).count();
            writeln!(
                f,
                "mutation screen:    {caught}/{} defects detected",
                self.mutations.len()
            )?;
        }
        write!(
            f,
            "verdict:            {}",
            if self.is_verified() {
                "VERIFIED"
            } else {
                "NOT VERIFIED"
            }
        )
    }
}

/// Runs the full assurance pipeline over a specification.
///
/// The specification's concrete applications are abstracted by
/// [`NullApp`](crate::app::NullApp)s, exactly the abstraction level of
/// the paper's PVS model; verifying a system's *applications* is the
/// separate, per-instantiation activity of discharging their stage
/// pre/postconditions (see the SP4 evidence in recorded traces).
///
/// # Example
///
/// ```
/// use arfs_core::prelude::*;
/// use arfs_core::verify::{verify_spec, VerifyOptions};
///
/// # let spec = ReconfigSpec::builder()
/// #     .frame_len(Ticks::new(100))
/// #     .env_factor("power", ["good", "bad"])
/// #     .app(AppDecl::new("a").spec(FunctionalSpec::new("f")).spec(FunctionalSpec::new("d")))
/// #     .config(Configuration::new("full").assign("a", "f").place("a", ProcessorId::new(0)))
/// #     .config(Configuration::new("safe").assign("a", "d").place("a", ProcessorId::new(0)).safe())
/// #     .transition("full", "safe", Ticks::new(4000))
/// #     .transition("safe", "full", Ticks::new(4000))
/// #     .choose_when("power", "bad", "safe")
/// #     .choose_when("power", "good", "full")
/// #     .initial_config("full")
/// #     .initial_env([("power", "good")])
/// #     .min_dwell_frames(2)
/// #     .build()
/// #     .unwrap();
/// let options = VerifyOptions {
///     horizon: 12,
///     max_events: 1,
///     threads: 2,
///     mutation_screen: false,
/// };
/// let report = verify_spec(&spec, &options);
/// assert!(report.is_verified(), "{report}");
/// ```
pub fn verify_spec(spec: &ReconfigSpec, options: &VerifyOptions) -> VerificationReport {
    // Lint the full assembly, or the spec alone if it cannot be derived.
    let engine = LintEngine::new();
    let lint = match Assembly::derive(spec) {
        Ok(assembly) => engine.run(&LintTarget::assembled(spec, &assembly)),
        Err(_) => engine.run(&LintTarget::spec_only(spec)),
    };
    let obligations = obligations_from(spec, &lint);

    let model_check = ModelChecker::new(spec.clone(), options.horizon, options.max_events)
        .run_parallel(options.threads.max(1));

    let mut mutations = Vec::new();
    if options.mutation_screen {
        let mut cases: Vec<(ScramMutation, PropertyId)> = Vec::new();
        // SP1's defect — one application visibly left running — is only
        // expressible with at least two applications: exempting the sole
        // application makes the whole reconfiguration invisible.
        if spec.apps().len() >= 2 {
            let first_app = spec.apps()[0].id().clone();
            cases.push((ScramMutation::LeaveAppRunning(first_app), PropertyId::Sp1));
        }
        // SP2's defect — a target other than the chosen one — needs a
        // third configuration to be wrong about.
        if spec.configs().len() >= 3 {
            cases.push((ScramMutation::WrongTarget, PropertyId::Sp2));
        }
        // SP3's defect must stall past the largest declared bound.
        let max_bound_frames = spec
            .transitions()
            .iter()
            .map(|(_, _, b)| b.raw().div_ceil(spec.frame_len().raw().max(1)))
            .max()
            .unwrap_or(0);
        let delay = max_bound_frames + spec.reconfig_frames() + 2;
        cases.push((ScramMutation::ExtraDelayFrames(delay), PropertyId::Sp3));
        cases.push((ScramMutation::SkipInitPhase, PropertyId::Sp4));
        cases.push((
            ScramMutation::SkipHaltPhase,
            PropertyId::ProtocolConformance,
        ));

        for (mutation, property) in cases {
            mutations.push(MutationResult {
                mutation: format!("{mutation:?}"),
                property,
                caught: mutation_caught(spec, mutation, property, options.horizon),
            });
        }
    }

    VerificationReport {
        obligations,
        lint,
        model_check,
        mutations,
    }
}

/// Runs one mutated system over every single-event schedule and reports
/// whether the target property flagged at least one trace.
fn mutation_caught(
    spec: &ReconfigSpec,
    mutation: ScramMutation,
    property: PropertyId,
    horizon: u64,
) -> bool {
    // A trigger must actually fire for the defect to surface; sweep every
    // (frame, factor, value) single-event schedule like the model checker
    // does.
    let protocol = spec.reconfig_frames() + spec.min_dwell_frames();
    let last_event_frame = horizon.saturating_sub(protocol + 1).max(1);
    // Mutations need generous slack (ExtraDelayFrames stalls past the
    // largest transition bound), so run well past the horizon.
    let max_bound_frames = spec
        .transitions()
        .iter()
        .map(|(_, _, b)| b.raw().div_ceil(spec.frame_len().raw().max(1)))
        .max()
        .unwrap_or(0);
    let run_frames = horizon + max_bound_frames + spec.reconfig_frames() + 16;
    let oracle = InvariantOracle::new(std::sync::Arc::new(spec.clone()), OracleProfile::Extended);
    for frame in 1..=last_event_frame {
        for factor in spec.env_model().factors() {
            for value in factor.domain() {
                let system = Scenario::new("mutation-screen", run_frames)
                    .set_env(frame, factor.name(), value.clone())
                    .run_with(System::builder(spec.clone()).mutation(mutation.clone()))
                    .expect("enumerated values are valid");
                let report = oracle.report(system.trace());
                if !report.of(property).is_empty() {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AppDecl, Configuration, FunctionalSpec};
    use arfs_failstop::ProcessorId;
    use arfs_rtos::Ticks;

    fn small_spec() -> ReconfigSpec {
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["good", "bad"])
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("full").compute(Ticks::new(20)))
                    .spec(FunctionalSpec::new("deg").compute(Ticks::new(5))),
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
            .transition("full", "safe", Ticks::new(4000))
            .transition("safe", "full", Ticks::new(4000))
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .min_dwell_frames(2)
            .build()
            .unwrap()
    }

    #[test]
    fn correct_spec_verifies_completely() {
        let report = verify_spec(
            &small_spec(),
            &VerifyOptions {
                horizon: 14,
                max_events: 1,
                threads: 2,
                mutation_screen: true,
            },
        );
        assert!(report.is_verified(), "{report}");
        assert!(report.obligations.all_passed());
        assert!(report.model_check.all_passed());
        // One app / two configs: the SP3, SP4, and protocol-conformance
        // defects are expressible.
        assert_eq!(report.mutations.len(), 3);
        assert!(report.mutations.iter().all(|m| m.caught), "{report}");
        let text = report.to_string();
        assert!(text.contains("VERIFIED"));
        assert!(text.contains("3/3 defects detected"));
    }

    #[test]
    fn screen_can_be_disabled() {
        let report = verify_spec(
            &small_spec(),
            &VerifyOptions {
                horizon: 12,
                max_events: 1,
                threads: 1,
                mutation_screen: false,
            },
        );
        assert!(report.mutations.is_empty());
        assert!(report.to_string().contains("skipped"));
        assert!(report.is_verified());
    }

    #[test]
    fn broken_spec_fails_verification() {
        // No transition back, and coverage gap: power=good from safe
        // chooses full but there is no safe -> full transition.
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
            .transition("full", "safe", Ticks::new(4000))
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .min_dwell_frames(2)
            .build()
            .unwrap();
        let report = verify_spec(
            &spec,
            &VerifyOptions {
                horizon: 12,
                max_events: 1,
                threads: 1,
                mutation_screen: false,
            },
        );
        assert!(!report.is_verified());
        assert!(!report.obligations.all_passed());
        assert!(report.to_string().contains("NOT VERIFIED"));
    }

    #[test]
    fn default_options_are_sane() {
        let o = VerifyOptions::default();
        assert!(o.horizon >= 10);
        assert!(o.max_events >= 1);
        assert!(o.threads >= 1);
        assert!(o.mutation_screen);
    }
}
