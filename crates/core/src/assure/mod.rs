//! The unified invariant oracle and the failpoint campaign surface.
//!
//! [`InvariantOracle`] is the one entry point for trace verification:
//! [`check`](InvariantOracle::check) folds the profile's property
//! monitors over a [`SysTrace`] and returns every violation. The
//! [`Soak`](OracleProfile::Soak) profile adds the TCC static obligations
//! and the chaos-defense livelock bound.
//!
//! The module also owns the deterministic-simulation campaign surface:
//! [`dst_menu`] is the static map from substrate decision points
//! (failpoint sites, planted with [`arfs_assure::fp!`]) to the fault
//! actions whose effects the defense layer is *designed* to absorb.
//! `exp_dst` sweeps exactly this menu, so a menu entry is a
//! machine-checked claim: "this fault, at this point, cannot violate
//! SP1–SP4."

use std::sync::Arc;
use std::sync::OnceLock;

use arfs_assure::FpAction;

use crate::analysis;
use crate::properties::{self, PropertyId, PropertyReport, PropertyViolation};
use crate::spec::ReconfigSpec;
use crate::trace::SysTrace;

/// Which check set [`InvariantOracle::check`] evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum OracleProfile {
    /// SP1–SP4 plus the open-reconfiguration rule: the model checker's
    /// per-schedule verdict (an exhaustive walk cannot use the
    /// responsiveness run-length rule — its schedules end abruptly).
    Exhaustive,
    /// SP1–SP4 plus all three extension checks
    /// ([`properties::check_extended`]): the batch
    /// [`verify`](crate::verify) pipeline's full-trace verdict, and the
    /// fleet's streaming one.
    Extended,
    /// Everything in [`Extended`](Self::Extended), plus the cached TCC
    /// static obligations and the chaos-defense livelock bound. The
    /// profile for chaos soaks and DST campaigns, where the defenses
    /// themselves are under test.
    Soak,
}

impl OracleProfile {
    /// The profile's checks, in report order.
    fn checks(self) -> &'static [PropertyId] {
        use PropertyId::*;
        match self {
            OracleProfile::Exhaustive => &[Sp1, Sp2, Sp3, Sp4, OpenReconfiguration],
            OracleProfile::Extended => properties::EXTENDED,
            OracleProfile::Soak => &[
                Sp1,
                Sp2,
                Sp3,
                Sp4,
                OpenReconfiguration,
                Responsiveness,
                ProtocolConformance,
                TccObligation,
                DefenseLivelock,
            ],
        }
    }
}

/// The single entry point for trace verification. See the
/// [module documentation](self).
#[derive(Debug)]
pub struct InvariantOracle {
    spec: Arc<ReconfigSpec>,
    profile: OracleProfile,
    /// TCC obligation failures, computed once per oracle: the
    /// obligations are a function of the spec alone, and the lint pass
    /// behind them is far too slow to rerun per trace.
    static_cache: OnceLock<Vec<PropertyViolation>>,
}

impl InvariantOracle {
    /// Creates an oracle for `spec` evaluating `profile`'s check set.
    pub fn new(spec: Arc<ReconfigSpec>, profile: OracleProfile) -> Self {
        InvariantOracle {
            spec,
            profile,
            static_cache: OnceLock::new(),
        }
    }

    /// The profile this oracle evaluates.
    pub fn profile(&self) -> OracleProfile {
        self.profile
    }

    /// The specification the oracle checks against.
    pub fn spec(&self) -> &ReconfigSpec {
        &self.spec
    }

    /// Evaluates the profile's full check set over `trace`, returning
    /// every violation found.
    pub fn check(&self, trace: &SysTrace) -> Vec<PropertyViolation> {
        self.report(trace).violations
    }

    /// Like [`check`](Self::check), but wrapped in a [`PropertyReport`]
    /// with the reconfiguration count filled in.
    pub fn report(&self, trace: &SysTrace) -> PropertyReport {
        let checks = self.profile.checks();
        let mut report = properties::check_trace(trace, &self.spec, checks);
        if checks.contains(&PropertyId::TccObligation) {
            // The static obligations have no trace monitor; they report
            // in their place in the check list.
            let violations = &mut report.violations;
            violations.extend_from_slice(self.static_violations());
            violations.sort_by_key(|v| checks.iter().position(|&c| c == v.property));
        }
        report
    }

    /// The spec's TCC static-obligation failures, as violations.
    /// Computed on first use and cached for the oracle's lifetime.
    pub fn static_violations(&self) -> &[PropertyViolation] {
        self.static_cache.get_or_init(|| {
            analysis::check_obligations(&self.spec)
                .failures()
                .into_iter()
                .map(|o| {
                    let why = match &o.result {
                        crate::analysis::ObligationResult::Failed(why) => why.clone(),
                        crate::analysis::ObligationResult::Proved => {
                            unreachable!("failures() only yields failed obligations")
                        }
                    };
                    PropertyViolation {
                        property: PropertyId::TccObligation,
                        reconfig: None,
                        frame: None,
                        detail: format!("obligation `{}` unproved: {why}", o.name),
                    }
                })
                .collect()
        })
    }
}

/// The deterministic-simulation campaign menu: every (failpoint site,
/// action) pair whose injected fault the defense layer is designed to
/// absorb without violating SP1–SP4.
///
/// This is the machine-checked half of the coverage map in
/// `docs/DESIGN.md`: `exp_dst` arms random subsets of exactly these
/// pairs and requires zero unshrunk violations, so adding a pair here
/// is a falsifiable robustness claim. Destructive pairs (for example
/// `failstop.stable.commit:Err`, a torn device write below the defended
/// retry path) are deliberately absent — they are exercised by targeted
/// unit tests instead, where the *detection* is the assertion.
pub fn dst_menu() -> Vec<(&'static str, Vec<FpAction>)> {
    vec![
        // An injected torn stable-storage commit is routed through the
        // same `faulted_apps` path as a scheduled CommitFault, which the
        // SCRAM absorbs within its retry budget.
        ("system.stable.commit", vec![FpAction::Err, FpAction::Skip]),
        // A deferred trigger acceptance: the environment change
        // persists, so the kernel re-chooses next frame and SP4's clock
        // starts at the (later) acceptance.
        ("scram.trigger", vec![FpAction::Skip]),
        // A dropped frame of journal events is observability loss, never
        // a safety violation.
        ("fleet.journal.append", vec![FpAction::Skip]),
    ]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::{AppDecl, Configuration, FunctionalSpec};
    use crate::system::System;
    use arfs_failstop::ProcessorId;
    use arfs_rtos::Ticks;

    fn spec() -> ReconfigSpec {
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
            .transition("full", "safe", Ticks::new(500))
            .transition("safe", "full", Ticks::new(500))
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .min_dwell_frames(2) // cycle guard: full <-> safe is a loop
            .build()
            .unwrap()
    }

    fn run_clean_trace() -> (Arc<ReconfigSpec>, SysTrace) {
        let spec = Arc::new(spec());
        let mut system = System::builder_arc(Arc::clone(&spec)).build().unwrap();
        for f in 0..30 {
            if f == 5 {
                system.set_env("power", "bad").unwrap();
            }
            system.run_frame();
        }
        (spec, system.trace().clone())
    }

    #[test]
    fn all_profiles_pass_a_clean_trace() {
        let (spec, trace) = run_clean_trace();
        for profile in [
            OracleProfile::Exhaustive,
            OracleProfile::Extended,
            OracleProfile::Soak,
        ] {
            let oracle = InvariantOracle::new(Arc::clone(&spec), profile);
            let violations = oracle.check(&trace);
            assert!(violations.is_empty(), "{profile:?}: {violations:?}");
        }
    }

    /// Two applications and three configurations, so that every
    /// `ScramMutation` has something to get wrong.
    pub(crate) fn two_app_spec() -> ReconfigSpec {
        let both = |id: &str, spec: &str| {
            Configuration::new(id)
                .assign("a", spec)
                .assign("b", spec)
                .place("a", ProcessorId::new(0))
                .place("b", ProcessorId::new(1))
        };
        let mut builder = ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["good", "bad"])
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("full"))
                    .spec(FunctionalSpec::new("deg")),
            )
            .app(
                AppDecl::new("b")
                    .spec(FunctionalSpec::new("full"))
                    .spec(FunctionalSpec::new("deg")),
            )
            .config(both("full", "full"))
            .config(both("safe", "deg").safe())
            .config(
                Configuration::new("min")
                    .assign("a", "deg")
                    .assign("b", "off")
                    .place("a", ProcessorId::new(0))
                    .safe(),
            );
        for (from, to) in [("full", "safe"), ("full", "min"), ("safe", "min")] {
            builder =
                builder
                    .transition(from, to, Ticks::new(500))
                    .transition(to, from, Ticks::new(500));
        }
        builder
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .min_dwell_frames(2)
            .build()
            .unwrap()
    }

    /// A spec whose `full -> safe` transition is missing: TCC obligations
    /// fail.
    fn broken_spec() -> ReconfigSpec {
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
            .transition("safe", "full", Ticks::new(500))
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .build()
            .unwrap()
    }

    #[test]
    fn profiles_report_exact_violations_on_mutated_traces() {
        use crate::scram::tests::mutated;
        use crate::scram::ScramMutation;
        const OPEN: &str = "OPEN-RECONFIG @frame 3: reconfiguration open since frame 3 has run 2700t, exceeding every declared bound (max 500t)";
        const LIVELOCK: &str =
            "DEFENSE-LIVELOCK: 27/30 frames restricted (ratio 0.900 > bound 0.6)";
        // Per case: the mutant, its stimuli, the reconfigurations it
        // completes, the Extended profile's violations in report order,
        // and what Soak adds after them. Exhaustive reports the Extended
        // list without responsiveness and protocol conformance.
        type Lines = &'static [&'static str];
        type Case = (
            ReconfigSpec,
            ScramMutation,
            &'static [(u64, &'static str)],
            usize,
            Lines,
            Lines,
        );
        let cases: [Case; 7] = [
            (
                two_app_spec(),
                ScramMutation::WrongTarget,
                &[(5, "bad")],
                4,
                &[
                    "SP2 [R 5..8]: `min` is not choose(`full`, env(c)) for any cycle c in the reconfiguration",
                    "SP2 [R 11..14]: `full` is not choose(`min`, env(c)) for any cycle c in the reconfiguration",
                    "SP2 [R 17..20]: `min` is not choose(`full`, env(c)) for any cycle c in the reconfiguration",
                    "SP2 [R 23..26]: `full` is not choose(`min`, env(c)) for any cycle c in the reconfiguration",
                ],
                &[],
            ),
            (
                two_app_spec(),
                ScramMutation::ExtraDelayFrames(3),
                &[(5, "bad"), (15, "good")],
                2,
                &[
                    "SP3 [R 5..11]: reconfiguration took 700t but T(`full`, `safe`) = 500t",
                    "SP3 [R 15..21]: reconfiguration took 700t but T(`safe`, `full`) = 500t",
                ],
                &[],
            ),
            (
                two_app_spec(),
                ScramMutation::SkipInitPhase,
                &[(5, "bad"), (15, "good")],
                2,
                &[
                    "SP4 [R 5..7] @frame 7: application `a`'s precondition for `full` does not hold at end_c",
                    "SP4 [R 5..7] @frame 7: application `b`'s precondition for `full` does not hold at end_c",
                    "SP4 [R 15..17] @frame 17: application `a`'s precondition for `full` does not hold at end_c",
                    "SP4 [R 15..17] @frame 17: application `b`'s precondition for `full` does not hold at end_c",
                ],
                &[],
            ),
            (
                two_app_spec(),
                ScramMutation::SkipHaltPhase,
                &[(5, "bad"), (15, "good")],
                2,
                &[
                    "PROTOCOL-CONFORMANCE [R 5..8]: application `a` has no halt stage with an established postcondition",
                    "PROTOCOL-CONFORMANCE [R 5..8]: application `b` has no halt stage with an established postcondition",
                    "PROTOCOL-CONFORMANCE [R 15..18]: application `a` has no halt stage with an established postcondition",
                    "PROTOCOL-CONFORMANCE [R 15..18]: application `b` has no halt stage with an established postcondition",
                ],
                &[],
            ),
            (
                two_app_spec(),
                ScramMutation::LeaveAppRunning(crate::AppId::new("b")),
                &[(5, "bad"), (15, "good")],
                2,
                &[
                    "SP1 [R 5..8] @frame 6: application `b` is `normal` strictly inside the reconfiguration",
                    "SP1 [R 5..8] @frame 7: application `b` is `normal` strictly inside the reconfiguration",
                    "SP1 [R 15..18] @frame 16: application `b` is `normal` strictly inside the reconfiguration",
                    "SP1 [R 15..18] @frame 17: application `b` is `normal` strictly inside the reconfiguration",
                    "SP4 [R 5..8] @frame 8: application `b`'s precondition for `full` does not hold at end_c",
                    "PROTOCOL-CONFORMANCE [R 5..8]: application `b` has no halt stage with an established postcondition",
                    "PROTOCOL-CONFORMANCE [R 5..8]: application `b` never received a prepare command",
                    "PROTOCOL-CONFORMANCE [R 15..18]: application `b` has no halt stage with an established postcondition",
                    "PROTOCOL-CONFORMANCE [R 15..18]: application `b` never received a prepare command",
                ],
                &[],
            ),
            (
                two_app_spec(),
                ScramMutation::ExtraDelayFrames(40),
                &[(3, "bad")],
                0,
                &[OPEN],
                &[LIVELOCK],
            ),
            (
                broken_spec(),
                ScramMutation::ExtraDelayFrames(40),
                &[(3, "bad")],
                0,
                &[OPEN],
                &[
                    "TCC-OBLIGATION: obligation `covering_txns` unproved: 1 uncovered (configuration, environment) pair(s); first: from `full` under {power=bad}: chosen target `safe` has no declared transition from `full`",
                    "TCC-OBLIGATION: obligation `safe_reachable` unproved: no safe configuration reachable from: full",
                    LIVELOCK,
                ],
            ),
        ];
        for (spec, mutation, stimuli, reconfigs, extended, soak_extra) in cases {
            let spec = Arc::new(spec);
            let mut system = System::builder_arc(Arc::clone(&spec))
                .kernel(mutated(mutation.clone()))
                .build()
                .unwrap();
            for frame in 0..30 {
                if let Some((_, value)) = stimuli.iter().find(|(f, _)| *f == frame) {
                    system.set_env("power", value).unwrap();
                }
                system.run_frame();
            }
            let exhaustive: Vec<&str> = extended
                .iter()
                .copied()
                .filter(|v| !v.starts_with("RESPONSIVENESS") && !v.starts_with("PROTOCOL"))
                .collect();
            let soak: Vec<&str> = extended.iter().chain(soak_extra).copied().collect();
            for (profile, expected) in [
                (OracleProfile::Exhaustive, exhaustive),
                (OracleProfile::Extended, extended.to_vec()),
                (OracleProfile::Soak, soak),
            ] {
                let report =
                    InvariantOracle::new(Arc::clone(&spec), profile).report(system.trace());
                let got: Vec<String> = report.violations.iter().map(ToString::to_string).collect();
                assert_eq!(got, expected, "{mutation:?} under {profile:?}");
                assert_eq!(
                    report.reconfigs_checked, reconfigs,
                    "{mutation:?} under {profile:?}"
                );
            }
        }
    }

    #[test]
    fn soak_profile_surfaces_tcc_failures() {
        let broken = broken_spec();
        let oracle = InvariantOracle::new(Arc::new(broken), OracleProfile::Soak);
        let statics = oracle.static_violations();
        assert!(!statics.is_empty());
        assert!(statics
            .iter()
            .all(|v| v.property == PropertyId::TccObligation));
        // The static failures appear in every Soak check, trace or not.
        let empty = SysTrace::new();
        let vs = oracle.check(&empty);
        assert!(vs.iter().any(|v| v.property == PropertyId::TccObligation));
        // And the cache means a second call is cheap and identical.
        assert_eq!(oracle.check(&empty), vs);
    }

    #[test]
    fn livelock_bound_flags_thrashing_traces() {
        let (spec, trace) = run_clean_trace();
        let livelock = |trace: &SysTrace| {
            properties::check_trace(trace, &spec, &[PropertyId::DefenseLivelock]).violations
        };
        assert!(livelock(&trace).is_empty());

        // Synthesize a trace that is restricted for 80% of its frames.
        use crate::app::ConfigStatus;
        use crate::environment::EnvState;
        use crate::trace::{AppFrameRecord, ReconfSt, SysState};
        use std::collections::BTreeMap;
        let mut thrash = SysTrace::new();
        for f in 0..40u64 {
            let st = if f % 5 == 0 {
                ReconfSt::Normal
            } else {
                ReconfSt::Halted
            };
            let mut apps = BTreeMap::new();
            apps.insert(
                crate::AppId::new("a"),
                AppFrameRecord {
                    reconf_st: st,
                    spec: crate::SpecId::new("full"),
                    commanded: ConfigStatus::Normal,
                    post_ok: None,
                    pre_ok: None,
                    lost: false,
                },
            );
            thrash.push(SysState {
                frame: f,
                svclvl: crate::ConfigId::new("full"),
                env: EnvState::new([("power", "good")]),
                apps,
            });
        }
        let vs = livelock(&thrash);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].property, PropertyId::DefenseLivelock);
        let oracle = InvariantOracle::new(spec, OracleProfile::Soak);
        assert!(oracle
            .check(&thrash)
            .iter()
            .any(|v| v.property == PropertyId::DefenseLivelock));
    }

    #[test]
    fn dst_menu_names_planted_sites_only() {
        // The menu must never drift from the planted site set (the
        // compile-time registry has no site list, so this is the
        // enforcement point for names).
        let planted = [
            "failstop.stable.stage",
            "failstop.stable.commit",
            "failstop.pool.fail",
            "rtos.clock.advance",
            "scram.trigger",
            "scram.phase",
            "scram.retarget",
            "system.stable.commit",
            "fleet.shard",
            "fleet.journal.append",
        ];
        for (site, actions) in dst_menu() {
            assert!(planted.contains(&site), "unknown site `{site}` in menu");
            assert!(!actions.is_empty());
        }
    }
}
