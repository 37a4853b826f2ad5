//! The unified invariant oracle and the failpoint campaign surface.
//!
//! Before this module existed the repository had three semi-duplicated
//! checker paths: the model checker combined
//! [`properties::check_all`] with the open-reconfiguration rule by
//! hand, the streaming [`StreamVerifier`](crate::fleet::StreamVerifier)
//! combined `check_all` with protocol conformance by hand, and the
//! batch [`verify`](crate::verify) / soak experiments each picked their
//! own mix of `check_all` / `check_extended`. Any new invariant had to
//! be wired into every path separately — and the chaos-defense
//! invariants never were.
//!
//! [`InvariantOracle`] replaces those paths with one entry point:
//! [`check`](InvariantOracle::check) evaluates a [`SysTrace`] against
//! the profile's check set and returns every violation. The profiles
//! reproduce the historical check sets exactly (so recorded
//! counterexample artifacts replay with the same primary violation) and
//! the [`Soak`](OracleProfile::Soak) profile extends them with the TCC
//! static obligations and the chaos-defense livelock bound that
//! previously lived nowhere.
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
///
/// Each profile reproduces one of the historical checker paths; the
/// violations for a given trace are identical to what that path
/// produced before unification (plus, for [`Soak`](Self::Soak), the
/// invariants that were previously unchecked).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum OracleProfile {
    /// SP1–SP4 plus the open-reconfiguration rule: the model checker's
    /// per-schedule verdict (an exhaustive walk cannot use the
    /// responsiveness run-length rule — its schedules end abruptly).
    Exhaustive,
    /// SP1–SP4 plus protocol conformance on a closed restricted window:
    /// the streaming verifier's verdict when a window closes.
    /// Responsiveness and open-reconfiguration are evaluated
    /// incrementally by the stream itself.
    StreamWindow,
    /// SP1–SP4 plus all three extension checks: the batch
    /// [`verify`](crate::verify) pipeline's full-trace verdict.
    Extended,
    /// Everything in [`Extended`](Self::Extended), plus the cached TCC
    /// static obligations and the chaos-defense livelock bound. The
    /// profile for chaos soaks and DST campaigns, where the defenses
    /// themselves are under test.
    Soak,
}

/// The chaos-defense livelock bound: a defended system may spend at most
/// this fraction of its (sufficiently long) run in restricted mode.
/// Above it, the retry/backoff/quarantine defenses are thrashing —
/// formally live, practically unavailable.
pub const RESTRICTED_RATIO_LIVELOCK_BOUND: f64 = 0.6;

/// Minimum trace length (frames) before the livelock ratio is judged.
/// Shorter traces are dominated by a single reconfiguration window and
/// the ratio is meaningless.
pub const LIVELOCK_MIN_FRAMES: usize = 20;

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
        let spec = &*self.spec;
        let mut out = properties::check_all(trace, spec).violations;
        match self.profile {
            OracleProfile::Exhaustive => {
                out.extend(properties::check_open_reconfiguration(trace, spec));
            }
            OracleProfile::StreamWindow => {
                out.extend(properties::check_protocol_conformance(trace, spec));
            }
            OracleProfile::Extended => {
                out.extend(properties::check_open_reconfiguration(trace, spec));
                out.extend(properties::check_responsiveness(trace, spec));
                out.extend(properties::check_protocol_conformance(trace, spec));
            }
            OracleProfile::Soak => {
                out.extend(properties::check_open_reconfiguration(trace, spec));
                out.extend(properties::check_responsiveness(trace, spec));
                out.extend(properties::check_protocol_conformance(trace, spec));
                out.extend(self.static_violations().iter().cloned());
                out.extend(check_defense_livelock(trace));
            }
        }
        out
    }

    /// Like [`check`](Self::check), but wrapped in a [`PropertyReport`]
    /// with the reconfiguration count filled in.
    pub fn report(&self, trace: &SysTrace) -> PropertyReport {
        PropertyReport {
            violations: self.check(trace),
            reconfigs_checked: trace.get_reconfigs().len(),
        }
    }

    /// Evaluates only the open-reconfiguration rule — the streaming
    /// verifier's end-of-horizon check on a still-open window.
    pub fn check_open(&self, trace: &SysTrace) -> Vec<PropertyViolation> {
        properties::check_open_reconfiguration(trace, &self.spec)
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

/// The chaos-defense livelock invariant: over a sufficiently long trace,
/// the fraction of frames spent in restricted mode must stay at or
/// below [`RESTRICTED_RATIO_LIVELOCK_BOUND`].
pub fn check_defense_livelock(trace: &SysTrace) -> Vec<PropertyViolation> {
    let total = trace.len();
    if total < LIVELOCK_MIN_FRAMES {
        return Vec::new();
    }
    let restricted = trace.states().filter(|s| s.any_reconfiguring()).count();
    let ratio = restricted as f64 / total as f64;
    if ratio > RESTRICTED_RATIO_LIVELOCK_BOUND {
        vec![PropertyViolation {
            property: PropertyId::DefenseLivelock,
            reconfig: None,
            frame: None,
            detail: format!(
                "{restricted}/{total} frames restricted (ratio {ratio:.3} > bound {RESTRICTED_RATIO_LIVELOCK_BOUND})"
            ),
        }]
    } else {
        Vec::new()
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
        // The SCRAM reads the environment directly; the bus "fault"
        // signal is a modeled artifact, so dropping it is benign.
        ("system.env.submit", vec![FpAction::Skip]),
        // A dropped bus delivery is an omission fault on a modeled
        // signal (same argument as above).
        ("ttbus.bus.deliver", vec![FpAction::Skip]),
        // A deferred inbox drain holds the cursor: the messages are
        // delivered next round, not lost.
        ("ttbus.bus.drain", vec![FpAction::Skip, FpAction::Delay(1)]),
        // A deferred trigger acceptance: the environment change
        // persists, so the kernel re-chooses next frame and SP4's clock
        // starts at the (later) acceptance.
        ("scram.trigger", vec![FpAction::Skip]),
        // A dropped journal batch is observability loss, never a safety
        // violation.
        ("fleet.journal.send", vec![FpAction::Skip]),
    ]
}

#[cfg(test)]
mod tests {
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
            OracleProfile::StreamWindow,
            OracleProfile::Extended,
            OracleProfile::Soak,
        ] {
            let oracle = InvariantOracle::new(Arc::clone(&spec), profile);
            let violations = oracle.check(&trace);
            assert!(violations.is_empty(), "{profile:?}: {violations:?}");
        }
    }

    #[test]
    fn profiles_reproduce_the_historical_check_sets() {
        let (spec, trace) = run_clean_trace();
        let s = &*spec;

        let exhaustive = InvariantOracle::new(Arc::clone(&spec), OracleProfile::Exhaustive);
        let mut legacy = properties::check_all(&trace, s).violations;
        legacy.extend(properties::check_open_reconfiguration(&trace, s));
        assert_eq!(exhaustive.check(&trace), legacy);

        let extended = InvariantOracle::new(Arc::clone(&spec), OracleProfile::Extended);
        assert_eq!(
            extended.check(&trace),
            properties::check_extended(&trace, s).violations
        );
        assert_eq!(
            extended.report(&trace).reconfigs_checked,
            properties::check_extended(&trace, s).reconfigs_checked
        );
    }

    #[test]
    fn soak_profile_surfaces_tcc_failures() {
        // A spec with a coverage gap: no transition out of `full` when
        // power goes bad... build one lacking the full->safe transition.
        let broken = ReconfigSpec::builder()
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
            .unwrap();
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
        assert!(check_defense_livelock(&trace).is_empty());

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
        let vs = check_defense_livelock(&thrash);
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
            "failstop.pool.restart",
            "ttbus.bus.deliver",
            "ttbus.bus.drain",
            "rtos.clock.advance",
            "scram.trigger",
            "scram.phase",
            "scram.retarget",
            "system.stable.commit",
            "system.env.submit",
            "fleet.shard",
            "fleet.journal.send",
            "obs.writer.drain",
        ];
        for (site, actions) in dst_menu() {
            assert!(planted.contains(&site), "unknown site `{site}` in menu");
            assert!(!actions.is_empty());
        }
    }
}
