//! The reconfiguration specification of the §7 avionics example: three
//! configurations, the electrical environment factor, and the statically
//! defined transitions between them.

use arfs_core::scram::ScramMutation;
use arfs_core::spec::{AppDecl, Configuration, FunctionalSpec, ReconfigSpec};
use arfs_core::{AppId, SpecError};
use arfs_failstop::ProcessorId;
use arfs_rtos::Ticks;

/// The autopilot's primary specification: altitude hold, heading hold,
/// climb to altitude, turn to heading.
pub const AP_PRIMARY: &str = "ap-primary";
/// The autopilot's degraded specification: altitude hold only.
pub const AP_ALT_HOLD: &str = "ap-alt-hold";
/// The FCS's primary specification: command shaping with stability
/// augmentation.
pub const FCS_PRIMARY: &str = "fcs-primary";
/// The FCS's degraded specification: direct law.
pub const FCS_DIRECT: &str = "fcs-direct";

/// Builds the avionics reconfiguration specification.
///
/// The three configurations mirror §7:
///
/// - **`full-service`** — "Full power is available ... The autopilot and
///   FCS provide full service, and each operates on a separate
///   computer" (processors 0 and 1).
/// - **`reduced-service`** — "Power is available from only one
///   alternator ... The applications must share a single computer ... the
///   autopilot provides altitude hold service only and the FCS provides
///   direct control."
/// - **`minimal-service`** — "Power is available from the battery only
///   ... the autopilot is turned off and the FCS provides direct
///   control." This is the safe configuration.
///
/// The environment factor `electrical ∈ {both, one, battery}` is the
/// exported state of the [`ElectricalSystem`](crate::ElectricalSystem).
/// The §7.1 initialization dependency (autopilot after FCS) is declared
/// on the autopilot.
///
/// # Errors
///
/// Never fails in practice; the `Result` is the builder's validation
/// signature.
pub fn avionics_spec() -> Result<ReconfigSpec, SpecError> {
    build_spec(None)
}

/// The avionics specification minus the `reduced-service ->
/// minimal-service` transition: a deliberately broken **negative-control
/// fixture**. It builds (the omission is semantic, not structural), but
/// `covering_txns` must reject it — the choice function selects
/// `minimal-service` from `reduced-service` on battery power with no
/// declared transition to take.
///
/// # Errors
///
/// Never fails in practice; the `Result` is the builder's validation
/// signature.
pub fn negative_control_spec() -> Result<ReconfigSpec, SpecError> {
    build_spec(Some(("reduced-service", "minimal-service")))
}

/// A negative-control fixture for the refined-reachability analysis
/// (`ARFS-E010`): a `standby-service` configuration the choice function
/// selects on one-alternator power, but with **no declared inbound
/// transition** — every path to it exists only over undeclared (E002)
/// edges, so it is refined-dead. Its declared *outbound* transitions
/// can therefore never fire either (`ARFS-W108`).
///
/// # Errors
///
/// Never fails in practice; the `Result` is the builder's validation
/// signature.
pub fn reach_negative_dead_config_spec() -> Result<ReconfigSpec, SpecError> {
    ReconfigSpec::builder()
        .frame_len(Ticks::new(100))
        .env_factor("electrical", ["both", "one", "battery"])
        .app(
            AppDecl::new("fcs")
                .spec(FunctionalSpec::new(FCS_PRIMARY))
                .spec(FunctionalSpec::new(FCS_DIRECT)),
        )
        .config(
            Configuration::new("full-service")
                .assign("fcs", FCS_PRIMARY)
                .place("fcs", ProcessorId::new(0)),
        )
        .config(
            Configuration::new("standby-service")
                .assign("fcs", FCS_DIRECT)
                .place("fcs", ProcessorId::new(0)),
        )
        .config(
            Configuration::new("minimal-service")
                .assign("fcs", FCS_DIRECT)
                .place("fcs", ProcessorId::new(0))
                .safe(),
        )
        .transition("full-service", "minimal-service", Ticks::new(800))
        .transition("minimal-service", "full-service", Ticks::new(800))
        // Outbound edges from standby are declared; no inbound edge is.
        .transition("standby-service", "full-service", Ticks::new(800))
        .transition("standby-service", "minimal-service", Ticks::new(800))
        .choose_when("electrical", "battery", "minimal-service")
        .choose_when("electrical", "one", "standby-service")
        .choose_when("electrical", "both", "full-service")
        .initial_config("full-service")
        .initial_env([("electrical", "both")])
        .min_dwell_frames(6)
        .build()
}

/// A negative-control fixture for the unchosen-escape-path analysis
/// (`ARFS-E011`): a reachable `holding-service` configuration with a
/// *declared* transition to safety that the choice function never
/// takes — once entered, every environment keeps choosing
/// `holding-service`, so no safe configuration is reachable over the
/// refined relation. The escape route exists on paper only.
///
/// # Errors
///
/// Never fails in practice; the `Result` is the builder's validation
/// signature.
pub fn reach_negative_trap_spec() -> Result<ReconfigSpec, SpecError> {
    use arfs_core::spec::ChooseRule;
    ReconfigSpec::builder()
        .frame_len(Ticks::new(100))
        .env_factor("electrical", ["both", "one", "battery"])
        .app(
            AppDecl::new("fcs")
                .spec(FunctionalSpec::new(FCS_PRIMARY))
                .spec(FunctionalSpec::new(FCS_DIRECT)),
        )
        .config(
            Configuration::new("full-service")
                .assign("fcs", FCS_PRIMARY)
                .place("fcs", ProcessorId::new(0)),
        )
        .config(
            Configuration::new("holding-service")
                .assign("fcs", FCS_DIRECT)
                .place("fcs", ProcessorId::new(0)),
        )
        .config(
            Configuration::new("minimal-service")
                .assign("fcs", FCS_DIRECT)
                .place("fcs", ProcessorId::new(0))
                .safe(),
        )
        .transition("full-service", "holding-service", Ticks::new(800))
        .transition("full-service", "minimal-service", Ticks::new(800))
        .transition("holding-service", "minimal-service", Ticks::new(800))
        .transition("minimal-service", "holding-service", Ticks::new(800))
        .transition("minimal-service", "full-service", Ticks::new(800))
        // The trap: once in holding-service, every environment keeps
        // choosing it, so the declared escape to safety never fires.
        .choose_rule(ChooseRule::any_from("holding-service").from_config("holding-service"))
        .choose_when("electrical", "battery", "minimal-service")
        .choose_when("electrical", "one", "holding-service")
        .choose_when("electrical", "both", "full-service")
        .initial_config("full-service")
        .initial_env([("electrical", "both")])
        .min_dwell_frames(6)
        .build()
}

/// The exploration horizon (frames) at which every
/// [`known_bad_mutations`] defect provably surfaces under a
/// single-event schedule sweep of [`avionics_spec`].
pub const KNOWN_BAD_HORIZON: u64 = 16;

/// The known-bad mutant fixtures: every seeded SCRAM protocol defect
/// the bounded exhaustive model check provably catches on
/// [`avionics_spec`], each labelled with a stable slug (used to name
/// counterexample artifacts). The canonical checker bounds are
/// [`KNOWN_BAD_HORIZON`] frames with one event: `extra-delay` stalls
/// the protocol 12 frames past the trigger, and its violation only
/// surfaces on traces at least that long. The set
/// deliberately excludes `SkipHaltPhase`, which only the Table 1
/// protocol-conformance check sees, and `PanicOnTrigger`, which is a
/// harness-robustness fixture rather than a property violation.
pub fn known_bad_mutations() -> Vec<(&'static str, ScramMutation)> {
    vec![
        (
            "leave-app-running",
            ScramMutation::LeaveAppRunning(AppId::new("autopilot")),
        ),
        ("wrong-target", ScramMutation::WrongTarget),
        ("extra-delay", ScramMutation::ExtraDelayFrames(12)),
        ("skip-init", ScramMutation::SkipInitPhase),
    ]
}

/// Three service levels of one application on one processor: `full`,
/// `mid` and the safe `safe`, chosen by `power` = `good`, `degraded`,
/// `bad`, with every transition allowed at 600 ticks. The choice
/// function can point at `mid` while a safe-state fallback lands in
/// `safe`, which SP2 distinguishes, so a fallback is observable. The
/// `power` domain is deliberately not in alphabetical order, so an
/// engine sorting failures by name instead of by enumeration order is
/// caught. The chaos soak, the DST campaigns and the chaos and
/// engine-equivalence tests share this spec; the chaos shape uses a
/// dwell of 1 frame, DST one of 2.
pub fn three_level_spec(min_dwell_frames: u64) -> ReconfigSpec {
    let mut b = ReconfigSpec::builder()
        .frame_len(Ticks::new(100))
        .env_factor("power", ["good", "degraded", "bad"])
        .app(
            AppDecl::new("a")
                .spec(FunctionalSpec::new("full"))
                .spec(FunctionalSpec::new("reduced"))
                .spec(FunctionalSpec::new("minimal")),
        )
        .min_dwell_frames(min_dwell_frames);
    let configs = [("full", "full"), ("mid", "reduced"), ("safe", "minimal")];
    for (i, (name, spec)) in configs.iter().enumerate() {
        let mut config = Configuration::new(*name)
            .assign("a", *spec)
            .place("a", ProcessorId::new(0));
        if i == configs.len() - 1 {
            config = config.safe();
        }
        b = b.config(config);
    }
    for (from, _) in &configs {
        for (to, _) in &configs {
            if from != to {
                b = b.transition(*from, *to, Ticks::new(600));
            }
        }
    }
    b.choose_when("power", "good", "full")
        .choose_when("power", "degraded", "mid")
        .choose_when("power", "bad", "safe")
        .initial_config("full")
        .initial_env([("power", "good")])
        .build()
        .expect("three-level spec is structurally valid")
}

/// Two processors and a `processor-1` status factor: `fcs` on P0 and
/// `autopilot` on P1 in `full-service`, `fcs` alone in the safe `solo`.
/// A bus-silence quarantine of P1 flows through membership into the
/// reconfiguration to `solo`. The chaos soak and the chaos tests share
/// this spec.
pub fn quarantine_spec() -> ReconfigSpec {
    ReconfigSpec::builder()
        .frame_len(Ticks::new(100))
        .env_factor("processor-1", ["up", "down"])
        .app(
            AppDecl::new("fcs")
                .spec(FunctionalSpec::new("full"))
                .spec(FunctionalSpec::new("direct")),
        )
        .app(
            AppDecl::new("autopilot")
                .spec(FunctionalSpec::new("full"))
                .spec(FunctionalSpec::new("off2")),
        )
        .config(
            Configuration::new("full-service")
                .assign("fcs", "full")
                .assign("autopilot", "full")
                .place("fcs", ProcessorId::new(0))
                .place("autopilot", ProcessorId::new(1)),
        )
        .config(
            Configuration::new("solo")
                .assign("fcs", "direct")
                .assign("autopilot", "off")
                .place("fcs", ProcessorId::new(0))
                .safe(),
        )
        .transition("full-service", "solo", Ticks::new(800))
        .choose_when("processor-1", "down", "solo")
        .choose_when("processor-1", "up", "full-service")
        .initial_config("full-service")
        .initial_env([("processor-1", "up")])
        .build()
        .expect("quarantine spec is structurally valid")
}

fn build_spec(skip_transition: Option<(&str, &str)>) -> Result<ReconfigSpec, SpecError> {
    let frame = Ticks::new(100); // 1 tick = 1 ms; 10 Hz frames.
    let mut b = ReconfigSpec::builder()
        .frame_len(frame)
        .env_factor("electrical", ["both", "one", "battery"])
        .app(
            AppDecl::new("fcs")
                .spec(
                    FunctionalSpec::new(FCS_PRIMARY)
                        .compute(Ticks::new(40))
                        .memory_kb(512)
                        .describe("command shaping with stability augmentation"),
                )
                .spec(
                    FunctionalSpec::new(FCS_DIRECT)
                        .compute(Ticks::new(15))
                        .memory_kb(128)
                        .describe("direct law: commands applied unshaped"),
                ),
        )
        .app(
            AppDecl::new("autopilot")
                .spec(
                    FunctionalSpec::new(AP_PRIMARY)
                        .compute(Ticks::new(40))
                        .memory_kb(512)
                        .describe(
                            "altitude hold, heading hold, climb to altitude, turn to heading",
                        ),
                )
                .spec(
                    FunctionalSpec::new(AP_ALT_HOLD)
                        .compute(Ticks::new(15))
                        .memory_kb(128)
                        .describe("altitude hold only"),
                )
                .depends_on("fcs"),
        )
        .config(
            Configuration::new("full-service")
                .describe("full power; each application on its own computer")
                .assign("fcs", FCS_PRIMARY)
                .assign("autopilot", AP_PRIMARY)
                .place("fcs", ProcessorId::new(0))
                .place("autopilot", ProcessorId::new(1)),
        )
        .config(
            Configuration::new("reduced-service")
                .describe("one alternator; shared computer; degraded services")
                .assign("fcs", FCS_DIRECT)
                .assign("autopilot", AP_ALT_HOLD)
                .place("fcs", ProcessorId::new(0))
                .place("autopilot", ProcessorId::new(0)),
        )
        .config(
            Configuration::new("minimal-service")
                .describe("battery only; low-power mode; autopilot off")
                .assign("fcs", FCS_DIRECT)
                .assign("autopilot", "off")
                .place("fcs", ProcessorId::new(0))
                .safe(),
        );
    // Valid transitions and their T(ci, cj) bounds: 800 ticks = 8
    // frames, twice the 4-frame protocol, leaving margin for
    // phase-checked initialization waves. The negative control omits one
    // edge to demonstrate a covering-transactions gap.
    for (from, to) in [
        ("full-service", "reduced-service"),
        ("full-service", "minimal-service"),
        ("reduced-service", "minimal-service"),
        ("reduced-service", "full-service"),
        ("minimal-service", "reduced-service"),
        ("minimal-service", "full-service"),
    ] {
        if skip_transition != Some((from, to)) {
            b = b.transition(from, to, Ticks::new(800));
        }
    }
    b.choose_when("electrical", "battery", "minimal-service")
        .choose_when("electrical", "one", "reduced-service")
        .choose_when("electrical", "both", "full-service")
        .initial_config("full-service")
        .initial_env([("electrical", "both")])
        // Repair/failure loops make the transition graph cyclic; the
        // dwell guard bounds cyclic reconfiguration (§5.3).
        .min_dwell_frames(6)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use arfs_core::analysis;
    use arfs_core::{AppId, ConfigId, SpecId};

    #[test]
    fn spec_builds_and_matches_paper_structure() {
        let spec = avionics_spec().unwrap();
        assert_eq!(spec.apps().len(), 2);
        assert_eq!(spec.configs().len(), 3);
        assert_eq!(spec.initial_config(), &ConfigId::new("full-service"));
        assert_eq!(spec.safe_configs(), vec![&ConfigId::new("minimal-service")]);
        let minimal = spec.config(&ConfigId::new("minimal-service")).unwrap();
        assert!(minimal.spec_for(&AppId::new("autopilot")).unwrap().is_off());
        // Full service uses two computers; the others one (and zero for
        // the off autopilot).
        assert_eq!(
            spec.config(&ConfigId::new("full-service"))
                .unwrap()
                .processors()
                .len(),
            2
        );
        assert_eq!(
            spec.config(&ConfigId::new("reduced-service"))
                .unwrap()
                .processors()
                .len(),
            1
        );
    }

    #[test]
    fn all_static_obligations_discharge() {
        let spec = avionics_spec().unwrap();
        let report = analysis::check_obligations(&spec);
        assert!(report.all_passed(), "{report}");
    }

    #[test]
    fn degraded_specs_need_fewer_resources() {
        let spec = avionics_spec().unwrap();
        let ap = spec.app(&AppId::new("autopilot")).unwrap();
        let primary = ap.find_spec(&SpecId::new(AP_PRIMARY)).unwrap();
        let degraded = ap.find_spec(&SpecId::new(AP_ALT_HOLD)).unwrap();
        assert!(degraded.compute_ticks() < primary.compute_ticks());
        assert!(degraded.memory_kib() < primary.memory_kib());
    }

    #[test]
    fn choice_function_matches_power_states() {
        let spec = avionics_spec().unwrap();
        use arfs_core::environment::EnvState;
        let full = ConfigId::new("full-service");
        for (value, expect) in [
            ("both", "full-service"),
            ("one", "reduced-service"),
            ("battery", "minimal-service"),
        ] {
            let env = EnvState::new([("electrical", value)]);
            assert_eq!(
                spec.choose(&full, &env),
                Some(&ConfigId::new(expect)),
                "electrical={value}"
            );
        }
    }

    #[test]
    fn negative_control_fails_covering_txns() {
        let spec = negative_control_spec().unwrap();
        let report = analysis::check_obligations(&spec);
        assert!(!report.all_passed(), "{report}");
        let gaps = analysis::coverage::covering_txns(&spec);
        assert!(gaps
            .iter()
            .any(|g| g.config == ConfigId::new("reduced-service")));
    }

    #[test]
    fn known_bad_mutations_are_caught_at_the_canonical_horizon() {
        use arfs_core::model::ModelChecker;
        use arfs_core::scram::KernelConfig;
        let spec = avionics_spec().unwrap();
        for (slug, mutation) in known_bad_mutations() {
            let report = ModelChecker::new(spec.clone(), KNOWN_BAD_HORIZON, 1)
                .with_flight_recorder(false)
                .with_kernel(KernelConfig {
                    mutation: Some(mutation),
                    ..KernelConfig::default()
                })
                .unwrap()
                .run();
            assert!(!report.all_passed(), "{slug} not caught: {report}");
        }
    }

    #[test]
    fn reach_negative_controls_fire_exactly_their_diagnostic() {
        use arfs_core::lint::{codes, LintEngine, LintTarget};
        let engine = LintEngine::new();

        let dead = reach_negative_dead_config_spec().unwrap();
        let report = engine.run(&LintTarget::spec_only(&dead));
        assert_eq!(report.of_code(codes::E010).len(), 1, "{}", report.render());
        assert!(
            report.of_code(codes::E011).is_empty(),
            "{}",
            report.render()
        );
        assert_eq!(report.of_code(codes::W108).len(), 2, "{}", report.render());

        let trap = reach_negative_trap_spec().unwrap();
        let report = engine.run(&LintTarget::spec_only(&trap));
        assert_eq!(report.of_code(codes::E011).len(), 1, "{}", report.render());
        assert!(
            report.of_code(codes::E010).is_empty(),
            "{}",
            report.render()
        );

        // The real spec stays silent on every reachability and
        // independence diagnostic.
        let good = avionics_spec().unwrap();
        let report = engine.run(&LintTarget::spec_only(&good));
        for code in [
            codes::E010,
            codes::E011,
            codes::W108,
            codes::W109,
            codes::W110,
        ] {
            assert!(
                report.of_code(code).is_empty(),
                "{code} fired on the good spec: {}",
                report.render()
            );
        }
    }

    #[test]
    fn dependency_declared_on_autopilot() {
        let spec = avionics_spec().unwrap();
        let ap = spec.app(&AppId::new("autopilot")).unwrap();
        assert_eq!(ap.dependencies(), &[AppId::new("fcs")]);
        assert!(spec
            .app(&AppId::new("fcs"))
            .unwrap()
            .dependencies()
            .is_empty());
    }
}
