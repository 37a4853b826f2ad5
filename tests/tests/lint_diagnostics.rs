//! One deliberately broken fixture specification per ARFS-LINT
//! diagnostic code, pinned as JSON under `tests/data/lint/`. Each
//! fixture is built by code here, compared against the committed
//! artifact (regenerate with `ARFS_BLESS=1`), and then linted: the
//! target code must fire **exactly once**, proving both that the pass
//! detects the defect and that the fixture isolates it.
//!
//! A property test closes the loop from the other side: structurally
//! clean randomly-parameterized specifications produce zero diagnostics.

use std::path::PathBuf;

use arfs_core::lint::assembly::{ENV_NODE, SCRAM_NODE};
use arfs_core::lint::{codes, Assembly, LintEngine, LintReport, LintTarget};
use arfs_core::spec::{AppDecl, ChooseRule, Configuration, FunctionalSpec, ReconfigSpec};
use arfs_failstop::ProcessorId;
use arfs_rtos::Ticks;
use arfs_ttbus::BusSchedule;
use proptest::prelude::*;

const P0: ProcessorId = ProcessorId::new(0);
const P1: ProcessorId = ProcessorId::new(1);

/// A spec plus an optional pre-built assembly — the on-disk fixture
/// format `arfs-lint` also accepts.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Fixture {
    spec: ReconfigSpec,
    #[serde(default)]
    assembly: Option<Assembly>,
}

impl Fixture {
    fn spec_only(spec: ReconfigSpec) -> Self {
        Fixture {
            spec,
            assembly: None,
        }
    }

    fn lint(&self) -> LintReport {
        let engine = LintEngine::new();
        match &self.assembly {
            Some(a) => engine.run(&LintTarget::assembled(&self.spec, a)),
            None => engine.run(&LintTarget::spec_only(&self.spec)),
        }
    }
}

// --- shared fixture building blocks ---------------------------------

fn app_a() -> AppDecl {
    AppDecl::new("a")
        .spec(FunctionalSpec::new("a-hi").compute(Ticks::new(40)))
        .spec(FunctionalSpec::new("a-lo").compute(Ticks::new(15)))
}

fn app_b() -> AppDecl {
    AppDecl::new("b").spec(FunctionalSpec::new("b-hi").compute(Ticks::new(40)))
}

fn full() -> Configuration {
    Configuration::new("full")
        .assign("a", "a-hi")
        .assign("b", "b-hi")
        .place("a", P0)
        .place("b", P1)
}

fn safe_cfg() -> Configuration {
    Configuration::new("safe")
        .assign("a", "a-lo")
        .assign("b", "off")
        .place("a", P0)
        .safe()
}

/// The two-configuration baseline every fixture perturbs; lints clean.
fn base(dwell: u64) -> arfs_core::spec::ReconfigSpecBuilder {
    ReconfigSpec::builder()
        .frame_len(Ticks::new(100))
        .env_factor("power", ["ok", "low"])
        .app(app_a())
        .app(app_b())
        .config(full())
        .config(safe_cfg())
        .transition("full", "safe", Ticks::new(800))
        .transition("safe", "full", Ticks::new(800))
        .choose_when("power", "low", "safe")
        .choose_when("power", "ok", "full")
        .initial_config("full")
        .initial_env([("power", "ok")])
        .min_dwell_frames(dwell)
}

// --- one fixture per diagnostic code --------------------------------

/// No choice rule matches `(safe, power=ok)`.
fn e001() -> Fixture {
    Fixture::spec_only(
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["ok", "low"])
            .app(app_a())
            .app(app_b())
            .config(full())
            .config(safe_cfg())
            .transition("full", "safe", Ticks::new(800))
            .choose_when("power", "low", "safe")
            .choose_rule(
                ChooseRule::any_from("full")
                    .from_config("full")
                    .when("power", "ok"),
            )
            .initial_config("full")
            .initial_env([("power", "ok")])
            .min_dwell_frames(6)
            .build()
            .unwrap(),
    )
}

/// The choice selects `full` from `safe` but `safe -> full` is not
/// declared.
fn e002() -> Fixture {
    Fixture::spec_only(
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["ok", "low"])
            .app(app_a())
            .app(app_b())
            .config(full())
            .config(safe_cfg())
            .transition("full", "safe", Ticks::new(800))
            .choose_when("power", "low", "safe")
            .choose_when("power", "ok", "full")
            .initial_config("full")
            .initial_env([("power", "ok")])
            .min_dwell_frames(6)
            .build()
            .unwrap(),
    )
}

/// No transition path from `full` reaches the safe configuration.
fn e003() -> Fixture {
    Fixture::spec_only(
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["ok", "low"])
            .app(app_a())
            .app(app_b())
            .config(full())
            .config(safe_cfg())
            .transition("safe", "full", Ticks::new(800))
            .choose_rule(ChooseRule::any_from("full"))
            .initial_config("full")
            .initial_env([("power", "ok")])
            .min_dwell_frames(6)
            .build()
            .unwrap(),
    )
}

/// `T(full, safe) = 300 ticks` is below one 4-frame protocol run.
fn e004() -> Fixture {
    Fixture::spec_only(
        base(6)
            .transition("full", "safe", Ticks::new(300))
            .build()
            .unwrap(),
    )
}

/// The full <-> safe cycle with no dwell guard at all.
fn e005() -> Fixture {
    Fixture::spec_only(base(0).build().unwrap())
}

/// Processor 0 is overloaded in `full`: 40 + 70 = 110 > 100 ticks.
fn e006() -> Fixture {
    Fixture::spec_only(
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["ok", "low"])
            .app(app_a())
            .app(AppDecl::new("b").spec(FunctionalSpec::new("b-hi").compute(Ticks::new(70))))
            .app(AppDecl::new("c").spec(FunctionalSpec::new("c-hi").compute(Ticks::new(20))))
            .config(
                Configuration::new("full")
                    .assign("a", "a-hi")
                    .assign("b", "b-hi")
                    .assign("c", "c-hi")
                    .place("a", P0)
                    .place("b", P0)
                    .place("c", P1),
            )
            .config(
                Configuration::new("safe")
                    .assign("a", "a-lo")
                    .assign("b", "off")
                    .assign("c", "off")
                    .place("a", P0)
                    .safe(),
            )
            .transition("full", "safe", Ticks::new(800))
            .transition("safe", "full", Ticks::new(800))
            .choose_when("power", "low", "safe")
            .choose_when("power", "ok", "full")
            .initial_config("full")
            .initial_env([("power", "ok")])
            .min_dwell_frames(6)
            .build()
            .unwrap(),
    )
}

/// Schedulable at equal rates (60 + 30 = 90 <= 100) but minor frame 0
/// of the 2-frame hyperperiod carries 60 + 30 + 15 overhead = 105.
fn e007() -> Fixture {
    let spec = ReconfigSpec::builder()
        .frame_len(Ticks::new(100))
        .env_factor("power", ["ok", "low"])
        .app(
            AppDecl::new("a")
                .spec(FunctionalSpec::new("a-hi").compute(Ticks::new(60)))
                .spec(FunctionalSpec::new("a-lo").compute(Ticks::new(15))),
        )
        .app(
            AppDecl::new("b").spec(
                FunctionalSpec::new("b-hi")
                    .compute(Ticks::new(30))
                    .rate_divisor(2),
            ),
        )
        .app(AppDecl::new("c").spec(FunctionalSpec::new("c-hi").compute(Ticks::new(20))))
        .config(
            Configuration::new("full")
                .assign("a", "a-hi")
                .assign("b", "b-hi")
                .assign("c", "c-hi")
                .place("a", P0)
                .place("b", P0)
                .place("c", P1),
        )
        .config(
            Configuration::new("safe")
                .assign("a", "a-lo")
                .assign("b", "off")
                .assign("c", "off")
                .place("a", P0)
                .safe(),
        )
        .transition("full", "safe", Ticks::new(800))
        .transition("safe", "full", Ticks::new(800))
        .choose_when("power", "low", "safe")
        .choose_when("power", "ok", "full")
        .initial_config("full")
        .initial_env([("power", "ok")])
        .min_dwell_frames(6)
        .build()
        .unwrap();
    let assembly = Assembly::derive(&spec)
        .unwrap()
        .with_scram_overhead(Ticks::new(15));
    Fixture {
        spec,
        assembly: Some(assembly),
    }
}

/// Processor 0's TDMA slot (16 B) cannot carry its worst-case status
/// traffic (25 B).
fn e008() -> Fixture {
    let spec = base(6).build().unwrap();
    let bus = BusSchedule::builder()
        .slot(Assembly::proc_node(P0), 16)
        .slot(Assembly::proc_node(P1), 64)
        .slot(SCRAM_NODE, 64)
        .slot(ENV_NODE, 64)
        .build()
        .unwrap();
    Fixture {
        spec,
        assembly: Some(Assembly {
            platform: vec![P0, P1],
            bus,
            scram_overhead: Ticks::ZERO,
        }),
    }
}

/// A rule firing on `processor-1 = down` targets `full`, which still
/// places an application on processor 1.
fn e009() -> Fixture {
    Fixture::spec_only(
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["ok", "low"])
            .env_factor("processor-1", ["up", "down"])
            .app(app_a())
            .app(app_b())
            .config(full())
            .config(safe_cfg())
            .transition("full", "safe", Ticks::new(800))
            .transition("safe", "full", Ticks::new(800))
            .choose_rule(ChooseRule::any_from("full").when("processor-1", "down"))
            .choose_when("power", "low", "safe")
            .choose_when("power", "ok", "full")
            .initial_config("full")
            .initial_env([("power", "ok"), ("processor-1", "up")])
            .min_dwell_frames(6)
            .build()
            .unwrap(),
    )
}

/// `aux` is chosen under `power = crit` but no declared transition
/// leads into it: naive-reachable, dead under the refined relation.
fn e010() -> Fixture {
    Fixture::spec_only(
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["ok", "low", "crit"])
            .app(app_a())
            .app(app_b())
            .config(full())
            .config(safe_cfg())
            .config(
                Configuration::new("aux")
                    .assign("a", "a-hi")
                    .assign("b", "b-hi")
                    .place("a", P1)
                    .place("b", P0),
            )
            .transition("full", "safe", Ticks::new(800))
            .transition("safe", "full", Ticks::new(800))
            .transition("aux", "full", Ticks::new(800))
            .transition("aux", "safe", Ticks::new(800))
            .choose_when("power", "crit", "aux")
            .choose_when("power", "low", "safe")
            .choose_when("power", "ok", "full")
            .initial_config("full")
            .initial_env([("power", "ok")])
            .min_dwell_frames(6)
            .build()
            .unwrap(),
    )
}

/// `trap` is reachable and `trap -> safe` is declared, but the choice
/// function pins `trap` in place forever.
fn e011() -> Fixture {
    Fixture::spec_only(
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["ok", "low", "crit"])
            .app(app_a())
            .app(app_b())
            .config(full())
            .config(safe_cfg())
            .config(
                Configuration::new("trap")
                    .assign("a", "a-hi")
                    .assign("b", "b-hi")
                    .place("a", P1)
                    .place("b", P0),
            )
            .transition("full", "trap", Ticks::new(800))
            .transition("full", "safe", Ticks::new(800))
            .transition("trap", "safe", Ticks::new(800))
            .transition("safe", "trap", Ticks::new(800))
            .transition("safe", "full", Ticks::new(800))
            .choose_rule(ChooseRule::any_from("trap").from_config("trap"))
            .choose_when("power", "crit", "safe")
            .choose_when("power", "low", "trap")
            .choose_when("power", "ok", "full")
            .initial_config("full")
            .initial_env([("power", "ok")])
            .min_dwell_frames(6)
            .build()
            .unwrap(),
    )
}

/// `aux` is a declared configuration the choice function never selects.
fn w101() -> Fixture {
    Fixture::spec_only(
        base(6)
            .config(
                Configuration::new("aux")
                    .assign("a", "a-hi")
                    .assign("b", "b-hi")
                    .place("a", P0)
                    .place("b", P1),
            )
            .transition("aux", "full", Ticks::new(800))
            .transition("aux", "safe", Ticks::new(800))
            .build()
            .unwrap(),
    )
}

/// `safe -> full` is declared but the choice function never leaves
/// `safe`.
fn w102() -> Fixture {
    Fixture::spec_only(
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["ok", "low"])
            .app(app_a())
            .app(app_b())
            .config(full())
            .config(safe_cfg())
            .transition("full", "safe", Ticks::new(800))
            .transition("safe", "full", Ticks::new(800))
            .choose_when("power", "low", "safe")
            .choose_rule(
                ChooseRule::any_from("full")
                    .from_config("full")
                    .when("power", "ok"),
            )
            .choose_rule(
                ChooseRule::any_from("safe")
                    .from_config("safe")
                    .when("power", "ok"),
            )
            .initial_config("full")
            .initial_env([("power", "ok")])
            .min_dwell_frames(6)
            .build()
            .unwrap(),
    )
}

/// Both applications active in `full` write stable-storage key
/// `shared`.
fn w103() -> Fixture {
    Fixture::spec_only(
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["ok", "low"])
            .app(
                AppDecl::new("a")
                    .spec(
                        FunctionalSpec::new("a-hi")
                            .compute(Ticks::new(40))
                            .writes("shared"),
                    )
                    .spec(FunctionalSpec::new("a-lo").compute(Ticks::new(15))),
            )
            .app(
                AppDecl::new("b").spec(
                    FunctionalSpec::new("b-hi")
                        .compute(Ticks::new(40))
                        .writes("shared"),
                ),
            )
            .config(full())
            .config(safe_cfg())
            .transition("full", "safe", Ticks::new(800))
            .transition("safe", "full", Ticks::new(800))
            .choose_when("power", "low", "safe")
            .choose_when("power", "ok", "full")
            .initial_config("full")
            .initial_env([("power", "ok")])
            .min_dwell_frames(6)
            .build()
            .unwrap(),
    )
}

/// A dwell guard exists (2 frames) but one reconfiguration takes 4.
fn w104() -> Fixture {
    Fixture::spec_only(base(2).build().unwrap())
}

/// `b-lo` is declared but no configuration assigns it.
fn w105() -> Fixture {
    Fixture::spec_only(
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["ok", "low"])
            .app(app_a())
            .app(
                AppDecl::new("b")
                    .spec(FunctionalSpec::new("b-hi").compute(Ticks::new(40)))
                    .spec(FunctionalSpec::new("b-lo").compute(Ticks::new(10))),
            )
            .config(full())
            .config(safe_cfg())
            .transition("full", "safe", Ticks::new(800))
            .transition("safe", "full", Ticks::new(800))
            .choose_when("power", "low", "safe")
            .choose_when("power", "ok", "full")
            .initial_config("full")
            .initial_env([("power", "ok")])
            .min_dwell_frames(6)
            .build()
            .unwrap(),
    )
}

/// A third rule fully shadowed by the first never fires.
fn w106() -> Fixture {
    Fixture::spec_only(base(6).choose_when("power", "low", "full").build().unwrap())
}

/// Every configuration fits on one processor: reconfiguration saves no
/// hardware over masking.
fn w107() -> Fixture {
    Fixture::spec_only(
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["ok", "low"])
            .app(app_a())
            .app(app_b())
            .config(
                Configuration::new("full")
                    .assign("a", "a-hi")
                    .assign("b", "b-hi")
                    .place("a", P0)
                    .place("b", P0),
            )
            .config(safe_cfg())
            .transition("full", "safe", Ticks::new(800))
            .transition("safe", "full", Ticks::new(800))
            .choose_when("power", "low", "safe")
            .choose_when("power", "ok", "full")
            .initial_config("full")
            .initial_env([("power", "ok")])
            .min_dwell_frames(6)
            .build()
            .unwrap(),
    )
}

/// `aux -> safe` is declared and the choice function would take it,
/// but nothing ever reaches `aux`.
fn w108() -> Fixture {
    Fixture::spec_only(
        base(6)
            .config(
                Configuration::new("aux")
                    .assign("a", "a-hi")
                    .assign("b", "b-hi")
                    .place("a", P0)
                    .place("b", P1),
            )
            .transition("aux", "safe", Ticks::new(800))
            .build()
            .unwrap(),
    )
}

/// `telemetry` never appears in a choice rule: both values are
/// choice-equivalent, so the factor only widens the schedule space.
fn w109() -> Fixture {
    Fixture::spec_only(
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["ok", "low"])
            .env_factor("telemetry", ["on", "off"])
            .app(app_a())
            .app(app_b())
            .config(full())
            .config(safe_cfg())
            .transition("full", "safe", Ticks::new(800))
            .transition("safe", "full", Ticks::new(800))
            .choose_when("power", "low", "safe")
            .choose_when("power", "ok", "full")
            .initial_config("full")
            .initial_env([("power", "ok"), ("telemetry", "on")])
            .min_dwell_frames(6)
            .build()
            .unwrap(),
    )
}

/// `b` depends on `a`, forcing a second initialization wave:
/// `T(full, safe) = 450` admits the bare 4-frame run but not the
/// staged 5-frame one.
fn w110() -> Fixture {
    Fixture::spec_only(
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["ok", "low"])
            .app(app_a())
            .app(
                AppDecl::new("b")
                    .spec(FunctionalSpec::new("b-hi").compute(Ticks::new(40)))
                    .depends_on("a"),
            )
            .config(full())
            .config(safe_cfg())
            .transition("full", "safe", Ticks::new(450))
            .transition("safe", "full", Ticks::new(800))
            .choose_when("power", "low", "safe")
            .choose_when("power", "ok", "full")
            .initial_config("full")
            .initial_env([("power", "ok")])
            .min_dwell_frames(6)
            .build()
            .unwrap(),
    )
}

fn fixtures() -> Vec<(&'static str, Fixture)> {
    vec![
        (codes::E001, e001()),
        (codes::E002, e002()),
        (codes::E003, e003()),
        (codes::E004, e004()),
        (codes::E005, e005()),
        (codes::E006, e006()),
        (codes::E007, e007()),
        (codes::E008, e008()),
        (codes::E009, e009()),
        (codes::E010, e010()),
        (codes::E011, e011()),
        (codes::W101, w101()),
        (codes::W102, w102()),
        (codes::W103, w103()),
        (codes::W104, w104()),
        (codes::W105, w105()),
        (codes::W106, w106()),
        (codes::W107, w107()),
        (codes::W108, w108()),
        (codes::W109, w109()),
        (codes::W110, w110()),
    ]
}

fn fixture_path(code: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("data/lint/{code}.json"))
}

#[test]
fn every_diagnostic_code_has_a_triggering_fixture() {
    let table = fixtures();

    // The table is the catalog: no code may be missing from it.
    let covered: Vec<&str> = table.iter().map(|(c, _)| *c).collect();
    assert_eq!(covered, codes::ALL, "fixture table must cover every code");

    let bless = std::env::var("ARFS_BLESS").is_ok();
    for (code, fixture) in &table {
        let path = fixture_path(code);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, serde_json::to_string_pretty(fixture).unwrap()).unwrap();
            eprintln!("blessed {}", path.display());
            continue;
        }

        let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); regenerate with `ARFS_BLESS=1 cargo test -p \
                 arfs-integration --test lint_diagnostics`",
                path.display()
            )
        });
        let parsed: Fixture = serde_json::from_str(&body)
            .unwrap_or_else(|e| panic!("{code}: fixture does not parse: {e}"));
        assert_eq!(&parsed, fixture, "{code}: committed fixture is stale");

        let report = parsed.lint();
        assert_eq!(
            report.of_code(code).len(),
            1,
            "{code} must fire exactly once; got:\n{}",
            report.render()
        );
    }
}

#[test]
fn fixture_reports_are_deterministic_and_roundtrip() {
    for (code, fixture) in fixtures() {
        let first = fixture.lint();
        let first_json = serde_json::to_string(&first).unwrap();
        assert_eq!(
            first_json,
            serde_json::to_string(&fixture.lint()).unwrap(),
            "{code}: a second run must be byte-identical to the first"
        );
        let parsed: LintReport = serde_json::from_str(&first_json).unwrap();
        assert_eq!(
            serde_json::to_string(&parsed).unwrap(),
            first_json,
            "{code}: report must round-trip through JSON"
        );
    }
}

/// A structurally clean specification parameterized over app count,
/// configuration count, compute, dwell, and transition bound.
fn clean_random_spec(
    n_apps: usize,
    n_configs: usize,
    compute: u64,
    dwell: u64,
    bound: u64,
) -> ReconfigSpec {
    let config_names: Vec<String> = (0..n_configs).map(|i| format!("cfg-{i}")).collect();
    let mode_values: Vec<String> = (0..n_configs).map(|i| format!("mode-{i}")).collect();

    let mut b = ReconfigSpec::builder()
        .frame_len(Ticks::new(100))
        .env_factor("mode", mode_values.iter().map(String::as_str));
    for j in 0..n_apps {
        let mut app = AppDecl::new(format!("app-{j}")).spec(
            FunctionalSpec::new(format!("hi-{j}"))
                .compute(Ticks::new(compute))
                .writes(format!("key-{j}")),
        );
        if j == 0 {
            app = app.spec(FunctionalSpec::new("lo-0").compute(Ticks::new(5)));
        }
        b = b.app(app);
    }
    for (i, name) in config_names.iter().enumerate() {
        let mut c = Configuration::new(name.clone());
        if i == n_configs - 1 {
            // The safe configuration: app-0 degraded on P0, the rest off.
            c = c.assign("app-0", "lo-0").place("app-0", P0).safe();
            for j in 1..n_apps {
                c = c.assign(format!("app-{j}"), "off");
            }
        } else {
            for j in 0..n_apps {
                c = c
                    .assign(format!("app-{j}"), format!("hi-{j}"))
                    .place(format!("app-{j}"), ProcessorId::new(j as u32));
            }
        }
        b = b.config(c);
    }
    for from in &config_names {
        for to in &config_names {
            if from != to {
                b = b.transition(from.clone(), to.clone(), Ticks::new(bound));
            }
        }
    }
    for (value, target) in mode_values.iter().zip(&config_names) {
        b = b.choose_when("mode", value.clone(), target.clone());
    }
    b.initial_config("cfg-0")
        .initial_env([("mode", "mode-0")])
        .min_dwell_frames(dwell)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clean randomly-parameterized specs yield zero diagnostics, spec-
    /// level and assembled alike.
    #[test]
    fn clean_random_specs_lint_clean(
        n_apps in 2usize..4,
        n_configs in 2usize..5,
        compute in 5u64..26,
        dwell in 4u64..11,
        bound in 400u64..1001,
    ) {
        let spec = clean_random_spec(n_apps, n_configs, compute, dwell, bound);
        let assembly = Assembly::derive(&spec).unwrap();
        let engine = LintEngine::new();
        let report = engine.run(&LintTarget::assembled(&spec, &assembly));
        prop_assert!(report.is_clean(), "{}", report.render());
        let spec_level = engine.run(&LintTarget::spec_only(&spec));
        prop_assert!(spec_level.is_clean(), "{}", spec_level.render());
    }
}
