//! Golden-trace regression test: the reference mission's trace is pinned
//! as a JSON artifact. Any change to the protocol, trace recording, or
//! avionics behavior that alters the observable trace will fail here —
//! deliberately. If the change is intentional, regenerate the golden file
//! by running this test with `ARFS_BLESS=1`.

use std::path::PathBuf;

use arfs_core::scenario::Scenario;
use arfs_core::trace::SysTrace;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/golden_avionics_trace.json")
}

/// The pinned reference mission: one alternator failure, a repair, then
/// a double failure, on the §7 avionics specification with NullApps and
/// default policies.
fn reference_trace() -> SysTrace {
    let spec = arfs_avionics::avionics_spec().unwrap();
    let scenario = Scenario::new("golden-mission", 60)
        .set_env(8, "electrical", "one")
        .set_env(25, "electrical", "both")
        .set_env(42, "electrical", "battery");
    let system = scenario.run_on_spec(&spec).unwrap();
    system.trace().clone()
}

#[test]
fn reference_mission_matches_golden_trace() {
    let trace = reference_trace();
    let path = golden_path();

    if std::env::var("ARFS_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, serde_json::to_string_pretty(&trace).unwrap()).unwrap();
        eprintln!("golden trace regenerated at {}", path.display());
        return;
    }

    let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with ARFS_BLESS=1 to create it",
            path.display()
        )
    });
    let golden: SysTrace = serde_json::from_str(&body).expect("golden file parses");
    assert_eq!(
        trace, golden,
        "the reference mission's trace changed; if intentional, regenerate with \
         `ARFS_BLESS=1 cargo test -p arfs-integration --test golden_trace`"
    );
}

#[test]
fn golden_trace_still_satisfies_all_properties() {
    // The pinned artifact itself must be a correct trace — guards against
    // blessing a broken protocol.
    let spec = arfs_avionics::avionics_spec().unwrap();
    let trace = reference_trace();
    let report = arfs_core::properties::check_extended(&trace, &spec);
    assert!(report.is_ok(), "{report}");
    assert_eq!(trace.get_reconfigs().len(), 3);
}

// ---------------------------------------------------------------------
// Golden System observability: journal lines, flight-ring records and
// metrics of a few short avionics runs that between them emit every
// event kind `System` produces. Regenerate with `ARFS_BLESS=1`.
// ---------------------------------------------------------------------

use arfs_core::app::{AppContext, NullApp, ReconfigurableApp};
use arfs_core::chaos::{ChaosDefense, FaultKind, FaultPlan};
use arfs_core::obs::RingLegend;
use arfs_core::scram::{KernelConfig, MidReconfigPolicy};
use arfs_core::system::System;
use arfs_core::{AppId, SpecId};
use arfs_failstop::ProcessorId;

/// Every journal kind the golden runs must cover; a run that stops
/// emitting one of them fails the test instead of shrinking coverage.
const GOLDEN_JOURNAL_KINDS: [&str; 24] = [
    "frame-start",
    "frame-end",
    "env-changed",
    "fault-signal",
    "stable-commit",
    "reconfig-signal",
    "status-signal",
    "trigger-accepted",
    "phase-entered",
    "retargeted",
    "completed",
    "dwell-suppressed",
    "commit-retry",
    "safe-fallback",
    "membership-changed",
    "processor-failed",
    "fault-injected",
    "app-lost",
    "stage-error",
    "deadline-miss",
    "torn-write",
    "bus-silenced",
    "clock-jitter",
    "quarantined",
];

/// Every flight-ring code the golden runs must cover.
const GOLDEN_RING_KINDS: [&str; 18] = [
    "fast-frames",
    "full-frames",
    "env-changed",
    "fault-injected",
    "trigger-accepted",
    "phase-entered",
    "retargeted",
    "completed",
    "dwell-suppressed",
    "commit-retry",
    "safe-fallback",
    "torn-write",
    "bus-silenced",
    "clock-jitter",
    "quarantined",
    "deadline-miss",
    "stage-error",
    "app-lost",
];

/// An FCS whose normal stage reports a software fault on chosen frames.
#[derive(Clone)]
struct FlakyFcs {
    inner: NullApp,
    fail_frames: Vec<u64>,
}

impl ReconfigurableApp for FlakyFcs {
    fn id(&self) -> &AppId {
        self.inner.id()
    }
    fn current_spec(&self) -> SpecId {
        self.inner.current_spec()
    }
    fn run_normal(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
        if self.fail_frames.contains(&ctx.frame) {
            return Err(format!("transient software fault at frame {}", ctx.frame));
        }
        self.inner.run_normal(ctx)
    }
    fn halt(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
        self.inner.halt(ctx)
    }
    fn prepare(&mut self, ctx: &mut AppContext<'_>, t: &SpecId) -> Result<(), String> {
        self.inner.prepare(ctx, t)
    }
    fn initialize(&mut self, ctx: &mut AppContext<'_>, t: &SpecId) -> Result<(), String> {
        self.inner.initialize(ctx, t)
    }
    fn postcondition_established(&self) -> bool {
        self.inner.postcondition_established()
    }
    fn precondition_established(&self, s: &SpecId) -> bool {
        self.inner.precondition_established(s)
    }
    fn clone_box(&self) -> Box<dyn ReconfigurableApp> {
        Box::new(self.clone())
    }
}

/// Drives `system` to `horizon`, applying `(frame, value)` electrical
/// changes and `(frame, processor)` failures before their frame runs.
/// `fast` selects [`System::advance_frame`] over [`System::run_frame`].
fn drive(
    system: &mut System,
    horizon: u64,
    env: &[(u64, &str)],
    failures: &[(u64, u32)],
    fast: bool,
) {
    while system.frame() < horizon {
        let frame = system.frame();
        for (_, value) in env.iter().filter(|(f, _)| *f == frame) {
            system.set_env("electrical", value).unwrap();
        }
        for (_, p) in failures.iter().filter(|(f, _)| *f == frame) {
            system.fail_processor(ProcessorId::new(*p));
        }
        if fast {
            system.advance_frame();
        } else {
            system.run_frame();
        }
    }
}

/// The golden runs, each returned with its name.
fn golden_runs() -> Vec<(&'static str, System)> {
    let spec = arfs_avionics::avionics_spec().unwrap();
    let fcs = || AppId::new("fcs");
    let mut runs = Vec::new();

    // Chaos under the default defenses: jitter overruns a budget, a
    // torn halt-frame commit is retried, a buffered second trigger
    // waits out the dwell, and a silent processor is quarantined.
    let mut plan = FaultPlan::new();
    plan.push(
        2,
        FaultKind::ClockJitter {
            app: fcs(),
            ticks: 200,
        },
    );
    plan.push(9, FaultKind::CommitFault { app: fcs() });
    plan.push(
        28,
        FaultKind::BusSilence {
            processor: ProcessorId::new(1),
            frames: 4,
        },
    );
    let mut system = System::builder(spec.clone())
        .flight_recorder(4096)
        .fault_plan(plan)
        .build()
        .unwrap();
    drive(&mut system, 40, &[(8, "one"), (10, "battery")], &[], false);
    runs.push(("retry-dwell-quarantine", system));

    // Immediate retargeting with no retry budget: a flaky FCS stage, a
    // processor failure (injected twice), a mid-protocol retarget and a
    // torn commit that falls back to the safe configuration.
    let mut plan = FaultPlan::new();
    plan.push(11, FaultKind::CommitFault { app: fcs() });
    let mut system = System::builder(spec.clone())
        .app(Box::new(FlakyFcs {
            inner: NullApp::new("fcs", "fcs-primary"),
            fail_frames: vec![1],
        }))
        .app(Box::new(NullApp::new("autopilot", "ap-primary")))
        .kernel(KernelConfig {
            mid: MidReconfigPolicy::ImmediateRetarget,
            defense: ChaosDefense {
                retry_budget_frames: 0,
                ..ChaosDefense::default()
            },
            ..KernelConfig::default()
        })
        .flight_recorder(4096)
        .fault_plan(plan)
        .build()
        .unwrap();
    drive(
        &mut system,
        30,
        &[(8, "one"), (10, "battery")],
        &[(2, 1)],
        false,
    );
    runs.push(("retarget-fallback", system));

    // The dark fleet configuration: no journal, no trace, ring only, so
    // steady frames take the fast path between two reconfigurations.
    let mut system = System::builder(spec)
        .observability(false)
        .flight_recorder(4096)
        .build()
        .unwrap();
    system.set_trace_recording(false);
    drive(&mut system, 40, &[(10, "one"), (25, "both")], &[], true);
    runs.push(("dark-fast-path", system));

    runs
}

/// The three golden artifacts of a set of runs: journal JSON Lines,
/// decoded ring lines, and metrics lines (timing histograms excluded).
fn render_golden(runs: &[(&str, System)]) -> (String, String, String) {
    let (mut journal, mut ring, mut metrics) = (String::new(), String::new(), String::new());
    for (name, system) in runs {
        journal.push_str(&format!("{{\"run\":\"{name}\"}}\n"));
        journal.push_str(&system.journal().to_json_lines());

        ring.push_str(&format!("# {name}\n"));
        let legend = RingLegend::for_spec(system.spec());
        for event in system.flight_ring().expect("ring enabled").iter() {
            ring.push_str(&format!(
                "{} | a={} b={}\n",
                legend.decode(event),
                event.a,
                event.b
            ));
        }

        metrics.push_str(&format!("# {name}\n"));
        let snap = system.metrics_snapshot();
        for (counter, value) in &snap.counters {
            metrics.push_str(&format!("counter {counter} {value}\n"));
        }
        for (gauge, value) in &snap.gauges {
            metrics.push_str(&format!("gauge {gauge} {value}\n"));
        }
        for (histogram, h) in &snap.histograms {
            if histogram.ends_with("_ns") {
                metrics.push_str(&format!("histogram {histogram} count={}\n", h.count));
            } else {
                metrics.push_str(&format!(
                    "histogram {histogram} count={} min={} max={} p50={}\n",
                    h.count, h.min, h.max, h.p50
                ));
            }
        }
        metrics.push_str(&format!("defense_events {}\n", system.defense_events()));
    }
    (journal, ring, metrics)
}

#[test]
fn system_observability_matches_golden_fixture() {
    let runs = golden_runs();
    let (journal, ring, metrics) = render_golden(&runs);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data");
    let files = [
        ("golden_system.journal.jsonl", &journal),
        ("golden_system.ring.txt", &ring),
        ("golden_system.metrics.txt", &metrics),
    ];

    if std::env::var("ARFS_BLESS").is_ok() {
        for (name, body) in files {
            std::fs::write(dir.join(name), body).unwrap();
        }
        eprintln!("golden System fixtures regenerated under {}", dir.display());
        return;
    }

    for (name, body) in files {
        let path = dir.join(name);
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run with ARFS_BLESS=1 to create it",
                path.display()
            )
        });
        assert!(
            *body == golden,
            "{name} changed; first differing line: {:?}",
            body.lines()
                .zip(golden.lines())
                .find(|(a, b)| a != b)
                .or_else(|| Some((body.lines().last()?, golden.lines().last()?)))
        );
    }

    // Coverage cannot silently shrink: every kind is still present.
    let kinds: std::collections::BTreeSet<&str> = runs
        .iter()
        .flat_map(|(_, s)| s.journal().events().iter().map(|e| e.kind.as_str()))
        .collect();
    for kind in GOLDEN_JOURNAL_KINDS {
        assert!(kinds.contains(kind), "golden journal lacks `{kind}`");
    }
    for kind in GOLDEN_RING_KINDS {
        assert!(
            ring.lines().any(|l| l.split(' ').nth(1) == Some(kind)),
            "golden ring lacks `{kind}`"
        );
    }
}
