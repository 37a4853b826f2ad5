//! Microbenchmarks of the assurance machinery: property checking over
//! traces, the static obligation suite, and bounded model checking —
//! the costs a verification-in-the-loop workflow pays.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use arfs_avionics::avionics_spec;
use arfs_core::analysis::{self, coverage, timing};
use arfs_core::model::ModelChecker;
use arfs_core::properties;
use arfs_core::system::System;
use arfs_core::trace::SysTrace;

/// A long trace with periodic reconfigurations for the checkers to chew
/// on.
fn busy_trace(frames: u64) -> (SysTrace, arfs_core::spec::ReconfigSpec) {
    let spec = avionics_spec().unwrap();
    let mut system = System::builder(spec.clone()).build().unwrap();
    let mut level = 0;
    let values = ["both", "one", "battery", "one"];
    for f in 0..frames {
        if f % 25 == 24 {
            level = (level + 1) % values.len();
            system.set_env("electrical", values[level]).unwrap();
        }
        system.run_frame();
    }
    (system.trace().clone(), spec)
}

fn bench_properties(c: &mut Criterion) {
    let mut group = c.benchmark_group("properties");
    let (trace, spec) = busy_trace(500);
    assert!(!trace.get_reconfigs().is_empty());

    group.bench_function("check_all_500_frame_trace", |b| {
        b.iter(|| {
            let report = properties::check_all(&trace, &spec);
            assert!(report.is_ok());
            black_box(report)
        });
    });
    group.bench_function("get_reconfigs_500_frame_trace", |b| {
        b.iter(|| black_box(trace.get_reconfigs()));
    });
    group.finish();
}

fn bench_static_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis");
    let spec = avionics_spec().unwrap();

    group.bench_function("covering_txns", |b| {
        b.iter(|| {
            let gaps = coverage::covering_txns(&spec);
            assert!(gaps.is_empty());
            black_box(gaps)
        });
    });
    // The allocation-free rewrite matters most on the larger
    // quantification domain: 4 configurations x 9 environment states.
    group.bench_function("covering_txns_extended", |b| {
        let extended = arfs_avionics::extended::extended_uav_spec().unwrap();
        b.iter(|| {
            let gaps = coverage::covering_txns(&extended);
            assert!(gaps.is_empty());
            black_box(gaps)
        });
    });
    group.bench_function("obligation_suite", |b| {
        b.iter(|| black_box(analysis::check_obligations(&spec)));
    });
    group.bench_function("transition_cycles", |b| {
        b.iter(|| black_box(timing::transition_cycles(&spec)));
    });
    group.bench_function("restriction_analysis", |b| {
        b.iter(|| black_box(timing::restriction_analysis(&spec)));
    });
    group.finish();
}

fn bench_lint(c: &mut Criterion) {
    use arfs_core::lint::{Assembly, LintEngine, LintTarget};

    let mut group = c.benchmark_group("lint");
    let spec = avionics_spec().unwrap();
    let assembly = Assembly::derive(&spec).unwrap();
    let engine = LintEngine::new();

    group.bench_function("engine_serial_assembled", |b| {
        b.iter(|| {
            let report = engine.run(&LintTarget::assembled(&spec, &assembly));
            assert!(report.is_clean());
            black_box(report)
        });
    });
    group.finish();
}

fn bench_model_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_check");
    group.sample_size(10);
    let spec = avionics_spec().unwrap();

    group.bench_function("exhaustive_h14_e1", |b| {
        let mc = ModelChecker::new(spec.clone(), 14, 1);
        b.iter(|| {
            let report = mc.run();
            assert!(report.all_passed());
            black_box(report)
        });
    });
    group.bench_function("exhaustive_h14_e1_parallel4", |b| {
        let mc = ModelChecker::new(spec.clone(), 14, 1);
        b.iter(|| black_box(mc.run_parallel(4)));
    });
    // The substrate snapshot the prefix-sharing walk takes at every
    // branch point — forking must stay far cheaper than replaying the
    // prefix (horizon x per-frame cost). Mirrors the walk's fork
    // conditions: observability off, as the checker builds its systems.
    group.bench_function("fork_system", |b| {
        let mut system = System::builder(spec.clone())
            .observability(false)
            .build()
            .unwrap();
        for _ in 0..10 {
            system.run_frame();
        }
        b.iter(|| black_box(system.fork()));
    });
    // The same fork after 200 frames of history including several
    // reconfigurations. With copy-on-write substrate state the cost
    // must stay flat as history accumulates (the accumulated trace,
    // event logs, and bus history are shared, not copied); deep-copy
    // forks scale linearly with the prefix length and regress here
    // first.
    group.bench_function("fork_system_deep_history", |b| {
        let mut system = System::builder(spec.clone())
            .observability(false)
            .build()
            .unwrap();
        let values = ["both", "one", "battery", "one"];
        let mut level = 0;
        for f in 0..200u64 {
            if f % 25 == 24 {
                level = (level + 1) % values.len();
                system.set_env("electrical", values[level]).unwrap();
            }
            system.run_frame();
        }
        b.iter(|| black_box(system.fork()));
    });
    // The work-stealing walk on a space big enough for stealing to
    // matter (529 schedules at h20/e2 on the avionics spec).
    group.bench_function("exhaustive_h20_e2_worksteal", |b| {
        let mc = ModelChecker::new(spec.clone(), 20, 2);
        b.iter(|| {
            let report = mc.run_parallel(4);
            assert!(report.all_passed());
            black_box(report)
        });
    });
    // Schedule materialization alone, two events deep: the enumeration
    // is linear in the number of emitted schedules (each extension is
    // pushed exactly once), so this guards against regressing back to
    // the quadratic rebuild-every-level shape.
    group.bench_function("schedules_h20_e2", |b| {
        let mc = ModelChecker::new(spec.clone(), 20, 2);
        b.iter(|| {
            let schedules = mc.schedules();
            assert!(schedules.len() > 100);
            black_box(schedules)
        });
    });
    group.finish();
}

fn bench_workload(c: &mut Criterion) {
    use arfs_core::scenario::Scenario;
    use arfs_core::stats::trace_stats;
    use arfs_core::workload::{random_scenario, WorkloadConfig};

    let mut group = c.benchmark_group("workload");
    let spec = avionics_spec().unwrap();

    group.bench_function("generate_200_frame_scenario", |b| {
        let config = WorkloadConfig::default();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(random_scenario(&spec, &config, seed))
        });
    });

    group.bench_function("replay_scenario_and_stats", |b| {
        let scenario = Scenario::new("bench", 60)
            .set_env(5, "electrical", "one")
            .set_env(25, "electrical", "battery")
            .set_env(45, "electrical", "both");
        b.iter(|| {
            let system = scenario.run_on_spec(&spec).unwrap();
            black_box(trace_stats(system.trace()))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_properties,
    bench_static_analysis,
    bench_lint,
    bench_model_check,
    bench_workload
);
criterion_main!(benches);
