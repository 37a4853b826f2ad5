//! Microbenchmarks of the SCRAM kernel and the assembled system: the
//! per-frame decision cost and the end-to-end reconfiguration cost that
//! Table 1's timing guarantees rest on.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use arfs_avionics::{avionics_spec, AvionicsSystem};
use arfs_core::environment::EnvState;
use arfs_core::scram::{KernelConfig, Scram};
use arfs_core::system::System;

fn bench_scram_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("scram");
    let spec = Arc::new(avionics_spec().unwrap());

    group.bench_function("steady_step", |b| {
        let mut scram = Scram::new(Arc::clone(&spec), KernelConfig::default()).unwrap();
        let env = EnvState::new([("electrical", "both")]);
        let mut frame = 0u64;
        b.iter(|| {
            frame += 1;
            black_box(scram.step(frame, &env))
        });
    });

    group.bench_function("full_reconfiguration_protocol", |b| {
        let good = EnvState::new([("electrical", "both")]);
        let bad = EnvState::new([("electrical", "one")]);
        b.iter(|| {
            let mut scram = Scram::new(Arc::clone(&spec), KernelConfig::default()).unwrap();
            scram.step(0, &good);
            let mut frame = 6; // past the dwell guard
            scram.step(frame, &bad);
            while scram.is_reconfiguring() {
                frame += 1;
                black_box(scram.step(frame, &bad));
            }
        });
    });
    group.finish();
}

fn bench_system_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("system");

    group.bench_function("null_app_frame", |b| {
        let mut system = System::builder(avionics_spec().unwrap()).build().unwrap();
        b.iter(|| black_box(system.run_frame().frame));
    });

    group.bench_function("avionics_frame", |b| {
        let mut av = AvionicsSystem::new().unwrap();
        av.engage_autopilot();
        b.iter(|| av.run_frame());
    });

    group.bench_function("end_to_end_reconfiguration", |b| {
        b.iter(|| {
            let mut av = AvionicsSystem::new().unwrap();
            av.run_frames(8);
            av.fail_alternator(1);
            av.run_frames(8);
            assert_eq!(av.system().current_config().as_str(), "reduced-service");
        });
    });
    group.finish();
}

criterion_group!(benches, bench_scram_step, bench_system_frame);
criterion_main!(benches);
