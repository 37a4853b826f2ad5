//! Microbenchmarks of the fleet runtime: the cost of one frame-major frame
//! across 10⁴ systems (with and without the observability plane), the
//! steady-state fast path against the full per-frame machinery,
//! flight-ring writes, and the JSON-Lines journal writer.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use arfs_avionics::avionics_spec;
use arfs_core::fleet::{Fleet, FleetConfig};
use arfs_core::obs::{FlightRing, JournalEvent, RingCode, RingEvent, Subsystem};
use arfs_core::system::System;

fn bench_fleet_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    let spec = Arc::new(avionics_spec().unwrap());

    group.bench_function("fleet_frame_10k", |b| {
        // A quiet warmed fleet: every cell on the allocation-free fast
        // path, so this measures the runtime's per-frame floor.
        let mut fleet = Fleet::new(
            Arc::clone(&spec),
            FleetConfig {
                systems: 10_000,
                horizon: u64::MAX,
                workload: None,
                journal_sample: 0,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let mut frame = 0u64;
        for _ in 0..4 {
            fleet.advance_frame(frame);
            frame += 1;
        }
        b.iter(|| {
            fleet.advance_frame(frame);
            frame += 1;
        });
    });

    group.bench_function("fleet_frame_10k_obs_off", |b| {
        // The same quiet fleet with the observability plane off (no
        // rings, no shard metrics consumers): the delta against
        // `fleet_frame_10k` is the plane's per-frame cost.
        let mut fleet = Fleet::new(
            Arc::clone(&spec),
            FleetConfig {
                systems: 10_000,
                horizon: u64::MAX,
                workload: None,
                journal_sample: 0,
                ring_capacity: 0,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let mut frame = 0u64;
        for _ in 0..4 {
            fleet.advance_frame(frame);
            frame += 1;
        }
        b.iter(|| {
            fleet.advance_frame(frame);
            frame += 1;
        });
    });

    group.bench_function("steady_frame_fast_vs_full", |b| {
        // One system, fast path: the per-system floor underneath
        // `fleet_frame_10k`.
        let mut system = System::builder_arc(Arc::clone(&spec))
            .observability(false)
            .build()
            .unwrap();
        system.set_trace_recording(false);
        for _ in 0..4 {
            system.advance_frame();
        }
        b.iter(|| black_box(system.advance_frame()));
    });
    group.finish();
}

fn bench_observability_plane(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs");

    group.bench_function("ring_bump_run", |b| {
        // The steady fast path's per-frame ring write: coalesces into
        // the newest event in place, no slot consumed, no heap.
        let mut ring = FlightRing::new(256);
        let mut frame = 0u64;
        b.iter(|| {
            ring.bump_run(frame, RingCode::FastFrames);
            frame += 1;
        });
    });

    group.bench_function("ring_push", |b| {
        // A full-frame ring write into an always-wrapping ring.
        let mut ring = FlightRing::new(256);
        let mut frame = 0u64;
        b.iter(|| {
            ring.push(RingEvent {
                frame,
                code: RingCode::PhaseEntered,
                a: 1,
                b: 2,
            });
            frame += 1;
        });
    });

    let events: Vec<JournalEvent> = (0..64u64)
        .map(|frame| JournalEvent {
            frame,
            subsystem: Subsystem::Scram,
            kind: "trigger-accepted".into(),
            payload: serde_json::json!({"from": "full-service", "target": "safe-service"}),
        })
        .collect();

    group.bench_function("encode_json_lines", |b| {
        b.iter(|| {
            let mut out = String::new();
            for event in &events {
                event.write_json_line(&mut out);
                out.push('\n');
            }
            black_box(out.len())
        });
    });

    group.finish();
}

criterion_group!(benches, bench_fleet_frame, bench_observability_plane);
criterion_main!(benches);
