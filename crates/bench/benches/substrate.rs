//! Microbenchmarks of the platform substrates: stable storage and the
//! time-triggered bus.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use arfs_failstop::StableStorage;
use arfs_ttbus::{BusSchedule, Message, NodeId, TtBus};

fn bench_stable_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("stable_storage");
    group.bench_function("stage_commit_8_keys", |b| {
        let mut store = StableStorage::new();
        b.iter(|| {
            for i in 0..8u64 {
                store.stage_u64(format!("key{i}"), i);
            }
            black_box(store.commit())
        });
    });
    group.bench_function("snapshot_64_keys", |b| {
        let mut store = StableStorage::new();
        for i in 0..64u64 {
            store.stage_u64(format!("key{i}"), i);
        }
        store.commit();
        b.iter(|| black_box(store.snapshot()));
    });
    group.finish();
}

fn bench_bus_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("ttbus");
    group.bench_function("round_4_nodes_4_messages", |b| {
        let nodes: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let schedule = BusSchedule::round_robin(nodes.clone(), 256).unwrap();
        let mut bus = TtBus::new(schedule);
        b.iter(|| {
            for &n in &nodes {
                bus.submit(n, Message::new("status", vec![0u8; 32]))
                    .unwrap();
            }
            let report = bus.run_round();
            for &n in &nodes {
                black_box(bus.drain_inbox(n));
            }
            black_box(report)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_stable_commit, bench_bus_round);
criterion_main!(benches);
