//! Microbenchmarks of the platform substrate: stable storage.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use arfs_failstop::StableStorage;

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

criterion_group!(benches, bench_stable_commit);
criterion_main!(benches);
