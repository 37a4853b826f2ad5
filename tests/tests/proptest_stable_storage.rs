//! Property-based tests of the fail-stop substrate's core invariants.
//!
//! Stable storage is the foundation of the whole assurance argument —
//! "the contents of stable storage are preserved" through any failure —
//! so its atomicity is tested against arbitrary operation interleavings.

use std::collections::BTreeMap;

use arfs_failstop::StableStorage;
use proptest::prelude::*;

/// An abstract stable-storage operation.
#[derive(Debug, Clone)]
enum Op {
    Stage(u8, u64),
    Remove(u8),
    Commit,
    Discard,
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| Op::Stage(k % 8, v)),
        any::<u8>().prop_map(|k| Op::Remove(k % 8)),
        Just(Op::Commit),
        Just(Op::Discard),
        Just(Op::Snapshot),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The committed state always equals a reference model that applies
    /// staged batches atomically, and snapshots are immutable.
    #[test]
    fn storage_matches_atomic_reference_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut storage = StableStorage::new();
        let mut committed: BTreeMap<String, u64> = BTreeMap::new();
        let mut staged: BTreeMap<String, Option<u64>> = BTreeMap::new();
        let mut snapshots: Vec<(BTreeMap<String, u64>, arfs_failstop::StableSnapshot)> = Vec::new();

        for op in ops {
            match op {
                Op::Stage(k, v) => {
                    let key = format!("k{k}");
                    storage.stage_u64(key.clone(), v);
                    staged.insert(key, Some(v));
                }
                Op::Remove(k) => {
                    let key = format!("k{k}");
                    storage.stage_remove(key.clone());
                    staged.insert(key, None);
                }
                Op::Commit => {
                    storage.commit();
                    for (k, v) in std::mem::take(&mut staged) {
                        match v {
                            Some(v) => {
                                committed.insert(k, v);
                            }
                            None => {
                                committed.remove(&k);
                            }
                        }
                    }
                }
                Op::Discard => {
                    storage.discard();
                    staged.clear();
                }
                Op::Snapshot => {
                    snapshots.push((committed.clone(), storage.snapshot()));
                }
            }
            // Invariant: visible state == reference committed state.
            prop_assert_eq!(storage.len(), committed.len());
            for (k, v) in &committed {
                prop_assert_eq!(storage.get_u64(k), Some(*v));
            }
        }
        // Snapshots never change, no matter what happened afterwards.
        for (reference, snapshot) in &snapshots {
            prop_assert_eq!(snapshot.len(), reference.len());
            for (k, v) in reference {
                prop_assert_eq!(snapshot.get_u64(k), Some(*v));
            }
        }
    }
}
