//! Tests of the tagged-value API of stable storage.

use arfs_failstop::{StableStorage, StableValue};

/// Stages `value` under `key` with the typed stager for its variant.
fn stage(storage: &mut StableStorage, key: &str, value: &StableValue) {
    match value {
        StableValue::U64(v) => storage.stage_u64(key, *v),
        StableValue::F64(v) => storage.stage_f64(key, *v),
        StableValue::Bool(v) => storage.stage_bool(key, *v),
        StableValue::Str(v) => storage.stage_str(key, v.as_str()),
    }
}

/// The tagged-value API is total: every variant round-trips through a
/// generic `stage`/`get` cycle, in the region and in its snapshot.
#[test]
fn stable_value_variants_roundtrip_generically() {
    let values = vec![
        ("u64", StableValue::U64(7)),
        ("f64", StableValue::F64(2.5)),
        ("bool", StableValue::Bool(true)),
        ("str", StableValue::Str("x".into())),
    ];
    let mut storage = StableStorage::new();
    for (k, v) in &values {
        stage(&mut storage, k, v);
    }
    storage.commit();
    let snap = storage.snapshot();
    for (k, v) in &values {
        assert_eq!(storage.get(k), Some(v));
        assert_eq!(snap.get(k), Some(v));
    }
}
