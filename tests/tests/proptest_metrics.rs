//! Log₂ histogram properties.
//!
//! Every histogram a run reports — a system's, a model check's, a
//! fleet's — is a [`MetricsRegistry`] log₂ histogram. A fleet folds its
//! cells' samples in system-id order at aggregation, so its snapshot is
//! deterministic only if recording is order-blind: any permutation of a
//! sample stream, observed through a registry, must snapshot exactly
//! like direct recording. These properties pin that, plus the serde
//! round-trip of the snapshot with its bucket boundaries, so a future
//! "optimization" of the histogram can't silently skew telemetry.

use arfs_core::obs::{Log2Histogram, Log2HistogramSnapshot, MetricsRegistry};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Observing a random permutation of a stream through the registry
    /// snapshots exactly like recording the stream in order.
    #[test]
    fn registry_histogram_equals_single_threaded_recording(
        samples in proptest::collection::vec(0u64..1 << 20, 1..200),
        keys in proptest::collection::vec(0usize..1 << 16, 1..64),
    ) {
        let mut single = Log2Histogram::new();
        for &sample in &samples {
            single.record(sample);
        }
        let mut permuted: Vec<(usize, u64)> = samples
            .iter()
            .enumerate()
            .map(|(i, &s)| (keys[i % keys.len()] ^ i, s))
            .collect();
        permuted.sort_unstable();
        let mut registry = MetricsRegistry::new();
        for &(_, sample) in &permuted {
            registry.observe("latency", sample);
        }
        let snapshot = registry.snapshot();
        prop_assert_eq!(&snapshot.histograms["latency"], &single.snapshot());
        prop_assert_eq!(snapshot.histograms["latency"].to_histogram(), single);
    }

    /// The snapshot's non-empty buckets carry their boundaries through
    /// serde and reconstruct the dense histogram exactly.
    #[test]
    fn bucket_boundaries_round_trip_through_serde(
        samples in proptest::collection::vec(0u64..u64::MAX, 0..100),
    ) {
        let mut h = Log2Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let snapshot = h.snapshot();
        for bucket in &snapshot.buckets {
            let (lo, hi) = Log2Histogram::bucket_bounds(Log2Histogram::bucket_of(bucket.lo));
            prop_assert_eq!((bucket.lo, bucket.hi), (lo, hi), "bucket bounds must be canonical");
        }
        let json = serde_json::to_string_infallible(&snapshot.to_content());
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let back = Log2HistogramSnapshot::from_content(&value).unwrap();
        prop_assert_eq!(&back, &snapshot);
        prop_assert_eq!(back.to_histogram(), h);
    }
}
