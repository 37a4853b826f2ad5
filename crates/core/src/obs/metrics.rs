//! Run-scoped metrics: counters, gauges, and histograms.
//!
//! Where the [journal](super::journal) answers "what happened, in
//! order", the registry answers "how much, how often, how long".
//! [`System`](crate::system::System) maintains one
//! [`MetricsRegistry`] per run and bumps it alongside the journal;
//! experiments call [`MetricsRegistry::snapshot`] and serialize the
//! result next to their other artifacts.

use std::collections::BTreeMap;
use std::fmt;

/// A set of raw samples; summarized on snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
struct Histogram {
    samples: Vec<u64>,
}

impl Histogram {
    fn summarize(&self) -> HistogramSummary {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let count = sorted.len();
        let percentile = |p: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((p / 100.0) * (count as f64 - 1.0)).round() as usize;
            sorted[rank.min(count - 1)]
        };
        HistogramSummary {
            count,
            min: sorted.first().copied().unwrap_or(0),
            max: sorted.last().copied().unwrap_or(0),
            mean: if count == 0 {
                0.0
            } else {
                sorted.iter().sum::<u64>() as f64 / count as f64
            },
            p50: percentile(50.0),
            p90: percentile(90.0),
            p99: percentile(99.0),
        }
    }
}

/// Mutable registry of named counters, gauges, and histograms.
///
/// Names are dotted paths (`"scram.triggers"`,
/// `"reconfig.latency_cycles"`); the registry imposes no schema beyond
/// that convention. A name is allocated once, on its first update;
/// later updates of the same counter or gauge never touch the heap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments a counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increments a counter by `delta`.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(count) => *count += delta,
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Reads a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge to the given value.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(gauge) => *gauge = value,
            None => {
                self.gauges.insert(name.to_owned(), value);
            }
        }
    }

    /// Reads a gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records one histogram sample.
    pub fn observe(&mut self, name: &str, sample: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.samples.push(sample),
            None => {
                self.histograms.insert(
                    name.to_owned(),
                    Histogram {
                        samples: vec![sample],
                    },
                );
            }
        }
    }

    /// Folds another registry into this one: counters add, histogram
    /// samples concatenate, and gauges overwrite (last writer wins).
    /// This is how per-worker registries from a parallel model-check
    /// walk combine into one run-level registry.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, delta) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += delta;
        }
        for (name, value) in &other.gauges {
            self.gauges.insert(name.clone(), *value);
        }
        for (name, h) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .samples
                .extend_from_slice(&h.samples);
        }
    }

    /// Freezes the current state into a serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.summarize()))
                .collect(),
        }
    }
}

/// Five-number-ish summary of one histogram.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSummary {
    /// Number of samples observed.
    pub count: usize,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 90th percentile (nearest-rank).
    pub p90: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
}

/// Immutable, serializable view of a registry at one instant.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counters:")?;
        for (name, v) in &self.counters {
            writeln!(f, "  {name:<28} {v}")?;
        }
        writeln!(f, "gauges:")?;
        for (name, v) in &self.gauges {
            writeln!(f, "  {name:<28} {v:.4}")?;
        }
        writeln!(f, "histograms:")?;
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "  {name:<28} n={} min={} p50={} p90={} p99={} max={} mean={:.2}",
                h.count, h.min, h.p50, h.p90, h.p99, h.max, h.mean
            )?;
        }
        Ok(())
    }
}

/// Number of log₂ buckets: bucket 0 holds the sample `0`, bucket `k`
/// (1..=64) holds samples with bit length `k`, i.e. the half-open range
/// `[2^(k-1), 2^k)`.
const LOG2_BUCKETS: usize = 65;

/// A fixed-bucket log₂ histogram: 65 plain `u64` buckets plus exact
/// count/sum/min/max. Unlike the raw-sample [`MetricsRegistry`]
/// histograms (which keep every sample and allocate per observation),
/// a `Log2Histogram` is fixed-size, allocation-free to record into, and
/// its [`merge`](Log2Histogram::merge) is a commutative, associative
/// bucket-wise add — which is what makes the fleet's per-shard metrics
/// deterministic regardless of how shards are distributed over worker
/// threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Histogram::default()
    }

    /// The bucket index a sample lands in (the sample's bit length).
    pub fn bucket_of(sample: u64) -> usize {
        (u64::BITS - sample.leading_zeros()) as usize
    }

    /// The half-open sample range `[lo, hi]` (inclusive) covered by a
    /// bucket index.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        match index {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            k => (1 << (k - 1), (1 << k) - 1),
        }
    }

    /// Records one sample. No allocation; saturating sum.
    pub fn record(&mut self, sample: u64) {
        self.buckets[Self::bucket_of(sample)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(sample);
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds another histogram into this one. Commutative and
    /// associative, so any merge order over any shard partition yields
    /// the same result as single-threaded recording.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank percentile estimate: the upper bound of the bucket
    /// containing the `p`-th percentile sample (exact for buckets 0 and
    /// 1, within 2× above).
    fn percentile_bound(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * (self.count as f64 - 1.0)).round() as u64;
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen > rank {
                return Self::bucket_bounds(index).1.min(self.max);
            }
        }
        self.max
    }

    /// Freezes into the serializable snapshot form, keeping only
    /// non-empty buckets.
    pub fn snapshot(&self) -> Log2HistogramSnapshot {
        Log2HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
            p50: self.percentile_bound(50.0),
            p90: self.percentile_bound(90.0),
            p99: self.percentile_bound(99.0),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(index, &n)| {
                    let (lo, hi) = Self::bucket_bounds(index);
                    Log2Bucket { lo, hi, count: n }
                })
                .collect(),
        }
    }
}

/// One non-empty bucket of a [`Log2Histogram`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Log2Bucket {
    /// Smallest sample value the bucket covers.
    pub lo: u64,
    /// Largest sample value the bucket covers (inclusive).
    pub hi: u64,
    /// Number of samples in the bucket.
    pub count: u64,
}

/// Serializable view of a [`Log2Histogram`]: exact count/sum/min/max,
/// bucket-bound percentile estimates, and the non-empty buckets with
/// their boundaries (so the histogram round-trips through serde).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Log2HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Exact arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median, as the containing bucket's upper bound.
    pub p50: u64,
    /// 90th percentile bucket upper bound.
    pub p90: u64,
    /// 99th percentile bucket upper bound.
    pub p99: u64,
    /// Non-empty buckets, ascending.
    pub buckets: Vec<Log2Bucket>,
}

impl Log2HistogramSnapshot {
    /// Reconstructs the dense histogram this snapshot was taken from.
    /// Round-trip property: `h.snapshot().to_histogram() == h`.
    pub fn to_histogram(&self) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for bucket in &self.buckets {
            h.buckets[Log2Histogram::bucket_of(bucket.lo)] = bucket.count;
        }
        h.count = self.count;
        h.sum = self.sum;
        h.min = if self.count == 0 { u64::MAX } else { self.min };
        h.max = self.max;
        h
    }
}

/// Per-shard fleet metrics: plain counters plus fixed-bucket log₂
/// histograms, all fixed-size and allocation-free to bump on the frame
/// path. Each fleet shard owns one; a worker thread owns a shard for
/// the duration of a frame, so every bump is a plain unsynchronized
/// store — no shared locks, no atomics. At aggregation the shard locals
/// [`merge`](FleetMetrics::merge) in shard order; since counter adds
/// and histogram merges are commutative and associative, the merged
/// result is byte-identical across thread counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetMetrics {
    /// Frames taken through the allocation-free steady-state fast path.
    pub frames_fast: u64,
    /// Frames that ran the full frame loop.
    pub frames_full: u64,
    /// Completed reconfigurations.
    pub reconfigs: u64,
    /// Chaos-defense activations (commit retries, safe fallbacks,
    /// quarantines).
    pub defense_events: u64,
    /// Streaming SP1–SP4 / protocol violations.
    pub violations: u64,
    /// Reconfiguration latency in frame cycles.
    pub reconfig_latency_cycles: Log2Histogram,
    /// Per-system restricted-frame share in basis points.
    pub restricted_frame_bp: Log2Histogram,
}

impl FleetMetrics {
    /// Folds another shard's metrics into this one (commutative,
    /// associative).
    pub fn merge(&mut self, other: &FleetMetrics) {
        self.frames_fast += other.frames_fast;
        self.frames_full += other.frames_full;
        self.reconfigs += other.reconfigs;
        self.defense_events += other.defense_events;
        self.violations += other.violations;
        self.reconfig_latency_cycles
            .merge(&other.reconfig_latency_cycles);
        self.restricted_frame_bp.merge(&other.restricted_frame_bp);
    }

    /// Freezes into the serializable snapshot carried by fleet reports.
    pub fn snapshot(&self) -> FleetMetricsSnapshot {
        let mut counters = BTreeMap::new();
        counters.insert("fleet.frames_fast".to_owned(), self.frames_fast);
        counters.insert("fleet.frames_full".to_owned(), self.frames_full);
        counters.insert("fleet.reconfigs".to_owned(), self.reconfigs);
        counters.insert("fleet.defense_events".to_owned(), self.defense_events);
        counters.insert("fleet.violations".to_owned(), self.violations);
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "fleet.reconfig_latency_cycles".to_owned(),
            self.reconfig_latency_cycles.snapshot(),
        );
        histograms.insert(
            "fleet.restricted_frame_bp".to_owned(),
            self.restricted_frame_bp.snapshot(),
        );
        FleetMetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// Serializable view of merged [`FleetMetrics`].
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FleetMetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Log₂ histogram snapshots by name.
    pub histograms: BTreeMap<String, Log2HistogramSnapshot>,
}

impl fmt::Display for FleetMetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counters:")?;
        for (name, v) in &self.counters {
            writeln!(f, "  {name:<32} {v}")?;
        }
        writeln!(f, "histograms:")?;
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "  {name:<32} n={} min={} p50<={} p90<={} p99<={} max={} mean={:.2}",
                h.count, h.min, h.p50, h.p90, h.p99, h.max, h.mean
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("scram.triggers"), 0);
        m.incr("scram.triggers");
        m.incr("scram.triggers");
        m.add("frames", 10);
        assert_eq!(m.counter("scram.triggers"), 2);
        assert_eq!(m.counter("frames"), 10);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.gauge("frames.restricted_ratio"), None);
        m.set_gauge("frames.restricted_ratio", 0.25);
        m.set_gauge("frames.restricted_ratio", 0.5);
        assert_eq!(m.gauge("frames.restricted_ratio"), Some(0.5));
    }

    #[test]
    fn histogram_summaries_are_order_independent() {
        let mut m = MetricsRegistry::new();
        for sample in [9, 1, 5, 3, 7] {
            m.observe("reconfig.latency_cycles", sample);
        }
        let snap = m.snapshot();
        let h = &snap.histograms["reconfig.latency_cycles"];
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 9);
        assert_eq!(h.p50, 5);
        assert!((h.mean - 5.0).abs() < 1e-9);
        assert!(h.p90 >= h.p50 && h.p99 >= h.p90);
    }

    #[test]
    fn empty_histogram_summarizes_to_zeroes() {
        let h = Histogram::default().summarize();
        assert_eq!(h.count, 0);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 0);
        assert_eq!(h.mean, 0.0);
        assert_eq!(h.p99, 0);
    }

    #[test]
    fn snapshot_serializes_and_displays() {
        let mut m = MetricsRegistry::new();
        m.incr("frames");
        m.set_gauge("ratio", 0.5);
        m.observe("lat", 4);
        let snap = m.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let text = snap.to_string();
        assert!(text.contains("frames"));
        assert!(text.contains("0.5000"));
        assert!(text.contains("n=1"));
    }

    #[test]
    fn log2_buckets_cover_the_u64_range_without_overlap() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        let mut next = 0u64;
        for index in 0..LOG2_BUCKETS {
            let (lo, hi) = Log2Histogram::bucket_bounds(index);
            assert_eq!(lo, next, "bucket {index} starts where the last ended");
            assert!(hi >= lo);
            assert_eq!(Log2Histogram::bucket_of(lo), index);
            assert_eq!(Log2Histogram::bucket_of(hi), index);
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "bucket 64 ends at u64::MAX");
    }

    #[test]
    fn log2_merge_equals_single_threaded_recording() {
        let samples = [0u64, 1, 1, 3, 7, 120, 4096, u64::MAX, 17, 90];
        let mut single = Log2Histogram::new();
        for &s in &samples {
            single.record(s);
        }
        let mut left = Log2Histogram::new();
        let mut right = Log2Histogram::new();
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                left.record(s);
            } else {
                right.record(s);
            }
        }
        let mut merged = Log2Histogram::new();
        merged.merge(&right);
        merged.merge(&left);
        assert_eq!(merged, single);
        assert_eq!(merged.snapshot(), single.snapshot());
    }

    #[test]
    fn log2_snapshot_round_trips_bucket_boundaries() {
        let mut h = Log2Histogram::new();
        for s in [0u64, 1, 2, 3, 1000, 1 << 40] {
            h.record(s);
        }
        let snap = h.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: Log2HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_histogram(), h);
        for bucket in &back.buckets {
            assert_eq!(
                (bucket.lo, bucket.hi),
                Log2Histogram::bucket_bounds(Log2Histogram::bucket_of(bucket.lo))
            );
        }
    }

    #[test]
    fn empty_log2_histogram_snapshots_to_zeroes() {
        let snap = Log2Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert_eq!(snap.mean, 0.0);
        assert!(snap.buckets.is_empty());
        assert_eq!(snap.to_histogram(), Log2Histogram::new());
    }

    #[test]
    fn fleet_metrics_merge_is_commutative() {
        let mut lat_a = Log2Histogram::new();
        lat_a.record(5);
        let a = FleetMetrics {
            frames_fast: 10,
            reconfigs: 2,
            reconfig_latency_cycles: lat_a,
            ..FleetMetrics::default()
        };
        let mut lat_b = Log2Histogram::new();
        lat_b.record(9);
        let mut bp_b = Log2Histogram::new();
        bp_b.record(400);
        let b = FleetMetrics {
            frames_full: 3,
            defense_events: 1,
            reconfig_latency_cycles: lat_b,
            restricted_frame_bp: bp_b,
            ..FleetMetrics::default()
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        let snap = ab.snapshot();
        assert_eq!(snap.counters["fleet.frames_fast"], 10);
        assert_eq!(snap.counters["fleet.defense_events"], 1);
        assert_eq!(snap.histograms["fleet.reconfig_latency_cycles"].count, 2);
        let json = serde_json::to_string(&snap).unwrap();
        let back: FleetMetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
