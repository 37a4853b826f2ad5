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

/// Mutable registry of named counters, gauges, and log₂ histograms.
///
/// Names are dotted paths (`"scram.triggers"`,
/// `"reconfig.latency_cycles"`); the registry imposes no schema beyond
/// that convention. A name is allocated once, on its first update;
/// later updates of the same counter, gauge or histogram never touch
/// the heap, and a histogram's memory is fixed however many samples it
/// records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Log2Histogram>,
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

    /// Records one histogram sample into its log₂ bucket.
    pub fn observe(&mut self, name: &str, sample: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(sample),
            None => {
                let mut h = Log2Histogram::new();
                h.record(sample);
                self.histograms.insert(name.to_owned(), h);
            }
        }
    }

    /// Folds a whole histogram into the named one, as if each of its
    /// samples had been observed here. An empty histogram adds no name.
    pub fn merge_histogram(&mut self, name: &str, other: &Log2Histogram) {
        if other.count == 0 {
            return;
        }
        match self.histograms.get_mut(name) {
            Some(h) => h.merge(other),
            None => {
                self.histograms.insert(name.to_owned(), *other);
            }
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
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Immutable, serializable view of a registry at one instant.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Log₂ histogram snapshots by name.
    pub histograms: BTreeMap<String, Log2HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The snapshot without its wall-clock counters and histograms
    /// (names ending in `_ns`): what is left depends on the run's
    /// inputs alone, so committed artifacts and triage bundles are
    /// byte-identical run to run.
    #[must_use]
    pub fn without_wall_clock(mut self) -> MetricsSnapshot {
        self.counters.retain(|name, _| !name.ends_with("_ns"));
        self.histograms.retain(|name, _| !name.ends_with("_ns"));
        self
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counters:")?;
        for (name, v) in &self.counters {
            writeln!(f, "  {name:<32} {v}")?;
        }
        writeln!(f, "gauges:")?;
        for (name, v) in &self.gauges {
            writeln!(f, "  {name:<32} {v:.4}")?;
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

/// Number of log₂ buckets: bucket 0 holds the sample `0`, bucket `k`
/// (1..=64) holds samples with bit length `k`, i.e. the inclusive range
/// `[2^(k-1), 2^k - 1]`.
const LOG2_BUCKETS: usize = 65;

/// A fixed-bucket log₂ histogram: 65 plain `u64` buckets plus exact
/// count/sum/min/max. It is fixed-size and allocation-free to record
/// into, so a [`MetricsRegistry`] histogram's memory does not grow with
/// the run. Percentiles are bucket upper bounds (clamped to the max);
/// count, sum, min, max and mean stay exact.
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

    /// The inclusive sample range `[lo, hi]` covered by a bucket index.
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

    /// Folds another histogram's samples into this one: the result is
    /// the histogram that would have recorded both sample streams.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets) {
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
        // 5 lands in the [4, 7] bucket; the median reports its bound.
        assert_eq!(h.p50, 7);
        assert!((h.mean - 5.0).abs() < 1e-9);
        assert!(h.p90 >= h.p50 && h.p99 >= h.p90);
    }

    #[test]
    fn snapshot_serializes_and_displays() {
        let mut m = MetricsRegistry::new();
        m.incr("frames");
        m.set_gauge("ratio", 0.5);
        m.observe("lat", 4);
        m.add("span.fork_ns", 1_234);
        m.observe("decision_ns", 900);
        let snap = m.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let text = snap.to_string();
        assert!(text.contains("frames"));
        assert!(text.contains("0.5000"));
        assert!(text.contains("n=1"));
        // Wall-clock `*_ns` counters and histograms drop; the rest stay.
        let kept = snap.without_wall_clock();
        assert_eq!(kept.counters.keys().collect::<Vec<_>>(), ["frames"]);
        assert_eq!(kept.histograms.keys().collect::<Vec<_>>(), ["lat"]);
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
    fn merged_histograms_equal_one_recording_of_both_streams() {
        let (left, right) = ([0u64, 5, 9, 1 << 40], [3u64, 5, 700]);
        let mut both = Log2Histogram::new();
        let (mut a, mut b) = (Log2Histogram::new(), Log2Histogram::new());
        for s in left {
            a.record(s);
            both.record(s);
        }
        for s in right {
            b.record(s);
            both.record(s);
        }
        a.merge(&b);
        assert_eq!(a, both);
        // Merging an empty histogram changes nothing, either way round.
        let mut empty = Log2Histogram::new();
        empty.merge(&both);
        assert_eq!(empty, both);
        both.merge(&Log2Histogram::new());
        assert_eq!(empty, both);

        let mut m = MetricsRegistry::new();
        m.merge_histogram("lat", &Log2Histogram::new());
        assert!(m.snapshot().histograms.is_empty());
        m.observe("lat", 4);
        m.merge_histogram("lat", &both);
        assert_eq!(m.snapshot().histograms["lat"].count, both.count() + 1);
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
}
