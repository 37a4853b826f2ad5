//! Output check for the fleet workloads: a digest of the simulated
//! outcome, compared with the digest recorded for the same workload and
//! seed in `digests.txt`.
//!
//! The digest covers what the simulation decided: reconfigurations,
//! restricted frames, the reconfiguration-latency histogram, the
//! histogram of each system's restricted-frame share (so that moving
//! restricted frames between systems shows), and every violation by
//! system, property and frame. Engine-internal counts (the
//! fast/full split, journal size) are left out, so an optimisation that
//! legitimately moves them does not read as a wrong output.

use arfs_core::fleet::FleetReport;
use arfs_core::obs::Log2HistogramSnapshot;

/// The recorded digests: one `workload seed digest` line each.
const RECORDED: &str = include_str!("../digests.txt");

/// The parts of a fleet run's outcome the check covers.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub reconfigs: u64,
    pub restricted_frames: u64,
    /// Reconfiguration latency in cycles, one sample per reconfiguration.
    pub latency: Histogram,
    /// Restricted-frame share in basis points, one sample per system.
    pub restricted_share: Histogram,
    /// `(system, property, frame)` of every violation, in report order.
    pub violations: Vec<(usize, String, Option<u64>)>,
}

impl Outcome {
    pub fn of(report: &FleetReport) -> Outcome {
        let histogram = |name: &str| {
            Histogram::of(
                &report
                    .metrics
                    .histograms
                    .get(name)
                    .cloned()
                    .unwrap_or_default(),
            )
        };
        Outcome {
            reconfigs: report.reconfigs,
            restricted_frames: report.restricted_frames,
            latency: histogram("fleet.reconfig_latency_cycles"),
            restricted_share: histogram("fleet.restricted_frame_bp"),
            violations: report
                .violations
                .iter()
                .map(|v| (v.system, v.property.clone(), v.frame))
                .collect(),
        }
    }

    /// FNV-1a over a canonical encoding of every field.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(self.reconfigs);
        h.u64(self.restricted_frames);
        self.latency.hash(&mut h);
        self.restricted_share.hash(&mut h);
        h.u64(self.violations.len() as u64);
        for (system, property, frame) in &self.violations {
            h.u64(*system as u64);
            h.u64(property.len() as u64);
            h.bytes(property.as_bytes());
            h.u64(frame.map_or(u64::MAX, |f| f));
        }
        h.0
    }
}

/// A log2 histogram as the check sees it: `(lo, count)` of every
/// non-empty bucket, plus the exact sample count and sum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    pub buckets: Vec<(u64, u64)>,
    pub count: u64,
    pub sum: u64,
}

impl Histogram {
    fn of(h: &Log2HistogramSnapshot) -> Histogram {
        Histogram {
            buckets: h.buckets.iter().map(|b| (b.lo, b.count)).collect(),
            count: h.count,
            sum: h.sum,
        }
    }

    fn hash(&self, h: &mut Fnv) {
        h.u64(self.count);
        h.u64(self.sum);
        h.u64(self.buckets.len() as u64);
        for &(lo, count) in &self.buckets {
            h.u64(lo);
            h.u64(count);
        }
    }
}

#[derive(Debug)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The digest recorded for `(workload, seed)` in `table`, if any.
pub fn recorded_in(table: &str, workload: &str, seed: u64) -> Option<u64> {
    table.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Checks `digest` against the recorded table.
///
/// # Errors
///
/// Describes the mismatch, or the missing record.
pub fn check(workload: &str, seed: u64, digest: u64) -> Result<(), String> {
    check_in(RECORDED, workload, seed, digest)
}

fn check_in(table: &str, workload: &str, seed: u64, digest: u64) -> Result<(), String> {
    match recorded_in(table, workload, seed) {
        Some(expected) if expected == digest => Ok(()),
        Some(expected) => Err(format!(
            "{workload} seed {seed}: outcome digest {digest:016x}, recorded {expected:016x}"
        )),
        None => Err(format!("{workload} seed {seed}: no recorded digest")),
    }
}

/// One line of `digests.txt`.
pub fn record_line(workload: &str, seed: u64, digest: u64) -> String {
    format!("{workload} {seed} {digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            reconfigs: 12,
            restricted_frames: 40,
            latency: Histogram {
                buckets: vec![(2, 3), (4, 9)],
                count: 12,
                sum: 50,
            },
            restricted_share: Histogram {
                buckets: vec![(64, 1), (128, 2)],
                count: 3,
                sum: 400,
            },
            violations: vec![(7, "SP2".to_owned(), Some(33))],
        }
    }

    #[test]
    fn check_accepts_the_recorded_digest_and_rejects_a_perturbed_one() {
        let digest = outcome().digest();
        let table = record_line("fleet_churn", 3, digest);
        assert_eq!(check_in(&table, "fleet_churn", 3, digest), Ok(()));
        assert!(check_in(&table, "fleet_churn", 3, digest ^ 1).is_err());
        assert!(check_in(&table, "fleet_churn", 4, digest).is_err());
        assert!(check_in(&table, "fleet_steady", 3, digest).is_err());
    }

    #[test]
    fn every_covered_field_moves_the_digest() {
        let base = outcome().digest();
        let perturbations: Vec<fn(&mut Outcome)> = vec![
            |o| o.reconfigs += 1,
            |o| o.restricted_frames += 1,
            |o| o.latency.buckets[1].1 += 1,
            |o| o.latency.sum += 1,
            |o| o.restricted_share.buckets[0].0 = 32,
            |o| o.restricted_share.count += 1,
            |o| std::mem::swap(&mut o.latency, &mut o.restricted_share),
            |o| o.violations[0].0 += 1,
            |o| o.violations[0].1 = "SP3".to_owned(),
            |o| o.violations[0].2 = Some(34),
            |o| o.violations[0].2 = None,
            |o| o.violations.clear(),
        ];
        for perturb in perturbations {
            let mut o = outcome();
            perturb(&mut o);
            assert_ne!(o.digest(), base, "{o:?}");
        }
    }

    #[test]
    fn the_recorded_table_parses() {
        for line in RECORDED.lines().filter(|l| !l.trim().is_empty()) {
            let mut f = line.split_whitespace();
            let (w, s) = (f.next().unwrap(), f.next().unwrap().parse().unwrap());
            assert!(recorded_in(RECORDED, w, s).is_some(), "{line}");
        }
    }
}
