//! The arfs benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record <n>
//! ```
//!
//! `--trace 0` repeats the workload's batch for `--seconds` and prints
//! the end-to-end metrics; `--trace 1` repeats the traced run for
//! `--seconds` and prints the per-layer metrics. Either way the last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`.
//! `--record n` prints the outcome digests of fleet inputs `0..n`, the
//! lines of `digests.txt`. See `README.md`.

mod digest;
mod host;
mod spans;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use workloads::{fastest_mean, Workload};

/// End-to-end metrics, printed by every untraced run of every workload.
///
/// `frames_per_s` counts the frames simulated: systems × horizon on the
/// fleet, `frames_simulated` on `verify_extended`. `schedules_per_s`
/// counts stimulus schedules: one per system on the fleet,
/// `total_schedule_count` on `verify_extended`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("frames_per_s", "1/s"),
    ("schedules_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Fewest batches a run measures, however long they take.
const MIN_BATCHES: usize = 3;

/// Throughput and set-up time are the mean of this many fastest samples.
const FASTEST: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn untraced(args: &Args) -> Outcome {
    let started = Instant::now();
    let mut batches = Vec::new();
    let mut failed = 0;
    let mut peak_rss_mb = 0.0;
    while batches.len() < MIN_BATCHES || started.elapsed().as_secs_f64() < args.seconds {
        let batch = workloads::batch(args.workload, args.seed);
        if batches.is_empty() {
            // What one batch needs; later batches only add the
            // allocator's fragmentation, which grows with their number.
            peak_rss_mb = host::peak_rss_mb();
        }
        eprintln!(
            "batch {}: setup {:.6} s, run {:.6} s, check {:?}",
            batches.len(),
            fastest_mean(&batch.setup_s, FASTEST),
            batch.run_s,
            batch.check
        );
        if batch.check.is_err() {
            failed += 1;
        }
        batches.push(batch);
    }
    // The host moves between speed levels every few seconds, and a
    // slowdown only ever lengthens a batch: the fastest batches are what
    // the code costs when the host is least disturbed, and they are
    // steady where a median or a pooled rate follows the levels' shares.
    // The same holds for set-ups.
    let run_s = fastest_mean(
        &batches.iter().map(|b| b.run_s).collect::<Vec<_>>(),
        FASTEST,
    );
    let first = &batches[0];
    let setup: Vec<f64> = batches
        .iter()
        .flat_map(|b| b.setup_s.iter().copied())
        .collect();
    let values = [
        first.frames / run_s,
        first.schedules / run_s,
        fastest_mean(&setup, FASTEST),
        peak_rss_mb,
    ];
    Outcome {
        attempted: batches.len() as u64,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect(),
    }
}

/// Repeats the traced run until `--seconds` have passed. Counts repeat
/// exactly; each metric is the median over the repetitions.
fn traced(args: &Args) -> Outcome {
    let started = Instant::now();
    let mut runs: Vec<Outcome> = Vec::new();
    while runs.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        runs.push(traced::run(args.workload, args.seed));
    }
    let metrics = runs[0]
        .metrics
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let mut values: Vec<f64> = runs.iter().map(|r| r.metrics[i].1).collect();
            values.sort_by(f64::total_cmp);
            (name, values[values.len() / 2], unit)
        })
        .collect();
    Outcome {
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        metrics,
    }
}

fn record(n: u64) {
    for w in [Workload::FleetSteady, Workload::FleetChurn] {
        for seed in 0..n {
            let (_, outcome) = workloads::fleet_batch(w, seed, 1);
            let (report, _) = outcome.expect("fleet run succeeds");
            let digest = digest::Outcome::of(&report).digest();
            println!("{}", digest::record_line(w.name(), seed, digest));
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record") {
        match argv.get(1).and_then(|n| n.parse().ok()) {
            Some(n) => {
                record(n);
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!("usage: perfbench --record <n>");
                return ExitCode::from(2);
            }
        }
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let host = host::HostSample::now();
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("host: {}", host.record_since());
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_listed_in_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let names = END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .chain(traced::PER_LAYER.iter().map(|(n, _)| *n));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let line = Outcome {
            attempted: 3,
            failed: 1,
            metrics: vec![("setup_s", 0.25, "s")],
        }
        .json();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn args_parse_the_documented_command_line() {
        let argv: Vec<String> = "--workload fleet_churn --seed 7 --seconds 12 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload, Workload::FleetChurn);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 12.0, true));
        assert!(parse_args(&["--workload".to_owned(), "nope".to_owned()]).is_err());
    }
}
