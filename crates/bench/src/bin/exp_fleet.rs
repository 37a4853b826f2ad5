//! Experiment: fleet-scale simulation throughput — 10³/10⁴/10⁵
//! independent avionics systems, each shard run to completion, with
//! streaming SP1–SP4 verification, sampled per-cell journaling, and
//! the allocation-free steady-state fast path.
//!
//! Five sweeps:
//!
//! 1. **Fleet size** — 10³ and 10⁴ systems (plus 10⁵ in the full run)
//!    under the default random workload, reporting frames/sec,
//!    frames/sec/core, reconfigurations, and the streaming verification
//!    verdict. Every violation would carry its seed and schedule for
//!    replay; a clean fleet is the expected outcome. Throughput divides
//!    by the **frame-loop** seconds only ([`Fleet::run_timed`]); the
//!    journal assembly and aggregation get their own columns in the
//!    artifact instead of silently deflating frames/sec.
//! 2. **Thread scaling** — the 10⁴ fleet at 1/2/4/8 workers, reporting
//!    parallel efficiency against the single-threaded run. The host's
//!    core count is recorded in the artifact: on a single-core container
//!    the extra workers only add thread overhead and the honest
//!    efficiency numbers show exactly that.
//! 3. **Observability overhead** — the 10⁴ fleet with everything off
//!    (no rings, no journal sampling) versus fully instrumented, in
//!    five interleaved off/on pairs. The median per-pair overhead must
//!    stay **under 10%** of fleet throughput, give or take the pairs'
//!    interquartile range; the gate fails the run (exit 3) otherwise.
//! 4. **Forced-violation triage** — one system of the 10⁴ fleet is
//!    seeded with a skip-Init SCRAM defect; the streaming verifier
//!    must flag it and its flight ring must drain into a
//!    `results/triage_forced.json` bundle that `arfs-trace fleet
//!    triage` renders. The sampled binary journal of the sweep-1 10⁴
//!    run lands next to it as `results/exp_fleet.journal.bin`.
//! 5. **Allocation probe** — this binary installs a counting global
//!    allocator and measures heap allocations per steady-state frame on
//!    a warmed-up quiet fleet *with flight rings enabled*. The fast
//!    path's contract is **zero**; the measured number is recorded and
//!    gated.
//!
//! The 10⁴ fleet's frames/sec is compared with the previous artifact
//! (`results/BENCH_fleet.json`) and the ratio is printed and recorded,
//! but it decides nothing: that artifact may come from another host. A
//! nonzero allocation probe fails the run.
//!
//! Usage: `exp_fleet [--smoke]` — `--smoke` drops the 10⁵ case and
//! trims the thread sweep (the CI entry point).
//!
//! Exit codes: `0` clean, `1` an unexpected property violation, a
//! missing forced-violation bundle, or a non-zero allocation count,
//! `3` a median observability overhead above 10% by more than its
//! interquartile range.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use arfs_avionics::avionics_spec;
use arfs_bench::{banner, median_iqr, verdict, write_json, TextTable};
use arfs_core::fleet::{Fleet, FleetConfig, FleetReport, FleetTimings};
use arfs_core::scram::ScramMutation;
use arfs_core::spec::ReconfigSpec;
use arfs_core::workload::WorkloadConfig;

/// Counts every allocation and reallocation; the per-frame delta on a
/// warmed-up quiet fleet is the number the fast path promises is zero.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The case whose throughput is compared with the previous artifact.
const REGRESSION_CASE: &str = "fleet_10k";

const MASTER_SEED: u64 = 0xF1EE7;

/// Full observability (rings + sampled journaling + metrics) may cost at
/// most this median fraction of obs-off fleet throughput, beyond the
/// measured interquartile range, before the overhead gate fails the run
/// with exit code 3.
const OBS_OVERHEAD_BUDGET: f64 = 0.10;

/// Interleaved obs-off/obs-on pairs behind the overhead gate.
const OBS_PAIRS: usize = 5;

/// The system seeded with the SCRAM defect in the forced-violation
/// triage sweep (arbitrary mid-fleet id; determinism pins its seed).
const MUTATED_SYSTEM: usize = 4_242;

/// The previous run's artifact, if one exists and still parses.
fn prior_artifact() -> Option<serde_json::Value> {
    let path = arfs_bench::results_dir().join("BENCH_fleet.json");
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

fn prior_case_f64(prior: &serde_json::Value, case: &str, key: &str) -> Option<f64> {
    prior
        .get("cases")?
        .as_seq()?
        .iter()
        .find(|c| c.get("case").and_then(|v| v.as_str()) == Some(case))?
        .get(key)?
        .as_f64()
}

fn fleet_config(systems: usize, threads: usize) -> FleetConfig {
    FleetConfig {
        systems,
        threads,
        seed: MASTER_SEED,
        // Journal roughly 100 systems regardless of fleet size.
        journal_sample: (systems / 100).max(1),
        ..FleetConfig::default()
    }
}

struct CaseResult {
    report: FleetReport,
    timings: FleetTimings,
}

impl CaseResult {
    /// Throughput over the frame loop only; journal assembly and
    /// aggregation are reported separately rather than deflating this.
    fn frames_per_sec(&self) -> f64 {
        self.report.total_frames as f64 / self.timings.frame_loop_secs.max(1e-9)
    }
}

fn run_case(spec: &Arc<ReconfigSpec>, config: FleetConfig) -> CaseResult {
    let mut fleet = Fleet::new(Arc::clone(spec), config).expect("fleet builds");
    let (report, timings) = fleet.run_timed().expect("an in-memory journal never fails");
    CaseResult { report, timings }
}

/// Measures heap allocations per steady-state frame: a quiet 256-system
/// fleet, warmed past any initial settling, advanced 64 more
/// frame-major frames under the counting allocator.
fn measure_allocs_per_frame(spec: &Arc<ReconfigSpec>) -> f64 {
    let systems = 256usize;
    let mut fleet = Fleet::new(
        Arc::clone(spec),
        FleetConfig {
            systems,
            workload: None,
            journal_sample: 0,
            ..fleet_config(systems, 1)
        },
    )
    .expect("fleet builds");
    for frame in 0..16u64 {
        fleet.advance_frame(frame);
    }
    let frames = 64u64;
    let before = ALLOCS.load(Ordering::Relaxed);
    for frame in 16..16 + frames {
        fleet.advance_frame(frame);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    (after - before) as f64 / (frames * systems as u64) as f64
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cores: usize = std::thread::available_parallelism()
        .map(Into::into)
        .unwrap_or(1);
    banner(if smoke {
        "fleet-scale simulation (smoke)"
    } else {
        "fleet-scale simulation"
    });
    println!("host cores: {cores}");

    let spec = Arc::new(avionics_spec().expect("valid spec"));
    let prior = prior_artifact();

    // Untimed warm-up: grow the allocator arena past a 10⁴-system
    // footprint (systems, rings, journals) so the timed sweeps measure
    // frame work, not first-touch page faults.
    {
        let config = FleetConfig {
            horizon: 8,
            workload: Some(WorkloadConfig {
                horizon: 8,
                cooldown: 0,
                ..WorkloadConfig::default()
            }),
            ..fleet_config(10_000, cores.clamp(1, 4))
        };
        Fleet::new(Arc::clone(&spec), config)
            .expect("fleet builds")
            .run()
            .expect("an in-memory journal never fails");
        println!("warm-up: 10k systems x 8 frames (untimed)");
    }

    // --- Sweep 1: fleet size. ---
    let sizes: &[(usize, &str)] = if smoke {
        &[(1_000, "fleet_1k"), (10_000, "fleet_10k")]
    } else {
        &[
            (1_000, "fleet_1k"),
            (10_000, "fleet_10k"),
            (100_000, "fleet_100k"),
        ]
    };

    let mut table = TextTable::new([
        "case",
        "systems",
        "frames",
        "fast %",
        "reconfigs",
        "violations",
        "secs",
        "frames/s",
        "frames/s/core",
    ]);
    let mut cases = Vec::new();
    let mut all_clean = true;
    let mut gated_frames_per_sec = None;
    let mut gated_journal = None;

    for &(systems, name) in sizes {
        let threads = cores.clamp(1, 4);
        let result = run_case(&spec, fleet_config(systems, threads));
        let report = &result.report;
        all_clean &= report.is_clean();
        for v in report.violations.iter().take(3) {
            println!(
                "VIOLATION {name}: system {} seed {:#x} {} @{:?}: {}",
                v.system, v.seed, v.property, v.frame, v.detail
            );
        }
        let frames_per_sec = result.frames_per_sec();
        if name == REGRESSION_CASE {
            gated_frames_per_sec = Some(frames_per_sec);
            gated_journal = Some(report.journal.as_slice().to_vec());
        }
        table.row([
            name.to_string(),
            systems.to_string(),
            report.total_frames.to_string(),
            format!(
                "{:.1}",
                100.0 * report.fast_frames as f64 / report.total_frames.max(1) as f64
            ),
            report.reconfigs.to_string(),
            report.violations.len().to_string(),
            format!("{:.2}", result.timings.frame_loop_secs),
            format!("{frames_per_sec:.0}"),
            format!("{:.0}", frames_per_sec / cores as f64),
        ]);
        cases.push(serde_json::json!({
            "case": name,
            "systems": systems,
            "horizon": report.horizon,
            "threads": threads,
            "frames_total": report.total_frames,
            "frames_fast": report.fast_frames,
            "frames_full": report.full_frames,
            "reconfigs": report.reconfigs,
            "restricted_frames": report.restricted_frames,
            "violations": report.violations.len(),
            "journal_events": report.journal_events,
            "journal_bytes": report.journal.len(),
            "secs": result.timings.total_secs(),
            "frame_loop_secs": result.timings.frame_loop_secs,
            "journal_finish_secs": result.timings.journal_finish_secs,
            "aggregate_secs": result.timings.aggregate_secs,
            "frames_per_sec": frames_per_sec,
            "frames_per_sec_per_core": frames_per_sec / cores as f64,
            "metrics": report.metrics,
            "rollup": report.rollup_metrics(&result.timings, cores).snapshot(),
        }));
        println!(
            "{name}: {} systems x {} frames in {:.2}s frame loop + {:.2}s journal/aggregate \
             ({:.0} frames/s), {} reconfigs, {} violations",
            systems,
            report.horizon,
            result.timings.frame_loop_secs,
            result.timings.journal_finish_secs + result.timings.aggregate_secs,
            frames_per_sec,
            report.reconfigs,
            report.violations.len()
        );
    }
    println!("\n{table}");

    // --- Sweep 2: thread scaling at 10⁴ systems. ---
    banner("thread scaling (10^4 systems)");
    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let mut scaling_table =
        TextTable::new(["threads", "secs", "frames/s", "speedup", "efficiency"]);
    let mut scaling = Vec::new();
    let mut base_secs = None;
    for &threads in thread_counts {
        let result = run_case(&spec, fleet_config(10_000, threads));
        all_clean &= result.report.is_clean();
        let fps = result.frames_per_sec();
        let secs = result.timings.frame_loop_secs;
        let base = *base_secs.get_or_insert(secs);
        let speedup = base / secs.max(1e-9);
        scaling_table.row([
            threads.to_string(),
            format!("{secs:.2}"),
            format!("{fps:.0}"),
            format!("{speedup:.2}x"),
            format!("{:.0}%", 100.0 * speedup / threads as f64),
        ]);
        scaling.push(serde_json::json!({
            "threads": threads,
            "secs": secs,
            "frames_per_sec": fps,
            "speedup": speedup,
            "efficiency": speedup / threads as f64,
        }));
    }
    println!("{scaling_table}");
    if cores < 8 {
        println!("note: host has {cores} core(s); speedup is bounded by physical parallelism");
    }

    // --- Sweep 3: observability overhead at 10⁴ systems. ---
    // Interleaved off/on pairs: each pair sees the same host phase, so
    // its ratio is an observability cost and not drift, and the gate
    // compares the median pair against the budget with the pairs'
    // interquartile range as the noise band.
    banner("observability overhead (10^4 systems)");
    let threads = cores.clamp(1, 4);
    let mut pairs = Vec::new();
    for _ in 0..OBS_PAIRS {
        let off = run_case(
            &spec,
            FleetConfig {
                journal_sample: 0,
                ring_capacity: 0,
                ..fleet_config(10_000, threads)
            },
        );
        let on = run_case(&spec, fleet_config(10_000, threads));
        all_clean &= off.report.is_clean() && on.report.is_clean();
        pairs.push((off.frames_per_sec(), on.frames_per_sec()));
    }
    let overheads: Vec<f64> = pairs
        .iter()
        .map(|(off, on)| 1.0 - on / off.max(1e-9))
        .collect();
    let (overhead, spread) = median_iqr(&overheads);
    let obs_ok = overhead <= OBS_OVERHEAD_BUDGET + spread;
    for (off, on) in &pairs {
        println!(
            "obs off: {off:.0} frames/s | obs on (rings + journal + metrics): {on:.0} frames/s"
        );
    }
    verdict(
        &format!(
            "full observability costs {:.1}% fleet throughput, median of {OBS_PAIRS} pairs \
             (budget {:.0}% + interquartile range {:.1}%)",
            100.0 * overhead,
            100.0 * OBS_OVERHEAD_BUDGET,
            100.0 * spread
        ),
        obs_ok,
    );
    let obs = serde_json::json!({
        "systems": 10_000,
        "threads": threads,
        "pairs": pairs.iter().map(|(off, on)| serde_json::json!({
            "frames_per_sec_obs_off": off,
            "frames_per_sec_obs_on": on,
        })).collect::<Vec<_>>(),
        "overhead_fraction": overhead,
        "overhead_iqr": spread,
        "budget_fraction": OBS_OVERHEAD_BUDGET,
        "within_budget": obs_ok,
    });

    // --- Sweep 4: forced-violation triage at 10⁴ systems. ---
    banner("forced-violation triage (10^4 systems)");
    let forced = run_case(
        &spec,
        FleetConfig {
            mutate_system: Some((MUTATED_SYSTEM, ScramMutation::SkipInitPhase)),
            ..fleet_config(10_000, threads)
        },
    );
    let caught = forced
        .report
        .violations
        .iter()
        .any(|v| v.system == MUTATED_SYSTEM);
    let bundle = forced.report.bundles.iter().find(|b| {
        b.system == MUTATED_SYSTEM && b.trigger == arfs_core::obs::triage::trigger::STREAM_VERIFIER
    });
    let bundle_renderable =
        bundle.is_some_and(|b| !b.ring.is_empty() && !b.causal_chain.is_empty());
    let mut bundle_path = None;
    if let Some(bundle) = bundle {
        let path = arfs_bench::results_dir().join("triage_forced.json");
        std::fs::write(&path, bundle.to_json()).expect("results dir is writable");
        println!(
            "triage bundle: system {} seed {:#x} frame {:?} -> {}",
            bundle.system,
            bundle.seed,
            bundle.frame,
            path.display()
        );
        bundle_path = Some(path);
    }
    verdict(
        "seeded skip-Init defect caught by the streaming verifier",
        caught,
    );
    verdict(
        "violation drained into a renderable triage bundle (ring + causal chain)",
        bundle_renderable,
    );
    let forced_ok = caught && bundle_renderable;
    let forced_json = serde_json::json!({
        "systems": 10_000,
        "mutated_system": MUTATED_SYSTEM,
        "mutation": "skip-init-phase",
        "violations": forced.report.violations.len(),
        "caught": caught,
        "bundle_renderable": bundle_renderable,
        "bundle": bundle_path.as_ref().map(|p| p.display().to_string()),
    });

    // The sampled binary journal of the instrumented 10⁴ run, for
    // `arfs-trace fleet top` / `summarize` / `decode` downstream.
    let journal_path = arfs_bench::results_dir().join("exp_fleet.journal.bin");
    std::fs::write(&journal_path, gated_journal.expect("fleet_10k always runs"))
        .expect("results dir is writable");
    println!("sampled journal: {}", journal_path.display());

    // --- Sweep 5: allocation probe. ---
    banner("steady-state allocation probe");
    let allocs_per_frame = measure_allocs_per_frame(&spec);
    let alloc_free = allocs_per_frame == 0.0;
    verdict(
        &format!("steady-state frames allocation-free ({allocs_per_frame} allocs/frame)"),
        alloc_free,
    );

    verdict(
        "streaming SP1-SP4 verification clean on every fleet",
        all_clean,
    );

    // --- Comparison with the previous artifact: printed and recorded,
    // never an exit code (it may have been recorded on another host). ---
    banner("previous-artifact comparison (informational)");
    let prior_fps = prior
        .as_ref()
        .and_then(|p| prior_case_f64(p, REGRESSION_CASE, "frames_per_sec"));
    let vs_prior = gated_frames_per_sec.zip(prior_fps).map(|(new_fps, prev)| {
        println!(
            "{REGRESSION_CASE}: {new_fps:.0} frames/s vs recorded {prev:.0} ({:.2}x)",
            new_fps / prev
        );
        new_fps / prev
    });
    if vs_prior.is_none() {
        println!("{REGRESSION_CASE}: no prior recording");
    }

    let path = write_json(
        "BENCH_fleet.json",
        &serde_json::json!({
            "experiment": "exp_fleet",
            "smoke": smoke,
            "cores": cores,
            "allocs_per_frame": allocs_per_frame,
            "cases": cases,
            "scaling": scaling,
            "obs": obs,
            "forced_triage": forced_json,
            "fleet_10k_vs_prior": vs_prior,
        }),
    );
    println!("artifact: {}", path.display());

    if !all_clean || !alloc_free || !forced_ok {
        std::process::exit(1);
    }
    if !obs_ok {
        std::process::exit(3);
    }
}
