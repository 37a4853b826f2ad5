//! Experiment: state-space exploration cost of the bounded model
//! checker — the seed replay engine vs. the prefix-sharing,
//! work-stealing tree walk.
//!
//! For each case this harness reports the size of the bounded schedule
//! space, how many trie nodes the walk actually simulates (explored vs.
//! elided-as-no-op), the frames simulated by each engine, and measured
//! throughput — then cross-checks that every engine reaches the same
//! verdict. The headline case runs the extended four-app UAV
//! specification to horizon 30 with up to three environment changes
//! (151,879 schedules), which the seed engine has no hope of covering
//! interactively.
//!
//! Each case also runs with the certified partial-order reduction on
//! ([`ModelChecker::with_por`]): choice-equivalence merging plus
//! quiescent-state fingerprint dedup, cross-checked against the plain
//! walk's verdict and against the accounting invariant
//! `run + elided + merged = total`. The content-hashed
//! [`IndependenceCertificate`] artifacts CI gates on are regenerated
//! into `results/independence_{avionics,extended}.json`.
//!
//! A second sweep runs every known-bad SCRAM mutation against the
//! avionics specification: each must fail the check, and the flight
//! recorder's shrunk, replayed counterexample is written to
//! `results/counterexample_<slug>.json` (render with `arfs-trace
//! explain`). The walk profiler's span timings and per-worker
//! steal/run/elide counters land in `BENCH_model_check.json` alongside
//! the throughput numbers.
//!
//! The harness also measures the substrate fork cost directly — the
//! price the prefix-sharing walk pays at every branch point, on a
//! system carrying 200 frames of history the way the checker builds
//! them — and compares it, and the headline case's POR wallclock, with
//! the numbers recorded in `results/BENCH_model_check.json` by the last
//! run. The ratios are printed and recorded but decide nothing: that
//! artifact may come from another host.
//!
//! Small cases are timed in five interleaved rounds (walk, POR, seed)
//! and report medians; larger cases run once.
//!
//! Usage: `exp_statespace [--smoke]` — `--smoke` runs only the small
//! cross-checked cases plus the mutant sweep (the CI entry point). A
//! smoke run rewrites the deterministic certificates and counterexamples
//! but leaves the committed full-run `BENCH_model_check.json` alone, so
//! the tree stays clean and the next full run compares against
//! full-run numbers.
//!
//! Exit codes: `0` all verdicts pass, `1` a verification or agreement
//! check failed, `3` a walk regression: on the `avionics_h14_e1` guard
//! case the median walk lost to the median seed engine by more than the
//! guard band plus the rounds' interquartile range.

use std::time::Instant;

use arfs_avionics::{known_bad_mutations, KNOWN_BAD_HORIZON};
use arfs_bench::{
    banner, median_iqr, prior_artifact, prior_case_f64, verdict, write_full_run_artifact,
    write_json, write_text, TextTable,
};
use arfs_core::lint::IndependenceCertificate;
use arfs_core::model::ModelChecker;
use arfs_core::scram::KernelConfig;
use arfs_core::spec::ReconfigSpec;
use arfs_core::system::System;

/// The small case the walk must never lose to the seed engine on: a
/// walk regression here fails the run with exit code 3.
const GUARD_CASE: &str = "avionics_h14_e1";

/// How badly the median walk must lose on [`GUARD_CASE`] before the
/// guard fires: a ratio band and an absolute floor, widened by the
/// rounds' interquartile range, because the case completes in ~0.5 ms
/// and a raw `walk > seed` comparison flips on scheduler noise a few
/// microseconds wide. The regression this guard exists for — the
/// work-stealing pool setup dominating tiny spaces before the
/// `SERIAL_CUTOVER` fast path — was a multiple-of-seed,
/// milliseconds-scale loss, comfortably past both thresholds.
const GUARD_RATIO: f64 = 1.5;
const GUARD_FLOOR_SECS: f64 = 500e-6;

/// The case whose POR wallclock is compared with the previous artifact.
const REGRESSION_CASE: &str = "exhaustive_h30_e3_extended";

/// Times one run of `f`, appending the wall-clock seconds to `samples`.
fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let value = f();
    samples.push(t0.elapsed().as_secs_f64());
    value
}

/// Measures the substrate fork cost the walk pays at every branch
/// point, in nanoseconds: a system built the way the checker builds
/// them (observability off) carrying 200 frames of history including
/// several reconfigurations. With copy-on-write substrate state this
/// must stay flat as history accumulates; a deep-copy regression shows
/// up here first and linearly.
fn measure_fork_cost_ns() -> f64 {
    let spec = arfs_avionics::avionics_spec().expect("valid spec");
    let mut system = System::builder(spec)
        .observability(false)
        .build()
        .expect("builds");
    let values = ["both", "one", "battery", "one"];
    let mut level = 0;
    for f in 0..200u64 {
        if f % 25 == 24 {
            level = (level + 1) % values.len();
            system
                .set_env("electrical", values[level])
                .expect("known factor");
        }
        system.run_frame();
    }
    for _ in 0..500 {
        std::hint::black_box(system.fork());
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let rounds = 2_000u32;
        let t0 = Instant::now();
        for _ in 0..rounds {
            std::hint::black_box(system.fork());
        }
        best = best.min(t0.elapsed().as_secs_f64() / rounds as f64);
    }
    best * 1e9
}

struct CaseSpec {
    name: &'static str,
    spec: ReconfigSpec,
    horizon: u64,
    max_events: usize,
    /// Whether to time the seed replay engine too (skipped for the
    /// headline case, where replaying every schedule is the point of
    /// not having to).
    run_reference: bool,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let threads = std::thread::available_parallelism()
        .map(Into::into)
        .unwrap_or(4);
    banner(if smoke {
        "state-space exploration: engine comparison (smoke)"
    } else {
        "state-space exploration: engine comparison"
    });

    let avionics = arfs_avionics::avionics_spec().expect("valid spec");
    let extended = arfs_avionics::extended::extended_uav_spec().expect("valid spec");

    // Regenerate the independence certificates CI gates on
    // (`arfs-lint independence <spec> --check results/...`).
    banner("independence certificates");
    let mut certificates = Vec::new();
    for (slug, spec) in [("avionics", &avionics), ("extended", &extended)] {
        let cert = IndependenceCertificate::build(spec);
        let path = write_json(&format!("independence_{slug}.json"), &cert);
        println!(
            "{slug}: spec {} ({} commuting pairs) -> {}",
            cert.spec_hash,
            cert.commuting_pairs.len(),
            path.display()
        );
        certificates.push(serde_json::json!({
            "spec": slug,
            "spec_hash": cert.spec_hash,
            "commuting_pairs": cert.commuting_pairs.len(),
            "artifact": path.display().to_string(),
        }));
    }

    let mut cases = vec![
        CaseSpec {
            name: "avionics_h14_e1",
            spec: avionics.clone(),
            horizon: 14,
            max_events: 1,
            run_reference: true,
        },
        CaseSpec {
            name: "avionics_h16_e2",
            spec: avionics.clone(),
            horizon: 16,
            max_events: 2,
            run_reference: true,
        },
    ];
    if !smoke {
        cases.push(CaseSpec {
            name: "avionics_h22_e2",
            spec: avionics,
            horizon: 22,
            max_events: 2,
            run_reference: true,
        });
        cases.push(CaseSpec {
            name: "exhaustive_h30_e3_extended",
            spec: extended.clone(),
            horizon: 30,
            max_events: 3,
            run_reference: false,
        });
        // The horizon the cheap forks and busy-state merging buy:
        // exhaustive coverage of the four-app UAV spec to 50 frames.
        cases.push(CaseSpec {
            name: "exhaustive_h50_e3_extended",
            spec: extended,
            horizon: 50,
            max_events: 3,
            run_reference: false,
        });
    }

    let mut table = TextTable::new([
        "case",
        "schedules",
        "explored",
        "elided",
        "merged",
        "walk s",
        "por s",
        "seed s",
        "speedup",
        "por gain",
    ]);
    let mut artifacts = Vec::new();
    let mut all_passed = true;
    let mut engines_agree = true;
    let mut guard_regressed = false;
    let mut headline_por_secs = None;

    for case in &cases {
        let mc = ModelChecker::new(case.spec.clone(), case.horizon, case.max_events);
        let total = mc.total_schedule_count();

        // Small cases finish in microseconds: five interleaved rounds
        // of every engine give medians that share the host's phases
        // (and the h14/e1 guard below compares those medians).
        let rounds = if total < 1_000 { 5 } else { 1 };
        // The same space under certified partial-order reduction:
        // choice-equivalence merging + quiescent fingerprint dedup.
        let por_mc = ModelChecker::new(case.spec.clone(), case.horizon, case.max_events).with_por();
        let (mut walk_t, mut por_t, mut seed_t) = (Vec::new(), Vec::new(), Vec::new());
        let mut last = None;
        for _ in 0..rounds {
            let parallel = timed(&mut walk_t, || mc.run_parallel(threads));
            let por = timed(&mut por_t, || por_mc.run_parallel(threads));
            let reference = case
                .run_reference
                .then(|| timed(&mut seed_t, || mc.run_reference()));
            last = Some((parallel, por, reference));
        }
        let (parallel, por, reference) = last.expect("at least one round");
        let (walk_secs, walk_iqr) = median_iqr(&walk_t);
        let (por_secs, _) = median_iqr(&por_t);
        if case.name == REGRESSION_CASE {
            headline_por_secs = Some(por_secs);
        }
        all_passed &= parallel.all_passed();
        all_passed &= por.all_passed();
        engines_agree &= por.all_passed() == parallel.all_passed();
        engines_agree &= por.cases_run + por.cases_elided + por.cases_merged == total;

        // The true seed engine replayed every schedule — elision is an
        // optimization of this PR — so its work is total × horizon
        // frames regardless of which engine stands in for it here.
        let seed_equiv_frames = (total as u64) * case.horizon;
        let (seed_secs, speedup) = if let Some(reference) = reference {
            let (secs, seed_iqr) = median_iqr(&seed_t);
            engines_agree &= reference == parallel;
            engines_agree &= reference.all_passed() == por.all_passed();
            let band = walk_iqr.max(seed_iqr);
            if case.name == GUARD_CASE
                && walk_secs > secs * GUARD_RATIO + band
                && walk_secs - secs > GUARD_FLOOR_SECS + band
            {
                guard_regressed = true;
            }
            (Some(secs), Some(secs / walk_secs))
        } else {
            (None, None)
        };

        table.row([
            case.name.to_string(),
            total.to_string(),
            parallel.cases_run.to_string(),
            parallel.cases_elided.to_string(),
            por.cases_merged.to_string(),
            format!("{walk_secs:.3}"),
            format!("{por_secs:.3}"),
            seed_secs.map_or("-".into(), |s| format!("{s:.3}")),
            speedup.map_or("-".into(), |s| format!("{s:.1}x")),
            format!("{:.1}x", walk_secs / por_secs.max(1e-9)),
        ]);
        artifacts.push(serde_json::json!({
            "case": case.name,
            "horizon": case.horizon,
            "max_events": case.max_events,
            "threads": threads,
            "schedules_total": total,
            "trie_nodes": parallel.cases_run,
            "cases_elided": parallel.cases_elided,
            "frames_walk": parallel.frames_simulated,
            "frames_seed_equivalent": seed_equiv_frames,
            "frame_reduction": seed_equiv_frames as f64 / parallel.frames_simulated.max(1) as f64,
            "walk_secs": walk_secs,
            "walk_cases_per_sec": total as f64 / walk_secs.max(1e-9),
            "seed_secs": seed_secs,
            "seed_cases_per_sec": seed_secs.map(|s| total as f64 / s.max(1e-9)),
            "speedup_wallclock": speedup,
            "por_cases_run": por.cases_run,
            "por_cases_merged": por.cases_merged,
            "por_frames_walk": por.frames_simulated,
            "por_secs": por_secs,
            "por_gain_wallclock": walk_secs / por_secs.max(1e-9),
            "all_passed": parallel.all_passed(),
            "profile": parallel.metrics,
            "por_profile": por.metrics,
        }));
        println!(
            "{}: {} ({} frames, {:.3}s walk / {:.3}s por, {} threads)",
            case.name, por, parallel.frames_simulated, walk_secs, por_secs, threads
        );
    }

    println!("\n{table}");
    verdict("SP1-SP4 hold on every explored schedule", all_passed);
    verdict(
        "walk, POR, and seed engines report identical outcomes",
        engines_agree,
    );
    verdict(
        &format!("walk within noise band of the seed engine on {GUARD_CASE}"),
        !guard_regressed,
    );

    // The verification-of-the-verifier sweep: every known-bad mutation
    // must fail the check, and each failure's flight-recorder artifact
    // goes to `results/counterexample_<slug>.json`.
    banner("known-bad mutants: counterexample flight recorder");
    let avionics = arfs_avionics::avionics_spec().expect("valid spec");
    let mut mutants = Vec::new();
    let mut all_caught = true;
    for (slug, mutation) in known_bad_mutations() {
        let mc = ModelChecker::new(avionics.clone(), KNOWN_BAD_HORIZON, 1)
            .with_kernel(KernelConfig {
                mutation: Some(mutation.clone()),
                ..KernelConfig::default()
            })
            .expect("valid kernel config");
        let t0 = Instant::now();
        let report = mc.run_parallel(threads);
        let secs = t0.elapsed().as_secs_f64();
        let caught = !report.all_passed();
        all_caught &= caught;
        let artifact = report.counterexample.as_ref().map(|ce| {
            let path = write_text(&format!("counterexample_{slug}.json"), &ce.to_json_pretty());
            println!(
                "{slug}: {} -> minimized `{}` ({} shrink steps, chain ends @{:?}) -> {}",
                report.failures.len(),
                ce.minimized.events_line(),
                ce.shrink_steps.len(),
                ce.violating_frame(),
                path.display()
            );
            path.display().to_string()
        });
        if artifact.is_none() {
            println!("{slug}: NOT CAUGHT ({report})");
        }
        mutants.push(serde_json::json!({
            "mutant": slug,
            "mutation": format!("{mutation:?}"),
            "horizon": KNOWN_BAD_HORIZON,
            "caught": caught,
            "failures": report.failures.len(),
            "shrink_steps": report.counterexample.as_ref().map(|ce| ce.shrink_steps.len()),
            "minimized_events": report.counterexample.as_ref().map(|ce| ce.minimized.events().len()),
            "violating_frame": report.counterexample.as_ref().and_then(|ce| ce.violating_frame()),
            "counterexample_artifact": artifact,
            "check_secs": secs,
            "profile": report.metrics,
        }));
    }
    verdict(
        "every known-bad mutant caught with a counterexample artifact",
        all_caught,
    );

    // --- Comparison with the previous artifact. ---
    // Two wallclock numbers the COW substrate is responsible for: the
    // per-branch fork cost, and the headline case's end-to-end POR
    // time. Their ratios to the last recorded run are printed and
    // recorded, never an exit code: the artifact may have been recorded
    // on another host.
    banner("previous-artifact comparison (informational)");
    let prior = prior_artifact("BENCH_model_check.json");
    let fork_cost_ns = measure_fork_cost_ns();
    println!("substrate fork: {fork_cost_ns:.0} ns (200-frame history, observability off)");
    let fork_vs_prior = prior
        .as_ref()
        .and_then(|p| p.get("fork_cost_ns")?.as_f64())
        .map(|prev| {
            println!("fork cost {fork_cost_ns:.0} ns vs recorded {prev:.0} ns");
            fork_cost_ns / prev
        });
    let por_vs_prior = headline_por_secs
        .zip(
            prior
                .as_ref()
                .and_then(|p| prior_case_f64(p, REGRESSION_CASE, "por_secs")),
        )
        .map(|(new_secs, prev)| {
            println!("{REGRESSION_CASE} POR {new_secs:.3}s vs recorded {prev:.3}s");
            new_secs / prev
        });

    write_full_run_artifact(
        "BENCH_model_check.json",
        &serde_json::json!({
            "experiment": "exp_statespace",
            "smoke": smoke,
            "threads": threads,
            "fork_cost_ns": fork_cost_ns,
            "fork_cost_vs_prior": fork_vs_prior,
            "headline_por_vs_prior": por_vs_prior,
            "certificates": certificates,
            "cases": artifacts,
            "mutants": mutants,
        }),
        smoke,
    );

    if !(all_passed && engines_agree && all_caught) {
        std::process::exit(1);
    }
    if guard_regressed {
        std::process::exit(3);
    }
}
