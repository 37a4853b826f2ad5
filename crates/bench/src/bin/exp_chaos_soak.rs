//! Chaos soak: randomized substrate fault campaigns with the defenses
//! on, exhaustively property-checked.
//!
//! Three sections:
//!
//! 1. **Seeded random campaigns** — `FaultPlan::random` draws a plan
//!    per seed (torn writes + clock jitter) and the exhaustive model
//!    checker replays it under every enumerated schedule; SP1–SP4 must
//!    hold and every trace must stay live (bounded restricted-frame
//!    ratio — the no-deadlock/no-livelock check).
//! 2. **Bus-silence quarantine** — a persistently silent processor is
//!    converted to explicit fail-stop by the detection window, and the
//!    membership-driven reconfiguration lands in the solo
//!    configuration with all properties intact.
//! 3. **Known-bad fixture** — the same campaign with retry budget 0
//!    must fail, and the flight recorder's jointly shrunk
//!    counterexample must be byte-identical across the serial and
//!    work-stealing engines. The artifact ships for `arfs-trace
//!    explain`.
//!
//! Usage: `exp_chaos_soak [--smoke]` — `--smoke` shrinks the seed
//! count and horizon for CI. Exits 1 if any section fails; exits 3 if
//! the run's defense metrics regressed more than 25% against the prior
//! recorded `BENCH_chaos_soak.json`.

use std::sync::Arc;

use arfs_avionics::{quarantine_spec, three_level_spec};
use arfs_bench::{banner, verdict, write_json, write_text, TextTable};
use arfs_core::assure::{InvariantOracle, OracleProfile};
use arfs_core::chaos::{ChaosDefense, ChaosProfile, FaultKind, FaultPlan};
use arfs_core::model::ModelChecker;
use arfs_core::scenario::Scenario;
use arfs_core::system::System;
use arfs_core::AppId;
use arfs_failstop::ProcessorId;

/// How much a gated defense metric may grow over its previous recording
/// before the run fails with exit code 3.
const REGRESSION_TOLERANCE: f64 = 1.25;

/// The previous run's artifact, if one exists and still parses. Absent
/// or stale-format files are simply "no baseline yet" — the gate only
/// fires when it has a genuine prior number to compare against.
fn prior_artifact() -> Option<serde_json::Value> {
    let path = arfs_bench::results_dir().join("BENCH_chaos_soak.json");
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(if smoke {
        "Experiment E8: substrate chaos soak (smoke)"
    } else {
        "Experiment E8: substrate chaos soak"
    });

    let spec = three_level_spec(1);
    let horizon = 12u64;
    let seeds = if smoke { 6u64 } else { 30u64 };
    let defense = ChaosDefense::default();
    // Torn writes and jitter only: random bus-silence runs on this
    // single-processor spec could quarantine the sole host, which is a
    // hardware-exhaustion scenario, not a protocol one. Bus silence
    // gets its own section below.
    let profile = ChaosProfile {
        bus_silence_permille: 0,
        commit_fault_permille: 80,
        clock_jitter_permille: 60,
        ..ChaosProfile::for_spec(&spec, horizon.saturating_sub(4))
    };

    let mut all_ok = true;

    // Every replayed trace goes through the unified oracle's soak
    // profile: SP1–SP4, the extension checks, the TCC static
    // obligations, and the defense-livelock bound, all in one verdict.
    let soak_oracle = InvariantOracle::new(Arc::new(spec.clone()), OracleProfile::Soak);

    // --- Section 1: seeded random campaigns, defenses on. ---
    let mut table = TextTable::new([
        "seed",
        "faults",
        "schedules",
        "violations",
        "retries",
        "fallbacks",
        "max restricted ratio",
    ]);
    let mut campaigns = Vec::new();
    let mut campaigns_clean = true;
    let mut livelock_free = true;
    let mut total_retries = 0u64;
    let mut global_max_ratio = 0.0f64;
    for seed in 1..=seeds {
        let plan = FaultPlan::random(seed, &profile);
        let mc = ModelChecker::new(spec.clone(), horizon, 1)
            .with_fault_plan(plan.clone())
            .with_flight_recorder(false);
        let report = mc.run();
        let mut retries = 0u64;
        let mut fallbacks = 0u64;
        let mut max_ratio = 0.0f64;
        let mut oracle_violations = 0usize;
        for schedule in mc.schedule_iter() {
            let builder = System::builder(spec.clone())
                .chaos_defense(defense)
                .observability(true);
            let system = mc
                .case(&schedule)
                .run_with(builder)
                .expect("enumerated values are valid");
            retries += system.journal().of_kind("commit-retry").count() as u64;
            fallbacks += system.journal().of_kind("safe-fallback").count() as u64;
            let trace = system.trace();
            let ratio = trace.restricted_frames() as f64 / trace.len() as f64;
            max_ratio = max_ratio.max(ratio);
            oracle_violations += soak_oracle.check(trace).len();
        }
        // No-livelock: restricted frames stay a bounded minority even
        // under retries — a kernel stuck re-halting forever would push
        // the ratio toward 1.
        let live = max_ratio <= 0.6;
        livelock_free &= live;
        campaigns_clean &= report.all_passed() && fallbacks == 0 && oracle_violations == 0;
        total_retries += retries;
        table.row([
            seed.to_string(),
            plan.len().to_string(),
            report.cases_run.to_string(),
            report.failures.len().to_string(),
            retries.to_string(),
            fallbacks.to_string(),
            format!("{max_ratio:.2}"),
        ]);
        campaigns.push(serde_json::json!({
            "seed": seed,
            "faults": plan.len(),
            "plan": plan.to_string(),
            "schedules_run": report.cases_run,
            "violations": report.failures.len(),
            "oracle_violations": oracle_violations,
            "commit_retries": retries,
            "safe_fallbacks": fallbacks,
            "max_restricted_ratio": max_ratio,
        }));
        global_max_ratio = global_max_ratio.max(max_ratio);
    }
    println!("{table}");
    verdict(
        "random campaigns: SP1-SP4 hold, zero fallbacks within budget",
        campaigns_clean,
    );
    verdict(
        "no deadlock/livelock: restricted-frame ratio bounded",
        livelock_free,
    );
    verdict("campaigns exercised the retry path", total_retries > 0);
    all_ok &= campaigns_clean && livelock_free && total_retries > 0;

    // --- Section 2: bus-silence quarantine. ---
    let qspec = quarantine_spec();
    let mut qplan = FaultPlan::new();
    qplan.push(
        2,
        FaultKind::BusSilence {
            processor: ProcessorId::new(1),
            frames: 4,
        },
    );
    let qsystem = Scenario::new("quarantine", 12)
        .with_faults(qplan)
        .run_with(
            System::builder(qspec)
                .chaos_defense(defense)
                .observability(true),
        )
        .expect("validated spec builds");
    let quarantined = qsystem.journal().of_kind("quarantined").count() == 1;
    let landed_solo = qsystem.current_config().to_string() == "solo";
    // Exhaustive profile: the quarantine spec is deliberately one-way
    // (no solo -> full-service transition), so the TCC coverage
    // obligation of the soak profile does not apply to it.
    let qoracle = InvariantOracle::new(qsystem.spec_arc(), OracleProfile::Exhaustive);
    let qreport = qoracle.report(qsystem.trace());
    verdict(
        "silent processor quarantined to fail-stop; membership drove reconfiguration to solo",
        quarantined && landed_solo && qreport.is_ok(),
    );
    all_ok &= quarantined && landed_solo && qreport.is_ok();

    // --- Section 3: known-bad fixture (retry budget 0). ---
    let mut bad_plan = FaultPlan::new();
    bad_plan.push(
        3,
        FaultKind::CommitFault {
            app: AppId::new("a"),
        },
    );
    let bad_defense = ChaosDefense {
        retry_budget_frames: 0,
        ..ChaosDefense::default()
    };
    let mc = ModelChecker::new(spec.clone(), horizon, 1)
        .with_fault_plan(bad_plan.clone())
        .with_chaos_defense(bad_defense);
    let serial = mc.run();
    let parallel = mc.run_parallel(3);
    let serial_ce = serial.counterexample.as_ref();
    let parallel_ce = parallel.counterexample.as_ref();
    let budget0_failed = !serial.all_passed() && serial_ce.is_some();
    let engines_agree = match (serial_ce, parallel_ce) {
        (Some(s), Some(p)) => s.to_json_pretty() == p.to_json_pretty(),
        _ => false,
    };
    verdict("retry budget 0 fails the campaign", budget0_failed);
    verdict(
        "shrunk counterexample byte-identical across serial and work-stealing engines",
        engines_agree,
    );
    all_ok &= budget0_failed && engines_agree;

    let ce_path =
        serial_ce.map(|ce| write_text("counterexample_chaos_budget0.json", &ce.to_json_pretty()));

    // --- Self-regression gate: defense metrics vs the prior artifact.
    // The campaigns are fully deterministic given (smoke, seeds), so
    // any growth is a real behavior change, not noise; the gate only
    // compares recordings of the same shape and tolerates 25% before
    // failing with exit code 3. A missing/unparsable prior (or one
    // recorded at a different scale) just sets a fresh baseline. ---
    banner("soak-regression gate");
    let mut bench_regressed = false;
    let prior = prior_artifact().filter(|p| {
        p.get("smoke").and_then(|v| v.as_bool()) == Some(smoke)
            && p.get("seeds").and_then(|v| v.as_u64()) == Some(seeds)
    });
    let gauges: [(&str, f64); 2] = [
        ("total_commit_retries", total_retries as f64),
        ("max_restricted_ratio", global_max_ratio),
    ];
    for (key, current) in gauges {
        match prior.as_ref().and_then(|p| p.get(key)?.as_f64()) {
            Some(prev) if prev > 0.0 => {
                let ok = current <= prev * REGRESSION_TOLERANCE;
                verdict(
                    &format!("{key} {current:.3} within 25% of recorded {prev:.3}"),
                    ok,
                );
                bench_regressed |= !ok;
            }
            _ => println!("{key}: no prior recording; baseline set at {current:.3}"),
        }
    }

    let artifact = serde_json::json!({
        "smoke": smoke,
        "horizon": horizon,
        "seeds": seeds,
        "total_commit_retries": total_retries,
        "max_restricted_ratio": global_max_ratio,
        "campaigns": campaigns,
        "quarantine": {
            "quarantined": quarantined,
            "landed_solo": landed_solo,
            "properties_ok": qreport.is_ok(),
        },
        "budget0": {
            "failed_as_expected": budget0_failed,
            "engines_byte_identical": engines_agree,
            "minimized_schedule": serial_ce.map(|ce| ce.minimized.to_string()),
            "minimized_fault_plan": serial_ce.map(|ce| ce.minimized_fault_plan.to_string()),
        },
        "all_ok": all_ok,
    });
    let path = write_json("BENCH_chaos_soak.json", &artifact);
    println!("\nartifact: {}", path.display());
    if let Some(ce_path) = ce_path {
        println!("counterexample: {}", ce_path.display());
    }
    if !all_ok {
        std::process::exit(1);
    }
    if bench_regressed {
        std::process::exit(3);
    }
}
