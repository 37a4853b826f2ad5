//! Deterministic-simulation testing: the one harness for seeded cases.
//!
//! Every seeded case is a [`Scenario`] drawn from its seed and goes
//! through one judge step: [`judge`] runs it through
//! [`Scenario::run_with`] and checks the trace with an
//! [`InvariantOracle`]; a violating case is shrunk by
//! [`Scenario::shrink`] against that same oracle ([`minimize`]),
//! recorded in its section's artifact, and fails the run. Each section
//! reads its own table columns off the finished [`System`]:
//!
//! 1. **Failpoint campaigns** (`BENCH_dst.json`, `failpoints` builds
//!    only): stimuli × [`FaultPlan::random`] × [`FailpointPlan::random`]
//!    over [`dst_menu`], the (site, action) pairs the defenses claim to
//!    absorb, under the soak oracle; plus an armed fleet journal drop and
//!    menu coverage.
//! 2. **Chaos campaigns** (E8, `BENCH_chaos_soak.json`): each seed's
//!    [`FaultPlan::random`] × every bounded case the model checker
//!    enumerates ([`ModelChecker::schedule_iter`]) and does not elide
//!    as a no-op ([`ModelChecker::contains_noop`]) under the soak
//!    oracle, the restricted ratio bounded (no livelock); plus a
//!    bus-silence quarantine and the retry-budget-0 counterexample
//!    (`counterexample_chaos_budget0.json`), byte-identical across the
//!    serial and work-stealing engines.
//! 3. **Random soak** (E6, `exp_random_soak.json`): 500 seeded
//!    200-frame workload schedules per instantiation, extended oracle.
//! 4. **Availability sweep** (E7, `exp_availability_sweep.json`): 200
//!    seeded schedules at each of five intensities, extended oracle.
//!
//! Usage: `exp_dst [--smoke]` — `--smoke` shortens the failpoint and
//! chaos seed lists and leaves the committed `BENCH_dst.json` and
//! `BENCH_chaos_soak.json` as they are; the workload soaks run at full
//! size either way.
//! Exits 1 on any violation, coverage gap or failed verdict; exits 3 if
//! the chaos defense metrics grew more than 25% over the committed rows
//! of the seeds the run covered.

use std::collections::BTreeMap;
use std::sync::Arc;

use arfs_assure::{FailpointPlan, FpAction};
use arfs_avionics::extended::extended_uav_spec;
use arfs_avionics::{avionics_spec, quarantine_spec, three_level_spec};
use arfs_bench::{banner, verdict, write_full_run_artifact, write_json, write_text, TextTable};
use arfs_core::assure::{dst_menu, InvariantOracle, OracleProfile};
use arfs_core::chaos::{ChaosDefense, ChaosProfile, FaultKind, FaultPlan};
use arfs_core::fleet::{Fleet, FleetConfig};
use arfs_core::model::ModelChecker;
use arfs_core::properties::PropertyReport;
use arfs_core::scenario::Scenario;
use arfs_core::scram::KernelConfig;
use arfs_core::spec::ReconfigSpec;
use arfs_core::stats::trace_stats;
use arfs_core::system::{System, SystemBuilder};
use arfs_core::workload::{scenario_batch, WorkloadConfig};
use arfs_core::AppId;
use arfs_failstop::ProcessorId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

/// Frames per failpoint campaign run: past the oracle's
/// livelock-judgment threshold, so the defense-livelock bound is
/// genuinely evaluated.
const HORIZON: u64 = 30;

/// Maximum armed failpoints per plan. Bounded so the injected faults
/// stay within the defense envelope the campaign asserts (see
/// `DST_DEFENSE`).
const MAX_FAILPOINTS: usize = 3;

/// The failpoint campaigns' defense knobs: a retry budget sized to the
/// worst case the plans can produce — `MAX_FAILPOINTS` injected torn
/// commits on consecutive frames stacked on top of the chaos plan's own.
const DST_DEFENSE: ChaosDefense = ChaosDefense {
    retry_budget_frames: 6,
    retry_backoff_frames: 0,
    quarantine_window_frames: 3,
};

/// How much a gated chaos defense metric may grow over its committed
/// recording before the run fails with exit code 3.
const REGRESSION_TOLERANCE: f64 = 1.25;

/// Builds a fresh, unstarted system for each run of a case.
type Build<'a> = &'a dyn Fn() -> SystemBuilder;

/// The judge step every seeded case goes through: runs `case` on a
/// system from `builder` and checks the trace with `oracle`.
fn judge(case: &Scenario, builder: Build, oracle: &InvariantOracle) -> (System, PropertyReport) {
    let system = case.run_with(builder()).expect("valid case");
    let report = oracle.report(system.trace());
    (system, report)
}

/// Shrinks a case [`judge`] found violating to a 1-minimal one against
/// the same oracle, prints it, and returns its artifact record.
fn minimize(label: &str, case: &Scenario, builder: Build, oracle: &InvariantOracle) -> Value {
    let violations = |case: &Scenario| judge(case, builder, oracle).1.violations;
    let mut steps = 0usize;
    let minimized = case.shrink(|_, candidate| {
        steps += 1;
        !violations(candidate).is_empty()
    });
    let final_violations = violations(&minimized);
    let (schedule, faults) = (minimized.events_line(), minimized.faults());
    let first = final_violations.first().map(ToString::to_string);
    println!(
        "{label}: VIOLATION, shrunk in {steps} steps to schedule [{schedule}] faults [{faults}] \
         failpoints [{}]: {}",
        minimized.failpoints(),
        first.unwrap_or_default()
    );
    serde_json::json!({
        "schedule": schedule,
        "fault_plan": faults.to_string(),
        "failpoint_plan": minimized.failpoints().to_string(),
        "shrink_steps": steps,
        "violations": final_violations.iter().map(ToString::to_string).collect::<Vec<_>>(),
    })
}

/// An artifact row, wrapped with the minimized cases of its failures
/// when it has any.
fn with_minimized(row: Value, minimized: Vec<Value>) -> Value {
    if minimized.is_empty() {
        row
    } else {
        serde_json::json!({ "summary": row, "minimized": minimized })
    }
}

fn mix_seed(master: u64, stream: u64) -> u64 {
    // splitmix-style finalizer: decorrelates the per-purpose streams.
    let mut z = master
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stimulus schedule: 1–3 environment events with at least 8
/// frames between them, so each reconfiguration (and its dwell guard)
/// completes before the next trigger. The spacing keeps the campaign
/// inside the defense envelope — deferred-trigger failpoints must not
/// be able to stack onto dwell suppression.
fn random_schedule(spec: &ReconfigSpec, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let factors = spec.env_model().factors();
    let count = rng.gen_range(1..=3usize);
    let mut case = Scenario::new("dst", HORIZON);
    let mut frame = 0u64;
    for _ in 0..count {
        frame += 4 + rng.gen_range(0..3) as u64 + 8 * (!case.events().is_empty() as u64);
        if frame + 8 > HORIZON {
            break;
        }
        let factor = &factors[rng.gen_range(0..factors.len())];
        let domain: Vec<&str> = factor.domain().iter().map(|v| v.as_str()).collect();
        let value = domain[rng.gen_range(0..domain.len())];
        case = case.set_env(frame, factor.name(), value);
    }
    case
}

/// Runs `body` with `plan` armed and adds the campaign's site hits to
/// `hits`.
fn armed<T>(plan: &FailpointPlan, hits: &mut BTreeMap<String, u64>, body: impl FnOnce() -> T) -> T {
    let _campaign = arfs_assure::install(plan);
    let out = body();
    for (site, count) in arfs_assure::hit_counts() {
        *hits.entry(site).or_insert(0) += count;
    }
    out
}

/// Section 1: seeded failpoint campaigns and the two fleet and bus
/// fixed cases. Returns whether every verdict passed.
fn failpoint_campaigns(smoke: bool) -> bool {
    let tag = if smoke { " (smoke)" } else { "" };
    banner(&format!("DST failpoint campaigns{tag}"));
    if !arfs_assure::failpoints_enabled() {
        println!(
            "failpoints are compiled out: the failpoint campaigns, the fleet journal drop, \
             the bus-drain deferral and the coverage check are skipped.\n\
             rebuild with `--features failpoints` to run them."
        );
        return true;
    }

    let spec = three_level_spec(2);
    let builder = || {
        System::builder(spec.clone()).kernel(KernelConfig {
            defense: DST_DEFENSE,
            ..KernelConfig::default()
        })
    };
    let seeds: u64 = if smoke { 16 } else { 96 };
    let oracle = InvariantOracle::new(Arc::new(spec.clone()), OracleProfile::Soak);
    let menu_owned = dst_menu();
    let menu: Vec<(&str, &[FpAction])> = menu_owned
        .iter()
        .map(|(site, actions)| (*site, actions.as_slice()))
        .collect();

    let mut table = TextTable::new(["seed", "events", "faults", "failpoints", "violations"]);
    let mut campaigns = Vec::new();
    let mut hits: BTreeMap<String, u64> = BTreeMap::new();
    let mut failures = Vec::new();
    let chaos_profile = ChaosProfile {
        bus_silence_permille: 0,
        commit_fault_permille: 60,
        clock_jitter_permille: 50,
        ..ChaosProfile::for_spec(&spec, HORIZON.saturating_sub(6))
    };
    for seed in 1..=seeds {
        let stimuli = random_schedule(&spec, mix_seed(seed, 0))
            .with_faults(FaultPlan::random(mix_seed(seed, 1), &chaos_profile));
        let failpoints = FailpointPlan::random(mix_seed(seed, 2), &menu, MAX_FAILPOINTS, HORIZON);
        // The campaign stays armed past the run so its site hits can
        // be counted; the run leaves the plan out of the case, since
        // `run_with` would arm it a second time.
        let violations = armed(&failpoints, &mut hits, || {
            judge(&stimuli, &builder, &oracle).1.violations
        });
        let case = stimuli.with_failpoints(failpoints);
        table.row([
            seed.to_string(),
            case.events().len().to_string(),
            case.faults().len().to_string(),
            case.failpoints().len().to_string(),
            violations.len().to_string(),
        ]);
        let summary = serde_json::json!({
            "seed": seed,
            "schedule": case.events_line(),
            "fault_plan": case.faults().to_string(),
            "failpoint_plan": case.failpoints().to_string(),
            "violations": violations.len(),
        });
        // Shrinking happens after the campaign guard is dropped: each
        // candidate arms its own failpoint plan.
        let mut minimized = Vec::new();
        if !violations.is_empty() {
            minimized.push(minimize(&format!("seed {seed}"), &case, &builder, &oracle));
            failures.push(seed);
        }
        campaigns.push(with_minimized(summary, minimized));
    }
    println!("{table}");
    let campaigns_clean = failures.is_empty();
    verdict(
        &format!("{seeds} seeded campaigns: every armed menu fault absorbed (oracle clean)"),
        campaigns_clean,
    );

    // --- Fleet-layer sites under an armed journal drop. ---
    banner("fleet pathway: journal-append drop is observability-only");
    let mut fleet_plan = FailpointPlan::new();
    fleet_plan.push("fleet.journal.append", 1, FpAction::Skip);
    fleet_plan.push("fleet.journal.append", 3, FpAction::Skip);
    let fleet_clean = armed(&fleet_plan, &mut hits, || {
        let mut fleet = Fleet::new(
            Arc::new(spec.clone()),
            FleetConfig {
                systems: 32,
                threads: 2,
                horizon: 40,
                journal_sample: 4,
                // Stimuli up to the last frame: the check is that
                // dropped journal frames leave the verdict alone.
                workload: Some(WorkloadConfig {
                    horizon: 40,
                    cooldown: 0,
                    ..WorkloadConfig::default()
                }),
                ..FleetConfig::default()
            },
        )
        .expect("validated spec builds");
        let report = fleet.run().expect("an in-memory journal never fails");
        report.is_clean()
    });
    verdict(
        "fleet report clean with journal frames dropped mid-run",
        fleet_clean,
    );

    // --- Coverage: every menu site must actually have fired. ---
    banner("failpoint coverage");
    let mut coverage = TextTable::new(["site", "hits"]);
    for (site, count) in &hits {
        coverage.row([site.clone(), count.to_string()]);
    }
    println!("{coverage}");
    let uncovered: Vec<&str> = menu_owned
        .iter()
        .map(|(site, _)| *site)
        .filter(|site| hits.get(*site).copied().unwrap_or(0) == 0)
        .collect();
    let covered = uncovered.is_empty();
    let missing = match covered {
        true => String::new(),
        false => format!(" (missing: {})", uncovered.join(", ")),
    };
    verdict(
        &format!("all {} menu sites exercised{missing}", menu_owned.len()),
        covered,
    );

    let all_ok = campaigns_clean && fleet_clean && covered;
    let artifact = serde_json::json!({
        "smoke": smoke,
        "horizon": HORIZON,
        "seeds": seeds,
        "max_failpoints": MAX_FAILPOINTS,
        "retry_budget_frames": DST_DEFENSE.retry_budget_frames,
        "menu": menu_owned
            .iter()
            .map(|(site, actions)| {
                serde_json::json!({
                    "site": *site,
                    "actions": actions.iter().map(|a| a.to_string()).collect::<Vec<_>>(),
                })
            })
            .collect::<Vec<_>>(),
        "campaigns": campaigns,
        "failing_seeds": failures,
        "fleet_journal_drop_clean": fleet_clean,
        "site_hits": hits,
        "all_ok": all_ok,
    });
    write_full_run_artifact("BENCH_dst.json", &artifact, smoke);
    all_ok
}

/// The committed chaos rows of seeds `1..=seeds` as (commit retries,
/// max restricted ratio), or none if the artifact lacks any of them.
fn recorded_chaos_rows(seeds: u64) -> Option<Vec<(f64, f64)>> {
    let path = arfs_bench::results_dir().join("BENCH_chaos_soak.json");
    let prior: Value = serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()?;
    let rows = prior.get("campaigns")?.as_seq()?;
    let row = |seed| {
        let mut rows = rows.iter().map(|row| row.get("summary").unwrap_or(row));
        let row = rows.find(|row| row.get("seed").and_then(Value::as_u64) == Some(seed))?;
        Some((
            row.get("commit_retries")?.as_f64()?,
            row.get("max_restricted_ratio")?.as_f64()?,
        ))
    };
    (1..=seeds).map(row).collect()
}

/// Section 2 (E8): seeded chaos campaigns over every bounded schedule,
/// the quarantine and budget-0 fixed cases, and the soak-regression
/// gate. Returns (every verdict passed, the gate found a regression).
fn chaos_campaigns(smoke: bool) -> (bool, bool) {
    let tag = if smoke { " (smoke)" } else { "" };
    banner(&format!("Experiment E8: substrate chaos soak{tag}"));

    let spec = three_level_spec(1);
    let horizon = 12u64;
    let seeds = if smoke { 6u64 } else { 30u64 };
    // The default kernel, so the default defense.
    let builder = || System::builder(spec.clone()).observability(true);
    // Torn writes and jitter only: random bus-silence runs on this
    // single-processor spec could quarantine the sole host, which is a
    // hardware-exhaustion scenario, not a protocol one. Bus silence
    // gets its own fixed case below.
    let profile = ChaosProfile {
        bus_silence_permille: 0,
        commit_fault_permille: 80,
        clock_jitter_permille: 60,
        ..ChaosProfile::for_spec(&spec, horizon.saturating_sub(4))
    };
    // The soak profile: SP1–SP4, the extension checks, the TCC static
    // obligations, and the defense-livelock bound, all in one verdict.
    let oracle = InvariantOracle::new(Arc::new(spec.clone()), OracleProfile::Soak);

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
        let mc = ModelChecker::new(spec.clone(), horizon, 1).with_fault_plan(plan.clone());
        let mut schedules = 0usize;
        let mut violations = 0usize;
        let mut oracle_violations = 0usize;
        let mut retries = 0u64;
        let mut fallbacks = 0u64;
        let mut max_ratio = 0.0f64;
        let mut minimized = Vec::new();
        // A case with an event that sets a factor to the value it
        // already holds replays a shorter case's trace; the model
        // checker elides it, and so does the campaign.
        for case in mc.schedule_iter().filter(|case| !mc.contains_noop(case)) {
            let (system, report) = judge(&case, &builder, &oracle);
            retries += system.journal().of_kind("commit-retry").count() as u64;
            fallbacks += system.journal().of_kind("safe-fallback").count() as u64;
            let trace = system.trace();
            max_ratio = max_ratio.max(trace.restricted_frames() as f64 / trace.len() as f64);
            oracle_violations += report.violations.len();
            schedules += 1;
            violations += usize::from(!report.is_ok());
            if !report.is_ok() {
                let label = format!("seed {seed} [{}]", case.events_line());
                minimized.push(minimize(&label, &case, &builder, &oracle));
            }
        }
        // No-livelock: restricted frames stay a bounded minority even
        // under retries — a kernel stuck re-halting forever would push
        // the ratio toward 1.
        livelock_free &= max_ratio <= 0.6;
        campaigns_clean &= fallbacks == 0 && oracle_violations == 0;
        total_retries += retries;
        global_max_ratio = global_max_ratio.max(max_ratio);
        table.row([
            seed.to_string(),
            plan.len().to_string(),
            schedules.to_string(),
            violations.to_string(),
            retries.to_string(),
            fallbacks.to_string(),
            format!("{max_ratio:.2}"),
        ]);
        let row = serde_json::json!({
            "seed": seed,
            "faults": plan.len(),
            "plan": plan.to_string(),
            "schedules_run": schedules,
            "violations": violations,
            "oracle_violations": oracle_violations,
            "commit_retries": retries,
            "safe_fallbacks": fallbacks,
            "max_restricted_ratio": max_ratio,
        });
        campaigns.push(with_minimized(row, minimized));
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

    // --- Fixed case: bus-silence quarantine. ---
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
        .run_with(System::builder(quarantine_spec()).observability(true))
        .expect("validated spec builds");
    let quarantined = qsystem.journal().of_kind("quarantined").count() == 1;
    let landed_solo = qsystem.current_config().to_string() == "solo";
    // Exhaustive profile: the quarantine spec is deliberately one-way
    // (no solo -> full-service transition), so the TCC coverage
    // obligation of the soak profile does not apply to it.
    let qoracle = InvariantOracle::new(qsystem.spec_arc(), OracleProfile::Exhaustive);
    let qreport = qoracle.report(qsystem.trace());
    let quarantine_ok = quarantined && landed_solo && qreport.is_ok();
    verdict(
        "silent processor quarantined to fail-stop; membership drove reconfiguration to solo",
        quarantine_ok,
    );

    // --- Fixed case: known-bad fixture (retry budget 0). ---
    let mut bad_plan = FaultPlan::new();
    bad_plan.push(
        3,
        FaultKind::CommitFault {
            app: AppId::new("a"),
        },
    );
    let mc = ModelChecker::new(spec.clone(), horizon, 1)
        .with_fault_plan(bad_plan)
        .with_kernel(KernelConfig {
            defense: ChaosDefense {
                retry_budget_frames: 0,
                ..ChaosDefense::default()
            },
            ..KernelConfig::default()
        })
        .expect("valid kernel config");
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
    let all_ok = campaigns_clean
        && livelock_free
        && total_retries > 0
        && quarantine_ok
        && budget0_failed
        && engines_agree;

    let ce_path =
        serial_ce.map(|ce| write_text("counterexample_chaos_budget0.json", &ce.to_json_pretty()));

    // --- Soak-regression gate: the defense metrics against the
    // committed per-seed rows of the seeds this run covered. The
    // campaigns are deterministic given the seed, so any growth is a
    // real behavior change, not noise; the gate tolerates 25% before
    // failing with exit code 3. A seed without a committed row leaves
    // the gate without a baseline. ---
    banner("soak-regression gate");
    let prior = recorded_chaos_rows(seeds).unwrap_or_default();
    let gauges = [
        (
            "total_commit_retries",
            total_retries as f64,
            prior.iter().map(|r| r.0).sum(),
        ),
        (
            "max_restricted_ratio",
            global_max_ratio,
            prior.iter().map(|r| r.1).fold(0.0, f64::max),
        ),
    ];
    let mut regressed = false;
    for (key, current, prev) in gauges {
        if prev > 0.0 {
            let ok = current <= prev * REGRESSION_TOLERANCE;
            verdict(
                &format!("{key} {current:.3} within 25% of recorded {prev:.3}"),
                ok,
            );
            regressed |= !ok;
        } else {
            println!("{key}: no prior recording; baseline set at {current:.3}");
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
            "minimized_schedule": serial_ce.map(|ce| ce.minimized.events_line()),
            "minimized_fault_plan": serial_ce.map(|ce| ce.minimized.faults().to_string()),
        },
        "all_ok": all_ok,
    });
    write_full_run_artifact("BENCH_chaos_soak.json", &artifact, smoke);
    if let Some(ce_path) = ce_path {
        println!("counterexample: {}", ce_path.display());
    }
    (all_ok, regressed)
}

/// Section 3 (E6): long random schedules the bounded search cannot
/// reach, on both instantiations. Returns whether every trace was clean.
fn random_soak() -> bool {
    banner("Experiment E6: randomized long-horizon soak");
    let config = WorkloadConfig {
        horizon: 200,
        mean_gap: 10,
        cooldown: 30,
    };
    let runs_per_spec = 500u64;

    let mut table = TextTable::new([
        "specification",
        "runs",
        "reconfigurations",
        "violations",
        "mean availability",
        "worst restriction (frames)",
    ]);
    let mut all_clean = true;
    let mut artifacts = Vec::new();
    for (slug, label, spec) in [
        ("avionics", "avionics (§7, 2 apps)", avionics_spec()),
        ("extended_uav", "extended UAV (4 apps)", extended_uav_spec()),
    ] {
        let spec = Arc::new(spec.expect("valid"));
        let builder = || System::builder_arc(Arc::clone(&spec));
        let oracle = InvariantOracle::new(Arc::clone(&spec), OracleProfile::Extended);
        let mut reconfigs = 0usize;
        let mut violations = 0usize;
        let mut availability_sum = 0.0f64;
        let mut worst_restricted = 0u64;
        let mut minimized = Vec::new();
        // Journal event counts aggregated over the whole soak; the first
        // run's journal + metrics ship verbatim as arfs-trace artifacts.
        let mut journal_kinds: BTreeMap<String, usize> = BTreeMap::new();
        let batch = scenario_batch(&spec, &config, 1, runs_per_spec);
        for (run, scenario) in batch.iter().enumerate() {
            let (system, report) = judge(scenario, &builder, &oracle);
            if !report.is_ok() {
                violations += report.violations.len();
                minimized.push(minimize(scenario.name(), scenario, &builder, &oracle));
            }
            reconfigs += report.reconfigs_checked;
            let stats = trace_stats(system.trace());
            availability_sum += stats.availability();
            worst_restricted =
                worst_restricted.max(stats.max_cycles.unwrap_or(0).saturating_sub(1));
            for (kind, count) in system.journal().summary().by_kind {
                *journal_kinds.entry(kind).or_insert(0) += count;
            }
            if run == 0 {
                let stem = format!("exp_random_soak.{slug}");
                write_text(
                    &format!("{stem}.journal.jsonl"),
                    &system.journal().to_json_lines(),
                );
                write_json(
                    &format!("{stem}.metrics.json"),
                    &system.metrics_snapshot().without_wall_clock(),
                );
            }
        }
        all_clean &= violations == 0;
        let mean_availability = availability_sum / runs_per_spec as f64;
        table.row([
            label.to_string(),
            runs_per_spec.to_string(),
            reconfigs.to_string(),
            violations.to_string(),
            format!("{:.2}%", mean_availability * 100.0),
            worst_restricted.to_string(),
        ]);
        let row = serde_json::json!({
            "spec": label,
            "runs": runs_per_spec,
            "reconfigurations": reconfigs,
            "violations": violations,
            "mean_availability": mean_availability,
            "worst_restricted_frames": worst_restricted,
            "journal_kinds": journal_kinds,
        });
        artifacts.push(with_minimized(row, minimized));
    }
    println!("{table}");
    verdict(
        "all soak traces satisfy SP1-SP4 and the extension checks",
        all_clean,
    );
    let path = write_json("exp_random_soak.json", &artifacts);
    println!("\nartifact: {}", path.display());
    all_clean
}

/// Section 4 (E7): availability as the mean gap between environment
/// changes shrinks from 40 frames to 3. SP3 bounds every restriction,
/// so availability must degrade smoothly, and the dwell guard must stop
/// thrashing. Returns whether every verdict passed.
fn availability_sweep() -> bool {
    banner("Experiment E7: availability vs. failure intensity");
    let spec = Arc::new(avionics_spec().expect("valid spec"));
    let builder = || System::builder_arc(Arc::clone(&spec));
    let oracle = InvariantOracle::new(Arc::clone(&spec), OracleProfile::Extended);
    let runs = 200u64;
    let mut table = TextTable::new([
        "mean frames between changes",
        "reconfigurations / run",
        "mean availability",
        "min availability",
        "SP violations",
    ]);
    let mut availabilities = Vec::new();
    let mut artifacts = Vec::new();
    let mut total_violations = 0usize;
    for mean_gap in [40u64, 20, 10, 5, 3] {
        let config = WorkloadConfig {
            horizon: 240,
            mean_gap,
            cooldown: 30,
        };
        let mut reconfigs = 0usize;
        let mut availability_sum = 0.0;
        let mut min_availability = 1.0f64;
        // Observability counters summed over the sweep point: how often
        // the SCRAM completed a reconfiguration vs. held a trigger back
        // under the dwell guard at this intensity.
        let mut completions = 0u64;
        let mut dwell_suppressions = 0u64;
        let mut minimized = Vec::new();
        let batch = scenario_batch(&spec, &config, 10_000, runs);
        for (run, scenario) in batch.iter().enumerate() {
            let (system, report) = judge(scenario, &builder, &oracle);
            if !report.is_ok() {
                minimized.push(minimize(scenario.name(), scenario, &builder, &oracle));
            }
            total_violations += report.violations.len();
            reconfigs += report.reconfigs_checked;
            let a = trace_stats(system.trace()).availability();
            availability_sum += a;
            min_availability = min_availability.min(a);
            completions += system.metrics().counter("scram.completions");
            dwell_suppressions += system.metrics().counter("scram.dwell_suppressed");
            if run == 0 && mean_gap == 3 {
                // The harshest intensity ships its first run's journal
                // and metrics as arfs-trace artifacts.
                write_text(
                    "exp_availability_sweep.journal.jsonl",
                    &system.journal().to_json_lines(),
                );
                write_json(
                    "exp_availability_sweep.metrics.json",
                    &system.metrics_snapshot().without_wall_clock(),
                );
            }
        }
        let mean_availability = availability_sum / runs as f64;
        availabilities.push(mean_availability);
        table.row([
            mean_gap.to_string(),
            format!("{:.1}", reconfigs as f64 / runs as f64),
            format!("{:.2}%", mean_availability * 100.0),
            format!("{:.2}%", min_availability * 100.0),
            total_violations.to_string(),
        ]);
        let row = serde_json::json!({
            "mean_gap_frames": mean_gap,
            "runs": runs,
            "reconfigs_per_run": reconfigs as f64 / runs as f64,
            "mean_availability": mean_availability,
            "min_availability": min_availability,
            "scram_completions": completions,
            "dwell_suppressions": dwell_suppressions,
        });
        artifacts.push(with_minimized(row, minimized));
    }
    println!("{table}");

    let clean = total_violations == 0;
    let monotone = availabilities.windows(2).all(|w| w[1] <= w[0] + 1e-9);
    let majority = *availabilities.last().expect("nonempty sweep") > 0.5;
    verdict("SP1-SP4 hold at every intensity", clean);
    verdict(
        "availability degrades monotonically with intensity",
        monotone,
    );
    verdict(
        "even the harshest intensity keeps majority availability (dwell guard works)",
        majority,
    );
    let path = write_json("exp_availability_sweep.json", &artifacts);
    println!("\nartifact: {}", path.display());
    clean && monotone && majority
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let failpoints_ok = failpoint_campaigns(smoke);
    let (chaos_ok, regressed) = chaos_campaigns(smoke);
    let soak_ok = random_soak();
    let sweep_ok = availability_sweep();
    if !(failpoints_ok && chaos_ok && soak_ok && sweep_ok) {
        std::process::exit(1);
    }
    if regressed {
        std::process::exit(3);
    }
}
