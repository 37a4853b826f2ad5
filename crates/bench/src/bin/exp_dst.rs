//! Deterministic-simulation testing: seeded campaigns over scenarios ×
//! chaos fault plans × failpoint plans, with joint shrinking.
//!
//! Every campaign is a pure function of its seed: the stimulus schedule,
//! the substrate fault plan ([`FaultPlan::random`]), and the failpoint
//! plan ([`FailpointPlan::random`] over [`arfs_core::assure::dst_menu`])
//! are all drawn deterministically into one [`Scenario`], the system
//! replays it through [`Scenario::run_with`], and the unified
//! [`InvariantOracle`] (soak profile: SP1–SP4, the extension checks,
//! TCC obligations, and the defense-livelock bound) judges the trace.
//! The menu lists exactly the (site, action) pairs the defense layer
//! claims to absorb, so **zero violations** is the pass condition — any
//! violation is shrunk by [`Scenario::shrink`] to a 1-minimal case
//! (stimuli, fault plan, failpoint plan) and recorded in the artifact
//! before the run fails.
//!
//! A second section drives the fleet runtime under an armed
//! `fleet.journal.append` drop, covering the fleet-layer sites the
//! single-system section cannot reach.
//!
//! Usage: `exp_dst [--smoke]` — `--smoke` shrinks the seed count for
//! CI. Requires `--features failpoints`; without the feature the
//! campaign has no fault injection to sweep and the run exits 0 after
//! saying so (writing no artifact). Exits 1 on any unshrunk violation
//! or coverage gap.

use std::collections::BTreeMap;
use std::sync::Arc;

use arfs_assure::{FailpointPlan, FpAction};
use arfs_avionics::three_level_spec;
use arfs_bench::{banner, verdict, write_json, TextTable};
use arfs_core::assure::{dst_menu, InvariantOracle, OracleProfile};
use arfs_core::chaos::{ChaosDefense, ChaosProfile, FaultPlan};
use arfs_core::fleet::{Fleet, FleetConfig};
use arfs_core::scenario::Scenario;
use arfs_core::spec::ReconfigSpec;
use arfs_core::system::{System, SystemBuilder};
use arfs_ttbus::{BusSchedule, Message, NodeId, TtBus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Frames per campaign run: past the oracle's livelock-judgment
/// threshold, so the defense-livelock bound is genuinely evaluated.
const HORIZON: u64 = 30;

/// Maximum armed failpoints per plan. Bounded so the injected faults
/// stay within the defense envelope the campaign asserts (see
/// `DST_DEFENSE`).
const MAX_FAILPOINTS: usize = 3;

/// The campaign's defense knobs: a retry budget sized to the worst
/// case the plans can produce — `MAX_FAILPOINTS` injected torn commits
/// on consecutive frames stacked on top of the chaos plan's own.
const DST_DEFENSE: ChaosDefense = ChaosDefense {
    retry_budget_frames: 6,
    retry_backoff_frames: 0,
    quarantine_window_frames: 3,
};

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

/// A builder for one campaign system: the spec under the campaign's
/// defense knobs.
fn dst_builder(spec: &ReconfigSpec) -> SystemBuilder {
    System::builder(spec.clone()).chaos_defense(DST_DEFENSE)
}

/// The stimuli as the artifact prints them: one line per event.
fn schedule_line(case: &Scenario) -> String {
    let lines: Vec<String> = case.events().iter().map(ToString::to_string).collect();
    lines.join("; ")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(if smoke {
        "Experiment E9: deterministic-simulation failpoint campaigns (smoke)"
    } else {
        "Experiment E9: deterministic-simulation failpoint campaigns"
    });

    if !arfs_assure::failpoints_enabled() {
        println!(
            "failpoints are compiled out — nothing to inject.\n\
             rebuild with `--features failpoints` to run the campaign."
        );
        return;
    }

    let spec = three_level_spec(2);
    let seeds: u64 = if smoke { 16 } else { 96 };
    let oracle = InvariantOracle::new(Arc::new(spec.clone()), OracleProfile::Soak);
    let menu_owned = dst_menu();
    let menu: Vec<(&str, &[FpAction])> = menu_owned
        .iter()
        .map(|(site, actions)| (*site, actions.as_slice()))
        .collect();

    // --- Section 1: seeded single-system campaigns. ---
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
        let violations = {
            // The campaign stays armed past the run so its site hits
            // can be counted.
            let _campaign = arfs_assure::install(&failpoints);
            let system = stimuli
                .run_with(dst_builder(&spec))
                .expect("generated stimuli are valid");
            for (site, count) in arfs_assure::hit_counts() {
                *hits.entry(site).or_insert(0) += count;
            }
            oracle.check(system.trace())
        };
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
            "schedule": schedule_line(&case),
            "fault_plan": case.faults().to_string(),
            "failpoint_plan": case.failpoints().to_string(),
            "violations": violations.len(),
        });
        if violations.is_empty() {
            campaigns.push(summary);
        } else {
            let check = |case: &Scenario| {
                let system = case
                    .run_with(dst_builder(&spec))
                    .expect("generated stimuli are valid");
                oracle.check(system.trace())
            };
            let mut steps = 0usize;
            let minimized = case.shrink(|_, candidate| {
                steps += 1;
                !check(candidate).is_empty()
            });
            let final_violations = check(&minimized);
            println!(
                "seed {seed}: VIOLATION, shrunk in {steps} steps to \
                 schedule [{}] faults [{}] failpoints [{}]: {}",
                schedule_line(&minimized),
                minimized.faults(),
                minimized.failpoints(),
                final_violations
                    .first()
                    .map(|v| v.to_string())
                    .unwrap_or_default()
            );
            campaigns.push(serde_json::json!({
                "summary": summary,
                "minimized": {
                    "schedule": schedule_line(&minimized),
                    "fault_plan": minimized.faults().to_string(),
                    "failpoint_plan": minimized.failpoints().to_string(),
                    "shrink_steps": steps,
                    "violations": final_violations
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>(),
                },
            }));
            failures.push(seed);
        }
    }
    println!("{table}");
    let campaigns_clean = failures.is_empty();
    verdict(
        &format!("{seeds} seeded campaigns: every armed menu fault absorbed (oracle clean)"),
        campaigns_clean,
    );

    // --- Section 2: fleet-layer sites under an armed journal drop. ---
    banner("fleet pathway: journal-append drop is observability-only");
    let mut fleet_plan = FailpointPlan::new();
    fleet_plan.push("fleet.journal.append", 1, FpAction::Skip);
    fleet_plan.push("fleet.journal.append", 3, FpAction::Skip);
    let fleet_clean = {
        let _campaign = arfs_assure::install(&fleet_plan);
        let mut fleet = Fleet::new(
            Arc::new(spec.clone()),
            FleetConfig {
                systems: 32,
                threads: 2,
                horizon: 40,
                journal_sample: 4,
                ..FleetConfig::default()
            },
        )
        .expect("validated spec builds");
        let report = fleet.run().expect("an in-memory journal never fails");
        for (site, count) in arfs_assure::hit_counts() {
            *hits.entry(site).or_insert(0) += count;
        }
        report.is_clean()
    };
    verdict(
        "fleet report clean with journal frames dropped mid-run",
        fleet_clean,
    );

    // --- Section 3: bus-drain deferral is lossless. ---
    // `drain_inbox` sits below the kernel's broadcast read path; a
    // deferred drain must deliver late, never lose.
    banner("bus pathway: deferred drain re-delivers everything");
    let mut drain_plan = FailpointPlan::new();
    drain_plan.push("ttbus.bus.drain", 1, FpAction::Delay(1));
    let drain_clean = {
        let _campaign = arfs_assure::install(&drain_plan);
        let reader = NodeId::new(1);
        let schedule = BusSchedule::builder()
            .slot(NodeId::new(0), 64)
            .slot(reader, 64)
            .build()
            .expect("static schedule is valid");
        let mut bus = TtBus::new(schedule);
        bus.submit(NodeId::new(0), Message::new("cmd", vec![7u8]))
            .expect("slot owner may submit");
        bus.run_round();
        let deferred = bus.drain_inbox(reader);
        bus.mark_present(reader);
        bus.run_round();
        let late = bus.drain_inbox(reader);
        for (site, count) in arfs_assure::hit_counts() {
            *hits.entry(site).or_insert(0) += count;
        }
        deferred.is_empty() && late.len() == 1 && late[0].message.topic() == "cmd"
    };
    verdict(
        "armed drain returned empty, next drain delivered late",
        drain_clean,
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
    verdict(
        &format!(
            "all {} menu sites exercised{}",
            menu_owned.len(),
            if covered {
                String::new()
            } else {
                format!(" (missing: {})", uncovered.join(", "))
            }
        ),
        covered,
    );

    let all_ok = campaigns_clean && fleet_clean && drain_clean && covered;
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
        "bus_drain_deferral_clean": drain_clean,
        "site_hits": hits,
        "all_ok": all_ok,
    });
    let path = write_json("BENCH_dst.json", &artifact);
    println!("\nartifact: {}", path.display());
    if !all_ok {
        std::process::exit(1);
    }
}
