//! Regenerates **Table 2 — Formal Properties of System Reconfiguration**.
//!
//! The paper proves SP1–SP4 in PVS over all traces of the abstract model.
//! This harness verifies the same four properties three ways:
//!
//! 1. **Randomized testing** — hundreds of random electrical-failure /
//!    repair schedules over the avionics system, every trace checked;
//! 2. **Exhaustive bounded model checking** — every environment-change
//!    schedule up to the bound, in parallel;
//! 3. **Mutation analysis** — four deliberately broken SCRAM protocols,
//!    each of which must be caught by the property it targets (evidence
//!    the checkers are not vacuous).

use arfs_avionics::AvionicsSystem;
use arfs_bench::{banner, verdict, write_json, TextTable};
use arfs_core::model::ModelChecker;
use arfs_core::properties::{self, PropertyId};
use arfs_core::scram::{KernelConfig, ScramMutation};
use arfs_core::system::System;
use arfs_core::AppId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    banner("Table 2: formal properties SP1-SP4");

    // --- Part 1: randomized avionics schedules. ---
    let runs = 300;
    let mut rng = StdRng::seed_from_u64(2005);
    let mut reconfig_count = 0usize;
    let mut violation_count = 0usize;
    for _ in 0..runs {
        let mut av = AvionicsSystem::new().expect("builds");
        av.engage_autopilot();
        let horizon = rng.gen_range(40..120);
        let mut frame = 0u64;
        while frame < horizon {
            let step = rng.gen_range(8..20);
            av.run_frames(step);
            frame += step;
            match rng.gen_range(0..4) {
                0 => av.fail_alternator(1),
                1 => av.fail_alternator(2),
                2 => av.repair_alternator(1),
                _ => av.repair_alternator(2),
            }
        }
        av.run_frames(15); // let any in-flight reconfiguration finish
        let report = properties::check_extended(av.system().trace(), av.system().spec());
        reconfig_count += report.reconfigs_checked;
        violation_count += report.violations.len();
        if !report.is_ok() {
            eprintln!("violation:\n{report}");
        }
    }
    println!(
        "randomized: {runs} runs, {reconfig_count} reconfigurations checked, {violation_count} violations"
    );
    verdict(
        "randomized avionics traces satisfy SP1-SP4 (+extensions)",
        violation_count == 0,
    );

    // --- Part 2: exhaustive bounded model checking. ---
    let spec = arfs_avionics::avionics_spec().expect("valid spec");
    let mc = ModelChecker::new(spec, 26, 2);
    let report = mc.run_parallel(
        std::thread::available_parallelism()
            .map(Into::into)
            .unwrap_or(4),
    );
    println!("exhaustive: {report}");
    verdict(
        "exhaustive schedule exploration proves SP1-SP4 on the bounded model",
        report.all_passed(),
    );

    // --- Part 3: mutation analysis. ---
    banner("mutation analysis (checkers are not vacuous)");
    let mutations: Vec<(ScramMutation, PropertyId, &str)> = vec![
        (
            ScramMutation::LeaveAppRunning(AppId::new("autopilot")),
            PropertyId::Sp1,
            "SP1: R begins when any app leaves Ci and ends when all operate under Cj",
        ),
        (
            ScramMutation::WrongTarget,
            PropertyId::Sp2,
            "SP2: Cj is the proper choice for the target at some point during R",
        ),
        (
            ScramMutation::ExtraDelayFrames(12),
            PropertyId::Sp3,
            "SP3: R takes less than or equal to Tij time units",
        ),
        (
            ScramMutation::SkipInitPhase,
            PropertyId::Sp4,
            "SP4: the precondition for Cj is true at the time R ends",
        ),
        (
            ScramMutation::SkipHaltPhase,
            PropertyId::ProtocolConformance,
            "extension: Table 1's stages actually ran (halt postconditions established)",
        ),
    ];

    let mut table = TextTable::new(["Property", "Mutation", "Detected", "Violations"]);
    let mut all_caught = true;
    let mut results = Vec::new();
    for (mutation, property, description) in mutations {
        let spec = arfs_avionics::avionics_spec().expect("valid spec");
        let mut system = System::builder(spec)
            .kernel(KernelConfig {
                mutation: Some(mutation.clone()),
                ..KernelConfig::default()
            })
            .build()
            .expect("builds");
        system.run_frames(8);
        system.set_env("electrical", "one").expect("valid value");
        system.run_frames(24);
        let report = properties::check_extended(system.trace(), system.spec());
        let caught = !report.of(property).is_empty();
        all_caught &= caught;
        table.row([
            property.to_string(),
            format!("{mutation:?}"),
            if caught {
                "yes".into()
            } else {
                "NO".to_string()
            },
            report.of(property).len().to_string(),
        ]);
        results.push((format!("{property}"), format!("{mutation:?}"), caught));
        let _ = description;
    }
    println!("{table}");
    verdict(
        "every seeded protocol defect is caught by its target property",
        all_caught,
    );

    let path = write_json(
        "table2_properties.json",
        &serde_json::json!({
            "randomized_runs": runs,
            "randomized_reconfigs": reconfig_count,
            "randomized_violations": violation_count,
            "exhaustive_cases": report.cases_run,
            "exhaustive_failures": report.failures.len(),
            "mutations": results.iter().map(|(p, m, c)| serde_json::json!({
                "property": p, "mutation": m, "caught": c
            })).collect::<Vec<_>>(),
        }),
    );
    println!("\nartifact: {}", path.display());
}
