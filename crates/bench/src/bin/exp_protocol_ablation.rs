//! Ablation of the reconfiguration protocol's design choices.
//!
//! The paper's §6.3 discusses two variations of the Table 1 protocol:
//! phase-checked synchronization for richer interdependencies ("only
//! after that phase is complete would the SCRAM signal the dependent
//! application to begin its next stage") and stage compression
//! ("allowing the applications to complete multiple sequential stages
//! without signals from the SCRAM"). This harness measures all three
//! protocol variants on the same reconfiguration and verifies each
//! remains correct:
//!
//! | variant        | cycles | service-restricted frames |
//! |----------------|--------|---------------------------|
//! | compressed     |   3    |             2             |
//! | simultaneous   |   4    |             3             |
//! | phase-checked  |  3+W   |            2+W            |

use arfs_bench::{banner, verdict, write_json, TextTable};
use arfs_core::model::ModelChecker;
use arfs_core::properties;
use arfs_core::scram::{KernelConfig, StagePolicy, SyncPolicy};
use arfs_core::system::System;

fn main() {
    banner("Experiment E5: protocol ablation (§6.3 variations of Table 1)");

    let kernel = |sync, stage| KernelConfig {
        sync,
        stage,
        ..KernelConfig::default()
    };
    let variants = [
        (
            "compressed (§6.3 no-signal stages)",
            kernel(SyncPolicy::Simultaneous, StagePolicy::CompressedPrepareInit),
        ),
        (
            "simultaneous (Table 1)",
            kernel(SyncPolicy::Simultaneous, StagePolicy::Signalled),
        ),
        (
            "phase-checked (§6.3 dependency waves)",
            kernel(SyncPolicy::PhaseChecked, StagePolicy::Signalled),
        ),
    ];

    let mut table = TextTable::new([
        "protocol variant",
        "reconfig cycles",
        "restricted frames",
        "SP1-SP4",
    ]);
    let mut all_ok = true;
    let mut points = Vec::new();
    let mut cycles_seen = Vec::new();

    for (label, kernel) in &variants {
        let spec = arfs_avionics::avionics_spec().expect("valid spec");
        let mut system = System::builder(spec)
            .kernel(kernel.clone())
            .build()
            .expect("builds");
        system.run_frames(8);
        system.set_env("electrical", "one").expect("valid");
        system.run_frames(12);

        let trace = system.trace();
        let reconfigs = trace.get_reconfigs();
        assert_eq!(reconfigs.len(), 1, "{label}: one reconfiguration expected");
        let cycles = reconfigs[0].cycles();
        let restricted = trace.restricted_frames();
        let report = properties::check_extended(trace, system.spec());
        all_ok &= report.is_ok();
        cycles_seen.push(cycles);
        table.row([
            (*label).to_string(),
            cycles.to_string(),
            restricted.to_string(),
            if report.is_ok() {
                "hold".into()
            } else {
                "VIOLATED".to_string()
            },
        ]);
        points.push(serde_json::json!({
            "variant": label,
            "cycles": cycles,
            "restricted_frames": restricted,
            "properties_ok": report.is_ok(),
        }));
    }
    println!("{table}");

    verdict(
        "every protocol variant satisfies SP1-SP4 (+extensions)",
        all_ok,
    );
    verdict(
        "compression saves one cycle over Table 1; dependency waves add one per extra wave",
        cycles_seen == vec![3, 4, 5],
    );

    // Exhaustive confirmation: the checker explores each variant's own
    // kernel over every single-event schedule.
    banner("exhaustive check of every protocol variant");
    for (label, kernel) in variants {
        let report = ModelChecker::new(arfs_avionics::avionics_spec().expect("valid spec"), 26, 1)
            .with_kernel(kernel)
            .expect("valid kernel config")
            .run_parallel(4);
        println!("{label}: {report}");
        verdict(
            &format!("{label} is exhaustively clean"),
            report.all_passed(),
        );
    }

    let path = write_json("exp_protocol_ablation.json", &points);
    println!("\nartifact: {}", path.display());
}
