//! Regenerates the **§5.3 mid-reconfiguration failure analysis**: the
//! two policies for "failures that occur during reconfiguration".
//!
//! "Any failures that occur during reconfiguration can be either (1)
//! addressed immediately by ensuring the applications have met their
//! postconditions and choosing a different target specification; or (2)
//! buffered until the next stable storage commit of other applications."
//!
//! For every frame offset at which a second electrical failure can land
//! inside the first reconfiguration, the harness runs both policies and
//! compares: final configuration, total restricted frames, and whether
//! SP1–SP4 still hold (they must, under both).

use arfs_bench::{banner, verdict, write_json, write_text, TextTable};
use arfs_core::properties;
use arfs_core::scram::MidReconfigPolicy;
use arfs_core::system::System;

fn main() {
    banner("Experiment E4: failures during reconfiguration (§5.3 policies)");

    let mut table = TextTable::new([
        "2nd failure offset",
        "policy",
        "final config",
        "restricted frames",
        "reconfig count",
        "retargets",
        "SP1-SP4",
    ]);
    let mut all_ok = true;
    let mut immediate_total = 0u64;
    let mut buffered_total = 0u64;
    let mut points = Vec::new();

    for offset in 1..=3u64 {
        for (policy, label) in [
            (MidReconfigPolicy::BufferUntilComplete, "buffer"),
            (MidReconfigPolicy::ImmediateRetarget, "immediate"),
        ] {
            let spec = arfs_avionics::avionics_spec().expect("valid spec");
            let mut system = System::builder(spec)
                .mid_policy(policy)
                .build()
                .expect("builds");
            system.run_frames(8);
            // First failure: one alternator.
            system.set_env("electrical", "one").expect("valid");
            system.run_frames(offset);
            // Second failure lands inside the in-flight reconfiguration.
            system.set_env("electrical", "battery").expect("valid");
            system.run_frames(25);

            let trace = system.trace();
            let restricted = trace.restricted_frames();
            let reconfigs = trace.get_reconfigs().len();
            let report = properties::check_extended(trace, system.spec());
            let ok = report.is_ok() && system.current_config().as_str() == "minimal-service";
            all_ok &= ok;
            if !report.is_ok() {
                eprintln!("offset {offset} policy {label}:\n{report}");
            }
            match policy {
                MidReconfigPolicy::ImmediateRetarget => immediate_total += restricted,
                MidReconfigPolicy::BufferUntilComplete => buffered_total += restricted,
            }
            // The journal makes the policy difference directly visible:
            // only immediate retargeting emits `retargeted` events.
            let retargets = system.journal().of_kind("retargeted").count();
            if offset == 1 {
                // One journal per policy at the same offset, so
                // `arfs-trace diff` shows exactly where the two §5.3
                // policies diverge.
                write_text(
                    &format!("exp_midreconfig_{label}.journal.jsonl"),
                    &system.journal().to_json_lines(),
                );
                write_json(
                    &format!("exp_midreconfig_{label}.metrics.json"),
                    &system.metrics_snapshot().without_wall_clock(),
                );
            }
            table.row([
                format!("+{offset} frames"),
                label.to_string(),
                system.current_config().to_string(),
                restricted.to_string(),
                reconfigs.to_string(),
                retargets.to_string(),
                if report.is_ok() {
                    "hold".into()
                } else {
                    "VIOLATED".to_string()
                },
            ]);
            points.push(serde_json::json!({
                "offset": offset,
                "policy": label,
                "restricted_frames": restricted,
                "reconfigurations": reconfigs,
                "retargets": retargets,
                "properties_ok": report.is_ok(),
            }));
        }
    }
    println!("{table}");

    verdict(
        "both policies end in minimal-service with SP1-SP4 intact",
        all_ok,
    );
    println!(
        "\ntotal restricted frames — immediate retarget: {immediate_total}, buffered: {buffered_total}"
    );
    verdict(
        "immediate retargeting restricts service for no longer than buffering",
        immediate_total <= buffered_total,
    );

    let path = write_json("exp_midreconfig_failures.json", &points);
    println!("\nartifact: {}", path.display());
}
