//! Regenerates **Table 1 — SFTA Phases** of the DSN 2005 paper.
//!
//! Runs the avionics system (Table 1's simultaneous policy), fails an
//! alternator, and prints the per-frame protocol table: the message the
//! SCRAM sends, the action the applications take, and the predicate
//! established — exactly the columns of the paper's Table 1. Verifies
//! that the observed sequence matches the paper's frame-by-frame
//! specification.

use arfs_avionics::AvionicsSystem;
use arfs_bench::{banner, verdict, write_json, TextTable};
use arfs_core::app::ConfigStatus;
use arfs_core::scram::KernelConfig;
use arfs_core::AppId;

fn main() {
    banner("Table 1: SFTA phases (frame-by-frame reconfiguration protocol)");

    let mut av =
        AvionicsSystem::with_kernel(KernelConfig::default()).expect("avionics system builds");
    av.engage_autopilot();
    av.run_frames(10);
    av.fail_alternator(1);
    av.run_frames(8);

    let trace = av.system().trace();
    let reconfigs = trace.get_reconfigs();
    assert_eq!(reconfigs.len(), 1, "exactly one reconfiguration expected");
    let r = reconfigs[0];

    let fcs = AppId::new("fcs");
    let ap = AppId::new("autopilot");

    let mut table = TextTable::new(["Frame", "Message", "Action", "Predicate"]);
    let mut observed: Vec<(u64, String)> = Vec::new();
    for (offset, frame) in (r.start_c..=r.end_c).enumerate() {
        let state = trace.state(frame).expect("frame recorded");
        let cmd = state.apps[&fcs].commanded;
        let (message, action, predicate) = match (offset, cmd) {
            (0, _) => (
                "failure signal -> SCRAM".to_string(),
                "applications interrupted".to_string(),
                "none".to_string(),
            ),
            (_, ConfigStatus::Halt) => (
                "SCRAM: halt -> all apps".to_string(),
                "applications cease execution".to_string(),
                format!(
                    "postconditions: fcs={} autopilot={}",
                    fmt_pred(state.apps[&fcs].post_ok),
                    fmt_pred(state.apps[&ap].post_ok)
                ),
            ),
            (_, ConfigStatus::Prepare) => (
                format!(
                    "SCRAM: prepare({}) -> all apps",
                    trace.state(r.end_c).unwrap().svclvl
                ),
                "applications prepare to transition".to_string(),
                format!(
                    "transition conditions for {} / {}",
                    state.apps[&fcs].spec, state.apps[&ap].spec
                ),
            ),
            (_, ConfigStatus::Initialize) => (
                "SCRAM: initialize -> all apps".to_string(),
                "applications initialize, establish operating state".to_string(),
                format!(
                    "preconditions: fcs={} autopilot={}",
                    fmt_pred(state.apps[&fcs].pre_ok),
                    fmt_pred(state.apps[&ap].pre_ok)
                ),
            ),
            (_, other) => (
                format!("SCRAM: {other}"),
                "hold".to_string(),
                "-".to_string(),
            ),
        };
        observed.push((frame, format!("{cmd}")));
        table.row([
            format!(
                "{offset} {}",
                if offset == 0 {
                    "(start)"
                } else if frame == r.end_c {
                    "(end)"
                } else {
                    ""
                }
            ),
            message,
            action,
            predicate,
        ]);
    }
    println!("{table}");

    // The paper's sequence: trigger, halt, prepare, initialize — four
    // cycles inclusive.
    let commands: Vec<&str> = (r.start_c..=r.end_c)
        .map(|f| trace.state(f).unwrap().apps[&fcs].commanded.as_str())
        .collect();
    let expected = ["normal", "halt", "prepare", "initialize"];
    verdict(
        "per-frame command sequence matches Table 1 (halt, prepare, initialize)",
        commands == expected,
    );
    verdict("reconfiguration spans exactly 4 cycles", r.cycles() == 4);
    let end = trace.state(r.end_c).unwrap();
    verdict(
        "all preconditions for Ct hold at the end frame",
        end.apps.values().all(|a| a.pre_ok == Some(true)),
    );
    verdict(
        "service level is reduced-service at the end frame",
        end.svclvl.as_str() == "reduced-service",
    );

    // The journal's SCRAM events show the same phases.
    let phases: Vec<&str> = av
        .system()
        .journal()
        .of_kind("phase-entered")
        .filter_map(|e| e.payload.get("phase").and_then(|p| p.as_str()))
        .collect();
    verdict(
        "journaled SCRAM events show halt -> prepare -> initialize",
        phases == ["halt", "prepare", "initialize"],
    );

    let path = write_json("table1_sfta_phases.json", &observed);
    println!("\nartifact: {}", path.display());
}

fn fmt_pred(p: Option<bool>) -> &'static str {
    match p {
        Some(true) => "established",
        Some(false) => "VIOLATED",
        None => "-",
    }
}
