//! Regenerates **Figure 1 — Logical System Architecture** as a signal
//! audit.
//!
//! Figure 1 shows the architecture's signal paths: hardware fault
//! signals and application fault/status signals flow *into* the SCRAM;
//! reconfiguration signals flow *out* to the applications; everything
//! rides the real-time data bus over the computing platform. This
//! harness runs one alternator-failure reconfiguration and replays the
//! frame-scoped observability journal (`arfs_core::obs`): every signal
//! that crossed an architecture edge is a journal event, so the table,
//! the edge verdicts, and the SFTA protocol walk all come from the same
//! JSON-Lines record that ships as an artifact. The bus verdict is
//! static: lint's bus-sufficiency pass (`ARFS-E008`) finds every signal
//! kind's worst-case traffic within its node's TDMA slot on the assembly
//! the system runs on.
//!
//! Exits 1 if any verdict fails.

use arfs_avionics::AvionicsSystem;
use arfs_bench::{banner, verdict, write_json, write_text, TextTable};
use arfs_core::lint::{Assembly, BusSufficiencyPass, LintPass, LintTarget};
use arfs_core::obs::JournalEvent;

/// A payload field rendered for the table: strings verbatim, anything
/// else as JSON, absent fields blank.
fn field(event: &JournalEvent, key: &str) -> String {
    match event.payload.get(key) {
        Some(serde_json::Value::Str(s)) => s.clone(),
        Some(other) => serde_json::to_string(other).unwrap_or_default(),
        None => String::new(),
    }
}

fn main() {
    banner("Figure 1: logical architecture signal flows");

    let mut av = AvionicsSystem::new().expect("builds");
    av.engage_autopilot();
    av.run_frames(10);
    av.fail_alternator(1);
    av.run_frames(10);

    // --- The signal table, replayed from the journal. ---
    let journal = av.system().journal();
    let mut table = TextTable::new(["Frame", "From", "To", "Signal", "Detail"]);
    let mut rows = 0usize;
    for event in journal.events() {
        let topic = match event.kind.as_str() {
            "fault-signal" => "fault",
            "reconfig-signal" => "reconfig",
            "status-signal" => "status",
            _ => continue,
        };
        table.row([
            event.frame.to_string(),
            field(event, "from"),
            field(event, "to"),
            topic.to_string(),
            field(event, "detail"),
        ]);
        rows += 1;
    }
    println!("{table}");
    println!("{rows} signals logged");

    // --- Figure 1 edges. ---
    let mut all_ok = true;
    let mut check = |label: &str, ok: bool| {
        verdict(label, ok);
        all_ok &= ok;
    };
    let fault_edge = journal.of_kind("fault-signal").count() > 0;
    let reconfig_edge = journal.of_kind("reconfig-signal").count() > 0;
    let status_edge = journal.of_kind("status-signal").count() > 0;
    check("fault signals: environment monitor -> SCRAM", fault_edge);
    check(
        "reconfiguration signals: SCRAM -> applications",
        reconfig_edge,
    );
    check(
        "application status signals: applications -> SCRAM",
        status_edge,
    );

    // The TDMA schedule carries all three signal kinds every round:
    // the synchrony and bounded latency the protocol assumes.
    let spec = av.system().spec();
    let assembly = Assembly::derive(spec).expect("the avionics assembly derives");
    let bus_diagnostics = BusSufficiencyPass.run(&LintTarget::assembled(spec, &assembly));
    for diagnostic in &bus_diagnostics {
        println!("{}", diagnostic.render());
    }
    let bus_sufficient = bus_diagnostics.is_empty();
    check(
        "all three signal kinds fit the TDMA bus schedule (ARFS-E008 clean)",
        bus_sufficient,
    );

    // --- The SFTA protocol walk (Table 1), also from the journal. ---
    let phases: Vec<String> = journal
        .of_kind("phase-entered")
        .map(|e| field(e, "phase"))
        .collect();
    check(
        "SCRAM walked halt -> prepare -> initialize",
        phases == ["halt", "prepare", "initialize"],
    );
    check(
        "trigger, stable-storage commits, and completion journaled",
        journal.of_kind("trigger-accepted").count() == 1
            && journal.of_kind("stable-commit").count() > 0
            && journal.of_kind("completed").count() == 1,
    );
    check(
        "reconfiguration completed over the architecture",
        av.system().current_config().as_str() == "reduced-service",
    );

    let journal_path = write_text("fig1_architecture.journal.jsonl", &journal.to_json_lines());
    let metrics_path = write_json(
        "fig1_architecture.metrics.json",
        &av.system().metrics_snapshot().without_wall_clock(),
    );
    let path = write_json(
        "fig1_architecture.json",
        &serde_json::json!({
            "signals_logged": rows,
            "journal_events": journal.len(),
            "bus_slots": assembly.bus.len(),
            "bus_sufficient": bus_sufficient,
            "edges": {
                "fault": fault_edge,
                "reconfig": reconfig_edge,
                "status": status_edge,
            }
        }),
    );
    println!("\nartifact: {}", path.display());
    println!("journal:  {}", journal_path.display());
    println!("metrics:  {}", metrics_path.display());
    if !all_ok {
        std::process::exit(1);
    }
}
