//! The fleet observability plane, end to end: the binary journal codec
//! against its JSON-Lines interchange form on a golden fixture, triage
//! bundles for forced violations, and the byte-identity of the fleet
//! metrics (folded from the cells at aggregation) across shard and
//! thread counts.

use std::path::PathBuf;
use std::sync::Arc;

use arfs_avionics::avionics_spec;
use arfs_core::fleet::{Fleet, FleetConfig};
use arfs_core::obs::triage::trigger;
use arfs_core::obs::{codec, BinaryJournalReader, BinaryRecord, JournalEvent, TriageBundle};
use arfs_core::scram::ScramMutation;

const FLEET_SEED: u64 = 0xF1EE7;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/golden_fleet.journal.jsonl")
}

/// Parses the golden JSON-Lines fixture into the record stream shape
/// the binary codec encodes: `(header, events)` sections.
fn parse_golden() -> Vec<((u64, u64), Vec<JournalEvent>)> {
    let text = std::fs::read_to_string(golden_path()).expect("golden fixture reads");
    let mut sections: Vec<((u64, u64), Vec<JournalEvent>)> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        if line.starts_with("{\"system\"") {
            let value: serde_json::Value = serde_json::from_str(line).expect("header parses");
            let system = value.get("system").and_then(|v| v.as_u64()).unwrap();
            let seed = value.get("seed").and_then(|v| v.as_u64()).unwrap();
            sections.push(((system, seed), Vec::new()));
        } else {
            let event = JournalEvent::from_json_line(line).expect("event parses");
            sections
                .last_mut()
                .expect("events follow a header")
                .1
                .push(event);
        }
    }
    sections
}

/// The CI agreement gate in test form: encoding the golden JSON-Lines
/// fixture through the binary codec and decoding it back must agree
/// with the JSON decode path record for record, and the re-emitted
/// JSON-Lines must be byte-identical to the fixture.
#[test]
fn binary_codec_agrees_with_json_on_the_golden_fixture() {
    let sections = parse_golden();
    assert!(sections.len() >= 2, "fixture should cover several systems");

    let mut bytes = Vec::new();
    codec::encode_magic(&mut bytes);
    for ((system, seed), events) in &sections {
        codec::encode_system_header(&mut bytes, *system, *seed);
        for event in events {
            codec::encode_event(&mut bytes, event);
        }
    }
    assert!(codec::looks_binary(&bytes));

    let mut decoded_lines = String::new();
    let mut decoded: Vec<((u64, u64), Vec<JournalEvent>)> = Vec::new();
    for record in BinaryJournalReader::new(bytes.as_slice()) {
        match record.expect("binary journal decodes") {
            BinaryRecord::System { system, seed } => {
                decoded_lines.push_str(&format!("{{\"system\":{system},\"seed\":{seed}}}\n"));
                decoded.push(((system, seed), Vec::new()));
            }
            BinaryRecord::Event(event) => {
                decoded_lines.push_str(&event.to_json_line());
                decoded_lines.push('\n');
                decoded.last_mut().expect("header first").1.push(event);
            }
        }
    }
    assert_eq!(decoded, sections, "binary and JSON decode paths disagree");
    assert_eq!(
        decoded_lines,
        std::fs::read_to_string(golden_path()).expect("golden fixture reads"),
        "re-emitted JSON-Lines must be byte-identical to the fixture"
    );
}

fn fleet_config(systems: usize, threads: usize) -> FleetConfig {
    FleetConfig {
        systems,
        threads,
        seed: FLEET_SEED,
        horizon: 120,
        journal_sample: 4,
        ..FleetConfig::default()
    }
}

/// A seeded SCRAM defect must surface as a triage bundle whose ring
/// covers the violating frame window, and the bundle must survive its
/// on-disk JSON round trip (what `arfs-trace fleet triage` consumes).
#[test]
fn forced_violation_yields_a_bundle_covering_the_violation_window() {
    let spec = Arc::new(avionics_spec().expect("avionics spec builds"));
    let mutated = 5usize;
    let config = FleetConfig {
        mutate_system: Some((mutated, ScramMutation::SkipInitPhase)),
        ..fleet_config(16, 2)
    };
    let report = Fleet::new(spec, config)
        .expect("fleet builds")
        .run()
        .expect("an in-memory journal never fails");

    assert!(
        report.violations.iter().any(|v| v.system == mutated),
        "the mutated system must violate"
    );
    let bundle = report
        .bundles
        .iter()
        .find(|b| b.system == mutated)
        .expect("violation must produce a triage bundle");
    assert_eq!(bundle.trigger, trigger::STREAM_VERIFIER);
    assert!(!bundle.ring.is_empty(), "ring must have flight data");
    assert_eq!(
        bundle.causal_chain.last().map(|l| l.role.as_str()),
        Some("violation")
    );
    if let Some(frame) = bundle.frame {
        let oldest = bundle.ring.first().unwrap().frame;
        assert!(
            oldest <= frame,
            "ring (oldest frame {oldest}) must cover the violating frame {frame}"
        );
        assert!(
            bundle.ring.iter().any(|e| e.frame <= frame),
            "ring must contain events in the violation window"
        );
    }

    let back = TriageBundle::from_json(&bundle.to_json()).expect("bundle round-trips");
    assert_eq!(&back, bundle);
}

/// The fleet metrics, folded from the cells in system-id order at
/// aggregation, are part of the serialized report, so this pins them
/// byte-identical across shard and thread counts.
#[test]
fn merged_metrics_are_byte_identical_across_thread_counts() {
    let run = |shards: usize, threads: usize| {
        let spec = Arc::new(avionics_spec().expect("avionics spec builds"));
        let config = FleetConfig {
            shards,
            ..fleet_config(48, threads)
        };
        let report = Fleet::new(spec, config)
            .expect("fleet builds")
            .run()
            .expect("an in-memory journal never fails");
        serde_json::to_string(&report.metrics).expect("metrics serialize")
    };
    let reference = run(3, 1);
    assert!(reference.contains("fleet.frames_fast"));
    for (shards, threads) in [(3, 4), (5, 2), (7, 4)] {
        assert_eq!(
            run(shards, threads),
            reference,
            "metrics diverged at shards={shards} threads={threads}"
        );
    }
}
