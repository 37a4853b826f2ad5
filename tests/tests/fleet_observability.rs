//! The fleet observability plane, end to end: the golden fleet journal
//! through the shared JSON-Lines reader and writer, triage
//! bundles for forced violations, and the byte-identity of the fleet
//! metrics (folded from the cells at aggregation) across shard and
//! thread counts.

use std::path::PathBuf;
use std::sync::Arc;

use arfs_avionics::avionics_spec;
use arfs_core::fleet::{Fleet, FleetConfig};
use arfs_core::obs::triage::trigger;
use arfs_core::obs::{JournalLine, TriageBundle};
use arfs_core::scram::ScramMutation;

const FLEET_SEED: u64 = 0xF1EE7;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/golden_fleet.journal.jsonl")
}

/// The golden fleet journal goes through the shared line reader and
/// is re-emitted byte-identical: every header and event line survives
/// [`JournalLine::parse`] and [`JournalLine::write`] unchanged.
#[test]
fn golden_fleet_journal_round_trips_through_the_shared_reader() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden fixture reads");
    let mut rewritten = String::new();
    let mut headers = 0usize;
    for line in golden.lines() {
        let line = JournalLine::parse(line).expect("golden line reads");
        headers += usize::from(matches!(line, JournalLine::Header { .. }));
        line.write(&mut rewritten);
    }
    assert!(headers >= 2, "fixture should cover several systems");
    assert_eq!(
        rewritten, golden,
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
