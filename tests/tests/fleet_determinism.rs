//! Fleet determinism: a parallel run is byte-identical to the
//! single-threaded run with the same master seed, across shard counts,
//! with and without chaos faults.
//!
//! The fleet report deliberately excludes wall-clock data, so full
//! serialized equality — report JSON *and* the aggregate journal — is
//! the determinism contract.

use std::sync::Arc;

use arfs_avionics::avionics_spec;
use arfs_core::chaos::ChaosProfile;
use arfs_core::fleet::{Fleet, FleetConfig, FleetReport};
use arfs_core::obs::{BinaryJournalReader, BinaryRecord};

fn run(shards: usize, threads: usize, chaos: bool) -> FleetReport {
    let spec = Arc::new(avionics_spec().expect("avionics spec builds"));
    let config = FleetConfig {
        systems: 96,
        shards,
        threads,
        seed: FLEET_SEED,
        journal_sample: 8,
        chaos: chaos.then(|| ChaosProfile::for_spec(&spec, 50)),
        ..FleetConfig::default()
    };
    Fleet::new(spec, config)
        .expect("fleet builds")
        .run()
        .expect("an in-memory journal never fails")
}

const FLEET_SEED: u64 = 0xF1EE7;

#[test]
fn parallel_run_is_byte_identical_to_serial() {
    for chaos in [false, true] {
        let serial = run(3, 1, chaos);
        let serial_json = serde_json::to_string(&serial).expect("report serializes");
        assert!(serial.total_frames == 96 * 120);
        let defenses = serial.metrics.counters["fleet.defense_events"];
        assert_eq!(defenses > 0, chaos, "defenses fire exactly under chaos");

        for (shards, threads) in [(1usize, 1usize), (7, 1), (3, 4), (7, 4), (7, 2)] {
            let parallel = run(shards, threads, chaos);
            assert_eq!(
                serde_json::to_string(&parallel).expect("report serializes"),
                serial_json,
                "chaos={chaos} shards={shards} threads={threads} diverged from serial"
            );
            assert_eq!(
                parallel.journal, serial.journal,
                "aggregate journal diverged at chaos={chaos} shards={shards} threads={threads}"
            );
        }
    }
}

#[test]
fn shard_count_does_not_leak_into_the_report() {
    let a = run(2, 1, false);
    let b = run(11, 1, false);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "shard partitioning must be invisible in the aggregate"
    );
}

#[test]
fn sampled_journal_sections_are_ordered_by_system_id() {
    let report = run(4, 2, false);
    assert!(report.journal_events > 0, "sampling must journal something");
    let mut last_id: i64 = -1;
    let mut records = 0u64;
    for record in BinaryJournalReader::new(report.journal.as_slice()) {
        match record.expect("aggregate journal decodes") {
            BinaryRecord::System { system, .. } => {
                let id = i64::try_from(system).expect("small fleet id");
                assert!(id > last_id, "journal sections out of id order");
                last_id = id;
            }
            BinaryRecord::Event(_) => {
                assert!(last_id >= 0, "events must follow a section header");
            }
        }
        records += 1;
    }
    assert!(last_id >= 0, "at least one section header expected");
    assert_eq!(
        records, report.journal_events,
        "journal_events must count every record in the aggregate"
    );
}
