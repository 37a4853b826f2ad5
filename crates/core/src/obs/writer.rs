//! Background journal writer: serialization off the frame loop.
//!
//! Even batched, journal serialization used to run *on* the frame loop
//! — every sampled cell paid `to_json_line` for every event inside its
//! frame. The fleet now moves the frame's raw [`JournalEvent`]s out of
//! the system's journal (a frame produces a handful) into a
//! [`JournalBatch`] and hands them to a dedicated writer thread over a
//! **bounded** channel; the writer encodes them with the binary codec
//! ([`super::codec`]) into one per-system section buffer.
//!
//! # Backpressure policy
//!
//! The channel is a `std::sync::mpsc::sync_channel` with a fixed
//! capacity ([`DEFAULT_CHANNEL_CAPACITY`] batches). When the writer
//! falls behind, `send` **blocks the producing frame loop** until a
//! slot frees up. That is a deliberate choice of *lossless over
//! fast*: the journal is assurance evidence, so the alternatives —
//! dropping batches (silent evidence loss) or an unbounded queue
//! (unbounded memory at 10⁵ systems) — are both worse. The capacity
//! bounds the fleet's in-flight journal memory at roughly
//! `capacity × events-per-batch × sizeof(JournalEvent)`, and the
//! `exp_fleet` observability gate (<10% overhead vs. observability
//! off) measures that the policy stays cheap in the sampled steady
//! state.
//!
//! # Determinism
//!
//! Batches from different systems interleave nondeterministically on
//! the channel (thread scheduling), but the writer demultiplexes into
//! one buffer **per system**, and each system's batches are produced in
//! frame order by exactly one producer. The final assembly
//! (per-system sections concatenated in ascending system id, see
//! [`Fleet::aggregate`](crate::fleet)) is therefore byte-identical
//! across thread counts.

use std::collections::BTreeMap;
use std::io;
use std::sync::mpsc::{self, SyncSender};
use std::thread::JoinHandle;

use super::codec;
use super::journal::JournalEvent;

/// Default bound on in-flight batches (see the module documentation's
/// backpressure policy).
pub const DEFAULT_CHANNEL_CAPACITY: usize = 1024;

/// One system's journal events for one flush window, in frame order.
#[derive(Debug)]
pub struct JournalBatch {
    /// Fleet-wide system index.
    pub system: u64,
    /// The system's derived seed (recorded in the section header).
    pub seed: u64,
    /// The events, in the order the system journaled them.
    pub events: Vec<JournalEvent>,
}

/// One finished per-system section.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemJournal {
    /// The system's derived seed.
    pub seed: u64,
    /// Binary-codec event records (no magic, no section header).
    pub bytes: Vec<u8>,
    /// Number of events encoded.
    pub events: u64,
}

/// Handle to the background writer thread.
#[derive(Debug)]
pub struct BackgroundJournalWriter {
    tx: Option<SyncSender<JournalBatch>>,
    handle: Option<JoinHandle<io::Result<BTreeMap<u64, SystemJournal>>>>,
}

impl BackgroundJournalWriter {
    /// Spawns the writer thread with the given channel bound.
    pub fn spawn(channel_capacity: usize) -> Self {
        let (tx, rx) = mpsc::sync_channel::<JournalBatch>(channel_capacity.max(1));
        let handle = std::thread::Builder::new()
            .name("arfs-journal-writer".to_owned())
            .spawn(move || {
                let mut sections: BTreeMap<u64, SystemJournal> = BTreeMap::new();
                for batch in rx {
                    // Failpoint: Err injects a sink failure, Panic crashes
                    // the writer thread mid-drain — both must surface as a
                    // fleet-level error at finish, never hang a producer.
                    arfs_assure::fp!("obs.writer.drain", action => {
                        if matches!(action, arfs_assure::FpAction::Err) {
                            return Err(io::Error::other(
                                "journal writer failpoint: injected sink error",
                            ));
                        }
                    });
                    let section = sections
                        .entry(batch.system)
                        .or_insert_with(|| SystemJournal {
                            seed: batch.seed,
                            bytes: Vec::new(),
                            events: 0,
                        });
                    for event in &batch.events {
                        codec::encode_event(&mut section.bytes, event);
                    }
                    section.events += batch.events.len() as u64;
                }
                Ok(sections)
            })
            .expect("spawn journal writer thread");
        BackgroundJournalWriter {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// A producer handle for one journaling cell. Sends block when the
    /// channel is full (the lossless backpressure policy).
    pub fn sender(&self) -> SyncSender<JournalBatch> {
        self.tx.as_ref().expect("writer still running").clone()
    }

    /// Drops the writer's own sender, waits for the thread to drain the
    /// channel (all producer senders must be dropped first or this
    /// blocks), and returns the per-system sections.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer thread — impossible for
    /// the in-memory `Vec<u8>` sinks used here, but the signature keeps
    /// the writer honest about fallible sinks.
    pub fn finish(mut self) -> io::Result<BTreeMap<u64, SystemJournal>> {
        drop(self.tx.take());
        match self.handle.take().expect("finish called once").join() {
            Ok(result) => result,
            Err(panic) => Err(io::Error::other(format!(
                "journal writer thread panicked: {panic:?}"
            ))),
        }
    }
}

impl Drop for BackgroundJournalWriter {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::codec::{encode_event, BinaryJournalReader, BinaryRecord};
    use crate::obs::Subsystem;
    use serde_json::Value;

    fn event(frame: u64, kind: &str) -> JournalEvent {
        JournalEvent {
            frame,
            subsystem: Subsystem::System,
            kind: kind.to_owned(),
            payload: Value::Null,
        }
    }

    #[test]
    fn interleaved_batches_demux_into_per_system_sections() {
        let writer = BackgroundJournalWriter::spawn(4);
        let tx = writer.sender();
        // Interleave three systems' batches out of id order.
        for frame in 0..5u64 {
            for system in [2u64, 0, 1] {
                tx.send(JournalBatch {
                    system,
                    seed: 0x100 + system,
                    events: vec![event(frame, "frame-start"), event(frame, "frame-end")],
                })
                .unwrap();
            }
        }
        drop(tx);
        let sections = writer.finish().unwrap();
        assert_eq!(sections.len(), 3);
        for (system, section) in &sections {
            assert_eq!(section.seed, 0x100 + system);
            assert_eq!(section.events, 10);
            // Each section decodes to that system's events in frame order.
            let mut expected = Vec::new();
            for frame in 0..5u64 {
                encode_event(&mut expected, &event(frame, "frame-start"));
                encode_event(&mut expected, &event(frame, "frame-end"));
            }
            assert_eq!(section.bytes, expected, "system {system}");
        }
    }

    #[test]
    fn sections_decode_through_the_reader() {
        let writer = BackgroundJournalWriter::spawn(4);
        let tx = writer.sender();
        tx.send(JournalBatch {
            system: 9,
            seed: 7,
            events: vec![event(0, "frame-start")],
        })
        .unwrap();
        drop(tx);
        let sections = writer.finish().unwrap();
        let records: Result<Vec<BinaryRecord>, String> =
            BinaryJournalReader::after_magic(sections[&9].bytes.as_slice()).collect();
        assert_eq!(
            records.unwrap(),
            vec![BinaryRecord::Event(event(0, "frame-start"))]
        );
    }

    #[test]
    fn dropping_the_hub_does_not_hang() {
        let writer = BackgroundJournalWriter::spawn(2);
        let tx = writer.sender();
        tx.send(JournalBatch {
            system: 0,
            seed: 0,
            events: vec![event(0, "frame-start")],
        })
        .unwrap();
        drop(tx);
        drop(writer);
    }
}
