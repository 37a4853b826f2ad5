//! Frame-scoped observability: one event model, encoded as a
//! structured journal, a flight-recorder ring and metrics.
//!
//! The paper's Figure 1 argument is about *signal flow* — failure
//! signals into the SCRAM, reconfiguration signals out to the
//! applications, status signals back — yet a running [`System`] is
//! otherwise a black box. This module makes the flow first-class:
//!
//! - `event` — the single source. [`System`] describes each
//!   occurrence of a frame once, as a typed `Event` with borrowed
//!   names, and records it through one `emit`. The journal line, the
//!   ring record and the metrics counter below are each one `match` on
//!   that value, and `kind` is the one name vocabulary they share.
//! - [`journal`] — an append-only, frame-scoped event journal. Every
//!   auditable occurrence (a SCRAM decision, a protocol phase entry, a
//!   stable-storage commit, a bus membership change, a deadline miss, a
//!   fault injection) is one [`JournalEvent`] carrying
//!   `(frame, subsystem, kind, payload)` and serializing as one JSON
//!   line. Journals round-trip through
//!   [`Journal::to_json_lines`]/[`Journal::from_json_lines`], summarize
//!   ([`Journal::summary`]), and diff ([`Journal::diff`]); the
//!   `arfs-trace` CLI in `arfs-bench` drives all three from the shell.
//! - [`metrics`] — the one metrics type: a registry of counters,
//!   gauges, and fixed-size log₂ histograms (reconfiguration latency in
//!   cycles, SCRAM decision time, restricted-frame ratio) snapshot-able
//!   as a JSON artifact. A system, a model-check report, a fleet report
//!   and a triage bundle all carry the same [`MetricsSnapshot`].
//!   Histograms [merge](Log2Histogram::merge), so a fleet folds each
//!   cell's latency histogram at aggregation; triage bundles and
//!   committed artifacts keep
//!   [`MetricsSnapshot::without_wall_clock`], so wall-clock `*_ns`
//!   histograms never make them differ run to run.
//! - [`counterexample`] — the model checker's flight-recorder artifact:
//!   a failing case shrunk to a 1-minimal one, replayed with
//!   observability on, and packaged with its journal, per-frame
//!   verdicts, and derived causal chain. The original case, the
//!   minimized one and every shrink candidate are
//!   [`Scenario`](crate::scenario::Scenario)s, so each replays on its
//!   own. `arfs-trace explain` renders it from the shell.
//! - [`ring`] — per-system flight-recorder ring buffers: fixed-capacity,
//!   heap-preallocated rings of compact 16-byte events written on the
//!   steady-state fast path with zero allocations, decoded via a
//!   spec-derived [`RingLegend`].
//! - [`codec`] — the length-prefixed binary journal encoding the fleet
//!   emits: each sampled fleet cell encodes its own section after every
//!   frame (JSON-Lines stays the interchange format; `arfs-trace fleet
//!   decode` converts back).
//! - [`triage`] — the [`TriageBundle`] evidence package (ring + seed +
//!   the replaying [`Scenario`](crate::scenario::Scenario) + metrics +
//!   causal chain) a fleet emits when a streaming verifier violation or
//!   chaos defense fires.
//!
//! [`System`] exposes the sinks via
//! [`System::journal`](crate::system::System::journal),
//! [`System::metrics`](crate::system::System::metrics) and
//! [`System::flight_ring`](crate::system::System::flight_ring). The
//! journal and metrics are on by default and can be disabled for hot
//! exhaustive-exploration loops with
//! [`SystemBuilder::observability`](crate::system::SystemBuilder::observability);
//! the ring records whenever one was allocated.
//!
//! [`System`]: crate::system::System

pub mod codec;
pub mod counterexample;
mod event;
pub mod journal;
pub mod metrics;
pub mod ring;
pub mod triage;

pub use codec::{BinaryJournalReader, BinaryRecord, JournalBytes};
pub use counterexample::{CausalLink, Counterexample, FrameVerdict, ShrinkAction, ShrinkStep};
pub(crate) use event::{Event, Recorder};
pub use journal::{Journal, JournalDiff, JournalEvent, JournalSummary, Subsystem};
pub use metrics::{
    Log2Bucket, Log2Histogram, Log2HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use ring::{DecodedRingEvent, FlightRing, RingCode, RingEvent, RingLegend};
pub use triage::TriageBundle;
