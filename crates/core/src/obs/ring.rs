//! Per-system flight-recorder ring buffers.
//!
//! The fleet runtime buys its throughput by journaling only 1-in-K
//! systems and running the unsampled majority with observability off —
//! so when a streaming SP1–SP4 violation or a chaos defense fires on an
//! unsampled system, the report used to carry a seed and a schedule but
//! no surrounding evidence. A [`FlightRing`] closes that gap: a
//! fixed-capacity, heap-preallocated ring of compact [`RingEvent`]s
//! (16 bytes each) that every system writes on the hot path with **zero
//! allocations** (proven by `tests/alloc_free_frame.rs`), then drains
//! into a [`TriageBundle`](super::triage::TriageBundle) only when
//! something goes wrong.
//!
//! # Compactness
//!
//! A ring event is `(frame, code, a, b)` — a [`RingCode`] discriminant
//! plus two `u32` arguments whose meaning depends on the code (see the
//! table on [`RingCode`]). Names never enter the ring: configurations,
//! environment factors, and applications are referenced by their index
//! in the specification, and a [`RingLegend`] built once per fleet (off
//! the hot path) resolves indices back to names at decode time.
//!
//! # Run-length coalescing
//!
//! Steady frames dominate a healthy system, and a naive ring of 256
//! events would hold ~256 frames of "nothing happened", evicting the
//! signal. [`FlightRing::bump_run`] coalesces consecutive events of the
//! same code into one event whose `a` argument is the run length, so a
//! quiet stretch of 10⁵ fast frames costs one slot and the interesting
//! events around a reconfiguration survive arbitrarily long runs.

use super::event::kind;
use crate::spec::ReconfigSpec;

/// The kind of a compact ring event, with the meaning of its `(a, b)`
/// arguments:
///
/// | code | `a` | `b` |
/// |------|-----|-----|
/// | `FastFrames` / `FullFrames` | run length | — |
/// | `EnvChanged` | factor index | value index in the factor's domain |
/// | `ProcessorFailed` | processor id | — |
/// | `TriggerAccepted` | source config index | target config index |
/// | `PhaseEntered` | phase index | target config index |
/// | `Retargeted` | old target index | new target index |
/// | `Completed` | config index | latency in cycles |
/// | `DwellSuppressed` | suppressed-until frame (truncated) | — |
/// | `CommitRetry` | retries used | retry budget |
/// | `SafeFallback` | abandoned config index | safe config index |
/// | `TornWrite` | app index | — |
/// | `BusSilenced` | processor id | silence frames |
/// | `ClockJitter` | app index | jitter ticks |
/// | `Quarantined` | processor id | silent frames observed |
/// | `DeadlineMiss` | app index | ticks consumed |
/// | `StageError` | app index | — |
/// | `AppLost` | app index | processor id |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingCode {
    /// A run of allocation-free steady-state fast frames.
    FastFrames,
    /// A run of full frames.
    FullFrames,
    /// An environment factor changed value.
    EnvChanged,
    /// A processor fail-stopped (injected or quarantined-to-failure).
    ProcessorFailed,
    /// The SCRAM accepted a reconfiguration trigger.
    TriggerAccepted,
    /// The SCRAM entered a protocol phase.
    PhaseEntered,
    /// A mid-reconfiguration retarget (§5.3).
    Retargeted,
    /// A reconfiguration completed.
    Completed,
    /// A trigger was suppressed by the dwell guard.
    DwellSuppressed,
    /// A chaos defense: the commit retry path fired.
    CommitRetry,
    /// A chaos defense: fallback to the safe configuration.
    SafeFallback,
    /// A chaos fault: a stable-storage commit tore.
    TornWrite,
    /// A chaos fault: a processor went bus-silent.
    BusSilenced,
    /// A chaos fault: injected clock jitter.
    ClockJitter,
    /// A chaos defense: a silent processor was quarantined.
    Quarantined,
    /// An application overran its compute budget.
    DeadlineMiss,
    /// An application stage returned an error.
    StageError,
    /// An application was lost with its failed host processor.
    AppLost,
}

impl RingCode {
    /// The stable kebab-case name, from the one kind vocabulary the
    /// journal uses too.
    pub fn as_str(self) -> &'static str {
        match self {
            RingCode::FastFrames => kind::FAST_FRAMES,
            RingCode::FullFrames => kind::FULL_FRAMES,
            RingCode::EnvChanged => kind::ENV_CHANGED,
            RingCode::ProcessorFailed => kind::FAULT_INJECTED,
            RingCode::TriggerAccepted => kind::TRIGGER_ACCEPTED,
            RingCode::PhaseEntered => kind::PHASE_ENTERED,
            RingCode::Retargeted => kind::RETARGETED,
            RingCode::Completed => kind::COMPLETED,
            RingCode::DwellSuppressed => kind::DWELL_SUPPRESSED,
            RingCode::CommitRetry => kind::COMMIT_RETRY,
            RingCode::SafeFallback => kind::SAFE_FALLBACK,
            RingCode::TornWrite => kind::TORN_WRITE,
            RingCode::BusSilenced => kind::BUS_SILENCED,
            RingCode::ClockJitter => kind::CLOCK_JITTER,
            RingCode::Quarantined => kind::QUARANTINED,
            RingCode::DeadlineMiss => kind::DEADLINE_MISS,
            RingCode::StageError => kind::STAGE_ERROR,
            RingCode::AppLost => kind::APP_LOST,
        }
    }
}

/// One compact flight-recorder event: 16 bytes, `Copy`, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingEvent {
    /// The frame the event occurred in (for coalesced runs: the first
    /// frame of the run).
    pub frame: u64,
    /// What happened.
    pub code: RingCode,
    /// First argument; see [`RingCode`].
    pub a: u32,
    /// Second argument; see [`RingCode`].
    pub b: u32,
}

/// A fixed-capacity ring of [`RingEvent`]s. All storage is allocated at
/// construction; pushes never touch the heap.
#[derive(Debug, Clone)]
pub struct FlightRing {
    buf: Box<[RingEvent]>,
    /// Index of the oldest event.
    head: usize,
    /// Number of live events.
    len: usize,
}

impl FlightRing {
    /// Allocates a ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let filler = RingEvent {
            frame: 0,
            code: RingCode::FastFrames,
            a: 0,
            b: 0,
        };
        FlightRing {
            buf: vec![filler; capacity.max(1)].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Maximum number of events the ring retains.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Number of live events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an event, evicting the oldest when full. No allocation.
    pub fn push(&mut self, event: RingEvent) {
        let cap = self.buf.len();
        if self.len < cap {
            self.buf[(self.head + self.len) % cap] = event;
            self.len += 1;
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % cap;
        }
    }

    /// Records one frame of a run: if the newest event already has this
    /// `code`, its run length (`a`) is bumped in place; otherwise a new
    /// run of length 1 starts at `frame`. No allocation either way.
    pub fn bump_run(&mut self, frame: u64, code: RingCode) {
        if let Some(last) = self.newest_mut() {
            if last.code == code {
                last.a = last.a.saturating_add(1);
                return;
            }
        }
        self.push(RingEvent {
            frame,
            code,
            a: 1,
            b: 0,
        });
    }

    fn newest_mut(&mut self) -> Option<&mut RingEvent> {
        if self.len == 0 {
            return None;
        }
        let cap = self.buf.len();
        let index = (self.head + self.len - 1) % cap;
        Some(&mut self.buf[index])
    }

    /// Iterates the live events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &RingEvent> {
        let cap = self.buf.len();
        (0..self.len).map(move |i| &self.buf[(self.head + i) % cap])
    }
}

/// Resolves ring-event indices back to specification names. Built once
/// per fleet (off the hot path) and shared.
#[derive(Debug, Clone)]
pub struct RingLegend {
    configs: Vec<String>,
    factors: Vec<(String, Vec<String>)>,
    apps: Vec<String>,
}

/// The phase names `PhaseEntered` indexes into (the SCRAM's Table 1
/// order plus the mutation-only stall).
const PHASES: [&str; 4] = ["halt", "prepare", "initialize", "stall"];

impl RingLegend {
    /// Builds the legend for a specification: configuration order,
    /// environment factors with their domains, application order.
    pub fn for_spec(spec: &ReconfigSpec) -> RingLegend {
        RingLegend {
            configs: spec.configs().iter().map(|c| c.id().to_string()).collect(),
            factors: spec
                .env_model()
                .factors()
                .iter()
                .map(|f| (f.name().to_owned(), f.domain().to_vec()))
                .collect(),
            apps: spec.apps().iter().map(|a| a.id().to_string()).collect(),
        }
    }

    fn config(&self, index: u32) -> String {
        self.configs
            .get(index as usize)
            .cloned()
            .unwrap_or_else(|| format!("config#{index}"))
    }

    fn app(&self, index: u32) -> String {
        self.apps
            .get(index as usize)
            .cloned()
            .unwrap_or_else(|| format!("app#{index}"))
    }

    fn factor_value(&self, factor: u32, value: u32) -> (String, String) {
        match self.factors.get(factor as usize) {
            Some((name, domain)) => (
                name.clone(),
                domain
                    .get(value as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("value#{value}")),
            ),
            None => (format!("factor#{factor}"), format!("value#{value}")),
        }
    }

    /// Decodes one compact event into its human-readable form.
    pub fn decode(&self, event: &RingEvent) -> DecodedRingEvent {
        let (count, detail) = match event.code {
            RingCode::FastFrames | RingCode::FullFrames => (u64::from(event.a), String::new()),
            RingCode::EnvChanged => {
                let (factor, value) = self.factor_value(event.a, event.b);
                (1, format!("{factor}={value}"))
            }
            RingCode::ProcessorFailed => (1, format!("processor {}", event.a)),
            RingCode::TriggerAccepted => (
                1,
                format!("{} -> {}", self.config(event.a), self.config(event.b)),
            ),
            RingCode::PhaseEntered => {
                let phase = PHASES.get(event.a as usize).copied().unwrap_or("phase#?");
                (1, format!("{phase} (target {})", self.config(event.b)))
            }
            RingCode::Retargeted => (
                1,
                format!("{} -> {}", self.config(event.a), self.config(event.b)),
            ),
            RingCode::Completed => (
                1,
                format!("{} after {} cycles", self.config(event.a), event.b),
            ),
            RingCode::DwellSuppressed => (1, format!("until frame {}", event.a)),
            RingCode::CommitRetry => (1, format!("retry {}/{}", event.a, event.b)),
            RingCode::SafeFallback => (
                1,
                format!(
                    "abandoned {} for {}",
                    self.config(event.a),
                    self.config(event.b)
                ),
            ),
            RingCode::TornWrite => (1, self.app(event.a)),
            RingCode::BusSilenced => (1, format!("processor {} for {} frames", event.a, event.b)),
            RingCode::ClockJitter => (1, format!("{} +{} ticks", self.app(event.a), event.b)),
            RingCode::Quarantined => (
                1,
                format!("processor {} after {} silent frames", event.a, event.b),
            ),
            RingCode::DeadlineMiss => (
                1,
                format!("{} consumed {} ticks", self.app(event.a), event.b),
            ),
            RingCode::StageError => (1, self.app(event.a)),
            RingCode::AppLost => (1, format!("{} on processor {}", self.app(event.a), event.b)),
        };
        DecodedRingEvent {
            frame: event.frame,
            kind: event.code.as_str().to_owned(),
            count,
            detail,
        }
    }

    /// Decodes a whole ring, oldest first.
    pub fn decode_ring(&self, ring: &FlightRing) -> Vec<DecodedRingEvent> {
        ring.iter().map(|e| self.decode(e)).collect()
    }
}

/// A ring event with indices resolved to names — the serializable form
/// carried by triage bundles.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DecodedRingEvent {
    /// The frame of the event (first frame of a coalesced run).
    pub frame: u64,
    /// The [`RingCode`] name.
    pub kind: String,
    /// Run length for coalesced frame runs, 1 otherwise.
    pub count: u64,
    /// Human-readable arguments.
    pub detail: String,
}

impl std::fmt::Display for DecodedRingEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{} {}", self.frame, self.kind)?;
        if self.count > 1 {
            write!(f, " x{}", self.count)?;
        }
        if !self.detail.is_empty() {
            write!(f, " {}", self.detail)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(frame: u64, code: RingCode) -> RingEvent {
        RingEvent {
            frame,
            code,
            a: 1,
            b: 2,
        }
    }

    #[test]
    fn ring_retains_newest_events() {
        let mut ring = FlightRing::new(3);
        assert!(ring.is_empty());
        for frame in 0..5 {
            ring.push(event(frame, RingCode::EnvChanged));
        }
        assert_eq!(ring.len(), 3);
        let frames: Vec<u64> = ring.iter().map(|e| e.frame).collect();
        assert_eq!(frames, vec![2, 3, 4]);
    }

    #[test]
    fn bump_run_coalesces_consecutive_frames() {
        let mut ring = FlightRing::new(4);
        for frame in 0..100 {
            ring.bump_run(frame, RingCode::FastFrames);
        }
        assert_eq!(ring.len(), 1);
        let run = ring.iter().next().unwrap();
        assert_eq!(run.frame, 0);
        assert_eq!(run.a, 100);

        ring.push(event(100, RingCode::TriggerAccepted));
        for frame in 101..104 {
            ring.bump_run(frame, RingCode::FullFrames);
        }
        for frame in 104..110 {
            ring.bump_run(frame, RingCode::FastFrames);
        }
        let kinds: Vec<RingCode> = ring.iter().map(|e| e.code).collect();
        assert_eq!(
            kinds,
            vec![
                RingCode::FastFrames,
                RingCode::TriggerAccepted,
                RingCode::FullFrames,
                RingCode::FastFrames
            ]
        );
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut ring = FlightRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(event(0, RingCode::EnvChanged));
        ring.push(event(1, RingCode::Completed));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.iter().next().unwrap().frame, 1);
    }

    #[test]
    fn decoded_events_render_compactly() {
        let d = DecodedRingEvent {
            frame: 7,
            kind: "fast-frames".into(),
            count: 12,
            detail: String::new(),
        };
        assert_eq!(d.to_string(), "@7 fast-frames x12");
        let d = DecodedRingEvent {
            frame: 9,
            kind: "env-changed".into(),
            count: 1,
            detail: "power=bad".into(),
        };
        assert_eq!(d.to_string(), "@9 env-changed power=bad");
    }

    #[test]
    fn every_code_has_a_stable_name() {
        for code in [
            RingCode::FastFrames,
            RingCode::FullFrames,
            RingCode::EnvChanged,
            RingCode::ProcessorFailed,
            RingCode::TriggerAccepted,
            RingCode::PhaseEntered,
            RingCode::Retargeted,
            RingCode::Completed,
            RingCode::DwellSuppressed,
            RingCode::CommitRetry,
            RingCode::SafeFallback,
            RingCode::TornWrite,
            RingCode::BusSilenced,
            RingCode::ClockJitter,
            RingCode::Quarantined,
            RingCode::DeadlineMiss,
            RingCode::StageError,
            RingCode::AppLost,
        ] {
            assert!(!code.as_str().is_empty());
            assert!(code
                .as_str()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '-' || c.is_ascii_digit()));
        }
    }
}
