//! Deterministic, seedable substrate fault injection below the SCRAM.
//!
//! The paper's fail-stop model assumes the substrate — stable storage,
//! the time-triggered bus, the clock — either works or halts
//! detectably. This module weakens that assumption on purpose: a
//! [`FaultPlan`] is a frame-indexed script of substrate faults
//! ([`FaultKind`]) that [`System`](crate::system::System) replays
//! deterministically alongside an environment-change schedule, so the
//! question *"does the recovery machinery itself survive substrate
//! disruption?"* becomes model-checkable.
//!
//! Three fault families are injected, each below the SCRAM's
//! abstraction boundary:
//!
//! - **Torn writes** ([`FaultKind::CommitFault`]) — one application's
//!   stable-storage commit is discarded at the end of the frame, and
//!   the SCRAM's Table 1 stage command for that frame does not take
//!   effect. The frame is atomic: a stage whose commit tore
//!   contributes no protocol progress.
//! - **Bus silence** ([`FaultKind::BusSilence`]) — a processor's
//!   time-triggered slots go quiet for a run of frames without the
//!   processor halting. Membership-by-silence sees a node that is
//!   neither present nor failed; a one-frame silence is exactly the
//!   membership flapping of an intermittent transmitter.
//! - **Clock jitter** ([`FaultKind::ClockJitter`]) — an application's
//!   frame consumes extra ticks, driving deadline-miss bursts through
//!   the RTOS health path.
//!
//! Plans are either hand-written (the known-bad fixtures) or drawn
//! from a seeded [`StdRng`] via [`FaultPlan::random`] under a
//! [`ChaosProfile`]; identical seeds produce identical plans on every
//! platform, so chaos campaigns replay bit-for-bit.
//!
//! The matching defenses live in [`scram`](crate::scram) and
//! [`system`](crate::system), configured by [`ChaosDefense`]: bounded
//! retry-with-backoff on torn commits during reconfiguration, a
//! bus-silence detection window that converts a persistently silent
//! processor into an explicit fail-stop quarantine, and a last-resort
//! safe-state fallback when an in-flight reconfiguration is disrupted
//! beyond its retry budget.

use std::collections::BTreeMap;
use std::fmt;

use arfs_failstop::ProcessorId;
use arfs_ttbus::TtBus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::ReconfigSpec;
use crate::AppId;

/// One kind of injected substrate fault.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub enum FaultKind {
    /// The named application's stable-storage commit tears this frame:
    /// the frame-end commit is discarded and any Table 1 stage the
    /// SCRAM commanded this frame contributes no protocol progress.
    CommitFault {
        /// The application whose commit tears.
        app: AppId,
    },
    /// The processor's bus slots go silent for `frames` consecutive
    /// frames starting at the fault's frame, without the processor
    /// halting. `frames == 1` is a single membership flap.
    BusSilence {
        /// The silent processor.
        processor: ProcessorId,
        /// Length of the silent run in frames (≥ 1).
        frames: u64,
    },
    /// The named application consumes `ticks` extra ticks this frame —
    /// clock jitter surfacing as budget overrun.
    ClockJitter {
        /// The jittered application.
        app: AppId,
        /// Extra ticks consumed (≥ 1).
        ticks: u64,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::CommitFault { app } => write!(f, "torn-write {app}"),
            FaultKind::BusSilence { processor, frames } => {
                write!(f, "bus-silence {processor} x{frames}")
            }
            FaultKind::ClockJitter { app, ticks } => write!(f, "clock-jitter {app} +{ticks}"),
        }
    }
}

/// One scheduled fault: a [`FaultKind`] pinned to a frame.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub struct FaultEvent {
    /// The frame the fault strikes (frame 0 is before any event; plans
    /// conventionally start at frame 1, matching schedules).
    pub frame: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} {}", self.frame, self.kind)
    }
}

/// A deterministic script of substrate faults, sorted by frame.
///
/// A plan composes with a case's stimuli in one
/// [`Scenario`](crate::scenario::Scenario): the model checker replays
/// the same plan under every enumerated schedule, and
/// [`System::fork`](crate::system::System::fork) carries pending chaos
/// state into forks, so chaos campaigns inherit prefix-sharing replay
/// unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultPlan(pub Vec<FaultEvent>);

impl FaultPlan {
    /// The empty plan — no faults; every chaos-aware code path
    /// degenerates to the pre-chaos behavior.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Returns `true` if the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Adds a fault and restores the sorted-by-frame invariant.
    pub fn push(&mut self, frame: u64, kind: FaultKind) {
        self.0.push(FaultEvent { frame, kind });
        self.normalize();
    }

    /// Sorts events by `(frame, kind)` — the canonical plan form. All
    /// constructors maintain this; call it after hand-editing `self.0`.
    pub fn normalize(&mut self) {
        self.0.sort();
    }

    /// The faults scheduled for one frame, in canonical order.
    pub fn events_at(&self, frame: u64) -> impl Iterator<Item = &FaultEvent> {
        self.0.iter().filter(move |e| e.frame == frame)
    }

    /// The last frame with a scheduled fault, or 0 for the empty plan.
    pub fn last_frame(&self) -> u64 {
        self.0.iter().map(|e| e.frame).max().unwrap_or(0)
    }

    /// Draws a random plan from a seeded [`StdRng`] under the given
    /// profile. Identical `(seed, profile)` pairs yield identical
    /// plans on every platform — the vendored generator is a fixed
    /// xoshiro256++, not OS entropy.
    pub fn random(seed: u64, profile: &ChaosProfile) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for frame in 1..=profile.last_fault_frame {
            for app in &profile.apps {
                if profile.commit_fault_permille > 0
                    && rng.gen_range(0..1000u32) < profile.commit_fault_permille
                {
                    plan.0.push(FaultEvent {
                        frame,
                        kind: FaultKind::CommitFault { app: app.clone() },
                    });
                }
                if profile.clock_jitter_permille > 0
                    && rng.gen_range(0..1000u32) < profile.clock_jitter_permille
                {
                    let ticks = rng.gen_range(1..=profile.max_jitter_ticks.max(1));
                    plan.0.push(FaultEvent {
                        frame,
                        kind: FaultKind::ClockJitter {
                            app: app.clone(),
                            ticks,
                        },
                    });
                }
            }
            for &processor in &profile.processors {
                if profile.bus_silence_permille > 0
                    && rng.gen_range(0..1000u32) < profile.bus_silence_permille
                {
                    let frames = rng.gen_range(1..=profile.max_silence_frames.max(1));
                    plan.0.push(FaultEvent {
                        frame,
                        kind: FaultKind::BusSilence { processor, frames },
                    });
                }
            }
        }
        plan.normalize();
        plan
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "(no faults)");
        }
        for (i, event) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{event}")?;
        }
        Ok(())
    }
}

/// Shape of the random-plan distribution [`FaultPlan::random`] draws
/// from. Rates are per-mille per (frame, target) so profiles stay
/// integer-exact and platform-independent.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChaosProfile {
    /// Last frame a fault may be scheduled on (inclusive).
    pub last_fault_frame: u64,
    /// Applications eligible for commit faults and clock jitter.
    pub apps: Vec<AppId>,
    /// Processors eligible for bus silence.
    pub processors: Vec<ProcessorId>,
    /// Per-mille chance of a torn write per (frame, app).
    pub commit_fault_permille: u32,
    /// Per-mille chance of a silent run per (frame, processor).
    pub bus_silence_permille: u32,
    /// Per-mille chance of clock jitter per (frame, app).
    pub clock_jitter_permille: u32,
    /// Longest silent run drawable (≥ 1).
    pub max_silence_frames: u64,
    /// Largest jitter drawable, in ticks (≥ 1).
    pub max_jitter_ticks: u64,
}

impl ChaosProfile {
    /// A moderate profile over every app and processor the spec
    /// declares, faulting up to `last_fault_frame`: ~5% torn writes
    /// and jitter per app-frame, ~2% silence per processor-frame.
    pub fn for_spec(spec: &ReconfigSpec, last_fault_frame: u64) -> ChaosProfile {
        let apps = spec.apps().iter().map(|a| a.id().clone()).collect();
        let mut processors: Vec<ProcessorId> =
            spec.configs().iter().flat_map(|c| c.processors()).collect();
        processors.sort();
        processors.dedup();
        ChaosProfile {
            last_fault_frame,
            apps,
            processors,
            commit_fault_permille: 50,
            bus_silence_permille: 20,
            clock_jitter_permille: 50,
            max_silence_frames: 2,
            max_jitter_ticks: 40,
        }
    }
}

/// Hard ceiling on [`ChaosDefense::retry_backoff_frames`]: however the
/// knob is configured, the SCRAM never inserts more than this many
/// Hold frames after a disrupted attempt. Without the clamp, a large
/// (or adversarial) backoff setting could stall an in-flight
/// reconfiguration arbitrarily long — quietly breaking the paper's
/// Table 1 accounting, where every phase of a reconfiguration has a
/// statically bounded duration. With it, the worst-case stall any
/// retry policy can add is [`ChaosDefense::worst_case_stall_frames`],
/// a compile-time-auditable bound.
pub const MAX_RETRY_BACKOFF_FRAMES: u64 = 8;

/// The defenses' tuning knobs: the [`KernelConfig::defense`] of the
/// SCRAM, which also sets the system's bus-membership watchdog.
///
/// [`KernelConfig::defense`]: crate::scram::KernelConfig::defense
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChaosDefense {
    /// How many disrupted frames an in-flight reconfiguration absorbs
    /// by retrying before the SCRAM abandons the target and falls back
    /// to the safe configuration. 0 means any disruption of an
    /// in-flight reconfiguration falls back immediately.
    pub retry_budget_frames: u64,
    /// Hold frames inserted after each disrupted frame before the next
    /// stage attempt (0 = retry on the very next frame).
    pub retry_backoff_frames: u64,
    /// Consecutive silent frames after which a live-but-silent
    /// processor is quarantined: explicitly failed through
    /// `ProcessorPool` so membership-by-silence becomes an honest
    /// fail-stop. 0 disables quarantine.
    pub quarantine_window_frames: u64,
}

impl ChaosDefense {
    /// The backoff actually applied per retry:
    /// [`retry_backoff_frames`](ChaosDefense::retry_backoff_frames)
    /// clamped to [`MAX_RETRY_BACKOFF_FRAMES`].
    pub fn bounded_backoff_frames(&self) -> u64 {
        self.retry_backoff_frames.min(MAX_RETRY_BACKOFF_FRAMES)
    }

    /// Worst-case frames the retry policy can add to one
    /// reconfiguration attempt before the SCRAM gives up and falls
    /// back: every budgeted retry burns its disrupted frame plus a full
    /// (clamped) backoff window, and the budget-exhausting strike costs
    /// one more frame. Faults striking backoff Hold frames cost
    /// nothing (no protocol progress is voided), so they cannot extend
    /// this bound. This is the figure to add to the fault-free Table 1
    /// phase sum when sizing a deployment's reconfiguration deadline.
    pub fn worst_case_stall_frames(&self) -> u64 {
        self.retry_budget_frames * (1 + self.bounded_backoff_frames()) + 1
    }
}

impl Default for ChaosDefense {
    fn default() -> Self {
        ChaosDefense {
            retry_budget_frames: 2,
            retry_backoff_frames: 0,
            quarantine_window_frames: 3,
        }
    }
}

/// Per-system chaos bookkeeping: the installed plan plus the open
/// bus-silence windows. Cloned verbatim by
/// [`System::fork`](crate::system::System::fork), so a fork continues
/// an in-progress silent run exactly where the parent left it; the
/// watchdog's count of silent frames is the bus's own
/// ([`TtBus::silent_rounds`]), which the fork carries too.
#[derive(Debug, Clone, Default)]
pub struct ChaosState {
    /// The installed fault plan (empty = chaos off).
    pub plan: FaultPlan,
    /// For each silenced processor: the first frame its slots speak
    /// again (exclusive end of the silent run).
    pub silenced_until: BTreeMap<ProcessorId, u64>,
}

impl ChaosState {
    /// Whether the processor's slots are suppressed at `frame`.
    pub fn is_silenced(&self, processor: ProcessorId, frame: u64) -> bool {
        self.silenced_until
            .get(&processor)
            .is_some_and(|&until| frame < until)
    }

    /// Whether the bus-silence watchdog is idle at `frame`: no
    /// processor is silenced at or after it, and no node of `bus` was
    /// silent in its latest round. A silence that just ended keeps a
    /// count on the bus until the next round, so its first frame back
    /// runs in full. An expired window lingers in
    /// [`silenced_until`](ChaosState::silenced_until) until a quarantine
    /// clears it, but affects no frame, so it does not count.
    pub fn quiet_at(&self, frame: u64, bus: &TtBus) -> bool {
        bus.silent_nodes() == 0 && self.silenced_until.values().all(|&until| until <= frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(name: &str) -> AppId {
        AppId::new(name)
    }

    #[test]
    fn plans_normalize_and_index_by_frame() {
        let mut plan = FaultPlan::new();
        assert!(plan.is_empty());
        plan.push(5, FaultKind::CommitFault { app: app("b") });
        plan.push(2, FaultKind::CommitFault { app: app("a") });
        plan.push(
            5,
            FaultKind::BusSilence {
                processor: ProcessorId::new(0),
                frames: 2,
            },
        );
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.0[0].frame, 2);
        assert_eq!(plan.last_frame(), 5);
        assert_eq!(plan.events_at(5).count(), 2);
        assert_eq!(plan.events_at(3).count(), 0);
    }

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let profile = ChaosProfile {
            last_fault_frame: 20,
            apps: vec![app("fcs"), app("autopilot")],
            processors: vec![ProcessorId::new(0), ProcessorId::new(1)],
            commit_fault_permille: 100,
            bus_silence_permille: 60,
            clock_jitter_permille: 80,
            max_silence_frames: 3,
            max_jitter_ticks: 50,
        };
        let a = FaultPlan::random(7, &profile);
        let b = FaultPlan::random(7, &profile);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "rates this high must draw something");
        // Sorted invariant holds on random plans too.
        let mut sorted = a.clone();
        sorted.normalize();
        assert_eq!(a, sorted);
        // A different seed gives a different plan.
        assert_ne!(a, FaultPlan::random(8, &profile));
    }

    #[test]
    fn plans_round_trip_through_serde() {
        let mut plan = FaultPlan::new();
        plan.push(3, FaultKind::CommitFault { app: app("fcs") });
        plan.push(
            4,
            FaultKind::ClockJitter {
                app: app("fcs"),
                ticks: 25,
            },
        );
        let value = serde::Serialize::to_content(&plan);
        let back: FaultPlan = serde::Deserialize::from_content(&value).expect("round trip");
        assert_eq!(back, plan);
    }

    #[test]
    fn display_renders_plans_compactly() {
        assert_eq!(FaultPlan::new().to_string(), "(no faults)");
        let mut plan = FaultPlan::new();
        plan.push(2, FaultKind::CommitFault { app: app("fcs") });
        plan.push(
            3,
            FaultKind::BusSilence {
                processor: ProcessorId::new(1),
                frames: 2,
            },
        );
        let text = plan.to_string();
        assert!(text.contains("@2 torn-write fcs"), "{text}");
        assert!(text.contains("bus-silence"), "{text}");
    }

    #[test]
    fn silence_windows_are_half_open() {
        let mut state = ChaosState::default();
        state.silenced_until.insert(ProcessorId::new(0), 7);
        assert!(state.is_silenced(ProcessorId::new(0), 5));
        assert!(state.is_silenced(ProcessorId::new(0), 6));
        assert!(!state.is_silenced(ProcessorId::new(0), 7));
        assert!(!state.is_silenced(ProcessorId::new(1), 5));
    }

    #[test]
    fn defense_defaults_are_survivable() {
        let d = ChaosDefense::default();
        assert!(d.retry_budget_frames > 0);
        assert!(d.quarantine_window_frames > 0);
    }
}
