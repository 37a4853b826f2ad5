//! Triage bundles: the evidence package a fleet produces when a system
//! misbehaves.
//!
//! The fleet keeps its throughput by journaling only 1-in-K systems, so
//! for the unsampled majority a streaming SP1–SP4 violation would
//! arrive with nothing about *what the system was doing*. Every cell
//! carries a [`FlightRing`](super::ring::FlightRing); when a
//! `StreamVerifier` violation or a chaos defense fires, the fleet
//! drains that ring — plus the seed and the [`Scenario`] that replays
//! the system (stimuli, chaos fault plan, the fleet's horizon) — into
//! a [`TriageBundle`] on the report. The bundle
//! replays from its case alone through [`Scenario::run_with`], and
//! `arfs-trace fleet triage` renders it with the same causal-marker
//! timeline the model checker's counterexamples use ([`CausalLink`]).

use super::counterexample::CausalLink;
use super::event::CAUSAL_KINDS;
use super::ring::DecodedRingEvent;
use crate::scenario::Scenario;

/// What drained the ring into a bundle.
pub mod trigger {
    /// A streaming SP1–SP4 / protocol-conformance violation.
    pub const STREAM_VERIFIER: &str = "stream-verifier";
    /// A chaos defense fired (commit retry, safe fallback, quarantine)
    /// without a property violation.
    pub const CHAOS_DEFENSE: &str = "chaos-defense";
}

/// One system's full triage evidence. Deterministic: bundles are built
/// at fleet aggregation in ascending system id, from state that is
/// itself byte-identical across thread counts.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TriageBundle {
    /// Fleet-wide system index.
    pub system: usize,
    /// The system's derived seed (replays the run).
    pub seed: u64,
    /// What drained the ring (see [`trigger`]).
    pub trigger: String,
    /// The violated property (`"SP2"`, ...), or empty for a pure
    /// chaos-defense bundle.
    pub property: String,
    /// The frame the violation evidence anchors to, if known.
    pub frame: Option<u64>,
    /// The implicated reconfiguration window `(start, end)`, if any.
    pub reconfig: Option<(u64, u64)>,
    /// Human-readable violation / defense detail.
    pub detail: String,
    /// The system's case: its stimuli, its chaos fault plan and the
    /// fleet's horizon.
    pub case: Scenario,
    /// The decoded flight-recorder contents, oldest first.
    pub ring: Vec<DecodedRingEvent>,
    /// Causally relevant ring events up to the violation frame, plus a
    /// terminal `"violation"` link — the same shape `arfs-trace
    /// explain` renders for model-check counterexamples.
    pub causal_chain: Vec<CausalLink>,
}

impl TriageBundle {
    /// Derives the causal chain for a ring: every causally relevant
    /// event at or before the violation frame (all of them when the
    /// frame is unknown), terminated by a `"violation"` link.
    pub fn causal_chain(
        ring: &[DecodedRingEvent],
        frame: Option<u64>,
        property: &str,
        detail: &str,
    ) -> Vec<CausalLink> {
        let mut chain: Vec<CausalLink> = ring
            .iter()
            .filter(|e| CAUSAL_KINDS.contains(&e.kind.as_str()))
            .filter(|e| frame.is_none_or(|f| e.frame <= f))
            .map(|e| CausalLink {
                frame: e.frame,
                role: e.kind.clone(),
                detail: e.detail.clone(),
            })
            .collect();
        chain.push(CausalLink {
            frame: frame.unwrap_or_else(|| chain.last().map_or(0, |l| l.frame)),
            role: "violation".to_owned(),
            detail: if property.is_empty() {
                detail.to_owned()
            } else {
                format!("{property}: {detail}")
            },
        });
        chain
    }

    /// Serializes the bundle as compact JSON (the on-disk form
    /// `arfs-trace fleet triage` consumes).
    pub fn to_json(&self) -> String {
        serde_json::to_string_infallible(self)
    }

    /// Parses a bundle back from JSON.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed field.
    pub fn from_json(text: &str) -> Result<TriageBundle, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_event(frame: u64, kind: &str, detail: &str) -> DecodedRingEvent {
        DecodedRingEvent {
            frame,
            kind: kind.to_owned(),
            count: 1,
            detail: detail.to_owned(),
        }
    }

    #[test]
    fn causal_chain_filters_to_relevant_events_before_the_frame() {
        let ring = vec![
            ring_event(0, "fast-frames", ""),
            ring_event(4, "env-changed", "power=bad"),
            ring_event(5, "trigger-accepted", "full -> safe"),
            ring_event(6, "phase-entered", "halt"),
            ring_event(9, "completed", "safe after 4 cycles"),
            ring_event(11, "env-changed", "power=good"),
        ];
        let chain = TriageBundle::causal_chain(&ring, Some(9), "SP2", "wrong target");
        let roles: Vec<&str> = chain.iter().map(|l| l.role.as_str()).collect();
        assert_eq!(
            roles,
            vec![
                "env-changed",
                "trigger-accepted",
                "phase-entered",
                "completed",
                "violation"
            ]
        );
        assert_eq!(chain.last().unwrap().frame, 9);
        assert_eq!(chain.last().unwrap().detail, "SP2: wrong target");
    }

    #[test]
    fn chain_without_a_frame_keeps_everything() {
        let ring = vec![
            ring_event(3, "quarantined", "processor 1"),
            ring_event(8, "env-changed", "power=bad"),
        ];
        let chain = TriageBundle::causal_chain(&ring, None, "", "defense fired");
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.last().unwrap().frame, 8);
        assert_eq!(chain.last().unwrap().detail, "defense fired");
    }

    #[test]
    fn bundles_round_trip_through_json() {
        let ring = vec![ring_event(4, "env-changed", "power=bad")];
        let bundle = TriageBundle {
            system: 42,
            seed: 0xBEEF,
            trigger: trigger::STREAM_VERIFIER.to_owned(),
            property: "SP2".to_owned(),
            frame: Some(7),
            reconfig: Some((5, 9)),
            detail: "ended in safe-service, expected full-service".to_owned(),
            case: Scenario::new("random-48879", 30).set_env(4, "power", "bad"),
            ring: ring.clone(),
            causal_chain: TriageBundle::causal_chain(&ring, Some(7), "SP2", "wrong target"),
        };
        let json = bundle.to_json();
        let back = TriageBundle::from_json(&json).expect("parses");
        assert_eq!(back, bundle);
    }
}
