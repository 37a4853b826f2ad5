//! The counterexample flight recorder's artifact: a shrunk, replayed,
//! causally annotated account of one property violation.
//!
//! The exhaustive model checker deliberately explores with
//! observability off — thousands of journals nobody reads — so a bare
//! [`CaseFailure`](crate::model::CaseFailure) holds the offending case
//! and its violations, and nothing else. A [`Counterexample`] is the full story
//! reconstructed after the fact:
//!
//! 1. the **original** failing case, exactly as enumerated, as the
//!    [`Scenario`] that replays it (stimuli, fault plan, horizon);
//! 2. the **minimized** case produced by [`Scenario::shrink`] (greedy
//!    event and fault removal to a 1-minimal case, then
//!    frame-left-shifting), with the complete [`ShrinkStep`] lineage so
//!    the reduction is auditable;
//! 3. a **journal** captured by replaying the minimized case with
//!    observability *on* — the frame-by-frame record of how the SCRAM
//!    walked into the violation;
//! 4. **per-frame verdicts** locating each violated property on the
//!    replayed trace; and
//! 5. a derived **causal chain**: trigger event → fault signal → SCRAM
//!    phase entries → the violating frame.
//!
//! Every case in the artifact is a [`Scenario`], so any of them replays
//! through [`Scenario::run_with`] with no out-of-band horizon or parser.
//! The artifact serializes as a single JSON object
//! ([`Counterexample::to_json_pretty`]); `arfs-trace explain` renders
//! it as an annotated timeline. Serialization is fully deterministic —
//! no timestamps, no machine state — so identical runs (serial or
//! work-stealing) produce byte-identical artifacts.

use crate::properties::{PropertyId, PropertyViolation};
use crate::scenario::Scenario;

use super::event::CAUSAL_KINDS;
use super::journal::Journal;

/// One delta-debugging attempt on the failing case.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShrinkStep {
    /// What was tried.
    pub action: ShrinkAction,
    /// The candidate case the action produced.
    pub candidate: Scenario,
    /// Whether the violation persisted — `true` means the candidate
    /// replaced the current case, `false` means it was discarded.
    pub kept: bool,
}

/// The kind of reduction a [`ShrinkStep`] attempted.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ShrinkAction {
    /// Remove the event at `index` from the current case's stimuli.
    RemoveEvent {
        /// Index of the removed event in the pre-removal stimuli.
        index: usize,
    },
    /// Move the event at `index` one frame earlier.
    ShiftLeft {
        /// Index of the shifted event.
        index: usize,
        /// Frame before the shift.
        from_frame: u64,
        /// Frame after the shift.
        to_frame: u64,
    },
    /// Remove the fault at `index` from the current fault plan.
    RemoveFault {
        /// Index of the removed fault in the pre-removal plan.
        index: usize,
    },
    /// Move the fault at `index` to an earlier frame.
    ShiftFaultLeft {
        /// Index of the shifted fault.
        index: usize,
        /// Frame before the shift.
        from_frame: u64,
        /// Frame after the shift.
        to_frame: u64,
    },
    /// Remove the failpoint entry at `index` from the current failpoint
    /// plan (never recorded by the model checker, whose cases arm no
    /// failpoints).
    RemoveFailpoint {
        /// Index of the removed entry in the pre-removal plan.
        index: usize,
    },
}

/// The properties violated at one frame of the replayed trace.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FrameVerdict {
    /// The frame.
    pub frame: u64,
    /// Properties whose violation evidence covers this frame (empty =
    /// the frame is clean).
    pub violated: Vec<PropertyId>,
}

/// One link of the derived causal chain.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CausalLink {
    /// The frame the link sits on.
    pub frame: u64,
    /// The link's role: a causally relevant journal kind
    /// (`"env-changed"`, `"fault-signal"`, `"trigger-accepted"`,
    /// `"phase-entered"`, ...) or the terminal `"violation"`.
    pub role: String,
    /// Human-readable detail.
    pub detail: String,
}

/// A packaged counterexample: the failing case, its shrink lineage,
/// replayed journal, per-frame verdicts, and causal chain. See the
/// [module documentation](self).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Counterexample {
    /// The case the walk engine flagged, exactly as enumerated, under
    /// the fault plan the walk ran with.
    pub case: Scenario,
    /// The 1-minimal case after [`Scenario::shrink`]: removing any
    /// single event or fault makes the violation disappear, and no
    /// event or fault can move to an earlier frame without losing it.
    pub minimized: Scenario,
    /// The violations the *minimized* case's replay produced.
    pub violations: Vec<PropertyViolation>,
    /// Every shrink attempt, in order — the reduction's audit trail.
    pub shrink_steps: Vec<ShrinkStep>,
    /// The journal of the minimized case replayed with observability
    /// on.
    pub journal: Journal,
    /// Per-frame property verdicts over the replayed trace.
    pub frame_verdicts: Vec<FrameVerdict>,
    /// Trigger event → SCRAM phase entries → violating frame.
    pub causal_chain: Vec<CausalLink>,
}

impl Counterexample {
    /// The frame the causal chain terminates on — where the primary
    /// violation's evidence sits.
    pub fn violating_frame(&self) -> Option<u64> {
        self.causal_chain
            .iter()
            .rev()
            .find(|l| l.role == "violation")
            .map(|l| l.frame)
    }

    /// Serializes the artifact as pretty-printed JSON (the
    /// `results/counterexample_*.json` format).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("counterexamples serialize")
    }

    /// Parses an artifact back from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed field.
    pub fn from_json_str(text: &str) -> Result<Counterexample, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// The frame a violation's evidence anchors to: its named frame if
    /// it has one, else the end of its reconfiguration interval, else
    /// the last frame of the trace.
    pub fn anchor_frame(violation: &PropertyViolation, horizon: u64) -> u64 {
        violation
            .frame
            .or(violation.reconfig.map(|r| r.end_c))
            .unwrap_or(horizon.saturating_sub(1))
    }

    /// Computes the per-frame verdicts for a set of violations over a
    /// trace of `horizon` frames. A violation with a named frame marks
    /// that frame; one with only a reconfiguration interval marks every
    /// frame of the interval; one with neither marks the final frame.
    pub fn derive_frame_verdicts(
        violations: &[PropertyViolation],
        horizon: u64,
    ) -> Vec<FrameVerdict> {
        (0..horizon)
            .map(|frame| {
                let mut violated: Vec<PropertyId> = violations
                    .iter()
                    .filter(|v| match (v.frame, v.reconfig) {
                        (Some(f), _) => f == frame,
                        (None, Some(r)) => r.start_c <= frame && frame <= r.end_c,
                        (None, None) => frame + 1 == horizon,
                    })
                    .map(|v| v.property)
                    .collect();
                violated.dedup();
                FrameVerdict { frame, violated }
            })
            .collect()
    }

    /// Derives the causal chain from a replayed journal and the
    /// replay's violations: every causally relevant journal event up to
    /// and including the violating frame, terminated by one
    /// `"violation"` link per violation anchored there.
    pub fn derive_causal_chain(
        journal: &Journal,
        violations: &[PropertyViolation],
        horizon: u64,
    ) -> Vec<CausalLink> {
        let Some(primary) = violations.first() else {
            return Vec::new();
        };
        let violating_frame = Self::anchor_frame(primary, horizon);
        let mut chain: Vec<CausalLink> = journal
            .events()
            .iter()
            .filter(|e| e.frame <= violating_frame && CAUSAL_KINDS.contains(&e.kind.as_str()))
            .map(|e| CausalLink {
                frame: e.frame,
                role: e.kind.clone(),
                detail: if e.payload.is_null() {
                    String::new()
                } else {
                    serde_json::to_string(&e.payload).expect("payload serializes")
                },
            })
            .collect();
        for violation in violations {
            if Self::anchor_frame(violation, horizon) == violating_frame {
                chain.push(CausalLink {
                    frame: violating_frame,
                    role: "violation".into(),
                    detail: violation.to_string(),
                });
            }
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Subsystem;
    use crate::trace::Reconfiguration;

    fn violation(
        property: PropertyId,
        frame: Option<u64>,
        reconfig: Option<Reconfiguration>,
    ) -> PropertyViolation {
        PropertyViolation {
            property,
            reconfig,
            frame,
            detail: "test".into(),
        }
    }

    #[test]
    fn frame_verdicts_cover_points_intervals_and_fallback() {
        let violations = vec![
            violation(PropertyId::Sp4, Some(5), None),
            violation(
                PropertyId::Sp1,
                None,
                Some(Reconfiguration {
                    start_c: 2,
                    end_c: 4,
                }),
            ),
            violation(PropertyId::Sp3, None, None),
        ];
        let verdicts = Counterexample::derive_frame_verdicts(&violations, 8);
        assert_eq!(verdicts.len(), 8);
        assert!(verdicts[0].violated.is_empty());
        assert_eq!(verdicts[2].violated, vec![PropertyId::Sp1]);
        assert_eq!(verdicts[4].violated, vec![PropertyId::Sp1]);
        assert_eq!(verdicts[5].violated, vec![PropertyId::Sp4]);
        assert_eq!(verdicts[7].violated, vec![PropertyId::Sp3]);
    }

    #[test]
    fn causal_chain_ends_at_the_violating_frame() {
        let mut journal = Journal::new();
        journal.record(0, Subsystem::System, "frame-start", serde_json::Value::Null);
        journal.record(
            1,
            Subsystem::Env,
            "env-changed",
            serde_json::json!({"factor": "power", "value": "bad"}),
        );
        journal.record(
            1,
            Subsystem::Scram,
            "trigger-accepted",
            serde_json::json!({"target": "safe"}),
        );
        journal.record(
            2,
            Subsystem::Scram,
            "phase-entered",
            serde_json::json!({"phase": "halt"}),
        );
        journal.record(9, Subsystem::Scram, "completed", serde_json::Value::Null);

        let violations = vec![violation(PropertyId::Sp4, Some(4), None)];
        let chain = Counterexample::derive_causal_chain(&journal, &violations, 10);
        // frame-start is not causal; completed@9 is past the violating
        // frame; the chain is trigger -> phase -> violation.
        let roles: Vec<&str> = chain.iter().map(|l| l.role.as_str()).collect();
        assert_eq!(
            roles,
            [
                "env-changed",
                "trigger-accepted",
                "phase-entered",
                "violation"
            ]
        );
        assert_eq!(chain.last().unwrap().frame, 4);
    }

    #[test]
    fn empty_violations_yield_an_empty_chain() {
        let journal = Journal::new();
        assert!(Counterexample::derive_causal_chain(&journal, &[], 10).is_empty());
    }

    #[test]
    fn counterexample_round_trips_through_json() {
        let mut journal = Journal::new();
        journal.record(
            1,
            Subsystem::Scram,
            "trigger-accepted",
            serde_json::json!({"target": "safe"}),
        );
        let violations = vec![violation(PropertyId::Sp4, Some(4), None)];
        let mut faults = crate::chaos::FaultPlan::new();
        faults.push(
            2,
            crate::chaos::FaultKind::CommitFault {
                app: crate::AppId::new("worker"),
            },
        );
        let minimized = Scenario::new("model-check", 6)
            .set_env(1, "power", "bad")
            .with_faults(faults);
        let case = minimized.clone().set_env(3, "power", "good");
        let ce = Counterexample {
            case,
            minimized: minimized.clone(),
            violations: violations.clone(),
            shrink_steps: vec![
                ShrinkStep {
                    action: ShrinkAction::RemoveEvent { index: 1 },
                    candidate: minimized.clone(),
                    kept: true,
                },
                ShrinkStep {
                    action: ShrinkAction::RemoveFault { index: 0 },
                    candidate: minimized.with_faults(crate::chaos::FaultPlan::new()),
                    kept: false,
                },
            ],
            frame_verdicts: Counterexample::derive_frame_verdicts(&violations, 6),
            causal_chain: Counterexample::derive_causal_chain(&journal, &violations, 6),
            journal,
        };
        let text = ce.to_json_pretty();
        let back = Counterexample::from_json_str(&text).expect("round trip");
        assert_eq!(back, ce);
        assert_eq!(back.to_json_pretty(), text, "serialization is stable");
        assert_eq!(ce.violating_frame(), Some(4));
        assert!(Counterexample::from_json_str("not json").is_err());
    }
}
