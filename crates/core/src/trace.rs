//! System traces: the executable analogue of the PVS `sys_trace` type.
//!
//! The paper's formal model represents a run of the system as a function
//! from cycle to system state, where a system state carries each
//! application's reconfiguration status (`reconf_st`), the current
//! service level (`svclvl`), and the environment. Reconfigurations are
//! extracted from a trace (`get_reconfigs`) as the intervals during which
//! the system was not in normal operation, and the four properties of
//! Table 2 quantify over those intervals.
//!
//! States here are **end-of-frame** snapshots: the state recorded for
//! frame `f` is the state the system is in when frame `f`'s unit of work
//! and stable-storage commit have completed. Under that convention the
//! Table 1 protocol produces, for a trigger at frame `t`:
//!
//! | frame  | reconf_st (affected / others) |
//! |--------|-------------------------------|
//! | t-1    | normal / normal               |
//! | t      | interrupted / normal          |
//! | t+1    | halted                        |
//! | t+2    | prepared                      |
//! | t+3    | normal (operating under Cⱼ)   |
//!
//! so `start_c = t`, `end_c = t + 3`, and the reconfiguration spans
//! `end_c - start_c + 1 = 4` cycles.

use std::collections::BTreeMap;

use crate::app::ConfigStatus;
use crate::environment::EnvState;
use crate::{AppId, ConfigId, SpecId};

/// An application's reconfiguration status at the end of a frame — the
/// `reconf_st` field of the PVS model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ReconfSt {
    /// Operating normally under its current specification.
    Normal,
    /// Its fault-tolerant action was interrupted by the trigger; the
    /// application can no longer continue under the current
    /// configuration.
    Interrupted,
    /// Ceased execution with its postcondition established.
    Halted,
    /// Transition condition for the target specification established.
    Prepared,
    /// Mid-initialization (only observed when initialization takes more
    /// than one frame or the application waits for a dependency).
    Initializing,
}

impl ReconfSt {
    /// Returns `true` for [`ReconfSt::Normal`].
    pub fn is_normal(self) -> bool {
        matches!(self, ReconfSt::Normal)
    }
}

/// Everything recorded about one application in one frame.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AppFrameRecord {
    /// End-of-frame reconfiguration status.
    pub reconf_st: ReconfSt,
    /// The specification the application operates under (or is moving
    /// to).
    pub spec: SpecId,
    /// The configuration-status command the SCRAM issued this frame.
    pub commanded: ConfigStatus,
    /// Result of the postcondition check, when a halt stage ran.
    pub post_ok: Option<bool>,
    /// Result of the precondition check, when an initialize stage
    /// completed.
    pub pre_ok: Option<bool>,
    /// `true` if the application could not run this frame because its
    /// host processor has failed ("applications lost due to a processor
    /// failure are known to have been lost", §5.2).
    #[serde(default)]
    pub lost: bool,
}

/// The complete system state at the end of one frame — the PVS
/// `sys_state`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SysState {
    /// Frame index.
    pub frame: u64,
    /// The system's current configuration (service level).
    pub svclvl: ConfigId,
    /// The environment state in effect during the frame.
    pub env: EnvState,
    /// Per-application records.
    pub apps: BTreeMap<AppId, AppFrameRecord>,
}

impl SysState {
    /// Returns `true` if every application is in normal operation.
    pub fn all_normal(&self) -> bool {
        self.apps.values().all(|a| a.reconf_st.is_normal())
    }

    /// Returns `true` if any application is in a non-normal state.
    pub fn any_reconfiguring(&self) -> bool {
        !self.all_normal()
    }
}

/// A reconfiguration interval extracted from a trace: the PVS
/// `reconfiguration` record.
///
/// `start_c` is the first cycle in which some application is no longer
/// operating normally (the trigger cycle); `end_c` is the first
/// subsequent cycle in which all applications operate normally again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Reconfiguration {
    /// Cycle in which the reconfiguration starts.
    pub start_c: u64,
    /// Cycle in which the reconfiguration ends.
    pub end_c: u64,
}

impl Reconfiguration {
    /// Number of cycles the reconfiguration spans, inclusive
    /// (`end_c - start_c + 1`).
    pub fn cycles(&self) -> u64 {
        self.end_c - self.start_c + 1
    }
}

/// Where one state falls among the reconfiguration intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cut {
    /// All applications normal, no interval open.
    Steady,
    /// The interval's first restricted state: `start_c`.
    Start,
    /// A restricted state after `start_c`.
    Inside,
    /// The first all-normal state after `start_c`: `end_c`.
    End(Reconfiguration),
}

/// Interval cutting, one state at a time: the single definition of
/// `start_c`/`end_c`, shared by [`SysTrace::get_reconfigs`] and the
/// property monitors ([`crate::properties::Monitors`]). An interval
/// starts at the first state with some application not normal and ends
/// at the next state with all normal, so the states before `start_c`
/// and at `end_c` are all-normal by construction.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntervalCut {
    start: Option<u64>,
}

impl IntervalCut {
    /// Classifies the next state of the trace and advances the cut.
    pub fn step(&mut self, state: &SysState) -> Cut {
        match (self.start, state.all_normal()) {
            (None, true) => Cut::Steady,
            (None, false) => {
                self.start = Some(state.frame);
                Cut::Start
            }
            (Some(_), false) => Cut::Inside,
            (Some(start_c), true) => {
                self.start = None;
                Cut::End(Reconfiguration {
                    start_c,
                    end_c: state.frame,
                })
            }
        }
    }

    /// The start cycle of the interval still open, if any.
    pub fn open(&self) -> Option<u64> {
        self.start
    }
}

/// A recorded system trace: one [`SysState`] per frame from frame 0.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SysTrace {
    states: Vec<SysState>,
}

impl SysTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        SysTrace::default()
    }

    /// Appends a frame state.
    ///
    /// # Panics
    ///
    /// Panics if the state's frame index is not exactly one past the last
    /// recorded frame (traces are contiguous by construction).
    pub fn push(&mut self, state: SysState) {
        let expected = self.states.last().map(|s| s.frame + 1).unwrap_or(0);
        assert_eq!(
            state.frame, expected,
            "trace frames must be contiguous (expected {expected}, got {})",
            state.frame
        );
        self.states.push(state);
    }

    /// Iterates all recorded states, oldest first.
    pub fn states(&self) -> impl Iterator<Item = &SysState> {
        self.states.iter()
    }

    /// Collects all recorded states into a fresh vector.
    pub fn states_vec(&self) -> Vec<SysState> {
        self.states.clone()
    }

    /// The state at a frame, if recorded.
    pub fn state(&self, frame: u64) -> Option<&SysState> {
        self.states.get(frame as usize)
    }

    /// Number of recorded frames.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Extracts all *completed* reconfigurations — the PVS
    /// `get_reconfigs`.
    ///
    /// An interval that is still open at the end of the trace is not
    /// returned here; see
    /// [`SysTrace::open_reconfiguration`].
    pub fn get_reconfigs(&self) -> Vec<Reconfiguration> {
        let mut cut = IntervalCut::default();
        self.states
            .iter()
            .filter_map(|state| match cut.step(state) {
                Cut::End(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    /// The start cycle of a reconfiguration still in progress at the end
    /// of the trace, if any.
    pub fn open_reconfiguration(&self) -> Option<u64> {
        let mut cut = IntervalCut::default();
        for state in &self.states {
            cut.step(state);
        }
        cut.open()
    }

    /// Frames in which the system's service was restricted (some
    /// application not normal) — the quantity bounded by the §5.3
    /// analysis.
    pub fn restricted_frames(&self) -> u64 {
        self.states.iter().filter(|s| s.any_reconfiguring()).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(st: ReconfSt) -> AppFrameRecord {
        AppFrameRecord {
            reconf_st: st,
            spec: SpecId::new("s"),
            commanded: ConfigStatus::Normal,
            post_ok: None,
            pre_ok: None,
            lost: false,
        }
    }

    fn state(frame: u64, sts: &[(&str, ReconfSt)]) -> SysState {
        SysState {
            frame,
            svclvl: ConfigId::new("c"),
            env: EnvState::default(),
            apps: sts
                .iter()
                .map(|(name, st)| (AppId::new(*name), record(*st)))
                .collect(),
        }
    }

    #[test]
    fn reconfigs_extracted_from_boundaries() {
        let mut t = SysTrace::new();
        t.push(state(
            0,
            &[("a", ReconfSt::Normal), ("b", ReconfSt::Normal)],
        ));
        t.push(state(
            1,
            &[("a", ReconfSt::Interrupted), ("b", ReconfSt::Normal)],
        ));
        t.push(state(
            2,
            &[("a", ReconfSt::Halted), ("b", ReconfSt::Halted)],
        ));
        t.push(state(
            3,
            &[("a", ReconfSt::Prepared), ("b", ReconfSt::Prepared)],
        ));
        t.push(state(
            4,
            &[("a", ReconfSt::Normal), ("b", ReconfSt::Normal)],
        ));
        t.push(state(
            5,
            &[("a", ReconfSt::Normal), ("b", ReconfSt::Normal)],
        ));
        let rs = t.get_reconfigs();
        assert_eq!(
            rs,
            vec![Reconfiguration {
                start_c: 1,
                end_c: 4
            }]
        );
        assert_eq!(rs[0].cycles(), 4);
        assert_eq!(t.open_reconfiguration(), None);
        assert_eq!(t.restricted_frames(), 3);
    }

    #[test]
    fn multiple_reconfigs_extracted() {
        let mut t = SysTrace::new();
        for f in 0..3 {
            t.push(state(f, &[("a", ReconfSt::Normal)]));
        }
        t.push(state(3, &[("a", ReconfSt::Interrupted)]));
        t.push(state(4, &[("a", ReconfSt::Normal)]));
        t.push(state(5, &[("a", ReconfSt::Interrupted)]));
        t.push(state(6, &[("a", ReconfSt::Halted)]));
        t.push(state(7, &[("a", ReconfSt::Normal)]));
        let rs = t.get_reconfigs();
        assert_eq!(rs.len(), 2);
        assert_eq!(
            rs[0],
            Reconfiguration {
                start_c: 3,
                end_c: 4
            }
        );
        assert_eq!(
            rs[1],
            Reconfiguration {
                start_c: 5,
                end_c: 7
            }
        );
    }

    #[test]
    fn open_reconfiguration_detected() {
        let mut t = SysTrace::new();
        t.push(state(0, &[("a", ReconfSt::Normal)]));
        t.push(state(1, &[("a", ReconfSt::Interrupted)]));
        t.push(state(2, &[("a", ReconfSt::Halted)]));
        assert!(t.get_reconfigs().is_empty());
        assert_eq!(t.open_reconfiguration(), Some(1));
    }

    #[test]
    fn trace_starting_mid_reconfig_counts_from_first_frame() {
        let mut t = SysTrace::new();
        t.push(state(0, &[("a", ReconfSt::Halted)]));
        t.push(state(1, &[("a", ReconfSt::Normal)]));
        let rs = t.get_reconfigs();
        assert_eq!(
            rs,
            vec![Reconfiguration {
                start_c: 0,
                end_c: 1
            }]
        );
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn non_contiguous_push_panics() {
        let mut t = SysTrace::new();
        t.push(state(0, &[("a", ReconfSt::Normal)]));
        t.push(state(2, &[("a", ReconfSt::Normal)]));
    }

    #[test]
    fn sys_state_helpers() {
        let s = state(0, &[("a", ReconfSt::Normal), ("b", ReconfSt::Halted)]);
        assert!(!s.all_normal());
        assert!(s.any_reconfiguring());
        let s = state(0, &[("a", ReconfSt::Normal)]);
        assert!(s.all_normal());
        assert!(ReconfSt::Normal.is_normal());
        assert!(!ReconfSt::Prepared.is_normal());
    }

    #[test]
    fn empty_trace_behaves() {
        let t = SysTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.get_reconfigs().is_empty());
        assert_eq!(t.open_reconfiguration(), None);
        assert_eq!(t.restricted_frames(), 0);
        assert!(t.state(0).is_none());
    }
}
