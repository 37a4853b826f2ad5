//! Scenarios: reproducible, serializable failure cases.
//!
//! Experiments, tests, the model checker, deterministic-simulation
//! campaigns and incident re-runs all need the same thing: one case
//! that replays exactly. A [`Scenario`] is that case. It holds three
//! parts:
//!
//! - **stimuli** — a named, frame-stamped list of environment changes
//!   and processor failures applied over a fixed horizon;
//! - a **fault plan** ([`FaultPlan`]) — the substrate faults the chaos
//!   engine injects;
//! - a **failpoint plan** ([`FailpointPlan`]) — the failpoints armed
//!   for exactly that run (they fire only in `failpoints` builds).
//!
//! It serializes to JSON, so the exact case behind any experiment
//! artifact can be stored alongside it and replayed later.
//! [`Scenario::run_with`] is the one way to build and drive a system
//! through a case, [`ScenarioEvent::apply`] the one stimulus step, and
//! [`Scenario::shrink`] the one shrinker: it reduces a failing case to
//! a 1-minimal one against any oracle.
//!
//! # Example
//!
//! ```
//! use arfs_core::prelude::*;
//! use arfs_core::scenario::Scenario;
//!
//! # fn spec() -> ReconfigSpec {
//! #     ReconfigSpec::builder()
//! #         .frame_len(Ticks::new(100))
//! #         .env_factor("power", ["good", "bad"])
//! #         .app(AppDecl::new("a").spec(FunctionalSpec::new("f")).spec(FunctionalSpec::new("d")))
//! #         .config(Configuration::new("full").assign("a", "f").place("a", ProcessorId::new(0)))
//! #         .config(Configuration::new("safe").assign("a", "d").place("a", ProcessorId::new(0)).safe())
//! #         .transition("full", "safe", Ticks::new(800))
//! #         .transition("safe", "full", Ticks::new(800))
//! #         .choose_when("power", "bad", "safe")
//! #         .choose_when("power", "good", "full")
//! #         .initial_config("full")
//! #         .initial_env([("power", "good")])
//! #         .min_dwell_frames(2)
//! #         .build()
//! #         .unwrap()
//! # }
//! let scenario = Scenario::new("power-dip", 20)
//!     .set_env(5, "power", "bad")
//!     .set_env(12, "power", "good");
//! let system = scenario.run_on_spec(&spec())?;
//! assert_eq!(system.trace().len(), 20);
//! assert_eq!(system.trace().get_reconfigs().len(), 2);
//! # Ok::<(), arfs_core::SystemError>(())
//! ```

use std::fmt;

use arfs_assure::FailpointPlan;
use arfs_failstop::ProcessorId;

use crate::chaos::FaultPlan;
use crate::obs::counterexample::ShrinkAction;
use crate::spec::ReconfigSpec;
use crate::system::{System, SystemBuilder};
use crate::SystemError;

/// One stimulus applied to the system.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ScenarioAction {
    /// Change an environment factor (a failure, repair, or genuine
    /// environmental change).
    SetEnv {
        /// The factor to change.
        factor: String,
        /// The new value.
        value: String,
    },
    /// Fail-stop a processor.
    FailProcessor(ProcessorId),
}

/// A frame-stamped stimulus.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioEvent {
    /// The frame at whose start the action is applied.
    pub frame: u64,
    /// The action.
    pub action: ScenarioAction,
}

impl ScenarioEvent {
    /// Applies the action to `system`; it takes effect in the system's
    /// next frame. This is the one stimulus step: [`Scenario::run`] and
    /// the fleet's per-cell cursor both call it.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Env`] for a factor or value the system's
    /// specification does not declare, and
    /// [`SystemError::UnknownProcessor`] for a processor the platform
    /// does not have.
    pub fn apply(&self, system: &mut System) -> Result<(), SystemError> {
        match &self.action {
            ScenarioAction::SetEnv { factor, value } => system.set_env(factor, value),
            ScenarioAction::FailProcessor(id) => {
                if !system.pool().contains(*id) {
                    return Err(SystemError::UnknownProcessor(*id));
                }
                system.fail_processor(*id);
                Ok(())
            }
        }
    }
}

/// The one line format of a stimulus: `f{frame} set-env {factor}={value}`
/// or `f{frame} fail-processor {n}`. [`Scenario::events_line`] joins a
/// case's events in it, and every report, artifact and `arfs-trace`
/// view that prints a case's stimuli goes through that method.
impl fmt::Display for ScenarioEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.action {
            ScenarioAction::SetEnv { factor, value } => {
                write!(f, "f{} set-env {factor}={value}", self.frame)
            }
            ScenarioAction::FailProcessor(id) => {
                write!(f, "f{} fail-processor {}", self.frame, id.raw())
            }
        }
    }
}

/// A named, replayable failure case over a fixed horizon: stimuli, a
/// substrate fault plan and a failpoint plan.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Scenario {
    name: String,
    horizon: u64,
    events: Vec<ScenarioEvent>,
    #[serde(default)]
    faults: FaultPlan,
    #[serde(default)]
    failpoints: FailpointPlan,
}

impl Scenario {
    /// Creates an empty scenario running for `horizon` frames.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn new(name: impl Into<String>, horizon: u64) -> Self {
        assert!(horizon > 0, "scenario horizon must be positive");
        Scenario {
            name: name.into(),
            horizon,
            events: Vec::new(),
            faults: FaultPlan::new(),
            failpoints: FailpointPlan::new(),
        }
    }

    /// Adds an arbitrary event.
    #[must_use]
    pub fn at(mut self, frame: u64, action: ScenarioAction) -> Self {
        self.events.push(ScenarioEvent { frame, action });
        self
    }

    /// Adds an environment change at the given frame.
    #[must_use]
    pub fn set_env(self, frame: u64, factor: impl Into<String>, value: impl Into<String>) -> Self {
        self.at(
            frame,
            ScenarioAction::SetEnv {
                factor: factor.into(),
                value: value.into(),
            },
        )
    }

    /// Adds a processor failure at the given frame.
    #[must_use]
    pub fn fail_processor(self, frame: u64, id: ProcessorId) -> Self {
        self.at(frame, ScenarioAction::FailProcessor(id))
    }

    /// Replaces the substrate fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the failpoint plan.
    #[must_use]
    pub fn with_failpoints(mut self, failpoints: FailpointPlan) -> Self {
        self.failpoints = failpoints;
        self
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of frames the scenario runs.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The events, in insertion order (they are sorted by frame at run
    /// time; same-frame events apply in insertion order).
    pub fn events(&self) -> &[ScenarioEvent] {
        &self.events
    }

    /// The events in the one line format, joined by `; ` (empty for a
    /// case without stimuli): how reports and artifacts print a case.
    pub fn events_line(&self) -> String {
        let lines: Vec<String> = self.events.iter().map(ToString::to_string).collect();
        lines.join("; ")
    }

    /// The substrate fault plan [`run_with`](Scenario::run_with)
    /// installs.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The failpoint plan [`run_with`](Scenario::run_with) arms.
    pub fn failpoints(&self) -> &FailpointPlan {
        &self.failpoints
    }

    /// Drives an already-built system through the scenario's stimuli.
    /// The fault and failpoint plans are not touched: they belong to
    /// the system's construction, which [`run_with`](Scenario::run_with)
    /// owns.
    ///
    /// Events whose frame is earlier than the system's current frame are
    /// skipped (they are in the system's past); the system runs until
    /// `system.frame() == start + horizon`.
    ///
    /// # Errors
    ///
    /// Returns the first error of [`ScenarioEvent::apply`].
    pub fn run(&self, system: &mut System) -> Result<(), SystemError> {
        let start = system.frame();
        let mut events: Vec<&ScenarioEvent> = self.events.iter().collect();
        events.sort_by_key(|e| e.frame);
        let mut next = events
            .into_iter()
            .skip_while(|e| e.frame < start)
            .peekable();
        for frame in start..start + self.horizon {
            while let Some(event) = next.next_if(|e| e.frame == frame) {
                event.apply(system)?;
            }
            system.run_frame();
        }
        Ok(())
    }

    /// Builds a system from `builder` with the scenario's fault plan
    /// installed, runs the scenario on it from frame 0, and returns the
    /// finished system. This is the one build-and-drive entry every
    /// replay goes through.
    ///
    /// A non-empty failpoint plan is armed for exactly this run, build
    /// included, and disarmed on return. An empty plan arms nothing, so
    /// a caller that already holds an [`arfs_assure::CampaignGuard`]
    /// can run a case without failpoints under its own campaign.
    ///
    /// # Errors
    ///
    /// Propagates build errors and the errors of
    /// [`run`](Scenario::run).
    pub fn run_with(&self, builder: SystemBuilder) -> Result<System, SystemError> {
        let _campaign =
            (!self.failpoints.is_empty()).then(|| arfs_assure::install(&self.failpoints));
        let mut system = builder.fault_plan(self.faults.clone()).build()?;
        self.run(&mut system)?;
        Ok(system)
    }

    /// Builds a [`NullApp`](crate::app::NullApp)-backed system for the
    /// specification and runs the scenario on it through
    /// [`run_with`](Scenario::run_with).
    ///
    /// # Errors
    ///
    /// Propagates build and environment errors.
    pub fn run_on_spec(&self, spec: &ReconfigSpec) -> Result<System, SystemError> {
        self.run_with(System::builder(spec.clone()))
    }

    /// Shrinks a failing case to a 1-minimal one. `still_fails` is the
    /// oracle: it is called once per candidate, with the move that
    /// produced it, and returns whether the candidate still fails. A
    /// caller that records every call has the full shrink lineage.
    ///
    /// Five greedy passes repeat until none keeps a candidate:
    ///
    /// - **event removal** — drop each stimulus in turn, keeping the
    ///   candidate whenever the failure persists; at the fixpoint
    ///   removing *any* single event loses it (1-minimality);
    /// - **event left-shift** — move each surviving event one frame
    ///   earlier while the failure persists. Frames stay strictly
    ///   increasing: an event stops one frame after its predecessor
    ///   (or at frame 1);
    /// - **fault removal** — the same discipline over the fault plan;
    /// - **fault left-shift** — each surviving fault moves as early
    ///   (floor: frame 1) as the failure allows; the plan is
    ///   renormalized after the passes;
    /// - **failpoint removal** — drop each armed failpoint entry in
    ///   turn.
    ///
    /// Each kept candidate strictly decreases `(events + faults +
    /// failpoints, Σ frames)` lexicographically, so the loop
    /// terminates; each kept candidate was re-checked and still fails,
    /// so the result does too, provided `self` failed.
    #[must_use]
    pub fn shrink(&self, mut still_fails: impl FnMut(ShrinkAction, &Scenario) -> bool) -> Scenario {
        let mut current = self.clone();
        loop {
            let mut changed = false;
            let mut i = 0;
            while i < current.events.len() {
                let mut candidate = current.clone();
                candidate.events.remove(i);
                if still_fails(ShrinkAction::RemoveEvent { index: i }, &candidate) {
                    current = candidate;
                    changed = true;
                    // The next event now sits at index i; retry it.
                } else {
                    i += 1;
                }
            }
            for i in 0..current.events.len() {
                loop {
                    let from_frame = current.events[i].frame;
                    let floor = if i == 0 {
                        1
                    } else {
                        current.events[i - 1].frame + 1
                    };
                    if from_frame <= floor {
                        break;
                    }
                    let mut candidate = current.clone();
                    candidate.events[i].frame = from_frame - 1;
                    let action = ShrinkAction::ShiftLeft {
                        index: i,
                        from_frame,
                        to_frame: from_frame - 1,
                    };
                    if !still_fails(action, &candidate) {
                        break;
                    }
                    current = candidate;
                    changed = true;
                }
            }
            let mut i = 0;
            while i < current.faults.0.len() {
                let mut candidate = current.clone();
                candidate.faults.0.remove(i);
                if still_fails(ShrinkAction::RemoveFault { index: i }, &candidate) {
                    current = candidate;
                    changed = true;
                } else {
                    i += 1;
                }
            }
            // Faults are not ordered among themselves, so the floor is
            // always frame 1.
            for i in 0..current.faults.0.len() {
                loop {
                    let from_frame = current.faults.0[i].frame;
                    if from_frame <= 1 {
                        break;
                    }
                    let mut candidate = current.clone();
                    candidate.faults.0[i].frame = from_frame - 1;
                    let action = ShrinkAction::ShiftFaultLeft {
                        index: i,
                        from_frame,
                        to_frame: from_frame - 1,
                    };
                    if !still_fails(action, &candidate) {
                        break;
                    }
                    current = candidate;
                    changed = true;
                }
            }
            let mut i = 0;
            while i < current.failpoints.len() {
                let candidate = current
                    .clone()
                    .with_failpoints(current.failpoints.without(i));
                if still_fails(ShrinkAction::RemoveFailpoint { index: i }, &candidate) {
                    current = candidate;
                    changed = true;
                } else {
                    i += 1;
                }
            }
            current.faults.normalize();
            if !changed {
                return current;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use crate::spec::{AppDecl, Configuration, FunctionalSpec};
    use crate::ConfigId;
    use arfs_rtos::Ticks;

    fn spec() -> ReconfigSpec {
        ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["good", "bad"])
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("f"))
                    .spec(FunctionalSpec::new("d")),
            )
            .config(
                Configuration::new("full")
                    .assign("a", "f")
                    .place("a", ProcessorId::new(0)),
            )
            .config(
                Configuration::new("safe")
                    .assign("a", "d")
                    .place("a", ProcessorId::new(0))
                    .safe(),
            )
            .transition("full", "safe", Ticks::new(800))
            .transition("safe", "full", Ticks::new(800))
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .min_dwell_frames(2)
            .build()
            .unwrap()
    }

    #[test]
    fn scenario_drives_a_system_end_to_end() {
        let scenario = Scenario::new("dip", 18).set_env(4, "power", "bad");
        let system = scenario.run_on_spec(&spec()).unwrap();
        assert_eq!(system.trace().len(), 18);
        assert_eq!(system.current_config(), &ConfigId::new("safe"));
        let report = properties::check_extended(system.trace(), system.spec());
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn events_sort_by_frame_regardless_of_insertion_order() {
        let scenario = Scenario::new("out-of-order", 20)
            .set_env(12, "power", "good")
            .set_env(4, "power", "bad");
        let system = scenario.run_on_spec(&spec()).unwrap();
        assert_eq!(system.trace().get_reconfigs().len(), 2);
        assert_eq!(system.current_config(), &ConfigId::new("full"));
    }

    #[test]
    fn scenario_roundtrips_through_json_and_replays_identically() {
        let mut faults = FaultPlan::new();
        faults.push(
            5,
            crate::chaos::FaultKind::CommitFault {
                app: crate::AppId::new("a"),
            },
        );
        // A site no code plants: arming it changes no run, in either
        // feature configuration.
        let mut failpoints = FailpointPlan::new();
        failpoints.push("scenario.test.unplanted", 1, arfs_assure::FpAction::Err);
        let scenario = Scenario::new("golden", 16)
            .set_env(3, "power", "bad")
            .fail_processor(9, ProcessorId::new(0))
            .with_faults(faults)
            .with_failpoints(failpoints);
        let json = serde_json::to_string(&scenario).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, scenario);
        let a = scenario.run_on_spec(&spec()).unwrap();
        let b = back.run_on_spec(&spec()).unwrap();
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.journal().of_kind("torn-write").count(), 1);

        // A scenario saved before cases carried plans decodes with
        // both plans empty.
        let stimuli_only = Scenario::new("golden", 16).set_env(3, "power", "bad");
        let old = r#"{"name":"golden","horizon":16,"events":[{"frame":3,"action":{"SetEnv":{"factor":"power","value":"bad"}}}]}"#;
        assert_eq!(serde_json::from_str::<Scenario>(old).unwrap(), stimuli_only);
    }

    #[test]
    fn events_print_in_the_one_line_format() {
        let env = ScenarioEvent {
            frame: 16,
            action: ScenarioAction::SetEnv {
                factor: "electrical".into(),
                value: "both".into(),
            },
        };
        assert_eq!(env.to_string(), "f16 set-env electrical=both");
        let failure = ScenarioEvent {
            frame: 3,
            action: ScenarioAction::FailProcessor(ProcessorId::new(1)),
        };
        assert_eq!(failure.to_string(), "f3 fail-processor 1");
        let dst = Scenario::new("dst", 30)
            .set_env(5, "power", "bad")
            .set_env(18, "power", "degraded");
        assert_eq!(
            dst.events_line(),
            "f5 set-env power=bad; f18 set-env power=degraded"
        );
        assert_eq!(Scenario::new("quiet", 30).events_line(), "");
    }

    #[test]
    fn run_continues_from_current_frame() {
        let mut system = System::builder(spec()).build().unwrap();
        system.run_frames(5);
        let scenario = Scenario::new("tail", 10).set_env(7, "power", "bad");
        scenario.run(&mut system).unwrap();
        assert_eq!(system.trace().len(), 15);
        assert_eq!(system.current_config(), &ConfigId::new("safe"));
    }

    #[test]
    fn past_events_are_skipped() {
        let mut system = System::builder(spec()).build().unwrap();
        system.run_frames(10);
        // Event at frame 2 is already in the past; nothing happens.
        let scenario = Scenario::new("late", 5).set_env(2, "power", "bad");
        scenario.run(&mut system).unwrap();
        assert_eq!(system.current_config(), &ConfigId::new("full"));
    }

    #[test]
    fn invalid_event_surfaces_an_error() {
        let scenario = Scenario::new("bogus", 5).set_env(1, "power", "purple");
        assert!(scenario.run_on_spec(&spec()).is_err());
    }

    #[test]
    fn failing_a_processor_outside_the_platform_is_an_error() {
        // The same shape as `spec()`, with the safe configuration on a
        // second processor: the platform is P0 and P1.
        let spec = ReconfigSpec::builder()
            .frame_len(Ticks::new(100))
            .env_factor("power", ["good", "bad"])
            .app(
                AppDecl::new("a")
                    .spec(FunctionalSpec::new("f"))
                    .spec(FunctionalSpec::new("d")),
            )
            .config(
                Configuration::new("full")
                    .assign("a", "f")
                    .place("a", ProcessorId::new(0)),
            )
            .config(
                Configuration::new("safe")
                    .assign("a", "d")
                    .place("a", ProcessorId::new(1))
                    .safe(),
            )
            .transition("full", "safe", Ticks::new(800))
            .transition("safe", "full", Ticks::new(800))
            .choose_when("power", "bad", "safe")
            .choose_when("power", "good", "full")
            .initial_config("full")
            .initial_env([("power", "good")])
            .build()
            .unwrap();
        let on_platform = Scenario::new("p1", 6).fail_processor(2, ProcessorId::new(1));
        assert!(on_platform.run_on_spec(&spec).is_ok());
        let off_platform = Scenario::new("p9", 6).fail_processor(2, ProcessorId::new(9));
        assert_eq!(
            off_platform.run_on_spec(&spec).err(),
            Some(SystemError::UnknownProcessor(ProcessorId::new(9)))
        );
    }

    #[test]
    fn accessors() {
        let s = Scenario::new("n", 7).set_env(1, "power", "bad");
        assert_eq!(s.name(), "n");
        assert_eq!(s.horizon(), 7);
        assert_eq!(s.events().len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_horizon_panics() {
        let _ = Scenario::new("z", 0);
    }
}
