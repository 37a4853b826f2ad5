//! Scenarios: reproducible, serializable failure schedules.
//!
//! Experiments, tests, and incident re-runs all need the same thing: a
//! named, frame-stamped list of stimuli (environment changes, processor
//! failures) applied to a system. A [`Scenario`] captures that list as
//! data — it serializes to JSON, so the exact schedule behind any
//! experiment artifact can be stored alongside it and replayed later.
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

use arfs_failstop::ProcessorId;

use crate::spec::ReconfigSpec;
use crate::system::System;
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

/// A named, replayable schedule of stimuli over a fixed horizon.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Scenario {
    name: String,
    horizon: u64,
    events: Vec<ScenarioEvent>,
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

    /// Drives an already-built system through the scenario.
    ///
    /// Events whose frame is earlier than the system's current frame are
    /// skipped (they are in the system's past); the system runs until
    /// `system.frame() == start + horizon`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Env`] if an event names an unknown factor
    /// or value for the system's specification, and
    /// [`SystemError::UnknownProcessor`] if it fails a processor the
    /// platform does not have.
    pub fn run(&self, system: &mut System) -> Result<(), SystemError> {
        let start = system.frame();
        let mut events: Vec<&ScenarioEvent> = self.events.iter().collect();
        events.sort_by_key(|e| e.frame);
        let mut next = events.into_iter().peekable();
        for frame in start..start + self.horizon {
            while next.peek().is_some_and(|e| e.frame <= frame) {
                let event = next.next().expect("peeked");
                if event.frame < frame {
                    continue; // in the past relative to this run
                }
                match &event.action {
                    ScenarioAction::SetEnv { factor, value } => {
                        system.set_env(factor, value)?;
                    }
                    ScenarioAction::FailProcessor(id) => {
                        if !system.pool().contains(*id) {
                            return Err(SystemError::UnknownProcessor(*id));
                        }
                        system.fail_processor(*id);
                    }
                }
            }
            system.run_frame();
        }
        Ok(())
    }

    /// Builds a [`NullApp`](crate::app::NullApp)-backed system for the
    /// specification, runs the scenario on it from frame 0, and returns
    /// the finished system for inspection.
    ///
    /// # Errors
    ///
    /// Propagates build and environment errors.
    pub fn run_on_spec(&self, spec: &ReconfigSpec) -> Result<System, SystemError> {
        let mut system = System::builder(spec.clone()).build()?;
        self.run(&mut system)?;
        Ok(system)
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
        let scenario = Scenario::new("golden", 16)
            .set_env(3, "power", "bad")
            .fail_processor(9, ProcessorId::new(0));
        let json = serde_json::to_string(&scenario).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, scenario);
        let a = scenario.run_on_spec(&spec()).unwrap();
        let b = back.run_on_spec(&spec()).unwrap();
        assert_eq!(a.trace(), b.trace());
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
