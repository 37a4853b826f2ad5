//! The assembled avionics system: applications, kernel, and the physical
//! world, stepping together.

use std::sync::{Arc, Mutex};

use arfs_core::scram::{KernelConfig, SyncPolicy};
use arfs_core::system::System;
use arfs_core::SystemError;

use crate::autopilot::{Autopilot, AutopilotMode, SharedApControls};
use crate::dynamics::{Aircraft, AircraftState, ControlSurfaces, PilotInput};
use crate::electrical::ElectricalSystem;
use crate::fcs::FlightControl;
use crate::sensors::SensorSuite;
use crate::spec::avionics_spec;

/// The simulated physical world the applications sense and actuate.
#[derive(Debug)]
pub struct SimWorld {
    /// The aircraft dynamics model.
    pub aircraft: Aircraft,
    /// The sensor suite sampling the aircraft.
    pub sensors: SensorSuite,
    /// The electrical power system (the trigger source).
    pub electrical: ElectricalSystem,
    /// The control-surface positions the FCS most recently commanded.
    pub surfaces: ControlSurfaces,
    /// The pilot's stick-and-throttle input.
    pub pilot: PilotInput,
}

/// Cheap-to-clone shared handle to the world.
pub type SharedWorld = Arc<Mutex<SimWorld>>;

/// The §7 avionics system, assembled and running.
///
/// Wraps an [`arfs_core::system::System`] built from
/// [`avionics_spec`](crate::avionics_spec) with the concrete
/// [`Autopilot`] and [`FlightControl`] applications, and steps the
/// physical world (aircraft dynamics and electrical system) in lockstep
/// with the computing platform. The aircraft keeps flying during
/// reconfigurations — surfaces hold their commanded position — exactly
/// the situation the §7.1 preconditions are designed for.
pub struct AvionicsSystem {
    system: System,
    world: SharedWorld,
    ap_controls: SharedApControls,
}

impl std::fmt::Debug for AvionicsSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AvionicsSystem")
            .field("frame", &self.system.frame())
            .field("config", self.system.current_config())
            .finish_non_exhaustive()
    }
}

impl AvionicsSystem {
    /// Builds the system with the §6.3 phase-checked kernel (the
    /// autopilot initializes only after the FCS), cruising at 5,000 ft
    /// on heading 090.
    ///
    /// # Errors
    ///
    /// Propagates [`SystemError`] from system assembly.
    pub fn new() -> Result<Self, SystemError> {
        AvionicsSystem::with_kernel(KernelConfig {
            sync: SyncPolicy::PhaseChecked,
            ..KernelConfig::default()
        })
    }

    /// Builds the system with an explicit SCRAM configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`SystemError`] from system assembly.
    pub fn with_kernel(kernel: KernelConfig) -> Result<Self, SystemError> {
        let spec = avionics_spec().expect("avionics specification is valid");
        let dt_s = spec.frame_len().raw() as f64 / 1000.0; // 1 tick = 1 ms
        let world: SharedWorld = Arc::new(Mutex::new(SimWorld {
            aircraft: Aircraft::new(AircraftState::cruise(5000.0, 90.0), dt_s),
            sensors: SensorSuite::ideal(),
            electrical: ElectricalSystem::new(),
            surfaces: ControlSurfaces::centered(),
            pilot: PilotInput {
                pitch: 0.0,
                roll: 0.0,
                throttle: 0.5,
            },
        }));
        let ap_controls: SharedApControls = Arc::default();

        // The electrical system's interface is a virtual monitoring
        // application (§6.3): it samples the exported power state each
        // frame and reports it as the `electrical` environment factor.
        let monitor_world = world.clone();
        let electrical_monitor =
            arfs_core::environment::FnMonitor::new("electrical-monitor", move |_frame| {
                vec![(
                    "electrical".to_string(),
                    monitor_world
                        .lock()
                        .expect("plant")
                        .electrical
                        .env_value()
                        .to_string(),
                )]
            });

        let system = System::builder(spec)
            .kernel(kernel)
            .monitor(Box::new(electrical_monitor))
            .app(Box::new(FlightControl::new(world.clone())))
            .app(Box::new(Autopilot::new(world.clone(), ap_controls.clone())))
            .build()?;

        Ok(AvionicsSystem {
            system,
            world,
            ap_controls,
        })
    }

    /// The underlying reconfigurable system (trace, SCRAM log, events).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// A shared handle to the physical world.
    pub fn world(&self) -> SharedWorld {
        self.world.clone()
    }

    /// The aircraft's current physical state.
    pub fn aircraft_state(&self) -> AircraftState {
        self.world.lock().expect("plant").aircraft.state()
    }

    /// Engages the autopilot (it captures the current altitude/heading).
    pub fn engage_autopilot(&mut self) {
        self.ap_controls.lock().expect("autopilot controls").engage = true;
    }

    /// Disengages the autopilot.
    pub fn disengage_autopilot(&mut self) {
        self.ap_controls.lock().expect("autopilot controls").engage = false;
    }

    /// Selects an autopilot service.
    pub fn set_autopilot_mode(&mut self, mode: AutopilotMode) {
        self.ap_controls.lock().expect("autopilot controls").mode = mode;
    }

    /// Sets the pilot's stick-and-throttle input.
    pub fn set_pilot_input(&mut self, input: PilotInput) {
        self.world.lock().expect("plant").pilot = input;
    }

    /// Fails alternator `1` or `2`. The electrical system's exported
    /// state changes, the monitor reports it, and the SCRAM reconfigures.
    ///
    /// # Panics
    ///
    /// Panics if `which` is not `1` or `2`.
    pub fn fail_alternator(&mut self, which: u8) {
        self.world
            .lock()
            .expect("plant")
            .electrical
            .fail_alternator(which);
    }

    /// Repairs alternator `1` or `2`.
    ///
    /// # Panics
    ///
    /// Panics if `which` is not `1` or `2`.
    pub fn repair_alternator(&mut self, which: u8) {
        self.world
            .lock()
            .expect("plant")
            .electrical
            .repair_alternator(which);
    }

    /// Runs one frame: one platform frame (the registered electrical
    /// monitor samples at its start), then one step of the physical
    /// world.
    pub fn run_frame(&mut self) {
        self.system.run_frame();

        // The world moves regardless of what the computers are doing.
        let mut world = self.world.lock().expect("plant");
        let dt = world.aircraft.dt_s();
        let surfaces = world.surfaces;
        world.aircraft.step(&surfaces);
        world.electrical.step(dt);
    }

    /// Runs `n` frames.
    pub fn run_frames(&mut self, n: u64) {
        for _ in 0..n {
            self.run_frame();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arfs_core::properties;
    use arfs_core::trace::ReconfSt;
    use arfs_core::{AppId, ConfigId, SpecId};

    #[test]
    fn steady_full_service_flight() {
        let mut av = AvionicsSystem::new().unwrap();
        av.engage_autopilot();
        av.run_frames(50);
        assert_eq!(av.system().current_config(), &ConfigId::new("full-service"));
        assert!(av.system().trace().get_reconfigs().is_empty());
        // Autopilot holds ~5000 ft.
        let alt = av.aircraft_state().altitude_ft;
        assert!((alt - 5000.0).abs() < 50.0, "altitude {alt}");
        let report = properties::check_extended(av.system().trace(), av.system().spec());
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn alternator_failure_degrades_to_reduced_service() {
        let mut av = AvionicsSystem::new().unwrap();
        av.engage_autopilot();
        av.run_frames(20);
        av.fail_alternator(1);
        av.run_frames(12);
        assert_eq!(
            av.system().current_config(),
            &ConfigId::new("reduced-service")
        );
        let reconfigs = av.system().trace().get_reconfigs();
        assert_eq!(reconfigs.len(), 1);
        // Phase-checked policy: 1 trigger + 1 halt + 1 prepare + 2 init
        // waves = 5 cycles.
        assert_eq!(reconfigs[0].cycles(), 5);
        let report = properties::check_extended(av.system().trace(), av.system().spec());
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn section_7_1_walkthrough() {
        // "Suppose that the system is operating in the Full Service
        // configuration and an alternator fails..."
        let mut av = AvionicsSystem::new().unwrap();
        av.engage_autopilot();
        av.run_frames(20);
        let snap = av
            .system()
            .app_stable(&AppId::new("autopilot"))
            .expect("autopilot region exists");
        assert_eq!(snap.get_bool("engaged"), Some(true), "autopilot is flying");
        av.fail_alternator(1);
        av.run_frames(12);

        let trace = av.system().trace();
        let r = trace.get_reconfigs()[0];
        // Preconditions at entry (§7.1): surfaces centered and autopilot
        // disengaged were checked and recorded true at end_c.
        let end = trace.state(r.end_c).unwrap();
        assert_eq!(end.apps[&AppId::new("fcs")].pre_ok, Some(true));
        assert_eq!(end.apps[&AppId::new("autopilot")].pre_ok, Some(true));
        // Specifications after the transition.
        assert_eq!(
            end.apps[&AppId::new("fcs")].spec,
            SpecId::new(crate::FCS_DIRECT)
        );
        assert_eq!(
            end.apps[&AppId::new("autopilot")].spec,
            SpecId::new(crate::AP_ALT_HOLD)
        );
        // The initialization dependency: the autopilot initialized in a
        // later wave than the FCS (its pre-final frame shows it still
        // waiting while the FCS initializes).
        let penultimate = trace.state(r.end_c - 1).unwrap();
        assert_eq!(
            penultimate.apps[&AppId::new("fcs")].reconf_st,
            ReconfSt::Initializing
        );
        assert_eq!(
            penultimate.apps[&AppId::new("autopilot")].reconf_st,
            ReconfSt::Prepared
        );
    }

    #[test]
    fn double_failure_ends_in_minimal_service() {
        let mut av = AvionicsSystem::new().unwrap();
        av.engage_autopilot();
        av.run_frames(20);
        av.fail_alternator(1);
        av.run_frames(15);
        av.fail_alternator(2);
        av.run_frames(15);
        assert_eq!(
            av.system().current_config(),
            &ConfigId::new("minimal-service")
        );
        // Autopilot is off; FCS flies direct law from pilot input.
        let last = av.system().trace().states().last().unwrap();
        assert!(last.apps[&AppId::new("autopilot")].spec.is_off());
        let report = properties::check_extended(av.system().trace(), av.system().spec());
        assert!(report.is_ok(), "{report}");
        assert_eq!(av.system().trace().get_reconfigs().len(), 2);
    }

    #[test]
    fn autopilot_must_be_reengaged_after_reconfiguration() {
        let mut av = AvionicsSystem::new().unwrap();
        av.engage_autopilot();
        av.run_frames(20);
        av.fail_alternator(1);
        av.run_frames(15);
        // Disengaged by the halt stage; pilot has not re-engaged.
        let snap = av
            .system()
            .app_stable(&AppId::new("autopilot"))
            .expect("autopilot region exists");
        assert_eq!(snap.get_bool("engaged"), Some(false));
        // Re-engage: altitude hold (the only remaining service) resumes.
        av.engage_autopilot();
        av.run_frames(5);
        let snap = av.system().app_stable(&AppId::new("autopilot")).unwrap();
        assert_eq!(snap.get_bool("engaged"), Some(true));
    }

    #[test]
    fn repair_recovers_full_service_after_dwell() {
        let mut av = AvionicsSystem::new().unwrap();
        av.run_frames(10);
        av.fail_alternator(1);
        av.run_frames(15);
        assert_eq!(
            av.system().current_config(),
            &ConfigId::new("reduced-service")
        );
        av.repair_alternator(1);
        av.run_frames(20);
        assert_eq!(av.system().current_config(), &ConfigId::new("full-service"));
        let report = properties::check_extended(av.system().trace(), av.system().spec());
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn aircraft_keeps_flying_during_reconfiguration() {
        let mut av = AvionicsSystem::new().unwrap();
        av.engage_autopilot();
        av.run_frames(20);
        let alt_before = av.aircraft_state().altitude_ft;
        av.fail_alternator(1);
        av.run_frames(8); // spans the reconfiguration window
        let alt_after = av.aircraft_state().altitude_ft;
        // Surfaces were centered during the transition; the aircraft
        // cannot have departed controlled flight.
        assert!((alt_after - alt_before).abs() < 100.0);
        let dbg = format!("{av:?}");
        assert!(dbg.contains("AvionicsSystem"));
    }

    #[test]
    fn pilot_flies_direct_law_in_minimal_service() {
        let mut av = AvionicsSystem::new().unwrap();
        av.run_frames(5);
        av.fail_alternator(1);
        av.run_frames(15);
        av.fail_alternator(2);
        av.run_frames(15);
        av.set_pilot_input(PilotInput {
            pitch: 0.4,
            roll: 0.0,
            throttle: 0.7,
        });
        let alt_before = av.aircraft_state().altitude_ft;
        av.run_frames(100);
        let alt_after = av.aircraft_state().altitude_ft;
        assert!(
            alt_after > alt_before + 50.0,
            "direct-law climb: {alt_before} -> {alt_after}"
        );
    }

    #[test]
    fn simultaneous_policy_gives_table1_four_cycle_reconfig() {
        let mut av = AvionicsSystem::with_kernel(KernelConfig::default()).unwrap();
        av.run_frames(10);
        av.fail_alternator(1);
        av.run_frames(10);
        let reconfigs = av.system().trace().get_reconfigs();
        assert_eq!(reconfigs.len(), 1);
        assert_eq!(reconfigs[0].cycles(), 4);
        let report = properties::check_extended(av.system().trace(), av.system().spec());
        assert!(report.is_ok(), "{report}");
    }
}
