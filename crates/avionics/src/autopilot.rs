//! The autopilot application.
//!
//! "In its primary specification, the autopilot provides four services to
//! aid the pilot: altitude hold, heading hold, climb to altitude, and
//! turn to heading. It also implements a second specification in which it
//! provides altitude hold only. Its second specification requires
//! substantially less processing and memory resources." (§7)
//!
//! Reconfiguration interface (§7.1): the postcondition is "merely to
//! cease operation"; the precondition for entering any new configuration
//! is that "the autopilot be disengaged".
//!
//! The autopilot publishes its commands (`cmd_elevator`, `cmd_aileron`,
//! `engaged`) to its stable-storage region each frame; the flight-control
//! system reads them from the blackboard the next frame — the paper's
//! inter-application communication "by sharing state through the
//! processors' stable storage".

use arfs_core::app::{AppContext, ReconfigurableApp};
use arfs_core::{AppId, SpecId};
use std::sync::{Arc, Mutex};

use crate::dynamics::heading_error_deg;
use crate::spec::AP_PRIMARY;
use crate::system::SharedWorld;

/// The service the pilot has selected from the autopilot.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub enum AutopilotMode {
    /// Hold the altitude captured at engagement.
    #[default]
    AltitudeHold,
    /// Hold the heading captured at engagement.
    HeadingHold,
    /// Climb (or descend) to the given altitude, then hold it.
    ClimbTo(f64),
    /// Turn to the given heading, then hold it.
    TurnTo(f64),
}

/// Pilot-facing autopilot controls, shared between the cockpit (the
/// [`AvionicsSystem`](crate::AvionicsSystem) wrapper) and the autopilot
/// application.
#[derive(Debug, Default)]
pub struct ApControls {
    /// Whether the pilot has the autopilot engaged.
    pub engage: bool,
    /// The selected service.
    pub mode: AutopilotMode,
}

/// Cheap-to-clone handle to the shared cockpit controls.
pub type SharedApControls = Arc<Mutex<ApControls>>;

/// The autopilot application.
#[derive(Clone)]
pub struct Autopilot {
    id: AppId,
    spec: SpecId,
    world: SharedWorld,
    controls: SharedApControls,
    halted: bool,
    engaged: bool,
    hold_altitude_ft: f64,
    hold_heading_deg: f64,
}

impl std::fmt::Debug for Autopilot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Autopilot")
            .field("spec", &self.spec)
            .field("engaged", &self.engaged)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl Autopilot {
    /// Creates the autopilot in its primary specification.
    pub fn new(world: SharedWorld, controls: SharedApControls) -> Self {
        Autopilot {
            id: AppId::new("autopilot"),
            spec: SpecId::new(AP_PRIMARY),
            world,
            controls,
            halted: false,
            engaged: false,
            hold_altitude_ft: 0.0,
            hold_heading_deg: 0.0,
        }
    }

    /// Returns `true` if the autopilot is currently engaged.
    pub fn is_engaged(&self) -> bool {
        self.engaged
    }

    fn altitude_controller(&self, altitude_ft: f64, vs_fpm: f64, target_ft: f64) -> f64 {
        // Outer loop: altitude error selects a desired vertical speed,
        // bounded to a comfortable climb/descent.
        let desired_vs = ((target_ft - altitude_ft) * 3.0).clamp(-700.0, 700.0);
        // Inner loop: vertical-speed error commands elevator.
        ((desired_vs - vs_fpm) / 1500.0).clamp(-0.6, 0.6)
    }

    fn heading_controller(&self, heading_deg: f64, bank_deg: f64, target_deg: f64) -> f64 {
        let desired_bank = (heading_error_deg(heading_deg, target_deg) * 1.0).clamp(-25.0, 25.0);
        ((desired_bank - bank_deg) / 30.0).clamp(-0.8, 0.8)
    }

    fn publish(ctx: &mut AppContext<'_>, engaged: bool, elevator: f64, aileron: f64) {
        ctx.stable.stage_bool("engaged", engaged);
        ctx.stable.stage_f64("cmd_elevator", elevator);
        ctx.stable.stage_f64("cmd_aileron", aileron);
    }
}

impl ReconfigurableApp for Autopilot {
    fn id(&self) -> &AppId {
        &self.id
    }

    fn current_spec(&self) -> SpecId {
        self.spec.clone()
    }

    fn run_normal(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
        if self.spec.is_off() {
            return Ok(());
        }
        let is_primary = self.spec.as_str() == AP_PRIMARY;
        ctx.consume(arfs_rtos::Ticks::new(if is_primary { 35 } else { 12 }));

        let (readings, mode, want_engage) = {
            let mut world = self.world.lock().expect("plant");
            let state = world.aircraft.state();
            let readings = world.sensors.sample(&state);
            let controls = self.controls.lock().expect("autopilot controls");
            (readings, controls.mode, controls.engage)
        };

        // Engagement edge: capture the current altitude/heading.
        if want_engage && !self.engaged {
            self.engaged = true;
            self.hold_altitude_ft = readings.altitude_ft;
            self.hold_heading_deg = readings.heading_deg;
        } else if !want_engage {
            self.engaged = false;
        }

        if !self.engaged {
            Self::publish(ctx, false, 0.0, 0.0);
            return Ok(());
        }

        // The degraded specification offers altitude hold only.
        let effective_mode = if is_primary {
            mode
        } else {
            AutopilotMode::AltitudeHold
        };

        let (elevator, aileron) = match effective_mode {
            AutopilotMode::AltitudeHold => (
                self.altitude_controller(
                    readings.altitude_ft,
                    readings.vertical_speed_fpm,
                    self.hold_altitude_ft,
                ),
                // Keep wings level while holding altitude.
                ((0.0 - readings.bank_deg) / 30.0).clamp(-0.5, 0.5),
            ),
            AutopilotMode::ClimbTo(target) => (
                self.altitude_controller(readings.altitude_ft, readings.vertical_speed_fpm, target),
                ((0.0 - readings.bank_deg) / 30.0).clamp(-0.5, 0.5),
            ),
            AutopilotMode::HeadingHold => (
                self.altitude_controller(
                    readings.altitude_ft,
                    readings.vertical_speed_fpm,
                    self.hold_altitude_ft,
                ),
                self.heading_controller(
                    readings.heading_deg,
                    readings.bank_deg,
                    self.hold_heading_deg,
                ),
            ),
            AutopilotMode::TurnTo(target) => (
                self.altitude_controller(
                    readings.altitude_ft,
                    readings.vertical_speed_fpm,
                    self.hold_altitude_ft,
                ),
                self.heading_controller(readings.heading_deg, readings.bank_deg, target),
            ),
        };

        Self::publish(ctx, true, elevator, aileron);
        Ok(())
    }

    fn halt(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
        // Postcondition: cease operation. Disengage so the precondition
        // ("the autopilot be disengaged when a new configuration is
        // entered") will hold on initialization; the pilot must re-engage
        // afterwards.
        self.halted = true;
        self.engaged = false;
        self.controls.lock().expect("autopilot controls").engage = false;
        Self::publish(ctx, false, 0.0, 0.0);
        Ok(())
    }

    fn prepare(&mut self, ctx: &mut AppContext<'_>, target: &SpecId) -> Result<(), String> {
        ctx.stable.stage_str("prepared_for", target.as_str());
        Ok(())
    }

    fn initialize(&mut self, ctx: &mut AppContext<'_>, target: &SpecId) -> Result<(), String> {
        // "initializing data such as control system gains" (§6.1): reset
        // captured targets; operation resumes disengaged.
        self.spec = target.clone();
        self.halted = false;
        self.engaged = false;
        self.hold_altitude_ft = 0.0;
        self.hold_heading_deg = 0.0;
        Self::publish(ctx, false, 0.0, 0.0);
        Ok(())
    }

    fn postcondition_established(&self) -> bool {
        self.halted && !self.engaged
    }

    fn precondition_established(&self, spec: &SpecId) -> bool {
        // Disengaged on entry to the new configuration (§7.1). An
        // application whose new specification is `off` trivially
        // satisfies its precondition by not running.
        !self.halted && self.spec == *spec && (spec.is_off() || !self.engaged)
    }
    fn clone_box(&self) -> Box<dyn ReconfigurableApp> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{Aircraft, AircraftState, ControlSurfaces, PilotInput};
    use crate::electrical::ElectricalSystem;
    use crate::sensors::SensorSuite;
    use crate::spec::AP_ALT_HOLD;
    use crate::system::SimWorld;
    use arfs_core::app::Blackboard;
    use arfs_core::environment::EnvState;
    use arfs_failstop::StableStorage;

    fn world_at(altitude: f64, heading: f64) -> SharedWorld {
        Arc::new(Mutex::new(SimWorld {
            aircraft: Aircraft::new(AircraftState::cruise(altitude, heading), 0.1),
            sensors: SensorSuite::ideal(),
            electrical: ElectricalSystem::new(),
            surfaces: ControlSurfaces::centered(),
            pilot: PilotInput::default(),
        }))
    }

    fn run_frame(ap: &mut Autopilot, stable: &mut StableStorage) -> (bool, f64, f64) {
        let board = Blackboard::new();
        let env = EnvState::default();
        let mut ctx = AppContext {
            frame: 0,
            stable,
            inputs: &board,
            env: &env,
            consumed: arfs_rtos::Ticks::ZERO,
        };
        ap.run_normal(&mut ctx).unwrap();
        ctx.stable.commit();
        (
            stable.get_bool("engaged").unwrap_or(false),
            stable.get_f64("cmd_elevator").unwrap_or(0.0),
            stable.get_f64("cmd_aileron").unwrap_or(0.0),
        )
    }

    /// Closed-loop helper: autopilot commands drive the aircraft
    /// directly (no FCS in between) for control-law tests.
    fn fly_closed_loop(ap: &mut Autopilot, world: &SharedWorld, frames: usize) {
        let mut stable = StableStorage::new();
        for _ in 0..frames {
            let (engaged, elev, ail) = run_frame(ap, &mut stable);
            let mut w = world.lock().expect("plant");
            let surfaces = if engaged {
                ControlSurfaces {
                    elevator: elev,
                    aileron: ail,
                    throttle: 0.55,
                }
            } else {
                ControlSurfaces::centered()
            };
            w.surfaces = surfaces;
            let s = surfaces;
            w.aircraft.step(&s);
        }
    }

    #[test]
    fn disengaged_autopilot_commands_nothing() {
        let world = world_at(5000.0, 90.0);
        let controls: SharedApControls = Arc::default();
        let mut ap = Autopilot::new(world.clone(), controls);
        let mut stable = StableStorage::new();
        let (engaged, elev, ail) = run_frame(&mut ap, &mut stable);
        assert!(!engaged);
        assert_eq!(elev, 0.0);
        assert_eq!(ail, 0.0);
        assert!(!ap.is_engaged());
    }

    #[test]
    fn altitude_hold_returns_to_captured_altitude() {
        let world = world_at(5000.0, 90.0);
        let controls: SharedApControls = Arc::default();
        controls.lock().expect("autopilot controls").engage = true;
        controls.lock().expect("autopilot controls").mode = AutopilotMode::AltitudeHold;
        let mut ap = Autopilot::new(world.clone(), controls);
        // Engage at 5000 ft, then disturb the aircraft downward.
        fly_closed_loop(&mut ap, &world, 5);
        {
            let mut w = world.lock().expect("plant");
            let mut st = w.aircraft.state();
            st.altitude_ft = 4800.0;
            w.aircraft = Aircraft::new(st, 0.1);
        }
        fly_closed_loop(&mut ap, &world, 1000);
        let alt = world.lock().expect("plant").aircraft.state().altitude_ft;
        assert!((alt - 5000.0).abs() < 30.0, "altitude {alt}");
    }

    #[test]
    fn climb_to_reaches_target_altitude() {
        let world = world_at(4000.0, 0.0);
        let controls: SharedApControls = Arc::default();
        controls.lock().expect("autopilot controls").engage = true;
        controls.lock().expect("autopilot controls").mode = AutopilotMode::ClimbTo(4500.0);
        let mut ap = Autopilot::new(world.clone(), controls);
        fly_closed_loop(&mut ap, &world, 1200);
        let alt = world.lock().expect("plant").aircraft.state().altitude_ft;
        assert!((alt - 4500.0).abs() < 40.0, "altitude {alt}");
    }

    #[test]
    fn turn_to_reaches_target_heading() {
        let world = world_at(5000.0, 10.0);
        let controls: SharedApControls = Arc::default();
        controls.lock().expect("autopilot controls").engage = true;
        controls.lock().expect("autopilot controls").mode = AutopilotMode::TurnTo(70.0);
        let mut ap = Autopilot::new(world.clone(), controls);
        fly_closed_loop(&mut ap, &world, 1500);
        let h = world.lock().expect("plant").aircraft.state().heading_deg;
        assert!(
            heading_error_deg(h, 70.0).abs() < 5.0,
            "heading {h} (target 70)"
        );
    }

    #[test]
    fn degraded_spec_refuses_heading_services() {
        let world = world_at(5000.0, 0.0);
        let controls: SharedApControls = Arc::default();
        controls.lock().expect("autopilot controls").engage = true;
        controls.lock().expect("autopilot controls").mode = AutopilotMode::TurnTo(90.0);
        let mut ap = Autopilot::new(world.clone(), controls);
        ap.spec = SpecId::new(AP_ALT_HOLD);
        // Bank the aircraft so wings-leveling produces a (negative)
        // aileron command rather than a turn-toward-90 command.
        {
            let mut w = world.lock().expect("plant");
            let mut st = w.aircraft.state();
            st.bank_deg = 20.0;
            w.aircraft = Aircraft::new(st, 0.1);
        }
        let mut stable = StableStorage::new();
        let (engaged, _elev, ail) = run_frame(&mut ap, &mut stable);
        assert!(engaged);
        assert!(ail < 0.0, "degraded autopilot must level wings, got {ail}");
    }

    #[test]
    fn reconfiguration_interface_walks_protocol() {
        let world = world_at(5000.0, 0.0);
        let controls: SharedApControls = Arc::default();
        controls.lock().expect("autopilot controls").engage = true;
        let mut ap = Autopilot::new(world.clone(), controls.clone());
        let mut stable = StableStorage::new();
        run_frame(&mut ap, &mut stable);
        assert!(ap.is_engaged());

        let board = Blackboard::new();
        let env = EnvState::default();
        let mut ctx = AppContext {
            frame: 1,
            stable: &mut stable,
            inputs: &board,
            env: &env,
            consumed: arfs_rtos::Ticks::ZERO,
        };
        ap.halt(&mut ctx).unwrap();
        assert!(ap.postcondition_established());
        assert!(
            !controls.lock().expect("autopilot controls").engage,
            "halt disengages the cockpit switch"
        );

        let target = SpecId::new(AP_ALT_HOLD);
        ap.prepare(&mut ctx, &target).unwrap();
        assert!(ap.postcondition_established());

        ap.initialize(&mut ctx, &target).unwrap();
        assert!(ap.precondition_established(&target));
        assert_eq!(ap.current_spec(), target);
        assert!(!ap.is_engaged(), "resumes disengaged (§7.1 precondition)");
        assert!(!ap.precondition_established(&SpecId::new(AP_PRIMARY)));
    }

    #[test]
    fn off_spec_is_inert() {
        let world = world_at(5000.0, 0.0);
        let controls: SharedApControls = Arc::default();
        let mut ap = Autopilot::new(world, controls);
        let mut stable = StableStorage::new();
        let board = Blackboard::new();
        let env = EnvState::default();
        let mut ctx = AppContext {
            frame: 0,
            stable: &mut stable,
            inputs: &board,
            env: &env,
            consumed: arfs_rtos::Ticks::ZERO,
        };
        ap.halt(&mut ctx).unwrap();
        ap.initialize(&mut ctx, &SpecId::off()).unwrap();
        assert!(ap.precondition_established(&SpecId::off()));
        assert!(ap.run_normal(&mut ctx).is_ok());
        assert_eq!(ctx.consumed, arfs_rtos::Ticks::ZERO);
    }
}
