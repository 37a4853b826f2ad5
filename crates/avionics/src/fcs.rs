//! The flight control system (FCS) application.
//!
//! "The FCS provides a single service in its primary specification: it
//! accepts input from the pilot or autopilot and generates commands for
//! the control surface actuators. This primary specification could
//! include stability augmentation facilities designed to reduce pilot
//! workload ... The FCS also implements a second specification in which
//! it provides direct control only, i.e., it applies commands directly to
//! the control surfaces without any augmentation of its input." (§7)
//!
//! Reconfiguration interface (§7.1): the precondition for entering any
//! new configuration is that "the control surfaces be centered, i.e.,
//! not exerting turning forces on the aircraft"; the postcondition is to
//! cease operation.

use arfs_core::app::{AppContext, ReconfigurableApp};
use arfs_core::{AppId, SpecId};

use crate::dynamics::ControlSurfaces;
use crate::spec::FCS_PRIMARY;
use crate::system::SharedWorld;

/// The flight control system application.
#[derive(Clone)]
pub struct FlightControl {
    id: AppId,
    autopilot_id: AppId,
    spec: SpecId,
    world: SharedWorld,
    halted: bool,
    smoothed: ControlSurfaces,
}

impl std::fmt::Debug for FlightControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightControl")
            .field("spec", &self.spec)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl FlightControl {
    /// Creates the FCS in its primary specification.
    pub fn new(world: SharedWorld) -> Self {
        FlightControl {
            id: AppId::new("fcs"),
            autopilot_id: AppId::new("autopilot"),
            spec: SpecId::new(FCS_PRIMARY),
            world,
            halted: false,
            smoothed: ControlSurfaces::centered(),
        }
    }

    /// The surface deflections most recently commanded.
    pub fn last_surfaces(&self) -> ControlSurfaces {
        self.smoothed
    }
}

impl ReconfigurableApp for FlightControl {
    fn id(&self) -> &AppId {
        &self.id
    }

    fn current_spec(&self) -> SpecId {
        self.spec.clone()
    }

    fn run_normal(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
        let is_primary = self.spec.as_str() == FCS_PRIMARY;
        ctx.consume(arfs_rtos::Ticks::new(if is_primary { 35 } else { 12 }));

        // Input selection: the autopilot's last-frame commands (from the
        // stable-storage blackboard) when engaged, otherwise the pilot's
        // stick.
        let ap = ctx.inputs.app(&self.autopilot_id);
        let ap_engaged = ap.and_then(|s| s.get_bool("engaged")).unwrap_or(false);
        let (pitch_cmd, roll_cmd, throttle) = if ap_engaged {
            let ap = ap.expect("engaged implies snapshot present");
            (
                ap.get_f64("cmd_elevator").unwrap_or(0.0),
                ap.get_f64("cmd_aileron").unwrap_or(0.0),
                0.55,
            )
        } else {
            let pilot = self.world.lock().expect("plant").pilot;
            (pilot.pitch, pilot.roll, pilot.throttle)
        };

        let raw = ControlSurfaces {
            elevator: pitch_cmd,
            aileron: roll_cmd,
            throttle,
        }
        .clamped();

        let commanded = if is_primary {
            // Stability augmentation: low-pass the commands and protect
            // the bank envelope.
            let bank = self.world.lock().expect("plant").aircraft.state().bank_deg;
            let mut s = self.smoothed;
            s.elevator += (raw.elevator - s.elevator) * 0.5;
            s.aileron += (raw.aileron - s.aileron) * 0.5;
            s.throttle = raw.throttle;
            if bank > 30.0 {
                s.aileron = s.aileron.min(0.0);
            } else if bank < -30.0 {
                s.aileron = s.aileron.max(0.0);
            }
            s.clamped()
        } else {
            // Direct law: commands pass through unshaped.
            raw
        };

        self.smoothed = commanded;
        self.world.lock().expect("plant").surfaces = commanded;
        ctx.stable.stage_f64("elevator", commanded.elevator);
        ctx.stable.stage_f64("aileron", commanded.aileron);
        ctx.stable.stage_f64("throttle", commanded.throttle);
        Ok(())
    }

    fn halt(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
        // Postcondition: cease operation (the surfaces hold their last
        // commanded position until prepare centers them).
        self.halted = true;
        ctx.stable.stage_str("state", "halted");
        Ok(())
    }

    fn prepare(&mut self, ctx: &mut AppContext<'_>, target: &SpecId) -> Result<(), String> {
        // Establish the transition condition: center the control
        // surfaces so the aircraft's condition in the target
        // configuration is known (§7.1).
        let centered = ControlSurfaces::centered();
        self.smoothed = centered;
        self.world.lock().expect("plant").surfaces = centered;
        ctx.stable.stage_f64("elevator", 0.0);
        ctx.stable.stage_f64("aileron", 0.0);
        ctx.stable.stage_str("prepared_for", target.as_str());
        Ok(())
    }

    fn initialize(&mut self, ctx: &mut AppContext<'_>, target: &SpecId) -> Result<(), String> {
        self.spec = target.clone();
        self.halted = false;
        // Surfaces must still be centered at entry.
        let centered = ControlSurfaces::centered();
        self.smoothed = centered;
        self.world.lock().expect("plant").surfaces = centered;
        ctx.stable.stage_str("state", "running");
        Ok(())
    }

    fn postcondition_established(&self) -> bool {
        self.halted
    }

    fn precondition_established(&self, spec: &SpecId) -> bool {
        !self.halted
            && self.spec == *spec
            && self.world.lock().expect("plant").surfaces.is_centered()
    }
    fn clone_box(&self) -> Box<dyn ReconfigurableApp> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{Aircraft, AircraftState, PilotInput};
    use crate::electrical::ElectricalSystem;
    use crate::sensors::SensorSuite;
    use crate::spec::FCS_DIRECT;
    use crate::system::SimWorld;
    use arfs_core::app::Blackboard;
    use arfs_core::environment::EnvState;
    use arfs_failstop::StableStorage;
    use std::sync::{Arc, Mutex};

    fn world() -> SharedWorld {
        Arc::new(Mutex::new(SimWorld {
            aircraft: Aircraft::new(AircraftState::cruise(5000.0, 0.0), 0.1),
            sensors: SensorSuite::ideal(),
            electrical: ElectricalSystem::new(),
            surfaces: ControlSurfaces::centered(),
            pilot: PilotInput::default(),
        }))
    }

    fn frame(fcs: &mut FlightControl, board: &Blackboard) -> ControlSurfaces {
        let mut stable = StableStorage::new();
        let env = EnvState::default();
        let mut ctx = AppContext {
            frame: 0,
            stable: &mut stable,
            inputs: board,
            env: &env,
            consumed: arfs_rtos::Ticks::ZERO,
        };
        fcs.run_normal(&mut ctx).unwrap();
        fcs.last_surfaces()
    }

    fn autopilot_board(engaged: bool, elevator: f64, aileron: f64) -> Blackboard {
        let mut region = StableStorage::new();
        region.stage_bool("engaged", engaged);
        region.stage_f64("cmd_elevator", elevator);
        region.stage_f64("cmd_aileron", aileron);
        region.commit();
        let mut board = Blackboard::new();
        board.insert(AppId::new("autopilot"), region.snapshot());
        board
    }

    #[test]
    fn direct_law_passes_pilot_input_through() {
        let w = world();
        w.lock().expect("plant").pilot = PilotInput {
            pitch: 0.4,
            roll: -0.3,
            throttle: 0.8,
        };
        let mut fcs = FlightControl::new(w.clone());
        fcs.spec = SpecId::new(FCS_DIRECT);
        let s = frame(&mut fcs, &Blackboard::new());
        assert_eq!(s.elevator, 0.4);
        assert_eq!(s.aileron, -0.3);
        assert_eq!(s.throttle, 0.8);
        assert_eq!(w.lock().expect("plant").surfaces, s);
    }

    #[test]
    fn primary_law_smooths_step_inputs() {
        let w = world();
        w.lock().expect("plant").pilot = PilotInput {
            pitch: 1.0,
            roll: 0.0,
            throttle: 0.5,
        };
        let mut fcs = FlightControl::new(w);
        let s1 = frame(&mut fcs, &Blackboard::new());
        assert!(
            s1.elevator > 0.0 && s1.elevator < 1.0,
            "smoothed: {}",
            s1.elevator
        );
        let s2 = frame(&mut fcs, &Blackboard::new());
        assert!(s2.elevator > s1.elevator, "converging toward the command");
    }

    #[test]
    fn primary_law_protects_bank_envelope() {
        let w = world();
        {
            let mut guard = w.lock().expect("plant");
            let mut st = guard.aircraft.state();
            st.bank_deg = 35.0;
            guard.aircraft = Aircraft::new(st, 0.1);
            guard.pilot = PilotInput {
                pitch: 0.0,
                roll: 1.0,
                throttle: 0.5,
            };
        }
        let mut fcs = FlightControl::new(w);
        let s = frame(&mut fcs, &Blackboard::new());
        assert!(
            s.aileron <= 0.0,
            "over-bank must clamp roll, got {}",
            s.aileron
        );
    }

    #[test]
    fn engaged_autopilot_commands_win_over_pilot() {
        let w = world();
        w.lock().expect("plant").pilot = PilotInput {
            pitch: -1.0,
            roll: -1.0,
            throttle: 0.1,
        };
        let mut fcs = FlightControl::new(w);
        fcs.spec = SpecId::new(FCS_DIRECT);
        let board = autopilot_board(true, 0.2, 0.1);
        let s = frame(&mut fcs, &board);
        assert_eq!(s.elevator, 0.2);
        assert_eq!(s.aileron, 0.1);
    }

    #[test]
    fn disengaged_autopilot_defers_to_pilot() {
        let w = world();
        w.lock().expect("plant").pilot = PilotInput {
            pitch: 0.3,
            roll: 0.0,
            throttle: 0.5,
        };
        let mut fcs = FlightControl::new(w);
        fcs.spec = SpecId::new(FCS_DIRECT);
        let board = autopilot_board(false, 0.9, 0.9);
        let s = frame(&mut fcs, &board);
        assert_eq!(s.elevator, 0.3);
    }

    #[test]
    fn reconfiguration_interface_centers_surfaces() {
        let w = world();
        w.lock().expect("plant").pilot = PilotInput {
            pitch: 0.5,
            roll: 0.5,
            throttle: 0.5,
        };
        let mut fcs = FlightControl::new(w.clone());
        fcs.spec = SpecId::new(FCS_DIRECT);
        frame(&mut fcs, &Blackboard::new());
        assert!(!w.lock().expect("plant").surfaces.is_centered());

        let mut stable = StableStorage::new();
        let board = Blackboard::new();
        let env = EnvState::default();
        let mut ctx = AppContext {
            frame: 1,
            stable: &mut stable,
            inputs: &board,
            env: &env,
            consumed: arfs_rtos::Ticks::ZERO,
        };
        fcs.halt(&mut ctx).unwrap();
        assert!(fcs.postcondition_established());
        // Halting alone does not center: prepare does.
        assert!(!w.lock().expect("plant").surfaces.is_centered());

        let target = SpecId::new(FCS_DIRECT);
        fcs.prepare(&mut ctx, &target).unwrap();
        assert!(w.lock().expect("plant").surfaces.is_centered());

        fcs.initialize(&mut ctx, &target).unwrap();
        assert!(fcs.precondition_established(&target));
        assert_eq!(fcs.current_spec(), target);
    }

    #[test]
    fn precondition_fails_if_surfaces_deflected() {
        let w = world();
        let mut fcs = FlightControl::new(w.clone());
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
        let target = SpecId::new(FCS_DIRECT);
        fcs.halt(&mut ctx).unwrap();
        fcs.prepare(&mut ctx, &target).unwrap();
        fcs.initialize(&mut ctx, &target).unwrap();
        // Someone deflects the surfaces after initialization...
        w.lock().expect("plant").surfaces.elevator = 0.3;
        assert!(!fcs.precondition_established(&target));
    }
}
