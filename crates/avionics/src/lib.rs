//! The hypothetical avionics system of §7 — the paper's example
//! instantiation.
//!
//! "To assess the feasibility of the approach outlined in this paper and
//! to demonstrate the concepts that constitute the approach, we have
//! implemented an example reconfigurable system. The system is a
//! hypothetical avionics system that is representative, in part, of what
//! might be found on a modern UAV or general-aviation aircraft."
//!
//! The example comprises:
//!
//! - an [`Autopilot`] with a primary specification offering four services
//!   (altitude hold, heading hold, climb to altitude, turn to heading)
//!   and a degraded specification offering altitude hold only;
//! - a [`FlightControl`] system (FCS) whose primary specification shapes
//!   pilot/autopilot input with stability augmentation, and whose
//!   degraded specification applies commands directly to the control
//!   surfaces ("direct law");
//! - an [`ElectricalSystem`] of two alternators and a battery, modeled as
//!   an environmental factor: its state changes are the reconfiguration
//!   triggers;
//! - a simple [`Aircraft`] dynamics model with a [`SensorSuite`], so the
//!   control loops close over something real;
//! - the three system configurations of the paper — **Full Service**
//!   (each application on its own computer), **Reduced Service** (both
//!   share one computer; autopilot provides altitude hold only, FCS flies
//!   direct law), and **Minimal Service** (battery power; autopilot off)
//!   — produced by [`avionics_spec`];
//! - [`AvionicsSystem`], which wires the applications into an
//!   [`arfs_core::system::System`] and steps the physical world alongside
//!   the computing platform.
//!
//! The reconfiguration preconditions match §7.1: on entering any new
//! configuration the control surfaces are centered and the autopilot is
//! disengaged; the postcondition of both applications is simply to cease
//! operation. The single §7.1 initialization dependency — the autopilot
//! cannot resume until the FCS has completed its reconfiguration — is
//! declared via `depends_on("fcs")`.
//!
//! # Example
//!
//! ```
//! use arfs_avionics::AvionicsSystem;
//!
//! let mut av = AvionicsSystem::new()?;
//! av.engage_autopilot();
//! av.run_frames(10);
//! av.fail_alternator(1); // primary alternator fails
//! av.run_frames(10);
//! assert_eq!(av.system().current_config().as_str(), "reduced-service");
//! # Ok::<(), arfs_core::SystemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autopilot;
mod dynamics;
mod electrical;
pub mod extended;
mod fcs;
mod sensors;
mod spec;
mod system;

pub use autopilot::{ApControls, Autopilot, AutopilotMode, SharedApControls};
pub use dynamics::{Aircraft, AircraftState, ControlSurfaces, PilotInput};
pub use electrical::{ElectricalSystem, PowerSource};
pub use fcs::FlightControl;
pub use sensors::{SensorReadings, SensorSuite};
pub use spec::{
    avionics_spec, known_bad_mutations, negative_control_spec, quarantine_spec,
    reach_negative_dead_config_spec, reach_negative_trap_spec, three_level_spec, AP_ALT_HOLD,
    AP_PRIMARY, FCS_DIRECT, FCS_PRIMARY, KNOWN_BAD_HORIZON,
};
pub use system::{AvionicsSystem, SharedWorld, SimWorld};
