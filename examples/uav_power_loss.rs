//! The §7 avionics mission: a UAV progressively loses electrical power
//! and the SCRAM walks it down through Full → Reduced → Minimal service.
//!
//! ```sh
//! cargo run --example uav_power_loss
//! ```

use arfs::avionics::{AutopilotMode, AvionicsSystem, PilotInput};
use arfs::core::properties;

fn status(av: &AvionicsSystem, label: &str) {
    let s = av.aircraft_state();
    println!(
        "frame {:>3} [{:<15}] alt {:>6.0} ft  hdg {:>5.1}  power {:<7}  {label}",
        av.system().frame(),
        av.system().current_config(),
        s.altitude_ft,
        s.heading_deg,
        av.world().lock().expect("plant").electrical.env_value(),
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut av = AvionicsSystem::new()?;

    status(&av, "departure: cruising at 5000 ft");
    av.engage_autopilot();
    av.set_autopilot_mode(AutopilotMode::TurnTo(180.0));
    av.run_frames(60);
    status(&av, "autopilot turning to heading 180");

    // Primary alternator fails: the electrical system's exported state
    // changes, the SCRAM reconfigures to Reduced Service (shared
    // computer, altitude hold only, direct law).
    av.fail_alternator(1);
    av.run_frames(12);
    status(&av, "ALTERNATOR 1 FAILED -> reduced service");

    // The §7.1 preconditions held at entry: surfaces centered, autopilot
    // disengaged. The pilot re-engages what remains (altitude hold).
    av.engage_autopilot();
    av.run_frames(40);
    status(&av, "altitude hold re-engaged (only remaining service)");

    // Second alternator fails: battery only, Minimal Service, autopilot
    // off, the pilot hand-flies direct law.
    av.fail_alternator(2);
    av.run_frames(15);
    status(&av, "ALTERNATOR 2 FAILED -> minimal service (battery)");

    av.set_pilot_input(PilotInput {
        pitch: -0.15,
        roll: 0.0,
        throttle: 0.35,
    });
    av.run_frames(120);
    status(&av, "pilot descending for landing on direct law");

    // The assurance story: every reconfiguration in the mission
    // satisfies SP1-SP4.
    let report = properties::check_extended(av.system().trace(), av.system().spec());
    println!("\nreconfigurations:");
    for r in av.system().trace().get_reconfigs() {
        println!(
            "  frames {:>3}..{:>3} ({} cycles)",
            r.start_c,
            r.end_c,
            r.cycles()
        );
    }
    println!("property check: {report}");
    assert!(report.is_ok());
    println!(
        "battery remaining: {:.0}%",
        av.world()
            .lock()
            .expect("plant")
            .electrical
            .battery_charge()
            * 100.0
    );
    Ok(())
}
