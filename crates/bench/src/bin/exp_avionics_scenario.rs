//! Regenerates the **§7.1 scenario**: the full avionics mission with
//! electrical failures, as a frame-stamped narrative.
//!
//! "Suppose that the system is operating in the Full Service
//! configuration and an alternator fails. The electrical system will
//! switch to use the other alternator, and its interface will inform the
//! SCRAM of the failure ... Based on the static reconfiguration table,
//! the SCRAM commands a change to the Reduced Service configuration."
//!
//! The mission here goes further: engage the autopilot, climb, lose
//! alternator 1 (→ Reduced Service), repair it (→ Full Service), then
//! lose both (→ Minimal Service, battery power, pilot flies direct law).
//! Every reconfiguration is verified against SP1–SP4 and the §7.1
//! pre/postconditions.

use arfs_avionics::{AutopilotMode, AvionicsSystem, PilotInput};
use arfs_bench::{banner, verdict, write_json, TextTable};
use arfs_core::properties;
use arfs_core::AppId;

fn main() {
    banner("Experiment E3: the §7.1 avionics mission");

    let mut av = AvionicsSystem::new().expect("builds");
    let mut timeline =
        TextTable::new(["Frame", "Event", "Configuration", "Altitude (ft)", "Power"]);
    let log = |av: &AvionicsSystem, table: &mut TextTable, event: &str| {
        table.row([
            av.system().frame().to_string(),
            event.to_string(),
            av.system().current_config().to_string(),
            format!("{:.0}", av.aircraft_state().altitude_ft),
            av.world()
                .lock()
                .expect("plant")
                .electrical
                .env_value()
                .to_string(),
        ]);
    };

    log(&av, &mut timeline, "takeoff state: cruise 5000 ft, hdg 090");
    av.engage_autopilot();
    av.set_autopilot_mode(AutopilotMode::ClimbTo(5300.0));
    log(&av, &mut timeline, "autopilot engaged, climb to 5300");
    av.run_frames(40);
    log(&av, &mut timeline, "climbing under full service");

    av.fail_alternator(1);
    log(&av, &mut timeline, "ALTERNATOR 1 FAILS");
    av.run_frames(12);
    log(&av, &mut timeline, "reconfiguration complete");
    let after_first = av.system().current_config().clone();

    av.engage_autopilot(); // pilot re-engages (alt-hold only now)
    av.run_frames(30);
    log(&av, &mut timeline, "holding altitude in reduced service");

    av.repair_alternator(1);
    log(&av, &mut timeline, "alternator 1 repaired");
    av.run_frames(20);
    log(&av, &mut timeline, "restored");
    let after_repair = av.system().current_config().clone();

    av.fail_alternator(1);
    av.fail_alternator(2);
    log(&av, &mut timeline, "BOTH ALTERNATORS FAIL");
    av.run_frames(20);
    log(&av, &mut timeline, "emergency reconfiguration complete");
    let after_double = av.system().current_config().clone();

    av.set_pilot_input(PilotInput {
        pitch: -0.1,
        roll: 0.0,
        throttle: 0.4,
    });
    av.run_frames(60);
    log(
        &av,
        &mut timeline,
        "pilot descending on direct law, battery power",
    );

    println!("{timeline}");

    verdict(
        "alternator failure degrades Full Service -> Reduced Service",
        after_first.as_str() == "reduced-service",
    );
    verdict(
        "repair restores Reduced Service -> Full Service",
        after_repair.as_str() == "full-service",
    );
    verdict(
        "double failure degrades to Minimal Service (safe configuration)",
        after_double.as_str() == "minimal-service",
    );

    let trace = av.system().trace();
    let reconfigs = trace.get_reconfigs();
    println!("\n{} reconfigurations in the mission:", reconfigs.len());
    for r in &reconfigs {
        let from = &trace.state(r.start_c).unwrap().svclvl;
        let to = &trace.state(r.end_c).unwrap().svclvl;
        println!(
            "  frames {:>3}..{:>3}  {from} -> {to} ({} cycles)",
            r.start_c,
            r.end_c,
            r.cycles()
        );
    }
    verdict(
        "mission contains three reconfigurations",
        reconfigs.len() == 3,
    );

    // §7.1 pre/postconditions at every transition.
    let mut conditions_ok = true;
    for r in &reconfigs {
        let end = trace.state(r.end_c).unwrap();
        for app in [AppId::new("fcs"), AppId::new("autopilot")] {
            conditions_ok &= end.apps[&app].pre_ok == Some(true);
        }
    }
    verdict(
        "surfaces centered & autopilot disengaged at every configuration entry",
        conditions_ok,
    );

    let report = properties::check_extended(trace, av.system().spec());
    println!("\nproperty check: {report}");
    verdict(
        "SP1-SP4 (+extensions) hold over the whole mission",
        report.is_ok(),
    );

    verdict(
        "battery partially drained by minimal-service segment",
        av.world()
            .lock()
            .expect("plant")
            .electrical
            .battery_charge()
            < 1.0,
    );

    let path = write_json(
        "exp_avionics_scenario.json",
        &serde_json::json!({
            "reconfigurations": reconfigs,
            "final_config": av.system().current_config(),
            "final_altitude_ft": av.aircraft_state().altitude_ft,
            "battery_charge": av.world().lock().expect("plant").electrical.battery_charge(),
            "properties_ok": report.is_ok(),
        }),
    );
    println!("\nartifact: {}", path.display());
}
