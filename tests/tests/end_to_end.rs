//! End-to-end integration tests spanning every workspace crate: the
//! avionics example on the full platform stack, with static analysis,
//! trace properties, and SFTA extraction cross-checked against each
//! other.

use arfs_avionics::{AutopilotMode, AvionicsSystem, PilotInput};
use arfs_core::analysis::{self, resources, timing};
use arfs_core::model::ModelChecker;
use arfs_core::properties::{self, PropertyId};
use arfs_core::scram::{KernelConfig, MidReconfigPolicy, SyncPolicy};
use arfs_core::sfta::{extract_sftas, SftaClass};
use arfs_core::{AppId, ConfigId};

#[test]
fn full_mission_with_all_assurance_layers() {
    // Static layer: the specification discharges all obligations.
    let spec = arfs_avionics::avionics_spec().unwrap();
    let obligations = analysis::check_obligations(&spec);
    assert!(obligations.all_passed(), "{obligations}");

    // Dynamic layer: a multi-failure mission.
    let mut av = AvionicsSystem::new().unwrap();
    av.engage_autopilot();
    av.set_autopilot_mode(AutopilotMode::HeadingHold);
    av.run_frames(30);
    av.fail_alternator(1);
    av.run_frames(15);
    av.fail_alternator(2);
    av.run_frames(15);
    av.repair_alternator(1);
    av.repair_alternator(2);
    av.run_frames(25);

    let trace = av.system().trace();
    let report = properties::check_extended(trace, av.system().spec());
    assert!(report.is_ok(), "{report}");
    assert_eq!(av.system().current_config(), &ConfigId::new("full-service"));
    assert_eq!(trace.get_reconfigs().len(), 3);

    // SFTA layer: the trace decomposes into normal SFTAs and exactly
    // three reconfiguration SFTAs whose endpoints match get_reconfigs.
    let sftas = extract_sftas(trace, 10);
    let reconfig_sftas: Vec<_> = sftas
        .iter()
        .filter(|s| matches!(s.class, SftaClass::Reconfiguration { .. }))
        .collect();
    assert_eq!(reconfig_sftas.len(), 3);
    for (sfta, interval) in reconfig_sftas.iter().zip(trace.get_reconfigs()) {
        assert_eq!(sfta.start, interval.start_c);
        assert_eq!(sfta.end, interval.end_c);
    }

    // Every frame of the trace is covered by exactly one SFTA.
    let covered: u64 = sftas.iter().map(|s| s.frames()).sum();
    assert_eq!(covered, trace.len() as u64);
}

#[test]
fn spec_analysis_is_consistent_with_measured_behavior() {
    let spec = arfs_avionics::avionics_spec().unwrap();

    // The measured reconfiguration duration fits within every declared
    // transition bound (the transition_bounds_feasible obligation,
    // checked against reality).
    let mut av = AvionicsSystem::with_kernel(KernelConfig::default()).unwrap();
    av.run_frames(10);
    av.fail_alternator(1);
    av.run_frames(10);
    let r = av.system().trace().get_reconfigs()[0];
    let measured = spec.frame_len() * r.cycles();
    for (_, _, bound) in spec.transitions().iter() {
        assert!(
            measured <= bound,
            "measured {measured} exceeds bound {bound}"
        );
    }

    // The resource model matches the placements.
    let model = resources::model_from_spec(&spec);
    assert_eq!(model.full_service_units, 2);
    assert_eq!(model.safe_service_units, 1);
    assert_eq!(model.savings(), 1);

    // Restriction analysis: the chain bound dominates the interposed
    // bound.
    let analysis = timing::restriction_analysis(&spec);
    let chain = analysis.chain.unwrap();
    assert!(chain.total >= analysis.interposed.unwrap());
}

#[test]
fn model_checker_agrees_with_concrete_avionics_runs() {
    let spec = arfs_avionics::avionics_spec().unwrap();
    let mc = ModelChecker::new(spec, 22, 1);
    let report = mc.run_parallel(4);
    assert!(report.all_passed(), "{report}");
    assert!(report.cases_run > 20);
}

#[test]
fn blackboard_carries_autopilot_commands_to_fcs() {
    let mut av = AvionicsSystem::new().unwrap();
    av.engage_autopilot();
    av.set_autopilot_mode(AutopilotMode::TurnTo(180.0));
    av.run_frames(20);
    // The autopilot published a right-turn command...
    let ap = av.system().app_stable(&AppId::new("autopilot")).unwrap();
    assert_eq!(ap.get_bool("engaged"), Some(true));
    assert!(ap.get_f64("cmd_aileron").unwrap() > 0.0);
    // ...and the FCS applied it to the surfaces.
    let fcs = av.system().app_stable(&AppId::new("fcs")).unwrap();
    assert!(fcs.get_f64("aileron").unwrap() > 0.0);
    // ...and the aircraft is actually banking right.
    assert!(av.aircraft_state().bank_deg > 1.0);
}

/// The blackboard's one-frame lag (§6.2): an application reads what its
/// producers committed *last* frame, even when the producer runs before
/// it in the same frame. In the extended spec the datalink (dependency
/// wave 1) publishes a fresh `seq` every full-rate frame and the
/// recorder (wave 2) counts each new `seq` it sees, so the recorder must
/// trail the datalink by exactly one record; a board that leaked
/// same-frame commits would let it catch up.
#[test]
fn blackboard_inputs_lag_their_producer_by_one_frame() {
    let mut uav = arfs_avionics::extended::ExtendedUavSystem::new().unwrap();
    for frame in 0..12u64 {
        uav.run_frame();
        let system = uav.system();
        let seq = system
            .app_stable(&AppId::new("datalink"))
            .unwrap()
            .get_u64("seq");
        let records = system
            .app_stable(&AppId::new("recorder"))
            .unwrap()
            .get_u64("records");
        assert_eq!(seq, Some(frame + 1), "datalink publishes every frame");
        let expected = (frame > 0).then_some(frame);
        assert_eq!(records, expected, "recorder saw frame {frame}'s own seq");
    }
}

#[test]
fn pilot_inputs_reach_surfaces_when_autopilot_off() {
    let mut av = AvionicsSystem::new().unwrap();
    av.set_pilot_input(PilotInput {
        pitch: 0.5,
        roll: 0.0,
        throttle: 0.6,
    });
    av.run_frames(20);
    assert!(av.aircraft_state().vertical_speed_fpm > 100.0);
}

#[test]
fn every_policy_combination_is_property_clean() {
    for mid in [
        MidReconfigPolicy::BufferUntilComplete,
        MidReconfigPolicy::ImmediateRetarget,
    ] {
        for sync in [SyncPolicy::Simultaneous, SyncPolicy::PhaseChecked] {
            let mut av = AvionicsSystem::with_kernel(KernelConfig {
                mid,
                sync,
                ..KernelConfig::default()
            })
            .unwrap();
            av.engage_autopilot();
            av.run_frames(10);
            av.fail_alternator(1);
            av.run_frames(2);
            av.fail_alternator(2); // mid-reconfiguration
            av.run_frames(25);
            assert_eq!(
                av.system().current_config(),
                &ConfigId::new("minimal-service"),
                "{mid:?}/{sync:?}"
            );
            let report = properties::check_extended(av.system().trace(), av.system().spec());
            assert!(report.is_ok(), "{mid:?}/{sync:?}: {report}");
        }
    }
}

#[test]
fn mutation_matrix_is_fully_detected() {
    use arfs_core::scram::ScramMutation;
    use arfs_core::system::System;
    let cases: Vec<(ScramMutation, PropertyId)> = vec![
        (
            ScramMutation::LeaveAppRunning(AppId::new("fcs")),
            PropertyId::Sp1,
        ),
        (ScramMutation::WrongTarget, PropertyId::Sp2),
        (ScramMutation::ExtraDelayFrames(15), PropertyId::Sp3),
        (ScramMutation::SkipInitPhase, PropertyId::Sp4),
    ];
    for (mutation, property) in cases {
        let spec = arfs_avionics::avionics_spec().unwrap();
        let mut system = System::builder(spec)
            .kernel(KernelConfig {
                mutation: Some(mutation.clone()),
                ..KernelConfig::default()
            })
            .build()
            .unwrap();
        system.run_frames(8);
        system.set_env("electrical", "one").unwrap();
        system.run_frames(30);
        let report = properties::check_all(system.trace(), system.spec());
        assert!(
            !report.of(property).is_empty(),
            "{mutation:?} must violate {property}"
        );
    }
}
