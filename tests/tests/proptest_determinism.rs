//! Determinism properties: time-triggered systems derive their assurance
//! from repeatability, so two identically stimulated instances of any
//! layer must behave identically.

use std::sync::Arc;

use arfs_avionics::AvionicsSystem;
use arfs_core::environment::EnvState;
use arfs_core::scenario::Scenario;
use arfs_core::scram::{KernelConfig, Scram};
use arfs_ttbus::{BusSchedule, NodeId, TtBus};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two buses fed the same presence produce identical rounds,
    /// silent-round counts and membership logs.
    #[test]
    fn bus_is_deterministic(
        present_sets in proptest::collection::vec(
            proptest::collection::btree_set(0u32..3, 0..4),
            1..12
        ),
    ) {
        let schedule = BusSchedule::round_robin((0..3).map(NodeId::new), 64).unwrap();
        let mut a = TtBus::new(schedule.clone());
        let mut b = TtBus::new(schedule);
        for set in &present_sets {
            for &node in set {
                a.mark_present(NodeId::new(node));
                b.mark_present(NodeId::new(node));
            }
            prop_assert_eq!(a.run_round(), b.run_round());
            for n in 0..3 {
                prop_assert_eq!(a.silent_rounds(NodeId::new(n)), b.silent_rounds(NodeId::new(n)));
            }
        }
        prop_assert_eq!(a.membership_changes(), b.membership_changes());
    }

    /// Two SCRAM kernels stepped with the same environment sequence make
    /// identical decisions.
    #[test]
    fn scram_is_deterministic(values in proptest::collection::vec(0usize..3, 1..30)) {
        let spec = Arc::new(arfs_avionics::avionics_spec().unwrap());
        let mut a = Scram::new(Arc::clone(&spec), KernelConfig::default()).unwrap();
        let mut b = Scram::new(Arc::clone(&spec), KernelConfig::default()).unwrap();
        let domain = ["both", "one", "battery"];
        let (mut log_a, mut log_b) = (Vec::new(), Vec::new());
        for (frame, v) in values.iter().enumerate() {
            let env = EnvState::new([("electrical", domain[*v])]);
            let da = a.step(frame as u64, &env);
            let db = b.step(frame as u64, &env);
            log_a.extend(da.events.iter().cloned());
            log_b.extend(db.events.iter().cloned());
            prop_assert_eq!(da, db);
        }
        prop_assert_eq!(a.current_config(), b.current_config());
        prop_assert_eq!(log_a, log_b);
    }

    /// Two full systems under the same trigger schedule record identical
    /// traces.
    #[test]
    fn system_is_deterministic(
        events in proptest::collection::vec((1u64..25, 0usize..3), 0..4),
    ) {
        let spec = arfs_avionics::avionics_spec().unwrap();
        let domain = ["both", "one", "battery"];
        let mut sorted = events.clone();
        sorted.sort();
        let case = sorted.iter().fold(Scenario::new("determinism", 32), |case, (f, v)| {
            case.set_env(*f, "electrical", domain[*v])
        });
        let a = case.run_on_spec(&spec).unwrap();
        let b = case.run_on_spec(&spec).unwrap();
        prop_assert_eq!(a.trace(), b.trace());
        prop_assert_eq!(a.journal(), b.journal());
    }
}

/// The full avionics stack — control laws, dynamics, electrical model —
/// is bit-for-bit repeatable.
#[test]
fn avionics_mission_is_bit_repeatable() {
    let fly = || {
        let mut av = AvionicsSystem::new().unwrap();
        av.engage_autopilot();
        av.run_frames(25);
        av.fail_alternator(1);
        av.run_frames(20);
        av.fail_alternator(2);
        av.run_frames(20);
        (
            av.system().trace().clone(),
            av.aircraft_state(),
            av.world()
                .lock()
                .expect("plant")
                .electrical
                .battery_charge(),
        )
    };
    let (trace_a, state_a, battery_a) = fly();
    let (trace_b, state_b, battery_b) = fly();
    assert_eq!(trace_a, trace_b);
    assert_eq!(state_a, state_b);
    assert_eq!(battery_a, battery_b);
}
