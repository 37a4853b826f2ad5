//! Property-based tests of the TDMA bus: membership soundness.

use arfs_ttbus::{BusSchedule, NodeId, TtBus};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Membership soundness and completeness: a node is observed present
    /// in a round if and only if it asserted presence, and its silent-round
    /// count is the number of rounds since it last did.
    #[test]
    fn membership_reflects_presence_exactly(
        present_sets in proptest::collection::vec(
            proptest::collection::btree_set(0u32..5, 0..6),
            1..10
        ),
    ) {
        let nodes: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let schedule = BusSchedule::round_robin(nodes.clone(), 32).unwrap();
        let mut bus = TtBus::new(schedule);
        let mut silent = [0u64; 5];
        for set in &present_sets {
            for raw in set {
                bus.mark_present(NodeId::new(*raw));
            }
            let report = bus.run_round();
            for &n in &nodes {
                prop_assert_eq!(
                    report.membership[&n],
                    set.contains(&n.raw()),
                    "round {} node {}",
                    report.round,
                    n
                );
                let count = &mut silent[n.raw() as usize];
                *count = if set.contains(&n.raw()) { 0 } else { *count + 1 };
                prop_assert_eq!(bus.silent_rounds(n), Some(*count));
            }
        }
    }
}
