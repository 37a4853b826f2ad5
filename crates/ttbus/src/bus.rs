//! The bus runtime: rounds and membership.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::schedule::BusSchedule;
use crate::NodeId;

/// One observed membership transition: a node joining (first observed
/// transmission) or dropping out (first silent round after activity).
///
/// The bus records these continuously; observers read them with
/// [`TtBus::membership_changes`] and keep their own cursor, so several
/// consumers can tail the log independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipChange {
    /// The round in which the change was observed.
    pub round: u64,
    /// The node whose observed presence changed.
    pub node: NodeId,
    /// `true` when the node was observed joining, `false` when it fell
    /// silent.
    pub present: bool,
}

/// What happened during one TDMA round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundReport {
    /// The (0-based) round index just completed.
    pub round: u64,
    /// Per-node membership: `true` if the node transmitted in its slots
    /// this round. Silent nodes are presumed failed — the bus's
    /// activity-monitor failure detection. Shared with the bus, which
    /// rewrites it in place next round once the report is dropped.
    pub membership: Arc<BTreeMap<NodeId, bool>>,
}

/// The simulated time-triggered bus.
///
/// See the [crate documentation](crate) for the model. Typical use couples
/// one [`run_round`](TtBus::run_round) to one real-time frame. The bus
/// holds no shared mutable state, so a clone diverges independently:
/// presence, membership observations, silent-round counts and the
/// membership log are all private to each side.
#[derive(Debug, Clone)]
pub struct TtBus {
    schedule: BusSchedule,
    round: u64,
    /// Which nodes asserted presence for the current round.
    present: BTreeMap<NodeId, bool>,
    /// Membership as observed at the end of the previous round; `None`
    /// for a node never yet observed transmitting.
    last_membership: BTreeMap<NodeId, bool>,
    /// The latest round's membership (see [`RoundReport::membership`]).
    membership: Arc<BTreeMap<NodeId, bool>>,
    /// Consecutive silent rounds per node, up to the latest round.
    silent_rounds: BTreeMap<NodeId, u64>,
    /// Nodes whose count in `silent_rounds` is non-zero.
    silent_nodes: usize,
    membership_log: Vec<MembershipChange>,
}

impl TtBus {
    /// Creates a bus operating under the given static schedule.
    pub fn new(schedule: BusSchedule) -> Self {
        let nodes = schedule.nodes();
        TtBus {
            schedule,
            round: 0,
            present: nodes.iter().map(|&n| (n, false)).collect(),
            last_membership: BTreeMap::new(),
            membership: Arc::new(nodes.iter().map(|&n| (n, false)).collect()),
            silent_rounds: nodes.iter().map(|&n| (n, 0)).collect(),
            silent_nodes: 0,
            membership_log: Vec::new(),
        }
    }

    /// The static schedule the bus operates under.
    pub fn schedule(&self) -> &BusSchedule {
        &self.schedule
    }

    /// The index of the next round to run.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// All observed membership transitions, oldest first. Only
    /// *changes* are stored, so the log stays proportional to joins and
    /// failures, not to rounds.
    pub fn membership_changes(&self) -> Vec<MembershipChange> {
        self.membership_log.clone()
    }

    /// Number of membership transitions recorded so far — the cursor
    /// position for
    /// [`membership_changes_from`](TtBus::membership_changes_from)
    /// tailers.
    pub fn membership_len(&self) -> usize {
        self.membership_log.len()
    }

    /// Membership transitions from a cursor position onward, without
    /// cloning: tailing observers read, then advance their cursor to
    /// [`membership_len`](TtBus::membership_len).
    pub fn membership_changes_from(
        &self,
        cursor: usize,
    ) -> impl Iterator<Item = &MembershipChange> {
        self.membership_log.get(cursor..).unwrap_or_default().iter()
    }

    /// How many rounds in a row, up to the latest, the node has stayed
    /// silent in its slots: 0 once it transmits, and before the first
    /// round. `None` for a node the schedule grants no slot.
    pub fn silent_rounds(&self, node: NodeId) -> Option<u64> {
        self.silent_rounds.get(&node).copied()
    }

    /// Number of nodes that were silent in the latest round.
    pub fn silent_nodes(&self) -> usize {
        self.silent_nodes
    }

    /// Records transitions between the previous round's observation and
    /// this round's. A node that has never transmitted is not reported
    /// absent — silence before first contact is indistinguishable from
    /// not having started yet.
    fn observe_membership(&mut self, round: u64) {
        for (&node, &present) in self.membership.iter() {
            let changed = match self.last_membership.get(&node) {
                Some(&prev) => prev != present,
                None => present,
            };
            if changed {
                self.membership_log.push(MembershipChange {
                    round,
                    node,
                    present,
                });
                self.last_membership.insert(node, present);
            }
        }
    }

    /// Marks a node present for the current round: it transmits a null
    /// frame in its slot. Running processors call this every frame;
    /// failed ones cannot, which is how the membership service observes
    /// their failure. A node with no slot is ignored.
    pub fn mark_present(&mut self, node: NodeId) {
        if let Some(flag) = self.present.get_mut(&node) {
            *flag = true;
        }
    }

    /// Executes one TDMA round: every node that asserted presence
    /// transmits in its slots, every other node is silent. Updates the
    /// membership, each node's silent-round count and the membership
    /// log, and clears presence for the next round.
    pub fn run_round(&mut self) -> RoundReport {
        let round = self.round;
        // The three maps share the schedule's node set, so their values
        // line up in key order.
        let membership = Arc::make_mut(&mut self.membership);
        self.silent_nodes = 0;
        for ((transmitted, silent), present) in membership
            .values_mut()
            .zip(self.silent_rounds.values_mut())
            .zip(self.present.values_mut())
        {
            // Presence is per-round: it must be re-asserted each frame.
            *transmitted = std::mem::take(present);
            if *transmitted {
                *silent = 0;
            } else {
                *silent += 1;
                self.silent_nodes += 1;
            }
        }
        self.observe_membership(round);
        self.round += 1;
        RoundReport {
            round,
            membership: Arc::clone(&self.membership),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(raw: u32) -> NodeId {
        NodeId::new(raw)
    }

    fn two_node_bus() -> TtBus {
        TtBus::new(BusSchedule::round_robin([n(0), n(1)], 64).unwrap())
    }

    #[test]
    fn silent_node_is_observed_absent() {
        let mut bus = two_node_bus();
        bus.mark_present(n(0));
        // n(1) says nothing this round.
        let report = bus.run_round();
        assert!(report.membership[&n(0)]);
        assert!(!report.membership[&n(1)]);
    }

    #[test]
    fn presence_must_be_reasserted_each_round() {
        let mut bus = two_node_bus();
        bus.mark_present(n(0));
        bus.mark_present(n(1));
        let r0 = bus.run_round();
        assert!(r0.membership.values().all(|&v| v));
        let r1 = bus.run_round();
        assert!(r1.membership.values().all(|&v| !v));
        assert_eq!(r1.round, 1);
    }

    #[test]
    fn silent_rounds_count_consecutive_silence() {
        let mut bus = two_node_bus();
        assert_eq!(bus.silent_rounds(n(1)), Some(0));
        assert_eq!(bus.silent_nodes(), 0);
        // n(1) stays silent for three rounds; n(0) transmits throughout.
        for expected in 1..=3 {
            bus.mark_present(n(0));
            bus.run_round();
            assert_eq!(bus.silent_rounds(n(0)), Some(0));
            assert_eq!(bus.silent_rounds(n(1)), Some(expected));
            assert_eq!(bus.silent_nodes(), 1);
        }
        // A clone carries the count, then each side counts on its own.
        let mut child = bus.clone();
        assert_eq!(child.silent_rounds(n(1)), Some(3));
        child.mark_present(n(0));
        child.run_round();
        assert_eq!(child.silent_rounds(n(1)), Some(4));
        // One transmission resets the count.
        bus.mark_present(n(0));
        bus.mark_present(n(1));
        bus.run_round();
        assert_eq!(bus.silent_rounds(n(1)), Some(0));
        assert_eq!(bus.silent_nodes(), 0);
        assert_eq!(child.silent_rounds(n(1)), Some(4));
        // A node with no slot has no count.
        assert_eq!(bus.silent_rounds(n(9)), None);
    }

    #[test]
    fn membership_changes_record_joins_and_drops() {
        let mut bus = two_node_bus();
        // Round 0: only n(0) transmits. n(1) has never been seen, so its
        // silence is not a drop.
        bus.mark_present(n(0));
        bus.run_round();
        assert_eq!(
            bus.membership_changes(),
            [MembershipChange {
                round: 0,
                node: n(0),
                present: true
            }]
        );
        // Round 1: both transmit — n(1) joins, n(0) unchanged.
        bus.mark_present(n(0));
        bus.mark_present(n(1));
        bus.run_round();
        assert_eq!(bus.membership_changes().len(), 2);
        assert_eq!(
            bus.membership_changes()[1],
            MembershipChange {
                round: 1,
                node: n(1),
                present: true
            }
        );
        // Round 2: n(0) falls silent — one drop recorded; a further
        // silent round adds nothing.
        bus.mark_present(n(1));
        bus.run_round();
        bus.mark_present(n(1));
        bus.run_round();
        assert_eq!(
            bus.membership_changes()[2],
            MembershipChange {
                round: 2,
                node: n(0),
                present: false
            }
        );
        assert_eq!(bus.membership_changes().len(), 3);
    }

    #[test]
    fn forked_bus_shares_history_and_diverges() {
        let mut parent = two_node_bus();
        parent.mark_present(n(0));
        parent.mark_present(n(1));
        parent.run_round();
        let mut child = parent.clone();
        assert_eq!(parent.round(), child.round());
        assert_eq!(parent.membership_changes(), child.membership_changes());

        parent.mark_present(n(0));
        parent.run_round();
        child.mark_present(n(1));
        child.run_round();
        // Divergent membership: in the parent round 1, n(1) fell
        // silent; in the child, n(0) did.
        assert_ne!(parent.membership_changes(), child.membership_changes());
        assert_eq!(parent.silent_rounds(n(1)), Some(1));
        assert_eq!(child.silent_rounds(n(1)), Some(0));
        // Cursor tailing sees only the post-fork entries.
        let tail: Vec<_> = child.membership_changes_from(2).collect();
        assert_eq!(tail.len(), 1);
        assert!(tail.iter().all(|c| c.round == 1 && c.node == n(0)));
    }

    #[test]
    fn mark_present_ignores_unscheduled_nodes() {
        let mut bus = two_node_bus();
        bus.mark_present(n(42));
        let report = bus.run_round();
        assert!(!report.membership.contains_key(&n(42)));
    }
}
