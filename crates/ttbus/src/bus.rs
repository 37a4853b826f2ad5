//! The bus runtime: rounds, broadcast delivery, and membership.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use arfs_assure::fp;
use arfs_failstop::CowLog;

use crate::schedule::BusSchedule;
use crate::{BusError, NodeId};

/// A broadcast message carried by the bus.
///
/// Topics are free-form strings; the reconfiguration layer uses topics
/// such as `"fault"`, `"reconfig"`, and `"status"` for the signal kinds of
/// the paper's Figure 1.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Message {
    topic: String,
    payload: Vec<u8>,
}

impl Message {
    /// Creates a message on the given topic.
    pub fn new(topic: impl Into<String>, payload: impl Into<Vec<u8>>) -> Self {
        Message {
            topic: topic.into(),
            payload: payload.into(),
        }
    }

    /// A zero-payload "I am alive" frame for membership purposes.
    pub fn null_frame() -> Self {
        Message::new("null", Vec::new())
    }

    /// The message topic.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// The message payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Returns `true` if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

/// A message as received by a node: broadcast with provenance and timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The transmitting node.
    pub from: NodeId,
    /// Round in which the message was transmitted (and delivered — TDMA
    /// broadcasts complete within the round).
    pub round: u64,
    /// The message itself.
    pub message: Message,
}

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
    /// Per-node membership: `true` if the node transmitted in at least
    /// one of its slots this round. Silent nodes are presumed failed —
    /// the bus's activity-monitor failure detection. Shared with the
    /// bus, which rewrites it in place next round once the report is
    /// dropped.
    pub membership: Arc<BTreeMap<NodeId, bool>>,
    /// Number of messages delivered this round.
    pub delivered: usize,
}

/// The simulated time-triggered bus.
///
/// See the [crate documentation](crate) for the model. Typical use couples
/// one [`run_round`](TtBus::run_round) to one real-time frame. The bus
/// holds no shared mutable state, so a [`fork`](TtBus::fork) diverges
/// independently: outboxes, inboxes, membership observations, and logs
/// are all private to each side. The (append-only) transmission and
/// membership logs are [`CowLog`]s, so forking shares their history by
/// pointer instead of copying it.
#[derive(Debug, Clone)]
pub struct TtBus {
    schedule: BusSchedule,
    round: u64,
    outboxes: BTreeMap<NodeId, VecDeque<Message>>,
    /// Every delivery ever made, in order, stored exactly once. Each
    /// node's logical inbox is the suffix of this log past its drain
    /// cursor — the broadcast medium delivers every transmission to
    /// every node, so per-node copies would multiply both memory and
    /// fork cost by the node count.
    delivered: CowLog<Delivery>,
    /// Per-node drain positions into `delivered`.
    inbox_cursors: BTreeMap<NodeId, usize>,
    present: BTreeMap<NodeId, bool>,
    /// Position in `delivered` at which the audit log was enabled;
    /// `None` while disabled. The log is the suffix past this point —
    /// stored once, shared with every fork.
    log_from: Option<usize>,
    /// Membership as observed at the end of the previous round; `None`
    /// for a node never yet observed transmitting.
    last_membership: BTreeMap<NodeId, bool>,
    /// The latest round's membership (see [`RoundReport::membership`]).
    membership: Arc<BTreeMap<NodeId, bool>>,
    membership_log: CowLog<MembershipChange>,
    /// The two replicated physical channels of a time-triggered bus.
    /// Communication succeeds while at least one is operational.
    channel_failed: [bool; 2],
}

impl TtBus {
    /// Creates a bus operating under the given static schedule.
    pub fn new(schedule: BusSchedule) -> Self {
        let nodes = schedule.nodes();
        TtBus {
            schedule,
            round: 0,
            outboxes: nodes.iter().map(|&n| (n, VecDeque::new())).collect(),
            delivered: CowLog::new(),
            inbox_cursors: nodes.iter().map(|&n| (n, 0)).collect(),
            present: nodes.iter().map(|&n| (n, false)).collect(),
            log_from: None,
            last_membership: BTreeMap::new(),
            membership: Arc::new(nodes.iter().map(|&n| (n, false)).collect()),
            membership_log: CowLog::new(),
            channel_failed: [false, false],
        }
    }

    /// Fails one of the two replicated channels. The bus keeps operating
    /// on the survivor — the "ultra-dependable" property the paper's
    /// platform assumes comes from exactly this replication.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::NoSuchChannel`] for an index other than 0 or
    /// 1.
    pub fn fail_channel(&mut self, idx: u8) -> Result<(), BusError> {
        let slot = self
            .channel_failed
            .get_mut(idx as usize)
            .ok_or(BusError::NoSuchChannel(idx))?;
        *slot = true;
        Ok(())
    }

    /// Repairs a channel.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::NoSuchChannel`] for an index other than 0 or
    /// 1.
    pub fn repair_channel(&mut self, idx: u8) -> Result<(), BusError> {
        let slot = self
            .channel_failed
            .get_mut(idx as usize)
            .ok_or(BusError::NoSuchChannel(idx))?;
        *slot = false;
        Ok(())
    }

    /// Returns `true` while at least one channel is operational.
    pub fn is_operational(&self) -> bool {
        self.channel_failed.iter().any(|&failed| !failed)
    }

    /// Per-channel health, indexed 0 and 1.
    pub fn channels_ok(&self) -> [bool; 2] {
        [!self.channel_failed[0], !self.channel_failed[1]]
    }

    /// The static schedule the bus operates under.
    pub fn schedule(&self) -> &BusSchedule {
        &self.schedule
    }

    /// The index of the next round to run.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Enables the transmission audit log (used by the Figure 1
    /// harness): deliveries from this point on are visible through
    /// [`log`](TtBus::log). Idempotent.
    pub fn enable_log(&mut self) {
        if self.log_from.is_none() {
            self.log_from = Some(self.delivered.len());
        }
    }

    /// Forks the bus mid-round-sequence: the fork carries the same
    /// queued messages, membership view, and logs, and thereafter
    /// evolves independently — the independence guarantee
    /// prefix-sharing exploration relies on. The bounded queues are
    /// copied; the append-only logs seal and share their history
    /// ([`CowLog::fork`]), so fork cost does not grow with rounds run.
    pub fn fork(&mut self) -> TtBus {
        TtBus {
            schedule: self.schedule.clone(),
            round: self.round,
            outboxes: self.outboxes.clone(),
            delivered: self.delivered.fork(),
            inbox_cursors: self.inbox_cursors.clone(),
            present: self.present.clone(),
            log_from: self.log_from,
            last_membership: self.last_membership.clone(),
            membership: Arc::clone(&self.membership),
            membership_log: self.membership_log.fork(),
            channel_failed: self.channel_failed,
        }
    }

    /// All logged transmissions, oldest first (empty unless
    /// [`enable_log`](TtBus::enable_log) was called), cloned out of the
    /// copy-on-write log.
    pub fn log(&self) -> Vec<Delivery> {
        match self.log_from {
            Some(start) => self.delivered.iter_from(start).cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Number of logged transmissions.
    pub fn log_len(&self) -> usize {
        self.log_from
            .map(|start| self.delivered.len() - start)
            .unwrap_or(0)
    }

    /// All observed membership transitions, oldest first (cloned out of
    /// the copy-on-write log). Always recorded (independently of
    /// [`enable_log`](TtBus::enable_log)): only *changes* are stored,
    /// so the log stays proportional to joins and failures, not to
    /// rounds.
    pub fn membership_changes(&self) -> Vec<MembershipChange> {
        self.membership_log.to_vec()
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
        self.membership_log.iter_from(cursor)
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

    /// Queues a message for transmission in the sender's next slot(s).
    ///
    /// Also marks the sender present for the current round.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::NoSlot`] if the schedule grants the node no
    /// slot, or [`BusError::PayloadTooLarge`] if no slot of the node could
    /// ever carry the payload.
    pub fn submit(&mut self, from: NodeId, message: Message) -> Result<(), BusError> {
        let capacity = self
            .schedule
            .max_capacity(from)
            .ok_or(BusError::NoSlot(from))?;
        if message.len() > capacity {
            return Err(BusError::PayloadTooLarge {
                node: from,
                payload: message.len(),
                capacity,
            });
        }
        self.outboxes.entry(from).or_default().push_back(message);
        self.present.insert(from, true);
        Ok(())
    }

    /// Marks a node present for the current round without queueing data —
    /// it will transmit a null frame in its slot. Running processors call
    /// this every frame; failed ones cannot, which is how the membership
    /// service observes their failure.
    pub fn mark_present(&mut self, node: NodeId) {
        if self.schedule.has_slot(node) {
            self.present.insert(node, true);
        }
    }

    /// Executes one TDMA round: every slot fires in schedule order; each
    /// present owner broadcasts queued messages up to the slot capacity
    /// (or a null frame); all transmissions are delivered to every node's
    /// inbox before the round ends.
    pub fn run_round(&mut self) -> RoundReport {
        let round = self.round;
        let operational = self.is_operational();
        let transmitted = Arc::make_mut(&mut self.membership);
        for flag in transmitted.values_mut() {
            *flag = false;
        }
        let mut deliveries: Vec<Delivery> = Vec::new();

        // Both replicated channels down: nothing can be transmitted this
        // round. Queued messages are retained (they were never sent), and
        // every node appears absent — a total communication blackout.
        if !operational {
            self.observe_membership(round);
            for flag in self.present.values_mut() {
                *flag = false;
            }
            self.round += 1;
            return RoundReport {
                round,
                membership: Arc::clone(&self.membership),
                delivered: 0,
            };
        }

        for slot in self.schedule.slots() {
            let owner = slot.owner;
            if !self.present.get(&owner).copied().unwrap_or(false) {
                continue; // silent slot: owner presumed failed
            }
            transmitted.insert(owner, true);
            let mut budget = slot.capacity;
            let queue = self.outboxes.entry(owner).or_default();
            while let Some(front) = queue.front() {
                if front.len() > budget {
                    break;
                }
                let message = queue.pop_front().expect("front checked above");
                budget -= message.len();
                // Failpoint: a `Skip` here is an omission fault — the
                // slot fired but this transmission never reached the
                // replicated channels. Membership is untouched (the
                // owner still transmitted its slot).
                fp!("ttbus.bus.deliver", action => {
                    if matches!(action, arfs_assure::FpAction::Skip) {
                        continue;
                    }
                });
                deliveries.push(Delivery {
                    from: owner,
                    round,
                    message,
                });
                if budget == 0 {
                    break;
                }
            }
        }

        let delivered = deliveries.len();
        // One shared record per delivery; every node's inbox and the
        // audit log are views (cursors) into it.
        self.delivered.extend(deliveries);
        self.observe_membership(round);

        // Presence is per-round: it must be re-asserted each frame.
        for flag in self.present.values_mut() {
            *flag = false;
        }
        self.round += 1;
        RoundReport {
            round,
            membership: Arc::clone(&self.membership),
            delivered,
        }
    }

    /// Takes all deliveries accumulated in a node's inbox (everything
    /// delivered since the node's last drain).
    pub fn drain_inbox(&mut self, node: NodeId) -> Vec<Delivery> {
        // Failpoint: a `Skip`/`Delay` here defers reception — the node
        // reads nothing this round but the cursor holds, so every
        // delivery arrives (late) on the next drain.
        fp!("ttbus.bus.drain", action => {
            if matches!(
                action,
                arfs_assure::FpAction::Skip | arfs_assure::FpAction::Delay(_)
            ) {
                return Vec::new();
            }
        });
        let Some(cursor) = self.inbox_cursors.get_mut(&node) else {
            return Vec::new();
        };
        let start = *cursor;
        *cursor = self.delivered.len();
        self.delivered.iter_from(start).cloned().collect()
    }

    /// Peeks at a node's inbox without draining it.
    pub fn inbox(&self, node: NodeId) -> Vec<Delivery> {
        self.inbox_cursors
            .get(&node)
            .map(|&start| self.delivered.iter_from(start).cloned().collect())
            .unwrap_or_default()
    }

    /// Bytes still queued for transmission by a node.
    pub fn backlog_bytes(&self, node: NodeId) -> usize {
        self.outboxes
            .get(&node)
            .map(|q| q.iter().map(Message::len).sum())
            .unwrap_or(0)
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
    fn broadcast_reaches_every_node_including_sender() {
        let mut bus = two_node_bus();
        bus.submit(n(0), Message::new("fault", b"alt1".to_vec()))
            .unwrap();
        bus.mark_present(n(1));
        let report = bus.run_round();
        assert_eq!(report.delivered, 1);
        for node in [n(0), n(1)] {
            let inbox = bus.drain_inbox(node);
            assert_eq!(inbox.len(), 1);
            assert_eq!(inbox[0].from, n(0));
            assert_eq!(inbox[0].round, 0);
            assert_eq!(inbox[0].message.topic(), "fault");
            assert_eq!(inbox[0].message.payload(), b"alt1");
        }
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
    fn submit_requires_a_slot() {
        let mut bus = two_node_bus();
        assert_eq!(
            bus.submit(n(9), Message::null_frame()),
            Err(BusError::NoSlot(n(9)))
        );
    }

    #[test]
    fn oversized_payload_rejected_statically() {
        let mut bus = two_node_bus();
        let big = Message::new("x", vec![0u8; 65]);
        assert!(matches!(
            bus.submit(n(0), big),
            Err(BusError::PayloadTooLarge {
                payload: 65,
                capacity: 64,
                ..
            })
        ));
    }

    #[test]
    fn capacity_spillover_delays_to_next_round() {
        let mut bus = two_node_bus();
        // Two 40-byte messages exceed the 64-byte slot; second waits.
        bus.submit(n(0), Message::new("a", vec![1u8; 40])).unwrap();
        bus.submit(n(0), Message::new("b", vec![2u8; 40])).unwrap();
        let r0 = bus.run_round();
        assert_eq!(r0.delivered, 1);
        assert_eq!(bus.backlog_bytes(n(0)), 40);
        bus.mark_present(n(0));
        let r1 = bus.run_round();
        assert_eq!(r1.delivered, 1);
        assert_eq!(bus.backlog_bytes(n(0)), 0);
        let topics: Vec<_> = bus
            .drain_inbox(n(1))
            .into_iter()
            .map(|d| (d.message.topic().to_owned(), d.round))
            .collect();
        assert_eq!(topics, vec![("a".into(), 0), ("b".into(), 1)]);
    }

    #[test]
    fn delivery_respects_static_slot_order() {
        let schedule = BusSchedule::builder()
            .slot(n(1), 64)
            .slot(n(0), 64)
            .build()
            .unwrap();
        let mut bus = TtBus::new(schedule);
        bus.submit(n(0), Message::new("from0", Vec::new())).unwrap();
        bus.submit(n(1), Message::new("from1", Vec::new())).unwrap();
        bus.run_round();
        let inbox = bus.drain_inbox(n(0));
        // n(1)'s slot precedes n(0)'s in the schedule.
        assert_eq!(inbox[0].message.topic(), "from1");
        assert_eq!(inbox[1].message.topic(), "from0");
    }

    #[test]
    fn actual_latency_never_exceeds_static_bound() {
        let mut bus = two_node_bus();
        let msgs = 10usize;
        for i in 0..msgs {
            bus.submit(n(0), Message::new(format!("m{i}"), vec![0u8; 60]))
                .unwrap();
        }
        let bound = bus
            .schedule()
            .worst_case_rounds(n(0), msgs * 60, 60)
            .unwrap();
        let mut rounds = 0;
        while bus.backlog_bytes(n(0)) > 0 {
            bus.mark_present(n(0));
            bus.run_round();
            rounds += 1;
            assert!(rounds <= bound, "latency bound {bound} violated");
        }
        assert_eq!(rounds, bound);
    }

    #[test]
    fn log_records_transmissions_when_enabled() {
        let mut bus = two_node_bus();
        bus.enable_log();
        bus.submit(n(0), Message::new("fault", Vec::new())).unwrap();
        bus.run_round();
        assert_eq!(bus.log().len(), 1);
        assert_eq!(bus.log()[0].message.topic(), "fault");
        // Disabled by default on a fresh bus.
        let mut quiet = two_node_bus();
        quiet.submit(n(0), Message::new("x", Vec::new())).unwrap();
        quiet.run_round();
        assert!(quiet.log().is_empty());
    }

    #[test]
    fn null_frame_marks_presence_without_data() {
        let mut bus = two_node_bus();
        bus.submit(n(0), Message::null_frame()).unwrap();
        let report = bus.run_round();
        assert!(report.membership[&n(0)]);
        // Null frame is still delivered (it is a broadcast frame).
        assert_eq!(report.delivered, 1);
        assert!(bus.inbox(n(1))[0].message.is_empty());
    }

    #[test]
    fn single_channel_failure_is_transparent() {
        let mut bus = two_node_bus();
        bus.fail_channel(0).unwrap();
        assert!(bus.is_operational());
        assert_eq!(bus.channels_ok(), [false, true]);
        bus.submit(n(0), Message::new("fault", b"x".to_vec()))
            .unwrap();
        let report = bus.run_round();
        assert_eq!(report.delivered, 1);
        assert!(report.membership[&n(0)]);
    }

    #[test]
    fn double_channel_failure_blacks_out_the_bus() {
        let mut bus = two_node_bus();
        bus.fail_channel(0).unwrap();
        bus.fail_channel(1).unwrap();
        assert!(!bus.is_operational());
        bus.submit(n(0), Message::new("fault", b"x".to_vec()))
            .unwrap();
        bus.mark_present(n(1));
        let report = bus.run_round();
        assert_eq!(report.delivered, 0);
        assert!(report.membership.values().all(|&present| !present));
        // The message was never transmitted; it survives for later.
        assert_eq!(bus.backlog_bytes(n(0)), 1);
        // Repair restores service; the retained message goes out.
        bus.repair_channel(1).unwrap();
        bus.mark_present(n(0));
        let report = bus.run_round();
        assert_eq!(report.delivered, 1);
        assert_eq!(bus.backlog_bytes(n(0)), 0);
    }

    #[test]
    fn invalid_channel_index_rejected() {
        let mut bus = two_node_bus();
        assert_eq!(bus.fail_channel(2), Err(BusError::NoSuchChannel(2)));
        assert_eq!(bus.repair_channel(9), Err(BusError::NoSuchChannel(9)));
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
    fn blackout_drops_previously_present_nodes() {
        let mut bus = two_node_bus();
        bus.mark_present(n(0));
        bus.run_round();
        bus.fail_channel(0).unwrap();
        bus.fail_channel(1).unwrap();
        bus.mark_present(n(0));
        bus.run_round();
        let last = *bus.membership_changes().last().unwrap();
        assert_eq!(
            last,
            MembershipChange {
                round: 1,
                node: n(0),
                present: false
            }
        );
    }

    #[test]
    fn forked_bus_shares_history_and_diverges() {
        let mut parent = two_node_bus();
        parent.enable_log();
        parent
            .submit(n(0), Message::new("before", Vec::new()))
            .unwrap();
        parent.mark_present(n(1));
        parent.run_round();
        let mut child = parent.fork();
        assert_eq!(parent.round(), child.round());
        assert_eq!(parent.log(), child.log());
        assert_eq!(parent.membership_changes(), child.membership_changes());

        parent
            .submit(n(0), Message::new("parent", Vec::new()))
            .unwrap();
        parent.run_round();
        child
            .submit(n(1), Message::new("child", Vec::new()))
            .unwrap();
        child.run_round();
        assert_eq!(parent.log()[1].message.topic(), "parent");
        assert_eq!(child.log()[1].message.topic(), "child");
        assert_eq!(parent.log_len(), 2);
        // Divergent membership: in the parent round 1, n(1) fell
        // silent; in the child, n(0) did.
        assert_ne!(parent.membership_changes(), child.membership_changes());
        // Cursor tailing sees only the post-fork entries.
        let tail: Vec<_> = child.membership_changes_from(2).collect();
        assert!(tail.iter().all(|c| c.round == 1));
    }

    #[test]
    fn mark_present_ignores_unscheduled_nodes() {
        let mut bus = two_node_bus();
        bus.mark_present(n(42));
        let report = bus.run_round();
        assert!(!report.membership.contains_key(&n(42)));
    }
}
