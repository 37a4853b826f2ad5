//! Static TDMA schedules: slots, ownership, and capacities.

use std::collections::BTreeSet;

use crate::{BusError, NodeId};

/// One transmission slot in a TDMA round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Slot {
    /// The node allowed to transmit in this slot.
    pub owner: NodeId,
    /// Maximum payload bytes transmittable in this slot per round.
    pub capacity: usize,
}

/// A static TDMA round schedule.
///
/// The schedule is fixed at design time — time-triggered systems derive
/// their determinism and failure-detection latency from exactly this
/// property. Build one with [`BusSchedule::builder`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BusSchedule {
    slots: Vec<Slot>,
}

impl BusSchedule {
    /// Starts building a schedule.
    pub fn builder() -> BusScheduleBuilder {
        BusScheduleBuilder { slots: Vec::new() }
    }

    /// Builds the common case: one equal-capacity slot per node, in node
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::EmptySchedule`] if `nodes` is empty.
    pub fn round_robin(
        nodes: impl IntoIterator<Item = NodeId>,
        capacity: usize,
    ) -> Result<Self, BusError> {
        let mut b = BusSchedule::builder();
        for node in nodes {
            b = b.slot(node, capacity);
        }
        b.build()
    }

    /// The slots of one round, in transmission order.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Number of slots per round.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the schedule has no slots (never constructible
    /// through the builder, which rejects this).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The distinct nodes that own at least one slot.
    pub fn nodes(&self) -> BTreeSet<NodeId> {
        self.slots.iter().map(|s| s.owner).collect()
    }

    /// Returns `true` if the node owns at least one slot.
    pub fn has_slot(&self, node: NodeId) -> bool {
        self.slots.iter().any(|s| s.owner == node)
    }

    /// The largest slot capacity available to a node, or `None` if it has
    /// no slot.
    pub fn max_capacity(&self, node: NodeId) -> Option<usize> {
        self.slots
            .iter()
            .filter(|s| s.owner == node)
            .map(|s| s.capacity)
            .max()
    }

    /// Total payload bytes a node can transmit per round.
    pub fn bytes_per_round(&self, node: NodeId) -> usize {
        self.slots
            .iter()
            .filter(|s| s.owner == node)
            .map(|s| s.capacity)
            .sum()
    }
}

/// Builder for [`BusSchedule`].
#[derive(Debug, Clone)]
pub struct BusScheduleBuilder {
    slots: Vec<Slot>,
}

impl BusScheduleBuilder {
    /// Appends a slot owned by `owner` with the given payload capacity.
    #[must_use]
    pub fn slot(mut self, owner: NodeId, capacity: usize) -> Self {
        self.slots.push(Slot { owner, capacity });
        self
    }

    /// Finalizes the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::EmptySchedule`] if no slot was added.
    pub fn build(self) -> Result<BusSchedule, BusError> {
        if self.slots.is_empty() {
            return Err(BusError::EmptySchedule);
        }
        Ok(BusSchedule { slots: self.slots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(raw: u32) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn builder_preserves_slot_order() {
        let s = BusSchedule::builder()
            .slot(n(2), 32)
            .slot(n(0), 64)
            .slot(n(2), 16)
            .build()
            .unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.slots()[0].owner, n(2));
        assert_eq!(s.slots()[1].capacity, 64);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_schedule_rejected() {
        assert_eq!(BusSchedule::builder().build(), Err(BusError::EmptySchedule));
        assert_eq!(
            BusSchedule::round_robin([], 8),
            Err(BusError::EmptySchedule)
        );
    }

    #[test]
    fn round_robin_gives_each_node_one_slot() {
        let s = BusSchedule::round_robin([n(0), n(1), n(2)], 128).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.nodes().len(), 3);
        for node in [n(0), n(1), n(2)] {
            assert!(s.has_slot(node));
            assert_eq!(s.max_capacity(node), Some(128));
            assert_eq!(s.bytes_per_round(node), 128);
        }
        assert!(!s.has_slot(n(3)));
        assert_eq!(s.max_capacity(n(3)), None);
    }

    #[test]
    fn multiple_slots_accumulate_bandwidth() {
        let s = BusSchedule::builder()
            .slot(n(0), 32)
            .slot(n(0), 64)
            .slot(n(1), 16)
            .build()
            .unwrap();
        assert_eq!(s.bytes_per_round(n(0)), 96);
        assert_eq!(s.max_capacity(n(0)), Some(64));
    }
}
