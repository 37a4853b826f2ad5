//! Error types for the time-triggered bus.

use std::error::Error;
use std::fmt;

use crate::NodeId;

/// Errors arising from bus configuration or use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// The schedule grants the node no slot, so it can never transmit.
    NoSlot(NodeId),
    /// A message payload exceeds the owning node's largest slot capacity
    /// and could never be transmitted.
    PayloadTooLarge {
        /// The transmitting node.
        node: NodeId,
        /// Payload size in bytes.
        payload: usize,
        /// Largest slot capacity available to the node.
        capacity: usize,
    },
    /// A schedule was built with no slots at all.
    EmptySchedule,
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::NoSlot(node) => write!(f, "node {node} owns no slot in the schedule"),
            BusError::PayloadTooLarge {
                node,
                payload,
                capacity,
            } => write!(
                f,
                "payload of {payload} bytes from {node} exceeds its largest slot capacity of {capacity} bytes"
            ),
            BusError::EmptySchedule => write!(f, "bus schedule has no slots"),
        }
    }
}

impl Error for BusError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(BusError::NoSlot(NodeId::new(3)).to_string().contains("N3"));
        assert!(BusError::EmptySchedule.to_string().contains("no slots"));
        let e = BusError::PayloadTooLarge {
            node: NodeId::new(1),
            payload: 100,
            capacity: 64,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("64"));
    }
}
