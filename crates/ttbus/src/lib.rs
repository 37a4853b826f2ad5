//! A simulated time-triggered data bus (TDMA rounds and slots).
//!
//! The architecture of *Strunk, Knight & Aiello (DSN 2005)* assumes a
//! distributed platform whose processing elements "communicate via an
//! ultra-dependable, real-time data bus", for example "one based on the
//! time-triggered architecture" (Kopetz & Bauer). This crate models the
//! two things the reconfiguration layer takes from such a bus:
//!
//! - **Timing.** Communication is organized in **TDMA rounds**; each
//!   round consists of a statically scheduled sequence of **slots**, each
//!   owned by exactly one node ([`BusSchedule`]). The schedule fixes each
//!   node's slot capacity at design time, so whether a node's worst-case
//!   traffic fits one round is a static question (the reconfiguration
//!   layer's lint answers it).
//! - **Membership.** Transmission is a node's *activity sign*: a node that
//!   stays silent in its slots for a round is observed as absent by the
//!   **membership** service, and the bus counts each node's consecutive
//!   silent rounds ([`TtBus::silent_rounds`]). This is the conventional
//!   activity-monitor failure detection the paper relies on ("component
//!   failures are detected by conventional means such as activity,
//!   timing, and signal monitors").
//!
//! The higher layers couple one bus round to one real-time frame of the
//! synchronous executive, which yields the system-level synchrony that the
//! paper's formal model assumes. The signals themselves reach their
//! readers through stable storage and the environment, so the bus carries
//! no payloads.
//!
//! # Example
//!
//! ```
//! use arfs_ttbus::{BusSchedule, NodeId, TtBus};
//!
//! let scram = NodeId::new(0);
//! let fcs = NodeId::new(1);
//! let schedule = BusSchedule::builder()
//!     .slot(scram, 64)
//!     .slot(fcs, 64)
//!     .build()?;
//! let mut bus = TtBus::new(schedule);
//! bus.mark_present(scram);
//! bus.mark_present(fcs);
//! let report = bus.run_round();
//! assert!(report.membership[&scram] && report.membership[&fcs]);
//! // The next round fcs stays silent.
//! bus.mark_present(scram);
//! bus.run_round();
//! assert_eq!(bus.silent_rounds(fcs), Some(1));
//! # Ok::<(), arfs_ttbus::BusError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod error;
mod schedule;

pub use bus::{MembershipChange, RoundReport, TtBus};
pub use error::BusError;
pub use schedule::{BusSchedule, BusScheduleBuilder, Slot};

use std::fmt;

/// Identifier of a node attached to the time-triggered bus.
///
/// Nodes are processors, sensor/actuator interface units, or the SCRAM
/// kernel's host. Slot ownership in the static schedule refers to nodes by
/// this id.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its raw index.
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Returns the raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_basics() {
        assert_eq!(NodeId::new(2).to_string(), "N2");
        assert_eq!(NodeId::from(5).raw(), 5);
        assert!(NodeId::new(1) < NodeId::new(2));
    }
}
