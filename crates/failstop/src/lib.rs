//! The fail-stop substrate: stable storage and processor status.
//!
//! This crate is the hardware substrate for the ARFS workspace, a
//! reproduction of *Strunk, Knight & Aiello, "Assured Reconfiguration of
//! Fail-Stop Systems" (DSN 2005)*. The paper builds on the fail-stop
//! processors of Schlichting & Schneider ("Fail-stop processors: an
//! approach to designing fault-tolerant computing systems", ACM TOCS
//! 1983), which obey two axioms:
//!
//! - a failed processor halts and writes nothing more, and its volatile
//!   state is lost;
//! - its [`StableStorage`] is kept: committed state survives the
//!   failure and stays readable by other processors, while writes staged
//!   but not yet committed are discarded.
//!
//! The crate provides what the running system is built on:
//!
//! - [`StableStorage`] with atomic commits, polled by other processors
//!   through immutable [`StableSnapshot`]s;
//! - [`ProcessorPool`], the platform's processors and whether each has
//!   failed, with an audit log of [`PoolEvent`]s;
//! - [`CowLog`], the append-only log whose sealed history forks share.
//!
//! The executive in `arfs-core` enforces the axioms for the applications
//! it runs. It owns each application's region, so a region has one
//! writer and needs no lock. An application whose processor has failed
//! runs no stage, so it stages and commits nothing, and its committed
//! region is what it resumes from.
//!
//! # Example
//!
//! ```
//! use arfs_failstop::{ProcessorId, ProcessorPool, StableStorage};
//!
//! let p0 = ProcessorId::new(0);
//! let mut pool = ProcessorPool::new();
//! pool.add(p0);
//! let mut region = StableStorage::new();
//! region.stage_u64("counter", 1);
//! region.commit();
//! // A peer polls the committed state through a snapshot.
//! let polled = region.snapshot();
//!
//! // The processor fails with a write staged but not committed.
//! region.stage_u64("counter", 2);
//! pool.fail(p0).unwrap();
//! assert!(!pool.is_alive(p0));
//! region.discard();
//!
//! // The committed state is what survives.
//! assert_eq!(region.get_u64("counter"), Some(1));
//! assert_eq!(polled.get_u64("counter"), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cow;
mod error;
mod pool;
mod stable;

pub use cow::CowLog;
pub use error::FailStopError;
pub use pool::{PoolEvent, ProcessorPool};
pub use stable::{StableSnapshot, StableStorage, StableValue, Version};

use std::fmt;

/// Identifier of a fail-stop processor.
///
/// `ProcessorId`s are dense small integers assigned by the platform
/// configuration; the static application-to-processor mapping in the
/// reconfiguration specification refers to processors by this id.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ProcessorId(u32);

impl ProcessorId {
    /// Creates a processor id from its raw index.
    pub const fn new(raw: u32) -> Self {
        ProcessorId(raw)
    }

    /// Returns the raw index of this processor id.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ProcessorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u32> for ProcessorId {
    fn from(raw: u32) -> Self {
        ProcessorId(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_id_display_and_order() {
        let a = ProcessorId::new(0);
        let b = ProcessorId::new(3);
        assert!(a < b);
        assert_eq!(a.to_string(), "P0");
        assert_eq!(b.raw(), 3);
        assert_eq!(ProcessorId::from(7), ProcessorId::new(7));
    }

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StableStorage>();
        assert_send_sync::<ProcessorPool>();
    }
}
