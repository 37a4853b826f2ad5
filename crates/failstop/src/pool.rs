//! The processor pool: which platform processors are still running.
//!
//! The DSN 2005 architecture associates applications with processors
//! statically: "applications lost due to a processor failure are known
//! to have been lost because of the static association of applications
//! to processors". The pool holds the other half of that association:
//! every platform processor and whether it has failed. A failure is
//! fail-stop and permanent. What it means for the applications placed
//! on the processor (they stage and commit nothing, and their committed
//! stable state is kept) is enforced by the executive that runs them.

use std::collections::BTreeMap;

use arfs_assure::fp;

use crate::cow::CowLog;
use crate::{FailStopError, ProcessorId};

/// An auditable event in the life of a [`ProcessorPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolEvent {
    /// A processor was added to the pool.
    Added(ProcessorId),
    /// A processor failed (fail-stop).
    Failed(ProcessorId),
    /// A failure was requested for a processor that had already
    /// failed — redundant, but auditable: injected faults and explicit
    /// quarantines can race to fail the same processor.
    AlreadyFailed(ProcessorId),
}

impl PoolEvent {
    /// A stable kebab-case kind string for journals and filters.
    pub fn kind(&self) -> &'static str {
        match self {
            PoolEvent::Added(_) => "processor-added",
            PoolEvent::Failed(_) => "processor-failed",
            PoolEvent::AlreadyFailed(_) => "processor-already-failed",
        }
    }
}

/// The platform's fail-stop processors and their status, with an audit
/// log of every addition and failure.
#[derive(Debug, Default)]
pub struct ProcessorPool {
    /// Every processor, mapped to `true` while it is running.
    running: BTreeMap<ProcessorId, bool>,
    events: CowLog<PoolEvent>,
}

impl ProcessorPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ProcessorPool::default()
    }

    /// Adds a running processor to the pool.
    ///
    /// # Panics
    ///
    /// Panics if a processor with the same id is already present; ids must
    /// be unique within a platform.
    pub fn add(&mut self, id: ProcessorId) {
        assert!(
            self.running.insert(id, true).is_none(),
            "duplicate processor id {id}"
        );
        self.events.push(PoolEvent::Added(id));
    }

    /// Returns `true` if the pool holds the processor, running or failed.
    pub fn contains(&self, id: ProcessorId) -> bool {
        self.running.contains_key(&id)
    }

    /// Ids of running processors, in id order, without collecting them.
    pub fn alive(&self) -> impl Iterator<Item = ProcessorId> + '_ {
        self.running
            .iter()
            .filter(|(_, &running)| running)
            .map(|(&id, _)| id)
    }

    /// Ids of processors that have failed.
    pub fn failed_ids(&self) -> Vec<ProcessorId> {
        self.running
            .iter()
            .filter(|(_, &running)| !running)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Returns `true` if the given processor exists and is running.
    pub fn is_alive(&self, id: ProcessorId) -> bool {
        self.running.get(&id).copied().unwrap_or(false)
    }

    /// Returns `true` if every processor in the pool is running.
    ///
    /// It allocates nothing, so hot loops can poll pool health every
    /// frame.
    pub fn all_alive(&self) -> bool {
        self.running.values().all(|&running| running)
    }

    /// Forces a fail-stop failure of the given processor. Failing a
    /// processor that has already failed changes nothing but the audit
    /// log.
    ///
    /// # Errors
    ///
    /// Returns [`FailStopError::UnknownProcessor`] if no such processor
    /// exists.
    pub fn fail(&mut self, id: ProcessorId) -> Result<(), FailStopError> {
        // Failpoint: the fail-stop conversion itself is a decision
        // point — campaigns count it; a `Panic` proves the caller's
        // thread death surfaces.
        fp!("failstop.pool.fail");
        let running = self
            .running
            .get_mut(&id)
            .ok_or(FailStopError::UnknownProcessor(id))?;
        if *running {
            *running = false;
            self.events.push(PoolEvent::Failed(id));
        } else {
            self.events.push(PoolEvent::AlreadyFailed(id));
        }
        Ok(())
    }

    /// Number of audit-log events recorded so far (the cursor position
    /// tailing observers advance to).
    pub fn events_len(&self) -> usize {
        self.events.len()
    }

    /// The audit log from a cursor position onward, so tailing
    /// observers can drain incrementally: read, then advance the cursor
    /// to [`events_len`](ProcessorPool::events_len).
    pub fn events_since(&self, cursor: usize) -> Vec<PoolEvent> {
        self.events.iter_from(cursor).cloned().collect()
    }

    /// Forks the pool: the status map is cloned and the audit log's
    /// history is sealed and shared. The fork and the original evolve
    /// independently.
    pub fn fork(&mut self) -> ProcessorPool {
        ProcessorPool {
            running: self.running.clone(),
            events: self.events.fork(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: u32) -> ProcessorPool {
        let mut pool = ProcessorPool::new();
        for raw in 0..n {
            pool.add(ProcessorId::new(raw));
        }
        pool
    }

    #[test]
    fn events_since_tails_the_audit_log() {
        let mut pool = pool(2);
        assert_eq!(
            pool.events_since(0),
            [
                PoolEvent::Added(ProcessorId::new(0)),
                PoolEvent::Added(ProcessorId::new(1))
            ]
        );
        let cursor = pool.events_len();
        assert!(pool.events_since(cursor).is_empty());
        pool.fail(ProcessorId::new(0)).unwrap();
        let tail = pool.events_since(cursor);
        assert_eq!(tail, [PoolEvent::Failed(ProcessorId::new(0))]);
        assert_eq!(tail[0].kind(), "processor-failed");
        // A cursor past the end is an empty tail, not a panic.
        assert!(pool.events_since(cursor + 99).is_empty());
        assert_eq!(
            PoolEvent::Added(ProcessorId::new(1)).kind(),
            "processor-added"
        );
        // The journal payload is the event's `Debug` text.
        assert_eq!(
            format!("{:?}", PoolEvent::Added(ProcessorId::new(0))),
            "Added(ProcessorId(0))"
        );
    }

    #[test]
    fn fail_moves_processor_to_failed_set() {
        let mut pool = pool(2);
        assert!(pool.all_alive());
        pool.fail(ProcessorId::new(0)).unwrap();
        assert_eq!(pool.alive().collect::<Vec<_>>(), [ProcessorId::new(1)]);
        assert_eq!(pool.failed_ids(), [ProcessorId::new(0)]);
        assert!(!pool.is_alive(ProcessorId::new(0)));
        assert!(pool.contains(ProcessorId::new(0)));
        assert!(!pool.all_alive());
    }

    #[test]
    fn fail_unknown_processor_is_an_error() {
        let mut pool = pool(1);
        assert_eq!(
            pool.fail(ProcessorId::new(9)),
            Err(FailStopError::UnknownProcessor(ProcessorId::new(9)))
        );
        assert!(!pool.contains(ProcessorId::new(9)));
        assert!(!pool.is_alive(ProcessorId::new(9)));
    }

    #[test]
    fn refailing_a_failed_processor_is_journaled_not_silent() {
        let mut pool = pool(2);
        pool.fail(ProcessorId::new(0)).unwrap();
        let cursor = pool.events_len();
        // A second failure request (e.g. an injected fault racing a
        // quarantine) succeeds but leaves an audit event, not nothing.
        pool.fail(ProcessorId::new(0)).unwrap();
        let tail = pool.events_since(cursor);
        assert_eq!(tail, [PoolEvent::AlreadyFailed(ProcessorId::new(0))]);
        assert_eq!(tail[0].kind(), "processor-already-failed");
        // The processor is still exactly one Failed event deep.
        let failed = pool
            .events_since(0)
            .iter()
            .filter(|e| matches!(e, PoolEvent::Failed(_)))
            .count();
        assert_eq!(failed, 1);
    }

    #[test]
    fn forked_pool_diverges_independently() {
        let mut parent = pool(2);
        let mut child = parent.fork();
        child.fail(ProcessorId::new(0)).unwrap();
        parent.fail(ProcessorId::new(1)).unwrap();
        assert_eq!(parent.failed_ids(), [ProcessorId::new(1)]);
        assert_eq!(child.failed_ids(), [ProcessorId::new(0)]);
        // Shared history, divergent tails.
        let shared = 2; // 2 × Added
        assert_eq!(
            parent.events_since(0)[..shared],
            child.events_since(0)[..shared]
        );
        assert_eq!(parent.events_len(), shared + 1);
        assert_eq!(child.events_len(), shared + 1);
        assert_ne!(parent.events_since(shared), child.events_since(shared));
    }

    #[test]
    #[should_panic(expected = "duplicate processor id")]
    fn duplicate_ids_panic() {
        let mut pool = pool(1);
        pool.add(ProcessorId::new(0));
    }
}
