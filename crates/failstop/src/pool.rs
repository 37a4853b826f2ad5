//! Processor pools: spares, failure bookkeeping, and restart placement.
//!
//! Fault-tolerant actions in the Schlichting & Schneider framework are
//! "restarted on another processor" after a fail-stop failure. The pool
//! tracks which processors are alive, which logical tasks run where, and
//! finds spares for restarts. The reconfiguration architecture of the
//! DSN 2005 paper uses the same bookkeeping: "applications lost due to a
//! processor failure are known to have been lost because of the static
//! association of applications to processors".

use std::collections::BTreeMap;

use arfs_assure::fp;

use crate::cow::CowLog;
use crate::processor::Processor;
use crate::stable::StableSnapshot;
use crate::{FailStopError, ProcessorId};

/// An auditable event in the life of a [`ProcessorPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolEvent {
    /// A processor was added to the pool.
    Added(ProcessorId),
    /// A processor failed (fail-stop).
    Failed(ProcessorId),
    /// A task was assigned to a processor.
    Assigned {
        /// Logical task name.
        task: String,
        /// Hosting processor.
        processor: ProcessorId,
    },
    /// A task was moved from a failed processor to a spare.
    Restarted {
        /// Logical task name.
        task: String,
        /// The processor that failed.
        from: ProcessorId,
        /// The spare now hosting the task.
        to: ProcessorId,
    },
    /// A task's assignment was released.
    Released {
        /// Logical task name.
        task: String,
    },
    /// A failure was requested for a processor that had already
    /// failed — redundant, but auditable: injected faults and explicit
    /// quarantines can race to fail the same processor.
    AlreadyFailed(ProcessorId),
    /// A restart was requested but no spare was available: the task
    /// stays on its failed host and the caller sees
    /// [`FailStopError::NoSpare`], but the exhaustion itself is now on
    /// the audit log.
    RestartExhausted {
        /// Logical task name.
        task: String,
        /// The failed processor the task is stranded on.
        from: ProcessorId,
    },
}

impl PoolEvent {
    /// A stable kebab-case kind string for journals and filters.
    pub fn kind(&self) -> &'static str {
        match self {
            PoolEvent::Added(_) => "processor-added",
            PoolEvent::Failed(_) => "processor-failed",
            PoolEvent::Assigned { .. } => "task-assigned",
            PoolEvent::Restarted { .. } => "task-restarted",
            PoolEvent::Released { .. } => "task-released",
            PoolEvent::AlreadyFailed(_) => "processor-already-failed",
            PoolEvent::RestartExhausted { .. } => "restart-exhausted",
        }
    }
}

/// A set of fail-stop processors with task assignment and spare
/// management.
#[derive(Debug, Default)]
pub struct ProcessorPool {
    processors: BTreeMap<ProcessorId, Processor>,
    assignments: BTreeMap<String, ProcessorId>,
    events: CowLog<PoolEvent>,
}

impl ProcessorPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ProcessorPool::default()
    }

    /// Creates a pool of `n` fresh processors with ids `0..n`.
    pub fn with_processors(n: u32) -> Self {
        let mut pool = ProcessorPool::new();
        for raw in 0..n {
            pool.add(Processor::new(ProcessorId::new(raw)));
        }
        pool
    }

    /// Adds a processor to the pool.
    ///
    /// # Panics
    ///
    /// Panics if a processor with the same id is already present; ids must
    /// be unique within a platform.
    pub fn add(&mut self, processor: Processor) {
        let id = processor.id();
        assert!(
            self.processors.insert(id, processor).is_none(),
            "duplicate processor id {id}"
        );
        self.events.push(PoolEvent::Added(id));
    }

    /// Number of processors (alive or failed).
    pub fn len(&self) -> usize {
        self.processors.len()
    }

    /// Returns `true` if the pool holds no processors.
    pub fn is_empty(&self) -> bool {
        self.processors.is_empty()
    }

    /// Shared access to a processor.
    pub fn processor(&self, id: ProcessorId) -> Option<&Processor> {
        self.processors.get(&id)
    }

    /// Exclusive access to a processor.
    pub fn processor_mut(&mut self, id: ProcessorId) -> Option<&mut Processor> {
        self.processors.get_mut(&id)
    }

    /// Ids of processors currently running.
    pub fn alive_ids(&self) -> Vec<ProcessorId> {
        self.alive().collect()
    }

    /// Ids of running processors, in id order, without collecting them.
    pub fn alive(&self) -> impl Iterator<Item = ProcessorId> + '_ {
        self.processors
            .values()
            .filter(|p| p.is_running())
            .map(Processor::id)
    }

    /// Ids of processors that have failed.
    pub fn failed_ids(&self) -> Vec<ProcessorId> {
        self.processors
            .values()
            .filter(|p| !p.is_running())
            .map(Processor::id)
            .collect()
    }

    /// Returns `true` if the given processor exists and is running.
    pub fn is_alive(&self, id: ProcessorId) -> bool {
        self.processors.get(&id).is_some_and(Processor::is_running)
    }

    /// Returns `true` if every processor in the pool is running.
    ///
    /// Unlike [`alive_ids`](ProcessorPool::alive_ids) this allocates
    /// nothing, so hot loops can poll pool health every frame.
    pub fn all_alive(&self) -> bool {
        self.processors.values().all(Processor::is_running)
    }

    /// Forces a fail-stop failure of the given processor.
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
        let p = self
            .processors
            .get_mut(&id)
            .ok_or(FailStopError::UnknownProcessor(id))?;
        if p.is_running() {
            p.force_fail();
            self.events.push(PoolEvent::Failed(id));
        } else {
            self.events.push(PoolEvent::AlreadyFailed(id));
        }
        Ok(())
    }

    /// Polls the committed stable state of a processor — the paper's
    /// mechanism for learning "what state it was in when it failed".
    pub fn poll_stable(&self, id: ProcessorId) -> Option<StableSnapshot> {
        self.processors.get(&id).map(Processor::stable)
    }

    /// Assigns a logical task to a processor.
    ///
    /// # Errors
    ///
    /// Returns [`FailStopError::UnknownProcessor`] if no such processor
    /// exists, or [`FailStopError::Halted`] if it has failed.
    pub fn assign(
        &mut self,
        task: impl Into<String>,
        id: ProcessorId,
    ) -> Result<(), FailStopError> {
        let p = self
            .processors
            .get(&id)
            .ok_or(FailStopError::UnknownProcessor(id))?;
        if !p.is_running() {
            return Err(FailStopError::Halted(id));
        }
        let task = task.into();
        self.assignments.insert(task.clone(), id);
        self.events.push(PoolEvent::Assigned {
            task,
            processor: id,
        });
        Ok(())
    }

    /// The processor currently hosting a task, if assigned.
    pub fn assignment(&self, task: &str) -> Option<ProcessorId> {
        self.assignments.get(task).copied()
    }

    /// Tasks hosted on the given processor.
    pub fn tasks_on(&self, id: ProcessorId) -> Vec<&str> {
        self.assignments
            .iter()
            .filter(|(_, &p)| p == id)
            .map(|(t, _)| t.as_str())
            .collect()
    }

    /// Releases a task's assignment.
    pub fn release(&mut self, task: &str) {
        if self.assignments.remove(task).is_some() {
            self.events.push(PoolEvent::Released {
                task: task.to_owned(),
            });
        }
    }

    /// Finds a running processor with no assigned tasks.
    pub fn find_spare(&self) -> Option<ProcessorId> {
        self.processors
            .values()
            .filter(|p| p.is_running())
            .map(Processor::id)
            .find(|id| !self.assignments.values().any(|p| p == id))
    }

    /// Moves a task whose processor failed onto a spare, returning the new
    /// host.
    ///
    /// # Errors
    ///
    /// Returns [`FailStopError::UnknownProcessor`] if the task is not
    /// assigned, or [`FailStopError::NoSpare`] if no spare is available.
    pub fn restart_on_spare(&mut self, task: &str) -> Result<ProcessorId, FailStopError> {
        let from =
            self.assignments
                .get(task)
                .copied()
                .ok_or_else(|| FailStopError::StepFailed {
                    program: "pool".into(),
                    step: "restart_on_spare".into(),
                    reason: format!("task `{task}` has no assignment"),
                })?;
        // Failpoint: an `Err` here is spare-search failure — the pool
        // reports exhaustion through the audited path even though a
        // spare may physically exist.
        fp!("failstop.pool.restart", action => {
            if matches!(action, arfs_assure::FpAction::Err) {
                self.events.push(PoolEvent::RestartExhausted {
                    task: task.to_owned(),
                    from,
                });
                return Err(FailStopError::NoSpare);
            }
        });
        let Some(to) = self.find_spare() else {
            self.events.push(PoolEvent::RestartExhausted {
                task: task.to_owned(),
                from,
            });
            return Err(FailStopError::NoSpare);
        };
        self.assignments.insert(task.to_owned(), to);
        self.events.push(PoolEvent::Restarted {
            task: task.to_owned(),
            from,
            to,
        });
        Ok(to)
    }

    /// The audit log of pool events, oldest first (cloned out of the
    /// copy-on-write log).
    pub fn events(&self) -> Vec<PoolEvent> {
        self.events.to_vec()
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

    /// Forks the pool: every processor is [forked](Processor::fork)
    /// (copy-on-write stable storage), assignments are carried over,
    /// and the audit log's history is sealed and shared. The fork and
    /// the original evolve independently at pointer-bump cost.
    pub fn fork(&mut self) -> ProcessorPool {
        ProcessorPool {
            processors: self
                .processors
                .iter()
                .map(|(&id, p)| (id, p.fork()))
                .collect(),
            assignments: self.assignments.clone(),
            events: self.events.fork(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_processors_creates_running_cpus() {
        let pool = ProcessorPool::with_processors(3);
        assert_eq!(pool.len(), 3);
        assert!(!pool.is_empty());
        assert_eq!(pool.alive_ids().len(), 3);
        assert!(pool.failed_ids().is_empty());
        assert!(pool.is_alive(ProcessorId::new(1)));
    }

    #[test]
    fn events_since_tails_the_audit_log() {
        let mut pool = ProcessorPool::with_processors(2);
        let cursor = pool.events().len();
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
        assert_eq!(
            PoolEvent::Restarted {
                task: "t".into(),
                from: ProcessorId::new(0),
                to: ProcessorId::new(1),
            }
            .kind(),
            "task-restarted"
        );
    }

    #[test]
    fn fail_moves_processor_to_failed_set() {
        let mut pool = ProcessorPool::with_processors(2);
        pool.fail(ProcessorId::new(0)).unwrap();
        assert_eq!(pool.alive_ids(), vec![ProcessorId::new(1)]);
        assert_eq!(pool.failed_ids(), vec![ProcessorId::new(0)]);
        assert!(!pool.is_alive(ProcessorId::new(0)));
        assert!(pool
            .events()
            .contains(&PoolEvent::Failed(ProcessorId::new(0))));
    }

    #[test]
    fn fail_unknown_processor_is_an_error() {
        let mut pool = ProcessorPool::with_processors(1);
        assert_eq!(
            pool.fail(ProcessorId::new(9)),
            Err(FailStopError::UnknownProcessor(ProcessorId::new(9)))
        );
    }

    #[test]
    fn assignment_and_spare_search() {
        let mut pool = ProcessorPool::with_processors(3);
        pool.assign("fcs", ProcessorId::new(0)).unwrap();
        pool.assign("autopilot", ProcessorId::new(1)).unwrap();
        assert_eq!(pool.assignment("fcs"), Some(ProcessorId::new(0)));
        assert_eq!(pool.find_spare(), Some(ProcessorId::new(2)));
        assert_eq!(pool.tasks_on(ProcessorId::new(0)), vec!["fcs"]);
    }

    #[test]
    fn assign_to_failed_processor_is_rejected() {
        let mut pool = ProcessorPool::with_processors(2);
        pool.fail(ProcessorId::new(0)).unwrap();
        assert_eq!(
            pool.assign("fcs", ProcessorId::new(0)),
            Err(FailStopError::Halted(ProcessorId::new(0)))
        );
    }

    #[test]
    fn restart_on_spare_relocates_task() {
        let mut pool = ProcessorPool::with_processors(3);
        pool.assign("fcs", ProcessorId::new(0)).unwrap();
        pool.fail(ProcessorId::new(0)).unwrap();
        let to = pool.restart_on_spare("fcs").unwrap();
        assert_eq!(to, ProcessorId::new(1));
        assert_eq!(pool.assignment("fcs"), Some(to));
        assert!(pool.events().iter().any(|e| matches!(
            e,
            PoolEvent::Restarted { task, .. } if task == "fcs"
        )));
    }

    #[test]
    fn restart_without_spare_reports_no_spare() {
        let mut pool = ProcessorPool::with_processors(2);
        pool.assign("fcs", ProcessorId::new(0)).unwrap();
        pool.assign("ap", ProcessorId::new(1)).unwrap();
        pool.fail(ProcessorId::new(0)).unwrap();
        // P1 is busy with "ap"; no spare remains.
        assert_eq!(pool.restart_on_spare("fcs"), Err(FailStopError::NoSpare));
    }

    #[test]
    fn refailing_a_failed_processor_is_journaled_not_silent() {
        let mut pool = ProcessorPool::with_processors(2);
        pool.fail(ProcessorId::new(0)).unwrap();
        let cursor = pool.events().len();
        // A second failure request (e.g. an injected fault racing a
        // quarantine) succeeds but leaves an audit event, not nothing.
        pool.fail(ProcessorId::new(0)).unwrap();
        let tail = pool.events_since(cursor);
        assert_eq!(tail, [PoolEvent::AlreadyFailed(ProcessorId::new(0))]);
        assert_eq!(tail[0].kind(), "processor-already-failed");
        // The processor is still exactly one Failed event deep.
        let failed = pool
            .events()
            .iter()
            .filter(|e| matches!(e, PoolEvent::Failed(_)))
            .count();
        assert_eq!(failed, 1);
    }

    #[test]
    fn restart_exhaustion_is_journaled_alongside_the_error() {
        let mut pool = ProcessorPool::with_processors(2);
        pool.assign("fcs", ProcessorId::new(0)).unwrap();
        pool.assign("ap", ProcessorId::new(1)).unwrap();
        pool.fail(ProcessorId::new(0)).unwrap();
        let cursor = pool.events().len();
        assert_eq!(pool.restart_on_spare("fcs"), Err(FailStopError::NoSpare));
        let tail = pool.events_since(cursor);
        assert_eq!(
            tail,
            [PoolEvent::RestartExhausted {
                task: "fcs".into(),
                from: ProcessorId::new(0),
            }]
        );
        assert_eq!(tail[0].kind(), "restart-exhausted");
        // The stranded task keeps its (failed) assignment.
        assert_eq!(pool.assignment("fcs"), Some(ProcessorId::new(0)));
    }

    #[test]
    fn repeated_spare_failures_walk_the_pool_then_exhaust() {
        use crate::{FaultPlan, Program};

        let mut pool = ProcessorPool::with_processors(4);
        pool.assign("job", ProcessorId::new(0)).unwrap();
        // Every processor fails on its first instruction.
        for raw in 0..4 {
            pool.processor_mut(ProcessorId::new(raw))
                .unwrap()
                .set_fault_plan(FaultPlan::at_instructions([1]));
        }
        let mut program = Program::new("job");
        program.push("work", |ctx| {
            ctx.stable.stage_bool("done", true);
            Ok(())
        });
        let mut hosts = vec![pool.assignment("job").unwrap()];
        let mut exhausted = None;
        // Bounded: a pool of four has at most three spares to offer.
        for _ in 0..pool.len() {
            let host = *hosts.last().unwrap();
            let run = pool.processor_mut(host).unwrap().try_run(&program);
            assert_eq!(run, Err(FailStopError::Halted(host)));
            pool.fail(host).unwrap();
            match pool.restart_on_spare("job") {
                Ok(spare) => hosts.push(spare),
                Err(e) => {
                    exhausted = Some(e);
                    break;
                }
            }
        }
        assert_eq!(exhausted, Some(FailStopError::NoSpare));
        assert_eq!(hosts, (0..4).map(ProcessorId::new).collect::<Vec<_>>());
        // All four processors burned; the task is stranded on the last.
        assert_eq!(pool.failed_ids().len(), 4);
        assert_eq!(pool.assignment("job"), Some(ProcessorId::new(3)));
        assert_eq!(
            pool.events().last(),
            Some(&PoolEvent::RestartExhausted {
                task: "job".into(),
                from: ProcessorId::new(3),
            })
        );
    }

    #[test]
    fn stable_state_survives_failure_and_is_pollable() {
        use crate::processor::Program;
        let mut pool = ProcessorPool::with_processors(1);
        let id = ProcessorId::new(0);
        let mut p = Program::new("persist");
        p.push("write", |ctx| {
            ctx.stable.stage_str("last_state", "cruise");
            Ok(())
        });
        pool.processor_mut(id).unwrap().run(&p);
        pool.fail(id).unwrap();
        let snap = pool.poll_stable(id).unwrap();
        assert_eq!(snap.get_str("last_state"), Some("cruise"));
    }

    #[test]
    fn release_frees_processor_for_spare_duty() {
        let mut pool = ProcessorPool::with_processors(1);
        pool.assign("t", ProcessorId::new(0)).unwrap();
        assert_eq!(pool.find_spare(), None);
        pool.release("t");
        assert_eq!(pool.find_spare(), Some(ProcessorId::new(0)));
        // Releasing again is a no-op.
        pool.release("t");
    }

    #[test]
    fn forked_pool_diverges_independently() {
        let mut parent = ProcessorPool::with_processors(2);
        parent.assign("fcs", ProcessorId::new(0)).unwrap();
        let mut child = parent.fork();
        child.fail(ProcessorId::new(0)).unwrap();
        child.restart_on_spare("fcs").unwrap();
        parent.fail(ProcessorId::new(1)).unwrap();
        assert_eq!(parent.assignment("fcs"), Some(ProcessorId::new(0)));
        assert_eq!(child.assignment("fcs"), Some(ProcessorId::new(1)));
        assert_eq!(parent.failed_ids(), vec![ProcessorId::new(1)]);
        assert_eq!(child.failed_ids(), vec![ProcessorId::new(0)]);
        // Shared history, divergent tails.
        let shared = 3; // 2 × Added + 1 × Assigned
        assert_eq!(parent.events()[..shared], child.events()[..shared]);
        assert!(parent.events_len() > shared);
        assert!(child.events_len() > shared);
        assert_ne!(parent.events(), child.events());
    }

    #[test]
    #[should_panic(expected = "duplicate processor id")]
    fn duplicate_ids_panic() {
        let mut pool = ProcessorPool::with_processors(1);
        pool.add(Processor::new(ProcessorId::new(0)));
    }
}
