//! The execution context handed to every running task.

use teamsteal_topology::StealPolicy;

use crate::task::{check_requirement, Job, JobSlot, OnceJob, ScopeState, TeamJob};
use crate::team::TeamBarrier;

/// Internal interface the executing worker exposes to the task context so
/// tasks can spawn further tasks onto the worker's own queues (the paper's
/// `pushBottom` from inside `task.run()`).
pub(crate) trait SpawnTarget {
    /// Allocates a task node for `job` (from the worker's arena when one is
    /// available) and pushes it onto the executing worker's local queue
    /// (bottom), choosing the queue level from the requirement.  Counts the
    /// task on the worker's own shard of the scope's countdown; `scope` is
    /// the scope of the running task, whose count keeps it alive until the
    /// new node is counted too.  The caller has checked the requirement.
    fn spawn_job_slot(&self, job: JobSlot, requirement: usize, scope: &ScopeState);
    /// Global id of the executing worker thread.
    fn worker_id(&self) -> usize;
    /// Total number of worker threads in the scheduler.
    fn num_threads(&self) -> usize;
    /// The scheduler's partner / victim selection policy.
    fn steal_policy(&self) -> StealPolicy;
}

/// Context of one task execution on one worker.
///
/// For sequential tasks (`r = 1`) the team consists of the executing worker
/// only.  For team tasks every member receives its own context with a
/// distinct [`local_id`](TaskContext::local_id) in `0 .. team_size`.
pub struct TaskContext<'a> {
    pub(crate) worker: &'a dyn SpawnTarget,
    /// Scope of the running task, borrowed for the duration of the run (the
    /// task is counted in it until after the run).
    pub(crate) scope: &'a ScopeState,
    /// Thread requirement requested at spawn time (`r`).
    pub(crate) requested: usize,
    /// Size of the executing team (may exceed `requested` when the
    /// requirement was rounded up to a full hierarchy group, Refinement 2).
    pub(crate) team_size: usize,
    /// First global worker id of the team.
    pub(crate) team_base: usize,
    /// This member's consecutive id within the team.
    pub(crate) local_id: usize,
    /// Barrier shared by the team for this task (absent for singleton teams).
    pub(crate) barrier: Option<&'a TeamBarrier>,
}

impl<'a> TaskContext<'a> {
    /// The executing member's id within the team, `0 ≤ local_id < team_size`
    /// (Section 3.1: global id minus the leftmost id of the team).
    #[inline]
    pub fn local_id(&self) -> usize {
        self.local_id
    }

    /// Number of threads executing this task together.
    #[inline]
    pub fn team_size(&self) -> usize {
        self.team_size
    }

    /// Thread requirement `r` requested when the task was spawned.  When the
    /// requirement is not a power of two (Refinement 2) the executing team
    /// may be larger; surplus members can check [`is_surplus`](Self::is_surplus).
    #[inline]
    pub fn requested_threads(&self) -> usize {
        self.requested
    }

    /// `true` for team members beyond the requested thread count (only
    /// possible for non power-of-two requirements, Refinement 2).  Such
    /// members may simply return from the job body, or share the work if the
    /// job knows how to use them.
    #[inline]
    pub fn is_surplus(&self) -> bool {
        self.local_id >= self.requested
    }

    /// Global id of the leftmost worker in the team.
    #[inline]
    pub fn team_base(&self) -> usize {
        self.team_base
    }

    /// Global id of the worker executing this context.
    #[inline]
    pub fn global_thread_id(&self) -> usize {
        self.worker.worker_id()
    }

    /// Total number of worker threads in the scheduler.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.worker.num_threads()
    }

    /// Waits until every team member has reached the barrier.  Returns `true`
    /// on exactly one member per round (the last arriver).  A no-op returning
    /// `true` for singleton teams.
    pub fn barrier(&self) -> bool {
        match self.barrier {
            Some(b) => b.wait(),
            None => true,
        }
    }

    /// The team barrier, if this execution has more than one member.
    pub fn team_barrier(&self) -> Option<&TeamBarrier> {
        self.barrier
    }

    /// Spawns a sequential (`r = 1`) child task onto the executing worker's
    /// local queue.  The task becomes part of the same scope; the enclosing
    /// [`Scheduler::scope`](crate::Scheduler::scope) call returns only after
    /// it (and all tasks it transitively spawns) has finished.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&TaskContext<'_>) + Send + 'static,
    {
        self.spawn_concrete(OnceJob::new(f));
    }

    /// Spawns a data-parallel child task requiring `threads` workers (the
    /// paper's `async(np) …`).  The closure is executed by every team member
    /// once the team has been built.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero, exceeds the number of scheduler threads,
    /// or is above 1 under [`StealPolicy::UniformRandom`].
    pub fn spawn_team<F>(&self, threads: usize, f: F)
    where
        F: Fn(&TaskContext<'_>) + Send + Sync + 'static,
    {
        self.spawn_concrete(TeamJob::new(threads, f));
    }

    /// Spawns a concretely typed job, storing it inline in the task node
    /// when it fits (the common case for `spawn` / `spawn_team` closures).
    fn spawn_concrete<J: Job + 'static>(&self, job: J) {
        let requirement = job.requirement();
        check_requirement(
            requirement,
            self.worker.num_threads(),
            self.worker.steal_policy(),
        );
        self.worker
            .spawn_job_slot(JobSlot::new(job), requirement, self.scope);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    struct RecordingTarget {
        spawned: RefCell<Vec<usize>>,
        threads: usize,
    }

    impl SpawnTarget for RecordingTarget {
        fn spawn_job_slot(&self, job: JobSlot, requirement: usize, scope: &ScopeState) {
            drop(job);
            self.spawned.borrow_mut().push(requirement);
            // The test target executes nothing: account the task as
            // spawned-and-finished immediately.
            scope.task_spawned(self.worker_id());
            scope.task_finished(self.worker_id());
        }
        fn worker_id(&self) -> usize {
            3
        }
        fn num_threads(&self) -> usize {
            self.threads
        }
        fn steal_policy(&self) -> StealPolicy {
            StealPolicy::Deterministic
        }
    }

    fn test_ctx<'a>(target: &'a RecordingTarget, scope: &'a ScopeState) -> TaskContext<'a> {
        TaskContext {
            worker: target,
            scope,
            requested: 3,
            team_size: 4,
            team_base: 0,
            local_id: 3,
            barrier: None,
        }
    }

    #[test]
    fn accessors_reflect_team_shape() {
        let target = RecordingTarget {
            spawned: RefCell::new(Vec::new()),
            threads: 8,
        };
        let scope = ScopeState::new(4);
        let ctx = test_ctx(&target, &scope);
        assert_eq!(ctx.local_id(), 3);
        assert_eq!(ctx.team_size(), 4);
        assert_eq!(ctx.requested_threads(), 3);
        assert!(
            ctx.is_surplus(),
            "local id 3 with 3 requested threads is surplus"
        );
        assert_eq!(ctx.global_thread_id(), 3);
        assert_eq!(ctx.num_threads(), 8);
        assert!(
            ctx.barrier(),
            "no barrier behaves like a trivially open one"
        );
        assert!(ctx.team_barrier().is_none());
    }

    #[test]
    fn spawn_routes_through_worker() {
        let target = RecordingTarget {
            spawned: RefCell::new(Vec::new()),
            threads: 8,
        };
        let scope = ScopeState::new(4);
        let ctx = test_ctx(&target, &scope);
        ctx.spawn(|_| {});
        ctx.spawn_team(4, |_| {});
        assert_eq!(*target.spawned.borrow(), vec![1, 4]);
        assert_eq!(scope.pending(), 0, "test target finishes tasks immediately");
    }

    #[test]
    #[should_panic]
    fn spawn_team_rejects_oversized_requirement() {
        let target = RecordingTarget {
            spawned: RefCell::new(Vec::new()),
            threads: 4,
        };
        let scope = ScopeState::new(4);
        let ctx = test_ctx(&target, &scope);
        ctx.spawn_team(8, |_| {});
    }
}
