//! One task from claim to finish: the owned scope handle and its
//! completion checks (DESIGN.md §9 rows 5–8), the claim-to-run gate with
//! deadlines and cancellation (DESIGN.md §17), execution of an `r = 1`
//! task, and spawning ([`SpawnTarget`]).

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use teamsteal_topology::StealPolicy;

use super::Worker;
use crate::context::{SpawnTarget, TaskContext};
use crate::task::{JobSlot, ScopeState, TaskNode};

impl Worker {
    /// Makes `scope` the scope this worker holds a handle on — leaving the
    /// previous one, with its completion check, if it differs — and returns
    /// the state as seen through that handle.
    ///
    /// # Safety
    ///
    /// `scope` must be the scope pointer of a task node that is still
    /// counted in it (see `ScopeState::acquire`).
    unsafe fn enter_scope(&mut self, scope: *const ScopeState) -> &ScopeState {
        if self.scope.as_ref().map(Arc::as_ptr) != Some(scope) {
            self.leave_scope();
            // SAFETY: caller contract.
            self.scope = Some(unsafe { ScopeState::acquire(scope) });
        }
        self.scope.as_deref().expect("a scope was just entered")
    }

    /// Gives the held scope handle back, after a last completion check.
    /// Called before a park (a sleeping worker must not keep a finished
    /// scope's state alive) and when switching scopes.
    pub(super) fn leave_scope(&mut self) {
        self.check_scope();
        self.scope = None;
    }

    /// Wakes the held scope's waiter if this worker's finishes completed it.
    /// Called wherever the worker can no longer vouch that more of the
    /// scope's work is coming its way: local queues empty, a team member
    /// done with its share, or leaving the scope.  Free unless the worker
    /// finished a task since its last check.
    pub(super) fn check_scope(&mut self) {
        if std::mem::take(&mut self.unchecked_finish) {
            if let Some(scope) = &self.scope {
                scope.signal_if_complete();
            }
        }
    }

    pub(super) fn run_singleton(&mut self, ptr: *mut TaskNode) {
        if !self.claim_for_run(ptr) {
            return;
        }
        // SAFETY: the node stays alive until the last participant (here: only
        // us) finishes it.
        let node = unsafe { &*ptr };
        let ctx = TaskContext {
            worker: &*self,
            // SAFETY: counted until `finish_node` below.
            scope: unsafe { node.scope() },
            requested: node.requirement,
            team_size: 1,
            team_base: self.id,
            local_id: 0,
            barrier: None,
        };
        Self::run_job(node, &ctx);
        self.me().counters.tasks_executed.inc();
        self.finish_node(ptr);
    }

    /// Runs a job body, converting panics into a recorded scope failure so a
    /// panicking task cannot wedge the whole scheduler.
    pub(super) fn run_job(node: &TaskNode, ctx: &TaskContext<'_>) {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| node.job.run(ctx)));
        if let Err(payload) = result {
            ctx.scope.record_panic(payload);
        }
    }

    pub(super) fn finish_node(&mut self, ptr: *mut TaskNode) {
        // SAFETY: node is alive until the last participant decrements.  The
        // AcqRel makes every participant's job effects visible to the last
        // one before the node is recycled or freed.
        let node = unsafe { &*ptr };
        if node.participants.fetch_sub(1, Ordering::AcqRel) == 1 {
            let scope = node.scope;
            // SAFETY: we are the last participant; nobody else will touch
            // it.  The node returns to its home arena (or the heap).
            unsafe { TaskNode::release(ptr) };
            // The count goes through the owned handle: it may release the
            // scope's waiter, after which only the handle keeps the state.
            // For a task this worker claimed itself, entering is a pointer
            // compare; a team member or a retired task may enter here.
            let shard = self.id;
            // SAFETY: the task is counted until the `task_finished`.
            unsafe { self.enter_scope(scope) }.task_finished(shard);
            self.unchecked_finish = true;
        }
    }

    /// Drops `ptr` without running it when its cancel token was cancelled
    /// or its deadline has passed (DESIGN.md §17), retiring the scope
    /// countdown, the job's captured state (and with it any service
    /// completion guard) and the node's memory exactly once through
    /// `finish_node`.  Returns `true` when the node was retired.  The
    /// caller must be the node's exclusive owner (it popped the node and
    /// has not re-published it), so the deadline read is race-free.
    pub(super) fn retire_if_stale(&mut self, ptr: *mut TaskNode) -> bool {
        // SAFETY: the caller owns the node.
        let node = unsafe { &*ptr };
        if node.cancel.is_none() && node.deadline.is_none() {
            return false;
        }
        if let Some(cell) = &node.cancel {
            if cell.is_cancelled() {
                self.me().counters.tasks_cancelled.inc();
                self.finish_node(ptr);
                return true;
            }
        }
        if let Some(deadline) = node.deadline {
            if std::time::Instant::now() >= deadline {
                // Settle the cell to `Expired` so a late `cancel()`,
                // `is_expired` or `is_finished` observer sees a coherent
                // terminal state (and expiry never reports as cancelled).
                // Losing this CAS to a racing `cancel()` still drops the
                // task; only the expired-vs-cancelled attribution is
                // best-effort in that one window.
                if let Some(cell) = &node.cancel {
                    cell.expire();
                }
                self.me().counters.tasks_expired.inc();
                self.finish_node(ptr);
                return true;
            }
        }
        false
    }

    /// The claim-to-run gate (DESIGN.md §17): run by the owning worker
    /// immediately before executing a singleton or publishing a team task.
    /// Returns `true` when the task may run; `false` when it was cancelled
    /// or expired and has been retired without running.  The claim CAS
    /// makes run-vs-cancel a decided race: once it succeeds, a concurrent
    /// `cancel()` observes `Claimed` and returns false; once a `cancel()`
    /// wins, the claim here fails and the task never runs.
    pub(super) fn claim_for_run(&mut self, ptr: *mut TaskNode) -> bool {
        // SAFETY: the caller owns the node, which is counted in its scope
        // until `finish_node`.  Entering before the run (not only at the
        // finish) means a scope this worker completed earlier is signalled
        // before another scope's task runs, not after.
        unsafe { self.enter_scope((*ptr).scope) };
        if self.retire_if_stale(ptr) {
            return false;
        }
        // SAFETY: the caller owns the node.
        let node = unsafe { &*ptr };
        match &node.cancel {
            Some(cell) if !cell.try_claim() => {
                // A `cancel()` won between the staleness probe and the
                // claim — the decided race resolved against running.
                self.me().counters.tasks_cancelled.inc();
                self.finish_node(ptr);
                false
            }
            _ => true,
        }
    }
}

impl SpawnTarget for Worker {
    fn spawn_job_slot(&self, job: JobSlot, requirement: usize, scope: &ScopeState) {
        scope.task_spawned(self.id);
        let me = self.me();
        // SAFETY: a worker is the sole allocator of its own arena, and
        // `spawn_job_slot` only runs on the worker's own thread (tasks spawn
        // through the context of the worker executing them).
        let (ptr, recycled) = unsafe { me.node_pool.alloc() };
        // SAFETY: the slot is uninitialized (fresh or recycled-after-drop);
        // `home` points into the shared worker state, which outlives every
        // node.
        unsafe {
            ptr.write(TaskNode::new_in(
                job,
                requirement,
                scope,
                &me.node_pool as *const _,
            ));
        }
        if recycled {
            me.counters.nodes_recycled.inc();
        }
        let level = self.topo().level_for_requirement(self.id, requirement);
        let was_empty = me.queues[level].is_empty();
        me.push_task(level, ptr);
        me.counters.tasks_spawned.inc();
        if was_empty {
            // Spawn into an empty queue: new stealable work became visible.
            // The sleep controller makes this free when nobody sleeps or a
            // searcher is already scanning (one fence + one load).
            self.shared.sleep.notify_work(self.searching);
        }
        if requirement > 1 {
            // paper: the registration structure's `r` is updated whenever a
            // task is pushed to the bottom of a queue, so idle threads can
            // already register while we are still executing.
            let group = self.topo().group_size(self.id, level);
            self.announce(group);
        }
    }

    fn worker_id(&self) -> usize {
        self.id
    }

    fn num_threads(&self) -> usize {
        self.shared.num_threads()
    }

    fn steal_policy(&self) -> StealPolicy {
        self.shared.steal_policy
    }
}
