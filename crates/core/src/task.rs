//! The task model: jobs, task nodes and scope bookkeeping.
//!
//! A **job** is the user-provided work description; a **task node** is the
//! scheduler-internal object that travels through the work-stealing deques,
//! carries the thread requirement `r` (Section 3 of the paper), and — once a
//! team has been built for it — the team descriptor and the completion
//! countdown shared by all executing team members.
//!
//! # Task memory management
//!
//! Spawning is the scheduler's hottest path, so task nodes avoid the global
//! allocator twice over (DESIGN.md §8):
//!
//! * **Inline job storage** — closures small enough for the node's fixed
//!   payload area are moved *into* the node (`JobSlot::Inline`); only
//!   oversized closures pay for a separate heap allocation
//!   (`JobSlot::Boxed`).
//! * **Node recycling** — nodes spawned from worker threads come from the
//!   worker's slab arena ([`teamsteal_util::slab::Slab`]) and are returned
//!   to it by whichever thread finishes the task last; nodes submitted from
//!   outside the pool (no arena available) fall back to `Box`.  The `home`
//!   pointer records which of the two frees the node.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use teamsteal_topology::StealPolicy;
use teamsteal_util::countdown::ShardedCountdown;
use teamsteal_util::slab::{Recycle, Slab};

use crate::cancel::CancelCell;
use crate::context::TaskContext;
use crate::team::TeamBarrier;

/// A unit of work understood by the scheduler.
///
/// Jobs with [`requirement`](Job::requirement)` == 1` behave exactly like
/// classic work-stealing tasks: `run` is invoked once, by one worker.  Jobs
/// with a larger requirement are executed *cooperatively*: once a team of the
/// required size has been built, **every** team member invokes `run` on the
/// same job object concurrently, each with a different
/// [`TaskContext::local_id`].  The job body coordinates its members through
/// the context (team barrier, local ids) exactly like an SPMD kernel.
pub(crate) trait Job: Send + Sync {
    /// Number of threads this job requires (the paper's `r`), checked by
    /// [`check_requirement`] before the task is counted.
    fn requirement(&self) -> usize;

    /// Executes the job.  For team jobs this is called once per team member,
    /// concurrently.
    fn run(&self, ctx: &TaskContext<'_>);
}

/// The one validation of a task's requirement, run by every way a task
/// enters the scheduler before the task is counted in its scope or pushed:
/// `r` must be at least 1 and at most the thread count, and a team task
/// (`r > 1`) needs a hierarchical steal policy — `UniformRandom` builds no
/// teams, so a queued team task would never run and its scope never return.
///
/// # Panics
///
/// Panics if the requirement is unrunnable on a scheduler of `num_threads`
/// workers stealing by `policy`.
pub(crate) fn check_requirement(requirement: usize, num_threads: usize, policy: StealPolicy) {
    assert!(requirement >= 1, "a task requires at least one thread");
    assert!(
        requirement <= num_threads,
        "task requires {requirement} threads but the scheduler only has {num_threads}"
    );
    assert!(
        requirement == 1 || policy != StealPolicy::UniformRandom,
        "team tasks (r > 1) require a hierarchical steal policy; \
         StealPolicy::UniformRandom supports only sequential tasks"
    );
}

/// Adapter: a sequential (`r = 1`) job from a closure that is executed
/// exactly once.
pub(crate) struct OnceJob<F: FnOnce(&TaskContext<'_>) + Send> {
    /// The closure, taken exactly once by the single executing thread.
    f: UnsafeCell<Option<F>>,
}

// SAFETY: the closure is only ever taken by the single worker that executes
// this r = 1 task; the scheduler never shares an `OnceJob` between threads
// concurrently (see `TaskNode::participants`).
unsafe impl<F: FnOnce(&TaskContext<'_>) + Send> Sync for OnceJob<F> {}

impl<F: FnOnce(&TaskContext<'_>) + Send> OnceJob<F> {
    pub(crate) fn new(f: F) -> Self {
        OnceJob {
            f: UnsafeCell::new(Some(f)),
        }
    }
}

impl<F: FnOnce(&TaskContext<'_>) + Send> Job for OnceJob<F> {
    fn requirement(&self) -> usize {
        1
    }

    fn run(&self, ctx: &TaskContext<'_>) {
        // SAFETY: r = 1 tasks are executed by exactly one thread, exactly
        // once; no other reference to the cell can exist at this point.
        let f = unsafe { (*self.f.get()).take() };
        if let Some(f) = f {
            f(ctx);
        }
    }
}

/// Adapter: a team job (`r >= 1`) from a shared closure executed by every
/// team member.
pub(crate) struct TeamJob<F: Fn(&TaskContext<'_>) + Send + Sync> {
    requirement: usize,
    f: F,
}

impl<F: Fn(&TaskContext<'_>) + Send + Sync> TeamJob<F> {
    pub(crate) fn new(requirement: usize, f: F) -> Self {
        TeamJob { requirement, f }
    }
}

impl<F: Fn(&TaskContext<'_>) + Send + Sync> Job for TeamJob<F> {
    fn requirement(&self) -> usize {
        self.requirement
    }

    fn run(&self, ctx: &TaskContext<'_>) {
        (self.f)(ctx);
    }
}

// ---------------------------------------------------------------------------
// Job storage: inline payload with boxed fallback
// ---------------------------------------------------------------------------

/// Words of inline closure storage in every task node.  Sized so the typical
/// spawn captures (a couple of `Arc`s, slice pointers, lengths, a config
/// reference) fit; larger jobs fall back to a box.
const INLINE_JOB_WORDS: usize = 10;
const INLINE_JOB_BYTES: usize = INLINE_JOB_WORDS * std::mem::size_of::<usize>();

/// Calls `J::run` on the job stored at `payload`.
///
/// # Safety
///
/// `payload` must point to a live, initialized `J`.
unsafe fn run_job_thunk<J: Job>(payload: *const u8, ctx: &TaskContext<'_>) {
    // SAFETY: caller contract.
    unsafe { (*payload.cast::<J>()).run(ctx) }
}

/// Drops the job stored at `payload` in place.
///
/// # Safety
///
/// `payload` must point to a live, initialized `J`; it is dead afterwards.
unsafe fn drop_job_thunk<J: Job>(payload: *mut u8) {
    // SAFETY: caller contract.
    unsafe { std::ptr::drop_in_place(payload.cast::<J>()) }
}

/// A type-erased job stored inline in the node's payload area: the closure's
/// bytes plus manual run/drop vtable entries.
pub(crate) struct InlineJob {
    run_fn: unsafe fn(*const u8, &TaskContext<'_>),
    drop_fn: unsafe fn(*mut u8),
    payload: [MaybeUninit<usize>; INLINE_JOB_WORDS],
}

impl InlineJob {
    #[inline]
    fn run(&self, ctx: &TaskContext<'_>) {
        // SAFETY: `payload` holds the live job written in `JobSlot::new`;
        // it is dropped only by `InlineJob::drop`.
        unsafe { (self.run_fn)(self.payload.as_ptr().cast::<u8>(), ctx) }
    }
}

impl Drop for InlineJob {
    fn drop(&mut self) {
        // SAFETY: the payload was initialized in `JobSlot::new` and is
        // dropped exactly once, here.
        unsafe { (self.drop_fn)(self.payload.as_mut_ptr().cast::<u8>()) }
    }
}

/// The job of one task node: stored inline when it fits, boxed otherwise.
pub(crate) enum JobSlot {
    /// Small job moved into the node's payload area — no heap allocation.
    Inline(InlineJob),
    /// Job too large (or too aligned) for the payload area.
    Boxed(Box<dyn Job>),
}

impl JobSlot {
    /// Packs a concrete job, inline when it fits the payload area.
    pub(crate) fn new<J: Job + 'static>(job: J) -> JobSlot {
        if std::mem::size_of::<J>() <= INLINE_JOB_BYTES
            && std::mem::align_of::<J>() <= std::mem::align_of::<usize>()
        {
            let mut payload = [MaybeUninit::<usize>::uninit(); INLINE_JOB_WORDS];
            // SAFETY: the size/alignment checks above make the payload area
            // a valid home for `J`; the value is moved in exactly once.
            unsafe { payload.as_mut_ptr().cast::<J>().write(job) };
            JobSlot::Inline(InlineJob {
                run_fn: run_job_thunk::<J>,
                drop_fn: drop_job_thunk::<J>,
                payload,
            })
        } else {
            JobSlot::Boxed(Box::new(job))
        }
    }

    /// Executes the job (once per team member for team jobs).
    #[inline]
    pub(crate) fn run(&self, ctx: &TaskContext<'_>) {
        match self {
            JobSlot::Inline(inline) => inline.run(ctx),
            JobSlot::Boxed(job) => job.run(ctx),
        }
    }

    /// `true` when the job lives in the node's payload area.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_inline(&self) -> bool {
        matches!(self, JobSlot::Inline(_))
    }
}

/// Completion bookkeeping for one scope ([`Scheduler::scope`] or a
/// [`ConcurrentScope`]).
///
/// Every spawned task is counted on the spawning thread's shard of a
/// [`ShardedCountdown`]; the last team member to finish a task counts it as
/// finished on its own shard.  The scope call blocks until the two-pass sum
/// reads zero, which doubles as the termination detection of the scheduler
/// run (see DESIGN.md §3 for why this replaces the paper's unspecified idle
/// registration protocol, and §9 for the countdown's ordering rules).
///
/// Task nodes and contexts **borrow** the state (`*const ScopeState`): a
/// counted, unfinished node keeps the scope's waiter blocked — or, for a
/// [`ConcurrentScope`] nobody waits on, its orphan count parked — so the
/// state outlives the node.  Only what a worker touches *after* a
/// `task_finished` goes through an owned `Arc` (the worker's scope handle).
///
/// [`Scheduler::scope`]: crate::Scheduler::scope
/// [`ConcurrentScope`]: crate::ConcurrentScope
pub struct ScopeState {
    countdown: ShardedCountdown,
    /// First panic payload raised by a task of this scope, if any.  It is
    /// re-thrown by `Scheduler::scope` after all tasks have drained, so a
    /// panicking task aborts the scope instead of wedging the scheduler.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Total panics recorded over the scope's lifetime.  Only the *first*
    /// payload is kept for re-throwing; this counter makes the silently
    /// dropped rest diagnosable (surfaced through `ServiceReport`).
    panics_observed: AtomicUsize,
    /// Set while the state holds a strong count on itself on behalf of tasks
    /// that outlived the last user handle (see [`orphan`](Self::orphan)).
    orphaned: AtomicBool,
}

impl ScopeState {
    /// Creates the state with `shards` countdown shards: workers count on
    /// shard `worker id`, threads outside the pool on the last one.
    pub(crate) fn new(shards: usize) -> Arc<Self> {
        Arc::new(ScopeState {
            countdown: ShardedCountdown::new(shards),
            panic: Mutex::new(None),
            panics_observed: AtomicUsize::new(0),
            orphaned: AtomicBool::new(false),
        })
    }

    /// An owned handle on the state a counted task node borrows.  A finisher
    /// needs one for everything it touches *after* `task_finished`: that
    /// increment may release the scope's waiter, and with it the last other
    /// owner of the state (DESIGN.md §9, owned-handle rule).
    ///
    /// # Safety
    ///
    /// `scope` must be the `Arc::as_ptr` of a state kept alive by a task
    /// node that is still counted in it.
    pub(crate) unsafe fn acquire(scope: *const ScopeState) -> Arc<ScopeState> {
        // SAFETY: caller contract — the state is alive, so its strong count
        // is at least one and may be raised on behalf of a new `Arc`.
        unsafe {
            Arc::increment_strong_count(scope);
            Arc::from_raw(scope)
        }
    }

    /// Records the payload of a panicking task (first one wins; every call
    /// is counted in [`panics_observed`](Self::panics_observed)).
    pub(crate) fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        self.panics_observed.fetch_add(1, Ordering::Relaxed);
        let mut slot = self.panic.lock().expect("scope panic slot poisoned");
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Total panics recorded over the scope's lifetime, including those
    /// whose payloads were dropped because an earlier panic already
    /// occupied the re-throw slot.
    pub(crate) fn panics_observed(&self) -> u64 {
        self.panics_observed.load(Ordering::Relaxed) as u64
    }

    /// Takes the recorded panic payload, if any.
    pub(crate) fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.panic.lock().expect("scope panic slot poisoned").take()
    }

    /// The shard threads outside the worker pool count on.
    pub(crate) fn external_shard(&self) -> usize {
        self.countdown.num_shards() - 1
    }

    /// Registers one more outstanding task, counted on `shard`.
    #[inline]
    pub(crate) fn task_spawned(&self, shard: usize) {
        self.countdown.spawned(shard);
    }

    /// Marks one task as fully finished (all team members done), counted on
    /// `shard`.  This may release the scope's waiter: the caller must reach
    /// `self` through an owned `Arc` if it touches the state afterwards.
    #[inline]
    pub(crate) fn task_finished(&self, shard: usize) {
        self.countdown.finished(shard);
    }

    /// Wakes the scope's waiters if there are any and every counted task has
    /// finished.  Called by a finisher when it runs out of work that could
    /// belong to this scope (DESIGN.md §9), through its owned handle.
    pub(crate) fn signal_if_complete(&self) {
        if self.countdown.signal_if_zero() {
            self.release_orphan();
        }
    }

    /// Number of not-yet-finished tasks (a two-pass sum over the shards).
    pub(crate) fn pending(&self) -> usize {
        self.countdown.pending()
    }

    /// Blocks until every task spawned in this scope has finished.
    pub(crate) fn wait(&self) {
        self.countdown.wait();
    }

    /// Called when the last user handle of a [`ConcurrentScope`] goes away:
    /// nobody will wait for the tasks still counted, yet their nodes borrow
    /// the state.  The state therefore parks one strong count on itself and
    /// registers as a waiter; the finisher whose `signal_if_complete` sees
    /// the countdown at zero — or this call, if it already is — releases it.
    ///
    /// [`ConcurrentScope`]: crate::ConcurrentScope
    pub(crate) fn orphan(this: &Arc<Self>) {
        std::mem::forget(Arc::clone(this));
        // Flag before registering: a finisher that sees the waiter (SeqCst
        // on both sides) then also sees the flag.
        this.orphaned.store(true, Ordering::SeqCst);
        this.countdown.add_waiter();
        if this.countdown.is_zero() {
            this.release_orphan();
        }
    }

    /// Drops the parked strong count, exactly once however many finishers
    /// (and `orphan` itself) observe completion.
    fn release_orphan(&self) {
        if self.orphaned.swap(false, Ordering::SeqCst) {
            // SAFETY: the swap won the count `orphan` forgot, which came
            // from an `Arc<Self>`; the caller reaches `self` through a
            // strong count of its own, so this is never the last one.
            unsafe { Arc::decrement_strong_count(self as *const Self) };
        }
    }
}

/// The scheduler-internal representation of one spawned task.
///
/// Nodes spawned on worker threads live in the spawning worker's slab arena
/// and are recycled there by the last finishing participant; externally
/// submitted nodes are boxed.  Either way the node travels through the
/// deques as a raw pointer and is freed exactly once, by
/// `TaskNode::release`.
pub struct TaskNode {
    /// Intrusive link used by the home slab while the node is dead.  Never
    /// touched while the node is alive.
    free_next: AtomicPtr<TaskNode>,
    /// The arena this node recycles into; null for box-allocated nodes.
    /// Points into the scheduler's shared worker state, which outlives every
    /// node (workers are joined and queues drained before it drops).
    home: *const Slab<TaskNode>,
    /// The user job.
    pub(crate) job: JobSlot,
    /// Thread requirement `r` of this task, fixed at spawn (the paper's
    /// model: a task never changes its requirement).
    pub(crate) requirement: usize,
    /// Scope this task belongs to (for completion counting).  Borrowed, from
    /// `Arc::as_ptr`: the node is counted in the scope from before it is
    /// allocated until after it is released, and a scope with a counted task
    /// is kept alive by its waiter (see [`ScopeState`]).
    pub(crate) scope: *const ScopeState,
    /// Barrier shared by the team for this task.  Re-armed for the team's
    /// size by the coordinator *before* the task is published and borrowed
    /// by team members *after* they observe the publication (the publication
    /// seqlock provides the ordering); the node outlives every borrower by
    /// the `participants` count.
    pub(crate) barrier: UnsafeCell<TeamBarrier>,
    /// Team members that have not yet finished running this task.  The last
    /// one to decrement frees the node and notifies the scope.
    pub(crate) participants: AtomicU32,
    /// Claim-to-run arbiter for cancellable tasks (DESIGN.md §17), shared
    /// with the submitter's cancel token.  `None` (the default for every
    /// internal spawn path) keeps the hot paths free of cancellation
    /// checks.  Written only while the submitter exclusively owns the node
    /// (between allocation and injection); the injector handoff publishes
    /// it.
    pub(crate) cancel: Option<Arc<CancelCell>>,
    /// Absolute deadline after which the task is dropped without running
    /// (DESIGN.md §17).  Plain data: checked only by the worker that
    /// exclusively owns the node at pop/claim time, so no atomicity is
    /// needed.  `None` for every internal spawn path.
    pub(crate) deadline: Option<std::time::Instant>,
}

// SAFETY: the UnsafeCell field is written only by the coordinating worker
// before publication and read only after the publication is observed through
// an acquire load; `participants` and `job` are themselves thread-safe, and
// `home`/`free_next` are only used by the release/recycle protocol.
unsafe impl Send for TaskNode {}
unsafe impl Sync for TaskNode {}

// SAFETY: `free_next` is a dedicated field inside the node, accessed through
// a raw pointer without forming references to the rest of the (dead) node.
unsafe impl Recycle for TaskNode {
    unsafe fn free_link(ptr: *mut Self) -> *mut AtomicPtr<Self> {
        // SAFETY: `addr_of_mut!` projects the field without dereferencing.
        unsafe { std::ptr::addr_of_mut!((*ptr).free_next) }
    }
}

impl TaskNode {
    /// Builds a node value.  `home` is the slab the node recycles into
    /// (null ⇒ the node is boxed and freed through `Box::from_raw`).
    pub(crate) fn new_in(
        job: JobSlot,
        requirement: usize,
        scope: *const ScopeState,
        home: *const Slab<TaskNode>,
    ) -> Self {
        TaskNode {
            free_next: AtomicPtr::new(std::ptr::null_mut()),
            home,
            job,
            requirement,
            scope,
            barrier: UnsafeCell::new(TeamBarrier::new(1)),
            participants: AtomicU32::new(1),
            cancel: None,
            deadline: None,
        }
    }

    /// Allocates a boxed node (used for root tasks submitted from outside
    /// the worker pool, where no arena is available) and returns the raw
    /// pointer that travels through the deques.  The task is counted on the
    /// scope's external shard here.
    pub(crate) fn allocate_boxed(
        job: JobSlot,
        requirement: usize,
        scope: &Arc<ScopeState>,
    ) -> *mut TaskNode {
        scope.task_spawned(scope.external_shard());
        Box::into_raw(Box::new(TaskNode::new_in(
            job,
            requirement,
            Arc::as_ptr(scope),
            std::ptr::null(),
        )))
    }

    /// The scope this task is counted in.
    ///
    /// # Safety
    ///
    /// The node must still be counted in its scope (not yet retired through
    /// `task_finished`), which is what keeps the borrowed state alive.
    #[inline]
    pub(crate) unsafe fn scope(&self) -> &ScopeState {
        // SAFETY: caller contract.
        unsafe { &*self.scope }
    }

    /// Frees a node: recycles it into its home arena, or drops the box.
    ///
    /// # Safety
    ///
    /// `ptr` must come from [`TaskNode::allocate_boxed`] or a slab `alloc`
    /// that recorded the slab in `home`, the caller must be the last holder
    /// of the node, and the node must not be touched afterwards.
    pub(crate) unsafe fn release(ptr: *mut TaskNode) {
        // SAFETY: the node is still alive here; reading `home` is fine.
        let home = unsafe { (*ptr).home };
        if home.is_null() {
            // SAFETY: allocated by `allocate_boxed`.
            drop(unsafe { Box::from_raw(ptr) });
        } else {
            // SAFETY: drop the contents in place, then hand the dead slot
            // back to its arena; the arena outlives all nodes (see `home`).
            unsafe {
                std::ptr::drop_in_place(ptr);
                (*home).free(ptr);
            }
        }
    }
}

/// A word-sized handle to a [`TaskNode`] as stored in the work-stealing
/// deques and the injection queue.  The handle does not own the node;
/// ownership is tracked by the execution protocol (a node is freed by the
/// last finishing participant, or by the scheduler when draining queues at
/// shutdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TaskPtr(pub(crate) *mut TaskNode);

// SAFETY: TaskPtr is just an address; the pointee is Send + Sync.
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_counts_down_to_zero_across_shards() {
        let scope = ScopeState::new(3);
        assert_eq!(scope.external_shard(), 2);
        scope.task_spawned(2);
        scope.task_spawned(0);
        assert_eq!(scope.pending(), 2);
        scope.task_finished(1);
        assert_eq!(scope.pending(), 1);
        scope.task_finished(0);
        assert_eq!(scope.pending(), 0);
        // wait() returns immediately when nothing is pending.
        scope.wait();
    }

    #[test]
    fn scope_wait_blocks_until_signalled() {
        let scope = ScopeState::new(2);
        scope.task_spawned(1);
        let released = Arc::new(AtomicBool::new(false));
        let waiter = {
            let scope = Arc::clone(&scope);
            let released = Arc::clone(&released);
            std::thread::spawn(move || {
                scope.wait();
                released.load(Ordering::SeqCst)
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        released.store(true, Ordering::SeqCst);
        scope.task_finished(0);
        scope.signal_if_complete();
        assert!(waiter.join().unwrap(), "wait returned before task finished");
    }

    #[test]
    fn orphaned_state_lives_until_its_last_task_finishes() {
        // Nothing outstanding: the parked count is released on the spot.
        let idle = ScopeState::new(2);
        ScopeState::orphan(&idle);
        assert_eq!(Arc::strong_count(&idle), 1);

        // A counted task: the state keeps itself alive until a finisher's
        // completion check, which releases the count exactly once.
        let busy = ScopeState::new(2);
        busy.task_spawned(1);
        ScopeState::orphan(&busy);
        assert_eq!(Arc::strong_count(&busy), 2);
        busy.signal_if_complete();
        assert_eq!(Arc::strong_count(&busy), 2, "a task is still outstanding");
        busy.task_finished(0);
        busy.signal_if_complete();
        assert_eq!(Arc::strong_count(&busy), 1);
        busy.signal_if_complete();
        assert_eq!(Arc::strong_count(&busy), 1, "released once only");
    }

    #[test]
    fn record_panic_counts_every_payload_but_keeps_the_first() {
        let scope = ScopeState::new(1);
        assert_eq!(scope.panics_observed(), 0);
        scope.record_panic(Box::new("first"));
        scope.record_panic(Box::new("second"));
        assert_eq!(scope.panics_observed(), 2);
        let payload = scope.take_panic().expect("first payload kept");
        assert_eq!(*payload.downcast::<&str>().unwrap(), "first");
        assert!(scope.take_panic().is_none(), "later payloads are dropped");
    }

    #[test]
    fn allocate_increments_pending_and_sets_defaults() {
        let scope = ScopeState::new(2);
        let ptr = TaskNode::allocate_boxed(
            JobSlot::new(TeamJob::new(4, |_ctx: &TaskContext<'_>| {})),
            4,
            &scope,
        );
        assert_eq!(scope.pending(), 1);
        // SAFETY: we just allocated it and nothing else references it.
        let node = unsafe { &*ptr };
        assert_eq!(node.requirement, 4);
        assert_eq!(node.participants.load(Ordering::Relaxed), 1);
        assert_eq!(node.scope, Arc::as_ptr(&scope));
        assert_eq!(Arc::strong_count(&scope), 1, "nodes borrow the scope");
        // SAFETY: sole holder.
        unsafe { TaskNode::release(ptr) };
        scope.task_finished(0);
        assert_eq!(scope.pending(), 0);
    }

    #[test]
    fn small_jobs_store_inline_large_jobs_box() {
        let small = JobSlot::new(TeamJob::new(2, |_ctx: &TaskContext<'_>| {}));
        assert!(small.is_inline(), "an empty closure fits the payload area");
        let big_payload = [0u64; 64];
        let big = JobSlot::new(TeamJob::new(2, move |_ctx: &TaskContext<'_>| {
            std::hint::black_box(&big_payload);
        }));
        assert!(!big.is_inline(), "a 512-byte capture must fall back to Box");
    }

    #[test]
    fn inline_jobs_drop_their_captures() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Token;
        impl Drop for Token {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let token = Token;
        let slot = JobSlot::new(OnceJob::new(move |_ctx: &TaskContext<'_>| {
            let _keep = &token;
        }));
        assert!(slot.is_inline());
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        drop(slot);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1, "unexecuted inline job drops its capture");
    }
}
