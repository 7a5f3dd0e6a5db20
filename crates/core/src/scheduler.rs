//! The public scheduler front-end: thread pool construction, scopes and
//! metrics.

use std::sync::Arc;
use std::thread::JoinHandle;

use teamsteal_topology::{StealPolicy, Topology};

use crate::cancel::CancelCell;
use crate::config::SchedulerConfig;
use crate::context::TaskContext;
use crate::metrics::MetricsSnapshot;
use crate::task::{check_requirement, Job, JobSlot, OnceJob, ScopeState, TaskNode, TeamJob};
use crate::worker::{SchedulerShared, Worker};

/// Builder for a [`Scheduler`].
///
/// ```
/// use teamsteal_core::Scheduler;
/// use teamsteal_topology::StealPolicy;
///
/// let scheduler = Scheduler::builder()
///     .threads(4)
///     .steal_policy(StealPolicy::Deterministic)
///     .build();
/// assert_eq!(scheduler.num_threads(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SchedulerBuilder {
    config: SchedulerConfig,
}

impl SchedulerBuilder {
    /// Sets the number of worker threads (the paper's `p`).
    ///
    /// ```
    /// use teamsteal_core::Scheduler;
    ///
    /// let scheduler = Scheduler::builder().threads(3).build();
    /// assert_eq!(scheduler.num_threads(), 3);
    /// ```
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.num_threads = threads;
        self
    }

    /// Sets an explicit machine topology (Refinement 3).  Its size must match
    /// the configured thread count.
    ///
    /// ```
    /// use teamsteal_core::{Scheduler, Topology};
    ///
    /// let scheduler = Scheduler::builder()
    ///     .threads(4)
    ///     .topology(Topology::power_of_two(4))
    ///     .build();
    /// assert_eq!(scheduler.topology().num_threads(), 4);
    /// ```
    pub fn topology(mut self, topology: Topology) -> Self {
        self.config.topology = Some(topology);
        self
    }

    /// Sets the partner / victim selection policy.
    ///
    /// [`StealPolicy::Deterministic`] is the paper's team-building scheduler;
    /// [`StealPolicy::UniformRandom`] is the classic randomized work-stealer
    /// (the *Randfork* baseline) and supports only `r = 1` tasks.
    ///
    /// ```
    /// use teamsteal_core::{Scheduler, StealPolicy};
    ///
    /// let scheduler = Scheduler::builder()
    ///     .threads(2)
    ///     .steal_policy(StealPolicy::UniformRandom)
    ///     .build();
    /// scheduler.run(|_| {});
    /// ```
    pub fn steal_policy(mut self, policy: StealPolicy) -> Self {
        self.config.steal_policy = policy;
        self
    }

    /// Sets the PRNG seed used for randomized stealing.
    ///
    /// ```
    /// use teamsteal_core::{Scheduler, StealPolicy};
    ///
    /// let scheduler = Scheduler::builder()
    ///     .threads(2)
    ///     .steal_policy(StealPolicy::UniformRandom)
    ///     .seed(0xfeed)
    ///     .build();
    /// scheduler.run(|_| {});
    /// ```
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the maximum worker count per injection-shard domain (see
    /// [`SchedulerConfig::domain_width`]): the external injection queue gets
    /// one shard per hierarchy domain of at most this width.  A width ≥ the
    /// thread count forces a single shard (the pre-sharding behaviour); a
    /// width of 1 gives one shard per worker.
    ///
    /// ```
    /// use teamsteal_core::Scheduler;
    ///
    /// let scheduler = Scheduler::builder()
    ///     .threads(4)
    ///     .domain_width(2)
    ///     .build();
    /// assert_eq!(scheduler.injector_shard_segments().len(), 2);
    /// ```
    pub fn domain_width(mut self, width: usize) -> Self {
        self.config.domain_width = width;
        self
    }

    /// Sets the number of pre-registered epoch-pin slots for threads outside
    /// the worker pool (see [`SchedulerConfig::external_participants`]).
    /// Size it at least as large as the peak number of threads submitting
    /// concurrently: with the pool exhausted, surplus submitters spin-wait
    /// for a slot and are counted in `external_pin_waits`.
    ///
    /// ```
    /// use teamsteal_core::Scheduler;
    ///
    /// let scheduler = Scheduler::builder()
    ///     .threads(2)
    ///     .external_participants(128)
    ///     .build();
    /// assert_eq!(scheduler.external_pin_slots(), 128);
    /// ```
    pub fn external_participants(mut self, slots: usize) -> Self {
        self.config.external_participants = slots;
        self
    }

    /// Overrides the full configuration.
    ///
    /// ```
    /// use teamsteal_core::{Scheduler, SchedulerConfig};
    ///
    /// let scheduler = Scheduler::builder()
    ///     .config(SchedulerConfig::with_threads(2))
    ///     .build();
    /// assert_eq!(scheduler.num_threads(), 2);
    /// ```
    pub fn config(mut self, config: SchedulerConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the scheduler and starts its worker threads.
    pub fn build(self) -> Scheduler {
        Scheduler::new(self.config)
    }
}

/// A work-stealing scheduler with deterministic team-building.
///
/// The scheduler owns `p` worker threads.  Work is submitted through
/// [`Scheduler::scope`]; tasks may be sequential (classic work-stealing) or
/// request `r > 1` threads, in which case a team of `r` consecutively
/// numbered workers is assembled to execute them cooperatively.
///
/// Dropping the scheduler shuts the workers down (after any active scope has
/// completed, since scopes borrow the scheduler).
pub struct Scheduler {
    shared: Arc<SchedulerShared>,
    threads: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Creates a scheduler with the given configuration and starts its
    /// workers.
    pub fn new(config: SchedulerConfig) -> Self {
        let shared = SchedulerShared::new(&config);
        let mut threads = Vec::with_capacity(shared.num_threads());
        for id in 0..shared.num_threads() {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("teamsteal-worker-{id}"))
                .spawn(move || {
                    let mut worker = Worker::new(id, shared);
                    worker.run_loop();
                })
                .expect("failed to spawn worker thread");
            threads.push(handle);
        }
        Scheduler { shared, threads }
    }

    /// Creates a scheduler with default configuration and the given number of
    /// threads.
    pub fn with_threads(threads: usize) -> Self {
        Self::new(SchedulerConfig::with_threads(threads))
    }

    /// Returns a [`SchedulerBuilder`].
    pub fn builder() -> SchedulerBuilder {
        SchedulerBuilder::default()
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.shared.num_threads()
    }

    /// The machine topology the scheduler was built with.
    pub fn topology(&self) -> &Topology {
        &self.shared.topology
    }

    /// Runs `f` with a [`Scope`] through which root tasks can be submitted,
    /// then blocks until **all** tasks spawned within the scope — directly or
    /// transitively from other tasks — have finished.
    ///
    /// If any task panics — or `f` itself does — the panic is re-thrown
    /// here once the remaining tasks have drained.
    pub fn scope<F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_>) -> R,
    {
        // One countdown shard per worker plus one for this thread.
        let state = ScopeState::new(self.num_threads() + 1);
        let scope = Scope {
            scheduler: self,
            state: &state,
        };
        // Task nodes borrow `state`, so not even a panic in `f` may skip
        // the wait (the same rule as `std::thread::scope`).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&scope)));
        state.wait();
        let result = result.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        if let Some(payload) = state.take_panic() {
            std::panic::resume_unwind(payload);
        }
        result
    }

    /// Convenience wrapper: runs a single sequential root task and waits for
    /// everything it (transitively) spawns.
    pub fn run<F>(&self, f: F)
    where
        F: FnOnce(&TaskContext<'_>) + Send + 'static,
    {
        self.scope(|s| s.spawn(f));
    }

    /// Convenience wrapper: runs a single team root task requiring `threads`
    /// workers and waits for everything it (transitively) spawns.
    pub fn run_team<F>(&self, threads: usize, f: F)
    where
        F: Fn(&TaskContext<'_>) + Send + Sync + 'static,
    {
        self.scope(|s| s.spawn_team(threads, f));
    }

    /// Per-worker metric snapshots, indexed by worker id.
    pub fn worker_metrics(&self) -> Vec<MetricsSnapshot> {
        self.shared
            .workers
            .iter()
            .map(|w| w.counters.snapshot())
            .collect()
    }

    /// Aggregated metrics over all workers.
    ///
    /// Counters are cumulative over the scheduler's lifetime; diff two
    /// snapshots with [`MetricsSnapshot::delta_since`] to attribute events to
    /// one region of interest.
    ///
    /// ```
    /// use teamsteal_core::Scheduler;
    ///
    /// let scheduler = Scheduler::with_threads(4);
    /// let before = scheduler.metrics();
    /// scheduler.run_team(4, |ctx| {
    ///     ctx.barrier();
    /// });
    /// let delta = scheduler.metrics().delta_since(&before);
    /// assert_eq!(delta.teams_formed, 1);        // one team, built once
    /// assert!(delta.registrations >= 3);        // one CAS per non-coordinator
    /// assert_eq!(delta.team_tasks_executed, 4); // counted per participant
    /// ```
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut aggregate = self
            .worker_metrics()
            .into_iter()
            .fold(MetricsSnapshot::default(), MetricsSnapshot::merge);
        // Scheduler-wide counters that no single worker owns.
        aggregate.external_pin_waits = self.shared.external_pins.pin_waits();
        aggregate
    }

    /// One-line dump of every worker's scheduler-visible state (registration
    /// word, coordinator, start countdown, queue lengths) plus the injection
    /// queue length.  Lock-free and safe to call while the scheduler is
    /// running; intended for stall diagnostics and test watchdogs.
    pub fn debug_state(&self) -> String {
        self.shared.debug_state_line()
    }

    /// Point-in-time snapshot of the memory-reclamation state (DESIGN.md
    /// §11): how many injection-queue segments are currently retained, how
    /// many retired objects await their epoch, and the global epoch itself.
    ///
    /// With reclamation healthy, `injector_segments` stays bounded by the
    /// live queue (it does **not** grow with lifetime root-task count) and
    /// `deferred_items` stays within a small collection window.  Lock-free
    /// reads; values may be stale by the time the caller acts on them.
    ///
    /// ```
    /// use teamsteal_core::Scheduler;
    ///
    /// let scheduler = Scheduler::with_threads(2);
    /// scheduler.run(|_| {});
    /// let r = scheduler.reclamation();
    /// assert!(r.injector_segments >= 1); // the current segment is always live
    /// ```
    pub fn reclamation(&self) -> ReclamationSnapshot {
        ReclamationSnapshot {
            injector_segments: self.shared.injector.live_segments(),
            deferred_items: self.shared.epoch.pending(),
            global_epoch: self.shared.epoch.global_epoch(),
        }
    }

    /// Live (allocated, not yet reclaimed) injection-queue segments per
    /// shard, indexed by shard/domain.  The per-shard view of
    /// [`reclamation`](Self::reclamation)'s aggregate `injector_segments`:
    /// with reclamation healthy, **each** shard's count stays bounded by
    /// its live queue, so a shard starved of consumers cannot hide behind a
    /// healthy aggregate.
    ///
    /// ```
    /// use teamsteal_core::Scheduler;
    ///
    /// let scheduler = Scheduler::with_threads(2);
    /// let per_shard = scheduler.injector_shard_segments();
    /// assert!(per_shard.iter().all(|&s| s >= 1)); // current segment is live
    /// assert_eq!(per_shard.iter().sum::<usize>(),
    ///            scheduler.reclamation().injector_segments);
    /// ```
    pub fn injector_shard_segments(&self) -> Vec<usize> {
        (0..self.shared.injector.num_shards())
            .map(|s| self.shared.injector.shard_live_segments(s))
            .collect()
    }

    /// Current queue length of every injection shard, indexed by
    /// shard/domain (DESIGN.md §13).  This is the external **backlog**
    /// gauge — root tasks submitted but not yet popped by a worker — that
    /// admission-control layers use as their high-water signal.  Lock-free
    /// reads; values may be stale by the time the caller acts on them.
    ///
    /// ```
    /// use teamsteal_core::Scheduler;
    ///
    /// let scheduler = Scheduler::with_threads(2);
    /// scheduler.run(|_| {});
    /// // After a scope has drained, no external backlog remains.
    /// assert_eq!(scheduler.injector_shard_lens().iter().sum::<usize>(), 0);
    /// ```
    pub fn injector_shard_lens(&self) -> Vec<usize> {
        (0..self.shared.injector.num_shards())
            .map(|s| self.shared.injector.shard_len(s))
            .collect()
    }

    /// Total external backlog: the sum of
    /// [`injector_shard_lens`](Self::injector_shard_lens) over all shards.
    pub fn injector_len(&self) -> usize {
        self.shared.injector.len()
    }

    /// Number of pre-registered epoch-pin slots for external submitter
    /// threads (see [`SchedulerBuilder::external_participants`]).
    pub fn external_pin_slots(&self) -> usize {
        self.shared.external_pins.capacity()
    }

    /// The one way a root task enters the scheduler: check its requirement,
    /// allocate the node and count it in `state`, attach the cancel cell and
    /// deadline, and inject it.  Small jobs are stored inline in the (boxed)
    /// node, so external submission costs one allocation.
    fn submit_root<J: Job + 'static>(
        &self,
        state: &Arc<ScopeState>,
        job: J,
        cancel: Option<Arc<CancelCell>>,
        deadline: Option<std::time::Instant>,
    ) {
        let requirement = job.requirement();
        check_requirement(requirement, self.num_threads(), self.shared.steal_policy);
        let node = TaskNode::allocate_boxed(JobSlot::new(job), requirement, state);
        // SAFETY: between `allocate_boxed` and `inject` this thread is the
        // node's exclusive owner; the injector's release/acquire handoff
        // publishes the fields to the popping worker.
        unsafe {
            (*node).cancel = cancel;
            (*node).deadline = deadline;
        }
        self.shared.inject(node);
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shared
            .shutdown
            .store(true, std::sync::atomic::Ordering::Release);
        // Wake every parked worker so shutdown is observed in microseconds;
        // the eventcount's ticket bump also covers workers that are
        // mid-commit into a park.
        self.shared.sleep.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // Free any leftover nodes (a `ConcurrentScope`'s, queued at shutdown).
        self.shared.drain_leftovers();
    }
}

/// Point-in-time view of the scheduler's memory-reclamation state, from
/// [`Scheduler::reclamation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReclamationSnapshot {
    /// Injection-queue segments currently linked (live chain; retired ones
    /// are excluded).  Bounded when reclamation is healthy.
    pub injector_segments: usize,
    /// Retired objects (segments + deque buffers) deferred but not yet
    /// freed by the epoch domain.
    pub deferred_items: usize,
    /// The reclamation domain's global epoch.
    pub global_epoch: u64,
}

/// Handle for submitting root tasks from outside the worker pool.
///
/// Obtained from [`Scheduler::scope`]; all spawned work is accounted to that
/// scope and the scope call returns only once the work has drained.
pub struct Scope<'a> {
    scheduler: &'a Scheduler,
    state: &'a Arc<ScopeState>,
}

impl Scope<'_> {
    /// Submits a sequential (`r = 1`) root task.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&TaskContext<'_>) + Send + 'static,
    {
        self.scheduler
            .submit_root(self.state, OnceJob::new(f), None, None);
    }

    /// Submits a data-parallel root task requiring `threads` workers.  The
    /// closure is executed by every member of the team built for it.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero, exceeds the number of scheduler threads,
    /// or is above 1 under [`StealPolicy::UniformRandom`].
    pub fn spawn_team<F>(&self, threads: usize, f: F)
    where
        F: Fn(&TaskContext<'_>) + Send + Sync + 'static,
    {
        self.scheduler
            .submit_root(self.state, TeamJob::new(threads, f), None, None);
    }

    /// Number of worker threads of the underlying scheduler.
    pub fn num_threads(&self) -> usize {
        self.scheduler.num_threads()
    }
}

/// A reusable, clonable scope for **concurrent external submission**.
///
/// [`Scheduler::scope`] is transactional: it borrows the scheduler, blocks
/// the calling thread until everything it spawned has drained, and hands the
/// [`Scope`] to exactly one closure.  A `ConcurrentScope` decouples all
/// three for long-lived front-ends: it owns nothing but completion
/// bookkeeping (one `Arc`), is `Clone + Send + Sync`, and accepts
/// submissions from any number of threads while earlier tasks are still
/// running.  Callers block only where they choose to, via
/// [`wait_idle`](Self::wait_idle); dropping the last clone never blocks —
/// tasks still outstanding keep the bookkeeping alive until they finish.
///
/// A panicking task does **not** unwind any caller here (there is no scope
/// call to re-throw from); the first payload is captured and surfaces
/// through [`take_panic`](Self::take_panic).
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// use teamsteal_core::{ConcurrentScope, Scheduler};
///
/// let scheduler = Scheduler::with_threads(2);
/// let scope = ConcurrentScope::new();
/// let hits = Arc::new(AtomicUsize::new(0));
/// for _ in 0..8 {
///     let hits = Arc::clone(&hits);
///     scope.submit(&scheduler, move |_| {
///         hits.fetch_add(1, Ordering::Relaxed);
///     });
/// }
/// scope.wait_idle();
/// assert_eq!(hits.load(Ordering::Relaxed), 8);
/// ```
#[derive(Clone)]
pub struct ConcurrentScope {
    owner: Arc<ScopeOwner>,
}

/// Countdown shards of a [`ConcurrentScope`], which is created without a
/// scheduler and so cannot size them from `P`: workers `0..7` count on a
/// line of their own, higher ids and external submitters share.
const CONCURRENT_SCOPE_SHARDS: usize = 8;

/// What the user-facing clones of a [`ConcurrentScope`] share.  Its drop is
/// the moment the last of them is gone, which is when task nodes that
/// borrow the state can no longer rely on a user to keep it alive.
struct ScopeOwner {
    state: Arc<ScopeState>,
}

impl Drop for ScopeOwner {
    fn drop(&mut self) {
        ScopeState::orphan(&self.state);
    }
}

impl Default for ConcurrentScope {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentScope {
    /// Creates an empty concurrent scope.
    pub fn new() -> Self {
        ConcurrentScope {
            owner: Arc::new(ScopeOwner {
                state: ScopeState::new(CONCURRENT_SCOPE_SHARDS),
            }),
        }
    }

    /// Submits a sequential (`r = 1`) root task to `scheduler`, accounted to
    /// this scope.  Returns as soon as the task is enqueued.
    pub fn submit<F>(&self, scheduler: &Scheduler, f: F)
    where
        F: FnOnce(&TaskContext<'_>) + Send + 'static,
    {
        scheduler.submit_root(&self.owner.state, OnceJob::new(f), None, None);
    }

    /// Submits a data-parallel root task requiring `threads` workers (see
    /// [`Scope::spawn_team`]).
    pub fn submit_team<F>(&self, scheduler: &Scheduler, threads: usize, f: F)
    where
        F: Fn(&TaskContext<'_>) + Send + Sync + 'static,
    {
        scheduler.submit_root(&self.owner.state, TeamJob::new(threads, f), None, None);
    }

    /// Submits a sequential root task with a cancellation cell and/or an
    /// absolute deadline attached (DESIGN.md §17).  A worker that picks the
    /// task up after `cancel.cancel()` won the claim race, or after
    /// `deadline` has passed, drops it **without running it** — the scope
    /// countdown and the closure's captured state (e.g. a completion guard)
    /// are still retired exactly once.
    pub fn submit_cancellable<F>(
        &self,
        scheduler: &Scheduler,
        cancel: Option<Arc<CancelCell>>,
        deadline: Option<std::time::Instant>,
        f: F,
    ) where
        F: FnOnce(&TaskContext<'_>) + Send + 'static,
    {
        scheduler.submit_root(&self.owner.state, OnceJob::new(f), cancel, deadline);
    }

    /// Number of submitted tasks (including their transitively spawned
    /// children) that have not finished yet.  A point-in-time gauge (a
    /// two-pass sum over the countdown's shards): with concurrent submitters
    /// it can be stale immediately, but a zero is exact for some moment
    /// during the call.
    pub fn pending(&self) -> usize {
        self.owner.state.pending()
    }

    /// Total task panics recorded against this scope over its lifetime,
    /// including payloads dropped because an earlier panic already occupied
    /// the [`take_panic`](Self::take_panic) slot.
    pub fn panics_observed(&self) -> u64 {
        self.owner.state.panics_observed()
    }

    /// Blocks until every task accounted to this scope — submitted directly
    /// or spawned transitively from one — has finished.  Other threads may
    /// keep submitting while a caller waits; the call returns at the first
    /// observed quiescent point.
    pub fn wait_idle(&self) {
        self.owner.state.wait();
    }

    /// Takes the first panic payload raised by a task of this scope, if any.
    /// Call at drain points to rethrow (or log) deferred task panics.
    pub fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.owner.state.take_panic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A scheduler whose workers were never started: whatever is submitted
    /// stays queued until the drop-time drain.
    fn unstarted(threads: usize) -> Scheduler {
        Scheduler {
            shared: SchedulerShared::new(&SchedulerConfig::with_threads(threads)),
            threads: Vec::new(),
        }
    }

    /// Bumps the counter when dropped, i.e. when the task that captured it
    /// is retired (these never run).
    struct Retired(Arc<AtomicUsize>);

    impl Drop for Retired {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn submit_queued(scheduler: &Scheduler, scope: &ConcurrentScope, retired: &Arc<AtomicUsize>) {
        for _ in 0..10 {
            let token = Retired(Arc::clone(retired));
            scope.submit(scheduler, move |_| drop(token));
        }
        assert_eq!(scope.pending(), 10);
        assert_eq!(retired.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn drop_time_drain_retires_each_queued_task_once() {
        let scheduler = unstarted(2);
        let scope = ConcurrentScope::new();
        let retired = Arc::new(AtomicUsize::new(0));
        submit_queued(&scheduler, &scope, &retired);
        drop(scheduler);
        assert_eq!(retired.load(Ordering::SeqCst), 10);
        assert_eq!(scope.pending(), 0);
        scope.wait_idle();
    }

    #[test]
    fn queued_tasks_keep_an_abandoned_scope_state_alive() {
        let scheduler = unstarted(2);
        let scope = ConcurrentScope::new();
        let retired = Arc::new(AtomicUsize::new(0));
        submit_queued(&scheduler, &scope, &retired);
        let state = Arc::downgrade(&scope.owner.state);
        drop(scope);
        assert!(state.upgrade().is_some(), "queued nodes borrow the state");
        drop(scheduler);
        assert_eq!(retired.load(Ordering::SeqCst), 10);
        assert!(state.upgrade().is_none(), "the last retired task frees it");
    }
}
