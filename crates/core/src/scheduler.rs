//! The public scheduler front-end: thread pool construction, scopes and
//! metrics.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

use teamsteal_topology::{StealPolicy, Topology};
use teamsteal_util::affinity;

use crate::cancel::CancelCell;
use crate::context::TaskContext;
use crate::metrics::MetricsSnapshot;
use crate::task::{check_requirement, Job, JobSlot, OnceJob, ScopeState, TeamJob};
use crate::worker::{SchedulerShared, Worker};

/// Builder for a [`Scheduler`], and the one place its two settable values
/// live: the thread count and the steal policy.
///
/// Section 4 of the paper lists the tunables of the prototype: backoff
/// intervals, the number of tasks to steal, and (for the evaluation) whether
/// stealing is deterministic or randomized.  The builder sets the last of
/// these and the thread count `p`; everything else is derived from `p` or
/// fixed.  The hierarchy is [`Topology::balanced`] over `p` (Refinement 3;
/// bit flipping for powers of two), the injection shards are its groups of
/// at most 8 workers (`worker::shared::DOMAIN_WIDTH`), the per-worker PRNGs
/// share one seed (`worker::shared::WORKER_SEED`), and the pool of epoch
/// pins external submitters borrow is fixed at 32 slots
/// (`worker::shared::EXTERNAL_PARTICIPANTS`).  The steal amount is fixed:
/// the paper's default (`2^ℓ`, capped at half the victim's queue), raised
/// to 32 for a queue of 64 or more (`worker::steal::steal_amount`); the
/// backoff intervals are constants of the parking protocol
/// (`PARK_SPIN_ROUNDS`, `HANDSHAKE_POLL`, `PARK_BACKSTOP`, `WARM_KEEPALIVE`
/// in `worker`).
///
/// ```
/// use teamsteal_core::Scheduler;
/// use teamsteal_topology::StealPolicy;
///
/// let scheduler = Scheduler::builder()
///     .threads(4)
///     .steal_policy(StealPolicy::RandomizedWithinLevel)
///     .build();
/// assert_eq!(scheduler.num_threads(), 4);
/// assert_eq!(scheduler.topology().level_sizes(), &[1, 2, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct SchedulerBuilder {
    pub(crate) num_threads: usize,
    pub(crate) steal_policy: StealPolicy,
}

impl Default for SchedulerBuilder {
    fn default() -> Self {
        SchedulerBuilder {
            num_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            steal_policy: StealPolicy::Deterministic,
        }
    }
}

impl SchedulerBuilder {
    /// Sets the number of worker threads (the paper's `p`).  Defaults to the
    /// machine's available parallelism.
    ///
    /// ```
    /// use teamsteal_core::Scheduler;
    ///
    /// let scheduler = Scheduler::builder().threads(3).build();
    /// assert_eq!(scheduler.num_threads(), 3);
    /// ```
    pub fn threads(mut self, threads: usize) -> Self {
        self.num_threads = threads;
        self
    }

    /// Sets the partner / victim selection policy.
    ///
    /// [`StealPolicy::Deterministic`] (the default) is the paper's
    /// team-building scheduler; [`StealPolicy::UniformRandom`] is the classic
    /// randomized work-stealer (the *Randfork* baseline) and supports only
    /// `r = 1` tasks.
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
        self.steal_policy = policy;
        self
    }

    /// Builds the scheduler and starts its worker threads.
    ///
    /// When `2 ≤ p` and the calling thread may run on exactly `p` CPUs,
    /// worker `i` pins itself to the `i`-th allowed CPU (ascending) before it
    /// builds its per-worker state, so a team's members never share a CPU
    /// and [`Topology::balanced`]'s groups are groups of CPUs in mask order.
    /// A pool of one, a pool smaller than the mask and an oversubscribed
    /// pool are not pinned, nor is the calling thread (DESIGN.md §13 "Worker
    /// placement").
    ///
    /// # Panics
    ///
    /// Panics if the thread count is zero.
    pub fn build(self) -> Scheduler {
        let shared = SchedulerShared::new(&self);
        let p = shared.num_threads();
        let allowed = affinity::allowed_cpus();
        let pinned = p >= 2 && p == allowed.len();
        let mut threads = Vec::with_capacity(p);
        for id in 0..p {
            let shared = Arc::clone(&shared);
            let cpu = allowed.get(id).copied().filter(|_| pinned);
            let handle = std::thread::Builder::new()
                .name(format!("teamsteal-worker-{id}"))
                .spawn(move || {
                    if let Some(cpu) = cpu {
                        affinity::pin_current_thread(cpu);
                    }
                    let mut worker = Worker::new(id, shared);
                    worker.run_loop();
                })
                .expect("failed to spawn worker thread");
            threads.push(handle);
        }
        Scheduler { shared, threads }
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
    /// Creates a scheduler with the given number of threads and every other
    /// value at its [`SchedulerBuilder`] default.
    pub fn with_threads(threads: usize) -> Self {
        Self::builder().threads(threads).build()
    }

    /// Returns a [`SchedulerBuilder`].
    pub fn builder() -> SchedulerBuilder {
        SchedulerBuilder::default()
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.shared.num_threads()
    }

    /// The thread hierarchy the scheduler derived from its thread count:
    /// [`Topology::balanced`] over `p`.
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
        // One owned countdown shard per worker plus one for this thread.
        let state = ScopeState::for_workers(self.num_threads());
        let scope = Scope {
            scheduler: self,
            state: &state,
        };
        // Task nodes borrow `state`, so not even a panic in `f` may skip
        // the wait (the same rule as `std::thread::scope`).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&scope)));
        if state.wait() {
            self.shared.scope_backstops.fetch_add(1, Ordering::Relaxed);
        }
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
            .shared
            .workers
            .iter()
            .map(|w| w.counters.snapshot())
            .fold(MetricsSnapshot::default(), MetricsSnapshot::merge);
        // Scheduler-wide counters that no single worker owns.
        aggregate.external_pin_waits = self.shared.external_pins.pin_waits();
        aggregate
    }

    /// Number of [`scope`](Self::scope) calls whose wait for their tasks
    /// ended on the countdown's 5 ms timed backstop rather than on a
    /// finisher's signal or the waiter's own check.  Zero in a healthy run:
    /// the backstop guards against a lost signal, which the protocol has
    /// none of (DESIGN.md §9, row 7).  Kept beside [`metrics`](Self::metrics)
    /// rather than in it, because the snapshot's counter list is also the
    /// schema of the committed `BENCH_*.json` records.
    pub fn scope_backstops(&self) -> u64 {
        self.shared.scope_backstops.load(Ordering::Relaxed)
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

    /// Total external **backlog**: root tasks submitted but not yet popped
    /// by a worker, summed over the injection shards (DESIGN.md §13).  The
    /// service sheds on it.  Lock-free reads; the value may be stale by the
    /// time the caller acts on it.
    ///
    /// ```
    /// use teamsteal_core::Scheduler;
    ///
    /// let scheduler = Scheduler::with_threads(2);
    /// scheduler.run(|_| {});
    /// // After a scope has drained, no external backlog remains.
    /// assert_eq!(scheduler.injector_len(), 0);
    /// ```
    pub fn injector_len(&self) -> usize {
        self.shared.injector.len()
    }

    /// The one way a root task enters the scheduler: check its requirement,
    /// count it on `state`'s external shard, and inject it.  Under one
    /// external pin claim the injection allocates the node from the claimed
    /// slot's arena, attaches the cancel cell and deadline, and pushes it.
    /// Small jobs are stored inline in the node, so a submission touches
    /// the global allocator only while that arena grows.
    fn submit_root<J: Job + 'static>(
        &self,
        state: &Arc<ScopeState>,
        job: J,
        cancel: Option<Arc<CancelCell>>,
        deadline: Option<std::time::Instant>,
    ) {
        let requirement = job.requirement();
        check_requirement(requirement, self.num_threads(), self.shared.steal_policy);
        state.task_spawned(state.external_shard());
        self.shared.inject(
            Arc::as_ptr(state),
            JobSlot::new(job),
            requirement,
            cancel,
            deadline,
        );
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
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
    /// are still retired exactly once.  However the task retires — also
    /// when the scheduler's shutdown drops it unclaimed — `cancel`'s
    /// [`is_finished`](CancelCell::is_finished) turns true once the
    /// closure has been dropped.
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
            shared: SchedulerShared::new(&Scheduler::builder().threads(threads)),
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

    /// Two submitters fill the queues of an unstarted scheduler from the
    /// arenas of their external pin slots, then the drop-time drain frees
    /// every node into its home arena before the arenas themselves drop:
    /// each queued job is dropped exactly once.
    #[test]
    fn drop_time_drain_returns_nodes_from_two_submitters_once() {
        const PER_SUBMITTER: usize = 500;
        /// Counts the drops of job `.1`'s captures in slot `.1` of `.0`.
        struct Dropped(Arc<Vec<AtomicUsize>>, usize);
        impl Drop for Dropped {
            fn drop(&mut self) {
                self.0[self.1].fetch_add(1, Ordering::SeqCst);
            }
        }
        let scheduler = unstarted(2);
        let scope = ConcurrentScope::new();
        let dropped: Arc<Vec<AtomicUsize>> = Arc::new(
            (0..2 * PER_SUBMITTER)
                .map(|_| AtomicUsize::new(0))
                .collect(),
        );
        std::thread::scope(|threads| {
            for t in 0..2 {
                let (scheduler, scope, dropped) = (&scheduler, &scope, &dropped);
                threads.spawn(move || {
                    for id in t * PER_SUBMITTER..(t + 1) * PER_SUBMITTER {
                        let token = Dropped(Arc::clone(dropped), id);
                        scope.submit(scheduler, move |_| drop(token));
                    }
                });
            }
        });
        assert_eq!(scope.pending(), 2 * PER_SUBMITTER);
        assert!(dropped
            .iter()
            .all(|count| count.load(Ordering::SeqCst) == 0));
        drop(scheduler);
        assert_eq!(scope.pending(), 0);
        for (id, count) in dropped.iter().enumerate() {
            assert_eq!(
                count.load(Ordering::SeqCst),
                1,
                "job {id} dropped a wrong number of times"
            );
        }
    }

    /// The drop-time drain is a retire path too: each queued cancellable
    /// task's cell reads finished afterwards — never before its job's
    /// captures dropped — with no outcome settled, and no `cancel()` can
    /// win any more.
    #[test]
    fn drop_time_drain_finishes_each_cell_after_its_job() {
        /// Records, when the job that captured it is dropped, whether its
        /// cell already read finished.
        struct Probe(Arc<CancelCell>, Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                if self.0.is_finished() {
                    self.1.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        let scheduler = unstarted(2);
        let scope = ConcurrentScope::new();
        let early = Arc::new(AtomicUsize::new(0));
        let cells: Vec<Arc<CancelCell>> = (0..10).map(|_| Arc::new(CancelCell::new())).collect();
        for cell in &cells {
            let probe = Probe(Arc::clone(cell), Arc::clone(&early));
            scope.submit_cancellable(&scheduler, Some(Arc::clone(cell)), None, move |_| {
                drop(probe)
            });
        }
        assert!(cells
            .iter()
            .all(|cell| cell.is_pending() && !cell.is_finished()));
        drop(scheduler);
        assert_eq!(scope.pending(), 0);
        assert_eq!(
            early.load(Ordering::SeqCst),
            0,
            "FINISHED set before the job dropped"
        );
        for cell in &cells {
            assert!(cell.is_finished());
            assert!(!cell.is_claimed() && !cell.is_cancelled() && !cell.is_expired());
            assert!(!cell.cancel(), "a drained task cannot be cancelled");
        }
    }

    #[test]
    fn default_uses_available_parallelism() {
        let b = Scheduler::builder();
        assert!(b.num_threads >= 1);
        assert_eq!(b.steal_policy, StealPolicy::Deterministic);
    }

    /// The derived shard count: one injection shard per hierarchy group of
    /// at most 8 workers, so machines with `p ≤ 8` keep a single shard.
    #[test]
    fn default_domain_width_keeps_small_machines_single_shard() {
        for (p, shards) in [(1, 1), (4, 1), (8, 1), (9, 2), (16, 2), (32, 4), (64, 8)] {
            let scheduler = unstarted(p);
            assert_eq!(scheduler.injector_shard_segments().len(), shards, "p = {p}");
        }
    }

    #[test]
    fn resolve_topology_balanced_by_default() {
        let scheduler = unstarted(6);
        assert_eq!(scheduler.topology().num_threads(), 6);
        assert_eq!(scheduler.topology().level_sizes(), &[1, 2, 3, 6]);
    }

    /// Both setters reach the built scheduler, and the derived values follow
    /// from the thread count.
    #[test]
    fn every_setter_reaches_the_built_scheduler() {
        let scheduler = Scheduler::builder()
            .threads(4)
            .steal_policy(StealPolicy::RandomizedWithinLevel)
            .build();
        assert_eq!(scheduler.num_threads(), 4);
        assert_eq!(
            scheduler.shared.steal_policy,
            StealPolicy::RandomizedWithinLevel
        );
        assert_eq!(scheduler.topology().level_sizes(), &[1, 2, 4]);
        assert_eq!(scheduler.injector_shard_segments().len(), 1);
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
