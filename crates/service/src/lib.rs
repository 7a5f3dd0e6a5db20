//! # teamsteal-service — a multi-tenant task-service front-end
//!
//! The scheduler crate is a *library*: one process opens a scope, spawns,
//! and blocks until the scope drains.  This crate is the *service plane*
//! on top (DESIGN.md §16): one persistent [`Scheduler`] wrapped behind
//! long-lived [`Tenant`] handles that any number of threads submit through
//! concurrently, with three layers between a submission and the injector:
//!
//! 1. **Drain gate** ([`gate::DrainGate`]) — [`TaskService::drain`] rejects
//!    new work, runs every admitted task to completion exactly once, and
//!    releases the workers back to their parked idle loop.  The gate
//!    brackets each submission; the service's scope counts each admitted
//!    task until it finishes.  The two together, racing submitters against
//!    a drainer and a worker, are model-checked
//!    (`crates/model/tests/service_model.rs`).
//! 2. **Overload shedding** — submissions are shed with
//!    [`SubmitError::Overloaded`] while the injector backlog (the PR 6
//!    per-shard gauges, summed) sits above the configured high-water mark,
//!    bounding queue memory and queueing delay under overload.
//! 3. **Per-tenant admission** ([`admission::TokenBucket`]) — each
//!    tenant's token budget refills at `refill_rate` tasks per second, so a
//!    hot tenant saturates its own budget instead of starving the rest; the
//!    excess gets [`SubmitError::Backpressure`] at once.
//!
//! A submission runs gate → shed → one bucket probe → scope: it is admitted
//! or refused on the spot, and never waits for a budget to refill.
//!
//! ```
//! use teamsteal_service::{ServiceBuilder, TenantConfig};
//!
//! let service = ServiceBuilder::new()
//!     .threads(2)
//!     .refill_rate(1_000_000)
//!     .tenant(TenantConfig::new("interactive"))
//!     .tenant(TenantConfig::new("batch").burst(8))
//!     .build();
//! let interactive = service.tenant("interactive").unwrap();
//! let hits = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
//! for _ in 0..32 {
//!     let hits = std::sync::Arc::clone(&hits);
//!     interactive
//!         .submit(move |_| {
//!             hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
//!         })
//!         .unwrap();
//! }
//! let report = service.drain();
//! assert!(report.initiated);
//! assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 32);
//! assert!(interactive.submit(|_| {}).is_err()); // submit-after-drain fails
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod gate;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use teamsteal_core::{CancelCell, ConcurrentScope, MetricsSnapshot, Scheduler, TaskContext};
use teamsteal_util::CachePadded;

use admission::TokenBucket;
use gate::{DrainGate, GateState};

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant's token budget is exhausted.  Retry after backing off,
    /// or drop the work.
    Backpressure,
    /// The global injector backlog is above the high-water mark; the
    /// submission was shed to bound queueing delay.  Retry after backing
    /// off.
    Overloaded,
    /// [`TaskService::drain`] has begun (or finished); the service accepts
    /// no further work, ever.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backpressure => write!(f, "tenant token budget exhausted"),
            SubmitError::Overloaded => write!(f, "injector backlog above high-water mark"),
            SubmitError::Draining => write!(f, "service is draining"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Declarative description of one tenant, consumed by
/// [`ServiceBuilder::tenant`].
#[derive(Debug, Clone)]
pub struct TenantConfig {
    name: String,
    burst: u64,
}

impl TenantConfig {
    /// A tenant with a 32-task burst allowance.
    pub fn new(name: impl Into<String>) -> Self {
        TenantConfig {
            name: name.into(),
            burst: 32,
        }
    }

    /// Bucket capacity in tasks: how large a burst is admitted ahead of
    /// the refill rate from a full (idle) bucket.
    pub fn burst(mut self, burst: u64) -> Self {
        self.burst = burst;
        self
    }
}

/// Builder for a [`TaskService`].  Tenants are registered up front, before
/// the scheduler starts.
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    threads: Option<usize>,
    refill_rate: u64,
    high_water: usize,
    tenants: Vec<TenantConfig>,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceBuilder {
    /// A service with scheduler-default worker threads, a refill rate of
    /// 100 000 tasks/s per tenant, a 65 536-task high-water mark and
    /// no tenants (register at least one before [`build`](Self::build)).
    pub fn new() -> Self {
        ServiceBuilder {
            threads: None,
            refill_rate: 100_000,
            high_water: 1 << 16,
            tenants: Vec::new(),
        }
    }

    /// Number of scheduler worker threads (default: available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Admission budget refill rate in tasks per second: every tenant is
    /// admitted at up to `refill_rate` sustained tasks per second.
    pub fn refill_rate(mut self, tasks_per_sec: u64) -> Self {
        self.refill_rate = tasks_per_sec;
        self
    }

    /// Injector-backlog high-water mark: submissions are shed with
    /// [`SubmitError::Overloaded`] while the total backlog (summed over the
    /// per-domain shards) exceeds this many queued tasks.
    pub fn high_water(mut self, tasks: usize) -> Self {
        self.high_water = tasks;
        self
    }

    /// Registers a tenant.  Names must be unique.
    pub fn tenant(mut self, config: TenantConfig) -> Self {
        self.tenants.push(config);
        self
    }

    /// Builds the service and starts the scheduler's workers.
    ///
    /// # Panics
    ///
    /// Panics if no tenant was registered or two tenants share a name.
    pub fn build(self) -> TaskService {
        assert!(
            !self.tenants.is_empty(),
            "a TaskService needs at least one tenant"
        );
        for (i, t) in self.tenants.iter().enumerate() {
            assert!(
                self.tenants[..i].iter().all(|u| u.name != t.name),
                "duplicate tenant name `{}`",
                t.name
            );
        }
        let mut builder = Scheduler::builder();
        if let Some(threads) = self.threads {
            builder = builder.threads(threads);
        }
        let scheduler = builder.build();
        let tenants: Vec<Arc<TenantState>> = self
            .tenants
            .into_iter()
            .map(|t| {
                Arc::new(TenantState {
                    name: t.name,
                    bucket: TokenBucket::new(self.refill_rate, 1, t.burst),
                    offered: AtomicU64::new(0),
                    admitted: AtomicU64::new(0),
                    rejected: AtomicU64::new(0),
                    shed: AtomicU64::new(0),
                    drain_rejected: AtomicU64::new(0),
                    completed: CachePadded::new(AtomicU64::new(0)),
                })
            })
            .collect();
        TaskService {
            core: Arc::new(ServiceCore {
                scheduler,
                scope: ConcurrentScope::new(),
                gate: DrainGate::new(),
                high_water: self.high_water,
                start: Instant::now(),
                tenants,
            }),
        }
    }
}

/// Per-tenant admission/completion counters, snapshot via
/// [`Tenant::stats`].  Conservation invariant (the admission proptests pin
/// down the bucket half): `offered == admitted + rejected + shed +
/// drain_rejected`, and after a drain `completed == admitted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantStats {
    /// Submissions attempted through [`Tenant::submit`],
    /// [`Tenant::submit_team`] and [`Tenant::submit_with`].
    pub offered: u64,
    /// Submissions admitted to the scheduler.
    pub admitted: u64,
    /// Submissions rejected by the tenant's token budget
    /// ([`SubmitError::Backpressure`]).
    pub rejected: u64,
    /// Submissions shed by the global high-water gate
    /// ([`SubmitError::Overloaded`]).
    pub shed: u64,
    /// Submissions rejected because a drain had begun
    /// ([`SubmitError::Draining`]).
    pub drain_rejected: u64,
    /// Admitted tasks that have finished executing (panicking tasks
    /// count: their completion guard runs during unwind).  Tasks dropped
    /// without running — cancelled or expired — also count: retirement
    /// runs their completion guard.
    pub completed: u64,
}

struct TenantState {
    name: String,
    bucket: TokenBucket,
    offered: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    drain_rejected: AtomicU64,
    /// Written by the workers retiring the tenant's tasks: on a line of
    /// its own, away from the submitters' counter and bucket writes.
    completed: CachePadded<AtomicU64>,
}

impl TenantState {
    fn stats(&self) -> TenantStats {
        TenantStats {
            offered: self.offered.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            drain_rejected: self.drain_rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
        }
    }
}

/// Defensive re-check period while [`TaskService::drain`] waits for
/// submissions mid-pipeline (the drain protocol does not rely on it).
const DRAIN_BACKSTOP: Duration = Duration::from_millis(10);

struct ServiceCore {
    /// Declared before `tenants`, so it drops first: its shutdown joins the
    /// workers and drops any task still queued, and with it that task's
    /// [`CompletionGuard`], while the tenant states the guards borrow are
    /// still alive.
    scheduler: Scheduler,
    scope: ConcurrentScope,
    gate: DrainGate,
    high_water: usize,
    start: Instant,
    tenants: Vec<Arc<TenantState>>,
}

impl ServiceCore {
    fn backlog(&self) -> usize {
        self.scheduler.injector_len()
    }

    /// Graceful drain, idempotent across racing callers: flip the gate,
    /// wait until no submitter is mid-pipeline, then wait for the scope to
    /// empty.  A submitter leaves the gate only after its task is counted
    /// in the scope, so the scope wait covers every admitted task and its
    /// transitively spawned children.  Afterwards the workers are back in
    /// their parked idle loop — "released" in the event-driven sense of
    /// §12: asleep on the eventcount, not burning CPU — and are joined when
    /// the service drops.
    fn drain(&self) -> bool {
        let initiated = self.gate.begin_drain();
        self.gate.await_empty(DRAIN_BACKSTOP);
        self.scope.wait_idle();
        initiated
    }
}

/// A submitter's hold on the drain gate, taken before admission.  The
/// submission keeps it until the scope has counted its task (or the
/// submission failed or panicked), so a drainer that finds the gate empty
/// finds every admitted task in the scope's count.
struct GateEntry<'a>(&'a DrainGate);

impl Drop for GateEntry<'_> {
    fn drop(&mut self) {
        self.0.exit();
    }
}

/// Bumps an admitted task's tenant completion counter when the task
/// retires — **including by panic**: the guard is dropped during unwind,
/// and before the scope counts the task finished, so a drain sees it.
///
/// The guard borrows its tenant's state instead of owning a count on it,
/// which saves a reference-count RMW on the submitter and another on the
/// worker per task.
struct CompletionGuard {
    /// From `Arc::as_ptr` on one of `ServiceCore::tenants`.
    state: *const TenantState,
}

// SAFETY: the one field points to a `TenantState`, which is `Sync` and
// outlives the guard (see `drop`); the guard only increments an atomic
// through it, on whichever thread drops it.
unsafe impl Send for CompletionGuard {}
// SAFETY: a shared `&CompletionGuard` (every member of a team job holds
// one) gives no access to the pointer at all.
unsafe impl Sync for CompletionGuard {}

impl Drop for CompletionGuard {
    fn drop(&mut self) {
        // SAFETY: the state outlives every guard.  `ServiceCore::tenants`
        // keeps it alive until the core drops, which is after the drain
        // (`TaskService::drop` drains, and a `Tenant` clone holds the core
        // itself).  Every admitted task finishes before the drain returns,
        // and a task drops its guard before the scope counts it finished
        // (DESIGN.md §16, row D).  A task the scheduler's own shutdown
        // still drops goes with `ServiceCore::scheduler`, which is declared,
        // and so dropped, before `ServiceCore::tenants`.
        unsafe { &*self.state }
            .completed
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// A cloneable cancellation token covering any number of
/// [`Tenant::submit_with`] submissions.  Created up front with
/// [`CancelToken::new`] and passed in via [`SubmitOptions::cancel_token`]
/// — e.g. one shared token fanned out over a batch so a single
/// [`cancel`](Self::cancel) sweeps the whole batch.
///
/// Each submission still gets its **own** per-task claim cell (the
/// run-vs-cancel race is decided per task, so sharing a token never
/// prevents the other batch members from running); the token is a
/// registry of those cells plus a sticky cancelled flag.  Cancelling the
/// token sweeps every attached cell and poisons the token: submissions
/// attached *after* the sweep are cancelled on attach and dropped at
/// claim time like the rest.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug, Default)]
struct TokenInner {
    /// Sticky "cancel() was called" flag.  Written and read only under
    /// the `children` lock, but atomic so `is_cancelled` can stay
    /// lock-free.
    cancelled: AtomicBool,
    children: Mutex<TokenChildren>,
}

#[derive(Debug, Default)]
struct TokenChildren {
    /// Claim cells of the attached, not-yet-swept submissions.
    cells: Vec<Arc<CancelCell>>,
    /// Amortized-pruning threshold: settled cells (claimed, cancelled or
    /// expired — all terminal) are retained only until the vec outgrows
    /// this, keeping a long-lived reused token from accumulating dead
    /// cells without an O(n) scan per attach.
    prune_at: usize,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one submission's claim cell with the token.  If the
    /// token was already cancelled the cell is cancelled immediately (the
    /// task will be dropped at claim time) and not retained.
    fn attach(&self, cell: Arc<CancelCell>) {
        let mut children = self.inner.children.lock().unwrap();
        if self.inner.cancelled.load(Ordering::Relaxed) {
            cell.cancel();
            return;
        }
        if children.cells.len() >= children.prune_at.max(8) {
            children.cells.retain(|c| c.is_pending());
            children.prune_at = children.cells.len() * 2;
        }
        children.cells.push(cell);
    }

    /// Cancels every submission attached to this token (or any clone of
    /// it) and poisons the token, so later submissions attached to it are
    /// dropped too.  Returns `true` if at least one attached task's
    /// run-vs-cancel race was won — that task (and every other winner of
    /// the sweep) is then guaranteed never to execute; each is dropped at
    /// pop/claim time and counted as `tasks_cancelled`.  Returns `false`
    /// when every attached task was already claimed for execution,
    /// expired, or cancelled — or when nothing was attached yet (the
    /// token is still poisoned).
    pub fn cancel(&self) -> bool {
        let mut children = self.inner.children.lock().unwrap();
        self.inner.cancelled.store(true, Ordering::Relaxed);
        // Drain the registry: every cell is settled after the sweep, so
        // retaining them would only delay their nodes' memory reuse.
        let mut won = false;
        for cell in children.cells.drain(..) {
            won |= cell.cancel();
        }
        children.prune_at = 0;
        won
    }

    /// `true` once [`cancel`](Self::cancel) has been called on this token
    /// or any clone of it.  Attached tasks not yet claimed at that point
    /// will never run; tasks a worker claimed first still run to
    /// completion.  For the per-task answer, ask the task's
    /// [`TaskHandle`].
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }
}

/// Per-submission options for [`Tenant::submit_with`].  The `Default`
/// value is equivalent to plain [`Tenant::submit`].
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Relative deadline: a task still queued this long after submission
    /// is dropped without running (`tasks_expired`).  `None` means no
    /// deadline.
    pub deadline: Option<Duration>,
    /// An externally created token, e.g. one shared across a batch.
    /// `None` attaches the task to no token: it can still be cancelled
    /// alone through the returned [`TaskHandle`].
    pub cancel_token: Option<CancelToken>,
}

impl SubmitOptions {
    /// Options with no deadline and no shared token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the relative deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Supplies a shared cancellation token.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel_token = Some(token);
        self
    }
}

/// Handle to one [`Tenant::submit_with`] submission.
pub struct TaskHandle {
    /// This submission's own claim cell — the same one the worker's
    /// claim gate CASes on, so the handle's answers are per-task even
    /// when the token is shared across a batch.  Its FINISHED bit answers
    /// [`is_finished`](Self::is_finished).
    cell: Arc<CancelCell>,
}

impl TaskHandle {
    /// Requests cancellation of **this** task only.  Returns `true` if
    /// the call won the run-vs-cancel race: the task is then guaranteed
    /// never to execute (dropped at pop/claim time, counted as
    /// `tasks_cancelled`).  Returns `false` when the task was already
    /// claimed for execution, expired, or cancelled.  To sweep a whole
    /// batch, cancel the [`CancelToken`] it was submitted with.
    pub fn cancel(&self) -> bool {
        self.cell.cancel()
    }

    /// `true` once the task has retired: ran to completion, panicked, was
    /// cancelled, or expired.  Distinguish via
    /// [`is_cancelled`](Self::is_cancelled) /
    /// [`is_expired`](Self::is_expired): a finished task with neither set
    /// executed.  Reads the FINISHED bit of the task's
    /// [`CancelCell`], which the scheduler sets after the task's closure —
    /// with its captures and the tenant's completion count — has dropped,
    /// so a `true` also shows the task's effects and its
    /// [`TenantStats::completed`] increment.
    pub fn is_finished(&self) -> bool {
        self.cell.is_finished()
    }

    /// `true` once a `cancel()` call — through this handle, or a token
    /// sweep covering it — won this task's run-vs-cancel race.  Deadline
    /// expiry reports separately via [`is_expired`](Self::is_expired).
    pub fn is_cancelled(&self) -> bool {
        self.cell.is_cancelled()
    }

    /// `true` once the task's deadline passed while it was still queued:
    /// it was (or will be, at the next claim attempt) dropped without
    /// running and counted as `tasks_expired`.
    pub fn is_expired(&self) -> bool {
        self.cell.is_expired()
    }
}

/// Point-in-time health snapshot from [`TaskService::report`]: the SLO
/// counters plus the two "should stay zero" robustness gauges.  Unlike
/// [`DrainReport`] this can be taken at any time, not just at shutdown.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Current drain-gate lifecycle state.
    pub state: GateState,
    /// Submissions mid-pipeline plus the service's unfinished tasks,
    /// children included.
    pub in_flight: usize,
    /// Times the drainer's defensive backstop timeout fired with work
    /// still in flight (see [`gate::DrainGate::backstops`]).  A submission
    /// holds the gate only for its admission checks and the scope's
    /// injection, so a fire means a submitter was descheduled, or waited
    /// for an external pin slot, for longer than the backstop; growth
    /// without either would signal a lost drain notification.
    pub gate_backstops: u64,
    /// Total task panics observed, including the ones whose payloads were
    /// dropped because an earlier panic's payload was still held (only the
    /// *first* payload is kept for [`TaskService::take_panic`]).
    pub panics_observed: u64,
    /// Tasks dropped without running because their deadline passed.
    pub tasks_expired: u64,
    /// Tasks dropped without running because their token was cancelled.
    pub tasks_cancelled: u64,
    /// Always 0: the service has no retry layer.  Kept because the
    /// benchmark's service workloads (`benchmark/src/workloads/service.rs`)
    /// record it.
    pub retry_attempts: u64,
    /// Per-tenant counters, in registration order.
    pub tenants: Vec<(String, TenantStats)>,
}

/// Outcome of [`TaskService::drain`].
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// `true` for the single caller that initiated the drain; racing and
    /// repeated calls observe `false` but still wait for completion.
    pub initiated: bool,
    /// Final per-tenant counters, in registration order.
    pub tenants: Vec<(String, TenantStats)>,
}

impl DrainReport {
    /// Total admitted tasks over all tenants.
    pub fn admitted(&self) -> u64 {
        self.tenants.iter().map(|(_, s)| s.admitted).sum()
    }

    /// Total completed tasks over all tenants.  Equals
    /// [`admitted`](Self::admitted) after any drain — the exactly-once
    /// guarantee.
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|(_, s)| s.completed).sum()
    }
}

/// A long-lived, multi-tenant task service wrapping one persistent
/// [`Scheduler`].  See the crate docs for the submission pipeline.
pub struct TaskService {
    core: Arc<ServiceCore>,
}

impl TaskService {
    /// Returns a [`ServiceBuilder`].
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::new()
    }

    /// Looks up a tenant handle by name.  Handles are cheap to clone and
    /// safe to share across submitter threads.
    pub fn tenant(&self, name: &str) -> Option<Tenant> {
        self.core
            .tenants
            .iter()
            .find(|t| t.name == name)
            .map(|t| Tenant {
                core: Arc::clone(&self.core),
                state: Arc::clone(t),
            })
    }

    /// The wrapped scheduler, for metrics and backlog gauges.
    pub fn scheduler(&self) -> &Scheduler {
        &self.core.scheduler
    }

    /// Current lifecycle state of the service's drain gate.
    pub fn state(&self) -> GateState {
        self.core.gate.state()
    }

    /// Per-tenant counter snapshot, in registration order.
    fn tenant_stats(&self) -> Vec<(String, TenantStats)> {
        self.core
            .tenants
            .iter()
            .map(|t| (t.name.clone(), t.stats()))
            .collect()
    }

    /// Gracefully drains the service: rejects new submissions, runs every
    /// admitted task (and its transitively spawned children) to completion
    /// exactly once, and leaves the workers parked.  Blocks until the drain
    /// is complete; racing and repeated calls all block and return, but
    /// only the first reports `initiated == true`.  The service accepts no
    /// work afterwards.
    pub fn drain(&self) -> DrainReport {
        let initiated = self.core.drain();
        DrainReport {
            initiated,
            tenants: self.tenant_stats(),
        }
    }

    /// Takes the first panic payload raised by a submitted task, if any.
    /// Task panics never unwind submitters or workers; poll this at drain
    /// points.
    pub fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.core.scope.take_panic()
    }

    /// Aggregated metrics of the wrapped scheduler.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.scheduler.metrics()
    }

    /// Point-in-time health snapshot; see [`ServiceReport`].
    pub fn report(&self) -> ServiceReport {
        let metrics = self.metrics();
        ServiceReport {
            state: self.core.gate.state(),
            in_flight: self.core.gate.in_flight() + self.core.scope.pending(),
            gate_backstops: self.core.gate.backstops(),
            panics_observed: self.core.scope.panics_observed(),
            tasks_expired: metrics.tasks_expired,
            tasks_cancelled: metrics.tasks_cancelled,
            retry_attempts: 0,
            tenants: self.tenant_stats(),
        }
    }
}

impl Drop for TaskService {
    /// Drains before the scheduler can shut down, so every admitted task
    /// runs before the workers stop.
    fn drop(&mut self) {
        self.core.drain();
    }
}

/// A cloneable per-tenant submission handle.  All clones share the
/// tenant's budget and counters.
#[derive(Clone)]
pub struct Tenant {
    core: Arc<ServiceCore>,
    state: Arc<TenantState>,
}

impl Tenant {
    /// The tenant's registered name.
    pub fn name(&self) -> &str {
        &self.state.name
    }

    /// Counter snapshot for this tenant.
    pub fn stats(&self) -> TenantStats {
        self.state.stats()
    }

    /// Submits a sequential task through the admission pipeline (drain
    /// gate → overload shed → token budget).  On success the task runs on
    /// the scheduler exactly once; completion is observable via
    /// [`stats`](Self::stats) or a drain.
    pub fn submit<F>(&self, f: F) -> Result<(), SubmitError>
    where
        F: FnOnce(&TaskContext<'_>) + Send + 'static,
    {
        let (_entry, guard) = self.admit(Instant::now())?;
        self.core.scope.submit(&self.core.scheduler, move |ctx| {
            let _guard = guard;
            f(ctx);
        });
        Ok(())
    }

    /// Submits a data-parallel team task requiring `threads` workers
    /// through the same admission pipeline.  Admission charges one token
    /// regardless of `threads`: the budget paces *submissions*; team width
    /// is capacity the scheduler itself arbitrates.
    pub fn submit_team<F>(&self, threads: usize, f: F) -> Result<(), SubmitError>
    where
        F: Fn(&TaskContext<'_>) + Send + Sync + 'static,
    {
        let (_entry, guard) = self.admit(Instant::now())?;
        self.core
            .scope
            .submit_team(&self.core.scheduler, threads, move |ctx| {
                // Every team member runs the closure; only the one guard
                // exists, so completion is still counted once (when the
                // job — and the guard it owns — is dropped after the last
                // member finishes).
                let _guard = &guard;
                f(ctx);
            });
        Ok(())
    }

    /// Submits a sequential task with per-submission SLO options: a
    /// deadline and an optional shared cancellation token.  Returns a
    /// [`TaskHandle`] for cancelling and observing the task.
    ///
    /// The deadline clock starts at submission.  A task whose deadline
    /// passes while it is still queued is dropped without running and
    /// counted as `tasks_expired`; its completion guard still runs, so
    /// drains and accounting never wedge on expired work.
    pub fn submit_with<F>(&self, opts: SubmitOptions, f: F) -> Result<TaskHandle, SubmitError>
    where
        F: FnOnce(&TaskContext<'_>) + Send + 'static,
    {
        // One clock read serves the token bucket and the deadline.
        let now = Instant::now();
        let (_entry, guard) = self.admit(now)?;
        // `checked_add`: a huge relative deadline (say `Duration::MAX` as
        // an "effectively none" sentinel) saturates to no deadline instead
        // of panicking the submitting thread.
        let deadline = opts.deadline.and_then(|d| now.checked_add(d));
        let cell = Arc::new(CancelCell::new());
        // Register the task's own claim cell with the caller's token only
        // once it is admitted, so a token sweep's "won at least one race"
        // answer never counts a rejected submission.
        if let Some(token) = &opts.cancel_token {
            token.attach(Arc::clone(&cell));
        }
        self.core.scope.submit_cancellable(
            &self.core.scheduler,
            Some(Arc::clone(&cell)),
            deadline,
            move |ctx| {
                let _guard = guard;
                f(ctx);
            },
        );
        Ok(TaskHandle { cell })
    }

    /// Runs the admission pipeline: drain gate, overload shed, one probe
    /// of the tenant's token bucket at `now`.  On success it returns the
    /// gate entry, which the caller holds until the scope has counted the
    /// task, and the task's completion guard.
    fn admit(&self, now: Instant) -> Result<(GateEntry<'_>, CompletionGuard), SubmitError> {
        self.state.offered.fetch_add(1, Ordering::Relaxed);
        if !self.core.gate.try_enter() {
            self.state.drain_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Draining);
        }
        let entry = GateEntry(&self.core.gate);
        // Shed before spending tokens: under overload the tenant keeps its
        // budget for when the backlog recedes.
        if self.core.backlog() > self.core.high_water {
            self.state.shed.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Overloaded);
        }
        let now_us = now.duration_since(self.core.start).as_micros() as u64;
        if self.state.bucket.try_acquire_at(now_us).is_err() {
            self.state.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Backpressure);
        }
        self.state.admitted.fetch_add(1, Ordering::Relaxed);
        Ok((
            entry,
            CompletionGuard {
                state: Arc::as_ptr(&self.state),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn small_service() -> TaskService {
        ServiceBuilder::new()
            .threads(2)
            .refill_rate(1_000_000)
            // Cover the largest burst a test submits back-to-back: in
            // release builds the submit loop outruns even a 1M/s refill.
            .tenant(TenantConfig::new("t").burst(64))
            .build()
    }

    #[test]
    fn submit_runs_and_drain_accounts_exactly_once() {
        let service = small_service();
        let tenant = service.tenant("t").unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let hits = Arc::clone(&hits);
            tenant
                .submit(move |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
        }
        let report = service.drain();
        assert!(report.initiated);
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(report.admitted(), 64);
        assert_eq!(report.completed(), 64);
        assert_eq!(service.state(), GateState::Drained);
        assert_eq!(tenant.submit(|_| {}), Err(SubmitError::Draining));
        // A second drain is a no-op wait, not a second initiation.
        assert!(!service.drain().initiated);
    }

    #[test]
    fn unknown_tenant_is_none_and_lookup_works() {
        let service = small_service();
        assert!(service.tenant("t").is_some());
        assert!(service.tenant("nope").is_none());
    }

    #[test]
    fn backpressure_respects_reject_policy() {
        let service = ServiceBuilder::new()
            .threads(1)
            .refill_rate(1) // 1 task/s: only the burst is admissible
            .tenant(TenantConfig::new("t").burst(4))
            .build();
        let tenant = service.tenant("t").unwrap();
        let mut admitted = 0;
        let mut rejected = 0;
        for _ in 0..32 {
            match tenant.submit(|_| {}) {
                Ok(()) => admitted += 1,
                Err(SubmitError::Backpressure) => rejected += 1,
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert_eq!(admitted, 4, "exactly the burst is admitted");
        assert_eq!(rejected, 28);
        let stats = tenant.stats();
        assert_eq!(stats.offered, 32);
        assert_eq!(
            stats.admitted + stats.rejected + stats.shed + stats.drain_rejected,
            stats.offered,
            "conservation"
        );
    }

    #[test]
    fn panicking_task_completes_for_accounting_and_surfaces() {
        let service = small_service();
        let tenant = service.tenant("t").unwrap();
        tenant.submit(|_| panic!("tenant bug")).unwrap();
        let report = service.drain();
        assert_eq!(report.admitted(), 1);
        assert_eq!(report.completed(), 1, "panic still retires the task");
        let payload = service.take_panic().expect("panic payload captured");
        assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "tenant bug");
    }

    #[test]
    #[should_panic]
    fn duplicate_tenant_names_are_rejected() {
        let _ = ServiceBuilder::new()
            .tenant(TenantConfig::new("t"))
            .tenant(TenantConfig::new("t"))
            .build();
    }
}
