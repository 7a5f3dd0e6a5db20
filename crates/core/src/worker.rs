//! The worker loop: classic work-stealing generalized with deterministic
//! team-building (Algorithms 5–9 of the paper).
//!
//! Each worker owns one entry of the shared per-thread state array (the
//! paper's `ThreadRef[]`) and runs [`Worker::run_loop`].  The loop is a
//! faithful — but explicitly clarified — implementation of the paper's
//! modified `getTask` / `stealTasks` / `coordinateTask` / `pollPartners` /
//! `switchToCoordinator` procedures; every deliberate clarification or
//! deviation is marked with a `paper:` comment and summarized in DESIGN.md §5.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

use std::cell::UnsafeCell;

use teamsteal_deque::{RawDeque, ShardedInjector, Steal};
use teamsteal_registration::{AcquireOutcome, AtomicRegistration, ReleaseOutcome, ReuseOutcome};
use teamsteal_topology::{Domains, StealPolicy, Topology};
use teamsteal_util::epoch::{Domain, Participant};
use teamsteal_util::eventcount::WakeReason;
use teamsteal_util::rng::{worker_rng, Xoshiro256};
use teamsteal_util::slab::Slab;
use teamsteal_util::{bits, Backoff, CachePadded};

use crate::config::SchedulerConfig;
use crate::context::{SpawnTarget, TaskContext};
use crate::metrics::WorkerCounters;
use crate::sleep::SleepController;
use crate::task::{JobSlot, ScopeState, TaskNode, TaskPtr};
use crate::team::TeamBarrier;

/// Runtime switch for the stall-state dumps, in addition to the
/// `TEAMSTEAL_STALL_DEBUG` environment variable.  See [`enable_stall_debug`].
static FORCE_STALL_DEBUG: AtomicBool = AtomicBool::new(false);

/// Turns on the scheduler's periodic stall-state dumps at runtime, as if
/// `TEAMSTEAL_STALL_DEBUG` had been set.  Intended for test watchdogs that
/// have detected a hang and want the workers to report their state before
/// the process is aborted.  There is deliberately no way to turn the dumps
/// off again: by the time this is called, the process is already doomed to
/// debugging.
pub fn enable_stall_debug() {
    FORCE_STALL_DEBUG.store(true, Ordering::Release);
}

/// Process-wide registry of live schedulers, so a watchdog that detected a
/// hang can dump their state without holding a `Scheduler` handle.  Entries
/// are weak; dead ones are pruned on every touch.
static SCHEDULERS: Mutex<Vec<Weak<SchedulerShared>>> = Mutex::new(Vec::new());

/// One [`Scheduler::debug_state`](crate::Scheduler::debug_state) line per
/// scheduler currently alive in this process.
///
/// This is the same code path as `debug_state` and the workers' periodic
/// stall self-reports (`debug_state_line`), so a watchdog dump, a worker's
/// self-report, and an explicit `debug_state` call can be compared
/// line-for-line.  Lock-free with respect to the schedulers themselves and
/// safe to call while they are running (or wedged).
pub fn stall_report() -> Vec<String> {
    let mut registry = SCHEDULERS.lock().unwrap_or_else(|e| e.into_inner());
    registry.retain(|weak| weak.strong_count() > 0);
    registry
        .iter()
        .filter_map(Weak::upgrade)
        .map(|shared| shared.debug_state_line())
        .collect()
}

/// Per-worker state visible to other workers (the paper's per-thread
/// data structure reachable through `ThreadRef[]`).
pub(crate) struct WorkerShared {
    /// Fixed worker id `I` (kept for debugging / future NUMA pinning).
    #[allow(dead_code)]
    pub(crate) id: usize,
    /// One deque per hierarchy level (Refinement 1): queue `ℓ` holds tasks
    /// whose requirement maps to level `ℓ` for this worker.  The deques
    /// store raw `TaskNode` pointers as words, so pushing a task never
    /// allocates.
    pub(crate) queues: Vec<RawDeque>,
    /// Occupancy bitmask: bit `ℓ` is set when queue `ℓ` *may* be non-empty.
    /// The owner sets a bit **before** pushing and is the only clearer
    /// (after observing emptiness), so for thieves a clear bit reliably
    /// means "empty", while a set bit is a hint to check the queue.
    pub(crate) occupancy: AtomicUsize,
    /// This worker's task-node arena.  `alloc` is owner-only (the spawn
    /// path); `free` is called by whichever worker finishes a task last.
    pub(crate) node_pool: Slab<TaskNode>,
    /// The packed registration structure `R = {r, a, t, N}`.
    pub(crate) reg: AtomicRegistration,
    /// Id of the coordinator this worker is registered with (self ⇒ none).
    /// Written only by the owning worker.
    pub(crate) coordinator: AtomicUsize,
    /// Publication seqlock: even ⇒ stable, odd ⇒ publication in progress.
    /// Monotonically increasing, so members can tell new tasks from ones they
    /// have already executed (the paper's "remember the last executed task").
    pub(crate) publish_seq: AtomicU64,
    /// The published team task (`c.task` in the paper).
    pub(crate) publish_task: AtomicPtr<TaskNode>,
    /// First worker id of the published task's team.
    pub(crate) publish_base: AtomicUsize,
    /// Team size of the published task.
    pub(crate) publish_size: AtomicUsize,
    /// Start countdown `G`: non-coordinator members that have not yet picked
    /// up the published task.
    pub(crate) start_countdown: AtomicU32,
    /// Event counters.
    pub(crate) counters: WorkerCounters,
}

impl WorkerShared {
    fn new(id: usize, queue_levels: usize, epoch: &Arc<Domain>) -> Self {
        debug_assert!(
            queue_levels <= usize::BITS as usize,
            "occupancy bitmask holds one bit per queue level"
        );
        WorkerShared {
            id,
            // SAFETY: every thread that steals from these deques is a worker
            // thread pinned for the whole loop iteration (`run_loop`), or
            // has exclusive access (drop-time draining) — the `in_domain`
            // contract.
            queues: (0..queue_levels)
                .map(|_| unsafe { RawDeque::in_domain(Arc::clone(epoch)) })
                .collect(),
            occupancy: AtomicUsize::new(0),
            node_pool: Slab::new(),
            reg: AtomicRegistration::new(),
            coordinator: AtomicUsize::new(id),
            publish_seq: AtomicU64::new(0),
            publish_task: AtomicPtr::new(std::ptr::null_mut()),
            publish_base: AtomicUsize::new(0),
            publish_size: AtomicUsize::new(0),
            start_countdown: AtomicU32::new(0),
            counters: WorkerCounters::default(),
        }
    }

    /// Pushes a task onto queue `level`.  **Owner only** (deque contract).
    fn push_task(&self, level: usize, ptr: *mut TaskNode) {
        // Set the occupancy bit before the push: a thief that observes a
        // clear bit may then safely skip the level, because the element
        // cannot become visible (release store in `push_bottom`) before the
        // bit does.
        let bit = 1usize << level;
        if self.occupancy.load(Ordering::Relaxed) & bit == 0 {
            self.occupancy.fetch_or(bit, Ordering::Relaxed);
        }
        self.queues[level].push_bottom(ptr as usize);
    }

    /// Pops from the bottom of queue `level`.  **Owner only.**
    fn pop_task(&self, level: usize) -> Option<*mut TaskNode> {
        self.queues[level].pop_bottom().map(|word| word as *mut TaskNode)
    }

    /// Returns the index of the lowest non-empty queue, if any, using the
    /// occupancy bitmask instead of scanning every deque.  **Owner only**:
    /// stale-set bits (queues drained by thieves) are healed here, and only
    /// the owner may clear bits — after it observed emptiness nobody but the
    /// owner itself could have refilled the queue.
    fn lowest_nonempty_level(&self) -> Option<usize> {
        let mut mask = self.occupancy.load(Ordering::Relaxed);
        while let Some(level) = bits::lowest_set(mask) {
            if !self.queues[level].is_empty() {
                return Some(level);
            }
            self.occupancy.fetch_and(!(1usize << level), Ordering::Relaxed);
            mask = bits::clear_bit(mask, level);
        }
        None
    }
}

/// A fixed pool of pre-registered epoch participants that threads outside
/// the worker pool borrow around each injector access (`Scheduler::scope`
/// submitters, drop-time draining).  The pool size comes from
/// [`SchedulerConfig::external_participants`] (default 32); more
/// simultaneous submitters than that wait for a free slot under a capped
/// backoff (spin, then yield, then bounded sleeps of ≤ 50 µs) and are
/// counted in `external_pin_waits`.  The wait is bounded because every
/// claim is released after one queue operation, so a slot frees in O(µs).
///
/// Workers own their participant for the whole thread lifetime; external
/// submitters are arbitrary short-lived threads, so they claim a slot with
/// one CAS, pin, touch the queue, unpin and release — keeping the injection
/// path lock-free (a claimed slot is exclusive, so the `UnsafeCell` access
/// is data-race free).
pub(crate) struct ExternalPins {
    slots: Box<[CachePadded<ExternalSlot>]>,
    /// Exhaustion episodes: a submitter scanned every slot, found all of
    /// them claimed, and had to back off before rescanning.  Counted once
    /// per episode (not per rescan), so the value reads as "how often were
    /// more threads mid-injection at once than the pool has slots".
    pin_waits: AtomicU64,
}

struct ExternalSlot {
    busy: AtomicBool,
    participant: UnsafeCell<Participant>,
}

// SAFETY: `participant` is only touched between a successful `busy` CAS
// (Acquire) and the matching Release store, which serializes all access.
unsafe impl Sync for ExternalPins {}
unsafe impl Send for ExternalPins {}

impl ExternalPins {
    fn new(epoch: &Arc<Domain>, count: usize) -> Self {
        ExternalPins {
            slots: (0..count)
                .map(|_| {
                    CachePadded::new(ExternalSlot {
                        busy: AtomicBool::new(false),
                        participant: UnsafeCell::new(
                            epoch.register().expect("domain sized for the external pool"),
                        ),
                    })
                })
                .collect(),
            pin_waits: AtomicU64::new(0),
        }
    }

    /// Number of recorded exhaustion-backoff episodes (see `pin_waits`).
    pub(crate) fn pin_waits(&self) -> u64 {
        self.pin_waits.load(Ordering::Relaxed)
    }

    /// Number of slots in the pool.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Runs `f` pinned to a borrowed external participant.
    pub(crate) fn with_pinned<R>(&self, f: impl FnOnce() -> R) -> R {
        /// Unpins and releases the claimed slot even if `f` unwinds: a
        /// leaked claim would otherwise leave its participant pinned at a
        /// stale epoch *forever*, wedging reclamation for the scheduler's
        /// whole lifetime (and losing a pool slot).
        struct SlotGuard<'a>(&'a ExternalSlot);
        impl Drop for SlotGuard<'_> {
            fn drop(&mut self) {
                // SAFETY: the guard exists only while we hold the claim.
                unsafe { &*self.0.participant.get() }.unpin();
                self.0.busy.store(false, Ordering::Release);
            }
        }

        // Start the scan at a per-thread offset so concurrent submitters
        // claim *different* cache-padded slots instead of all CASing slot
        // 0's line on every injection.
        thread_local! {
            static SCAN_OFFSET: usize = {
                static NEXT: AtomicUsize = AtomicUsize::new(0);
                NEXT.fetch_add(1, Ordering::Relaxed)
            };
        }
        let start = SCAN_OFFSET.with(|o| *o) % self.slots.len();
        let mut backoff = Backoff::new();
        let mut waited = false;
        loop {
            for i in 0..self.slots.len() {
                let slot = &*self.slots[(start + i) % self.slots.len()];
                if slot.busy.load(Ordering::Relaxed) {
                    continue;
                }
                if slot
                    .busy
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }
                let guard = SlotGuard(slot);
                // SAFETY: the claimed `busy` flag gives us exclusive access
                // until the guard's Release store.
                unsafe { &*slot.participant.get() }.pin();
                let result = f();
                drop(guard);
                return result;
            }
            // All slots claimed: more threads are mid-injection right now
            // than the pool has slots.  Briefly back off and rescan — a slot
            // frees after one queue operation, so the capped wait (≤ 50 µs)
            // bounds the added latency while keeping the path allocation- and
            // lock-free.  Count the episode so saturation is observable.
            if !waited {
                waited = true;
                self.pin_waits.fetch_add(1, Ordering::Relaxed);
            }
            backoff.wait_capped(std::time::Duration::from_micros(50));
        }
    }
}

thread_local! {
    /// This thread's injection-affinity key (see
    /// `SchedulerShared::inject_home`).  `None` until first use; worker
    /// threads set it eagerly in `run_loop`.
    static INJECT_HOME: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// State shared by all workers of one scheduler.
pub(crate) struct SchedulerShared {
    pub(crate) workers: Vec<CachePadded<WorkerShared>>,
    pub(crate) topology: Topology,
    /// The injection-shard domains: a view of the hierarchy that maps every
    /// worker to one shard of the sharded injector and gives each domain a
    /// distance-ordered shard sweep (DESIGN.md §13).
    pub(crate) domains: Domains,
    pub(crate) steal_policy: StealPolicy,
    /// Spin/yield rounds before a blocking site commits to a park.
    pub(crate) park_spin_rounds: u32,
    /// Defensive cap on one park (see `SchedulerConfig::park_backstop`).
    pub(crate) park_backstop: Duration,
    /// Warm team keep-alive window (see `SchedulerConfig::warm_keepalive`).
    pub(crate) warm_keepalive: Duration,
    /// Elastic-shrink backlog threshold
    /// (see `SchedulerConfig::elastic_backlog_threshold`).
    pub(crate) elastic_backlog_threshold: usize,
    pub(crate) seed: u64,
    /// The parking/wakeup subsystem: every blocking site parks here and
    /// every state change that can unblock a worker notifies it
    /// (DESIGN.md §12).
    pub(crate) sleep: SleepController,
    /// Epoch-reclamation domain shared by the injector and every worker
    /// deque; sized for all workers plus the external-submitter pool
    /// (DESIGN.md §11).
    pub(crate) epoch: Arc<Domain>,
    /// Borrowed pins for threads outside the worker pool.
    pub(crate) external_pins: ExternalPins,
    /// External injection queue for root tasks submitted by
    /// `Scheduler::scope`: a lock-free MPMC FIFO per hierarchy domain, so
    /// submitters neither serialize against each other nor against idle
    /// workers polling for work, and — with several domains — not even
    /// against submitters with a different shard affinity (DESIGN.md §13).
    pub(crate) injector: ShardedInjector<TaskPtr>,
    pub(crate) shutdown: AtomicBool,
}

impl SchedulerShared {
    pub(crate) fn new(config: &SchedulerConfig) -> Arc<Self> {
        let topology = config.resolve_topology();
        let p = topology.num_threads();
        let queue_levels = topology.num_queue_levels();
        let domains = Domains::new(&topology, config.domain_width);
        let external_participants = config.external_participants.max(1);
        let epoch = Domain::new(p + external_participants);
        let external_pins = ExternalPins::new(&epoch, external_participants);
        let shared = Arc::new(SchedulerShared {
            workers: (0..p)
                .map(|id| CachePadded::new(WorkerShared::new(id, queue_levels, &epoch)))
                .collect(),
            topology,
            steal_policy: config.steal_policy,
            park_spin_rounds: config.park_spin_rounds,
            park_backstop: config.park_backstop,
            warm_keepalive: config.warm_keepalive,
            elastic_backlog_threshold: config.elastic_backlog_threshold,
            seed: config.seed,
            sleep: SleepController::new(p),
            // SAFETY: all injector access goes through pinned participants —
            // workers pin for the whole loop iteration, external submitters
            // borrow a pinned slot via `ExternalPins::with_pinned`
            // (including drop-time draining).
            injector: unsafe {
                ShardedInjector::in_domain(domains.num_domains(), Arc::clone(&epoch))
            },
            domains,
            epoch,
            external_pins,
            shutdown: AtomicBool::new(false),
        });
        let mut registry = SCHEDULERS.lock().unwrap_or_else(|e| e.into_inner());
        registry.retain(|weak| weak.strong_count() > 0);
        registry.push(Arc::downgrade(&shared));
        drop(registry);
        shared
    }

    pub(crate) fn num_threads(&self) -> usize {
        self.workers.len()
    }

    /// One-line state dump of every worker (registration word, coordinator,
    /// start countdown, queue lengths) plus the injector's total and
    /// per-shard lengths.  Lock-free; shared by the stall reporter and
    /// `Scheduler::debug_state`.
    pub(crate) fn debug_state_line(&self) -> String {
        let shard_lens: Vec<usize> = (0..self.injector.num_shards())
            .map(|s| self.injector.shard_len(s))
            .collect();
        let mut line = format!(
            "injector={} shards={:?} segs={} deferred={} sleepers={} searchers={}",
            self.injector.len(),
            shard_lens,
            self.injector.live_segments(),
            self.epoch.pending(),
            self.sleep.sleepers(),
            self.sleep.searchers(),
        );
        for (i, w) in self.workers.iter().enumerate() {
            let reg = w.reg.load();
            let qlens: Vec<usize> = w.queues.iter().map(|q| q.len()).collect();
            // A formed team whose coordinator has no queued work is a *warm*
            // pool (DESIGN.md §15): its members are parked on purpose, not
            // lost, so the stall reporter must attribute them to the pool
            // rather than making them look like missed wakeups.
            let warm = if reg.has_team()
                && reg.acquired == reg.teamed
                && reg.required == reg.teamed
                && qlens.iter().all(|&l| l == 0)
            {
                " warm"
            } else {
                ""
            };
            line.push_str(&format!(
                " | w{i}: coord={} r={} a={} t={} n={} G={} q={qlens:?}{warm}",
                w.coordinator.load(Ordering::Relaxed),
                reg.required,
                reg.acquired,
                reg.teamed,
                reg.counter,
                w.start_countdown.load(Ordering::Relaxed),
            ));
        }
        line
    }

    /// The calling thread's stable injection affinity: the shard index its
    /// pushes land on.  Worker threads pin it to their own domain's shard at
    /// startup ([`set_inject_home`]); any other thread draws a round-robin
    /// key on first use, so concurrent external submitters spread over the
    /// shards while each keeps per-thread FIFO order on one shard.
    fn inject_home(&self) -> usize {
        static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);
        INJECT_HOME.with(|home| match home.get() {
            Some(key) => key,
            None => {
                let key = NEXT_HOME.fetch_add(1, Ordering::Relaxed);
                home.set(Some(key));
                key
            }
        }) % self.injector.num_shards()
    }

    /// Injects a root task from outside the worker pool.  Lock-free: one
    /// CAS to borrow an external epoch pin, one `fetch_add` plus a release
    /// store in the affinity shard, one release store to return the pin —
    /// then a wake for a parked worker, so external submissions reach an
    /// idle scheduler in microseconds instead of a sleep-poll interval.
    pub(crate) fn inject(&self, ptr: *mut TaskNode) {
        let shard = self.inject_home();
        let observed_empty = self
            .external_pins
            .with_pinned(|| self.injector.push_to(shard, TaskPtr(ptr)));
        // Wake hint: a push that observed other elements in flight on this
        // shard needs no wake — the transition push that made the shard
        // non-empty already issued one (workers never park while any shard
        // is visibly non-empty, and the consumer of each injected task
        // chains a wake while elements remain in the shard it popped), so
        // skipping here only merges redundant notifications, never loses
        // one.  The wake prefers a sleeper inside the shard's own domain
        // and falls back to the global rotating scan (DESIGN.md §13).
        if observed_empty {
            self.sleep
                .notify_work_near(self.domains.domain_range(shard), false);
        }
    }

    /// Frees any task nodes still sitting in queues or the injector.  Called
    /// by the scheduler after all workers have exited (only relevant when a
    /// [`ConcurrentScope`](crate::ConcurrentScope) still had tasks queued at
    /// shutdown; `Scheduler::scope` borrows the scheduler until it drained).
    pub(crate) fn drain_leftovers(&self) {
        let mut leftovers: Vec<TaskPtr> = Vec::new();
        self.external_pins.with_pinned(|| {
            for shard in 0..self.injector.num_shards() {
                while let Some(task) = self.injector.pop_from(shard) {
                    leftovers.push(task);
                }
            }
        });
        for w in &self.workers {
            for q in &w.queues {
                while let Some(word) = q.pop_bottom() {
                    leftovers.push(TaskPtr(word as *mut TaskNode));
                }
            }
        }
        for TaskPtr(ptr) in leftovers {
            // SAFETY: nobody else references a node once it has been drained
            // from a queue (the workers have all exited), and it is still
            // counted in its scope, which therefore is alive.
            let scope = unsafe { ScopeState::acquire((*ptr).scope) };
            // SAFETY: as above — we are the node's last holder.
            unsafe { TaskNode::release(ptr) };
            scope.task_finished(scope.external_shard());
            scope.signal_if_complete();
        }
    }
}

/// Unproductive streak after which a coordinator withdraws and re-announces
/// its requirement (the same ≈1.6 s the pre-parking round counter encoded).
/// Liveness backstop for the grow/shrink handshake; see `coordinate_level`.
/// Expressed in wall time because parked workers accumulate *rounds* only on
/// wakes, which have no fixed cadence.
const COORDINATOR_RESYNC_AFTER: Duration = Duration::from_millis(1600);

/// Unproductive streak after which a registered-but-unteamed member
/// deregisters and re-synchronizes from scratch (≈0.8 s, as before the
/// parking rework).  Liveness backstop for a member that missed a
/// registration update; see `member_step`.
const MEMBER_RESYNC_AFTER: Duration = Duration::from_millis(800);

/// Extra steal rounds the **last searching** worker runs before it commits
/// to a park while work hints (occupancy bits, injector elements) are still
/// visible.  Keeps steal throughput from collapsing to wake latency when one
/// producer feeds the whole pool; bounded so a stale occupancy hint (a bit
/// the busy owner has not healed yet) cannot pin a searcher to the CPU
/// forever.
const LAST_SEARCHER_EXTRA_ROUNDS: u32 = 64;

/// Outcome of one `pollPartners` round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PollOutcome {
    /// The caller switched to (registered with) a different coordinator.
    Switched,
    /// The caller stole smaller tasks to help a partner finish.
    Helped,
    /// Nothing changed.
    Nothing,
}

/// Loop iterations between opportunistic epoch collections while the worker
/// is busy (idle workers collect every round instead).  Collection is cheap
/// when there is no garbage, so this only bounds bag-mutex traffic.
const COLLECT_INTERVAL: u64 = 64;

/// Worker-local (unshared) state plus a handle to the shared state.
pub(crate) struct Worker {
    pub(crate) id: usize,
    pub(crate) shared: Arc<SchedulerShared>,
    rng: Xoshiro256,
    /// Highest publication sequence number already handled, per coordinator.
    last_seen_seq: Vec<u64>,
    /// Renewal counter recorded at registration time, per coordinator.
    registered_counter: Vec<u16>,
    /// This worker's epoch participant.  Pinned at the top of every loop
    /// iteration (a quiescent point), unpinned around parks so a sleeping
    /// worker never stalls reclamation (DESIGN.md §11).
    participant: Participant,
    /// Loop iterations since start; rate-limits busy-path collection.
    loop_ticks: u64,
    /// This worker's injection-shard domain (`domains.domain_of(id)`),
    /// cached so the hot pop path never recomputes the mapping.
    domain: usize,
    /// `true` while this worker is counted as searching in the sleep
    /// controller (idle, running steal rounds).
    searching: bool,
    /// Consecutive idle parks this worker skipped under the bounded
    /// last-searcher rule; reset whenever it finds work.
    last_searcher_rounds: u32,
    /// Owned handle on the scope whose tasks this worker is running: taken
    /// when it claims a task of a different scope, given back when it does
    /// so again or is about to park — once per scope switch, not per task
    /// (DESIGN.md §9).
    scope: Option<Arc<ScopeState>>,
    /// `true` while this worker has counted a finish on `scope` that no
    /// completion check has followed yet.
    unchecked_finish: bool,
}

impl Worker {
    pub(crate) fn new(id: usize, shared: Arc<SchedulerShared>) -> Self {
        let p = shared.num_threads();
        let rng = worker_rng(shared.seed, id);
        let participant = shared
            .epoch
            .register()
            .expect("epoch domain is sized for every worker");
        let domain = shared.domains.domain_of(id);
        Worker {
            id,
            shared,
            rng,
            last_seen_seq: vec![0; p],
            registered_counter: vec![0; p],
            participant,
            loop_ticks: 0,
            domain,
            searching: false,
            last_searcher_rounds: 0,
            scope: None,
            unchecked_finish: false,
        }
    }

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
    fn leave_scope(&mut self) {
        self.check_scope();
        self.scope = None;
    }

    /// Wakes the held scope's waiter if this worker's finishes completed it.
    /// Called wherever the worker can no longer vouch that more of the
    /// scope's work is coming its way: local queues empty, a team member
    /// done with its share, or leaving the scope.  Free unless the worker
    /// finished a task since its last check.
    fn check_scope(&mut self) {
        if std::mem::take(&mut self.unchecked_finish) {
            if let Some(scope) = &self.scope {
                scope.signal_if_complete();
            }
        }
    }

    /// Collects the epoch domain, crediting freed objects to this worker's
    /// counters.  Must be called at a quiescent point (directly after a
    /// repin, before any protected pointer is obtained).
    fn collect_epoch(&self) {
        let freed = self.shared.epoch.try_collect();
        if freed.advanced {
            self.me().counters.epoch_advances.inc();
        }
        self.me().counters.segments_reclaimed.add(freed.freed_segments);
        self.me().counters.buffers_reclaimed.add(freed.freed_buffers);
    }

    /// One spin/yield round of a blocking site's pre-park prefix, with the
    /// epoch pin released around the (potentially descheduling) yield so a
    /// preempted worker never blocks the global epoch.  The caller's next
    /// protected access happens after the repin (a fresh quiescent point).
    fn unpinned_spin(&self, backoff: &mut Backoff) {
        self.participant.unpin();
        backoff.spin_light();
        self.participant.pin();
    }

    /// `true` once `backoff` has exhausted the configured spin/yield prefix
    /// and the blocking site should park on the eventcount.
    fn should_park(&self, backoff: &Backoff) -> bool {
        backoff.should_park(self.shared.park_spin_rounds)
    }

    /// Blocks on this worker's eventcount slot for a **handshake** wait
    /// (member poll, coordinator wait, start countdown).  The caller has
    /// already prepared (`ticket`) and re-checked its condition; this
    /// unpins around the block (DESIGN.md §11) and records the wake in the
    /// metrics.  Every wake counts one backoff round so streak time and the
    /// stall reports keep working.
    fn commit_handshake_park(&mut self, backoff: &mut Backoff, ticket: u64) {
        // Never sleep holding a scope: our last finish may have completed it,
        // and the handle keeps its state alive.
        self.leave_scope();
        self.me().counters.parks.inc();
        self.participant.unpin();
        let reason = self
            .shared
            .sleep
            .park_handshake(self.id, ticket, self.shared.park_backstop);
        self.participant.pin();
        self.record_wake(reason);
        backoff.note_round();
    }

    /// Metrics accounting for one park outcome.
    fn record_wake(&self, reason: WakeReason) {
        match reason {
            WakeReason::Notified(latency) => {
                self.me().counters.wakeups.inc();
                self.me().counters.record_wake_latency(latency);
            }
            // The global ticket moved: a notification happened somewhere
            // while we were committing.  It woke us, so it counts as a
            // wakeup, but it carries no per-slot latency sample.
            WakeReason::TicketChanged => self.me().counters.wakeups.inc(),
            WakeReason::Backstop => self.me().counters.spurious_wakes.inc(),
        }
    }

    #[inline]
    fn me(&self) -> &WorkerShared {
        &self.shared.workers[self.id]
    }

    /// `true` when the `TEAMSTEAL_STALL_DEBUG` environment variable is set
    /// or [`enable_stall_debug`] was called: long-running waits then print a
    /// one-line state dump of every worker at spaced intervals, which is the
    /// intended way to diagnose a scheduler that appears to make no
    /// progress.
    fn stall_debug_enabled() -> bool {
        static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *ENABLED.get_or_init(|| std::env::var_os("TEAMSTEAL_STALL_DEBUG").is_some())
            || FORCE_STALL_DEBUG.load(Ordering::Acquire)
    }

    /// Prints the scheduler-wide state when a wait site has been
    /// unproductive for over a second, rate-limited to every 16th round so
    /// backstop-paced wakes (~10/s) keep dumping while a hang persists —
    /// including when the debug switch is flipped on *after* the hang
    /// started (the test watchdog does exactly that).  Only active when
    /// stall debugging is enabled; the diagnostic path takes no locks.
    fn stall_report(&self, site: &str, backoff: &Backoff) {
        if !Self::stall_debug_enabled() {
            return;
        }
        let rounds = backoff.rounds();
        if backoff.unproductive_for() < Duration::from_secs(1) || rounds % 16 != 0 || rounds == 0 {
            return;
        }
        eprintln!(
            "[teamsteal stall] worker {} at {site} after {rounds} rounds ({:?}) | {}",
            self.id,
            backoff.unproductive_for(),
            self.shared.debug_state_line()
        );
    }

    #[inline]
    fn topo(&self) -> &Topology {
        &self.shared.topology
    }

    /// The scheduler's main loop (the paper's Algorithm 1 + Algorithm 5).
    pub(crate) fn run_loop(&mut self) {
        // A worker that injects (e.g. a task body opening a nested scope)
        // pushes to its own domain's shard, not a round-robin one.
        INJECT_HOME.with(|home| home.set(Some(self.domain)));
        let mut idle = Backoff::new();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            // Quiescent point: every protected pointer from the previous
            // iteration is dead here.  Re-pin to the current epoch, and
            // opportunistically collect ripe garbage (every round while
            // idle would be wasteful when busy, so busy rounds collect at
            // COLLECT_INTERVAL).
            self.participant.pin();
            self.loop_ticks = self.loop_ticks.wrapping_add(1);
            if self.loop_ticks % COLLECT_INTERVAL == 0 {
                self.collect_epoch();
            }
            let coordinator = self.me().coordinator.load(Ordering::Relaxed);
            if coordinator != self.id {
                // paper: Algorithm 5 lines 7–14 — this worker is registered
                // with another coordinator; run its published task or help.
                self.quit_search();
                self.member_step(coordinator, &mut idle);
                continue;
            }
            // Refinement 1: while a team is formed, keep working on the queue
            // of that size before looking at smaller tasks.
            if let Some(level) = self.preferred_level() {
                self.quit_search();
                idle.reset();
                self.work_on_level(level);
                continue;
            }
            // All local queues are empty, so none of the current scope's
            // work is left here: check it for completion.
            self.check_scope();
            // If we coordinate a *formed* team, keep it warm for a bounded
            // window first (DESIGN.md §15): a compatible task arriving
            // within the window reuses the team with a single publication
            // write instead of re-running the whole registration protocol.
            if self.warm_hold() {
                idle.reset();
                continue;
            }
            // Dissolve any team we coordinate (Lemma 1: "the team will
            // dissolve ... as soon as the current coordinator's queue runs
            // empty") and go stealing.
            self.release_team_if_any();
            self.enter_search();
            if self.pop_injected() || self.steal_round() {
                self.last_searcher_rounds = 0;
                idle.reset();
                continue;
            }
            self.me().counters.failed_steal_rounds.inc();
            self.stall_report("idle/steal", &idle);
            // An idle round is the cheapest quiescent point there is:
            // collect before parking, then park unpinned so reclamation
            // never waits on a sleeper.
            self.collect_epoch();
            self.idle_park(&mut idle);
        }
        // Shutdown: a warm team parked on our registration word must be
        // disbanded *now* — its members re-check `shutdown` on the wake this
        // triggers, instead of draining out one park backstop at a time.
        self.release_team_if_any();
        self.quit_search();
        self.leave_scope();
        self.participant.unpin();
    }

    /// Announces this worker as searching (about to run steal rounds) to the
    /// sleep controller, once per idle episode.
    fn enter_search(&mut self) {
        if !self.searching {
            self.searching = true;
            self.shared.sleep.start_search();
        }
    }

    /// Withdraws the searching announcement (work found, coordination path
    /// entered, or shutdown).
    fn quit_search(&mut self) {
        if self.searching {
            self.searching = false;
            self.shared.sleep.end_search();
            self.last_searcher_rounds = 0;
        }
    }

    /// One idle blocking round: spin/yield prefix, bounded last-searcher
    /// stay-awake, then the eventcount park protocol
    /// (prepare → recheck → commit) of DESIGN.md §12.
    fn idle_park(&mut self, idle: &mut Backoff) {
        debug_assert!(self.searching);
        if !self.should_park(idle) {
            self.unpinned_spin(idle);
            return;
        }
        // Bounded "last searcher stays awake": while this is the only
        // searching worker and work hints are visible, burn a few more
        // steal rounds instead of trading the whole pool's steal throughput
        // for a park/wake round-trip per task.  Bounded, because an
        // unhealed occupancy hint must not pin us to the CPU forever — the
        // eventcount makes parking with work present merely slower, never
        // incorrect.
        if self.shared.sleep.is_last_searcher()
            && self.last_searcher_rounds < LAST_SEARCHER_EXTRA_ROUNDS
            && self.work_hints_visible()
        {
            self.last_searcher_rounds += 1;
            self.unpinned_spin(idle);
            return;
        }
        // Park protocol.  The prepare announces us as a sleeper *before*
        // the recheck, so any producer that publishes work after the
        // recheck is guaranteed to observe a sleeper and wake it
        // (DESIGN.md §12 rows A/B); anything published before is seen by
        // the recheck itself.
        let ticket = self.shared.sleep.prepare_idle();
        if self.shared.shutdown.load(Ordering::Acquire) || self.work_hints_visible() {
            self.shared.sleep.cancel_idle();
            idle.note_round();
            return;
        }
        self.leave_scope();
        self.me().counters.parks.inc();
        self.participant.unpin();
        let reason = self
            .shared
            .sleep
            .park_idle(self.id, ticket, self.shared.park_backstop);
        self.participant.pin();
        self.record_wake(reason);
        idle.note_round();
    }

    /// Cheap scan for any sign of obtainable work: a queued injector
    /// element, a possibly non-empty foreign queue, or a team advertisement
    /// this worker could register for.  Reads only top-level atomics
    /// (occupancy words, registration words, injector indices), so it is
    /// safe while unpinned and cheap enough to run as the park recheck.
    fn work_hints_visible(&self) -> bool {
        if !self.shared.injector.is_empty() {
            return true;
        }
        for (other, w) in self.shared.workers.iter().enumerate() {
            if other == self.id {
                continue;
            }
            if w.occupancy.load(Ordering::Relaxed) != 0 {
                return true;
            }
            let reg = w.reg.load();
            let required = reg.required as usize;
            if required > 1
                && !reg.is_complete()
                && self.topo().overlap(other, self.id, required)
            {
                return true;
            }
        }
        false
    }

    /// The queue level this worker should work on next: the formed team's
    /// level while its queue is non-empty (Refinement 1), otherwise the
    /// lowest non-empty level (smallest tasks first).
    fn preferred_level(&self) -> Option<usize> {
        let reg = self.me().reg.load();
        if reg.teamed > 1 {
            let team_level = self
                .topo()
                .level_for_requirement(self.id, reg.teamed as usize);
            if !self.me().queues[team_level].is_empty() {
                return Some(team_level);
            }
        }
        self.me().lowest_nonempty_level()
    }

    // ------------------------------------------------------------------
    // Own-queue execution and coordination
    // ------------------------------------------------------------------

    fn work_on_level(&mut self, level: usize) {
        let group = self.topo().group_range(self.id, level);
        if group.len() == 1 {
            // Degenerate case (r = 1): exactly classic work-stealing — no
            // registration CAS, no publication (paper, Section 3.1).  If we
            // still hold a larger team from earlier work, resize it away so
            // its members do not wait on us needlessly (Refinement 1: the
            // team is resized to work on a queue containing smaller tasks).
            if self.me().reg.load().teamed > 1 {
                self.release_team_if_any();
            }
            if let Some(ptr) = self.me().pop_task(level) {
                self.run_singleton(ptr);
            }
        } else {
            self.coordinate_level(level);
        }
    }

    fn run_singleton(&mut self, ptr: *mut TaskNode) {
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
    fn run_job(node: &TaskNode, ctx: &TaskContext<'_>) {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| node.job.run(ctx)));
        if let Err(payload) = result {
            ctx.scope.record_panic(payload);
        }
    }

    fn finish_node(&mut self, ptr: *mut TaskNode) {
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
    fn retire_if_stale(&mut self, ptr: *mut TaskNode) -> bool {
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
    fn claim_for_run(&mut self, ptr: *mut TaskNode) -> bool {
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

    /// The paper's `coordinateTask` (Algorithm 6), generalized to one call
    /// per queue level: build (or reuse) the team for this level's group and
    /// execute the tasks in the level's queue with it.
    fn coordinate_level(&mut self, level: usize) {
        let me = self.id;
        let group = self.topo().group_range(me, level);
        let team_size = group.len();

        // Adjust the advertised requirement.  paper: "r is modified every
        // time a new task is added to the bottom of the queue"; here we also
        // (re-)announce it when we start coordinating the level.
        let cur = self.me().reg.load();
        if (cur.teamed as usize) > team_size {
            // Next task is smaller than the current team: shrink (Section 3.1).
            self.wait_countdown_zero();
            self.me().reg.shrink_team(team_size as u16);
            // Members dropped by the shrink may be parked polling us.
            self.notify_team_range(me, cur.teamed as usize);
        } else if cur.teamed > 1 && (cur.teamed as usize) < team_size {
            // paper, Section 3.1: "If the next task is larger, the coordinator
            // breaks up the team as soon as execution of the previous task has
            // finished.  This is done by setting t = 1.  The team for the
            // larger task then has to be rebuilt from scratch."  Keeping the
            // smaller team formed here deadlocks: its members may never leave
            // a formed team, and a coordinator of a formed team never switches
            // to a competing coordinator, so two half-machine teams that both
            // want to grow wait on each other forever.
            self.wait_countdown_zero();
            self.me().reg.disband();
            self.me().reg.push_requirement(team_size as u16);
            // Wake both the freed members of the old (smaller) team and the
            // candidates of the new, larger one.
            self.notify_team_range(me, cur.teamed as usize);
            self.notify_team_range(me, team_size);
        } else if (cur.required as usize) != team_size {
            self.me().reg.push_requirement(team_size as u16);
            // A new advertisement: candidates may be parked idle or polling
            // a competing coordinator they would switch away from.
            self.notify_team_range(me, team_size);
        }

        let mut backoff = Backoff::new();
        let mut resyncs_fired = 0u32;
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let reg = self.me().reg.load();
            let team_formed = reg.teamed as usize == team_size;
            if !team_formed {
                // Smaller tasks take priority until the team exists
                // (Lemma 1: "tasks requiring less threads are always
                // prioritized").
                if let Some(l) = self.me().lowest_nonempty_level() {
                    if l < level {
                        return;
                    }
                }
            }
            if self.me().queues[level].is_empty() {
                // Nothing left at this level (drained or stolen away); the
                // main loop decides what to do with the team next.
                return;
            }
            if reg.is_complete() {
                let ready = if team_formed {
                    true
                } else {
                    match self.me().reg.try_form_team() {
                        Some(_) => {
                            self.me().counters.teams_formed.inc();
                            true
                        }
                        None => {
                            self.me().counters.cas_failures.inc();
                            false
                        }
                    }
                };
                if ready {
                    match self.me().pop_task(level) {
                        Some(ptr) => {
                            if team_formed {
                                // Publication onto an already-formed team:
                                // the moldable fast path (one seqlock write,
                                // no registration traffic).  `try_reuse` is
                                // a single Acquire load validating the team
                                // is still whole (DESIGN.md §15).
                                if matches!(
                                    self.me().reg.try_reuse(team_size as u16),
                                    ReuseOutcome::Reused(_)
                                ) {
                                    self.me().counters.team_reuses.inc();
                                }
                            } else {
                                // Cold path: this publication paid for a
                                // full team build.
                                self.me().counters.teams_built.inc();
                            }
                            self.execute_team_task_as_coordinator(ptr, group.start, team_size);
                            backoff.reset();
                            // Elastic shrink (DESIGN.md §15): the countdown
                            // just drained, so this is a safe resize point.
                            // Under backlog pressure, release the members to
                            // the steal loop instead of running (or warm-
                            // holding) the next task with the full team.
                            if self.elastic_shrink_due(team_size) {
                                self.me().reg.disband();
                                self.me().counters.team_shrinks.inc();
                                self.notify_team_range(me, team_size);
                                return;
                            }
                        }
                        None => return,
                    }
                }
            } else {
                // Not enough threads yet: poll the partners required for this
                // team (Algorithm 8), possibly helping or switching.
                match self.poll_partners(me, team_size, level) {
                    PollOutcome::Switched | PollOutcome::Helped => return,
                    PollOutcome::Nothing => {
                        // Liveness backstop (ROADMAP flake): if the team has
                        // not completed for a long time, the acquired count
                        // may have desynchronized from the members that are
                        // actually polling us.  Withdraw the advertisement
                        // and re-announce it under a fresh renewal counter,
                        // forcing every registrant to re-register; any
                        // correctly waiting member re-acquires within one
                        // poll round, so the cost of a false positive is one
                        // extra CAS per member.  Time-based: a parked
                        // coordinator accumulates rounds only on wakes.
                        if backoff.unproductive_for()
                            >= COORDINATOR_RESYNC_AFTER * (resyncs_fired + 1)
                            && !self.me().reg.load().has_team()
                        {
                            resyncs_fired += 1;
                            self.me().reg.disband();
                            self.me().reg.push_requirement(team_size as u16);
                            self.me().counters.liveness_resyncs.inc();
                            // Stall resync is a whole-scheduler event: wake
                            // everyone so no stale park outlives it.
                            self.shared.sleep.notify_all();
                        }
                        self.stall_report("coordinate_level", &backoff);
                        if !self.should_park(&backoff) {
                            self.unpinned_spin(&mut backoff);
                            continue;
                        }
                        // Park until a registration/release changes our
                        // word, a thief drains the level, or the poll finds
                        // a partner event (prepare → recheck → commit;
                        // DESIGN.md §12).
                        let ticket = self.shared.sleep.prepare_handshake();
                        if self.shared.shutdown.load(Ordering::Acquire)
                            || self.me().reg.load() != reg
                            || self.me().queues[level].is_empty()
                        {
                            self.shared.sleep.cancel_handshake();
                            backoff.note_round();
                            continue;
                        }
                        match self.poll_partners(me, team_size, level) {
                            PollOutcome::Switched | PollOutcome::Helped => {
                                self.shared.sleep.cancel_handshake();
                                return;
                            }
                            PollOutcome::Nothing => {}
                        }
                        self.commit_handshake_park(&mut backoff, ticket);
                    }
                }
            }
        }
    }

    /// Publishes `ptr` to the (already formed) team and executes the
    /// coordinator's share.
    fn execute_team_task_as_coordinator(&mut self, ptr: *mut TaskNode, base: usize, team_size: usize) {
        debug_assert!(team_size >= 2);
        // A start countdown of `team_size - 1` is only ever drained by that
        // many *teamed* members polling this worker.
        debug_assert!(
            self.me().reg.load().teamed as usize >= team_size,
            "publishing a task for {team_size} members to {:?}",
            self.me().reg.load()
        );
        // Claim before the team descriptor is written or published: members
        // only ever see already-claimed tasks, so the cancel race is decided
        // while the coordinator still owns the node exclusively.
        if !self.claim_for_run(ptr) {
            return;
        }
        let me = self.id;
        // SAFETY: the node is alive; we are the only thread that can publish
        // it (it came out of our own queue) and no member can see it before
        // the publication below.
        let node = unsafe { &*ptr };
        unsafe {
            *node.team_base.get() = base;
            *node.team_size.get() = team_size;
            *node.barrier.get() = Some(Arc::new(TeamBarrier::new(team_size)));
        }
        node.participants.store(team_size as u32, Ordering::Release);

        // The start countdown G (Section 3): all other members must pick the
        // task up before we may publish the next one or change the team.
        // Relaxed suffices: the store is sequenced before the publication
        // below, and members only decrement after acquire-observing the
        // publication, so they always see the fresh countdown (DESIGN.md §9).
        self.me()
            .start_countdown
            .store((team_size - 1) as u32, Ordering::Relaxed);

        // Publication seqlock: odd while writing, even when stable.  The
        // ordering recipe is the standard atomic seqlock (DESIGN.md §9):
        //
        // * the odd store may be Relaxed — the release fence after it orders
        //   it (and the node-field writes above) before the data stores, so
        //   a reader that observes any of the new data and then acquires-
        //   fences before re-reading the sequence is guaranteed to see the
        //   odd value (or a later one) and discard the torn read;
        // * the data stores may be Relaxed — a reader only trusts them after
        //   both sequence reads returned the same even value;
        // * the final store is Release — it pairs with the reader's initial
        //   Acquire load, making the data (and the countdown and node
        //   fields) visible to any reader that sees the new sequence.
        let seq = self.me().publish_seq.load(Ordering::Relaxed);
        debug_assert!(seq % 2 == 0);
        self.me().publish_seq.store(seq + 1, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Release);
        self.me().publish_base.store(base, Ordering::Relaxed);
        self.me().publish_size.store(team_size, Ordering::Relaxed);
        self.me().publish_task.store(ptr, Ordering::Relaxed);
        self.me().publish_seq.store(seq + 2, Ordering::Release);
        // Wake the members: they park between publications (member_step)
        // and must observe this one before the start countdown can drain.
        self.shared.sleep.notify_workers(base..base + team_size, me);

        // Run our own share of the task.
        // SAFETY: barrier was just written by us.
        let barrier = unsafe { (*node.barrier.get()).as_ref() };
        let ctx = TaskContext {
            worker: &*self,
            // SAFETY: counted until the last participant's `finish_node`,
            // which cannot precede ours.
            scope: unsafe { node.scope() },
            requested: node.requirement,
            team_size,
            team_base: base,
            local_id: me - base,
            barrier,
        };
        Self::run_job(node, &ctx);
        self.me().counters.team_tasks_executed.inc();
        self.finish_node(ptr);
        // Wait until every member has started before allowing the next
        // publication or any registration change (Algorithm 5, lines 1–4).
        self.wait_countdown_zero();
    }

    fn wait_countdown_zero(&mut self) {
        let mut backoff = Backoff::new();
        while self.me().start_countdown.load(Ordering::Acquire) > 0 {
            // Liveness: at shutdown, members may exit their run loop without
            // picking up a published task (and thus without decrementing G).
            // A coordinator blocking here forever would then deadlock the
            // scheduler's drop-join.  Shutdown is only set after every scope
            // has drained, so abandoning the wait cannot lose work.
            if self.shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            self.stall_report("wait_countdown", &backoff);
            if !self.should_park(&backoff) {
                self.unpinned_spin(&mut backoff);
                continue;
            }
            // Park until the member whose decrement reaches zero notifies
            // us (member_step), shutdown broadcasts, or the backstop fires.
            let ticket = self.shared.sleep.prepare_handshake();
            if self.me().start_countdown.load(Ordering::Acquire) == 0
                || self.shared.shutdown.load(Ordering::Acquire)
            {
                self.shared.sleep.cancel_handshake();
                continue;
            }
            self.commit_handshake_park(&mut backoff, ticket);
        }
    }

    /// Dissolves the team / withdraws the requirement advertisement when this
    /// worker has run out of local work.
    fn release_team_if_any(&mut self) {
        let reg = self.me().reg.load();
        if reg.teamed > 1 || reg.required > 1 {
            self.wait_countdown_zero();
            self.me().reg.disband();
            // Freed members and pending registrants may be parked polling
            // this registration word.
            self.notify_team_range(self.id, reg.teamed.max(reg.required) as usize);
        }
    }

    // ------------------------------------------------------------------
    // Moldable teams: warm reuse pool and elastic shrink (DESIGN.md §15)
    // ------------------------------------------------------------------

    /// Bounded warm-hold window run when the local queues are empty but this
    /// worker still coordinates a **formed** team.  Instead of disbanding at
    /// once, the coordinator keeps the team parked as a unit for up to
    /// `warm_keepalive` while it looks for a next task itself — popping the
    /// injector and running a *restricted* steal round (no registration with
    /// foreign coordinators, which would orphan the held members).  Returns
    /// `true` when a task landed in the local queues: the main loop then
    /// re-enters `coordinate_level`, where a compatible requirement reuses
    /// the team with one publication write.  Returns `false` when the window
    /// expired or reuse is not possible; the caller disbands as before.
    fn warm_hold(&mut self) -> bool {
        let keepalive = self.shared.warm_keepalive;
        if keepalive.is_zero() {
            return false;
        }
        // One Acquire load decides whether the team is reusable at all
        // (formed, complete and not mid-grow): the same predicate a reuse
        // publication validates.
        if !matches!(self.me().reg.try_reuse(1), ReuseOutcome::Reused(_)) {
            return false;
        }
        // Elastic pressure: a deep external backlog (or a machine that is
        // otherwise asleep while backlog exists) wants the members thieving,
        // not pooled.  Refuse the hold; the caller's disband releases them.
        let team_size = self.me().reg.load().teamed as usize;
        if self.elastic_shrink_due(team_size) {
            return false;
        }
        let mut warm = Backoff::new();
        loop {
            // The expiry check comes *before* the work probe: once the
            // window has lapsed the pool must dissolve even if a task just
            // arrived — the late task then pays the cold path instead of
            // reviving a team whose members have been parked too long.
            if self.shared.shutdown.load(Ordering::Acquire)
                || warm.unproductive_for() >= keepalive
            {
                return false;
            }
            if self.pop_injected() || self.warm_steal_round() {
                return true;
            }
            self.unpinned_spin(&mut warm);
        }
    }

    /// The warm-hold variant of [`steal_round`](Self::steal_round): visits
    /// the same partners but only *steals* — never registers with a foreign
    /// coordinator, because this worker still holds a formed team whose
    /// members may not leave it (registering elsewhere would strand them).
    fn warm_steal_round(&mut self) -> bool {
        let levels = self.topo().num_steal_levels();
        for level in 0..levels {
            let Some(x) = self.partner_at(level) else {
                continue;
            };
            if self.transfer_steal(x, level, level) > 0 {
                self.me().counters.steals.inc();
                return true;
            }
        }
        false
    }

    /// Elastic-shrink predicate (DESIGN.md §15): `true` when a team holding
    /// `team_size` workers should release them to the steal loop because the
    /// external backlog is deep (at least `elastic_backlog_threshold`
    /// pending injected tasks) or because *several* tasks queue up while
    /// every worker outside the team is asleep.  A backlog of exactly one
    /// never triggers it — one pending task is the consecutive-task case the
    /// warm pool exists for, and the coordinator feeds it to the reused team
    /// faster than a disband-rebuild cycle could.  Reads two counters; no
    /// synchronization beyond their Relaxed loads — the decision is a
    /// heuristic, the disband it triggers uses the ordinary §10 machinery.
    fn elastic_shrink_due(&self, team_size: usize) -> bool {
        let threshold = self.shared.elastic_backlog_threshold;
        if threshold == usize::MAX {
            return false;
        }
        let backlog = self.shared.injector.len();
        if backlog <= 1 {
            return false;
        }
        backlog >= threshold
            || self.shared.sleep.sleepers() as usize + team_size >= self.shared.num_threads()
    }

    /// Picks the effective team size for a **moldable** task (requirement
    /// range `r_min ..= r_max`, DESIGN.md §15) from current load: one idle
    /// worker per extra member (the sleep controller's packed sleeper and
    /// searcher counts, plus the spawner itself), clamped into the range.
    /// Under elastic backlog pressure the choice collapses to `r_min` —
    /// building a wide team while external tasks queue up starves them.
    /// Under `UniformRandom` (the no-team baseline) it also collapses to
    /// `r_min`, which keeps `1..=k` moldable spawns runnable there.
    fn effective_requirement(&self, r_max: usize, r_min: usize) -> usize {
        debug_assert!(1 <= r_min && r_min <= r_max);
        if r_min == r_max {
            return r_max;
        }
        if self.shared.steal_policy == StealPolicy::UniformRandom {
            return r_min;
        }
        let backlog = self.shared.injector.len();
        if backlog >= self.shared.elastic_backlog_threshold {
            return r_min;
        }
        let sleep = &self.shared.sleep;
        let idle = (sleep.sleepers() + sleep.searchers()) as usize;
        (idle + 1).clamp(r_min, r_max)
    }

    /// Wakes every worker that could act on a change of `coordinator`'s
    /// registration word for requirement `r` (announcement, disband,
    /// shrink): the aligned team block, minus the caller.  One eventcount
    /// ticket bump for the whole range, so a candidate mid-park-commit can
    /// never sleep through the event.
    fn notify_team_range(&self, coordinator: usize, r: usize) {
        if r > 1 {
            let range = self.topo().team_for(coordinator, r);
            self.shared.sleep.notify_workers(range, self.id);
        }
    }

    // ------------------------------------------------------------------
    // Member (registered-at-a-coordinator) behaviour
    // ------------------------------------------------------------------

    /// One step of a worker that is registered with coordinator `cid`
    /// (Algorithm 5, lines 7–14).
    fn member_step(&mut self, cid: usize, backoff: &mut Backoff) {
        let me = self.id;
        if self.shared.shutdown.load(Ordering::Acquire) {
            self.leave_coordinator();
            return;
        }
        self.stall_report("member_step", backoff);
        // 1. Is there a published task for us?
        if let Some((ptr, base, size, seq)) = self.read_publication(cid) {
            self.last_seen_seq[cid] = seq;
            if (base..base + size).contains(&me) {
                let prev = self.shared.workers[cid]
                    .start_countdown
                    .fetch_sub(1, Ordering::AcqRel);
                if prev == 1 {
                    // Ours was the last pick-up: the coordinator may be
                    // parked in `wait_countdown_zero`.
                    self.shared.sleep.notify_worker(cid);
                }
                self.run_team_member(ptr, base, size);
                backoff.reset();
                return;
            }
            // A task for a team that does not include us — nothing to do with
            // it; fall through to the validity checks.
        }
        let creg = self.shared.workers[cid].reg.load();
        // 2. Are we part of a formed team?  Then we only wait for work
        // (Section 3: "Teamed up threads are not allowed to do any
        // coordination work, except polling the coordinator") — parked on
        // our eventcount slot until the coordinator publishes, resizes or
        // disbands.
        let teamed = creg.teamed as usize;
        if teamed > 1 && self.topo().team_for(cid, teamed).contains(&me) {
            if !self.should_park(backoff) {
                self.unpinned_spin(backoff);
                return;
            }
            let ticket = self.shared.sleep.prepare_handshake();
            if self.shared.shutdown.load(Ordering::Acquire)
                || self.shared.workers[cid].reg.load() != creg
                || self.read_publication(cid).is_some()
            {
                self.shared.sleep.cancel_handshake();
                backoff.note_round();
                return;
            }
            self.commit_handshake_park(backoff, ticket);
            return;
        }
        // 3. Is our registration still valid and needed?
        let required = creg.required as usize;
        let still_needed = required > 1
            && creg.counter == self.registered_counter[cid]
            && self.topo().team_for(cid, required).contains(&me);
        if !still_needed {
            self.leave_coordinator();
            backoff.reset();
            return;
        }
        // 4. Validly registered, team not yet complete: poll the partners we
        // share with the coordinator, helping smaller tasks or switching to a
        // winning coordinator (Algorithm 8).
        let req_level = self.topo().level_for_requirement(cid, required);
        match self.poll_partners(cid, required, req_level) {
            PollOutcome::Switched | PollOutcome::Helped => backoff.reset(),
            PollOutcome::Nothing => {
                // Liveness backstop (ROADMAP flake): a member that has
                // polled unproductively for a long time re-synchronizes from
                // scratch — release the registration (never possible once
                // teamed; the `Teamed` outcome keeps us in place) and fall
                // back to the main loop, which re-discovers and re-registers
                // with whoever still needs us.  This converts any missed
                // registration/publication handshake into bounded extra
                // work instead of an unbounded wait.  Time-based: a parked
                // member accumulates rounds only on wakes.
                if backoff.unproductive_for() >= MEMBER_RESYNC_AFTER {
                    match self.shared.workers[cid]
                        .reg
                        .try_release(self.registered_counter[cid])
                    {
                        ReleaseOutcome::Teamed => {}
                        ReleaseOutcome::Released | ReleaseOutcome::Revoked => {
                            self.leave_coordinator();
                            self.me().counters.liveness_resyncs.inc();
                            // Stall resync: wake everyone (including the
                            // abandoned coordinator) so no stale park
                            // outlives the re-synchronization.
                            self.shared.sleep.notify_all();
                            backoff.reset();
                            return;
                        }
                    }
                }
                if !self.should_park(backoff) {
                    self.unpinned_spin(backoff);
                    return;
                }
                // Park until the coordinator's word changes, a publication
                // lands, or a partner event (checked by one more poll after
                // prepare) needs handling.
                let ticket = self.shared.sleep.prepare_handshake();
                if self.shared.shutdown.load(Ordering::Acquire)
                    || self.shared.workers[cid].reg.load() != creg
                    || self.read_publication(cid).is_some()
                {
                    self.shared.sleep.cancel_handshake();
                    backoff.note_round();
                    return;
                }
                if self.poll_partners(cid, required, req_level) != PollOutcome::Nothing {
                    self.shared.sleep.cancel_handshake();
                    backoff.reset();
                    return;
                }
                self.commit_handshake_park(backoff, ticket);
            }
        }
    }

    fn leave_coordinator(&mut self) {
        self.me().coordinator.store(self.id, Ordering::Release);
    }

    /// Seqlock read of a coordinator's publication.  Returns a publication
    /// newer than what this worker has already handled, if any.
    ///
    /// Ordering (DESIGN.md §9): the initial Acquire pairs with the writer's
    /// final Release store, so a matching even sequence guarantees the data
    /// loads saw that publication's values; the Acquire fence before the
    /// re-read pairs with the writer's Release fence, so a reader that
    /// picked up any in-progress data is guaranteed to observe the odd (or
    /// newer) sequence and discard it.
    fn read_publication(&self, cid: usize) -> Option<(*mut TaskNode, usize, usize, u64)> {
        let c = &self.shared.workers[cid];
        for _ in 0..8 {
            let s1 = c.publish_seq.load(Ordering::Acquire);
            if s1 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            if s1 == 0 || s1 <= self.last_seen_seq[cid] {
                return None;
            }
            let ptr = c.publish_task.load(Ordering::Relaxed);
            let base = c.publish_base.load(Ordering::Relaxed);
            let size = c.publish_size.load(Ordering::Relaxed);
            std::sync::atomic::fence(Ordering::Acquire);
            let s2 = c.publish_seq.load(Ordering::Relaxed);
            if s1 == s2 {
                return Some((ptr, base, size, s1));
            }
        }
        None
    }

    fn run_team_member(&mut self, ptr: *mut TaskNode, base: usize, size: usize) {
        // SAFETY: we are a counted participant (start_countdown was
        // decremented above), so the node cannot be freed before we finish.
        let node = unsafe { &*ptr };
        // SAFETY: the barrier was written before publication; the seqlock
        // read ordered us after that write.
        let barrier = unsafe { (*node.barrier.get()).as_ref() };
        let ctx = TaskContext {
            worker: &*self,
            // SAFETY: counted until the last participant's `finish_node`,
            // which cannot precede ours.
            scope: unsafe { node.scope() },
            requested: node.requirement,
            team_size: size,
            team_base: base,
            local_id: self.id - base,
            barrier,
        };
        Self::run_job(node, &ctx);
        self.me().counters.team_tasks_executed.inc();
        self.finish_node(ptr);
        // A member goes back to polling its coordinator, not to the run
        // loop's "queues empty" point: if ours was the last finish, check
        // for completion here.
        self.check_scope();
    }

    // ------------------------------------------------------------------
    // Partner polling, switching and helping (Algorithms 8 & 9)
    // ------------------------------------------------------------------

    /// Chooses the partner at `level` according to the configured policy.
    fn partner_at(&mut self, level: usize) -> Option<usize> {
        match self.shared.steal_policy {
            StealPolicy::Deterministic => self.topo().partner(self.id, level),
            StealPolicy::RandomizedWithinLevel => {
                let topo = &self.shared.topology;
                topo.partner_randomized(self.id, level, &mut self.rng)
            }
            StealPolicy::UniformRandom => {
                let p = self.shared.num_threads();
                if p <= 1 {
                    None
                } else {
                    let mut v = self.rng.next_usize_below(p - 1);
                    if v >= self.id {
                        v += 1;
                    }
                    Some(v)
                }
            }
        }
    }

    /// The paper's `pollPartners(c, r)` (Algorithm 8), called both by a
    /// coordinator (`my_coord == self.id`) and by registered members.
    fn poll_partners(&mut self, my_coord: usize, req: usize, req_level: usize) -> PollOutcome {
        let me = self.id;
        for level in 0..req_level {
            let Some(x) = self.partner_at(level) else {
                continue;
            };
            if x == my_coord || x == me {
                continue;
            }
            let xcid = self.shared.workers[x].coordinator.load(Ordering::Acquire);
            if xcid == my_coord || xcid == me {
                continue;
            }
            let xcreg = self.shared.workers[xcid].reg.load();
            let their_r = xcreg.required as usize;
            if their_r <= 1 {
                // Partner is busy with sequential work: steal smaller tasks
                // from it so it runs dry and comes looking for work
                // (Algorithm 8, lines 20–30).
                if self.help_steal_from(x, req_level, level) {
                    return PollOutcome::Helped;
                }
                continue;
            }
            // Conflict resolution (Lemma 3): the smaller requirement wins,
            // ties are broken towards the smaller coordinator id.
            let they_win = their_r < req || (their_r == req && xcid < my_coord);
            if !they_win {
                // We win; the partner's team will eventually come to us.
                continue;
            }
            let needed_by_them =
                !xcreg.is_complete() && self.topo().overlap(xcid, me, their_r);
            if needed_by_them {
                if self.switch_coordinator(my_coord, xcid) {
                    return PollOutcome::Switched;
                }
            } else if their_r < req && self.help_steal_from(x, req_level, level) {
                // The partner's (winning, smaller) task does not need us:
                // help it finish faster by stealing tasks smaller than ours.
                return PollOutcome::Helped;
            }
        }
        PollOutcome::Nothing
    }

    /// Steals tasks *smaller than our current coordination requirement* from
    /// `victim` into our own queues (Algorithm 8's helping steal).  Returns
    /// `true` if at least one task was transferred.
    fn help_steal_from(&mut self, victim: usize, req_level: usize, steal_level: usize) -> bool {
        let moved = self.transfer_steal(victim, req_level.saturating_sub(1), steal_level);
        if moved > 0 {
            self.me().counters.help_steals.inc();
            true
        } else {
            false
        }
    }

    /// The paper's `switchToCoordinator` (Algorithm 9): deregister from the
    /// old coordinator (if allowed) and register with the new one.  Returns
    /// `true` if the switch happened.
    fn switch_coordinator(&mut self, old: usize, new: usize) -> bool {
        let me = self.id;
        if old != me {
            match self.shared.workers[old]
                .reg
                .try_release(self.registered_counter[old])
            {
                ReleaseOutcome::Teamed => return false, // cannot drop out of a formed team
                ReleaseOutcome::Released | ReleaseOutcome::Revoked => {}
            }
            self.leave_coordinator();
        } else {
            // We were coordinating ourselves: revoke our registrants and stop
            // coordinating (Algorithm 9, lines 23–31).  A coordinator of a
            // *formed* team never abandons it (its members cannot leave
            // either), so refuse in that case.
            let myreg = self.me().reg.load();
            if myreg.teamed > 1 {
                return false;
            }
            // Register first, withdraw second.  If the winner's team filled
            // up between our poll and the CAS we are still this level's
            // coordinator, and our advertisement — with the threads already
            // registered on it — must stand.  Withdrawing first left a
            // failed switch coordinating on a word that reads r = 1, which
            // `is_complete` accepts: `coordinate_level` then "formed" a team
            // of one and published a task for members that did not exist,
            // whose start countdown nobody would ever drain (the ROADMAP
            // team-formation livelock).
            if !self.try_register_with(new) {
                return false;
            }
            self.me().reg.disband();
            // Revoked registrants may be parked polling our word.
            self.notify_team_range(me, myreg.required as usize);
            return true;
        }
        self.try_register_with(new)
    }

    /// Registers this worker at coordinator `cid` (one CAS, Algorithm 7
    /// lines 7–14).  On success the worker's coordinator pointer is updated.
    fn try_register_with(&mut self, cid: usize) -> bool {
        let me = self.id;
        debug_assert_ne!(cid, me);
        let c = &self.shared.workers[cid];
        // Record the publication sequence *before* registering so we never
        // run a task published before we joined (those teams were complete
        // without us).  Acquire: any publication whose team could include us
        // must have been written after our registration CAS (completeness
        // requires it), so it carries a strictly larger sequence.
        let mut seq0 = c.publish_seq.load(Ordering::Acquire);
        if seq0 % 2 == 1 {
            seq0 += 1;
        }
        let creg = c.reg.load();
        let required = creg.required as usize;
        if required <= 1 || creg.is_complete() || !self.topo().overlap(cid, me, required) {
            return false;
        }
        match c.reg.try_acquire(2) {
            AcquireOutcome::Registered(snapshot) => {
                self.registered_counter[cid] = snapshot.counter;
                self.last_seen_seq[cid] = self.last_seen_seq[cid].max(seq0);
                self.me().coordinator.store(cid, Ordering::Release);
                self.me().counters.registrations.inc();
                // The coordinator may be parked waiting for this very
                // acquisition (ours could complete the team).
                self.shared.sleep.notify_worker(cid);
                true
            }
            AcquireOutcome::Contended => {
                self.me().counters.cas_failures.inc();
                false
            }
            AcquireOutcome::NotNeeded(_) => false,
        }
    }

    // ------------------------------------------------------------------
    // Stealing (Algorithm 7)
    // ------------------------------------------------------------------

    /// One full steal round over the `log p` partners (Algorithm 7).  Returns
    /// `true` if the round produced something to do (a steal or a
    /// registration).
    fn steal_round(&mut self) -> bool {
        let levels = self.topo().num_steal_levels();
        if self.shared.steal_policy == StealPolicy::UniformRandom {
            // Classic randomized work-stealing (the Randfork baseline):
            // uniformly random victims, no team building.
            let attempts = levels.max(1);
            for _ in 0..attempts {
                let Some(victim) = self.partner_at(0) else {
                    return false;
                };
                let top = self.topo().num_queue_levels() - 1;
                if self.transfer_steal(victim, top, levels.max(1) - 1) > 0 {
                    self.me().counters.steals.inc();
                    return true;
                }
            }
            return false;
        }
        for level in 0..levels {
            let Some(x) = self.partner_at(level) else {
                continue;
            };
            // Team-building opportunity: does the partner's *coordinator*
            // need us for its task (Algorithm 7, line 6)?
            let xcid = self.shared.workers[x].coordinator.load(Ordering::Acquire);
            if xcid != self.id {
                let xcreg = self.shared.workers[xcid].reg.load();
                let r = xcreg.required as usize;
                if r > 1
                    && !xcreg.is_complete()
                    && self.topo().overlap(xcid, self.id, r)
                    && self.try_register_with(xcid)
                {
                    return true;
                }
            }
            // Otherwise steal from the partner.  Refinement 1 forbids
            // stealing tasks for whose team both of us would be required, so
            // only queues up to the partner's level are eligible; within
            // those, prefer the largest tasks (Section 4).
            if self.transfer_steal(x, level, level) > 0 {
                self.me().counters.steals.inc();
                return true;
            }
        }
        // Every partner came up empty: fall back to a full victim scan in
        // hierarchy-distance order (DESIGN.md §13's `sweep_order`, same bias
        // as the sharded-injector pops) — own-domain victims first, so the
        // load balancing of last resort still prefers cache- and
        // NUMA-adjacent queues over far ones.
        self.fallback_scan()
    }

    /// Topology-biased fallback victim scan: visits every other worker in
    /// `Domains::sweep_order` order (nearest domain first, rotating start
    /// within each domain so concurrent thieves fan out) and steals from the
    /// first victim with eligible work.  Refinement 1 still applies: only
    /// queues below the level at which the victim's group would include this
    /// worker are eligible.
    fn fallback_scan(&mut self) -> bool {
        let num_domains = self.shared.domains.num_domains();
        for pos in 0..num_domains {
            let dom = self.shared.domains.sweep_order(self.domain)[pos];
            let range = self.shared.domains.domain_range(dom);
            let len = range.len();
            let start = if len > 1 { self.rng.next_usize_below(len) } else { 0 };
            for i in 0..len {
                let victim = range.start + (start + i) % len;
                if victim == self.id {
                    continue;
                }
                // Highest queue level whose tasks cannot require both of us:
                // the victim's groups are nested and growing, so it is the
                // last level before the victim's group swallows this worker.
                let mut safe_top = 0;
                for l in 0..self.topo().num_queue_levels() {
                    if self.topo().group_range(victim, l).contains(&self.id) {
                        break;
                    }
                    safe_top = l;
                }
                if self.transfer_steal(victim, safe_top, safe_top) > 0 {
                    self.me().counters.steals.inc();
                    return true;
                }
            }
        }
        false
    }

    /// Transfers up to [`steal_amount`] tasks from `victim`'s queues (levels
    /// `0..=max_qlevel`, largest first) into our own queues, re-levelling
    /// each task for our own hierarchy position (Refinement 3).  Returns the
    /// number of tasks moved.
    fn transfer_steal(&mut self, victim: usize, max_qlevel: usize, amount_level: usize) -> usize {
        let me = self.id;
        if victim == me {
            return 0;
        }
        let vshared = &self.shared.workers[victim];
        let max_qlevel = max_qlevel.min(vshared.queues.len() - 1);
        // Occupancy hint: the victim sets a level's bit before pushing and
        // clears it only after observing emptiness, so a clear bit means
        // "empty" and the `top`/`bottom` loads of that deque can be skipped
        // entirely.  (A set bit is only a hint; `len` decides.)
        let occupancy = vshared.occupancy.load(Ordering::Relaxed);
        // The queue level the victim is advertising a team requirement for,
        // if any (its registration's `r` mapped onto its hierarchy position).
        let vreg = vshared.reg.load();
        let advertised_level = if vreg.required > 1 {
            Some(self.topo().level_for_requirement(victim, vreg.required as usize))
        } else {
            None
        };
        for qlevel in (0..=max_qlevel).rev() {
            if !bits::bit_is_set(occupancy, qlevel) {
                continue;
            }
            let vq = &vshared.queues[qlevel];
            let len = vq.len();
            if len == 0 {
                continue;
            }
            // Liveness (ROADMAP flake): never steal the *single* team task a
            // victim is actively building a team for.  Two hierarchy-partner
            // coordinators can otherwise steal the task back and forth
            // forever — each theft empties the other's queue mid-formation,
            // disbands its half-built team and revokes its registrants, so
            // no team ever forms (a stable livelock once queue operations
            // got cheap).  With two or more tasks queued the steal is
            // genuine load balancing and stays allowed.
            if qlevel >= 1 && len == 1 && advertised_level == Some(qlevel) {
                continue;
            }
            let want = steal_amount(len, amount_level);
            let mut moved = 0;
            let mut retries = 0;
            while moved < want {
                match vq.steal_top() {
                    Steal::Stolen(word) => {
                        let ptr = word as *mut TaskNode;
                        // SAFETY: the node is alive while it sits in a queue.
                        let req = unsafe { (*ptr).requirement };
                        let mylevel = self.topo().level_for_requirement(me, req);
                        self.shared.workers[me].push_task(mylevel, ptr);
                        moved += 1;
                        retries = 0;
                    }
                    Steal::Empty => break,
                    Steal::Retry => {
                        retries += 1;
                        if retries > 8 {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
            }
            if moved > 0 {
                self.me().counters.tasks_stolen.add(moved as u64);
                // Locality classification (same split the injector pops
                // report): did this steal stay inside the thief's own
                // hierarchy domain or cross to a remote one?
                if self.shared.domains.domain_of(victim) == self.domain {
                    self.me().counters.steals_local.inc();
                } else {
                    self.me().counters.steals_remote.inc();
                }
                if moved > 1 {
                    // Bulk steal: surplus tasks now sit in our queue — wake
                    // chain so another sleeper can share the load instead
                    // of waiting for us to spawn-into-empty again.  We may
                    // well be the searching worker ourselves, so tolerate
                    // our own searcher count in the gate.
                    self.shared.sleep.notify_work(self.searching);
                }
                if advertised_level == Some(qlevel) && vq.is_empty() {
                    // We drained the level the victim is advertising a team
                    // for: a coordinator parked in `coordinate_level` waits
                    // on exactly this queue becoming empty (its "nothing
                    // left, return" condition) and would otherwise only
                    // notice at the backstop.
                    self.shared.sleep.notify_worker(victim);
                }
                return moved;
            }
        }
        0
    }

    /// Pulls one externally injected root task into the local queue:
    /// this worker's own domain shard first, then the remaining shards in
    /// hierarchy-distance order (DESIGN.md §13).  Lock-free: idle workers
    /// polling empty shards never serialize.
    fn pop_injected(&mut self) -> bool {
        let order = self.shared.domains.sweep_order(self.domain);
        match self.shared.injector.pop_sweep(order) {
            Some((TaskPtr(ptr), pos)) => {
                let shard = order[pos];
                if pos == 0 {
                    self.me().counters.injector_local_pops.inc();
                } else {
                    self.me().counters.injector_remote_pops.inc();
                }
                // Stale-work expiry (DESIGN.md §17): a task whose deadline
                // passed (or whose token was cancelled) while it queued is
                // dropped here, before it costs a deque slot, a team or an
                // execution — the pop already made us its exclusive owner.
                if self.retire_if_stale(ptr) {
                    if self.shared.injector.shard_len(shard) > 0 {
                        self.shared.sleep.notify_work_near(
                            self.shared.domains.domain_range(shard),
                            self.searching,
                        );
                    }
                    return true;
                }
                // SAFETY: the node is alive while it sits in the injector.
                let req_max = unsafe { (*ptr).requirement };
                let req_min = unsafe { (*ptr).requirement_min };
                // Moldable choice (DESIGN.md §15): externally injected tasks
                // carry their ceiling; the popping worker picks the
                // effective size from current load.  The rewrite is safe —
                // we popped the node, so until the `push_task` below makes
                // it visible again we are its exclusive owner, and the
                // deque's release/acquire handoff publishes the new value
                // to any later thief.
                let req = self.effective_requirement(req_max, req_min);
                if req != req_max {
                    unsafe { (*ptr).requirement = req };
                }
                let level = self.topo().level_for_requirement(self.id, req);
                self.me().push_task(level, ptr);
                self.me().counters.tasks_injected.inc();
                if self.shared.injector.shard_len(shard) > 0 {
                    // Wake chain: the submit-side hint only wakes one worker
                    // per shard's empty→non-empty transition; each consumer
                    // passes the wake on while elements remain in the shard
                    // it popped, preferring a sleeper of that shard's own
                    // domain.  The caller is the searching worker that
                    // popped, so its own searcher count must not suppress
                    // the chain.
                    self.shared.sleep.notify_work_near(
                        self.shared.domains.domain_range(shard),
                        self.searching,
                    );
                }
                if req > 1 {
                    let group = self.topo().group_size(self.id, level);
                    self.me().reg.push_requirement(group as u16);
                    self.notify_team_range(self.id, group);
                }
                true
            }
            None => false,
        }
    }
}

/// How many tasks one successful steal transfers from a queue of
/// `victim_len` tasks reached at steal level `level` (Section 4, "Number of
/// tasks to steal"): `2^ℓ` — "if we reached the ℓth partner it is likely
/// that all threads in the 2^ℓ block around it are running out of tasks, so
/// steal enough for all of them" — but at least one and never more than half
/// of the victim's queue.
fn steal_amount(victim_len: usize, level: usize) -> usize {
    (victim_len / 2).max(1).min(1usize << level.min(20))
}

impl SpawnTarget for Worker {
    fn spawn_job_slot(
        &self,
        job: JobSlot,
        requirement: usize,
        requirement_min: usize,
        scope: &ScopeState,
    ) {
        scope.task_spawned(self.id);
        // Moldable choice (DESIGN.md §15): pick the effective team size for
        // this spawn from current load.  Fixed-requirement spawns
        // (`requirement_min == requirement`) pass through unchanged.
        let requirement = self.effective_requirement(requirement, requirement_min);
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
                requirement_min,
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
            assert!(
                self.shared.steal_policy != StealPolicy::UniformRandom,
                "team tasks (r > 1) require a hierarchical steal policy; \
                 StealPolicy::UniformRandom supports only sequential tasks"
            );
            let group = self.topo().group_size(self.id, level);
            me.reg.push_requirement(group as u16);
            // Team candidates may be parked (idle or polling a competing
            // coordinator); the advertisement must reach them.
            self.notify_team_range(self.id, group);
        }
    }

    fn worker_id(&self) -> usize {
        self.id
    }

    fn num_threads(&self) -> usize {
        self.shared.num_threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_amount_is_two_to_level_capped_at_half_the_victim() {
        // Victim with 16 tasks, thief at level 2.
        assert_eq!(steal_amount(16, 2), 4);
        // Tiny queues still yield one task.
        assert_eq!(steal_amount(1, 3), 1);
        // Half of the victim caps the 2^l rule.
        assert_eq!(steal_amount(8, 5), 4);
    }

    /// A coordinator that loses a conflict follows the winner — unless the
    /// winner's team filled up first.  It then still coordinates its own
    /// task, so its advertisement (and the registrations on it) must stand.
    #[test]
    fn failed_switch_keeps_the_advertisement() {
        let shared = SchedulerShared::new(&SchedulerConfig::with_threads(4));
        let mut loser = Worker::new(3, Arc::clone(&shared));
        let (winner_reg, loser_reg) = (&shared.workers[0].reg, &shared.workers[3].reg);
        // Worker 0 advertises r = 4 and has all of its threads already.
        winner_reg.push_requirement(4);
        for _ in 0..3 {
            assert!(matches!(winner_reg.try_acquire(2), AcquireOutcome::Registered(_)));
        }
        // Worker 3 advertises r = 4 too, with one registrant so far.
        loser_reg.push_requirement(4);
        assert!(matches!(loser_reg.try_acquire(2), AcquireOutcome::Registered(_)));
        let advertised = loser_reg.load();

        assert!(!loser.switch_coordinator(3, 0), "worker 0 needs nobody");
        assert_eq!(loser_reg.load(), advertised);
        assert_eq!(shared.workers[3].coordinator.load(Ordering::Relaxed), 3);

        // With a slot free at the winner the switch goes through and only
        // then withdraws the loser's advertisement.
        assert_eq!(winner_reg.try_release(winner_reg.load().counter), ReleaseOutcome::Released);
        assert!(loser.switch_coordinator(3, 0));
        assert_eq!(loser_reg.load().required, 1);
        assert_ne!(loser_reg.load().counter, advertised.counter, "registrants are revoked");
        assert_eq!(shared.workers[3].coordinator.load(Ordering::Relaxed), 0);
        assert!(winner_reg.load().is_complete());
    }
}
