//! State shared between the workers of one scheduler: the per-worker entry
//! of the paper's `ThreadRef[]` array ([`WorkerShared`]), the borrowed epoch
//! pins of external submitters ([`ExternalPins`], DESIGN.md §11), the
//! scheduler-wide [`SchedulerShared`] with external injection and the
//! drop-time drain (DESIGN.md §13), and the stall dump every wait site and
//! watchdog prints.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use teamsteal_deque::{RawDeque, ShardedInjector};
use teamsteal_registration::AtomicRegistration;
use teamsteal_topology::{Domains, StealPolicy, Topology};
use teamsteal_util::epoch::{Domain, Participant};
use teamsteal_util::slab::Slab;
use teamsteal_util::{bits, Backoff, CachePadded};

use super::publication::Publication;
use super::Worker;
use crate::cancel::CancelCell;
use crate::metrics::WorkerCounters;
use crate::sleep::SleepController;
use crate::task::{JobSlot, ScopeState, TaskNode, TaskPtr};
use crate::SchedulerBuilder;

/// The switch for the stall-state dumps.  See [`enable_stall_debug`].
static STALL_DEBUG: AtomicBool = AtomicBool::new(false);

/// Turns on the scheduler's periodic stall-state dumps.  Intended for test
/// watchdogs that have detected a hang and want the workers to report their
/// state before the process is aborted.  There is deliberately no way to
/// turn the dumps off again: by the time this is called, the process is
/// already doomed to debugging.
pub fn enable_stall_debug() {
    STALL_DEBUG.store(true, Ordering::Release);
}

/// Process-wide registry of live schedulers, so a watchdog that detected a
/// hang can dump their state without holding a `Scheduler` handle.  Entries
/// are weak; dead ones are pruned on every touch.
static SCHEDULERS: Mutex<Vec<Weak<SchedulerShared>>> = Mutex::new(Vec::new());

/// One state line per scheduler currently alive in this process: every
/// worker's registration word, coordinator, start countdown and queue
/// lengths, plus the injection queue's lengths.
///
/// This is the same code path as the workers' periodic stall self-reports
/// (`debug_state_line`), so a watchdog dump and a worker's self-report can
/// be compared line-for-line.  Lock-free with respect to the schedulers
/// themselves and safe to call while they are running (or wedged).
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
    /// The team task this worker published as a coordinator (`c.task` in
    /// the paper) and its start countdown `G`.
    pub(crate) publication: Publication,
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
            publication: Publication::default(),
            counters: WorkerCounters::default(),
        }
    }

    /// Pushes a task onto queue `level`.  **Owner only** (deque contract).
    pub(super) fn push_task(&self, level: usize, ptr: *mut TaskNode) {
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
    pub(super) fn pop_task(&self, level: usize) -> Option<*mut TaskNode> {
        self.queues[level]
            .pop_bottom()
            .map(|word| word as *mut TaskNode)
    }

    /// Returns the index of the lowest non-empty queue, if any, using the
    /// occupancy bitmask instead of scanning every deque.  **Owner only**:
    /// stale-set bits (queues drained by thieves) are healed here, and only
    /// the owner may clear bits — after it observed emptiness nobody but the
    /// owner itself could have refilled the queue.
    pub(super) fn lowest_nonempty_level(&self) -> Option<usize> {
        let mut mask = self.occupancy.load(Ordering::Relaxed);
        while let Some(level) = bits::lowest_set(mask) {
            if !self.queues[level].is_empty() {
                return Some(level);
            }
            self.occupancy
                .fetch_and(!(1usize << level), Ordering::Relaxed);
            mask = bits::clear_bit(mask, level);
        }
        None
    }
}

/// Number of slots in every scheduler's [`ExternalPins`] pool.  More
/// threads than this in the middle of an injection at the same moment wait
/// for a slot, and each such episode is counted in `external_pin_waits`:
/// the signal to raise the constant (DESIGN.md §13).
pub(crate) const EXTERNAL_PARTICIPANTS: usize = 32;

/// The largest nominal group size of an injection-shard domain: the
/// injector has one shard per group of the largest hierarchy level whose
/// groups hold at most this many workers, so machines with `p ≤ 8` keep a
/// single shard (DESIGN.md §13).
const DOMAIN_WIDTH: usize = 8;

/// The seed every scheduler's per-worker PRNGs derive their streams from
/// (`worker_rng`), so a given `p` gets the same streams in every run.
pub(super) const WORKER_SEED: u64 = 0x7465616d_73746561; // "teamstea(l)"

/// A fixed pool of [`EXTERNAL_PARTICIPANTS`] pre-registered epoch
/// participants that threads outside the worker pool borrow around each
/// injector access (`Scheduler::scope` submitters, drop-time draining).
/// More simultaneous submitters than slots wait for a free slot, spinning
/// and then yielding, and are counted in `external_pin_waits`.  The wait is
/// short because every claim is released after one queue operation, and a
/// yield gives the CPU to a holder that was preempted.
///
/// Workers own their participant for the whole thread lifetime; external
/// submitters are arbitrary short-lived threads, so they claim a slot with
/// one CAS, pin, touch the queue, unpin and release — keeping the injection
/// path lock-free (a claimed slot is exclusive, so the `UnsafeCell` access
/// is data-race free).
///
/// Each slot also owns a task-node arena, the external counterpart of a
/// worker's `node_pool` (DESIGN.md §8).  Whoever holds a slot's claim is
/// that arena's one allocator: the `busy` CAS (Acquire) and the release
/// store (Release) hand the owner role from one claimant to the next, so a
/// submission allocates its node from the slot it already claims to push
/// it, and workers free the node onto the arena's remote list.
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
    /// Arena of the nodes this slot's claimants submit: `alloc` only under
    /// the claim, `free` from any thread.
    node_pool: Slab<TaskNode>,
}

// SAFETY: `participant` and the owner side of `node_pool` are only touched
// between a successful `busy` CAS (Acquire) and the matching Release store,
// which serializes all access.
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
                            epoch
                                .register()
                                .expect("domain sized for the external pool"),
                        ),
                        node_pool: Slab::new(),
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

    /// Runs `f` pinned to a borrowed external participant.  `f` receives
    /// the claimed slot's node arena, whose only allocator it is until it
    /// returns.
    pub(crate) fn with_pinned<R>(&self, f: impl FnOnce(&Slab<TaskNode>) -> R) -> R {
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
                let result = f(&slot.node_pool);
                drop(guard);
                return result;
            }
            // All slots claimed: more threads are mid-injection right now
            // than the pool has slots.  Spin, then yield, and rescan — a
            // slot frees after one queue operation, and a yield lets a
            // preempted holder finish it.  Count the episode so saturation
            // is observable.
            if !waited {
                waited = true;
                self.pin_waits.fetch_add(1, Ordering::Relaxed);
            }
            backoff.spin_light(|| false);
        }
    }
}

thread_local! {
    /// This thread's injection-affinity key (see
    /// `SchedulerShared::inject_home`).  `None` until first use; worker
    /// threads set it eagerly in `run_loop`.
    pub(super) static INJECT_HOME: std::cell::Cell<Option<usize>> =
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
    /// `Scheduler::scope` waits that ended on the countdown's timed
    /// backstop instead of a signal (`Scheduler::scope_backstops`).
    pub(crate) scope_backstops: AtomicU64,
}

impl SchedulerShared {
    pub(crate) fn new(builder: &SchedulerBuilder) -> Arc<Self> {
        let topology = Topology::balanced(builder.num_threads);
        let p = topology.num_threads();
        let queue_levels = topology.num_queue_levels();
        let domains = Domains::new(&topology, DOMAIN_WIDTH);
        let epoch = Domain::new(p + EXTERNAL_PARTICIPANTS);
        let external_pins = ExternalPins::new(&epoch, EXTERNAL_PARTICIPANTS);
        let shared = Arc::new(SchedulerShared {
            workers: (0..p)
                .map(|id| CachePadded::new(WorkerShared::new(id, queue_levels, &epoch)))
                .collect(),
            topology,
            steal_policy: builder.steal_policy,
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
            scope_backstops: AtomicU64::new(0),
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
    /// per-shard lengths.  Lock-free; shared by the workers' stall
    /// self-reports and [`stall_report`].
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
                w.publication.pending_pickups(),
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

    /// Injects a root task from outside the worker pool; the caller has
    /// counted it in `scope`.  Lock-free: one CAS to borrow an external
    /// epoch pin, whose slot's arena gives the node; one `fetch_add` plus a
    /// release store in the affinity shard; one release store to return the
    /// pin — then a wake for whoever will run it, so external submissions
    /// reach an idle scheduler in one wake-up instead of a sleep-poll
    /// interval.
    pub(crate) fn inject(
        &self,
        scope: *const ScopeState,
        job: JobSlot,
        requirement: usize,
        cancel: Option<Arc<CancelCell>>,
        deadline: Option<Instant>,
    ) {
        let shard = self.inject_home();
        let observed_empty = self.external_pins.with_pinned(|pool| {
            // SAFETY: the claim makes this thread the pool's only allocator,
            // and the pool lives in `self`, which outlives every node.
            let (ptr, _) = unsafe { TaskNode::alloc_in(pool, job, requirement, scope) };
            // SAFETY: until the push this thread is the node's exclusive
            // owner; the injector's release/acquire handoff publishes the
            // fields to the popping worker.
            unsafe {
                (*ptr).cancel = cancel;
                (*ptr).deadline = deadline;
            }
            self.injector.push_to(shard, TaskPtr(ptr))
        });
        // Wake hint: a push that observed other elements in flight on this
        // shard needs no wake — the transition push that made the shard
        // non-empty already issued one (workers never park while any shard
        // is visibly non-empty, and the consumer of each injected task
        // chains a wake while elements remain in the shard it popped), so
        // skipping here only merges redundant notifications, never loses
        // one.
        if !observed_empty {
            return;
        }
        let domain = self.domains.domain_range(shard);
        if requirement > 1 {
            // A team task needs its whole block awake: wake the block's idle
            // sleepers together, not one worker whose `announce` wakes the
            // next a wake-up later (DESIGN.md §12, "Cold entry").  Whichever
            // of them pops the task coordinates; were all of them busy, any
            // idle sleeper does and its `announce` recruits from there.
            let block = self.topology.team_for(domain.start, requirement);
            self.sleep.notify_team_work(block);
        } else {
            // One sleeper is enough, preferably one of the shard's own
            // domain before the global rotating scan (DESIGN.md §13).
            self.sleep.notify_work_near(domain, false);
        }
    }

    /// Frees any task nodes still sitting in queues or the injector.  Called
    /// by the scheduler after all workers have exited (only relevant when a
    /// [`ConcurrentScope`](crate::ConcurrentScope) still had tasks queued at
    /// shutdown; `Scheduler::scope` borrows the scheduler until it drained).
    pub(crate) fn drain_leftovers(&self) {
        let mut leftovers: Vec<TaskPtr> = Vec::new();
        self.external_pins.with_pinned(|_| {
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
            // SAFETY: as above — we are the node's last holder, and no
            // arena is ours: the node goes on its home's remote list.
            unsafe { TaskNode::release(ptr, None) };
            scope.task_finished(scope.external_shard());
            scope.signal_if_complete();
        }
    }
}

impl Worker {
    /// `true` once [`enable_stall_debug`] was called: long-running waits
    /// then print a one-line state dump of every worker at spaced
    /// intervals, which is the intended way to diagnose a scheduler that
    /// appears to make no progress.
    fn stall_debug_enabled() -> bool {
        STALL_DEBUG.load(Ordering::Acquire)
    }

    /// Prints the scheduler-wide state when a wait site has been
    /// unproductive for over a second, rate-limited to every 16th round so
    /// backstop-paced wakes (~10/s) keep dumping while a hang persists —
    /// including when the debug switch is flipped on *after* the hang
    /// started (the test watchdog does exactly that).  Only active when
    /// stall debugging is enabled; the diagnostic path takes no locks.
    pub(super) fn stall_report(&self, site: &str, backoff: &Backoff) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two claimants hold both slots of a two-slot pool until a third has
    /// found it exhausted; then they release and the third gets through.
    /// No slot is ever held twice, and the third claimant's episode is
    /// counted once however often it rescans.
    #[test]
    fn exhausted_pool_counts_one_wait_and_admits_the_next_claimant() {
        let pins = ExternalPins::new(&Domain::new(2), 2);
        let held = [AtomicBool::new(false), AtomicBool::new(false)];
        let double_claims = AtomicUsize::new(0);
        let holders_inside = AtomicUsize::new(0);
        let claim = |hold: bool| {
            pins.with_pinned(|pool| {
                let slot = (0..2)
                    .find(|&i| std::ptr::eq(pool, &pins.slots[i].node_pool))
                    .expect("the arena of a pool slot");
                if held[slot].swap(true, Ordering::AcqRel) {
                    double_claims.fetch_add(1, Ordering::Relaxed);
                }
                if hold {
                    holders_inside.fetch_add(1, Ordering::AcqRel);
                    while pins.pin_waits() == 0 {
                        std::thread::yield_now();
                    }
                }
                held[slot].store(false, Ordering::Release);
            })
        };
        std::thread::scope(|threads| {
            threads.spawn(|| claim(true));
            threads.spawn(|| claim(true));
            while holders_inside.load(Ordering::Acquire) < 2 {
                std::thread::yield_now();
            }
            claim(false);
        });
        assert_eq!(
            double_claims.load(Ordering::Relaxed),
            0,
            "a slot was held twice"
        );
        assert_eq!(pins.pin_waits(), 1, "one exhaustion episode, counted once");
    }
}
