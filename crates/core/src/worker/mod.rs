//! The worker loop: classic work-stealing generalized with deterministic
//! team-building (Algorithms 5–9 of the paper).
//!
//! Each worker owns one entry of the shared per-thread state array (the
//! paper's `ThreadRef[]`) and runs [`Worker::run_loop`].  The loop is a
//! faithful — but explicitly clarified — implementation of the paper's
//! modified `getTask` / `stealTasks` / `coordinateTask` / `pollPartners` /
//! `switchToCoordinator` procedures; every deliberate clarification or
//! deviation is marked with a `paper:` comment and summarized in DESIGN.md §5.
//!
//! One file per protocol, each the single implementation of the DESIGN.md
//! section its header names: `shared` (state, §11/§13), `park` (§12),
//! `publication` (§9), `coordinator` (Algorithm 6, §10, §15), `member`
//! (Algorithms 5, 8, 9), `steal` (Algorithm 7, §13), `run` (§9 scope
//! handle, §17); this file holds the run loop and the timing constants.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use teamsteal_topology::Topology;
use teamsteal_util::epoch::Participant;
use teamsteal_util::rng::{worker_rng, Xoshiro256};
use teamsteal_util::Backoff;

use crate::task::ScopeState;

mod coordinator;
mod member;
mod park;
mod publication;
mod run;
mod shared;
mod steal;

pub use shared::{enable_stall_debug, stall_report};
pub(crate) use shared::SchedulerShared;
use shared::{WorkerShared, INJECT_HOME};

/// Unproductive spin/yield rounds a blocking site burns before it commits to
/// an eventcount park (DESIGN.md §12): seven short spins, then yields — a few
/// microseconds in all.  The prefix keeps short contention windows — a steal
/// that will succeed on the next attempt, a countdown about to hit zero —
/// off the parking path entirely.  It is the whole prefix of an *idle* park;
/// a handshake park goes on yielding until [`HANDSHAKE_POLL`] has passed.
const PARK_SPIN_ROUNDS: u32 = 16;

/// How long a team-formation handshake — the coordinator after it announced,
/// a registrant or member waiting for the publication, the start countdown —
/// keeps polling by `yield_now` before it parks: about one wake-up
/// (35–60 µs on the reference host).  Whoever such a wait is for has just
/// been woken or is about to register, i.e. is at most one wake-up away; a
/// park committed sooner is one the partner must undo, a wake-up later
/// (DESIGN.md §12, "Cold entry").  A time, not a round count, because a
/// yield costs anything from 0.3 µs to a time slice; and a yield, not a
/// spin, because the partner may need this core.
const HANDSHAKE_POLL: Duration = Duration::from_micros(50);

/// Defensive upper bound on one eventcount park.  The parking protocol does
/// not rely on it (prepare → recheck → commit makes lost wakeups
/// impossible); it exists so that a *missed-notification bug* degrades into
/// bounded latency plus a visible `spurious_wakes` count instead of a
/// deadlock.  Parked workers cost one predicate re-check per expiry.
const PARK_BACKSTOP: Duration = Duration::from_millis(100);

/// How long a coordinator keeps a completed team *warm* — parked as a unit,
/// registration word intact — while it looks for a compatible next task
/// (DESIGN.md §15).  An upper bound on how long up to `r − 1` workers sit
/// parked instead of thieving, so it stays far below the resync backstops.
const WARM_KEEPALIVE: Duration = Duration::from_micros(200);

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

    #[inline]
    fn me(&self) -> &WorkerShared {
        &self.shared.workers[self.id]
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
            self.withdraw();
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
        self.withdraw();
        self.quit_search();
        self.leave_scope();
        self.participant.unpin();
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

    fn work_on_level(&mut self, level: usize) {
        let group = self.topo().group_range(self.id, level);
        if group.len() == 1 {
            // Degenerate case (r = 1): exactly classic work-stealing — no
            // registration CAS, no publication (paper, Section 3.1).  If we
            // still hold a larger team from earlier work, resize it away so
            // its members do not wait on us needlessly (Refinement 1: the
            // team is resized to work on a queue containing smaller tasks).
            if self.me().reg.load().teamed > 1 {
                self.withdraw();
            }
            if let Some(ptr) = self.me().pop_task(level) {
                self.run_singleton(ptr);
            }
        } else {
            self.coordinate_level(level);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::steal::steal_amount;
    use super::*;
    use crate::config::SchedulerConfig;
    use crate::task::{JobSlot, TaskNode, TeamJob};
    use teamsteal_registration::{AcquireOutcome, ReleaseOutcome};
    use teamsteal_util::eventcount::{ParkClass, WakeReason};

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

    /// One wake per change of the registration word: a repeated `announce`
    /// of the requirement already advertised notifies nobody.
    #[test]
    fn announce_wakes_only_when_the_word_changes() {
        let shared = SchedulerShared::new(&SchedulerConfig::with_threads(4));
        let coordinator = Worker::new(0, Arc::clone(&shared));
        let reg = &shared.workers[0].reg;
        // Somebody is committing to a park: notifications are free (and
        // leave the ticket alone) only while nobody sleeps.
        shared.sleep.prepare(ParkClass::Handshake);
        let ticket = || {
            let ticket = shared.sleep.prepare(ParkClass::Handshake);
            shared.sleep.cancel(ParkClass::Handshake);
            ticket
        };

        let idle = ticket();
        coordinator.announce(2);
        let first = ticket();
        assert_ne!(first, idle, "the first advertisement wakes its block");
        coordinator.announce(2);
        assert_eq!(ticket(), first, "the same requirement again changes nothing");
        // A registration in between changes `a`, not what is advertised.
        assert!(matches!(reg.try_acquire(2), AcquireOutcome::Registered(_)));
        coordinator.announce(2);
        assert_eq!(ticket(), first);

        coordinator.announce(4);
        let grown = ticket();
        assert_ne!(grown, first, "a larger requirement is news to the larger block");
        assert_eq!(reg.load().required, 4);
        coordinator.announce(2);
        assert_ne!(ticket(), grown, "a smaller one revokes registrants: they must hear of it");
        assert_eq!(reg.load().required, 2);
    }

    /// An injected team task wakes the idle sleepers of its block together,
    /// not one that wakes the next.
    #[test]
    fn injected_team_task_wakes_its_block() {
        let shared = SchedulerShared::new(&SchedulerConfig::with_threads(4));
        let parked: Vec<_> = (1..4)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    shared.sleep.start_search();
                    let ticket = shared.sleep.prepare(ParkClass::Idle);
                    shared.sleep.park(id, ticket, ParkClass::Idle, Duration::from_secs(30))
                })
            })
            .collect();
        while shared.sleep.sleepers() < 3 {
            std::thread::yield_now();
        }

        let scope = ScopeState::new(5);
        let job = JobSlot::new(TeamJob::new(4, |_| {}));
        shared.inject(TaskNode::allocate_boxed(job, 4, &scope));
        for sleeper in parked {
            // A sleeper still committing to its park leaves on the ticket.
            assert_ne!(sleeper.join().unwrap(), WakeReason::Backstop, "one inject wakes all three");
        }
        assert_eq!((shared.sleep.sleepers(), shared.sleep.searchers()), (0, 3));

        shared.drain_leftovers();
        assert_eq!(scope.pending(), 0);
    }

    /// The audit behind DESIGN.md §12's `try_release` row: a member that
    /// switches away lowers the old coordinator's `a` and wakes nobody.  An
    /// advertisement reads complete only when every other worker of its
    /// block is registered with it, so after the release the one worker of
    /// the block that could register again is the releaser itself — which is
    /// running.  No candidate can be asleep at that point.
    #[test]
    fn a_released_slot_has_no_sleeping_candidate() {
        let shared = SchedulerShared::new(&SchedulerConfig::with_threads(4));
        let old = &shared.workers[0].reg;
        old.push_requirement(4);
        let mut members: Vec<Worker> = (1..4)
            .map(|id| Worker::new(id, Arc::clone(&shared)))
            .collect();
        for member in &mut members {
            assert!(!old.load().is_complete());
            assert!(member.try_register_with(0));
        }
        assert!(old.load().is_complete());
        let unregistered = || -> Vec<usize> {
            (1..4)
                .filter(|&w| shared.workers[w].coordinator.load(Ordering::Relaxed) != 0)
                .collect()
        };
        assert!(unregistered().is_empty(), "complete means the whole block is registered");

        // Worker 2 advertises a smaller (winning) requirement that needs
        // worker 3, which follows it.
        shared.workers[2].reg.push_requirement(2);
        let switcher = &mut members[2];
        assert_eq!(switcher.id, 3);
        assert!(switcher.switch_coordinator(0, 2));
        assert!(!old.load().is_complete(), "the old advertisement needs a thread again");
        assert_eq!(unregistered(), vec![3], "and only the (running) releaser could give it one");
    }
}
