//! The sleep controller: worker-count bookkeeping on top of the
//! [`eventcount`](teamsteal_util::eventcount), so notifications are free
//! when nobody sleeps (DESIGN.md §12).
//!
//! The eventcount makes parking *correct*; this module makes waking
//! *cheap and targeted*.  It tracks how many workers are **sleeping**
//! (parked on the eventcount) and how many are **searching** (running steal
//! rounds with empty local queues) in one packed atomic, Rayon-style:
//!
//! * A producer with new anonymous work ([`SleepController::notify_work`])
//!   loads the packed word once.  No sleepers ⇒ nothing to do.  A searcher
//!   already active ⇒ also nothing to do — the searcher will find the work,
//!   and waking a second worker would only add contention.  Only the
//!   "sleepers, but no searcher" state pays for an actual wake.
//! * An injected task that needs a team
//!   ([`SleepController::notify_team_work`]) passes the same gate and then
//!   wakes every idle sleeper of its block at once instead of one.
//! * Team handshake events (registration, publication, disband, countdown)
//!   always notify their **specific** target worker(s) — these paths are
//!   cold and a missed wake there costs milliseconds, so they never gate on
//!   the counts.
//!
//! The sleeping count is incremented *before* the eventcount's
//! `prepare_wait` (one `SeqCst` RMW) and a producer reads it *after* a
//! `SeqCst` fence that follows its work publication, closing the classic
//! Dekker race: either the producer observes the would-be sleeper (and
//! issues the wake), or the sleeper's recheck observes the work (and does
//! not park).  The full ordering argument lives in DESIGN.md §12.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Duration;

use teamsteal_util::eventcount::{EventCount, ParkClass, WakeReason};
use teamsteal_util::CachePadded;

/// One sleeping worker in the packed state word.
const SLEEPING_ONE: u64 = 1;
/// One searching worker in the packed state word.
const SEARCHING_ONE: u64 = 1 << 32;

#[inline]
fn sleeping(state: u64) -> u64 {
    state & 0xffff_ffff
}

#[inline]
fn searching(state: u64) -> u64 {
    state >> 32
}

/// Sleep/search bookkeeping plus the eventcount all workers park on.
pub(crate) struct SleepController {
    ec: EventCount,
    /// Packed `searching << 32 | sleeping` worker counts.  Both fields are
    /// bounded by the worker count, so the fields can never carry into each
    /// other.
    state: CachePadded<AtomicU64>,
}

impl SleepController {
    pub(crate) fn new(workers: usize) -> SleepController {
        SleepController {
            ec: EventCount::new(workers),
            state: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Number of workers currently parked (diagnostics).
    pub(crate) fn sleepers(&self) -> u64 {
        sleeping(self.state.load(Ordering::Relaxed))
    }

    /// Number of workers currently in a steal round (diagnostics).
    pub(crate) fn searchers(&self) -> u64 {
        searching(self.state.load(Ordering::Relaxed))
    }

    /// A worker enters the searching state (local queues empty, about to
    /// run steal rounds).
    pub(crate) fn start_search(&self) {
        self.state.fetch_add(SEARCHING_ONE, Ordering::SeqCst);
    }

    /// A worker leaves the searching state without parking (it found work
    /// or switched to a coordination path).
    pub(crate) fn end_search(&self) {
        self.state.fetch_sub(SEARCHING_ONE, Ordering::SeqCst);
    }

    /// `true` when at most this worker is searching — the "last searcher"
    /// about to park should stay awake a little longer if work hints are
    /// visible, so steal throughput does not collapse to wake latency.
    pub(crate) fn is_last_searcher(&self) -> bool {
        searching(self.state.load(Ordering::Relaxed)) <= 1
    }

    /// What a park of `class` adds to the packed word while it lasts: an
    /// **idle** parker was a searcher and is one again on exit (it re-enters
    /// its steal loop); a **handshake** parker (member poll, coordinator
    /// wait, start countdown) becomes a sleeper without having searched.
    fn sleeper_delta(class: ParkClass) -> u64 {
        match class {
            ParkClass::Idle => SLEEPING_ONE.wrapping_sub(SEARCHING_ONE),
            ParkClass::Handshake => SLEEPING_ONE,
        }
    }

    /// Step 1 of a park: the worker becomes a sleeper (one RMW) and reads
    /// the eventcount ticket.  The caller (`Worker::park_unless`) re-checks
    /// its wait condition before [`park`](Self::park) and calls
    /// [`cancel`](Self::cancel) if the recheck fires.
    pub(crate) fn prepare(&self, class: ParkClass) -> u64 {
        self.state
            .fetch_add(Self::sleeper_delta(class), Ordering::SeqCst);
        self.ec.prepare_wait()
    }

    /// Aborts a prepared park (the recheck found something to do).
    pub(crate) fn cancel(&self, class: ParkClass) {
        self.state
            .fetch_sub(Self::sleeper_delta(class), Ordering::SeqCst);
    }

    /// Step 3 of a park: block until a notification `class` accepts (or the
    /// backstop), then leave the sleeping state.
    pub(crate) fn park(
        &self,
        slot: usize,
        ticket: u64,
        class: ParkClass,
        backstop: Duration,
    ) -> WakeReason {
        let reason = self.ec.park(slot, ticket, class, backstop);
        self.cancel(class);
        reason
    }

    /// The gate of every anonymous wake: somebody sleeps, and no searcher
    /// (other than the caller, when `from_searcher`) is already scanning for
    /// exactly this work.  The fence orders the caller's work publication
    /// before the count load, pairing with the RMW+fence in `prepare`
    /// (module docs).
    fn wake_wanted(&self, from_searcher: bool) -> bool {
        fence(Ordering::SeqCst);
        let state = self.state.load(Ordering::Relaxed);
        sleeping(state) > 0 && searching(state) <= u64::from(from_searcher)
    }

    /// New anonymous work became visible (a spawn into an empty queue, an
    /// injector push, a bulk steal leaving surplus).  Wakes one idle sleeper
    /// unless nobody sleeps or a searcher is already scanning for exactly
    /// this work.  `from_searcher` must be `true` when the **caller itself**
    /// is counted as searching (the wake chains in the idle loop), so its
    /// own count does not suppress the wake it is trying to send.  Returns
    /// `true` if a sleeper was claimed.
    pub(crate) fn notify_work(&self, from_searcher: bool) -> bool {
        self.wake_wanted(from_searcher) && self.ec.notify_one_idle()
    }

    /// The locality-aware variant of [`notify_work`](Self::notify_work):
    /// same gate, but a wake that does fire prefers a sleeper whose slot
    /// lies in `near` — the worker range of the domain the work was pushed
    /// into — before falling back to the global rotating scan (DESIGN.md
    /// §13).  Like the anonymous wake it claims only *idle* parkers, so a
    /// handshake park can never swallow it.
    pub(crate) fn notify_work_near(
        &self,
        near: std::ops::Range<usize>,
        from_searcher: bool,
    ) -> bool {
        self.wake_wanted(from_searcher) && self.ec.notify_one_idle_in(near)
    }

    /// New work that needs a whole team became visible from outside the
    /// pool (an injected `r > 1` task): wakes every idle sleeper of `block`
    /// — the workers that will form the team — with one ticket bump, or one
    /// idle sleeper elsewhere when the block has none.  Same gate as
    /// [`notify_work`](Self::notify_work): a searcher finds the task in
    /// microseconds and its `announce` wakes the block.  Returns the number
    /// of sleepers claimed.
    pub(crate) fn notify_team_work(&self, block: std::ops::Range<usize>) -> usize {
        if self.wake_wanted(false) {
            self.ec.notify_idle_block(block)
        } else {
            0
        }
    }

    /// `true` when any worker is parked, with the `SeqCst` fence that makes
    /// the answer reliable against a concurrent `prepare` (module docs):
    /// a `false` guarantees every not-yet-parked worker's recheck will see
    /// the caller's preceding state change.
    fn any_sleeper(&self) -> bool {
        fence(Ordering::SeqCst);
        sleeping(self.state.load(Ordering::Relaxed)) > 0
    }

    /// Targeted wake of one worker (handshake events).  Free when nobody is
    /// parked; otherwise bumps the eventcount ticket (so a target
    /// mid-commit can never sleep through the event) and claims the
    /// target's slot if parked.  Returns `true` if the target was claimed.
    pub(crate) fn notify_worker(&self, worker: usize) -> bool {
        if !self.any_sleeper() {
            return false;
        }
        self.ec.notify_slot(worker)
    }

    /// Targeted wake of a worker range minus the caller (team announcements,
    /// publications, disbands).  Free when nobody is parked; otherwise one
    /// ticket bump for the whole batch.
    pub(crate) fn notify_workers(
        &self,
        workers: impl IntoIterator<Item = usize>,
        except: usize,
    ) -> usize {
        if !self.any_sleeper() {
            return 0;
        }
        self.ec
            .notify_slots(workers.into_iter().filter(|&w| w != except))
    }

    /// Wakes every parked worker (shutdown, stall resync).
    pub(crate) fn notify_all(&self) -> usize {
        self.ec.notify_all()
    }
}

impl std::fmt::Debug for SleepController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SleepController")
            .field("sleepers", &self.sleepers())
            .field("searchers", &self.searchers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_track_transitions() {
        let s = SleepController::new(2);
        assert_eq!((s.sleepers(), s.searchers()), (0, 0));
        s.start_search();
        assert_eq!((s.sleepers(), s.searchers()), (0, 1));
        assert!(s.is_last_searcher());
        let t = s.prepare(ParkClass::Idle);
        assert_eq!((s.sleepers(), s.searchers()), (1, 0));
        s.cancel(ParkClass::Idle);
        assert_eq!((s.sleepers(), s.searchers()), (0, 1));
        s.end_search();
        assert_eq!((s.sleepers(), s.searchers()), (0, 0));
        let _ = t;
    }

    #[test]
    fn notify_work_is_gated_on_the_counts() {
        let s = SleepController::new(2);
        // Nobody sleeping: nothing to wake.
        assert!(!s.notify_work(false));
        // A searcher is active: the work will be found without a wake.
        s.start_search();
        let _t = s.prepare(ParkClass::Handshake); // one sleeper
        assert_eq!((s.sleepers(), s.searchers()), (1, 1));
        assert!(!s.notify_work(false));
        // …unless the searcher is the *caller* chaining a wake: its own
        // count must not suppress the notification (the scan still claims
        // nobody here, because the only sleeper is a handshake park).
        let _ = s.notify_work(true);
        assert_eq!((s.sleepers(), s.searchers()), (1, 1));
        s.cancel(ParkClass::Handshake);
        s.end_search();
    }

    #[test]
    fn handshake_prepare_cancel_balances() {
        for class in [ParkClass::Handshake, ParkClass::Idle] {
            let s = SleepController::new(1);
            s.start_search();
            let _t = s.prepare(class);
            assert_eq!(s.sleepers(), 1, "{class:?}");
            s.cancel(class);
            assert_eq!((s.sleepers(), s.searchers()), (0, 1), "{class:?}");
        }
    }

    #[test]
    fn notify_workers_skips_the_sender() {
        let s = SleepController::new(4);
        // No one parked: zero claims either way, but the call must not wake
        // or count the sender's own slot.
        assert_eq!(s.notify_workers(0..4, 2), 0);
    }
}
