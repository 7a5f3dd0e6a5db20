//! The worker's side of parking (DESIGN.md §12; the eventcount's half is
//! `teamsteal_util::eventcount`, the sleeper/searcher counts' `crate::sleep`).
//! [`Worker::park_unless`] is the only caller of the sleep controller's
//! prepare / cancel / park, so every blocking site — idle, coordinator wait,
//! start countdown, member poll — announces itself as a sleeper *before* it
//! rechecks its wait condition (§12 rows A/B) by construction.

use std::sync::atomic::Ordering;

use teamsteal_util::eventcount::{ParkClass, WakeReason};
use teamsteal_util::Backoff;

use super::{Worker, HANDSHAKE_POLL, LAST_SEARCHER_EXTRA_ROUNDS, PARK_BACKSTOP, PARK_SPIN_ROUNDS};

impl Worker {
    /// One spin/yield round of a blocking site's pre-park prefix, with the
    /// epoch pin released around the (potentially descheduling) yield so a
    /// preempted worker never blocks the global epoch.  A spin round ends
    /// early once `ready` holds (`Backoff::spin_light`); because it runs
    /// unpinned, `ready` may read only top-level atomics.  The caller's next
    /// protected access happens after the repin (a fresh quiescent point).
    pub(super) fn unpinned_spin(&self, backoff: &mut Backoff, ready: impl Fn(&Self) -> bool) {
        self.participant.unpin();
        backoff.spin_light(|| ready(self));
        self.participant.pin();
    }

    /// One blocking round of a wait site: a spin/yield round while
    /// `backoff`'s prefix lasts — [`PARK_SPIN_ROUNDS`] rounds, and for a
    /// handshake also the first [`HANDSHAKE_POLL`] of the streak, because
    /// what it waits for is a partner already on its way — then the park
    /// protocol (prepare → recheck → commit, DESIGN.md §12): block on this
    /// worker's eventcount slot unless the scheduler is shutting down or
    /// `recheck`, the caller's full wait condition, finds something to do.
    /// The recheck runs *after* the prepare announced this worker as a
    /// sleeper, so a producer that publishes after it is guaranteed to
    /// observe a sleeper and wake it (§12 rows A/B); anything published
    /// before is seen by the recheck itself.  A cancelled park and a wake
    /// each count one backoff round, so streak time and the stall reports
    /// keep working.
    pub(super) fn park_unless(
        &mut self,
        class: ParkClass,
        backoff: &mut Backoff,
        recheck: impl FnOnce(&mut Self) -> bool,
    ) {
        if !backoff.should_park(PARK_SPIN_ROUNDS)
            || (class == ParkClass::Handshake && backoff.unproductive_for() < HANDSHAKE_POLL)
        {
            self.unpinned_spin(backoff, |_| false);
            return;
        }
        let ticket = self.shared.sleep.prepare(class);
        if self.shared.shutdown.load(Ordering::Acquire) || recheck(self) {
            self.shared.sleep.cancel(class);
        } else {
            // Never sleep holding a scope: our last finish may have completed
            // it, and the handle keeps its state alive.
            self.leave_scope();
            self.me().counters.parks.inc();
            // Unpinned around the block (DESIGN.md §11).
            self.participant.unpin();
            let reason = self
                .shared
                .sleep
                .park(self.id, ticket, class, PARK_BACKSTOP);
            self.participant.pin();
            self.record_wake(reason);
        }
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

    /// Announces this worker as searching (about to run steal rounds) to the
    /// sleep controller, once per idle episode.
    pub(super) fn enter_search(&mut self) {
        if !self.searching {
            self.searching = true;
            self.shared.sleep.start_search();
        }
    }

    /// Withdraws the searching announcement (work found, coordination path
    /// entered, or shutdown).
    pub(super) fn quit_search(&mut self) {
        if self.searching {
            self.searching = false;
            self.shared.sleep.end_search();
            self.last_searcher_rounds = 0;
        }
    }

    /// One idle blocking round: spin/yield prefix, bounded last-searcher
    /// stay-awake, then the eventcount park protocol
    /// (prepare → recheck → commit) of DESIGN.md §12.
    pub(super) fn idle_park(&mut self, idle: &mut Backoff) {
        debug_assert!(self.searching);
        // The prefix's spin rounds end once the injector is non-empty:
        // submitted tasks arrive there, and the poll's cost does not grow
        // with the number of workers the way `work_hints_visible` does.
        if !idle.should_park(PARK_SPIN_ROUNDS) {
            self.unpinned_spin(idle, |w| !w.shared.injector.is_empty());
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
            self.unpinned_spin(idle, |_| false);
            return;
        }
        self.park_unless(ParkClass::Idle, idle, |w| w.work_hints_visible());
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
            if required > 1 && !reg.is_complete() && self.topo().overlap(other, self.id, required) {
                return true;
            }
        }
        false
    }
}
