//! Cooperative cancellation: the lock-free claim-to-run cell
//! (DESIGN.md §17).
//!
//! A [`CancelCell`] is the decided-race arbiter between "this task runs"
//! and "this task is dropped without running".  Its outcome is a
//! four-state machine over one atomic word:
//!
//! ```text
//!            cancel()                try_claim()
//! Pending ─────────────▶ Cancelled   Pending ─────────────▶ Claimed
//!
//!            expire()
//! Pending ─────────────▶ Expired
//! ```
//!
//! All three transitions are single CASes out of `Pending`, and every
//! non-`Pending` state is terminal, so exactly one of them ever wins: a
//! task either executes (its runner won the claim CAS) or is dropped
//! (a canceller or the owner's deadline check won, or the runner
//! observed the settled cell and retired the node), never both and never
//! neither.  Keeping `Cancelled` and `Expired` distinct keeps the
//! observers honest: `is_cancelled()` is true only when a `cancel()`
//! call actually won the race, never when a deadline lapsed.  The
//! exhaustive interleaving proof lives in
//! `crates/model/tests/cancel_model.rs`, which is why the cell's atomic
//! comes from the `teamsteal_util::sync` shim rather than `std` directly.
//!
//! A fifth fact rides in the same word: the **FINISHED** bit, set once by
//! the node's releaser after the job — and everything it captured — has
//! been dropped, whichever way the task retired (ran, panicked, cancelled,
//! expired, or drained at scheduler shutdown).  The outcome reads mask it;
//! the CASes compare against the bare `Pending` value, so a cell that
//! finished while still `Pending` (a task the shutdown drain dropped
//! unclaimed) can no longer be cancelled, claimed or expired.
//!
//! Deadlines deliberately do **not** live in the cell: a task's deadline
//! is plain immutable data on the `TaskNode`, checked by whichever worker
//! exclusively owns the node at pop/claim time (node ownership transfers
//! linearly through the deques, so no two threads ever race on the
//! deadline check).  Only *external* cancellation — a caller thread
//! racing the executing worker — needs the CAS; the expiry path merely
//! settles the cell to `Expired` so a late `cancel()` or `is_expired`
//! observer sees a coherent terminal state.

use teamsteal_util::sync::atomic::{AtomicU32, Ordering};

const PENDING: u32 = 0;
const CANCELLED: u32 = 1;
const CLAIMED: u32 = 2;
const EXPIRED: u32 = 3;
/// Set by the releaser once the job's captures have dropped; never part
/// of an outcome comparison (see the module docs).
const FINISHED: u32 = 1 << 31;

/// Lock-free Pending → Cancelled/Claimed/Expired cell deciding the
/// run-vs-drop race for one task, plus the FINISHED bit its releaser sets
/// once the task has retired.  See the module docs.
#[derive(Debug)]
pub struct CancelCell {
    state: AtomicU32,
}

impl Default for CancelCell {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelCell {
    /// Creates a cell in the `Pending` state.
    pub fn new() -> Self {
        CancelCell {
            state: AtomicU32::new(PENDING),
        }
    }

    /// Requests cancellation.  Returns `true` if this call won the race —
    /// the task is then guaranteed never to run.  Returns `false` when the
    /// task was already claimed for execution (it runs, or is running, or
    /// ran), already expired, or already cancelled by an earlier call.
    ///
    /// The acquire on failure pairs with the claimer's release, so a caller
    /// that observes `Claimed` also observes every write the claimer made
    /// before the CAS.
    pub fn cancel(&self) -> bool {
        self.state
            .compare_exchange(PENDING, CANCELLED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Marks the task expired: its deadline passed before any runner
    /// claimed it.  Returns `true` if this call settled the cell; `false`
    /// when the cell was already claimed, cancelled or expired.  Called
    /// only by the worker that exclusively owns the node at claim time
    /// (the deadline check itself needs no atomics — see the module docs);
    /// the CAS exists so a concurrently racing `cancel()` and a late
    /// observer still see one coherent terminal state.
    pub fn expire(&self) -> bool {
        self.state
            .compare_exchange(PENDING, EXPIRED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Claims the task for execution.  Returns `true` for the single caller
    /// that may run it; `false` means the task was cancelled or expired
    /// first and must be retired without running.  Called exactly once per
    /// task, by the worker that owns the node at execution time.
    pub fn try_claim(&self) -> bool {
        self.state
            .compare_exchange(PENDING, CLAIMED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Marks the task retired: its job, with everything it captured, has
    /// been dropped.  Called exactly once, by the node's releaser, after
    /// the drop; the `Release` pairs with [`is_finished`](Self::is_finished)'s
    /// `Acquire`, so an observer of the bit also observes the drop and
    /// every effect of the job.  The outcome is left as it is.
    pub fn finish(&self) {
        self.state.fetch_or(FINISHED, Ordering::Release);
    }

    /// The outcome, with the FINISHED bit masked off.
    fn outcome(&self) -> u32 {
        self.state.load(Ordering::Acquire) & !FINISHED
    }

    /// `true` while no transition has won yet and the task has not been
    /// retired: it is still queued and both `cancel()` and `try_claim()`
    /// could still succeed.
    pub fn is_pending(&self) -> bool {
        self.state.load(Ordering::Acquire) == PENDING
    }

    /// `true` once a `cancel()` has won the race (the task will never run).
    /// Expiry does **not** count: see [`is_expired`](Self::is_expired).
    pub fn is_cancelled(&self) -> bool {
        self.outcome() == CANCELLED
    }

    /// `true` once the owner's deadline check settled the cell (the task
    /// will never run because its deadline passed while it was queued).
    pub fn is_expired(&self) -> bool {
        self.outcome() == EXPIRED
    }

    /// `true` once a runner has claimed the task (cancellation can no
    /// longer prevent execution).
    pub fn is_claimed(&self) -> bool {
        self.outcome() == CLAIMED
    }

    /// `true` once the task has retired — ran to completion, panicked,
    /// was cancelled or expired, or was dropped by the scheduler's
    /// shutdown drain — and its job's captures have been dropped.
    pub fn is_finished(&self) -> bool {
        self.state.load(Ordering::Acquire) & FINISHED != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_then_cancel_fails() {
        let cell = CancelCell::new();
        assert!(!cell.is_cancelled());
        assert!(cell.try_claim());
        assert!(cell.is_claimed());
        assert!(!cell.cancel(), "cancel after claim must lose");
        assert!(!cell.is_cancelled());
    }

    #[test]
    fn cancel_then_claim_fails() {
        let cell = CancelCell::new();
        assert!(cell.cancel());
        assert!(cell.is_cancelled());
        assert!(!cell.try_claim(), "claim after cancel must lose");
        assert!(!cell.is_claimed());
    }

    #[test]
    fn transitions_are_exactly_once() {
        let cell = CancelCell::new();
        assert!(cell.cancel());
        assert!(!cell.cancel(), "second cancel does not win again");
        let cell = CancelCell::new();
        assert!(cell.try_claim());
        assert!(!cell.try_claim(), "second claim does not win again");
        let cell = CancelCell::new();
        assert!(cell.expire());
        assert!(!cell.expire(), "second expire does not win again");
    }

    #[test]
    fn expiry_is_terminal_and_distinct_from_cancellation() {
        let cell = CancelCell::new();
        assert!(cell.is_pending());
        assert!(cell.expire());
        assert!(cell.is_expired());
        assert!(!cell.is_cancelled(), "expiry must not report as cancelled");
        assert!(!cell.is_pending());
        assert!(!cell.cancel(), "cancel after expiry must lose");
        assert!(!cell.try_claim(), "claim after expiry must lose");
        // And the other direction: a won cancel is never reported expired.
        let cell = CancelCell::new();
        assert!(cell.cancel());
        assert!(!cell.expire());
        assert!(!cell.is_expired());
    }

    #[test]
    fn finished_bit_keeps_the_outcome_and_stops_transitions() {
        for settle in [
            CancelCell::try_claim,
            CancelCell::cancel,
            CancelCell::expire,
        ] {
            let cell = CancelCell::new();
            assert!(settle(&cell));
            let (claimed, cancelled, expired) =
                (cell.is_claimed(), cell.is_cancelled(), cell.is_expired());
            assert!(!cell.is_finished());
            cell.finish();
            assert!(cell.is_finished());
            assert_eq!(
                (cell.is_claimed(), cell.is_cancelled(), cell.is_expired()),
                (claimed, cancelled, expired),
                "the FINISHED bit must not change the outcome reads"
            );
            assert!(!cell.cancel() && !cell.try_claim() && !cell.expire());
        }
        // Dropped unclaimed (the shutdown drain): finished, no outcome, and
        // no transition can win any more.
        let cell = CancelCell::new();
        cell.finish();
        assert!(cell.is_finished() && !cell.is_pending());
        assert!(!cell.cancel(), "a retired task cannot be cancelled");
        assert!(!cell.is_cancelled() && !cell.is_claimed() && !cell.is_expired());
        assert!(!cell.try_claim() && !cell.expire());
    }
}
