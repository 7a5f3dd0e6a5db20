//! The published team task and its start countdown `G` (paper Section 3,
//! Algorithm 5 lines 1–4; ordering table: DESIGN.md §9 rows 1–4): the only
//! code that knows the seqlock recipe, and the only writer and decrementer
//! of `G`.
//!
//! **Contract.** `G > 0` ⇒ the slot holds a published task that exactly `G`
//! members of its team have not picked up yet: [`Publication::publish`] sets
//! `G = size − 1` (the coordinator runs its own share) and is called only
//! with the previous `G` back at zero; every other member of the published
//! team calls [`Publication::picked_up`] exactly once.  While `G > 0` the
//! coordinator leaves its registration word alone, too.

use std::sync::atomic::{fence, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crate::task::TaskNode;

/// One coordinator's publication slot (`c.task` and `G` in the paper).
#[derive(Default)]
pub(crate) struct Publication {
    /// Publication seqlock: even ⇒ stable, odd ⇒ publication in progress.
    /// Monotonically increasing, so members can tell new tasks from ones they
    /// have already executed (the paper's "remember the last executed task").
    publish_seq: AtomicU64,
    /// The published team task.
    task: AtomicPtr<TaskNode>,
    /// First worker id of the published task's team.
    base: AtomicUsize,
    /// Team size of the published task.
    size: AtomicUsize,
    /// Start countdown `G`: non-coordinator members that have not yet picked
    /// up the published task.
    start_countdown: AtomicU32,
}

impl Publication {
    /// Publishes `task` to the team `base .. base + size`.  **Owner only**;
    /// the caller has written the node's team fields and wakes the members
    /// afterwards.
    pub(super) fn publish(&self, task: *mut TaskNode, base: usize, size: usize) {
        debug_assert_eq!(self.pending_pickups(), 0, "previous task not picked up");
        // The start countdown G (Section 3): all other members must pick the
        // task up before we may publish the next one or change the team.
        // Relaxed suffices: the store is sequenced before the publication
        // below, and members only decrement after acquire-observing the
        // publication, so they always see the fresh countdown (DESIGN.md §9).
        self.start_countdown
            .store((size - 1) as u32, Ordering::Relaxed);

        // Publication seqlock: odd while writing, even when stable.  The
        // ordering recipe is the standard atomic seqlock (DESIGN.md §9):
        //
        // * the odd store may be Relaxed — the release fence after it orders
        //   it (and the caller's node-field writes) before the data stores,
        //   so a reader that observes any of the new data and then acquires-
        //   fences before re-reading the sequence is guaranteed to see the
        //   odd value (or a later one) and discard the torn read;
        // * the data stores may be Relaxed — a reader only trusts them after
        //   both sequence reads returned the same even value;
        // * the final store is Release — it pairs with the reader's initial
        //   Acquire load, making the data (and the countdown and node
        //   fields) visible to any reader that sees the new sequence.
        let seq = self.publish_seq.load(Ordering::Relaxed);
        debug_assert!(seq % 2 == 0);
        self.publish_seq.store(seq + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        self.base.store(base, Ordering::Relaxed);
        self.size.store(size, Ordering::Relaxed);
        self.task.store(task, Ordering::Relaxed);
        self.publish_seq.store(seq + 2, Ordering::Release);
    }

    /// Seqlock read: the current publication as `(task, base, size, seq)`
    /// if its sequence is newer than `seen`, the highest one the caller has
    /// already handled.  Never returns an odd (in-progress) sequence.
    ///
    /// Ordering (DESIGN.md §9): the initial Acquire pairs with the writer's
    /// final Release store, so a matching even sequence guarantees the data
    /// loads saw that publication's values; the Acquire fence before the
    /// re-read pairs with the writer's Release fence, so a reader that
    /// picked up any in-progress data is guaranteed to observe the odd (or
    /// newer) sequence and discard it.
    pub(super) fn read_newer_than(&self, seen: u64) -> Option<(*mut TaskNode, usize, usize, u64)> {
        for _ in 0..8 {
            let s1 = self.publish_seq.load(Ordering::Acquire);
            if s1 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            if s1 == 0 || s1 <= seen {
                return None;
            }
            let ptr = self.task.load(Ordering::Relaxed);
            let base = self.base.load(Ordering::Relaxed);
            let size = self.size.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            let s2 = self.publish_seq.load(Ordering::Relaxed);
            if s1 == s2 {
                return Some((ptr, base, size, s1));
            }
        }
        None
    }

    /// The sequence a worker about to register records as "already seen", so
    /// it never runs a task published before it joined (those teams were
    /// complete without it); a publication in progress counts as made.
    /// Acquire: any publication whose team could include the registrant
    /// must have been written after its registration CAS (completeness
    /// requires it), so it carries a strictly larger sequence.
    pub(super) fn stable_seq(&self) -> u64 {
        let seq = self.publish_seq.load(Ordering::Acquire);
        seq + seq % 2
    }

    /// A member of the published team picked the task up: decrements `G`.
    /// Returns `true` for the last pick-up, whose caller wakes the
    /// coordinator (it may be parked in `wait_countdown_zero`).
    pub(super) fn picked_up(&self) -> bool {
        self.start_countdown.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// `G`: members that have yet to pick up the published task.
    pub(super) fn pending_pickups(&self) -> u32 {
        self.start_countdown.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A never-dereferenced stand-in for the `i`-th task.
    fn task(i: usize) -> *mut TaskNode {
        (i * 16) as *mut TaskNode
    }

    /// `G > 0` ⇒ a published task with exactly `G` undecremented members.
    #[test]
    fn countdown_counts_the_members_that_have_not_picked_up() {
        let p = Publication::default();
        assert_eq!(p.pending_pickups(), 0);
        assert_eq!(p.read_newer_than(0), None, "nothing published yet");
        p.publish(task(1), 4, 4);
        assert_eq!(p.read_newer_than(0), Some((task(1), 4, 4, 2)));
        for remaining in (0..3).rev() {
            assert_eq!(
                p.picked_up(),
                remaining == 0,
                "only the last pick-up reports it"
            );
            assert_eq!(p.pending_pickups(), remaining);
        }
    }

    #[test]
    fn read_newer_than_never_yields_a_seen_sequence() {
        let p = Publication::default();
        p.publish(task(1), 0, 1);
        p.publish(task(2), 0, 1);
        assert_eq!(p.read_newer_than(0), Some((task(2), 0, 1, 4)));
        assert_eq!(p.read_newer_than(2), Some((task(2), 0, 1, 4)));
        assert_eq!(p.read_newer_than(4), None);
        assert_eq!(p.read_newer_than(6), None);
    }

    /// A writer stopped between its odd and its final store: readers get
    /// nothing, and a registrant arriving now skips the task being written.
    #[test]
    fn in_progress_publication_is_invisible_and_counts_as_seen() {
        let p = Publication::default();
        p.publish(task(1), 0, 1);
        assert_eq!(p.stable_seq(), 2);
        p.publish_seq.store(3, Ordering::Relaxed);
        p.task.store(task(2), Ordering::Relaxed);
        assert_eq!(
            p.read_newer_than(0),
            None,
            "an odd sequence is never returned"
        );
        let seen = p.stable_seq();
        assert_eq!(seen, 4);
        p.publish_seq.store(4, Ordering::Release);
        assert_eq!(
            p.read_newer_than(seen),
            None,
            "published before the registrant joined"
        );
        assert_eq!(p.read_newer_than(2), Some((task(2), 0, 1, 4)));
    }
}
