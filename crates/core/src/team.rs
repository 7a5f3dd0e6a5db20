//! Intra-team synchronization: the team barrier.
//!
//! Once a team has been built for a data-parallel task, its members execute
//! the task cooperatively and typically need to synchronize between phases
//! (the mixed-mode Quicksort's parallel partitioning, for example, has a
//! block-neutralization phase followed by a cleanup phase).  The paper leaves
//! intra-team communication to the application — members are given
//! consecutive local ids "such that the co-scheduled tasks have a means of
//! identifying and communicating with each other" — so this crate provides
//! the one primitive every such application needs: a reusable,
//! sense-reversing barrier sized to the team.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Back-to-back polls of the barrier's sense word a waiter makes before it
/// starts yielding the CPU between polls.  A poll is one load and one
/// `pause` (well under 100 ns), so a partner that is a few microseconds
/// behind — the 99th percentile of a dense team stream is 1–3 µs — is
/// noticed within one poll of its arrival.  A partner later than the whole
/// budget (~8 µs) has most likely lost its CPU, and the yields are what
/// gives it back.  Measured at 128 and 512: the same on every cell with a
/// core per member, and at 512 a p = 4 mix on two cores ran 1.6× slower
/// (EXPERIMENTS.md "Team hand-offs").
const SPIN_POLLS: u32 = 128;

/// A reusable sense-reversing barrier for a fixed number of participants.
///
/// A waiter polls at constant granularity for a bounded budget and then
/// keeps polling with `yield_now` in between, so the barrier still makes
/// progress when the team is over-subscribed onto fewer hardware threads
/// than members.  It never sleeps: a timed sleep cannot be cut short by the
/// partner's arrival, and a waiter that oversleeps makes its partner wait —
/// and escalate — at the next barrier (DESIGN.md §3).
#[derive(Debug)]
pub struct TeamBarrier {
    participants: u32,
    remaining: AtomicU32,
    sense: AtomicBool,
}

impl TeamBarrier {
    /// Creates a barrier for `participants` threads.
    ///
    /// # Panics
    ///
    /// Panics if `participants == 0`.
    pub fn new(participants: usize) -> Self {
        assert!(participants > 0, "a barrier needs at least one participant");
        let participants = u32::try_from(participants).expect("team size fits in 32 bits");
        TeamBarrier {
            participants,
            remaining: AtomicU32::new(participants),
            sense: AtomicBool::new(false),
        }
    }

    /// Re-sizes the barrier for a new team.  The exclusive borrow is the
    /// proof that nobody is waiting on it: the coordinator re-arms the
    /// barrier embedded in a task node before it publishes the node.
    pub(crate) fn rearm(&mut self, participants: usize) {
        *self = TeamBarrier::new(participants);
    }

    /// Number of threads that must arrive before the barrier opens.
    pub fn participants(&self) -> usize {
        self.participants as usize
    }

    /// Blocks until all participants have called `wait`.  Returns `true` on
    /// exactly one participant per round (the last arriver), which is handy
    /// for single-threaded epilogue work.
    pub fn wait(&self) -> bool {
        let sense = self.sense.load(Ordering::Relaxed);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last arriver: reset and flip the sense to release everyone.
            self.remaining.store(self.participants, Ordering::Relaxed);
            self.sense.store(!sense, Ordering::Release);
            true
        } else {
            let mut polls = 0;
            while self.sense.load(Ordering::Acquire) == sense {
                if polls < SPIN_POLLS {
                    polls += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{with_watchdog, WATCHDOG};
    use std::sync::atomic::AtomicUsize as Counter;
    use std::sync::Arc;

    /// Runs `rounds` barrier rounds on `threads` scoped threads and returns
    /// how many `wait` calls reported themselves the round's leader.
    fn leaders_over(barrier: &TeamBarrier, threads: usize, rounds: usize) -> usize {
        let leaders = Counter::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..rounds {
                        if barrier.wait() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        leaders.load(Ordering::SeqCst)
    }

    #[test]
    fn single_participant_never_blocks() {
        let b = TeamBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait());
        }
    }

    #[test]
    #[should_panic]
    fn zero_participants_rejected() {
        let _ = TeamBarrier::new(0);
    }

    #[test]
    fn phases_are_separated() {
        // Every thread increments a counter in phase 1; after the barrier all
        // threads must observe the full phase-1 total.
        const THREADS: usize = 4;
        const ROUNDS: usize = 25;
        let barrier = Arc::new(TeamBarrier::new(THREADS));
        let counter = Arc::new(Counter::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        counter.fetch_add(1, Ordering::SeqCst);
                        barrier.wait();
                        let expected = (round + 1) * THREADS;
                        assert!(counter.load(Ordering::SeqCst) >= expected);
                        barrier.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), THREADS * ROUNDS);
    }

    #[test]
    fn exactly_one_leader_per_round() {
        const THREADS: usize = 3;
        const ROUNDS: usize = 100;
        let barrier = TeamBarrier::new(THREADS);
        assert_eq!(leaders_over(&barrier, THREADS, ROUNDS), ROUNDS);
    }

    /// Nothing in the barrier sleeps, so on a host with fewer cores than
    /// waiters it is the yield phase that hands the CPU to the late arrivers.
    #[test]
    fn oversubscribed_waiters_make_progress_by_yielding() {
        with_watchdog(
            "oversubscribed_waiters_make_progress_by_yielding",
            WATCHDOG,
            || {
                const THREADS: usize = 8;
                const ROUNDS: usize = 2_000;
                let barrier = TeamBarrier::new(THREADS);
                assert_eq!(leaders_over(&barrier, THREADS, ROUNDS), ROUNDS);
            },
        );
    }

    /// The barrier embedded in a task node is re-armed for each team it
    /// serves; whatever size and sense the previous team left behind, every
    /// round has exactly one leader.
    #[test]
    fn rearmed_barrier_has_one_leader_per_round() {
        with_watchdog("rearmed_barrier_has_one_leader_per_round", WATCHDOG, || {
            const ROUNDS: usize = 101; // odd: the sense ends flipped
            let mut barrier = TeamBarrier::new(1);
            for team_size in [2, 4, 2] {
                barrier.rearm(team_size);
                assert_eq!(barrier.participants(), team_size);
                assert_eq!(leaders_over(&barrier, team_size, ROUNDS), ROUNDS);
            }
        });
    }
}
