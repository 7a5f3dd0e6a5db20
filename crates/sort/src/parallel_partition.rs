//! The data-parallel partitioning step of MMPar (Algorithm 11).
//!
//! The array is cut into one contiguous slice per member, aligned to blocks
//! of `block_size` elements.  Each member partitions its slice with the
//! sequential pass ([`partition_le`]) and publishes the slice's midpoint.
//! After a team barrier every member computes the global split `s` — the sum
//! of the slices' left sides — and with it the misplaced positions: the
//! elements above the pivot left of `s` and those at or below it from `s`
//! on.  There are as many of one as of the other.  Paired in ascending
//! order, they are swapped by all members in equal shares, range by range
//! (Frias and Petit, "Parallel partition revisited", 2008); a second barrier
//! ends the step.
//!
//! The paper cites Tsigas and Zhang's partition, whose members claim blocks
//! from both ends one at a time and finish with a sequential cleanup; here
//! per-member slices trade those dynamic claims for a parallel exchange, so
//! no phase is sequential and each member's pass is the vectorised one
//! (DESIGN.md §3, "Team step").
//!
//! The result is the usual partition contract: a split point `s` such that
//! `data[..s] <= pivot < data[s..]` (with the all-`<= pivot` corner case
//! reported as `s == n` and resolved by the caller).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use teamsteal_core::TaskContext;
use teamsteal_util::SendMutPtr;

use crate::seq::partition_le;

/// Shared state of one data-parallel partitioning step, used by every member
/// of the team executing it.  A `ParallelPartitioner` is **single use**: it
/// partitions exactly one array once.
pub struct ParallelPartitioner {
    n: usize,
    block_size: usize,
    /// Each slice's midpoint (an index into the whole array), stored by the
    /// member that partitioned the slice.  The team barrier orders the
    /// stores before every member's loads, so both are `Relaxed`.
    mids: Box<[AtomicUsize]>,
}

impl ParallelPartitioner {
    /// Creates the shared state for partitioning an array of `n` elements
    /// in slices aligned to blocks of `block_size` elements, one slice each
    /// for up to `max_team` members.  Members beyond `max_team` (a team
    /// rounded up past its request, Refinement 2) take part in the exchange
    /// only.
    pub fn new(n: usize, block_size: usize, max_team: usize) -> Self {
        ParallelPartitioner {
            n,
            block_size: block_size.max(1),
            mids: (0..max_team.max(1)).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Runs the partitioning step as part of a team task.  Every member of
    /// the team executing the task must call this exactly once with its own
    /// `ctx`; the call returns the split point `s` (`data[..s] <= pivot`,
    /// `data[s..] > pivot`).
    ///
    /// # Safety contract
    ///
    /// `ptr[0 .. n]` (with `n` as passed to [`ParallelPartitioner::new`])
    /// must be valid and owned exclusively by this team task for the duration
    /// of the call.
    pub fn run(&self, ctx: &TaskContext<'_>, ptr: SendMutPtr<u32>, pivot: u32) -> usize {
        let slices = self.mids.len().min(ctx.team_size());
        let id = ctx.local_id();
        if id < slices {
            let slice = self.slice(id, slices);
            // SAFETY: the slices are disjoint and inside ptr[0..n], and each
            // is partitioned by its own member only.
            let data = unsafe { ptr.add(slice.start).slice_mut(slice.len()) };
            let mid = slice.start + partition_le(data, pivot);
            self.mids[id].store(mid, Ordering::Relaxed);
        }
        ctx.barrier();
        let split = (0..slices)
            .map(|i| self.mid(i) - self.slice(i, slices).start)
            .sum();
        let misplaced = self.misplaced_above(slices, split).map(|r| r.len()).sum();
        let team = ctx.team_size();
        let share = portion(misplaced, id, team)..portion(misplaced, id + 1, team);
        self.exchange(ptr, slices, split, share);
        ctx.barrier();
        split
    }

    fn mid(&self, i: usize) -> usize {
        self.mids[i].load(Ordering::Relaxed)
    }

    /// Slice `i` of `slices`: whole blocks, the last one cut at `n`.
    fn slice(&self, i: usize, slices: usize) -> Range<usize> {
        let blocks = self.n.div_ceil(self.block_size);
        let edge = |i| (portion(blocks, i, slices) * self.block_size).min(self.n);
        edge(i)..edge(i + 1)
    }

    /// The positions left of `split` holding elements above the pivot, one
    /// range per slice in ascending order.
    fn misplaced_above(
        &self,
        slices: usize,
        split: usize,
    ) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..slices).map(move |i| {
            let mid = self.mid(i);
            mid..self.slice(i, slices).end.min(split).max(mid)
        })
    }

    /// The positions from `split` on holding elements at or below the
    /// pivot, one range per slice in ascending order.
    fn misplaced_below(
        &self,
        slices: usize,
        split: usize,
    ) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..slices).map(move |i| {
            let mid = self.mid(i);
            self.slice(i, slices).start.max(split).min(mid)..mid
        })
    }

    /// Swaps the misplaced pairs numbered `share` (the `k`-th misplaced
    /// position above the pivot with the `k`-th below it).  Allocates
    /// nothing: both sides are walked range by range.
    fn exchange(&self, ptr: SendMutPtr<u32>, slices: usize, split: usize, share: Range<usize>) {
        let mut above = Cursor::new(self.misplaced_above(slices, split));
        let mut below = Cursor::new(self.misplaced_below(slices, split));
        let mut k = 0;
        while k < share.end {
            let until = if k < share.start {
                share.start
            } else {
                share.end
            };
            let run = (until - k).min(above.fill()).min(below.fill());
            assert!(
                run > 0,
                "both sides hold the same number of misplaced elements"
            );
            let (a, b) = (above.take(run), below.take(run));
            if k >= share.start {
                // SAFETY: a + run <= split <= b: the two runs are disjoint,
                // inside ptr[0..n], and in no other member's share.
                unsafe {
                    ptr.add(a)
                        .slice_mut(run)
                        .swap_with_slice(ptr.add(b).slice_mut(run))
                };
            }
            k += run;
        }
    }
}

/// `total * i / parts` for `i <= parts`, without overflow.
fn portion(total: usize, i: usize, parts: usize) -> usize {
    total / parts * i + total % parts * i / parts
}

/// One side's misplaced positions, consumed from the front.
struct Cursor<I> {
    ranges: I,
    current: Range<usize>,
}

impl<I: Iterator<Item = Range<usize>>> Cursor<I> {
    fn new(ranges: I) -> Self {
        Cursor {
            ranges,
            current: 0..0,
        }
    }

    /// Length of the current range, moving on to the next non-empty one
    /// first; 0 once every range is consumed.
    fn fill(&mut self) -> usize {
        while self.current.is_empty() {
            match self.ranges.next() {
                Some(range) => self.current = range,
                None => return 0,
            }
        }
        self.current.len()
    }

    /// Consumes `run <= fill()` positions; returns the first.
    fn take(&mut self, run: usize) -> usize {
        let start = self.current.start;
        self.current.start += run;
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use teamsteal_core::test_support::{with_watchdog, WATCHDOG};
    use teamsteal_core::Scheduler;
    use teamsteal_data::{is_permutation_of, Distribution};

    use crate::seq::VECTOR_MIN_LEN as MIN;

    /// Runs the partitioner on `data` inside a real team task and checks the
    /// partition contract; returns the split point.
    fn partition_in_team(
        scheduler: &Scheduler,
        team: usize,
        data: &mut [u32],
        block_size: usize,
        pivot: u32,
    ) -> usize {
        partition_in_sized_team(scheduler, team, data, block_size, pivot).0
    }

    /// [`partition_in_team`], also returning the size of the team that ran
    /// the step.
    fn partition_in_sized_team(
        scheduler: &Scheduler,
        team: usize,
        data: &mut [u32],
        block_size: usize,
        pivot: u32,
    ) -> (usize, usize) {
        let original = data.to_vec();
        let n = data.len();
        let ptr = SendMutPtr::from_slice(data);
        let partitioner = Arc::new(ParallelPartitioner::new(n, block_size, team));
        // Lowest and highest split any member returned, and the team size.
        let seen = Arc::new([usize::MAX, 0, 0].map(AtomicUsize::new));
        {
            let partitioner = Arc::clone(&partitioner);
            let seen = Arc::clone(&seen);
            scheduler.run_team(team, move |ctx| {
                let s = partitioner.run(ctx, ptr, pivot);
                seen[0].fetch_min(s, Ordering::Relaxed);
                seen[1].fetch_max(s, Ordering::Relaxed);
                seen[2].store(ctx.team_size(), Ordering::Relaxed);
            });
        }
        let [split, highest, team_size] = [0, 1, 2].map(|i| seen[i].load(Ordering::Relaxed));
        let what = format!("n={n}, team={team}, block_size={block_size}");
        assert_eq!(split, highest, "members disagree on the split ({what})");
        assert!(split <= n, "{what}");
        assert!(
            data[..split].iter().all(|&x| x <= pivot),
            "left side contains an element above the pivot ({what})"
        );
        assert!(
            data[split..].iter().all(|&x| x > pivot),
            "right side contains an element at or below the pivot ({what})"
        );
        assert!(
            is_permutation_of(&original, data),
            "partition changed the multiset of elements ({what})"
        );
        (split, team_size)
    }

    fn check_partition(scheduler: &Scheduler, team: usize, n: usize, block_size: usize, seed: u64) {
        for d in Distribution::ALL {
            let mut data = d.generate(n, 8, seed);
            let pivot = crate::seq::median_of_three(&data);
            let split = partition_in_team(scheduler, team, &mut data, block_size, pivot);
            assert!(
                split >= 1,
                "{d:?}: the pivot element itself must land on the left"
            );
        }
    }

    #[test]
    fn partitions_with_a_singleton_team() {
        let s = Scheduler::with_threads(1);
        check_partition(&s, 1, 10_000, 256, 1);
    }

    #[test]
    fn partitions_with_a_team_of_two() {
        let s = Scheduler::with_threads(2);
        check_partition(&s, 2, 50_000, 512, 2);
    }

    #[test]
    fn partitions_with_a_team_of_four() {
        with_watchdog("partitions_with_a_team_of_four", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            check_partition(&s, 4, 120_000, 1024, 3);
        });
    }

    #[test]
    fn handles_sizes_not_multiple_of_block_size() {
        with_watchdog("handles_sizes_not_multiple_of_block_size", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            check_partition(&s, 4, 100_003, 1024, 4);
            check_partition(&s, 2, 1_023, 1024, 5); // fewer elements than one block
            check_partition(&s, 4, 4_097, 4_096, 6);
        });
    }

    #[test]
    fn handles_tiny_blocks_and_many_claims() {
        with_watchdog("handles_tiny_blocks_and_many_claims", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            check_partition(&s, 4, 30_000, 64, 7);
        });
    }

    /// Teams of 1–4 (a request for 3 may get a team of 4) against
    /// block sizes below, equal to, above and not a multiple of the vector
    /// loop's threshold, with `n` leaving a remainder and with fewer than
    /// two blocks per member.
    #[test]
    fn handles_every_team_and_block_size_against_the_kernel_chunk() {
        with_watchdog("every_team_and_block_size", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            for team in 1..=4 {
                for block_size in [MIN / 2, MIN, MIN + 72, 3 * MIN, 1000] {
                    for n in [
                        20 * block_size + 17,
                        2 * team * block_size - 1,
                        block_size + 1,
                    ] {
                        check_partition(&s, team, n, block_size, (team * n) as u64);
                    }
                }
            }
        });
    }

    /// Sorted, reversed and constant input: every slice is one-sided, so
    /// reversed input leaves half the array misplaced.
    #[test]
    fn handles_one_sided_inputs() {
        let s = Scheduler::with_threads(2);
        let n = 40_000u32;
        for block_size in [100, 1024] {
            let mut sorted: Vec<u32> = (0..n).collect();
            assert_eq!(
                partition_in_team(&s, 2, &mut sorted, block_size, n / 3),
                n as usize / 3 + 1
            );
            let mut reversed: Vec<u32> = (0..n).rev().collect();
            assert_eq!(
                partition_in_team(&s, 2, &mut reversed, block_size, n / 3),
                n as usize / 3 + 1
            );
            let mut above = vec![9u32; n as usize];
            assert_eq!(partition_in_team(&s, 2, &mut above, block_size, 3), 0);
        }
    }

    /// Staggered and Buckets inputs on a team of four: the misplaced
    /// positions of one side lie in several members' slices, so the pairs
    /// of the exchange cross slice boundaries.
    #[test]
    fn exchanges_misplaced_ranges_across_several_slices() {
        with_watchdog("exchange_across_slices", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let (n, block_size, team) = (60_000, 256, 4);
            for d in [Distribution::Staggered, Distribution::Buckets] {
                for seed in 0..3 {
                    let mut data = d.generate(n, 8, seed);
                    let pivot = crate::seq::pivot(&data);
                    // The midpoints each member's pass will publish.
                    let p = ParallelPartitioner::new(n, block_size, team);
                    let mut split = 0;
                    for (i, mid) in p.mids.iter().enumerate() {
                        let slice = p.slice(i, team);
                        let le = data[slice.clone()].iter().filter(|&&x| x <= pivot).count();
                        mid.store(slice.start + le, Ordering::Relaxed);
                        split += le;
                    }
                    let spread = |ranges: &mut dyn Iterator<Item = Range<usize>>| {
                        ranges.filter(|r| !r.is_empty()).count()
                    };
                    let what = format!("{d:?}, seed {seed}");
                    let above = spread(&mut p.misplaced_above(team, split));
                    let below = spread(&mut p.misplaced_below(team, split));
                    assert!(above + below >= 3, "{what}: {above} + {below} slices");
                    partition_in_team(&s, team, &mut data, block_size, pivot);
                }
            }
        });
    }

    /// Fewer elements than members: some slices are empty, and every
    /// member still takes part in both barriers and the exchange.
    #[test]
    fn handles_fewer_elements_than_members() {
        with_watchdog("fewer_elements_than_members", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            for n in 0..4u32 {
                for block_size in [1, 2, 1024] {
                    for pivot in 0..=n {
                        let mut data: Vec<u32> = (0..n).rev().collect();
                        let split = partition_in_team(&s, 4, &mut data, block_size, pivot);
                        assert_eq!(split, (pivot + 1).min(n) as usize);
                    }
                }
            }
        });
    }

    /// A request for three members on four workers runs as a team of four
    /// (Refinement 2): the partitioner has three slices, and the fourth
    /// member joins only the exchange.
    #[test]
    fn a_team_rounded_up_past_its_request_partitions_correctly() {
        with_watchdog("rounded_up_team", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            for d in Distribution::ALL {
                let mut data = d.generate(30_001, 8, 9);
                let pivot = crate::seq::pivot(&data);
                let (_, team) = partition_in_sized_team(&s, 3, &mut data, 512, pivot);
                assert_eq!(team, 4, "{d:?}: the request was not rounded up");
            }
            let mut reversed: Vec<u32> = (0..30_000).rev().collect();
            let (split, _) = partition_in_sized_team(&s, 3, &mut reversed, 512, 9_999);
            assert_eq!(split, 10_000);
        });
    }

    #[test]
    fn all_elements_below_pivot_reports_full_split() {
        let s = Scheduler::with_threads(2);
        let n = 8_192;
        let mut data = vec![3u32; n];
        assert_eq!(partition_in_team(&s, 2, &mut data, 512, 3), n);
    }
}
