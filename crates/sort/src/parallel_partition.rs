//! The Tsigas–Zhang blocked, data-parallel partitioning step.
//!
//! Full blocks of `block_size` elements are claimed from the two ends of the
//! array: left block `k` is `[k·bs, (k+1)·bs)`, right block `k` is
//! `[n-(k+1)·bs, n-k·bs)`, so whatever is never claimed — whole blocks and
//! the `n mod bs` remainder — lies in the middle.  During **phase 1** every
//! team member keeps one left and one right block and *neutralizes* them
//! chunk by chunk with the block kernel (`kernel.rs`): elements failing
//! the predicate in the left block are swapped with elements satisfying it
//! in the right block until one of the blocks is fully classified, at which
//! point a fresh block is claimed from that side.  When no blocks remain,
//! each member parks its at most one unfinished block per side.
//!
//! **Phase 2/3** (performed by the member with local id 0 after a team
//! barrier) moves the unfinished blocks to the inner boundary of their
//! region, so everything that is not yet classified forms one contiguous
//! range (unfinished blocks + never-claimed middle), and finishes it with the
//! sequential [`partition_by`] (a trimmed Lomuto pass).  The paper replaces the
//! original "thread 0 collects everything" second phase with a
//! producer/consumer exchanger; we keep the sequential cleanup (its work is
//! bounded by `O(team_size · block_size + block_size)` elements) and note the
//! substitution in DESIGN.md.
//!
//! The result is the usual partition contract: a split point `s` such that
//! `data[..s] <= pivot < data[s..]` (with the all-`<= pivot` corner case
//! reported as `s == n` and resolved by the caller).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use teamsteal_core::TaskContext;
use teamsteal_util::SendMutPtr;

use crate::kernel::{Neutralizer, Side, CHUNK};
use crate::seq::partition_by;

/// Shared state of one data-parallel partitioning step, used by every member
/// of the team executing it.  A `ParallelPartitioner` is **single use**: it
/// partitions exactly one array once.
pub struct ParallelPartitioner {
    n: usize,
    block_size: usize,
    nblocks: usize,
    /// Packed claim counters: upper 32 bits = blocks taken from the left,
    /// lower 32 bits = blocks taken from the right.
    taken: AtomicU64,
    /// Per-member unfinished block (side-local index + 1; 0 = none): the
    /// left ones in the first half, the right ones in the second.  Allocated
    /// by the first member that has one, for the team that actually runs the
    /// step (which may be larger than the requested one, Refinement 2).
    leftover: OnceLock<Box<[AtomicUsize]>>,
    /// The final split point, published by local id 0.
    split: AtomicUsize,
}

impl ParallelPartitioner {
    /// Creates the shared state for partitioning an array of `n` elements
    /// with blocks of `block_size` elements.  The per-member state is sized
    /// by the team that runs the step, so `_max_team` is not needed; the
    /// parameter is kept for existing callers.
    pub fn new(n: usize, block_size: usize, _max_team: usize) -> Self {
        let block_size = block_size.max(1);
        ParallelPartitioner {
            n,
            block_size,
            nblocks: n / block_size,
            taken: AtomicU64::new(0),
            leftover: OnceLock::new(),
            split: AtomicUsize::new(0),
        }
    }

    /// Number of full blocks phase 1 operates on.
    pub fn num_blocks(&self) -> usize {
        self.nblocks
    }

    /// The members' unfinished-block slots of one side; empty if no member
    /// has published one.
    fn leftovers(&self, side: Side) -> &[AtomicUsize] {
        let slots = self.leftover.get().map_or(&[][..], |slots| slots);
        let (left, right) = slots.split_at(slots.len() / 2);
        match side {
            Side::Left => left,
            Side::Right => right,
        }
    }

    /// Claims the next block from `side`, if any block is still unclaimed;
    /// returns its side-local index.
    fn acquire_block(&self, side: Side) -> Option<usize> {
        loop {
            let cur = self.taken.load(Ordering::Acquire);
            let left = (cur >> 32) as usize;
            let right = (cur & 0xFFFF_FFFF) as usize;
            if left + right >= self.nblocks {
                return None;
            }
            let (new, index) = match side {
                Side::Left => (cur + (1 << 32), left),
                Side::Right => (cur + 1, right),
            };
            if self
                .taken
                .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(index);
            }
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
        // ---- Phase 1: parallel block neutralization -------------------
        self.neutralize_blocks(ctx, ptr, pivot);
        ctx.barrier();

        // ---- Phase 2 + 3: sequential cleanup by local id 0 -------------
        if ctx.local_id() == 0 {
            let split = self.cleanup(ptr, pivot);
            self.split.store(split, Ordering::Release);
        }
        ctx.barrier();
        self.split.load(Ordering::Acquire)
    }

    /// Element offset of block `index` of `side`.
    fn block_start(&self, side: Side, index: usize) -> usize {
        match side {
            Side::Left => index * self.block_size,
            Side::Right => self.n - (index + 1) * self.block_size,
        }
    }

    fn block_slice<'a>(&self, ptr: SendMutPtr<u32>, side: Side, index: usize) -> &'a mut [u32] {
        // SAFETY: blocks are disjoint (acquire_block never hands out more
        // than `nblocks = n / block_size` blocks in total, so the left and
        // the right ones cannot meet) and inside ptr[0..n].
        unsafe {
            ptr.add(self.block_start(side, index))
                .slice_mut(self.block_size)
        }
    }

    fn neutralize_blocks(&self, ctx: &TaskContext<'_>, ptr: SendMutPtr<u32>, pivot: u32) {
        // Per side: the claimed block and the part of it not yet handed to
        // the kernel.  Both survive a claim on the other side, and so do the
        // kernel's misplaced offsets of the current chunk.
        let mut blocks: [Option<usize>; 2] = [None, None];
        let mut unscanned: [&mut [u32]; 2] = [&mut [], &mut []];
        let mut kernel = Neutralizer::new();
        kernel.run(
            |x| x <= pivot,
            |side| {
                let s = side as usize;
                if unscanned[s].is_empty() {
                    // The kernel asks only once the previous chunk is fully
                    // classified, so the block is finished.
                    blocks[s] = None;
                    let index = self.acquire_block(side)?;
                    blocks[s] = Some(index);
                    unscanned[s] = self.block_slice(ptr, side, index);
                }
                let rest = std::mem::take(&mut unscanned[s]);
                let (chunk, rest) = rest.split_at_mut(rest.len().min(CHUNK));
                unscanned[s] = rest;
                Some(chunk)
            },
        );
        for side in [Side::Left, Side::Right] {
            let s = side as usize;
            if let Some(index) = blocks[s] {
                if !unscanned[s].is_empty() || kernel.pending(side) > 0 {
                    self.leftover.get_or_init(|| {
                        (0..2 * ctx.team_size())
                            .map(|_| AtomicUsize::new(0))
                            .collect()
                    });
                    self.leftovers(side)[ctx.local_id()].store(index + 1, Ordering::Release);
                }
            }
        }
    }

    /// Moves the unfinished blocks of `side` into the innermost of the
    /// `taken` block slots claimed there, so the unclassified data becomes
    /// contiguous.  Returns the number of unfinished blocks.
    fn compact_leftovers(&self, ptr: SendMutPtr<u32>, side: Side, taken: usize) -> usize {
        let slots = self.leftovers(side);
        let unfinished =
            |index: usize| slots.iter().any(|a| a.load(Ordering::Acquire) == index + 1);
        let count = slots
            .iter()
            .filter(|a| a.load(Ordering::Acquire) > 0)
            .count();
        debug_assert!(count <= taken);
        // Target zone: the `count` highest indices.  Unfinished blocks
        // already inside stay; each one outside is swapped with the next
        // finished block inside (there are exactly as many of either).
        let zone = taken - count;
        let mut target = zone;
        for slot in slots {
            let Some(index) = slot.load(Ordering::Acquire).checked_sub(1) else {
                continue;
            };
            if index >= zone {
                continue;
            }
            while unfinished(target) {
                target += 1;
            }
            debug_assert!(target < taken);
            self.block_slice(ptr, side, index)
                .swap_with_slice(self.block_slice(ptr, side, target));
            target += 1;
        }
        count
    }

    /// Phase 2 + 3: make the unclassified range contiguous and finish it with
    /// a sequential pass.  Returns the global split point.
    fn cleanup(&self, ptr: SendMutPtr<u32>, pivot: u32) -> usize {
        let cur = self.taken.load(Ordering::Acquire);
        let taken_left = (cur >> 32) as usize;
        let taken_right = (cur & 0xFFFF_FFFF) as usize;
        debug_assert!(taken_left + taken_right <= self.nblocks);

        let ll = self.compact_leftovers(ptr, Side::Left, taken_left);
        let rl = self.compact_leftovers(ptr, Side::Right, taken_right);

        // The contiguous unclassified range: unfinished left blocks, the
        // never-claimed middle (with the sub-block remainder), and the
        // unfinished right blocks.
        let unknown_start = (taken_left - ll) * self.block_size;
        let unknown_end = self.n - (taken_right - rl) * self.block_size;
        debug_assert!(unknown_start <= unknown_end);
        // SAFETY: exclusive access (phase 1 is over; only local id 0 runs this).
        let unknown = unsafe {
            ptr.add(unknown_start)
                .slice_mut(unknown_end - unknown_start)
        };
        unknown_start + partition_by(unknown, |x| x <= pivot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use teamsteal_core::test_support::{with_watchdog, WATCHDOG};
    use teamsteal_core::Scheduler;
    use teamsteal_data::{is_permutation_of, Distribution};

    /// Runs the partitioner on `data` inside a real team task and checks the
    /// partition contract; returns the split point.
    fn partition_in_team(
        scheduler: &Scheduler,
        team: usize,
        data: &mut [u32],
        block_size: usize,
        pivot: u32,
    ) -> usize {
        let original = data.to_vec();
        let n = data.len();
        let ptr = SendMutPtr::from_slice(data);
        let partitioner = Arc::new(ParallelPartitioner::new(n, block_size, team));
        let split_seen = Arc::new(AtomicUsize::new(usize::MAX));
        {
            let partitioner = Arc::clone(&partitioner);
            let split_seen = Arc::clone(&split_seen);
            scheduler.run_team(team, move |ctx| {
                let s = partitioner.run(ctx, ptr, pivot);
                split_seen.store(s, Ordering::Release);
            });
        }
        let split = split_seen.load(Ordering::Acquire);
        let what = format!("n={n}, team={team}, block_size={block_size}");
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
        split
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
    /// block sizes below, equal to, above and not a multiple of the kernel
    /// chunk, with `n` leaving a remainder and with fewer than two blocks
    /// per member.
    #[test]
    fn handles_every_team_and_block_size_against_the_kernel_chunk() {
        with_watchdog("every_team_and_block_size", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            for team in 1..=4 {
                for block_size in [CHUNK / 2, CHUNK, CHUNK + 72, 3 * CHUNK, 1000] {
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

    /// Sorted, reversed and constant input: one side never has a misplaced
    /// element, so every block of the other side ends up unfinished or in
    /// the never-claimed middle.
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

    /// Phase 2 on a hand-built phase-1 outcome: unfinished blocks at the
    /// outer end of their region must be swapped inwards past finished ones.
    #[test]
    fn cleanup_compacts_unfinished_blocks_from_anywhere() {
        let (bs, pivot) = (4, 5u32);
        let n = 10 * bs + 3;
        let p = ParallelPartitioner::new(n, bs, 3);
        // Four left and three right blocks claimed; left blocks 0 and 2 and
        // the outermost right block are unfinished.
        p.taken.store((4 << 32) | 3, Ordering::Release);
        let slots = [1, 0, 3, 0, 1, 0].map(AtomicUsize::new);
        p.leftover.set(Box::new(slots)).expect("fresh partitioner");
        let mixed = |i: usize| if i % 2 == 0 { 1 } else { 8 };
        let mut data: Vec<u32> = (0..n).map(mixed).collect();
        for finished in [1, 3] {
            data[finished * bs..][..bs].fill(0);
        }
        for finished in [1, 2] {
            let start = p.block_start(Side::Right, finished);
            data[start..][..bs].fill(9);
        }
        let original = data.clone();
        let split = p.cleanup(SendMutPtr::from_slice(&mut data), pivot);
        assert!(data[..split].iter().all(|&x| x <= pivot), "{data:?}");
        assert!(data[split..].iter().all(|&x| x > pivot), "{data:?}");
        assert!(is_permutation_of(&original, &data));
    }

    #[test]
    fn all_elements_below_pivot_reports_full_split() {
        let s = Scheduler::with_threads(2);
        let n = 8_192;
        let mut data = vec![3u32; n];
        assert_eq!(partition_in_team(&s, 2, &mut data, 512, 3), n);
    }

    #[test]
    fn acquire_block_never_hands_out_duplicates() {
        let p = ParallelPartitioner::new(64 * 128 + 5, 128, 4);
        let mut seen = vec![false; p.n];
        let mut toggle = true;
        loop {
            let side = if toggle { Side::Left } else { Side::Right };
            toggle = !toggle;
            match p.acquire_block(side) {
                Some(b) => {
                    let start = p.block_start(side, b);
                    for taken in &mut seen[start..start + 128] {
                        assert!(!*taken, "{side:?} block {b} overlaps an earlier one");
                        *taken = true;
                    }
                }
                None => break,
            }
        }
        let claimed = seen.into_iter().filter(|&s| s).count();
        assert_eq!(claimed, p.num_blocks() * 128, "every block must be claimed");
    }
}
