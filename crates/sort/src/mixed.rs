//! Mixed-mode parallel Quicksort — the paper's Algorithm 11 ("MMPar").
//!
//! ```text
//! mmqsort(data, n):                                     // N = the root's n
//!     if np = 1: return qsort(data, n)                  // Algorithm 10
//!     pivot <- parallel_partition(data, n)              // team task
//!     if localId = 0:
//!         async(width(pivot))       mmqsort(data, pivot)
//!         async(width(n - pivot-1)) mmqsort(data + pivot + 1, n - pivot - 1)
//!         sync
//!
//! width(len) = min(getBestNp(len), prev_pow2(max(1, p * len / N)))
//! ```
//!
//! The partitioning step is a data-parallel task executed by a team of `np`
//! threads built by the scheduler; the recursion spawns smaller teams (only
//! powers of two, as in the paper) until the width is 1, at which point the
//! classic fork-join Quicksort ([`crate::fork`]) takes over.  There is no
//! separate `sync`: the scheduler scope that submitted the root task detects
//! global completion.
//!
//! The width deviates from the paper, whose `getBestNp` looks at `len` alone:
//! a subrange also never gets a team wider than its share `p * len / N` of the
//! machine (rounded down — a child wider than its share can only form by
//! taking a worker away from its sibling).  The root still gets
//! `getBestNp(N)`; below it the teams of one level together cover the machine
//! and run side by side instead of queueing for it, and at `p = 2` everything
//! below the root is Algorithm 10's task (DESIGN.md §5, "Share cap").

use std::sync::Arc;

use teamsteal_core::{Scheduler, TaskContext};
use teamsteal_util::bits::prev_pow2;
use teamsteal_util::SendMutPtr;

use crate::fork::sort_task;
use crate::parallel_partition::ParallelPartitioner;
use crate::seq::{partition_lt, pivot};
use crate::SortConfig;

/// The paper's `getBestNp(n)`: the number of threads to use for the
/// data-parallel partitioning of `n` elements — the largest power of two such
/// that every thread still processes at least
/// [`SortConfig::min_blocks_per_thread`] blocks, clamped to the number of
/// scheduler threads.  Returns 1 when data-parallel partitioning is not worth
/// its overhead (the caller then falls back to Algorithm 10).
pub fn best_np(n: usize, num_threads: usize, config: &SortConfig) -> usize {
    if num_threads <= 1 {
        return 1;
    }
    let blocks = n / config.block_size.max(1);
    let by_blocks = blocks / config.min_blocks_per_thread.max(1);
    let cap = by_blocks.min(num_threads);
    if cap <= 1 {
        1
    } else {
        prev_pow2(cap)
    }
}

/// Team width for the partitioning step of a `len`-element subrange of a sort
/// whose root holds `root_len` elements: [`best_np`], capped by the subrange's
/// share `num_threads * len / root_len` of the machine rounded down to a power
/// of two (at least 1).  The root itself gets `best_np(root_len)`.
fn team_width(len: usize, root_len: usize, num_threads: usize, config: &SortConfig) -> usize {
    // u128: the product cannot overflow on any target.
    let share = num_threads as u128 * len as u128 / root_len.max(1) as u128;
    let share = usize::try_from(share).unwrap_or(usize::MAX);
    best_np(len, num_threads, config).min(prev_pow2(share.max(1)))
}

/// Sorts `data` with the mixed-mode parallel Quicksort (Algorithm 11) on the
/// given scheduler.  Blocks until the array is fully sorted.
pub fn mixed_mode_sort(scheduler: &Scheduler, data: &mut [u32], config: &SortConfig) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let ptr = SendMutPtr::from_slice(data);
    let config = Arc::new(config.clone());
    let p = scheduler.num_threads();
    let np = team_width(n, n, p, &config);
    scheduler.scope(|scope| {
        if np <= 1 {
            let config = Arc::clone(&config);
            scope.spawn(move |ctx| sort_task(ctx, ptr, n, &config));
        } else {
            scope.spawn_team(np, mm_task(ptr, n, n, p, Arc::clone(&config)));
        }
    });
}

/// Builds the team-task closure for one mixed-mode recursion step over
/// `ptr[0 .. n]` of a sort whose root holds `root_len` elements.
///
/// The pivot is chosen ([`pivot`]) by the spawner, which at that point
/// has exclusive access to the subrange; the per-step
/// [`ParallelPartitioner`] is created here as well so all team members share
/// it through the captured `Arc`.
fn mm_task(
    ptr: SendMutPtr<u32>,
    n: usize,
    root_len: usize,
    num_threads: usize,
    config: Arc<SortConfig>,
) -> impl Fn(&TaskContext<'_>) + Send + Sync + 'static {
    // SAFETY: the spawner owns ptr[0..n] exclusively until the spawned task
    // starts running.
    let pivot = pivot(unsafe { ptr.slice_mut(n) });
    let partitioner = Arc::new(ParallelPartitioner::new(n, config.block_size, num_threads));
    move |ctx: &TaskContext<'_>| {
        let split = partitioner.run(ctx, ptr, pivot);
        if ctx.local_id() != 0 {
            // Algorithm 11: only local id 0 launches the subtasks.
            return;
        }
        if split == n {
            // Degenerate case: every element is <= pivot (duplicate-heavy
            // input).  Split off the elements equal to the pivot — they are
            // already in their final position — and recurse on the rest only.
            // SAFETY: the team task owns ptr[0..n]; all other members are
            // done with the step (its closing barrier ensures that).
            let lt = partition_lt(unsafe { ptr.slice_mut(n) }, pivot);
            spawn_recursive(ctx, ptr, lt, root_len, &config);
        } else {
            spawn_recursive(ctx, ptr, split, root_len, &config);
            // SAFETY: split <= n, offset stays inside the allocation.
            let right = unsafe { ptr.add(split) };
            spawn_recursive(ctx, right, n - split, root_len, &config);
        }
    }
}

/// Spawns the sort of one subrange, choosing between another mixed-mode team
/// task and the fork-join Quicksort based on [`team_width`].
fn spawn_recursive(
    ctx: &TaskContext<'_>,
    ptr: SendMutPtr<u32>,
    len: usize,
    root_len: usize,
    config: &Arc<SortConfig>,
) {
    if len <= 1 {
        return;
    }
    let p = ctx.num_threads();
    let np = team_width(len, root_len, p, config);
    if np <= 1 {
        let config = Arc::clone(config);
        ctx.spawn(move |ctx| sort_task(ctx, ptr, len, &config));
    } else {
        ctx.spawn_team(np, mm_task(ptr, len, root_len, p, Arc::clone(config)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use teamsteal_core::test_support::{with_watchdog, WATCHDOG};
    use teamsteal_core::StealPolicy;
    use teamsteal_data::{is_permutation_of, is_sorted, Distribution};

    #[test]
    fn best_np_policy() {
        let cfg = SortConfig {
            cutoff: 512,
            block_size: 1024,
            min_blocks_per_thread: 16,
        };
        // Too little data: stay sequential.
        assert_eq!(best_np(10_000, 8, &cfg), 1);
        // 1M elements = 1024 blocks = enough for 64 threads at 16 blocks each,
        // but clamped to the machine size.
        assert_eq!(best_np(1 << 20, 8, &cfg), 8);
        assert_eq!(best_np(1 << 20, 16, &cfg), 16);
        assert_eq!(best_np(1 << 20, 128, &cfg), 64);
        // Only powers of two are returned.
        assert_eq!(best_np(1 << 20, 6, &cfg), 4);
        assert_eq!(best_np(1 << 20, 1, &cfg), 1);
        // Paper parameters need correspondingly more data per thread.
        let paper = SortConfig::paper();
        assert_eq!(best_np(10_000_000, 8, &paper), 8);
        assert_eq!(best_np(1_000_000, 8, &paper), 1);
    }

    /// A configuration whose `best_np` floor (one element per member) never
    /// binds, so the tables below read the share cap alone.
    const NO_FLOOR: SortConfig = SortConfig {
        cutoff: 512,
        block_size: 1,
        min_blocks_per_thread: 1,
    };

    #[test]
    fn team_width_is_the_floor_of_the_share() {
        const N: usize = 1 << 22;
        let width = |len, p| team_width(len, N, p, &NO_FLOOR);
        for p in [2usize, 4, 6, 32] {
            assert_eq!(width(N, p), best_np(N, p, &NO_FLOOR), "root at p = {p}");
            // Anything under N / p is Fork's task.
            assert_eq!(width(N / p - 1, p), 1, "p = {p}");
            assert_eq!(width(N / p / 3, p), 1, "p = {p}");
        }
        // p = 2: the root gets the team, nothing below it does.
        assert_eq!(width(N / 2, 2), 1);
        assert_eq!(width(N - 1, 2), 1);
        // Floor, never round up: 4.8 -> 4 and 3.2 -> 2 members.
        assert_eq!(width(N / 10 * 6, 8), 4);
        assert_eq!(width(N / 10 * 4, 8), 2);
        // p = 6: shares 3 and 2.99 -> 2; p = 32: the root's two halves get 16.
        assert_eq!(width(N / 2, 6), 2);
        assert_eq!(width(N / 2, 32), 16);
        assert_eq!(width(N / 2 - 1, 32), 8);
        // The paper's floor still applies below the cap.
        let cfg = SortConfig::default();
        assert_eq!(team_width(1 << 20, 1 << 20, 128, &cfg), 64);
        assert_eq!(team_width(1 << 15, 1 << 16, 8, &cfg), 2);
        assert_eq!(team_width(1 << 14, 1 << 16, 8, &cfg), 1);
        // Degenerate arguments stay in range.
        assert_eq!(team_width(0, 0, 4, &cfg), 1);
        let top_bit = 1 << (usize::BITS - 1);
        assert_eq!(
            team_width(usize::MAX, usize::MAX, usize::MAX, &NO_FLOOR),
            top_bit
        );
    }

    proptest! {
        #[test]
        fn team_width_is_a_capped_monotone_power_of_two(
            root_len in 1usize..(1 << 24),
            a in 0usize..(1 << 24),
            b in 0usize..(1 << 24),
            p in 1usize..70,
            floor in any::<bool>(),
        ) {
            let config = if floor { SortConfig::default() } else { NO_FLOOR };
            let (a, b) = (a % (root_len + 1), b % (root_len + 1));
            let (lo, hi) = (a.min(b), a.max(b));
            let w_lo = team_width(lo, root_len, p, &config);
            let w_hi = team_width(hi, root_len, p, &config);
            prop_assert!(w_lo.is_power_of_two() && w_hi.is_power_of_two());
            prop_assert!(w_lo <= w_hi, "not monotone: {lo} -> {w_lo}, {hi} -> {w_hi}");
            prop_assert!(w_hi <= best_np(hi, p, &config));
        }

        /// However the recursion cuts the root, the teams of one level never
        /// ask for more workers than the machine has.
        #[test]
        fn teams_of_any_split_fit_the_machine(
            root_len in 1usize..(1 << 24),
            cuts in proptest::collection::vec(any::<usize>(), 0..12),
            p in 1usize..70,
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (root_len + 1)).collect();
            cuts.extend([0, root_len]);
            cuts.sort_unstable();
            let team_members: usize = cuts
                .windows(2)
                .map(|w| team_width(w[1] - w[0], root_len, p, &NO_FLOOR))
                .filter(|&width| width > 1)
                .sum();
            prop_assert!(team_members <= p, "{team_members} members on {p} threads");
        }
    }

    fn check_mm_sort(scheduler: &Scheduler, n: usize, config: &SortConfig, seed: u64) {
        for d in Distribution::ALL {
            let original = d.generate(n, scheduler.num_threads(), seed);
            let mut v = original.clone();
            mixed_mode_sort(scheduler, &mut v, config);
            assert!(is_sorted(&v), "{d:?} not sorted (n={n})");
            assert!(is_permutation_of(&original, &v), "{d:?} corrupted (n={n})");
        }
    }

    #[test]
    fn sorts_with_a_small_config_on_four_threads() {
        with_watchdog(
            "sorts_with_a_small_config_on_four_threads",
            WATCHDOG,
            || {
                let s = Scheduler::with_threads(4);
                let cfg = SortConfig {
                    cutoff: 256,
                    block_size: 512,
                    min_blocks_per_thread: 4,
                };
                check_mm_sort(&s, 200_000, &cfg, 11);
                // Teams must actually have been built for the partitioning step.
                let m = s.metrics();
                assert!(m.teams_formed > 0, "mixed-mode sort should form teams");
                assert!(m.team_tasks_executed > 0);
            },
        );
    }

    #[test]
    fn sorts_on_two_threads() {
        let s = Scheduler::with_threads(2);
        let cfg = SortConfig {
            cutoff: 256,
            block_size: 512,
            min_blocks_per_thread: 4,
        };
        check_mm_sort(&s, 100_000, &cfg, 12);
    }

    /// Default configuration, so the team steps run from 2^20 elements down
    /// to `best_np`'s 32 Ki-element floor and the fork-join leaf below it.
    #[test]
    fn matches_sort_unstable_on_a_million_elements() {
        let s = Scheduler::with_threads(2);
        for d in Distribution::ALL {
            let mut v = d.generate(1 << 20, 2, 16);
            let mut reference = v.clone();
            reference.sort_unstable();
            mixed_mode_sort(&s, &mut v, &SortConfig::default());
            assert!(v == reference, "{d:?} differs from sort_unstable");
        }
        assert!(s.metrics().team_tasks_executed > 0);
    }

    #[test]
    fn sorts_on_non_power_of_two_threads() {
        with_watchdog("sorts_on_non_power_of_two_threads", WATCHDOG, || {
            let s = Scheduler::with_threads(3);
            let cfg = SortConfig {
                cutoff: 256,
                block_size: 512,
                min_blocks_per_thread: 4,
            };
            check_mm_sort(&s, 150_000, &cfg, 13);
        });
    }

    #[test]
    fn sorts_with_randomized_within_level_stealing() {
        with_watchdog(
            "sorts_with_randomized_within_level_stealing",
            WATCHDOG,
            || {
                let s = Scheduler::builder()
                    .threads(4)
                    .steal_policy(StealPolicy::RandomizedWithinLevel)
                    .build();
                let cfg = SortConfig {
                    cutoff: 256,
                    block_size: 512,
                    min_blocks_per_thread: 4,
                };
                check_mm_sort(&s, 150_000, &cfg, 14);
            },
        );
    }

    #[test]
    fn falls_back_to_fork_join_for_small_inputs() {
        with_watchdog("falls_back_to_fork_join_for_small_inputs", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            check_mm_sort(&s, 5_000, &SortConfig::default(), 15);
            let m = s.metrics();
            assert_eq!(
                m.teams_formed, 0,
                "small inputs must not pay the team-building overhead"
            );
        });
    }

    #[test]
    fn duplicate_heavy_input_terminates_and_sorts() {
        with_watchdog(
            "duplicate_heavy_input_terminates_and_sorts",
            WATCHDOG,
            || {
                let s = Scheduler::with_threads(4);
                let cfg = SortConfig {
                    cutoff: 128,
                    block_size: 256,
                    min_blocks_per_thread: 2,
                };
                let original: Vec<u32> = (0..100_000).map(|i| (i % 3) as u32).collect();
                let mut v = original.clone();
                mixed_mode_sort(&s, &mut v, &cfg);
                assert!(is_sorted(&v));
                assert!(is_permutation_of(&original, &v));
                // Fully constant input as the extreme case.
                let mut constant = vec![7u32; 50_000];
                mixed_mode_sort(&s, &mut constant, &cfg);
                assert!(constant.iter().all(|&x| x == 7));
            },
        );
    }

    #[test]
    fn tiny_inputs_and_reuse() {
        with_watchdog("tiny_inputs_and_reuse", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            for v in [vec![], vec![1u32], vec![2, 1]] {
                let mut sorted = v.clone();
                mixed_mode_sort(&s, &mut sorted, &SortConfig::default());
                assert!(is_sorted(&sorted));
            }
            for round in 0..3 {
                check_mm_sort(
                    &s,
                    80_000,
                    &SortConfig {
                        cutoff: 256,
                        block_size: 512,
                        min_blocks_per_thread: 4,
                    },
                    round,
                );
            }
        });
    }
}
