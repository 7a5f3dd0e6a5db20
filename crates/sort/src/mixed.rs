//! Mixed-mode parallel Quicksort — the paper's Algorithm 11 ("MMPar").
//!
//! ```text
//! mmqsort(data, n):
//!     if np = 1: return qsort(data, n)                  // Algorithm 10
//!     pivot <- parallel_partition(data, n)              // team task
//!     if localId = 0:
//!         async(getBestNp(pivot))       mmqsort(data, pivot)
//!         async(getBestNp(n - pivot-1)) mmqsort(data + pivot + 1, n - pivot - 1)
//!         sync
//! ```
//!
//! The partitioning step is a data-parallel task executed by a team of
//! `np = getBestNp(n)` threads built by the scheduler; the recursion spawns
//! smaller teams (only powers of two, as in the paper) until [`best_np`]
//! returns 1, at which point the classic fork-join Quicksort
//! ([`crate::fork`]) takes over.  There is no separate `sync`: the scheduler
//! scope that submitted the root task detects global completion.

use std::sync::Arc;

use teamsteal_core::{Scheduler, TaskContext};
use teamsteal_util::bits::prev_pow2;
use teamsteal_util::SendMutPtr;

use crate::fork::sort_task;
use crate::parallel_partition::ParallelPartitioner;
use crate::seq::{median_of_three, partition_by};
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
    let np = best_np(n, p, &config);
    scheduler.scope(|scope| {
        if np <= 1 {
            let config = Arc::clone(&config);
            scope.spawn(move |ctx| sort_task(ctx, ptr, n, &config));
        } else {
            scope.spawn_team(np, mm_task(ptr, n, p, Arc::clone(&config)));
        }
    });
}

/// Builds the team-task closure for one mixed-mode recursion step over
/// `ptr[0 .. n]`.
///
/// The pivot is chosen (median of three) by the spawner, which at that point
/// has exclusive access to the subrange; the per-step
/// [`ParallelPartitioner`] is created here as well so all team members share
/// it through the captured `Arc`.
fn mm_task(
    ptr: SendMutPtr<u32>,
    n: usize,
    num_threads: usize,
    config: Arc<SortConfig>,
) -> impl Fn(&TaskContext<'_>) + Send + Sync + 'static {
    // SAFETY: the spawner owns ptr[0..n] exclusively until the spawned task
    // starts running.
    let pivot = median_of_three(unsafe { ptr.slice_mut(n) });
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
            // done with phase 1 (the partitioner's barriers ensure that).
            let data = unsafe { ptr.slice_mut(n) };
            let lt = partition_by(data, |x| x < pivot);
            spawn_recursive(ctx, ptr, lt, &config);
        } else {
            spawn_recursive(ctx, ptr, split, &config);
            // SAFETY: split <= n, offset stays inside the allocation.
            let right = unsafe { ptr.add(split) };
            spawn_recursive(ctx, right, n - split, &config);
        }
    }
}

/// Spawns the sort of one subrange, choosing between another mixed-mode team
/// task and the fork-join Quicksort based on [`best_np`].
fn spawn_recursive(ctx: &TaskContext<'_>, ptr: SendMutPtr<u32>, len: usize, config: &Arc<SortConfig>) {
    if len <= 1 {
        return;
    }
    let np = best_np(len, ctx.num_threads(), config);
    if np <= 1 {
        let config = Arc::clone(config);
        ctx.spawn(move |ctx| sort_task(ctx, ptr, len, &config));
    } else {
        ctx.spawn_team(np, mm_task(ptr, len, ctx.num_threads(), Arc::clone(config)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        with_watchdog("sorts_with_a_small_config_on_four_threads", WATCHDOG, || {
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
        });
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
        with_watchdog("sorts_with_randomized_within_level_stealing", WATCHDOG, || {
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
        });
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
        with_watchdog("duplicate_heavy_input_terminates_and_sorts", WATCHDOG, || {
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
        });
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
