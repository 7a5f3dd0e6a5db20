//! Task-parallel (fork-join) Quicksort — the paper's Algorithm 10.
//!
//! ```text
//! qsort(data, n):
//!     if n <= CUTOFF: return sequential_sort(data, n)
//!     pivot <- partition(data, n)          // sequential partitioning
//!     async qsort(data, pivot)             // two independent subtasks
//!     async qsort(data + pivot + 1, n - pivot - 1)
//!     sync
//! ```
//!
//! The `sequential_sort` at the cutoff is [`sort_leaf`], the leaf SeqQS
//! runs too.
//!
//! Every task has thread requirement 1, so this is exactly the workload a
//! classical work-stealer handles; run on the `teamsteal` scheduler it is the
//! paper's *Fork* column (deterministic stealing) or *Randfork* column
//! (uniformly random stealing), depending on the scheduler's
//! [`StealPolicy`](teamsteal_core::StealPolicy).
//!
//! The paper's `sync` is realized through the scheduler's scope: the two
//! subsequences are disjoint, so the parent task does not need to wait for
//! its children — global completion is detected when the enclosing
//! [`Scheduler::scope`](teamsteal_core::Scheduler::scope) drains.

use std::sync::Arc;

use teamsteal_core::{Scheduler, TaskContext};
use teamsteal_util::SendMutPtr;

use crate::seq::{pivot, sort_leaf, split_around};
use crate::SortConfig;

/// Sorts `data` with the task-parallel Quicksort of Algorithm 10 on the given
/// scheduler.  Blocks until the array is fully sorted.
pub fn fork_join_sort(scheduler: &Scheduler, data: &mut [u32], config: &SortConfig) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let ptr = SendMutPtr::from_slice(data);
    let config = Arc::new(config.clone());
    scheduler.scope(|scope| {
        let config = Arc::clone(&config);
        scope.spawn(move |ctx| sort_task(ctx, ptr, n, &config));
    });
    // `scope` returns only after every recursively spawned task has finished,
    // so `data` is fully sorted (and no task can outlive the borrow).
}

/// The recursive task body: partition sequentially, spawn the two halves.
///
/// # Safety contract
///
/// `ptr[0 .. n]` must be a valid, exclusively owned region for the duration
/// of this task tree; the recursion only ever hands out disjoint subranges.
pub(crate) fn sort_task(
    ctx: &TaskContext<'_>,
    ptr: SendMutPtr<u32>,
    n: usize,
    config: &Arc<SortConfig>,
) {
    // SAFETY: the caller guarantees exclusive ownership of ptr[0..n]; child
    // tasks receive disjoint subranges, so no two tasks alias.
    let data = unsafe { ptr.slice_mut(n) };
    if n <= config.cutoff.max(1) {
        sort_leaf(data);
        return;
    }
    let pivot = pivot(data);
    let (left_len, right_start) = split_around(data, pivot);
    let right_len = n - right_start;
    if left_len > 0 {
        let config = Arc::clone(config);
        ctx.spawn(move |ctx| sort_task(ctx, ptr, left_len, &config));
    }
    if right_len > 0 {
        let config = Arc::clone(config);
        // SAFETY: right_start <= n, so the offset stays inside the allocation.
        let right_ptr = unsafe { ptr.add(right_start) };
        ctx.spawn(move |ctx| sort_task(ctx, right_ptr, right_len, &config));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::sequential_quicksort;
    use teamsteal_core::test_support::{with_watchdog, WATCHDOG};
    use teamsteal_core::StealPolicy;
    use teamsteal_data::{is_permutation_of, is_sorted, Distribution};

    fn check_sort(scheduler: &Scheduler, n: usize, seed: u64) {
        for d in Distribution::ALL {
            let original = d.generate(n, scheduler.num_threads(), seed);
            let mut v = original.clone();
            fork_join_sort(scheduler, &mut v, &SortConfig::default());
            assert!(is_sorted(&v), "{d:?} not sorted (n={n})");
            assert!(is_permutation_of(&original, &v), "{d:?} corrupted (n={n})");
        }
    }

    #[test]
    fn sorts_on_a_single_thread() {
        let s = Scheduler::with_threads(1);
        check_sort(&s, 20_000, 1);
    }

    #[test]
    fn sorts_on_four_threads_deterministic() {
        with_watchdog("sorts_on_four_threads_deterministic", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            check_sort(&s, 100_000, 2);
        });
    }

    #[test]
    fn sorts_on_three_threads_randomized_within_level() {
        with_watchdog(
            "sorts_on_three_threads_randomized_within_level",
            WATCHDOG,
            || {
                let s = Scheduler::builder()
                    .threads(3)
                    .steal_policy(StealPolicy::RandomizedWithinLevel)
                    .build();
                check_sort(&s, 50_000, 3);
            },
        );
    }

    #[test]
    fn sorts_with_uniform_random_stealing() {
        with_watchdog("sorts_with_uniform_random_stealing", WATCHDOG, || {
            let s = Scheduler::builder()
                .threads(4)
                .steal_policy(StealPolicy::UniformRandom)
                .build();
            check_sort(&s, 50_000, 4);
        });
    }

    /// One worker can finish a 200 000-element sort (~5 ms) before any
    /// parked worker's wake lands, so the sort repeats until a steal is
    /// observed; the watchdog bounds the attempts.
    #[test]
    fn stealing_actually_happens_on_multiple_workers() {
        with_watchdog(
            "stealing_actually_happens_on_multiple_workers",
            WATCHDOG,
            || {
                const ATTEMPTS: u64 = 1_000;
                let s = Scheduler::with_threads(4);
                for attempt in 0..ATTEMPTS {
                    let mut v = Distribution::Random.generate(200_000, 4, 5 + attempt);
                    fork_join_sort(&s, &mut v, &SortConfig::default());
                    assert!(is_sorted(&v));
                    let m = s.metrics();
                    assert_eq!(m.teams_formed, 0, "fork-join variant never builds teams");
                    if m.steals > 0 {
                        return;
                    }
                }
                panic!("{ATTEMPTS} parallel quicksorts on 4 workers triggered no steal");
            },
        );
    }

    #[test]
    fn matches_sort_unstable_on_a_million_elements() {
        let s = Scheduler::with_threads(2);
        for d in Distribution::ALL {
            let mut v = d.generate(1 << 20, 2, 6);
            let mut reference = v.clone();
            reference.sort_unstable();
            fork_join_sort(&s, &mut v, &SortConfig::default());
            assert!(v == reference, "{d:?} differs from sort_unstable");
        }
    }

    /// The shapes where the partition's prefix/suffix trim and its second,
    /// `< pivot` pass do the work, at a size with many recursion levels.
    #[test]
    fn sequential_and_fork_join_match_sort_unstable_on_structured_inputs() {
        with_watchdog(
            "sequential_and_fork_join_match_sort_unstable_on_structured_inputs",
            WATCHDOG,
            || {
                const N: u32 = 1 << 16;
                let shapes: [(&str, Vec<u32>); 5] = [
                    ("sorted", (0..N).collect()),
                    ("reversed", (0..N).rev().collect()),
                    ("organ-pipe", (0..N).map(|i| i.min(N - 1 - i)).collect()),
                    ("constant", vec![7; N as usize]),
                    (
                        "two-value",
                        (0..N).map(|i| (i * 7 % 5 < 2) as u32).collect(),
                    ),
                ];
                let s = Scheduler::with_threads(2);
                let config = SortConfig::default();
                for (shape, input) in shapes {
                    let mut reference = input.clone();
                    reference.sort_unstable();
                    let mut seq = input.clone();
                    sequential_quicksort(&mut seq, &config);
                    assert!(seq == reference, "{shape}: sequential_quicksort differs");
                    let mut fork = input;
                    fork_join_sort(&s, &mut fork, &config);
                    assert!(fork == reference, "{shape}: fork_join_sort differs");
                }
            },
        );
    }

    #[test]
    fn tiny_and_empty_inputs() {
        let s = Scheduler::with_threads(2);
        for v in [vec![], vec![1u32], vec![2, 1], vec![1, 2, 3]] {
            let mut sorted = v.clone();
            fork_join_sort(&s, &mut sorted, &SortConfig::default());
            assert!(is_sorted(&sorted));
            assert!(is_permutation_of(&v, &sorted));
        }
    }

    #[test]
    fn repeated_use_of_the_same_scheduler() {
        with_watchdog("repeated_use_of_the_same_scheduler", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            for round in 0..5 {
                let original = Distribution::Staggered.generate(30_000, 4, round);
                let mut v = original.clone();
                fork_join_sort(&s, &mut v, &SortConfig::default());
                assert!(is_sorted(&v));
                assert!(is_permutation_of(&original, &v));
            }
        });
    }
}
