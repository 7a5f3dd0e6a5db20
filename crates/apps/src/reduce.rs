//! Team-parallel reductions.
//!
//! A reduction is the simplest data-parallel kernel: every team member folds
//! a disjoint, contiguous chunk of the input into a private partial result,
//! the team synchronizes once, and the barrier leader combines the partials.
//! On the `teamsteal` scheduler the whole reduction is **one** team task, so
//! the cost of assembling the workers is exactly one registration CAS per
//! member (Section 3 of the paper) — there is no per-chunk task spawn as in a
//! fork-join formulation.
//!
//! The team size follows the paper's `getBestNp` policy
//! ([`best_team_size`]): the largest power of two that
//! still leaves every member a meaningful amount of work, and plain
//! sequential execution below that threshold.

use std::ops::Range;
use std::sync::Arc;

use teamsteal_core::Scheduler;
use teamsteal_util::SendConstPtr;

use crate::slots::TeamSlots;
use crate::team_size::{best_team_size, chunk_range};

/// Default minimum number of elements each team member must receive before a
/// team reduction is worth its formation overhead (one CAS per member plus a
/// barrier).  Below this the reduction runs sequentially on the caller.
pub const MIN_ELEMENTS_PER_MEMBER: usize = 8 * 1024;

/// Reduces `data` with the associative operation `combine` (identity element
/// `identity`) using a single data-parallel team task.
///
/// `combine` must be associative; if it is also commutative the result is
/// identical to the sequential fold, otherwise the chunked evaluation order
/// still yields the same result for associative operations because chunks are
/// combined left-to-right.
///
/// ```
/// use teamsteal_core::Scheduler;
/// use teamsteal_apps::reduce::team_reduce;
///
/// let scheduler = Scheduler::with_threads(2);
/// let data: Vec<u64> = (0..50_000).collect();
/// let max = team_reduce(&scheduler, &data, 0u64, |a, b| a.max(b));
/// assert_eq!(max, 49_999);
/// ```
pub fn team_reduce<T, F>(scheduler: &Scheduler, data: &[T], identity: T, combine: F) -> T
where
    T: Copy + Send + Sync + 'static,
    F: Fn(T, T) -> T + Send + Sync + 'static,
{
    reduce_with_floor(scheduler, data, identity, combine, MIN_ELEMENTS_PER_MEMBER)
}

/// [`team_reduce`] with the per-member floor as a parameter.
fn reduce_with_floor<T, F>(
    scheduler: &Scheduler,
    data: &[T],
    identity: T,
    combine: F,
    min_per_member: usize,
) -> T
where
    T: Copy + Send + Sync + 'static,
    F: Fn(T, T) -> T + Send + Sync + 'static,
{
    let n = data.len();
    let input = SendConstPtr::from_slice(data);
    let fold = move |range: Range<usize>, combine: &F| {
        // SAFETY: `data` outlives the blocking `team_fold` call, and nobody
        // mutates it while the fold reads it.
        let slice = unsafe { input.slice(n) };
        reduce_sequential(&slice[range], identity, combine)
    };
    team_fold(scheduler, n, min_per_member, identity, combine, fold)
}

/// Sequential reference: `data` folded with `combine` from `identity`, the
/// path [`team_reduce`] takes below its team floor.
pub(crate) fn reduce_sequential<T, F>(data: &[T], identity: T, combine: F) -> T
where
    T: Copy,
    F: Fn(T, T) -> T,
{
    data.iter().copied().fold(identity, combine)
}

/// The team body of every reduction: `fold` turns a range of `0..n` into a
/// partial result.  At or above the floor one team task gives each member
/// its chunk of the range, and the barrier leader combines the partials
/// left to right; below it `fold(0..n)` runs on the caller.
fn team_fold<T, F, C>(
    scheduler: &Scheduler,
    n: usize,
    min_per_member: usize,
    identity: T,
    combine: C,
    fold: F,
) -> T
where
    T: Copy + Send + Sync + 'static,
    F: Fn(Range<usize>, &C) -> T + Send + Sync + 'static,
    C: Fn(T, T) -> T + Send + Sync + 'static,
{
    if n == 0 {
        return identity;
    }
    let p = scheduler.num_threads();
    let team = best_team_size(n, min_per_member, p);
    if team <= 1 {
        return fold(0..n, &combine);
    }

    // Slots are sized to the machine, not the request: on non power-of-two
    // machines (Refinement 3) the executing team may be the enclosing
    // hierarchy group and therefore larger than `team`.
    let partials = Arc::new(TeamSlots::new(p, identity));
    let result = Arc::new(TeamSlots::new(1, identity));
    {
        let partials = Arc::clone(&partials);
        let result = Arc::clone(&result);
        scheduler.run_team(team, move |ctx| {
            let members = ctx.team_size();
            let me = ctx.local_id();
            let acc = fold(chunk_range(n, members, me), &combine);
            // SAFETY: slot `me` is written only by this member before the
            // barrier.
            unsafe { partials.write(me, acc) };
            if ctx.barrier() {
                // Exactly one member (the last arriver) combines the partials.
                let mut total = identity;
                for i in 0..members {
                    // SAFETY: all members wrote their slot before the barrier.
                    total = combine(total, unsafe { partials.read(i) });
                }
                // SAFETY: only the single barrier leader writes the result.
                unsafe { result.write(0, total) };
            }
        });
    }

    // SAFETY: run_team returned, so every member (including the leader that
    // wrote the result) has finished; scope completion orders that write
    // before this read.
    unsafe { result.read(0) }
}

/// Sum of a `u64` slice via a team reduction.
pub fn parallel_sum(scheduler: &Scheduler, data: &[u64]) -> u64 {
    team_reduce(scheduler, data, 0u64, |a, b| a.wrapping_add(b))
}

/// Minimum of a slice via a team reduction; `None` for an empty slice.
pub fn parallel_min(scheduler: &Scheduler, data: &[u64]) -> Option<u64> {
    if data.is_empty() {
        return None;
    }
    Some(team_reduce(scheduler, data, u64::MAX, |a, b| a.min(b)))
}

/// Maximum of a slice via a team reduction; `None` for an empty slice.
pub fn parallel_max(scheduler: &Scheduler, data: &[u64]) -> Option<u64> {
    if data.is_empty() {
        return None;
    }
    Some(team_reduce(scheduler, data, u64::MIN, |a, b| a.max(b)))
}

/// Dot product of two equally long `f64` slices via a team reduction over the
/// index range (each member accumulates its chunk of pairwise products).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot_product(scheduler: &Scheduler, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot product requires equally long vectors"
    );
    let n = a.len();
    let (pa, pb) = (SendConstPtr::from_slice(a), SendConstPtr::from_slice(b));
    let products = move |range: Range<usize>| -> f64 {
        // SAFETY: both inputs outlive the blocking `team_fold` call and are
        // never mutated.
        let (a, b) = unsafe { (pa.slice(n), pb.slice(n)) };
        a[range.clone()]
            .iter()
            .zip(&b[range])
            .map(|(x, y)| x * y)
            .sum()
    };
    let add = |x, y| x + y;
    team_fold(
        scheduler,
        n,
        MIN_ELEMENTS_PER_MEMBER,
        0.0,
        add,
        move |r, _| products(r),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use teamsteal_core::test_support::{with_watchdog, WATCHDOG};

    fn scheduler() -> Scheduler {
        Scheduler::with_threads(4)
    }

    #[test]
    fn empty_input_returns_identity() {
        with_watchdog("empty_input_returns_identity", WATCHDOG, || {
            let s = scheduler();
            assert_eq!(team_reduce(&s, &[], 7u64, |a, b| a + b), 7);
            assert_eq!(parallel_sum(&s, &[]), 0);
            assert_eq!(parallel_min(&s, &[]), None);
            assert_eq!(parallel_max(&s, &[]), None);
            assert_eq!(dot_product(&s, &[], &[]), 0.0);
        });
    }

    #[test]
    fn small_input_stays_sequential_but_correct() {
        with_watchdog("small_input_stays_sequential_but_correct", WATCHDOG, || {
            let s = scheduler();
            let data: Vec<u64> = (1..=1000).collect();
            assert_eq!(parallel_sum(&s, &data), 500_500);
            assert_eq!(
                s.metrics().teams_formed,
                0,
                "small inputs must not build teams"
            );
        });
    }

    #[test]
    fn large_sum_uses_a_team_and_matches_sequential() {
        with_watchdog(
            "large_sum_uses_a_team_and_matches_sequential",
            WATCHDOG,
            || {
                let s = scheduler();
                let data: Vec<u64> = (0..200_000).map(|i| i % 1000).collect();
                let expected: u64 = data.iter().sum();
                assert_eq!(
                    reduce_with_floor(&s, &data, 0, |a, b| a + b, 1024),
                    expected
                );
                let m = s.metrics();
                assert!(
                    m.teams_formed > 0,
                    "large reductions must run as a team task"
                );
                assert!(m.team_tasks_executed > 0);
            },
        );
    }

    #[test]
    fn min_max_on_large_input() {
        with_watchdog("min_max_on_large_input", WATCHDOG, || {
            let s = scheduler();
            let data: Vec<u64> = (0..100_000)
                .map(|i| (i * 2654435761u64) % 1_000_003)
                .collect();
            assert_eq!(parallel_min(&s, &data), data.iter().copied().min());
            assert_eq!(parallel_max(&s, &data), data.iter().copied().max());
        });
    }

    #[test]
    fn dot_product_matches_sequential_for_large_inputs() {
        with_watchdog(
            "dot_product_matches_sequential_for_large_inputs",
            WATCHDOG,
            || {
                let s = scheduler();
                let n = 120_000;
                let a: Vec<f64> = (0..n).map(|i| (i % 17) as f64 * 0.25).collect();
                let b: Vec<f64> = (0..n).map(|i| (i % 13) as f64 * 0.5).collect();
                let expected: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
                let got = dot_product(&s, &a, &b);
                // Chunked summation reorders additions; allow a tiny relative error.
                let rel = (got - expected).abs() / expected.abs().max(1.0);
                assert!(rel < 1e-9, "got {got}, expected {expected}");
            },
        );
    }

    #[test]
    #[should_panic]
    fn dot_product_rejects_mismatched_lengths() {
        with_watchdog("dot_product_rejects_mismatched_lengths", WATCHDOG, || {
            let s = scheduler();
            let _ = dot_product(&s, &[1.0, 2.0], &[1.0]);
        });
    }

    #[test]
    fn works_on_a_single_threaded_scheduler() {
        let s = Scheduler::with_threads(1);
        let data: Vec<u64> = (0..50_000).collect();
        assert_eq!(parallel_sum(&s, &data), data.iter().sum::<u64>());
    }

    #[test]
    fn works_on_non_power_of_two_thread_counts() {
        with_watchdog("works_on_non_power_of_two_thread_counts", WATCHDOG, || {
            let s = Scheduler::with_threads(3);
            let data: Vec<u64> = (0..150_000).map(|i| i % 7).collect();
            assert_eq!(
                reduce_with_floor(&s, &data, 0, |a, b| a + b, 1024),
                data.iter().sum::<u64>()
            );
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_sum_matches_sequential(data in proptest::collection::vec(0u64..1_000, 0..4_000)) {
            let s = Scheduler::with_threads(2);
            // Force small chunks so teams form even for modest inputs.
            let got = reduce_with_floor(&s, &data, 0, |a, b| a + b, 64);
            prop_assert_eq!(got, data.iter().sum::<u64>());
        }

        #[test]
        fn prop_min_matches_sequential(data in proptest::collection::vec(any::<u64>(), 1..2_000)) {
            let s = Scheduler::with_threads(2);
            let got = reduce_with_floor(&s, &data, u64::MAX, |a, b| a.min(b), 64);
            prop_assert_eq!(got, data.iter().copied().min().unwrap());
        }
    }
}
