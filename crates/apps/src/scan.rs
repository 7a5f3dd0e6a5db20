//! Team-parallel prefix sums (scans).
//!
//! The classic three-phase parallel scan, expressed as a single data-parallel
//! team task with two intra-team barriers:
//!
//! 1. every member scans its contiguous chunk locally and publishes the chunk
//!    total,
//! 2. the barrier leader computes an exclusive scan over the chunk totals
//!    (`members` values — trivially sequential),
//! 3. every member adds its chunk offset to its part of the output.
//!
//! A fork-join scheduler has to express this as two rounds of `p` spawned
//! tasks with a full join in between; with team-building the workers stay
//! co-scheduled across the phases and the synchronization is two cheap team
//! barriers.  This is precisely the "data-parallel tasks with dependencies"
//! pattern the paper's introduction says classical work-stealing handles
//! poorly.

use std::sync::Arc;

use teamsteal_core::Scheduler;
use teamsteal_util::{SendConstPtr, SendMutPtr};

use crate::slots::TeamSlots;
use crate::team_size::{best_team_size, chunk_range};

/// Minimum elements per member before a team scan pays off.
pub const MIN_ELEMENTS_PER_MEMBER: usize = 8 * 1024;

/// Inclusive prefix sum: `out[i] = combine(input[0], …, input[i])`.
///
/// `combine` must be associative with identity `identity`.
///
/// # Panics
///
/// Panics if `input` and `out` have different lengths.
///
/// ```
/// use teamsteal_core::Scheduler;
/// use teamsteal_apps::scan::inclusive_scan_mixed;
///
/// let scheduler = Scheduler::with_threads(2);
/// let input = vec![1u64, 2, 3, 4];
/// let mut out = vec![0u64; 4];
/// inclusive_scan_mixed(&scheduler, &input, &mut out, 0, |a, b| a + b);
/// assert_eq!(out, vec![1, 3, 6, 10]);
/// ```
pub fn inclusive_scan_mixed<T, F>(
    scheduler: &Scheduler,
    input: &[T],
    out: &mut [T],
    identity: T,
    combine: F,
) where
    T: Copy + Send + Sync + 'static,
    F: Fn(T, T) -> T + Send + Sync + 'static,
{
    scan_impl(
        scheduler,
        input,
        out,
        identity,
        combine,
        true,
        MIN_ELEMENTS_PER_MEMBER,
    );
}

/// Exclusive prefix sum: `out[0] = identity`, `out[i] = combine(input[0], …,
/// input[i-1])`.
///
/// # Panics
///
/// Panics if `input` and `out` have different lengths.
pub fn exclusive_scan_mixed<T, F>(
    scheduler: &Scheduler,
    input: &[T],
    out: &mut [T],
    identity: T,
    combine: F,
) where
    T: Copy + Send + Sync + 'static,
    F: Fn(T, T) -> T + Send + Sync + 'static,
{
    scan_impl(
        scheduler,
        input,
        out,
        identity,
        combine,
        false,
        MIN_ELEMENTS_PER_MEMBER,
    );
}

/// Sequential reference: the scan both entry points run below their team
/// floor.
pub(crate) fn sequential_scan<T, F>(
    input: &[T],
    out: &mut [T],
    identity: T,
    combine: &F,
    inclusive: bool,
) where
    T: Copy,
    F: Fn(T, T) -> T,
{
    let mut acc = identity;
    for (o, &x) in out.iter_mut().zip(input) {
        if inclusive {
            acc = combine(acc, x);
            *o = acc;
        } else {
            *o = acc;
            acc = combine(acc, x);
        }
    }
}

/// The one scan body, with the per-member floor as a parameter.
fn scan_impl<T, F>(
    scheduler: &Scheduler,
    input: &[T],
    out: &mut [T],
    identity: T,
    combine: F,
    inclusive: bool,
    min_per_member: usize,
) where
    T: Copy + Send + Sync + 'static,
    F: Fn(T, T) -> T + Send + Sync + 'static,
{
    assert_eq!(
        input.len(),
        out.len(),
        "scan output must match the input length"
    );
    let n = input.len();
    if n == 0 {
        return;
    }
    let p = scheduler.num_threads();
    let team = best_team_size(n, min_per_member, p);
    if team <= 1 {
        sequential_scan(input, out, identity, &combine, inclusive);
        return;
    }

    let src = SendConstPtr::from_slice(input);
    let dst = SendMutPtr::from_slice(out);
    // Chunk totals, one per potential team member (the executing team may be
    // larger than requested on non power-of-two machines).
    let totals = Arc::new(TeamSlots::new(p, identity));
    let offsets = Arc::new(TeamSlots::new(p, identity));
    let combine = Arc::new(combine);

    scheduler.run_team(team, move |ctx| {
        let members = ctx.team_size();
        let me = ctx.local_id();
        let range = chunk_range(n, members, me);
        // SAFETY: the input outlives the blocking run_team call and is never
        // mutated; each member writes only its own disjoint output chunk.
        let input = unsafe { src.slice(n) };
        let my_out = unsafe { dst.add(range.start).slice_mut(range.len()) };

        // Phase 1: local scan of the chunk, remembering the chunk total.
        let mut acc = identity;
        for (o, &x) in my_out.iter_mut().zip(&input[range.clone()]) {
            if inclusive {
                acc = combine(acc, x);
                *o = acc;
            } else {
                *o = acc;
                acc = combine(acc, x);
            }
        }
        // For an exclusive local scan the accumulator already holds the full
        // chunk total (it absorbed the last element above); for an inclusive
        // scan it does too.  Publish it.
        // SAFETY: slot `me` is written only by this member before the barrier.
        unsafe { totals.write(me, acc) };

        // Phase 2: one member turns chunk totals into chunk offsets.
        if ctx.barrier() {
            let mut running = identity;
            for i in 0..members {
                // SAFETY: every member published its total before the barrier;
                // only the single leader writes the offsets between barriers.
                unsafe { offsets.write(i, running) };
                running = combine(running, unsafe { totals.read(i) });
            }
        }

        // Phase 3: everyone adds its chunk offset.
        ctx.barrier();
        // SAFETY: the leader wrote all offsets before the second barrier.
        let offset = unsafe { offsets.read(me) };
        for o in my_out.iter_mut() {
            *o = combine(offset, *o);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use teamsteal_core::test_support::{with_watchdog, WATCHDOG};

    fn reference_inclusive(input: &[u64]) -> Vec<u64> {
        let mut acc = 0u64;
        input
            .iter()
            .map(|&x| {
                acc += x;
                acc
            })
            .collect()
    }

    fn reference_exclusive(input: &[u64]) -> Vec<u64> {
        let mut acc = 0u64;
        input
            .iter()
            .map(|&x| {
                let prev = acc;
                acc += x;
                prev
            })
            .collect()
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let s = Scheduler::with_threads(2);
        let mut out: Vec<u64> = vec![];
        inclusive_scan_mixed(&s, &[], &mut out, 0, |a, b| a + b);
        assert!(out.is_empty());

        let mut out = vec![0u64];
        inclusive_scan_mixed(&s, &[5], &mut out, 0, |a, b| a + b);
        assert_eq!(out, vec![5]);
        exclusive_scan_mixed(&s, &[5], &mut out, 0, |a, b| a + b);
        assert_eq!(out, vec![0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_are_rejected() {
        let s = Scheduler::with_threads(2);
        let mut out = vec![0u64; 3];
        inclusive_scan_mixed(&s, &[1, 2], &mut out, 0, |a, b| a + b);
    }

    #[test]
    fn large_inclusive_scan_uses_a_team() {
        with_watchdog("large_inclusive_scan_uses_a_team", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let input: Vec<u64> = (0..120_000).map(|i| i % 5).collect();
            let mut out = vec![0u64; input.len()];
            scan_impl(&s, &input, &mut out, 0, |a, b| a + b, true, 1024);
            assert_eq!(out, reference_inclusive(&input));
            assert!(
                s.metrics().teams_formed > 0,
                "large scans must run as team tasks"
            );
        });
    }

    #[test]
    fn large_exclusive_scan_matches_reference() {
        with_watchdog("large_exclusive_scan_matches_reference", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let input: Vec<u64> = (0..90_000).map(|i| (i * 7) % 11).collect();
            let mut out = vec![0u64; input.len()];
            scan_impl(&s, &input, &mut out, 0, |a, b| a + b, false, 1024);
            assert_eq!(out, reference_exclusive(&input));
        });
    }

    #[test]
    fn max_scan_is_supported() {
        with_watchdog("max_scan_is_supported", WATCHDOG, || {
            // Scan with a non-additive associative operation (running maximum).
            let s = Scheduler::with_threads(4);
            let input: Vec<u64> = (0..60_000).map(|i| (i * 2654435761u64) % 1_000).collect();
            let mut out = vec![0u64; input.len()];
            scan_impl(&s, &input, &mut out, 0, |a, b| a.max(b), true, 512);
            let mut acc = 0u64;
            for (i, &x) in input.iter().enumerate() {
                acc = acc.max(x);
                assert_eq!(out[i], acc, "mismatch at {i}");
            }
        });
    }

    #[test]
    fn non_power_of_two_threads_and_odd_lengths() {
        with_watchdog("non_power_of_two_threads_and_odd_lengths", WATCHDOG, || {
            let s = Scheduler::with_threads(3);
            let input: Vec<u64> = (0..70_001).map(|i| i % 3).collect();
            let mut out = vec![0u64; input.len()];
            scan_impl(&s, &input, &mut out, 0, |a, b| a + b, true, 512);
            assert_eq!(out, reference_inclusive(&input));
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_inclusive_matches_reference(input in proptest::collection::vec(0u64..100, 0..3_000)) {
            let s = Scheduler::with_threads(2);
            let mut out = vec![0u64; input.len()];
            scan_impl(&s, &input, &mut out, 0, |a, b| a + b, true, 64);
            prop_assert_eq!(out, reference_inclusive(&input));
        }

        #[test]
        fn prop_exclusive_matches_reference(input in proptest::collection::vec(0u64..100, 0..3_000)) {
            let s = Scheduler::with_threads(2);
            let mut out = vec![0u64; input.len()];
            scan_impl(&s, &input, &mut out, 0, |a, b| a + b, false, 64);
            prop_assert_eq!(out, reference_exclusive(&input));
        }
    }
}
