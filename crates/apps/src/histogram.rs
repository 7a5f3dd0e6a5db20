//! Team-parallel histogramming.
//!
//! Histogramming a large array is a reduction with vector-valued partials:
//! every team member counts its chunk of the input into a private histogram,
//! and after one barrier the members cooperatively combine the private
//! histograms — member `i` sums bucket range `i` across all privates — so
//! both phases are data parallel and the only synchronization is the single
//! team barrier.  This is the "per-thread privatization + tree/strided merge"
//! pattern every shared-memory histogram uses, expressed as one team task.

use std::sync::{Arc, Mutex};

use teamsteal_core::Scheduler;
use teamsteal_util::{SendConstPtr, SendMutPtr};

use crate::team_size::{best_team_size, chunk_range};

/// Minimum number of input elements per team member before a team histogram
/// pays off.
pub const MIN_ELEMENTS_PER_MEMBER: usize = 16 * 1024;

/// Sequential reference: counts `data` into `num_buckets` equal-width buckets
/// over the full `u32` value range.
pub fn histogram_sequential(data: &[u32], num_buckets: usize) -> Vec<u64> {
    assert!(num_buckets > 0, "need at least one bucket");
    let mut counts = vec![0u64; num_buckets];
    for &x in data {
        counts[bucket_of(x, num_buckets)] += 1;
    }
    counts
}

/// The bucket index of value `x` for `num_buckets` equal-width buckets over
/// the full `u32` range.
#[inline]
pub fn bucket_of(x: u32, num_buckets: usize) -> usize {
    ((x as u64 * num_buckets as u64) >> 32) as usize
}

/// Mixed-mode histogram: one team task with privatized counting and a
/// cooperative merge (see the module documentation).  Falls back to the
/// sequential implementation for small inputs.
pub fn histogram_mixed(scheduler: &Scheduler, data: &[u32], num_buckets: usize) -> Vec<u64> {
    histogram_with_floor(scheduler, data, num_buckets, MIN_ELEMENTS_PER_MEMBER)
}

/// [`histogram_mixed`] with the per-member floor as a parameter.
fn histogram_with_floor(
    scheduler: &Scheduler,
    data: &[u32],
    num_buckets: usize,
    min_per_member: usize,
) -> Vec<u64> {
    assert!(num_buckets > 0, "need at least one bucket");
    let n = data.len();
    let p = scheduler.num_threads();
    let team = best_team_size(n, min_per_member, p);
    if team <= 1 {
        return histogram_sequential(data, num_buckets);
    }

    let input = SendConstPtr::from_slice(data);
    let mut out = vec![0u64; num_buckets];
    let out_ptr = SendMutPtr::from_slice(&mut out);
    // Private histograms, one per potential team member.  A Mutex per slot
    // keeps the sharing safe and is uncontended: each member locks only its
    // own slot in phase 1 and a disjoint set of reads in phase 2 happens
    // after the barrier.
    let privates: Arc<Vec<Mutex<Vec<u64>>>> =
        Arc::new((0..p).map(|_| Mutex::new(Vec::new())).collect());

    {
        let privates = Arc::clone(&privates);
        scheduler.run_team(team, move |ctx| {
            let members = ctx.team_size();
            let me = ctx.local_id();
            // SAFETY: the input outlives the blocking run_team call and is
            // never mutated.
            let data = unsafe { input.slice(n) };

            // Phase 1: count the member's chunk into a private histogram.
            let my_input = chunk_range(n, members, me);
            let mut local = vec![0u64; num_buckets];
            for &x in &data[my_input] {
                local[bucket_of(x, num_buckets)] += 1;
            }
            *privates[me].lock().expect("private histogram poisoned") = local;

            // Phase 2: after the barrier, member i owns bucket range i and
            // sums it across all private histograms into the output.
            ctx.barrier();
            let my_buckets = chunk_range(num_buckets, members, me);
            if my_buckets.is_empty() {
                return;
            }
            // SAFETY: bucket ranges are disjoint across members and the
            // output buffer outlives the blocking call.
            let my_out = unsafe { out_ptr.add(my_buckets.start).slice_mut(my_buckets.len()) };
            for other in 0..members {
                let private = privates[other].lock().expect("private histogram poisoned");
                if private.is_empty() {
                    continue;
                }
                for (dst, src) in my_out.iter_mut().zip(&private[my_buckets.clone()]) {
                    *dst += src;
                }
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use teamsteal_core::test_support::{with_watchdog, WATCHDOG};
    use teamsteal_data::Distribution;

    #[test]
    fn bucket_of_covers_the_full_range() {
        assert_eq!(bucket_of(0, 16), 0);
        assert_eq!(bucket_of(u32::MAX, 16), 15);
        assert_eq!(bucket_of(u32::MAX / 2, 2), 0);
        assert_eq!(bucket_of(u32::MAX / 2 + 1, 2), 1);
        // Single bucket swallows everything.
        assert_eq!(bucket_of(u32::MAX, 1), 0);
    }

    #[test]
    #[should_panic]
    fn zero_buckets_rejected() {
        let _ = histogram_sequential(&[1, 2, 3], 0);
    }

    #[test]
    fn empty_input_gives_empty_counts() {
        let s = Scheduler::with_threads(2);
        assert_eq!(histogram_mixed(&s, &[], 8), vec![0u64; 8]);
    }

    #[test]
    fn counts_sum_to_input_length_and_match_sequential() {
        with_watchdog(
            "counts_sum_to_input_length_and_match_sequential",
            WATCHDOG,
            || {
                let s = Scheduler::with_threads(4);
                for d in Distribution::ALL {
                    let data = d.generate(150_000, 4, 5);
                    let got = histogram_with_floor(&s, &data, 64, 1024);
                    let reference = histogram_sequential(&data, 64);
                    assert_eq!(got, reference, "{d:?} histogram mismatch");
                    assert_eq!(got.iter().sum::<u64>(), data.len() as u64);
                }
                assert!(
                    s.metrics().teams_formed > 0,
                    "large histograms must use teams"
                );
            },
        );
    }

    #[test]
    fn more_members_than_buckets() {
        with_watchdog("more_members_than_buckets", WATCHDOG, || {
            // Bucket ranges for trailing members are empty; they must not touch
            // the output.
            let s = Scheduler::with_threads(4);
            let data = Distribution::Random.generate(120_000, 4, 6);
            let got = histogram_with_floor(&s, &data, 2, 1024);
            assert_eq!(got, histogram_sequential(&data, 2));
        });
    }

    #[test]
    fn non_power_of_two_threads() {
        with_watchdog("non_power_of_two_threads", WATCHDOG, || {
            let s = Scheduler::with_threads(3);
            let data = Distribution::Gauss.generate(100_000, 3, 7);
            let got = histogram_with_floor(&s, &data, 31, 1024);
            assert_eq!(got, histogram_sequential(&data, 31));
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_matches_sequential(
            data in proptest::collection::vec(any::<u32>(), 0..4_000),
            buckets in 1usize..64,
        ) {
            let s = Scheduler::with_threads(2);
            let got = histogram_with_floor(&s, &data, buckets, 64);
            prop_assert_eq!(got, histogram_sequential(&data, buckets));
        }

        #[test]
        fn prop_bucket_of_is_monotone_and_in_range(x in any::<u32>(), y in any::<u32>(), b in 1usize..1_000) {
            let bx = bucket_of(x, b);
            let by = bucket_of(y, b);
            prop_assert!(bx < b);
            prop_assert!(by < b);
            if x <= y {
                prop_assert!(bx <= by);
            }
        }
    }
}
