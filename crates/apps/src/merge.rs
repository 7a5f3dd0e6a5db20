//! Mixed-mode parallel merging and merge sort.
//!
//! The merge of two sorted runs is a data-parallel operation with a
//! dependency structure that fork-join schedulers can only express by
//! recursive splitting: every split spawns two tasks and the recombination
//! needs a join.  With team-building the whole merge is **one** team task:
//! every member computes its slice of the output with a *merge-path /
//! co-ranking* binary search and merges it independently; no intra-merge
//! synchronization is needed at all.
//!
//! [`merge_sort_mixed`] builds a bottom-up merge sort on top of this: leaf
//! chunks are sorted by independent `r = 1` tasks (classic work-stealing),
//! and every merge pass processes pairs of runs, using team tasks for the
//! large merges near the top of the tree and `r = 1` tasks for the small
//! ones — the same "fork-join below, data-parallel teams above" structure as
//! the paper's mixed-mode Quicksort, but mirrored (Quicksort's data-parallel
//! phase comes first, merge sort's comes last).


use teamsteal_core::{Scheduler, TaskContext};
use teamsteal_util::{SendConstPtr, SendMutPtr};

use crate::team_size::{best_team_size, chunk_range};

/// Tunable parameters of the mixed-mode merge sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSortConfig {
    /// Runs of at most this length are sorted directly with the standard
    /// library sort (the merge sort's leaves).
    pub leaf_size: usize,
    /// Minimum number of output elements each team member must receive for a
    /// merge to be executed by a team instead of a single `r = 1` task.
    pub min_elements_per_member: usize,
}

impl Default for MergeSortConfig {
    fn default() -> Self {
        MergeSortConfig {
            leaf_size: 4 * 1024,
            min_elements_per_member: 16 * 1024,
        }
    }
}

/// Merge-path co-ranking: the number of elements of `a` among the first `k`
/// elements of the stable merge of `a` and `b` (ties taken from `a` first).
///
/// Runs in `O(log(min(k, |a|)))`.  The returned split is unique and
/// monotonically non-decreasing in `k`, which is what makes independent,
/// per-member output partitioning consistent.
///
/// ```
/// use teamsteal_apps::merge::co_rank;
///
/// let a = [1, 3, 5, 7];
/// let b = [2, 4, 6, 8];
/// assert_eq!(co_rank(0, &a, &b), 0);
/// assert_eq!(co_rank(4, &a, &b), 2); // 1 2 3 4 → two from a
/// assert_eq!(co_rank(8, &a, &b), 4);
/// ```
pub fn co_rank<T: Ord>(k: usize, a: &[T], b: &[T]) -> usize {
    assert!(k <= a.len() + b.len(), "cannot take {k} elements from a merge of {}", a.len() + b.len());
    let mut lo = k.saturating_sub(b.len());
    let mut hi = k.min(a.len());
    // Invariant: the unique split point lies in [lo, hi].  The predicate
    // "taking only i elements from a is too few" is monotone in i, so this is
    // a partition-point search.
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        let j = k - i;
        if j > 0 && i < a.len() && b[j - 1] >= a[i] {
            // b[j-1] would have been emitted before a[i] only if it were
            // strictly smaller (ties prefer a): we must take more from a.
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    lo
}

/// Sequentially merges the sorted runs `a` and `b` into `out` (stable: ties
/// are taken from `a` first).
///
/// # Panics
///
/// Panics if `out.len() != a.len() + b.len()`.
pub fn merge_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut [T]) {
    assert_eq!(out.len(), a.len() + b.len(), "output must hold both runs");
    let (mut x, mut y) = (0, 0);
    for slot in out.iter_mut() {
        if x < a.len() && (y >= b.len() || a[x] <= b[y]) {
            *slot = a[x];
            x += 1;
        } else {
            *slot = b[y];
            y += 1;
        }
    }
}

/// The per-member piece of a team merge: computes the member's slice of the
/// output with two co-rank searches and merges it sequentially.
///
/// Intended to be called from inside a team task body; `dst` must point to an
/// output buffer of length `a.len() + b.len()` that no other thread writes
/// outside its own member slice.
pub fn team_merge<T: Ord + Copy>(
    ctx: &TaskContext<'_>,
    a: &[T],
    b: &[T],
    dst: SendMutPtr<T>,
) {
    let total = a.len() + b.len();
    let members = ctx.team_size();
    let me = ctx.local_id();
    let out_range = chunk_range(total, members, me);
    if out_range.is_empty() {
        return;
    }
    let i_start = co_rank(out_range.start, a, b);
    let i_end = co_rank(out_range.end, a, b);
    let j_start = out_range.start - i_start;
    let j_end = out_range.end - i_end;
    // SAFETY: the member slices of the output are disjoint by construction
    // (chunk_range partitions [0, total)), and the caller guarantees the
    // buffer is valid for the duration of the team task.
    let my_out = unsafe { dst.add(out_range.start).slice_mut(out_range.len()) };
    merge_into(&a[i_start..i_end], &b[j_start..j_end], my_out);
}

/// Merges the sorted runs `a` and `b` into `out` using a single data-parallel
/// team task (or sequentially when the input is too small to pay for team
/// formation).
///
/// # Panics
///
/// Panics if `out.len() != a.len() + b.len()`.
pub fn parallel_merge<T>(scheduler: &Scheduler, a: &[T], b: &[T], out: &mut [T])
where
    T: Ord + Copy + Send + Sync + 'static,
{
    assert_eq!(out.len(), a.len() + b.len(), "output must hold both runs");
    let total = out.len();
    let team = best_team_size(
        total,
        MergeSortConfig::default().min_elements_per_member,
        scheduler.num_threads(),
    );
    if team <= 1 {
        merge_into(a, b, out);
        return;
    }
    let pa = SendConstPtr::from_slice(a);
    let pb = SendConstPtr::from_slice(b);
    let (na, nb) = (a.len(), b.len());
    let dst = SendMutPtr::from_slice(out);
    scheduler.run_team(team, move |ctx| {
        // SAFETY: inputs and output outlive the blocking run_team call;
        // members write disjoint output slices (see `team_merge`).
        let (a, b) = unsafe { (pa.slice(na), pb.slice(nb)) };
        team_merge(ctx, a, b, dst);
    });
}

/// Sorts `data` with the mixed-mode bottom-up merge sort described in the
/// module documentation, using the default [`MergeSortConfig`].
pub fn merge_sort_mixed<T>(scheduler: &Scheduler, data: &mut [T])
where
    T: Ord + Copy + Send + Sync + 'static,
{
    merge_sort_mixed_with(scheduler, data, &MergeSortConfig::default());
}

/// [`merge_sort_mixed`] with explicit tuning parameters.
pub fn merge_sort_mixed_with<T>(scheduler: &Scheduler, data: &mut [T], config: &MergeSortConfig)
where
    T: Ord + Copy + Send + Sync + 'static,
{
    let n = data.len();
    let leaf = config.leaf_size.max(2);
    if n <= leaf {
        data.sort_unstable();
        return;
    }
    let p = scheduler.num_threads();

    // Phase A: sort the leaf runs with independent r = 1 tasks.
    {
        let base = SendMutPtr::from_slice(data);
        scheduler.scope(|scope| {
            let mut start = 0;
            while start < n {
                let len = leaf.min(n - start);
                // SAFETY: leaf ranges are disjoint and within the slice.
                let chunk = unsafe { base.add(start) };
                scope.spawn(move |_ctx| {
                    // SAFETY: the scope blocks until this task finishes and no
                    // other task touches this leaf range.
                    unsafe { chunk.slice_mut(len) }.sort_unstable();
                });
                start += len;
            }
        });
    }

    // Phase B: bottom-up merge passes, ping-ponging between `data` and a
    // scratch buffer of the same length.
    let mut scratch: Vec<T> = data.to_vec();
    let mut src_is_data = true;
    let mut width = leaf;
    while width < n {
        {
            let (src, dst) = if src_is_data {
                (SendConstPtr::new(data.as_ptr()), SendMutPtr::from_slice(&mut scratch))
            } else {
                (SendConstPtr::new(scratch.as_ptr()), SendMutPtr::from_slice(data))
            };
            let min_per_member = config.min_elements_per_member;
            scheduler.scope(|scope| {
                let mut start = 0;
                while start < n {
                    let left_len = width.min(n - start);
                    let right_len = width.min(n - start - left_len);
                    let total = left_len + right_len;
                    // SAFETY: each pair-of-runs range is disjoint from every
                    // other task's range in this pass.
                    let pair_src = unsafe { src.add(start) };
                    let pair_dst = unsafe { dst.add(start) };
                    if right_len == 0 {
                        // Odd tail run: copy it through unchanged.
                        scope.spawn(move |_ctx| {
                            // SAFETY: disjoint range, valid for the pass.
                            let s = unsafe { pair_src.slice(left_len) };
                            let d = unsafe { pair_dst.slice_mut(left_len) };
                            d.copy_from_slice(s);
                        });
                    } else {
                        let team = best_team_size(total, min_per_member, p);
                        if team <= 1 {
                            scope.spawn(move |_ctx| {
                                // SAFETY: disjoint range, valid for the pass.
                                let s = unsafe { pair_src.slice(total) };
                                let d = unsafe { pair_dst.slice_mut(total) };
                                merge_into(&s[..left_len], &s[left_len..], d);
                            });
                        } else {
                            scope.spawn_team(team, move |ctx| {
                                // SAFETY: disjoint range, valid for the pass;
                                // members write disjoint output slices.
                                let s = unsafe { pair_src.slice(total) };
                                team_merge(ctx, &s[..left_len], &s[left_len..], pair_dst);
                            });
                        }
                    }
                    start += total;
                }
            });
        }
        src_is_data = !src_is_data;
        width *= 2;
    }
    if !src_is_data {
        // The sorted result ended up in the scratch buffer.
        data.copy_from_slice(&scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use teamsteal_core::test_support::{with_watchdog, WATCHDOG};
    use teamsteal_data::{is_permutation_of, is_sorted, Distribution};

    #[test]
    fn co_rank_boundaries() {
        let a = [1u32, 2, 3];
        let b = [4u32, 5, 6];
        assert_eq!(co_rank(0, &a, &b), 0);
        assert_eq!(co_rank(3, &a, &b), 3);
        assert_eq!(co_rank(6, &a, &b), 3);
        // All of b smaller than all of a.
        assert_eq!(co_rank(3, &b, &a), 0);
        // Empty runs.
        assert_eq!(co_rank(2, &a, &[]), 2);
        assert_eq!(co_rank(2, &[] as &[u32], &b), 0);
    }

    #[test]
    fn co_rank_prefers_a_on_ties() {
        let a = [5u32, 5, 5];
        let b = [5u32, 5];
        // The stable merge emits all of a before any of b.
        for k in 0..=3 {
            assert_eq!(co_rank(k, &a, &b), k);
        }
        assert_eq!(co_rank(4, &a, &b), 3);
        assert_eq!(co_rank(5, &a, &b), 3);
    }

    #[test]
    #[should_panic]
    fn co_rank_rejects_out_of_range_k() {
        let _ = co_rank(3, &[1u32], &[2u32]);
    }

    #[test]
    fn merge_into_matches_std() {
        let a = [1u32, 4, 4, 9];
        let b = [2u32, 4, 8, 10, 11];
        let mut out = vec![0u32; 9];
        merge_into(&a, &b, &mut out);
        let mut expected: Vec<u32> = a.iter().chain(&b).copied().collect();
        expected.sort_unstable();
        assert_eq!(out, expected);
    }

    #[test]
    fn parallel_merge_small_and_large() {
        with_watchdog("parallel_merge_small_and_large", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            // Small: sequential path.
            let a: Vec<u32> = (0..100).map(|i| i * 2).collect();
            let b: Vec<u32> = (0..100).map(|i| i * 2 + 1).collect();
            let mut out = vec![0u32; 200];
            parallel_merge(&s, &a, &b, &mut out);
            assert!(is_sorted(&out));

            // Large: team path.
            let a: Vec<u32> = (0..120_000u32).map(|i| i * 2).collect();
            let b: Vec<u32> = (0..80_000u32).map(|i| i * 3).collect();
            let mut out = vec![0u32; a.len() + b.len()];
            parallel_merge(&s, &a, &b, &mut out);
            assert!(is_sorted(&out));
            let mut expected: Vec<u32> = a.iter().chain(&b).copied().collect();
            expected.sort_unstable();
            assert_eq!(out, expected);
        });
    }

    fn check_merge_sort(threads: usize, n: usize, config: &MergeSortConfig, seed: u64) {
        let s = Scheduler::with_threads(threads);
        for d in Distribution::ALL {
            let original = d.generate(n, threads, seed);
            let mut v = original.clone();
            merge_sort_mixed_with(&s, &mut v, config);
            assert!(is_sorted(&v), "{d:?} not sorted (n={n}, p={threads})");
            assert!(is_permutation_of(&original, &v), "{d:?} corrupted");
        }
    }

    #[test]
    fn merge_sort_small_inputs() {
        let s = Scheduler::with_threads(2);
        for v in [vec![], vec![3u32], vec![2, 1], vec![5, 5, 5, 1]] {
            let mut sorted = v.clone();
            merge_sort_mixed(&s, &mut sorted);
            assert!(is_sorted(&sorted));
            assert!(is_permutation_of(&v, &sorted));
        }
    }

    #[test]
    fn merge_sort_all_distributions_four_threads() {
        with_watchdog("merge_sort_all_distributions_four_threads", WATCHDOG, || {
            let config = MergeSortConfig {
                leaf_size: 1024,
                min_elements_per_member: 4096,
            };
            check_merge_sort(4, 150_000, &config, 21);
        });
    }

    #[test]
    fn merge_sort_uses_teams_for_large_inputs() {
        with_watchdog("merge_sort_uses_teams_for_large_inputs", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let config = MergeSortConfig {
                leaf_size: 1024,
                min_elements_per_member: 4096,
            };
            let original = Distribution::Random.generate(200_000, 4, 33);
            let mut v = original.clone();
            merge_sort_mixed_with(&s, &mut v, &config);
            assert!(is_sorted(&v));
            assert!(is_permutation_of(&original, &v));
            assert!(s.metrics().teams_formed > 0, "top merge passes must use teams");
        });
    }

    #[test]
    fn merge_sort_non_power_of_two_threads_and_length() {
        with_watchdog("merge_sort_non_power_of_two_threads_and_length", WATCHDOG, || {
            let config = MergeSortConfig {
                leaf_size: 512,
                min_elements_per_member: 2048,
            };
            check_merge_sort(3, 100_001, &config, 44);
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_co_rank_is_a_valid_monotone_split(
            mut a in proptest::collection::vec(0u32..50, 0..200),
            mut b in proptest::collection::vec(0u32..50, 0..200),
        ) {
            a.sort_unstable();
            b.sort_unstable();
            let total = a.len() + b.len();
            let mut prev = 0;
            for k in 0..=total {
                let i = co_rank(k, &a, &b);
                let j = k - i;
                prop_assert!(i <= a.len());
                prop_assert!(j <= b.len());
                prop_assert!(i >= prev, "co_rank must be monotone in k");
                prev = i;
                // Valid merge-path split: everything taken is <= everything
                // not yet taken on the other run.
                if i > 0 && j < b.len() {
                    prop_assert!(a[i - 1] <= b[j]);
                }
                if j > 0 && i < a.len() {
                    prop_assert!(b[j - 1] <= a[i]);
                }
            }
        }

        #[test]
        fn prop_merge_sort_sorts_arbitrary_vectors(
            data in proptest::collection::vec(any::<u32>(), 0..5_000),
        ) {
            let s = Scheduler::with_threads(2);
            let config = MergeSortConfig { leaf_size: 64, min_elements_per_member: 256 };
            let mut v = data.clone();
            merge_sort_mixed_with(&s, &mut v, &config);
            prop_assert!(is_sorted(&v));
            prop_assert!(is_permutation_of(&data, &v));
        }
    }
}
