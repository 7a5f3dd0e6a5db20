//! Sequential baselines: the standard-library reference sort and the
//! handwritten sequential Quicksort ("SeqQS").

use crate::SortConfig;

/// The "best available sequential sort" the paper normalizes all speedups to
/// (its tables call it *Seq/STL*; `std::sort` there, `slice::sort_unstable`
/// — pattern-defeating quicksort — here).
pub fn std_sort(data: &mut [u32]) {
    data.sort_unstable();
}

/// Handwritten sequential Quicksort with the same cutoff as the parallel
/// variants (the paper's *SeqQS* column): [`pivot`] selection,
/// a trimmed branchless Lomuto partition ([`partition_by`]), recursion into
/// the smaller side first and a switch to [`std_sort`] below the cutoff.
pub fn sequential_quicksort(data: &mut [u32], config: &SortConfig) {
    quicksort_recursive(data, config.cutoff.max(1));
}

fn quicksort_recursive(mut data: &mut [u32], cutoff: usize) {
    loop {
        let n = data.len();
        if n <= cutoff {
            std_sort(data);
            return;
        }
        let pivot = pivot(data);
        let (left_len, right_start) = split_around(data, pivot);
        // Recurse into the smaller part, loop on the larger one so the stack
        // depth stays O(log n) even for adversarial inputs.
        let whole = std::mem::take(&mut data);
        let (left, rest) = whole.split_at_mut(left_len);
        let right = &mut rest[right_start - left_len..];
        if left.len() < right.len() {
            quicksort_recursive(left, cutoff);
            data = right;
        } else {
            quicksort_recursive(right, cutoff);
            data = left;
        }
    }
}

/// Length from which [`pivot`] takes Tukey's ninther instead of the median
/// of three.
const NINTHER_MIN_LEN: usize = 128;

/// The pivot selection used by every Quicksort variant in this crate:
/// Tukey's ninther (the median of three medians of three, sampled at nine
/// spread positions; Bentley and McIlroy, "Engineering a Sort Function",
/// 1993) from 128 elements on, [`median_of_three`] below.
///
/// The Lomuto partition keeps each side's order, so on blocked input the
/// first, middle and last element keep landing in the same sub-runs; nine
/// samples spread over the slice give a pivot nearer the median.
pub fn pivot(data: &[u32]) -> u32 {
    let n = data.len();
    if n < NINTHER_MIN_LEN {
        return median_of_three(data);
    }
    let s = n / 8;
    let (m, l) = (n / 2, n - 1);
    let sample = |a: usize, b: usize, c: usize| med3(data[a], data[b], data[c]);
    med3(
        sample(0, s, 2 * s),
        sample(m - s, m, m + s),
        sample(l - 2 * s, l - s, l),
    )
}

/// Median of the first, middle and last element — [`pivot`] below 128
/// elements.
pub fn median_of_three(data: &[u32]) -> u32 {
    let n = data.len();
    debug_assert!(n >= 1);
    med3(data[0], data[n / 2], data[n - 1])
}

fn med3(a: u32, b: u32, c: u32) -> u32 {
    a.max(b).min(a.min(b).max(c))
}

/// Partitions `data` around the pivot *value* and returns
/// `(left_len, right_start)` such that sorting `[0, left_len)` and
/// `[right_start, n)` independently sorts the whole slice; the (possibly
/// empty) gap `[left_len, right_start)` consists of elements equal to the
/// pivot that are already in their final position.
///
/// In the common case this is a single [`partition_by`] pass splitting into
/// `≤ pivot | > pivot`.  Only when every element is `≤ pivot` (e.g. the pivot
/// is the maximum, or the slice is constant) a second pass separates the
/// elements equal to the pivot so both recursion ranges are strictly smaller
/// than the input — this is what keeps duplicate-heavy inputs from
/// degenerating into infinite recursion.
pub fn split_around(data: &mut [u32], pivot: u32) -> (usize, usize) {
    let le = partition_by(data, |x| x <= pivot);
    if le < data.len() {
        (le, le)
    } else {
        // Everything is <= pivot (e.g. pivot is the maximum): split off the
        // equals so the recursion strictly shrinks.
        let lt = partition_by(data, |x| x < pivot);
        (lt, data.len())
    }
}

/// In-place partition by a predicate: afterwards every element satisfying
/// `pred` precedes every element that does not; returns the number of
/// elements satisfying `pred`.
///
/// Skips the prefix that already satisfies `pred` and the suffix that
/// already fails it (reading only, so sorted input costs one scan), then runs
/// one branchless Lomuto pass over the rest: every element is swapped with
/// the first failing one, and the boundary advances by `pred(x) as usize`.
/// The pass indexes unchecked: the safe `data.swap(i, lt)` form partitions
/// about 15 % fewer elements per second (`sort.seq.partition_melems_per_s`).
pub fn partition_by(data: &mut [u32], pred: impl Fn(u32) -> bool) -> usize {
    let lo = data.iter().position(|&x| !pred(x)).unwrap_or(data.len());
    let hi = data[lo..]
        .iter()
        .rposition(|&x| pred(x))
        .map_or(lo, |k| lo + k + 1);
    let mut lt = lo;
    let base = data.as_mut_ptr();
    for i in lo..hi {
        // SAFETY: lo <= lt <= i < hi <= data.len(): `lt` starts at `lo` and
        // grows by at most one per step of `i`.
        unsafe {
            let x = *base.add(i);
            *base.add(i) = *base.add(lt);
            *base.add(lt) = x;
            lt += pred(x) as usize;
        }
    }
    lt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::CHUNK;
    use proptest::prelude::*;
    use teamsteal_data::{is_permutation_of, is_sorted, Distribution};

    /// The scalar two-pointer loop, kept as the oracle the partition is
    /// checked against.
    fn scalar_partition_by(data: &mut [u32], pred: impl Fn(u32) -> bool) -> usize {
        let mut i = 0usize;
        let mut j = data.len();
        loop {
            while i < j && pred(data[i]) {
                i += 1;
            }
            while i < j && !pred(data[j - 1]) {
                j -= 1;
            }
            if i >= j {
                return i;
            }
            data.swap(i, j - 1);
            i += 1;
            j -= 1;
        }
    }

    /// Same split point and the same multiset on each side as the oracle.
    fn assert_matches_oracle(input: &[u32], pred: impl Fn(u32) -> bool, what: &str) {
        let mut expected = input.to_vec();
        let split = scalar_partition_by(&mut expected, &pred);
        let mut actual = input.to_vec();
        assert_eq!(
            partition_by(&mut actual, &pred),
            split,
            "{what}: split point"
        );
        for side in [0..split, split..input.len()] {
            expected[side.clone()].sort_unstable();
            actual[side].sort_unstable();
        }
        assert_eq!(actual, expected, "{what}: sides differ");
    }

    #[test]
    fn std_sort_sorts() {
        let mut v = vec![5u32, 3, 9, 1, 1, 0];
        std_sort(&mut v);
        assert_eq!(v, vec![0, 1, 1, 3, 5, 9]);
    }

    #[test]
    fn median_of_three_examples() {
        assert_eq!(median_of_three(&[1, 2, 3]), 2);
        assert_eq!(median_of_three(&[3, 2, 1]), 2);
        assert_eq!(median_of_three(&[2, 9, 2]), 2);
        assert_eq!(median_of_three(&[7]), 7);
        assert_eq!(median_of_three(&[7, 7]), 7);
    }

    #[test]
    fn pivot_takes_the_ninther_from_128_elements() {
        // Below the threshold: the median of three.
        let short: Vec<u32> = (0..127).rev().collect();
        assert_eq!(pivot(&short), median_of_three(&short));
        // n = 128, s = 16: samples at 0, 16, 32 | 48, 64, 80 | 95, 111, 127.
        let mut v = vec![0u32; 128];
        for (i, x) in [
            (0, 9),
            (16, 1),
            (32, 5),
            (48, 2),
            (64, 8),
            (80, 3),
            (95, 7),
            (111, 4),
            (127, 6),
        ] {
            v[i] = x;
        }
        // Medians 5, 3, 6; their median 5.
        assert_eq!(pivot(&v), 5);
        // Four blocks of ascending runs: median of three reads 0, 0, 31
        // (the first element of block 0 and 2, the last of block 3) and picks
        // the minimum; the ninther's samples reach into the middle blocks.
        let blocked: Vec<u32> = (0..4).flat_map(|_| 0..32u32).collect();
        assert_eq!(median_of_three(&blocked), 0);
        assert_eq!(pivot(&blocked), 16);
    }

    #[test]
    fn partition_by_basic() {
        let mut v = vec![4u32, 1, 7, 2, 9, 3];
        let k = partition_by(&mut v, |x| x <= 3);
        assert_eq!(k, 3);
        assert!(v[..k].iter().all(|&x| x <= 3));
        assert!(v[k..].iter().all(|&x| x > 3));
    }

    #[test]
    fn partition_by_all_or_nothing() {
        let mut v = vec![1u32, 2, 3];
        assert_eq!(partition_by(&mut v, |_| true), 3);
        assert_eq!(partition_by(&mut v, |_| false), 0);
        let mut empty: Vec<u32> = vec![];
        assert_eq!(partition_by(&mut empty, |_| true), 0);
    }

    /// Every length around the chunk boundaries, on the input shapes and
    /// predicates that drive the kernel into its corners: no misplaced
    /// element at all, every element misplaced, one side running dry first.
    #[test]
    fn partition_by_matches_the_scalar_oracle_on_every_small_length() {
        for n in 0..=4 * CHUNK as u32 + 3 {
            let shapes: [(&str, Vec<u32>); 6] = [
                ("sorted", (0..n).collect()),
                ("reversed", (0..n).rev().collect()),
                ("constant", vec![n / 2; n as usize]),
                (
                    "two-value",
                    (0..n).map(|i| (i * 7 % 5 < 2) as u32 * n).collect(),
                ),
                ("alternating", (0..n).map(|i| (i % 2) * n).collect()),
                (
                    "scrambled",
                    (0..n)
                        .map(|i| i.wrapping_mul(2_654_435_761) % (n + 1))
                        .collect(),
                ),
            ];
            for (shape, input) in &shapes {
                let what = format!("{shape}, n={n}");
                assert_matches_oracle(input, |_| true, &what);
                assert_matches_oracle(input, |_| false, &what);
                assert_matches_oracle(input, |x| x % 2 == 0, &what);
                assert_matches_oracle(input, |x| x <= n / 2, &what);
                assert_matches_oracle(input, |x| x < n / 2, &what);
            }
        }
    }

    #[test]
    fn split_around_handles_all_equal_input() {
        let mut v = vec![5u32; 100];
        let (lt, ge) = split_around(&mut v, 5);
        assert_eq!(lt, 0);
        assert_eq!(ge, 100);
    }

    #[test]
    fn split_around_ranges_sort_independently() {
        let mut v: Vec<u32> = (0..1000).map(|i| (i * 7919) % 50).collect();
        let original = v.clone();
        let pivot = 25;
        let (left_len, right_start) = split_around(&mut v, pivot);
        assert!(left_len <= right_start && right_start <= v.len());
        assert!(v[..left_len].iter().all(|&x| x <= pivot));
        assert!(v[left_len..right_start].iter().all(|&x| x == pivot));
        assert!(v[right_start..].iter().all(|&x| x >= pivot));
        // Sorting the two recursion ranges independently sorts the slice.
        v[..left_len].sort_unstable();
        v[right_start..].sort_unstable();
        assert!(is_sorted(&v));
        assert!(is_permutation_of(&original, &v));
    }

    #[test]
    fn sequential_quicksort_matches_sort_unstable_on_a_million_elements() {
        for d in Distribution::ALL {
            let mut v = d.generate(1 << 20, 8, 11);
            let mut reference = v.clone();
            reference.sort_unstable();
            sequential_quicksort(&mut v, &SortConfig::default());
            assert!(v == reference, "{d:?} differs from sort_unstable");
        }
    }

    #[test]
    fn sequential_quicksort_edge_cases() {
        let cfg = SortConfig {
            cutoff: 4,
            ..SortConfig::default()
        };
        for v in [
            vec![],
            vec![1u32],
            vec![2, 1],
            vec![3, 3, 3, 3, 3, 3, 3, 3, 3],
        ] {
            let mut s = v.clone();
            sequential_quicksort(&mut s, &cfg);
            assert!(is_sorted(&s));
            assert!(is_permutation_of(&v, &s));
        }
        // Already sorted and reverse sorted, larger than the cutoff.
        let mut asc: Vec<u32> = (0..10_000).collect();
        sequential_quicksort(&mut asc, &cfg);
        assert!(is_sorted(&asc));
        let mut desc: Vec<u32> = (0..10_000).rev().collect();
        sequential_quicksort(&mut desc, &cfg);
        assert!(is_sorted(&desc));
    }

    proptest! {
        #[test]
        fn pivot_lies_between_min_and_max(v in proptest::collection::vec(any::<u32>(), 1..600)) {
            let p = pivot(&v);
            prop_assert!(v.contains(&p));
            prop_assert!(*v.iter().min().unwrap() <= p && p <= *v.iter().max().unwrap());
        }

        #[test]
        fn quicksort_matches_std_sort(mut v in proptest::collection::vec(any::<u32>(), 0..2000)) {
            let mut reference = v.clone();
            reference.sort_unstable();
            sequential_quicksort(&mut v, &SortConfig { cutoff: 8, ..SortConfig::default() });
            prop_assert_eq!(v, reference);
        }

        /// Few distinct values, so every pass has long runs of elements
        /// equal to the pivot and often takes the second, `< pivot` pass.
        #[test]
        fn split_around_keeps_its_contract_on_few_distinct_values(
            v in proptest::collection::vec(any::<u32>(), 1..2000),
            modulus in 1u32..6,
            pick in any::<usize>(),
        ) {
            let mut data: Vec<u32> = v.iter().map(|x| x % modulus).collect();
            let n = data.len();
            let pivot = data[pick % n];
            let (left_len, right_start) = split_around(&mut data, pivot);
            prop_assert!(left_len <= right_start && right_start <= n);
            prop_assert!(data[..left_len].iter().all(|&x| x <= pivot));
            prop_assert!(data[left_len..right_start].iter().all(|&x| x == pivot));
            prop_assert!(data[right_start..].iter().all(|&x| x >= pivot));
            // Both recursion ranges strictly shrink.
            prop_assert!(left_len < n);
            prop_assert!(n - right_start < n);
        }

        #[test]
        fn partition_by_matches_the_scalar_oracle(
            v in proptest::collection::vec(any::<u32>(), 0..=4 * CHUNK + 3),
            pivot in any::<u32>(),
            modulus in 1u32..9,
        ) {
            assert_matches_oracle(&v, |x| x <= pivot, "threshold");
            // Few distinct values, so runs of equal elements span chunks.
            let few: Vec<u32> = v.iter().map(|x| x % modulus).collect();
            assert_matches_oracle(&few, |x| x <= pivot % modulus, "few values");
            assert_matches_oracle(&few, |x| x < pivot % modulus, "few values, strict");
        }
    }
}
