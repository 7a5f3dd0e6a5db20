//! Sequential baselines and the leaf sort: the standard-library reference
//! sort, the handwritten sequential Quicksort ("SeqQS"), and
//! [`sort_leaf`], which every Quicksort in this crate runs on a range at or
//! below its cutoff.

use crate::SortConfig;

/// The "best available sequential sort" the paper normalizes all speedups to
/// (its tables call it *Seq/STL*; `std::sort` there, `slice::sort_unstable`
/// — pattern-defeating quicksort — here).
pub fn std_sort(data: &mut [u32]) {
    data.sort_unstable();
}

/// Handwritten sequential Quicksort with the same cutoff as the parallel
/// variants (the paper's *SeqQS* column): [`pivot`] selection,
/// a [`split_around`] pass, recursion into the smaller side first and a
/// switch to [`sort_leaf`] at the cutoff.
pub fn sequential_quicksort(data: &mut [u32], config: &SortConfig) {
    quicksort_recursive(data, config.cutoff.max(1), sort_leaf);
}

/// Longest range the leaf sort hands to the sorting network: 16 vectors of
/// 8 lanes.
pub(crate) const NETWORK_MAX: usize = 128;

/// The sort every Quicksort in this crate runs on a range at or below its
/// cutoff.
///
/// Where the CPU has AVX2 and POPCNT (detected at run time) this is the
/// Quicksort loop again ([`pivot`], [`split_around`], smaller side first)
/// down to 128 elements, and each range left is sorted in registers by a
/// bitonic network.  Other hosts run [`std_sort`] (DESIGN.md §3, "One leaf
/// sort").
pub fn sort_leaf(data: &mut [u32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2::available() {
        // SAFETY: the CPU has AVX2.
        return quicksort_recursive(data, NETWORK_MAX, |d| unsafe { avx2::sort_network(d) });
    }
    std_sort(data);
}

/// Quicksort down to ranges of at most `cutoff` (≥ 1) elements, each of
/// which `leaf` sorts.
fn quicksort_recursive(mut data: &mut [u32], cutoff: usize, leaf: fn(&mut [u32])) {
    loop {
        let n = data.len();
        if n <= cutoff {
            leaf(data);
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
            quicksort_recursive(left, cutoff, leaf);
            data = right;
        } else {
            quicksort_recursive(right, cutoff, leaf);
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
/// In the common case this is a single [`partition_le`] pass splitting into
/// `≤ pivot | > pivot`.  Only when every element is `≤ pivot` (e.g. the pivot
/// is the maximum, or the slice is constant) a second pass
/// ([`partition_lt`]) separates the elements equal to the pivot so both
/// recursion ranges are strictly smaller than the input — this is what keeps
/// duplicate-heavy inputs from degenerating into infinite recursion.
pub fn split_around(data: &mut [u32], pivot: u32) -> (usize, usize) {
    let le = partition_le(data, pivot);
    if le < data.len() {
        (le, le)
    } else {
        // Everything is <= pivot (e.g. pivot is the maximum): split off the
        // equals so the recursion strictly shrinks.
        (partition_lt(data, pivot), data.len())
    }
}

/// Shortest slice [`partition_le`] hands to the vector loop: one step of
/// four 8-lane vectors plus the 32 elements it saves at each end.
pub(crate) const VECTOR_MIN_LEN: usize = 96;

/// In-place partition around `bound`, the pass every Quicksort in this crate
/// runs: afterwards every element `<= bound` precedes every element above
/// it; returns their number.
///
/// Skips the prefix already `<= bound` and the suffix already above it
/// (reading only, so sorted input costs one scan).  The rest goes through
/// an in-place AVX2 loop when the CPU has AVX2 and POPCNT (detected at run
/// time) and at least 96 elements remain, and through [`partition_by`]
/// otherwise (DESIGN.md §3, "One partition kernel").
pub fn partition_le(data: &mut [u32], bound: u32) -> usize {
    let (lo, hi) = trimmed(data, |x| x <= bound);
    let rest = &mut data[lo..hi];
    if rest.len() >= VECTOR_MIN_LEN {
        #[cfg(target_arch = "x86_64")]
        if avx2::available() {
            // SAFETY: the CPU has AVX2 and POPCNT.
            return lo + unsafe { avx2::partition_le(rest, bound) };
        }
    }
    lo + partition_by(rest, |x| x <= bound)
}

/// [`partition_le`] for `x < pivot`: elements below `pivot` first; returns
/// their number.
pub fn partition_lt(data: &mut [u32], pivot: u32) -> usize {
    pivot
        .checked_sub(1)
        .map_or(0, |bound| partition_le(data, bound))
}

/// `(lo, hi)` such that `data[..lo]` all satisfy `pred`, `data[hi..]` all
/// fail it and `data[lo]`, `data[hi - 1]` do not (when `lo < hi`).
fn trimmed(data: &[u32], pred: impl Fn(u32) -> bool) -> (usize, usize) {
    let lo = data.iter().position(|&x| !pred(x)).unwrap_or(data.len());
    // `take_while(..).count()`, not `rposition`: it compiles to the tighter
    // loop, and sorting sorted input is nearly all trim (SeqQS on sorted
    // 2^22 elements measured 3.0 against 4.4 ns/elem).
    let failing = data[lo..].iter().rev().take_while(|&&x| !pred(x)).count();
    (lo, data.len() - failing)
}

/// In-place partition by a predicate: afterwards every element satisfying
/// `pred` precedes every element that does not; returns the number of
/// elements satisfying `pred`.  [`partition_le`]'s fallback.
///
/// Skips the prefix that already satisfies `pred` and the suffix that
/// already fails it, then runs one branchless Lomuto pass over the rest:
/// every element is swapped with the first failing one, and the boundary
/// advances by `pred(x) as usize`.  The pass indexes unchecked: the safe
/// `data.swap(i, lt)` form partitions about 15 % fewer elements per second
/// (`sort.seq.partition_melems_per_s`).
pub fn partition_by(data: &mut [u32], pred: impl Fn(u32) -> bool) -> usize {
    let (lo, hi) = trimmed(data, &pred);
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

/// The vector loop of [`partition_le`], after Gueron and Krasnov ("Fast
/// Quicksort Implementation Using AVX Instructions", 2016).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Lanes per vector.
    const LANES: usize = 8;
    /// Elements read per step: four vectors.
    const STEP: usize = 4 * LANES;
    const _: () = assert!(super::VECTOR_MIN_LEN == 3 * STEP);

    /// `LANE_ORDER[m]` packs, one nibble per output lane, the source lanes
    /// that put the lanes whose bit in `m` is clear first (in order) and
    /// those whose bit is set after them.
    static LANE_ORDER: [u32; 256] = lane_orders();

    const fn lane_orders() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut mask = 0;
        while mask < 256 {
            let (mut packed, mut out, mut bit) = (0u32, 0, 0);
            while bit < 2 {
                let mut lane = 0;
                while lane < LANES {
                    if (mask >> lane) & 1 == bit {
                        packed |= (lane as u32) << (4 * out);
                        out += 1;
                    }
                    lane += 1;
                }
                bit += 1;
            }
            table[mask] = packed;
            mask += 1;
        }
        table
    }

    /// Whether this CPU can run [`partition_le`].
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt")
    }

    /// Partitions `data` into `<= bound | > bound`; returns the split.
    ///
    /// The first and last [`STEP`] elements are saved, which leaves that
    /// much free room at each end.  Each step reads four vectors from the
    /// end with less free room; a vector's lanes `<= bound` are permuted to
    /// its front and the vector is stored whole at both write cursors, which
    /// advance by the lanes that belong to their side.  The free room of the
    /// two ends sums to `2 * STEP` between steps, so after a step's read
    /// each end has at least `STEP` free — room for four whole stores — and
    /// no store reaches an unread element.  The saved elements and the
    /// unread tail (< `STEP`) then fill the `2 * STEP + tail` free slots
    /// between the cursors with a branchless two-cursor loop.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and POPCNT ([`available`]).
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn partition_le(data: &mut [u32], bound: u32) -> usize {
        let n = data.len();
        assert!(
            n >= 2 * STEP,
            "the vector loop saves {STEP} elements at each end"
        );
        let mut saved = [0u32; 3 * STEP];
        saved[..STEP].copy_from_slice(&data[..STEP]);
        saved[STEP..2 * STEP].copy_from_slice(&data[n - STEP..]);
        let base = data.as_mut_ptr();
        let sign = _mm256_set1_epi32(i32::MIN);
        // Unsigned `x > bound` as a signed compare of both with the sign bit
        // flipped.
        let biased_bound = _mm256_set1_epi32((bound as i32) ^ i32::MIN);
        let nibbles = _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
        // Placed: [0, left) and [right, n).  Unread: [read_left, read_right).
        let (mut left, mut right) = (0, n);
        let (mut read_left, mut read_right) = (STEP, n - STEP);
        while read_right - read_left >= STEP {
            // `from_left` is all ones when the left end has less free room.
            // Masks where an `if` would read better: LLVM lowers this form
            // to a branch, which the CPU predicts and runs ahead of, and the
            // `if` to a `cmov`, which puts the compare on the dependency
            // chain of the next step's loads (measured ~30 % slower).
            let left_tighter = read_left - left <= right - read_right;
            let from_left = 0usize.wrapping_sub(left_tighter as usize);
            let from_right = read_right - STEP;
            let src = from_right ^ ((read_left ^ from_right) & from_left);
            read_left += STEP & from_left;
            read_right -= STEP & !from_left;
            // SAFETY: [src, src + STEP) was unread, so it lies in the slice;
            // every load happens before the stores that may reuse it.
            let at = base.add(src) as *const __m256i;
            let v = [
                _mm256_loadu_si256(at),
                _mm256_loadu_si256(at.add(1)),
                _mm256_loadu_si256(at.add(2)),
                _mm256_loadu_si256(at.add(3)),
            ];
            for x in v {
                let gt = _mm256_cmpgt_epi32(_mm256_xor_si256(x, sign), biased_bound);
                let mask = _mm256_movemask_ps(_mm256_castsi256_ps(gt)) as u8;
                let order = _mm256_set1_epi32(LANE_ORDER[usize::from(mask)] as i32);
                // `permutevar8x32` reads only the low three bits of a lane.
                let y = _mm256_permutevar8x32_epi32(x, _mm256_srlv_epi32(order, nibbles));
                // SAFETY: [left, left + LANES) and [right - LANES, right) are
                // free room (the invariant above).
                _mm256_storeu_si256(base.add(left) as *mut __m256i, y);
                _mm256_storeu_si256(base.add(right - LANES) as *mut __m256i, y);
                let above = mask.count_ones() as usize;
                left += LANES - above;
                right -= above;
            }
        }
        let tail = read_right - read_left;
        saved[2 * STEP..][..tail]
            .copy_from_slice(std::slice::from_raw_parts(base.add(read_left), tail));
        for &x in &saved[..2 * STEP + tail] {
            // SAFETY: left < right <= n here: the free slots between the
            // cursors number exactly the elements still to place.
            let le = (x <= bound) as usize;
            *base.add(left) = x;
            *base.add(right - 1) = x;
            left += le;
            right -= 1 - le;
        }
        debug_assert_eq!(left, right);
        left
    }

    const _: () = assert!(super::NETWORK_MAX == 16 * LANES);

    /// Sorts `data`, at most [`NETWORK_MAX`](super::NETWORK_MAX) elements,
    /// with a bitonic network in registers (after Bramas, "A Novel Hybrid
    /// Quicksort Algorithm Vectorized using AVX-512 on Intel Skylake",
    /// 2017).
    ///
    /// The elements are copied into a buffer padded with `u32::MAX` to the
    /// next power of two of vectors (1, 2, 4, 8 or 16); the padding sorts
    /// to the end, so the first `n` elements of the sorted buffer are the
    /// sorted input, and they are copied back.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 ([`available`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sort_network(data: &mut [u32]) {
        let n = data.len();
        assert!(n <= super::NETWORK_MAX, "the network sorts 16 vectors");
        if n <= 1 {
            return;
        }
        let mut buf = [u32::MAX; super::NETWORK_MAX];
        buf[..n].copy_from_slice(data);
        match n.div_ceil(LANES).next_power_of_two() {
            1 => sort_vectors::<1>(&mut buf),
            2 => sort_vectors::<2>(&mut buf),
            4 => sort_vectors::<4>(&mut buf),
            8 => sort_vectors::<8>(&mut buf),
            _ => sort_vectors::<16>(&mut buf),
        }
        data.copy_from_slice(&buf[..n]);
    }

    /// Sorts the first `K` vectors of `buf` (`K` a power of two): each
    /// vector alone, then bitonic merges of blocks of 2, 4, .., `K`
    /// vectors.  A merge's first step compares each element of a block's
    /// lower half with its mirror in the upper half (a lane-reversed
    /// partner vector), which leaves both halves bitonic; half-cleaners
    /// across vectors and then inside each vector, at distances 4, 2 and 1,
    /// sort them.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sort_vectors<const K: usize>(buf: &mut [u32; super::NETWORK_MAX]) {
        let at = buf.as_mut_ptr() as *mut __m256i;
        let mut v = [_mm256_setzero_si256(); K];
        for (i, x) in v.iter_mut().enumerate() {
            // SAFETY: K * LANES <= NETWORK_MAX, so every vector lies in `buf`.
            *x = sort_vector(_mm256_loadu_si256(at.add(i)));
        }
        let reversed = lanes_xor(7);
        let mut block = 2;
        while block <= K {
            for lo in (0..K).step_by(block) {
                for j in 0..block / 2 {
                    let (a, b) = (v[lo + j], v[lo + block - 1 - j]);
                    let b = _mm256_permutevar8x32_epi32(b, reversed);
                    v[lo + j] = _mm256_min_epu32(a, b);
                    let hi = _mm256_max_epu32(a, b);
                    v[lo + block - 1 - j] = _mm256_permutevar8x32_epi32(hi, reversed);
                }
            }
            let mut d = block / 4;
            while d >= 1 {
                for i in (0..K).filter(|i| i & d == 0) {
                    let (a, b) = (v[i], v[i + d]);
                    v[i] = _mm256_min_epu32(a, b);
                    v[i + d] = _mm256_max_epu32(a, b);
                }
                d /= 2;
            }
            for x in &mut v {
                *x = clean_vector(*x);
            }
            block *= 2;
        }
        for (i, x) in v.into_iter().enumerate() {
            // SAFETY: as for the loads.
            _mm256_storeu_si256(at.add(i), x);
        }
    }

    /// Sorts the lanes of `x`: a bitonic sort of 8 in six steps, whose
    /// last three are [`clean_vector`]'s with the first one a mirror.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sort_vector(x: __m256i) -> __m256i {
        let x = exchange::<1, 0b1010_1010>(x);
        let x = exchange::<3, 0b1100_1100>(x);
        let x = exchange::<1, 0b1010_1010>(x);
        let x = exchange::<7, 0b1111_0000>(x);
        let x = exchange::<2, 0b1100_1100>(x);
        exchange::<1, 0b1010_1010>(x)
    }

    /// Sorts the lanes of a bitonic `x`: half-cleaners at distances 4, 2
    /// and 1.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn clean_vector(x: __m256i) -> __m256i {
        let x = exchange::<4, 0b1111_0000>(x);
        let x = exchange::<2, 0b1100_1100>(x);
        exchange::<1, 0b1010_1010>(x)
    }

    /// One compare-exchange step inside a vector: lane `i` meets lane
    /// `i ^ PARTNER`, and the lanes whose bit is set in `HIGH` (the upper
    /// lane of each pair) keep the larger of the two, the others the
    /// smaller.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn exchange<const PARTNER: i32, const HIGH: i32>(x: __m256i) -> __m256i {
        let y = _mm256_permutevar8x32_epi32(x, lanes_xor(PARTNER));
        _mm256_blend_epi32::<HIGH>(_mm256_min_epu32(x, y), _mm256_max_epu32(x, y))
    }

    /// The permutation that moves lane `i ^ partner` to lane `i`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lanes_xor(partner: i32) -> __m256i {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_xor_si256(lanes, _mm256_set1_epi32(partner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// `partition` leaves the oracle's split point and the same multiset on
    /// each side.
    fn assert_like_oracle(
        input: &[u32],
        pred: impl Fn(u32) -> bool,
        partition: impl FnOnce(&mut [u32]) -> usize,
        what: &str,
    ) {
        let mut expected = input.to_vec();
        let split = scalar_partition_by(&mut expected, &pred);
        let mut actual = input.to_vec();
        assert_eq!(partition(&mut actual), split, "{what}: split point");
        for side in [0..split, split..input.len()] {
            expected[side.clone()].sort_unstable();
            actual[side].sort_unstable();
        }
        assert_eq!(actual, expected, "{what}: sides differ");
    }

    fn assert_matches_oracle(input: &[u32], pred: impl Fn(u32) -> bool, what: &str) {
        assert_like_oracle(input, &pred, |d| partition_by(d, &pred), what);
    }

    /// [`partition_le`] and both loops it dispatches to, each called
    /// directly: the AVX2 one where the CPU has it and the slice is long
    /// enough, the scalar fallback always.
    fn assert_le_matches_oracle(input: &[u32], bound: u32, what: &str) {
        let le = |x: u32| x <= bound;
        let dispatched = |d: &mut [u32]| partition_le(d, bound);
        assert_like_oracle(input, le, dispatched, &format!("{what}, dispatched"));
        assert_like_oracle(
            input,
            le,
            |d| partition_by(d, le),
            &format!("{what}, scalar"),
        );
        #[cfg(target_arch = "x86_64")]
        if input.len() >= VECTOR_MIN_LEN && avx2::available() {
            // SAFETY: both conditions of the call are checked just above.
            let vector = |d: &mut [u32]| unsafe { avx2::partition_le(d, bound) };
            assert_like_oracle(input, le, vector, &format!("{what}, AVX2"));
        }
    }

    /// Every length the network takes, on random input, repeated and
    /// ordered input, and input holding both ends of the range, one of
    /// which is the padding value.
    #[test]
    fn sort_network_matches_sort_unstable_on_every_length() {
        #[cfg(target_arch = "x86_64")]
        if avx2::available() {
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            let mut random = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u32
            };
            for n in 0..=NETWORK_MAX as u32 {
                let shapes: [(&str, Vec<u32>); 7] = [
                    ("random", (0..n).map(|_| random()).collect()),
                    ("all equal", vec![n; n as usize]),
                    ("few distinct", (0..n).map(|_| random() % 3).collect()),
                    ("sorted", (0..n).collect()),
                    ("reversed", (0..n).rev().collect()),
                    (
                        "zero and max",
                        (0..n)
                            .map(|_| [0, u32::MAX][random() as usize % 2])
                            .collect(),
                    ),
                    (
                        "ends of the range",
                        (0..n)
                            .map(|_| {
                                [0, 1, random(), u32::MAX - 1, u32::MAX][random() as usize % 5]
                            })
                            .collect(),
                    ),
                ];
                for (shape, input) in shapes {
                    let mut expected = input.clone();
                    expected.sort_unstable();
                    let mut actual = input;
                    // SAFETY: `available()` holds.
                    unsafe { avx2::sort_network(&mut actual) };
                    assert_eq!(actual, expected, "{shape}, n={n}");
                }
            }
        }
    }

    /// The leaf hosts without AVX2 run: SeqQS, with [`std_sort`] at the
    /// cutoff, on every distribution.
    #[test]
    fn the_portable_leaf_path_sorts() {
        for d in Distribution::ALL {
            let mut v = d.generate(1 << 14, 2, 7);
            let mut expected = v.clone();
            expected.sort_unstable();
            quicksort_recursive(&mut v, SortConfig::default().cutoff, std_sort);
            assert!(v == expected, "{d:?} differs from sort_unstable");
        }
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

    /// Every length up to six vector thresholds, on the input shapes and
    /// predicates that drive a partition loop into its corners: no
    /// misplaced element at all, every element misplaced, one side running
    /// dry first.
    #[test]
    fn partition_by_matches_the_scalar_oracle_on_every_small_length() {
        for n in 0..=6 * VECTOR_MIN_LEN as u32 {
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
                assert_le_matches_oracle(input, n / 2, &what);
                assert_matches_oracle(input, |x| x < n / 2, &what);
            }
        }
    }

    /// Every length across the 32-element step, the 96-element threshold
    /// and the saved ends, on shapes that drive the vector loop into its
    /// corners, with bounds at both ends of the range and around the sign
    /// bit the unsigned compare flips.
    #[test]
    fn partition_le_matches_the_scalar_oracle_on_every_length() {
        const HALF: u32 = 1 << 31;
        for n in 0..=8 * VECTOR_MIN_LEN as u32 / 3 {
            let shapes: [(&str, Vec<u32>); 7] = [
                ("all at or below", vec![0; n as usize]),
                ("all above", vec![u32::MAX; n as usize]),
                ("alternating", (0..n).map(|i| (i % 2) * u32::MAX).collect()),
                (
                    "below, then above",
                    (0..n).map(|i| HALF - n / 2 + i).collect(),
                ),
                (
                    "above, then below",
                    (0..n).rev().map(|i| HALF - n / 2 + i).collect(),
                ),
                ("few distinct", (0..n).map(|i| (i * 7 % 4) << 30).collect()),
                (
                    "scrambled",
                    (0..n).map(|i| i.wrapping_mul(2_654_435_761)).collect(),
                ),
            ];
            for (shape, input) in &shapes {
                for bound in [0, 1 << 30, HALF - 1, HALF, u32::MAX - 1, u32::MAX] {
                    assert_le_matches_oracle(
                        input,
                        bound,
                        &format!("{shape}, n={n}, bound={bound}"),
                    );
                }
            }
        }
    }

    #[test]
    fn partition_lt_puts_the_elements_below_the_pivot_first() {
        let mut v: Vec<u32> = (0..300).map(|i| i % 5).collect();
        let original = v.clone();
        assert_eq!(partition_lt(&mut v, 0), 0, "nothing is below 0");
        assert_eq!(v, original, "pivot 0 leaves the slice untouched");
        for pivot in [1, 3, 5, u32::MAX] {
            assert_like_oracle(&original, |x| x < pivot, |d| partition_lt(d, pivot), "lt");
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
        fn sort_leaf_matches_sort_unstable(mut v in proptest::collection::vec(any::<u32>(), 0..2000)) {
            let mut reference = v.clone();
            reference.sort_unstable();
            sort_leaf(&mut v);
            prop_assert_eq!(v, reference);
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
            v in proptest::collection::vec(any::<u32>(), 0..=6 * VECTOR_MIN_LEN),
            pivot in any::<u32>(),
            modulus in 1u32..9,
        ) {
            assert_matches_oracle(&v, |x| x <= pivot, "threshold");
            assert_le_matches_oracle(&v, pivot, "threshold");
            // Few distinct values, so runs of equal elements span steps.
            let few: Vec<u32> = v.iter().map(|x| x % modulus).collect();
            assert_matches_oracle(&few, |x| x <= pivot % modulus, "few values");
            assert_matches_oracle(&few, |x| x < pivot % modulus, "few values, strict");
            assert_le_matches_oracle(&few, pivot % modulus, "few values");
            let strict = |d: &mut [u32]| partition_lt(d, pivot % modulus);
            assert_like_oracle(&few, |x| x < pivot % modulus, strict, "few values, lt");
        }
    }
}
