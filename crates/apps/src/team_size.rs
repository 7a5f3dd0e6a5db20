//! Team-size policy shared by all application kernels.
//!
//! The paper's Quicksort chooses the number of threads for its data-parallel
//! partitioning step with `getBestNp(n)`: "the biggest power of two, where
//! each thread can process at least 128 blocks on average" (Section 5),
//! clamped to the machine size.  The kernels in this crate follow the same
//! shape — the unit of work differs per kernel (elements, rows, frontier
//! vertices) but the policy is identical — so it lives here once.

use teamsteal_util::bits::prev_pow2;

/// Largest power-of-two team size such that each member still receives at
/// least `min_work_per_member` units of the `total_work`, clamped to
/// `num_threads`.  Returns 1 when a team is not worth its formation overhead,
/// in which case callers fall back to sequential execution or `r = 1` task
/// parallelism.
///
/// The paper restricts Quicksort team sizes to powers of two "to achieve
/// better balancing"; the same restriction is applied here.  (The scheduler
/// itself also accepts non power-of-two requirements via Refinement 2, at
/// the cost of weaker utilization guarantees.)
///
/// ```
/// use teamsteal_apps::best_team_size;
///
/// // 1M units, at least 64k per member, on a 16-thread machine.
/// assert_eq!(best_team_size(1 << 20, 1 << 16, 16), 16);
/// // Too little work for even two members: stay sequential.
/// assert_eq!(best_team_size(1000, 4096, 16), 1);
/// // Clamped to the machine size and rounded down to a power of two.
/// assert_eq!(best_team_size(1 << 30, 1, 6), 4);
/// ```
pub fn best_team_size(total_work: usize, min_work_per_member: usize, num_threads: usize) -> usize {
    if num_threads <= 1 || total_work == 0 {
        return 1;
    }
    let by_work = total_work / min_work_per_member.max(1);
    let cap = by_work.min(num_threads);
    if cap <= 1 {
        1
    } else {
        prev_pow2(cap)
    }
}

/// Splits `len` work units into `parts` contiguous chunks that differ in size
/// by at most one and returns the half-open range of chunk `index`.
///
/// Every kernel in this crate distributes its data this way, so members of a
/// team own disjoint, cache-friendly contiguous ranges.
///
/// ```
/// use teamsteal_apps::team_size::chunk_range;
///
/// assert_eq!(chunk_range(10, 4, 0), 0..3);
/// assert_eq!(chunk_range(10, 4, 1), 3..6);
/// assert_eq!(chunk_range(10, 4, 2), 6..8);
/// assert_eq!(chunk_range(10, 4, 3), 8..10);
/// ```
pub fn chunk_range(len: usize, parts: usize, index: usize) -> std::ops::Range<usize> {
    assert!(parts > 0, "cannot split into zero chunks");
    assert!(
        index < parts,
        "chunk index {index} out of range for {parts} chunks"
    );
    let base = len / parts;
    let extra = len % parts;
    let start = index * base + index.min(extra);
    let this = base + usize::from(index < extra);
    start..start + this
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn best_team_size_basic_policy() {
        assert_eq!(best_team_size(0, 1, 8), 1);
        assert_eq!(best_team_size(100, 1, 1), 1);
        assert_eq!(best_team_size(1 << 20, 1 << 10, 8), 8);
        assert_eq!(best_team_size(1 << 12, 1 << 10, 8), 4);
        assert_eq!(best_team_size(1 << 11, 1 << 10, 8), 2);
        assert_eq!(best_team_size(1 << 10, 1 << 10, 8), 1);
        // Non power-of-two machine sizes are rounded down.
        assert_eq!(best_team_size(1 << 20, 1, 12), 8);
        assert_eq!(best_team_size(1 << 20, 1, 3), 2);
    }

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for len in [0usize, 1, 7, 64, 1000, 1023] {
            for parts in [1usize, 2, 3, 4, 7, 8] {
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for i in 0..parts {
                    let r = chunk_range(len, parts, i);
                    assert_eq!(r.start, prev_end, "chunks must be contiguous");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(prev_end, len);
                assert_eq!(covered, len);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_team_size_is_power_of_two_and_bounded(
            total in 0usize..1_000_000,
            per in 1usize..10_000,
            threads in 1usize..256,
        ) {
            let r = best_team_size(total, per, threads);
            prop_assert!(r >= 1);
            prop_assert!(r <= threads);
            prop_assert!(r.is_power_of_two());
            // If a team was chosen, every member has at least `per` work.
            if r > 1 {
                prop_assert!(total / r >= per);
            }
        }

        #[test]
        fn prop_chunks_partition_and_balance(
            len in 0usize..100_000,
            parts in 1usize..64,
        ) {
            let mut total = 0usize;
            let mut sizes = Vec::new();
            let mut prev_end = 0usize;
            for i in 0..parts {
                let r = chunk_range(len, parts, i);
                prop_assert_eq!(r.start, prev_end);
                prev_end = r.end;
                total += r.len();
                sizes.push(r.len());
            }
            prop_assert_eq!(total, len);
            prop_assert_eq!(prev_end, len);
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            prop_assert!(max - min <= 1, "chunk sizes must differ by at most one");
        }
    }
}
