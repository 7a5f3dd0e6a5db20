//! Sequential, fork-join and mixed-mode parallel Quicksort on the
//! `teamsteal` scheduler.
//!
//! This crate implements the evaluation workload of the paper (Section 5):
//!
//! * [`seq`] — the sequential baselines: the standard-library sort (the
//!   paper's "Seq/STL" reference, the speedup baseline) and a handwritten
//!   sequential Quicksort with the same cutoff ("SeqQS"); and
//!   [`seq::sort_leaf`], the sort all three Quicksorts run at the cutoff.
//! * [`fork`] — the classic task-parallel Quicksort of Algorithm 10:
//!   sequential partitioning, two spawned subtasks per level ("Fork" /
//!   "Randfork" depending on the scheduler's steal policy).
//! * [`parallel_partition`] — the data-parallel partitioning step: each
//!   team member partitions its own slice, then the members swap the
//!   misplaced elements in parallel.
//! * [`mixed`] — the mixed-mode parallel Quicksort of Algorithm 11
//!   ("MMPar"): data-parallel partitioning by a team whose size follows
//!   `getBestNp` capped by the subrange's share of the machine, then
//!   recursion with smaller teams until the fork-join algorithm takes over.
//!
//! Every partition pass, sequential or a team member's, is one loop:
//! [`seq::partition_le`], vectorised with AVX2 where the CPU has it.  Every
//! range at or below the cutoff is sorted by one leaf, [`seq::sort_leaf`]:
//! that loop down to 128 elements and an AVX2 bitonic network, or
//! [`std_sort`] where the CPU lacks AVX2.

#![warn(missing_docs)]

pub mod fork;
pub mod mixed;
pub mod parallel_partition;
pub mod seq;

pub use fork::fork_join_sort;
pub use mixed::{best_np, mixed_mode_sort};
pub use parallel_partition::ParallelPartitioner;
pub use seq::{sequential_quicksort, std_sort};

/// Tunable parameters of the Quicksort implementations (Section 5,
/// "Tunable parameters of the Quicksort algorithm").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortConfig {
    /// The task cutoff (the paper's 512 elements): no Quicksort splits a
    /// subsequence at or below this length further into tasks or recursion
    /// steps of its own; [`seq::sort_leaf`] sorts it.
    pub cutoff: usize,
    /// Block size (in elements) of the data-parallel partitioning step.  The
    /// paper uses 4096 four-byte integers per block.
    pub block_size: usize,
    /// Minimum number of blocks each team member should get on average; the
    /// team size chosen by [`best_np`] is the largest power of two that keeps
    /// this bound (the paper discusses 16–128 blocks per thread).  Below the
    /// root of a sort [`mixed_mode_sort`] additionally never gives a
    /// subrange of `len` of the root's `N` elements more than its share
    /// `p · len / N` of the `p` threads, rounded down to a power of two
    /// ([`mixed`] module docs).
    pub min_blocks_per_thread: usize,
}

impl Default for SortConfig {
    /// Defaults scaled for the benchmark sizes this repository runs by
    /// default (see DESIGN.md §3): smaller blocks and a lower blocks-per-
    /// thread bound so data-parallel partitioning still kicks in for inputs
    /// of a few hundred thousand elements.
    fn default() -> Self {
        SortConfig {
            cutoff: 512,
            block_size: 1024,
            min_blocks_per_thread: 16,
        }
    }
}

impl SortConfig {
    /// The exact parameter values reported in the paper (cutoff 512, block
    /// size 4096 elements, at least 128 blocks per partitioning thread).
    pub fn paper() -> Self {
        SortConfig {
            cutoff: 512,
            block_size: 4096,
            min_blocks_per_thread: 128,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_scaled_down_paper_config() {
        let d = SortConfig::default();
        let p = SortConfig::paper();
        assert_eq!(d.cutoff, p.cutoff);
        assert!(d.block_size <= p.block_size);
        assert!(d.min_blocks_per_thread <= p.min_blocks_per_thread);
    }
}
