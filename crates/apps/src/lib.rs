//! Mixed-mode parallel application kernels on the `teamsteal` scheduler.
//!
//! The paper evaluates the team-building work-stealer on a single
//! application — the mixed-mode parallel Quicksort of Section 5 — and lists
//! "further mixed-mode parallel applications" as future work.  This crate
//! provides that follow-up: a collection of kernels that mix task parallelism
//! (`r = 1` tasks scheduled by classic work-stealing) with data-parallel team
//! tasks (`r > 1`), exercising every part of the scheduler's public API:
//!
//! | module | kernel | how it mixes modes |
//! |---|---|---|
//! | [`reduce`] | reductions (sum, min/max, dot product) | one team task; members reduce disjoint chunks, the leader combines partials after a barrier |
//! | [`scan`] | prefix sums (inclusive / exclusive) | classic three-phase team scan: local scan, leader scans the block sums, members add their offset |
//! | [`matmul`] | blocked matrix multiplication | every row band is one task; a band with enough work becomes a team task whose members own row stripes |
//! | [`bfs`] | level-synchronous breadth-first search | a level with enough frontier edges is one team task; smaller levels run the sequential level step |
//! | [`histogram`] | histogramming / bucket counting | members build private histograms of disjoint input chunks and merge ranges of buckets after a barrier |
//!
//! The [`harness`] module wraps the kernels' public entry points behind
//! uniform prepare / timed-run signatures for the perf-trajectory harness
//! (`teamsteal-bench`, `perf` bin).
//!
//! All kernels take an explicit [`Scheduler`](teamsteal_core::Scheduler)
//! reference, never create their own thread pools, and choose their team
//! sizes with the same "largest power of two that keeps enough work per
//! member" policy the paper's `getBestNp` uses for Quicksort.  The work per
//! member is each module's `MIN_*` constant; no call overrides it.  Where no
//! team pays — below that floor, or on a one-thread scheduler — a kernel
//! runs its sequential code on the caller's thread; only matmul spreads its
//! independent row bands as `r = 1` tasks at `p ≥ 2`.  A kernel whose team
//! never pays leaves the crate: the 1-D Jacobi stencil did, its `p = 2`
//! median reading 0.91–0.97× its sequential code in every series measured.
//!
//! # Example
//!
//! ```
//! use teamsteal_core::Scheduler;
//! use teamsteal_apps::reduce::parallel_sum;
//!
//! let scheduler = Scheduler::with_threads(4);
//! let data: Vec<u64> = (1..=10_000).collect();
//! let total = parallel_sum(&scheduler, &data);
//! assert_eq!(total, 10_000 * 10_001 / 2);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bfs;
pub mod harness;
pub mod histogram;
pub mod matmul;
pub mod micro;
pub mod reduce;
pub mod scan;
mod slots;
pub mod team_size;

pub use bfs::{bfs_mixed, bfs_sequential, CsrGraph};
pub use harness::{Kernel, Workload};
pub use histogram::{histogram_mixed, histogram_sequential};
pub use matmul::{matmul_mixed, matmul_sequential, Matrix};
pub use reduce::{dot_product, parallel_max, parallel_min, parallel_sum, team_reduce};
pub use scan::{exclusive_scan_mixed, inclusive_scan_mixed};
pub use team_size::best_team_size;
