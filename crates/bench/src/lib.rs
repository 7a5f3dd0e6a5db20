//! Benchmark harness reproducing the paper's evaluation (Tables 1–10).
//!
//! The paper compares, for four input distributions and six input sizes on
//! four machines, the running time of
//!
//! | paper column | this crate |
//! |---|---|
//! | Seq/STL | [`Variant::SeqStd`] — `slice::sort_unstable` |
//! | SeqQS | [`Variant::SeqQs`] — handwritten sequential Quicksort |
//! | Fork | [`Variant::Fork`] — Algorithm 10 on the deterministic work-stealer |
//! | Randfork | [`Variant::RandFork`] — Algorithm 10 with uniformly random stealing |
//! | Cilk, Cilk sample | — (no honest substitute without a real fork-join runtime vendored in the repository; see DESIGN.md §3) |
//! | MMPar | [`Variant::MmPar`] — Algorithm 11 on the team-building work-stealer |
//!
//! [`TableSpec`] encodes which table uses which thread count, aggregation
//! (average vs. best of N) and column set; [`run_table`] regenerates one
//! table and [`render_table`] prints it in the paper's row/column layout.
//! [`interleave`] is the one repetition loop of the tables and of `perf`,
//! [`measured`] the one place a counter delta is taken;
//! [`VariantRunner::sort_cells`] runs the sort variants on the loop.
//!
//! The crate is a client of the benchmark package's library
//! (`teamsteal_benchmark`, `benchmark/` at the repository root): [`report`]
//! is the typed `BENCH_*.json` schema over its `json::Json`, timing
//! aggregates are its `stats`, the host's core count and commit its `host`.

#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod tables;

pub use report::{check_regressions, CheckOutcome, Environment, Report, RunRecord, TimingSummary};
pub use runner::{interleave, measured, Cell, Variant, VariantRunner};
pub use tables::{render_table, run_table, Aggregation, TableResult, TableSpec};
