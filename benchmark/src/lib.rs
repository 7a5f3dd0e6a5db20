//! The repository's benchmark: the paper's sort experiment, a task tree, a
//! team stream and a paced task service, measured end to end, plus a
//! per-layer ladder and a traced run.  See `README.md` next to `Cargo.toml`
//! and `BENCHMARK.json` at the repository root.
//!
//! Everything here drives the system under test only through public items
//! of the `util`, `deque`, `registration`, `core`, `service`, `sort` and
//! `data` crates.

pub mod cli;
pub mod host;
pub mod json;
pub mod ladder;
pub mod pacer;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod watchdog;
pub mod workloads;
