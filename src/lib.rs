//! # teamsteal — work-stealing for mixed-mode parallelism by deterministic team-building
//!
//! Facade crate re-exporting the public API of the `teamsteal` workspace, a
//! Rust reproduction of *Wimmer & Träff, "Work-stealing for mixed-mode
//! parallelism by deterministic team-building" (SPAA 2011)*.
//!
//! * [`core`](teamsteal_core) — the scheduler itself ([`Scheduler`],
//!   [`Scope`], [`TaskContext`], team barrier, metrics).
//! * [`topology`](teamsteal_topology) — machine hierarchy and deterministic
//!   partner computation.
//! * [`sort`](teamsteal_sort) — the paper's evaluation workload: sequential,
//!   fork-join and mixed-mode parallel Quicksort.
//! * [`data`](teamsteal_data) — the benchmark input distributions.
//!
//! At the repository root, `README.md` gives an overview of the workspace
//! layout, `DESIGN.md` documents the reproduction decisions and deviations,
//! and `EXPERIMENTS.md` records how to regenerate the paper's tables.
//!
//! ```
//! use teamsteal::{Scheduler, SortConfig};
//!
//! let scheduler = Scheduler::with_threads(4);
//! let mut data: Vec<u32> = (0..100_000u32).rev().collect();
//! teamsteal::mixed_mode_sort(&scheduler, &mut data, &SortConfig::default());
//! assert!(data.windows(2).all(|w| w[0] <= w[1]));
//! ```
//!
//! ## Reading the metrics
//!
//! The scheduler counts every observable event; snapshot
//! [`Scheduler::metrics`] around a region and diff with
//! [`MetricsSnapshot::delta_since`] to attribute events to it (README,
//! "Reading the metrics"):
//!
//! ```
//! use teamsteal::Scheduler;
//!
//! let scheduler = Scheduler::with_threads(4);
//! let before = scheduler.metrics();
//! scheduler.run_team(4, |ctx| {
//!     // ... data-parallel work on all 4 members ...
//!     ctx.barrier();
//! });
//! let delta = scheduler.metrics().delta_since(&before);
//! assert_eq!(delta.teams_formed, 1);        // one team, built once
//! assert!(delta.registrations >= 3);        // one CAS per non-coordinator
//! assert_eq!(delta.team_tasks_executed, 4); // counted per participant
//! ```

#![warn(missing_docs)]

pub use teamsteal_core::{
    enable_stall_debug, stall_report, ConcurrentScope, MetricsSnapshot, ReclamationSnapshot,
    Scheduler, SchedulerBuilder, SchedulerConfig, Scope, StealPolicy, TaskContext, TeamBarrier,
    Topology, WakeLatencyHistogram,
};
pub use teamsteal_data::{is_permutation_of, is_sorted, Distribution, Scale};
pub use teamsteal_sort::{
    best_np, fork_join_sort, mixed_mode_sort, sequential_quicksort, std_sort,
    ParallelPartitioner, SortConfig,
};

/// The multi-tenant task-service front-end (DESIGN.md §16): a persistent
/// scheduler behind long-lived tenant handles with weighted-fair admission,
/// overload shedding and graceful drain.
pub mod service {
    pub use teamsteal_service::*;
}

/// Further mixed-mode parallel application kernels built on the scheduler
/// (reductions, scans, matrix multiplication, stencils, BFS, histograms) —
/// the paper's "future work" applications.
pub mod apps {
    pub use teamsteal_apps::*;
}

/// Re-export of the individual workspace crates for users that need the
/// lower-level substrates (deque, registration word, utilities).
pub mod crates {
    pub use teamsteal_apps as apps;
    pub use teamsteal_core as core;
    pub use teamsteal_data as data;
    pub use teamsteal_deque as deque;
    pub use teamsteal_registration as registration;
    pub use teamsteal_sort as sort;
    pub use teamsteal_topology as topology;
    pub use teamsteal_util as util;
}
