//! Low-level utilities shared by all `teamsteal` crates.
//!
//! This crate contains the small, dependency-free building blocks the
//! scheduler is made of:
//!
//! * [`CachePadded`] — re-exported cache-line padding wrapper used to keep
//!   per-worker hot words on separate cache lines,
//! * [`Backoff`] — the spin-then-yield prefix of the scheduler's waits and
//!   its unproductive-round count; the paper's `backoff()` intervals
//!   (Section 4: "starting at 1 microsecond, and going up to 10
//!   milliseconds") became the parking constants of the worker, since the
//!   waits that used to sleep now park on the [`eventcount`],
//! * [`rng`] — small, fast, deterministic PRNGs (SplitMix64 / Xoshiro256++)
//!   used for randomized victim selection (the paper's *Randfork* baseline and
//!   Refinement 4) and for the benchmark input generators,
//! * [`bits`] — the bit manipulation helpers the paper relies on
//!   (most-significant-bit / `bsrl`, power-of-two rounding, partner id
//!   bit-flipping) plus the occupancy-bitmask helpers of the scheduler's
//!   queue scan,
//! * [`slab`] — a recycling slab allocator with an intrusive lock-free free
//!   list, used for the per-worker task-node arenas,
//! * [`epoch`] — epoch-based memory reclamation for the scheduler's
//!   lock-free queues (injection-queue segments, deque growth buffers), so a
//!   long-lived scheduler has bounded memory instead of leak-until-drop,
//! * [`countdown`] — the sharded completion countdown behind scopes: spawns
//!   and finishes count on the calling thread's own cache line, and a
//!   two-pass sum decides "nothing outstanding",
//! * [`eventcount`] — the futex-style blocking primitive behind the
//!   scheduler's event-driven parking (prepare → recheck → park, targeted
//!   per-worker wakes), replacing timed sleep-polling on every idle and
//!   coordination path,
//! * [`affinity`] — the process's CPU mask and thread pinning, with which
//!   the scheduler places worker `i` on the `i`-th allowed CPU,
//! * [`timing`] — the monotonic timer the harnesses and examples time one
//!   run with, and the paper's speedup ratio.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod affinity;
pub mod backoff;
pub mod bits;
pub mod countdown;
pub mod epoch;
pub mod eventcount;
pub mod rng;
pub mod sendptr;
pub mod slab;
pub mod sync;
pub mod timing;

pub use backoff::Backoff;
pub use crossbeam_utils::CachePadded;
pub use sendptr::{SendConstPtr, SendMutPtr};
