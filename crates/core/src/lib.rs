//! # teamsteal-core — work-stealing with deterministic team-building
//!
//! This crate is a Rust implementation of the scheduler described in
//! *"Work-stealing for mixed-mode parallelism by deterministic team-building"*
//! (Wimmer & Träff, SPAA 2011).  It generalizes classical work-stealing to
//! **mixed-mode parallelism**: dynamically spawned tasks may declare a fixed,
//! non-malleable thread requirement `r ≥ 1`, and the scheduler assembles a
//! *team* of `r` consecutively numbered worker threads to execute each such
//! task cooperatively.
//!
//! ## Highlights
//!
//! * **Deterministic team-building** — idle workers visit `log p` partners
//!   obtained by flipping one bit of their id (or, on non power-of-two
//!   machines, from a precomputed hierarchy), so the threads that can join a
//!   team at a given coordinator form a fixed, aligned block and every team
//!   gets consecutive local ids `0 … r − 1`.
//! * **One CAS per join** — team membership is tracked in a packed 64-bit
//!   registration word `{r, a, t, N}`; joining a team costs a single
//!   compare-and-swap.
//! * **No overhead in the degenerate case** — with only `r = 1` tasks the
//!   scheduler behaves exactly like a deterministic work-stealer (and can be
//!   switched to classic uniformly random victim selection).
//! * **Helping instead of waiting** — workers waiting for a large team to
//!   form steal smaller tasks from their partners, and conflicts between
//!   competing coordinators are resolved deterministically.
//! * **Team reuse** — a formed team keeps executing further tasks of the same
//!   size without any additional coordination, shrinks for smaller tasks and
//!   is rebuilt for larger ones.
//!
//! ## Quick start
//!
//! ```
//! use teamsteal_core::Scheduler;
//!
//! let scheduler = Scheduler::with_threads(4);
//!
//! // Sequential tasks: classic work-stealing.
//! let counter = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
//! let c = counter.clone();
//! scheduler.scope(|scope| {
//!     for _ in 0..16 {
//!         let c = c.clone();
//!         scope.spawn(move |_ctx| {
//!             c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
//!         });
//!     }
//! });
//! assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 16);
//!
//! // A data-parallel task executed by a team of 4 threads.
//! let hits = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
//! let h = hits.clone();
//! scheduler.run_team(4, move |ctx| {
//!     assert!(ctx.local_id() < ctx.team_size());
//!     h.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
//!     ctx.barrier();
//! });
//! assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 4);
//! ```
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`scheduler`] | [`Scheduler`], [`SchedulerBuilder`], [`Scope`] |
//! | [`config`] | [`SchedulerConfig`] |
//! | [`task`] | task nodes and scope bookkeeping (internal) |
//! | [`cancel`] | the lock-free [`CancelCell`] claim-to-run arbiter (DESIGN.md §17) |
//! | [`context`] | [`TaskContext`] passed to every running task |
//! | [`team`] | [`TeamBarrier`] for intra-team synchronization |
//! | [`metrics`] | execution counters |
//! | `sleep` | the parking/wakeup controller over the eventcount (DESIGN.md §12) |
//! | `worker` | the worker loop implementing Algorithms 5–9 of the paper |

#![warn(missing_docs)]

pub mod cancel;
pub mod config;
pub mod context;
pub mod metrics;
pub mod scheduler;
mod sleep;
pub mod task;
pub mod team;
#[doc(hidden)]
pub mod test_support;
mod worker;

pub use cancel::CancelCell;
pub use config::SchedulerConfig;
pub use context::TaskContext;
pub use metrics::{MetricsSnapshot, WakeLatencyHistogram};
pub use scheduler::{ConcurrentScope, ReclamationSnapshot, Scheduler, SchedulerBuilder, Scope};
pub use team::TeamBarrier;
pub use worker::{enable_stall_debug, stall_report};

// Re-export the topology types users need to configure a scheduler.
pub use teamsteal_topology::{StealPolicy, Topology};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{with_watchdog, WATCHDOG};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn counter() -> Arc<AtomicUsize> {
        Arc::new(AtomicUsize::new(0))
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let s = Scheduler::with_threads(2);
        let out = s.scope(|_| 42);
        assert_eq!(out, 42);
    }

    #[test]
    fn single_thread_scheduler_runs_tasks() {
        let s = Scheduler::with_threads(1);
        let c = counter();
        let cc = Arc::clone(&c);
        s.scope(|scope| {
            for _ in 0..100 {
                let cc = Arc::clone(&cc);
                scope.spawn(move |_| {
                    cc.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(c.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn nested_spawns_all_execute() {
        with_watchdog("nested_spawns_all_execute", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let c = counter();
            let cc = Arc::clone(&c);
            s.scope(|scope| {
                let cc = Arc::clone(&cc);
                scope.spawn(move |ctx| {
                    for _ in 0..10 {
                        let cc = Arc::clone(&cc);
                        ctx.spawn(move |ctx2| {
                            let cc = Arc::clone(&cc);
                            ctx2.spawn(move |_| {
                                cc.fetch_add(1, Ordering::Relaxed);
                            });
                        });
                    }
                });
            });
            assert_eq!(c.load(Ordering::Relaxed), 10);
        });
    }

    #[test]
    fn team_task_runs_on_every_member_with_distinct_local_ids() {
        with_watchdog("team_task_runs_on_every_member_with_distinct_local_ids", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let seen = Arc::new([
                AtomicUsize::new(0),
                AtomicUsize::new(0),
                AtomicUsize::new(0),
                AtomicUsize::new(0),
            ]);
            let seen2 = Arc::clone(&seen);
            s.run_team(4, move |ctx| {
                assert_eq!(ctx.team_size(), 4);
                assert_eq!(ctx.requested_threads(), 4);
                seen2[ctx.local_id()].fetch_add(1, Ordering::Relaxed);
                ctx.barrier();
            });
            for slot in seen.iter() {
                assert_eq!(slot.load(Ordering::Relaxed), 1);
            }
        });
    }

    #[test]
    fn degenerate_case_uses_no_team_machinery() {
        // Paper, Section 3.1: with only r = 1 tasks the algorithm coincides
        // with deterministic work-stealing and the extra CAS never happens.
        let s = Scheduler::with_threads(2);
        let c = counter();
        let cc = Arc::clone(&c);
        s.scope(|scope| {
            for _ in 0..200 {
                let cc = Arc::clone(&cc);
                scope.spawn(move |_| {
                    cc.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(c.load(Ordering::Relaxed), 200);
        let m = s.metrics();
        assert_eq!(m.teams_formed, 0);
        assert_eq!(m.registrations, 0);
        assert_eq!(m.team_tasks_executed, 0);
        assert_eq!(m.tasks_executed, 200);
    }

    #[test]
    fn panicking_task_propagates_to_scope() {
        let s = Scheduler::with_threads(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.scope(|scope| {
                scope.spawn(|_| panic!("boom"));
            });
        }));
        assert!(result.is_err(), "panic must propagate out of scope()");
        // The scheduler remains usable afterwards.
        let c = counter();
        let cc = Arc::clone(&c);
        s.run(move |_| {
            cc.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(c.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic]
    fn oversized_team_request_is_rejected() {
        let s = Scheduler::with_threads(2);
        s.run_team(4, |_| {});
    }

    #[test]
    fn pending_small_and_large_teams_do_not_deadlock() {
        with_watchdog("pending_small_and_large_teams_do_not_deadlock", WATCHDOG, || {
            // Regression test: with an r = 2 task and an r = 4 task pending in the
            // same scope, two half-machine teams used to form, both try to grow,
            // and deadlock (Section 3.1 requires the coordinator to *disband* a
            // formed team before coordinating a larger task).
            let s = Scheduler::with_threads(4);
            let small = counter();
            let large = counter();
            for _ in 0..5 {
                let small = Arc::clone(&small);
                let large = Arc::clone(&large);
                s.scope(|scope| {
                    for _ in 0..2 {
                        let c = Arc::clone(&small);
                        scope.spawn_team(2, move |ctx| {
                            c.fetch_add(1, Ordering::Relaxed);
                            ctx.barrier();
                        });
                        let c = Arc::clone(&large);
                        scope.spawn_team(4, move |ctx| {
                            c.fetch_add(1, Ordering::Relaxed);
                            ctx.barrier();
                        });
                    }
                });
            }
            assert_eq!(small.load(Ordering::Relaxed), 5 * 2 * 2);
            assert_eq!(large.load(Ordering::Relaxed), 5 * 2 * 4);
        });
    }

    #[test]
    fn uniform_random_policy_runs_sequential_tasks() {
        with_watchdog("uniform_random_policy_runs_sequential_tasks", WATCHDOG, || {
            let s = Scheduler::builder()
                .threads(3)
                .steal_policy(StealPolicy::UniformRandom)
                .build();
            let c = counter();
            let cc = Arc::clone(&c);
            s.scope(|scope| {
                for _ in 0..50 {
                    let cc = Arc::clone(&cc);
                    scope.spawn(move |ctx| {
                        let cc = Arc::clone(&cc);
                        ctx.spawn(move |_| {
                            cc.fetch_add(1, Ordering::Relaxed);
                        });
                    });
                }
            });
            assert_eq!(c.load(Ordering::Relaxed), 50);
        });
    }

    /// Every way a team task enters a `UniformRandom` scheduler is refused
    /// before the task is counted: that policy builds no teams, so a queued
    /// team task would never run and its scope would never return.  The
    /// in-task spawn panics inside its parent, whose scope re-throws it.
    #[test]
    #[should_panic(expected = "hierarchical steal policy")]
    fn uniform_random_policy_rejects_team_tasks() {
        with_watchdog("uniform_random_policy_rejects_team_tasks", WATCHDOG, || {
            let s = Scheduler::builder()
                .threads(4)
                .steal_policy(StealPolicy::UniformRandom)
                .build();
            let refused = |f: &dyn Fn()| {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                assert!(result.is_err(), "a team task was accepted under UniformRandom");
            };
            refused(&|| s.run_team(2, |_| {}));
            let concurrent = ConcurrentScope::new();
            refused(&|| concurrent.submit_team(&s, 2, |_| {}));
            assert_eq!(concurrent.pending(), 0, "the refused task was counted");
            s.run(|ctx| ctx.spawn_team(2, |_| {}));
        });
    }
}
