//! Stress tests for the task-node arenas and the lock-free injection queue.
//!
//! A task-node arena recycles nodes through two intrusive free lists (the
//! owner's private one and a lock-free remote one); a worker owns its arena
//! for life, an external pin slot's arena changes owner with every claim.
//! The injector is a segment-chained MPMC queue.  Both are exactly the kind
//! of lock-free code whose bugs show up as lost, duplicated or corrupted
//! tasks under concurrency.  These tests hammer them through the public API and verify
//! exactly-once execution, correct completion accounting (a returned scope
//! *is* the pending-counter invariant), that recycling actually happens and
//! that the single-writer worker counters stay exact (via the scheduler
//! metrics).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use teamsteal::{ConcurrentScope, Scheduler, TaskContext};

mod common;
use common::{with_watchdog, WATCHDOG};

/// Steady-state spawn/finish cycles must be served from the recycling arena,
/// not from fresh allocations: after a warm-up scope, the recycled count has
/// to track the spawn count closely.
#[test]
fn steady_state_spawns_recycle_nodes() {
    with_watchdog("steady_state_spawns_recycle_nodes", WATCHDOG, || {
        // One worker makes the accounting deterministic: the same worker
        // spawns, executes and frees every node, so a warmed-up free list
        // must serve the entire second burst.
        let scheduler = Scheduler::with_threads(1);
        const BURST: usize = 20_000;
        let run = || {
            let hits = Arc::new(AtomicUsize::new(0));
            let h = Arc::clone(&hits);
            scheduler.scope(|scope| {
                let h = Arc::clone(&h);
                scope.spawn(move |ctx| {
                    for _ in 0..BURST {
                        let h = Arc::clone(&h);
                        ctx.spawn(move |_| {
                            h.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            });
            assert_eq!(hits.load(Ordering::Relaxed), BURST);
        };
        run(); // warm-up: populates the free list with BURST nodes
        let before = scheduler.metrics();
        run();
        let delta = scheduler.metrics().delta_since(&before);
        assert_eq!(delta.tasks_spawned as usize, BURST);
        assert_eq!(
            delta.nodes_recycled, delta.tasks_spawned,
            "a warmed-up arena must serve every steady-state spawn from the \
             free list"
        );
    });
}

/// Worker counters are single-writer (a relaxed load and store, not a
/// locked add): only the worker that owns a counter may bump it.  An
/// oversubscribed pool (8 workers on however few cores) that steals and
/// frees nodes across workers all the time must still count every spawn
/// and every execution exactly once — a write to another worker's counter
/// would race with that worker's own and lose counts.
#[test]
fn counters_stay_exact_under_cross_worker_frees() {
    #[derive(Default)]
    struct Tally {
        spawned: AtomicU64,
        ran: AtomicU64,
    }
    fn tree(ctx: &TaskContext<'_>, depth: u32, tally: &Arc<Tally>) {
        tally.ran.fetch_add(1, Ordering::Relaxed);
        if depth == 0 {
            return;
        }
        for _ in 0..2 {
            let tally = Arc::clone(tally);
            tally.spawned.fetch_add(1, Ordering::Relaxed);
            ctx.spawn(move |ctx| tree(ctx, depth - 1, &tally));
        }
    }
    with_watchdog(
        "counters_stay_exact_under_cross_worker_frees",
        WATCHDOG,
        || {
            const DEPTH: u32 = 16;
            const TREES: u64 = 20;
            let scheduler = Scheduler::with_threads(8);
            let tally = Arc::new(Tally::default());
            let before = scheduler.metrics();
            for _ in 0..TREES {
                let tally = Arc::clone(&tally);
                scheduler.run(move |ctx| tree(ctx, DEPTH, &tally));
            }
            let delta = scheduler.metrics().delta_since(&before);
            let spawned = tally.spawned.load(Ordering::Relaxed);
            let ran = tally.ran.load(Ordering::Relaxed);
            assert_eq!(
                ran,
                TREES * ((1 << (DEPTH + 1)) - 1),
                "every task of every tree ran"
            );
            assert_eq!(
                spawned,
                ran - TREES,
                "every task but the roots is an in-task spawn"
            );
            assert!(
                delta.steals > 0,
                "an 8-worker pool on this tree must steal: {delta:?}"
            );
            assert_eq!(
                delta.tasks_spawned, spawned,
                "in-task spawns counted exactly once"
            );
            assert_eq!(delta.tasks_executed, ran, "executions counted exactly once");
            assert!(
                delta.nodes_recycled <= delta.tasks_spawned,
                "more recycled nodes ({}) than spawns ({})",
                delta.nodes_recycled,
                delta.tasks_spawned
            );
        },
    );
}

/// Node recycling must never hand the same node to two live tasks: every
/// task carries a unique canary and checks it when it runs.  A node aliased
/// while live would run the wrong closure or a torn one.
#[test]
fn recycled_nodes_never_alias_live_tasks() {
    with_watchdog("recycled_nodes_never_alias_live_tasks", WATCHDOG, || {
        let scheduler = Scheduler::with_threads(4);
        const TASKS: usize = 40_000;
        let seen: Arc<Vec<AtomicUsize>> =
            Arc::new((0..TASKS).map(|_| AtomicUsize::new(0)).collect());
        let s = Arc::clone(&seen);
        scheduler.scope(|scope| {
            let s = Arc::clone(&s);
            scope.spawn(move |ctx| {
                for canary in 0..TASKS {
                    let s = Arc::clone(&s);
                    ctx.spawn(move |_| {
                        // `canary` is captured inline in the recycled node;
                        // a duplicated or corrupted node double-counts.
                        s[canary].fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        for (canary, slot) in seen.iter().enumerate() {
            assert_eq!(
                slot.load(Ordering::Relaxed),
                1,
                "task {canary} ran a wrong number of times"
            );
        }
    });
}

/// Many external threads submitting scopes concurrently: the MPMC injector
/// must deliver every root task exactly once, across producers.
#[test]
fn concurrent_external_submitters_share_the_injector() {
    with_watchdog(
        "concurrent_external_submitters_share_the_injector",
        WATCHDOG,
        || {
            const SUBMITTERS: usize = 4;
            const SCOPES_PER_SUBMITTER: usize = 40;
            const TASKS_PER_SCOPE: usize = 25;
            let scheduler = Arc::new(Scheduler::with_threads(4));
            let executed = Arc::new(AtomicUsize::new(0));
            let before = scheduler.metrics();
            let submitters: Vec<_> = (0..SUBMITTERS)
                .map(|_| {
                    let scheduler = Arc::clone(&scheduler);
                    let executed = Arc::clone(&executed);
                    std::thread::spawn(move || {
                        for _ in 0..SCOPES_PER_SUBMITTER {
                            let executed = Arc::clone(&executed);
                            scheduler.scope(|scope| {
                                for _ in 0..TASKS_PER_SCOPE {
                                    let executed = Arc::clone(&executed);
                                    scope.spawn(move |_| {
                                        executed.fetch_add(1, Ordering::Relaxed);
                                    });
                                }
                            });
                        }
                    })
                })
                .collect();
            for submitter in submitters {
                submitter.join().unwrap();
            }
            let expected = SUBMITTERS * SCOPES_PER_SUBMITTER * TASKS_PER_SCOPE;
            assert_eq!(executed.load(Ordering::Relaxed), expected);
            let delta = scheduler.metrics().delta_since(&before);
            assert_eq!(
                delta.tasks_injected as usize, expected,
                "every root task flows through the injection queue exactly once"
            );
        },
    );
}

/// Team tasks also live in arena nodes (their nodes are recycled by whichever
/// member finishes last, usually not the spawning worker): cross-worker frees
/// must not corrupt the free lists.
#[test]
fn team_task_nodes_survive_cross_worker_recycling() {
    with_watchdog(
        "team_task_nodes_survive_cross_worker_recycling",
        WATCHDOG,
        || {
            let scheduler = Scheduler::with_threads(4);
            let hits = Arc::new(AtomicUsize::new(0));
            const ROUNDS: usize = 120;
            let h = Arc::clone(&hits);
            scheduler.scope(|scope| {
                let h = Arc::clone(&h);
                // Root task spawns team tasks from a worker thread so their
                // nodes come from the worker's arena.
                scope.spawn(move |ctx| {
                    for _ in 0..ROUNDS {
                        let h = Arc::clone(&h);
                        ctx.spawn_team(2, move |tctx| {
                            h.fetch_add(1, Ordering::Relaxed);
                            tctx.barrier();
                        });
                    }
                });
            });
            assert_eq!(hits.load(Ordering::Relaxed), ROUNDS * 2);
        },
    );
}

/// Oversized closures fall back to boxed storage; mixing inline and boxed
/// jobs in one scope must not confuse the recycling protocol.
#[test]
fn oversized_captures_mix_with_inline_ones() {
    with_watchdog("oversized_captures_mix_with_inline_ones", WATCHDOG, || {
        let scheduler = Scheduler::with_threads(2);
        let small_sum = Arc::new(AtomicUsize::new(0));
        let big_sum = Arc::new(AtomicUsize::new(0));
        const N: usize = 2_000;
        {
            let small_sum = Arc::clone(&small_sum);
            let big_sum = Arc::clone(&big_sum);
            scheduler.scope(|scope| {
                let small_sum = Arc::clone(&small_sum);
                let big_sum = Arc::clone(&big_sum);
                scope.spawn(move |ctx| {
                    for i in 0..N {
                        if i % 2 == 0 {
                            let s = Arc::clone(&small_sum);
                            ctx.spawn(move |_| {
                                s.fetch_add(i, Ordering::Relaxed);
                            });
                        } else {
                            // 32 words of captured payload: far beyond the
                            // inline area, so this lands in the boxed path.
                            let payload = [i; 32];
                            let b = Arc::clone(&big_sum);
                            ctx.spawn(move |_| {
                                b.fetch_add(payload.iter().sum::<usize>() / 32, Ordering::Relaxed);
                            });
                        }
                    }
                });
            });
        }
        let expected_small: usize = (0..N).filter(|i| i % 2 == 0).sum();
        let expected_big: usize = (0..N).filter(|i| i % 2 == 1).sum();
        assert_eq!(small_sum.load(Ordering::Relaxed), expected_small);
        assert_eq!(big_sum.load(Ordering::Relaxed), expected_big);
    });
}

/// Root tasks take their nodes from the arena of the external pin slot their
/// submitter claims, and with more submitters than slots every arena
/// changes owner all the time while workers free its nodes remotely.  Each
/// task carries a canary the body checks and marks its id in an
/// exactly-once bitmap: a node handed to two live tasks, or recycled while
/// still queued, breaks one or the other.
#[test]
fn external_arenas_change_hands_without_aliasing() {
    with_watchdog(
        "external_arenas_change_hands_without_aliasing",
        WATCHDOG,
        || {
            // More submitters than the pool's 32 slots, so the slots' arenas
            // keep changing owner.
            const SUBMITTERS: usize = 40;
            const PER_SUBMITTER: usize = 3_000;
            const TASKS: usize = SUBMITTERS * PER_SUBMITTER;
            const MAGIC: usize = 0x5a5a_c3c3;
            #[derive(Default)]
            struct Check {
                bad_canaries: AtomicUsize,
                repeats: AtomicUsize,
            }
            let scheduler = Arc::new(Scheduler::builder().threads(2).build());
            let scope = ConcurrentScope::new();
            let ran: Arc<Vec<AtomicU64>> =
                Arc::new((0..TASKS.div_ceil(64)).map(|_| AtomicU64::new(0)).collect());
            let check = Arc::new(Check::default());
            let before = scheduler.metrics();
            let submitters: Vec<_> = (0..SUBMITTERS)
                .map(|t| {
                    let scheduler = Arc::clone(&scheduler);
                    let scope = scope.clone();
                    let ran = Arc::clone(&ran);
                    let check = Arc::clone(&check);
                    std::thread::spawn(move || {
                        for id in t * PER_SUBMITTER..(t + 1) * PER_SUBMITTER {
                            let canary = (id, id ^ MAGIC);
                            let ran = Arc::clone(&ran);
                            let check = Arc::clone(&check);
                            scope.submit(&scheduler, move |_| {
                                let (id, sealed) = canary;
                                if sealed != id ^ MAGIC {
                                    check.bad_canaries.fetch_add(1, Ordering::Relaxed);
                                    return;
                                }
                                let bit = 1u64 << (id % 64);
                                if ran[id / 64].fetch_or(bit, Ordering::Relaxed) & bit != 0 {
                                    check.repeats.fetch_add(1, Ordering::Relaxed);
                                }
                            });
                        }
                    })
                })
                .collect();
            for submitter in submitters {
                submitter.join().unwrap();
            }
            scope.wait_idle();
            assert!(scope.take_panic().is_none(), "no task may panic");
            assert_eq!(
                check.bad_canaries.load(Ordering::Relaxed),
                0,
                "a task ran a torn node"
            );
            assert_eq!(check.repeats.load(Ordering::Relaxed), 0, "a task ran twice");
            let missing = (0..TASKS)
                .filter(|&id| ran[id / 64].load(Ordering::Relaxed) & (1 << (id % 64)) == 0)
                .count();
            assert_eq!(missing, 0, "every submitted task ran");
            let delta = scheduler.metrics().delta_since(&before);
            assert_eq!(delta.tasks_injected as usize, TASKS);
            assert_eq!(delta.total_executions() as usize, TASKS);
        },
    );
}
