//! Integration tests for the sharded injection queue (DESIGN.md §13).
//!
//! PR 6 split the single global injector into one shard per hierarchy
//! domain: external submitters push to an affinity-keyed shard, workers pop
//! local-first and sweep remote shards in distance order.  These tests pin
//! the properties that must survive the split: every externally submitted
//! task executes exactly once under heavy concurrent submission (no task is
//! lost between shards), the per-shard retained-segment counts stay bounded
//! (reclamation still works when consumption is spread over many tails),
//! every pop is classified as either local or remote, and team workloads
//! keep running while the injector is under multi-producer fire.  All
//! scheduler-lifetime tests run under the 90 s watchdog
//! (`tests/common/mod.rs`).

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use teamsteal::Scheduler;

use common::{with_watchdog, WATCHDOG};

/// Polls `predicate` for up to `budget`; reclamation is asynchronous, so
/// "eventually bounded" assertions give the idle workers a moment instead
/// of racing them.
fn settle(budget: Duration, mut predicate: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + budget;
    loop {
        if predicate() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn concurrent_submitters_stress_sharded_injector() {
    with_watchdog("sharded_injector_stress", WATCHDOG, || {
        // 16 workers → two 8-worker domains, a genuinely sharded injector
        // (multiple domains), unlike the one-shard small schedulers in
        // the other stress tests.  8 scope submitters hammer the shards
        // while 2 more threads keep forming teams, so the sweep path, the
        // hierarchical wake path, and team building all run concurrently.
        const SCOPE_SUBMITTERS: usize = 8;
        const TEAM_SUBMITTERS: usize = 2;
        const SCOPES_PER_SUBMITTER: usize = 30;
        const PER_SCOPE: usize = 24;
        const TEAMS_PER_SUBMITTER: usize = 20;
        const TEAM_SIZE: usize = 4;

        let scheduler = Arc::new(Scheduler::with_threads(16));
        let shards = scheduler.injector_shard_segments().len();
        assert!(
            shards >= 2,
            "test premise: this configuration must produce a sharded injector, got {shards}"
        );
        let before = scheduler.metrics();
        let executed = Arc::new(AtomicUsize::new(0));
        let team_hits = Arc::new(AtomicUsize::new(0));

        let mut threads = Vec::new();
        for _ in 0..SCOPE_SUBMITTERS {
            let scheduler = Arc::clone(&scheduler);
            let executed = Arc::clone(&executed);
            threads.push(std::thread::spawn(move || {
                for _ in 0..SCOPES_PER_SUBMITTER {
                    let counter = Arc::clone(&executed);
                    scheduler.scope(|scope| {
                        for _ in 0..PER_SCOPE {
                            let counter = Arc::clone(&counter);
                            scope.spawn(move |_| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            }));
        }
        for _ in 0..TEAM_SUBMITTERS {
            let scheduler = Arc::clone(&scheduler);
            let team_hits = Arc::clone(&team_hits);
            threads.push(std::thread::spawn(move || {
                for _ in 0..TEAMS_PER_SUBMITTER {
                    let hits = Arc::clone(&team_hits);
                    scheduler.run_team(TEAM_SIZE, move |ctx| {
                        hits.fetch_add(1, Ordering::Relaxed);
                        ctx.barrier();
                    });
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }

        // Exactly-once execution across every shard.
        let scope_tasks = SCOPE_SUBMITTERS * SCOPES_PER_SUBMITTER * PER_SCOPE;
        assert_eq!(executed.load(Ordering::Relaxed), scope_tasks);
        assert_eq!(
            team_hits.load(Ordering::Relaxed),
            TEAM_SUBMITTERS * TEAMS_PER_SUBMITTER * TEAM_SIZE
        );
        let delta = scheduler.metrics().delta_since(&before);
        let injected = scope_tasks + TEAM_SUBMITTERS * TEAMS_PER_SUBMITTER;
        assert_eq!(
            delta.tasks_injected as usize, injected,
            "every root task flowed through the sharded injector exactly once"
        );
        // Every injector pop is classified local-or-remote, never both and
        // never neither.
        assert_eq!(
            delta.injector_local_pops + delta.injector_remote_pops,
            delta.tasks_injected,
            "pop classification must partition the injected tasks: {delta:?}"
        );

        // Bounded retention per shard, not just in aggregate: a shard whose
        // consumed segments never get reclaimed would hide behind a healthy
        // sum if another shard stayed tiny.
        assert!(
            settle(Duration::from_secs(20), || scheduler
                .injector_shard_segments()
                .iter()
                .all(|&segs| segs <= 16)),
            "a shard retained segments proportional to traffic: {:?}",
            scheduler.injector_shard_segments()
        );
        let per_shard = scheduler.injector_shard_segments();
        assert_eq!(
            per_shard.iter().sum::<usize>(),
            scheduler.reclamation().injector_segments,
            "per-shard segment counts must add up to the aggregate gauge"
        );
        assert!(
            settle(Duration::from_secs(20), || {
                scheduler.metrics().delta_since(&before).segments_reclaimed > 0
            }),
            "multi-producer run reclaimed nothing: {:?}",
            scheduler.metrics().delta_since(&before)
        );
    });
}

#[test]
fn single_shard_width_keeps_exactly_once_semantics() {
    with_watchdog("single_shard_width", WATCHDOG, || {
        // p ≤ 8 keeps the injector at one shard; concurrent submission
        // must behave identically and every pop must count as local.
        const SUBMITTERS: usize = 8;
        const SCOPES_PER_SUBMITTER: usize = 20;
        const PER_SCOPE: usize = 16;
        let scheduler = Arc::new(Scheduler::with_threads(4));
        assert_eq!(scheduler.injector_shard_segments().len(), 1);
        let before = scheduler.metrics();
        let executed = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                let scheduler = Arc::clone(&scheduler);
                let executed = Arc::clone(&executed);
                std::thread::spawn(move || {
                    for _ in 0..SCOPES_PER_SUBMITTER {
                        let counter = Arc::clone(&executed);
                        scheduler.scope(|scope| {
                            for _ in 0..PER_SCOPE {
                                let counter = Arc::clone(&counter);
                                scope.spawn(move |_| {
                                    counter.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total = SUBMITTERS * SCOPES_PER_SUBMITTER * PER_SCOPE;
        assert_eq!(executed.load(Ordering::Relaxed), total);
        let delta = scheduler.metrics().delta_since(&before);
        assert_eq!(delta.tasks_injected as usize, total);
        // With one shard every worker's sweep starts (and ends) at shard 0,
        // so no pop can be remote.
        assert_eq!(delta.injector_remote_pops, 0, "{delta:?}");
        assert_eq!(delta.injector_local_pops, delta.tasks_injected);
    });
}

#[test]
fn a_claimed_backlog_runs_in_submission_order() {
    with_watchdog("claimed_backlog_order", WATCHDOG, || {
        // One worker, held by the first task until 100 more are queued
        // behind it: the worker then claims the backlog in batches, and
        // its `r = 1` tasks must still run in submission order.
        const BACKLOG: usize = 100;
        let scheduler = Scheduler::builder().threads(1).build();
        let before = scheduler.metrics();
        let submitted = Arc::new(AtomicUsize::new(0));
        let order = Arc::new(std::sync::Mutex::new(Vec::with_capacity(BACKLOG)));
        scheduler.scope(|scope| {
            let gate = Arc::clone(&submitted);
            scope.spawn(move |_| {
                while gate.load(Ordering::Acquire) < BACKLOG {
                    std::thread::yield_now();
                }
            });
            for i in 0..BACKLOG {
                let order = Arc::clone(&order);
                scope.spawn(move |_| order.lock().unwrap().push(i));
                submitted.fetch_add(1, Ordering::Release);
            }
        });
        let order = order.lock().unwrap();
        assert_eq!(*order, (0..BACKLOG).collect::<Vec<_>>());
        let delta = scheduler.metrics().delta_since(&before);
        assert_eq!(delta.tasks_injected as usize, BACKLOG + 1);
        assert_eq!(delta.injector_local_pops, delta.tasks_injected, "{delta:?}");
    });
}
