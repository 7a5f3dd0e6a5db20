//! Cross-crate integration tests of the team-building scheduler: mixed
//! workloads, team reuse, shrink/grow sequences, stress with many small
//! teams, oversubscription and non power-of-two machines.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use teamsteal::{Scheduler, StealPolicy};

mod common;
use common::{with_watchdog, WATCHDOG};

fn counter() -> Arc<AtomicUsize> {
    Arc::new(AtomicUsize::new(0))
}

#[test]
fn many_small_teams_in_sequence() {
    // Team reuse: the same coordinator keeps publishing same-size tasks; the
    // paper's protocol requires no further coordination after the first
    // formation.  All tasks must run on every member exactly once.
    with_watchdog("many_small_teams_in_sequence", WATCHDOG, || {
        let scheduler = Scheduler::with_threads(4);
        let runs = counter();
        let rounds = 50;
        {
            let runs = Arc::clone(&runs);
            scheduler.scope(|scope| {
                for _ in 0..rounds {
                    let runs = Arc::clone(&runs);
                    scope.spawn_team(2, move |ctx| {
                        runs.fetch_add(1, Ordering::Relaxed);
                        ctx.barrier();
                    });
                }
            });
        }
        assert_eq!(runs.load(Ordering::Relaxed), rounds * 2);
    });
}

#[test]
fn alternating_team_sizes_grow_and_shrink() {
    // Alternating 2- and 4-thread tasks force the coordinator to grow and
    // shrink/rebuild teams repeatedly (Section 3.1).  This is the scenario
    // of the ROADMAP liveness flake, so it runs under the watchdog: a lost
    // wakeup or steal ping-pong is a fast failure with a state dump, not a
    // 40-minute silent hang.
    with_watchdog("alternating_team_sizes_grow_and_shrink", WATCHDOG, || {
        let scheduler = Scheduler::with_threads(4);
        let small_runs = counter();
        let large_runs = counter();
        {
            let small_runs = Arc::clone(&small_runs);
            let large_runs = Arc::clone(&large_runs);
            scheduler.scope(|scope| {
                for i in 0..30 {
                    if i % 2 == 0 {
                        let c = Arc::clone(&small_runs);
                        scope.spawn_team(2, move |ctx| {
                            c.fetch_add(1, Ordering::Relaxed);
                            ctx.barrier();
                        });
                    } else {
                        let c = Arc::clone(&large_runs);
                        scope.spawn_team(4, move |ctx| {
                            c.fetch_add(1, Ordering::Relaxed);
                            ctx.barrier();
                        });
                    }
                }
            });
        }
        assert_eq!(small_runs.load(Ordering::Relaxed), 15 * 2);
        assert_eq!(large_runs.load(Ordering::Relaxed), 15 * 4);
    });
}

#[test]
fn mixed_sequential_and_team_tasks() {
    with_watchdog("mixed_sequential_and_team_tasks", WATCHDOG, || {
        // The motivating scenario: data-parallel tasks and ordinary tasks share
        // one scheduler; everything completes and nothing runs twice.
        let scheduler = Scheduler::with_threads(8);
        let solo = counter();
        let team2 = counter();
        let team8 = counter();
        {
            let solo = Arc::clone(&solo);
            let team2 = Arc::clone(&team2);
            let team8 = Arc::clone(&team8);
            scheduler.scope(|scope| {
                for i in 0..120 {
                    match i % 6 {
                        0 => {
                            let c = Arc::clone(&team2);
                            scope.spawn_team(2, move |ctx| {
                                c.fetch_add(1, Ordering::Relaxed);
                                ctx.barrier();
                            });
                        }
                        1 => {
                            let c = Arc::clone(&team8);
                            scope.spawn_team(8, move |ctx| {
                                c.fetch_add(1, Ordering::Relaxed);
                                ctx.barrier();
                            });
                        }
                        _ => {
                            let c = Arc::clone(&solo);
                            scope.spawn(move |_| {
                                c.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    }
                }
            });
        }
        assert_eq!(solo.load(Ordering::Relaxed), 80);
        assert_eq!(team2.load(Ordering::Relaxed), 20 * 2);
        assert_eq!(team8.load(Ordering::Relaxed), 20 * 8);
        let m = scheduler.metrics();
        assert!(m.teams_formed > 0);
    });
}

#[test]
fn team_members_get_consecutive_local_ids_and_aligned_bases() {
    // Lemma / Section 3.1: teams consist of consecutively numbered threads
    // k*r ..= (k+1)*r - 1 and local ids are global id minus the team base.
    let scheduler = Scheduler::with_threads(8);
    // (worker id, team base, local id, team size) per member.
    type Observation = (usize, usize, usize, usize);
    let observations: Arc<std::sync::Mutex<Vec<Observation>>> =
        Arc::new(std::sync::Mutex::new(Vec::new()));
    {
        let observations = Arc::clone(&observations);
        scheduler.scope(|scope| {
            for _ in 0..10 {
                let obs = Arc::clone(&observations);
                scope.spawn_team(4, move |ctx| {
                    obs.lock().unwrap().push((
                        ctx.team_base(),
                        ctx.team_size(),
                        ctx.local_id(),
                        ctx.global_thread_id(),
                    ));
                    ctx.barrier();
                });
            }
        });
    }
    let obs = observations.lock().unwrap();
    assert_eq!(obs.len(), 40);
    for &(base, size, local, global) in obs.iter() {
        assert_eq!(size, 4);
        assert_eq!(base % 4, 0, "teams are aligned blocks");
        assert_eq!(global, base + local, "local id = global id - team base");
        assert!(local < size);
    }
}

#[test]
fn tasks_spawned_from_team_members_complete() {
    // Team members may spawn ordinary tasks; those land in the member's own
    // queue and must still be executed before the scope returns.
    let scheduler = Scheduler::with_threads(4);
    let follow_up = counter();
    {
        let follow_up = Arc::clone(&follow_up);
        scheduler.scope(|scope| {
            let follow_up = Arc::clone(&follow_up);
            scope.spawn_team(4, move |ctx| {
                ctx.barrier();
                let c = Arc::clone(&follow_up);
                ctx.spawn(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
    }
    assert_eq!(
        follow_up.load(Ordering::Relaxed),
        4,
        "one follow-up per member"
    );
}

#[test]
fn nested_team_spawns_from_local_id_zero() {
    // The mixed-mode Quicksort pattern: a team task whose local id 0 spawns
    // further (smaller) team tasks.
    let scheduler = Scheduler::with_threads(8);
    let inner = counter();
    {
        let inner = Arc::clone(&inner);
        scheduler.scope(|scope| {
            let inner = Arc::clone(&inner);
            scope.spawn_team(8, move |ctx| {
                ctx.barrier();
                if ctx.local_id() == 0 {
                    for _ in 0..2 {
                        let c = Arc::clone(&inner);
                        ctx.spawn_team(4, move |ctx| {
                            c.fetch_add(1, Ordering::Relaxed);
                            ctx.barrier();
                        });
                    }
                }
            });
        });
    }
    assert_eq!(inner.load(Ordering::Relaxed), 2 * 4);
}

#[test]
fn oversubscribed_scheduler_still_completes() {
    with_watchdog("oversubscribed_scheduler_still_completes", WATCHDOG, || {
        // 16 workers on (almost certainly) fewer hardware threads: teams must
        // still form thanks to the yielding backoff.
        let scheduler = Scheduler::with_threads(16);
        let runs = counter();
        {
            let runs = Arc::clone(&runs);
            scheduler.scope(|scope| {
                for _ in 0..5 {
                    let c = Arc::clone(&runs);
                    scope.spawn_team(16, move |ctx| {
                        c.fetch_add(1, Ordering::Relaxed);
                        ctx.barrier();
                    });
                }
                for _ in 0..50 {
                    let c = Arc::clone(&runs);
                    scope.spawn(move |_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(runs.load(Ordering::Relaxed), 5 * 16 + 50);
    });
}

#[test]
fn non_power_of_two_machine_with_rounded_up_teams() {
    // Refinements 2 + 3: on a 6-worker machine a request for 3 threads maps
    // onto a hierarchy group; requests for 5 are rounded up to the whole
    // machine and the surplus members are identifiable.
    let scheduler = Scheduler::with_threads(6);
    let participants = counter();
    let surplus = counter();
    {
        let participants = Arc::clone(&participants);
        let surplus = Arc::clone(&surplus);
        scheduler.scope(|scope| {
            for _ in 0..10 {
                let p = Arc::clone(&participants);
                let s = Arc::clone(&surplus);
                scope.spawn_team(3, move |ctx| {
                    assert!(ctx.team_size() >= ctx.requested_threads());
                    if ctx.is_surplus() {
                        s.fetch_add(1, Ordering::Relaxed);
                    } else {
                        p.fetch_add(1, Ordering::Relaxed);
                    }
                    ctx.barrier();
                });
            }
        });
    }
    // Every execution has exactly 3 non-surplus members.
    assert_eq!(participants.load(Ordering::Relaxed), 10 * 3);
}

#[test]
fn randomized_within_level_policy_supports_teams() {
    // Refinement 4 keeps the hierarchy, so team building must still work.
    let scheduler = Scheduler::builder()
        .threads(4)
        .steal_policy(StealPolicy::RandomizedWithinLevel)
        .build();
    let runs = counter();
    {
        let runs = Arc::clone(&runs);
        scheduler.scope(|scope| {
            for _ in 0..20 {
                let c = Arc::clone(&runs);
                scope.spawn_team(4, move |ctx| {
                    c.fetch_add(1, Ordering::Relaxed);
                    ctx.barrier();
                });
            }
        });
    }
    assert_eq!(runs.load(Ordering::Relaxed), 20 * 4);
}

#[test]
fn deep_sequential_recursion_spawning() {
    // A chain of tasks each spawning the next; exercises repeated queue
    // push/pop and termination detection with a long dependency chain.
    let scheduler = Scheduler::with_threads(2);
    let hits = counter();
    fn chain(ctx: &teamsteal::TaskContext<'_>, depth: usize, hits: Arc<AtomicUsize>) {
        hits.fetch_add(1, Ordering::Relaxed);
        if depth > 0 {
            ctx.spawn(move |ctx| chain(ctx, depth - 1, hits));
        }
    }
    {
        let hits = Arc::clone(&hits);
        scheduler.scope(|scope| {
            scope.spawn(move |ctx| chain(ctx, 999, hits));
        });
    }
    assert_eq!(hits.load(Ordering::Relaxed), 1000);
}

#[test]
fn scope_results_are_returned_and_scheduler_is_reusable() {
    let scheduler = Scheduler::with_threads(3);
    for round in 0..10 {
        let c = counter();
        let out = {
            let c = Arc::clone(&c);
            scheduler.scope(|scope| {
                for _ in 0..round {
                    let c = Arc::clone(&c);
                    scope.spawn(move |_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
                round * 10
            })
        };
        assert_eq!(out, round * 10);
        assert_eq!(c.load(Ordering::Relaxed), round);
    }
}
