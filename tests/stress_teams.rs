//! Stress and failure-injection tests for the team-building scheduler.
//!
//! These tests hammer the coordination machinery in ways the regular
//! workloads do not: many small teams in quick succession, team sizes that
//! oscillate (forcing shrink / disband / rebuild, Section 3 of the paper),
//! heavy oversubscription of the host, spawning from inside team members,
//! empty scopes, and panics inside team tasks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use teamsteal::{Scheduler, StealPolicy};

mod common;
use common::{with_watchdog, WATCHDOG};

/// Many consecutive small team tasks: the team for a given size should be
/// rebuilt or reused without ever losing a member execution.
#[test]
fn rapid_fire_small_teams() {
    with_watchdog("rapid_fire_small_teams", WATCHDOG, || {
        let scheduler = Scheduler::with_threads(4);
        let hits = Arc::new(AtomicUsize::new(0));
        const ROUNDS: usize = 30;
        for _ in 0..ROUNDS {
            let hits = Arc::clone(&hits);
            scheduler.run_team(2, move |ctx| {
                hits.fetch_add(1, Ordering::Relaxed);
                ctx.barrier();
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 2 * ROUNDS);
    });
}

/// Alternating team sizes force the coordinator to shrink and rebuild teams
/// (same size ⇒ reuse, smaller ⇒ shrink, larger ⇒ disband + rebuild).
#[test]
fn oscillating_team_sizes() {
    with_watchdog("oscillating_team_sizes", WATCHDOG, || {
        let scheduler = Scheduler::with_threads(4);
        let total = Arc::new(AtomicUsize::new(0));
        let sizes = [2usize, 4, 2, 1, 4, 1, 2, 4].repeat(3);
        scheduler.scope(|scope| {
            for &r in &sizes {
                let total = Arc::clone(&total);
                if r == 1 {
                    scope.spawn(move |_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                } else {
                    scope.spawn_team(r, move |ctx| {
                        assert_eq!(ctx.requested_threads(), r);
                        assert!(ctx.team_size() >= r);
                        total.fetch_add(1, Ordering::Relaxed);
                        ctx.barrier();
                    });
                }
            }
        });
        let expected: usize = sizes.iter().sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
    });
}

/// Team members spawning further work from inside the team task: spawned
/// children are ordinary r = 1 tasks owned by the member's worker.
#[test]
fn team_members_spawn_sequential_children() {
    let scheduler = Scheduler::with_threads(4);
    let children = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&children);
    scheduler.run_team(4, move |ctx| {
        for _ in 0..8 {
            let c = Arc::clone(&c);
            ctx.spawn(move |_| {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        ctx.barrier();
    });
    assert_eq!(children.load(Ordering::Relaxed), 4 * 8);
}

/// A team task whose members recursively spawn smaller team tasks — the
/// mixed-mode Quicksort pattern reduced to its skeleton.
#[test]
fn nested_team_tasks_from_leader() {
    let scheduler = Scheduler::with_threads(4);
    let leaf_hits = Arc::new(AtomicUsize::new(0));
    let l = Arc::clone(&leaf_hits);
    scheduler.run_team(4, move |ctx| {
        ctx.barrier();
        if ctx.local_id() == 0 {
            for _ in 0..2 {
                let l = Arc::clone(&l);
                ctx.spawn_team(2, move |inner| {
                    l.fetch_add(1, Ordering::Relaxed);
                    inner.barrier();
                });
            }
        }
    });
    // Two r = 2 teams, each executing on 2 members.
    assert_eq!(leaf_hits.load(Ordering::Relaxed), 4);
}

/// Oversubscription: more scheduler threads than the host has hardware
/// threads (this container typically has one core).  Everything must still
/// complete, just slower.
#[test]
fn oversubscribed_scheduler_completes() {
    with_watchdog("oversubscribed_scheduler_completes", WATCHDOG, || {
        let scheduler = Scheduler::with_threads(8);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        scheduler.run_team(8, move |ctx| {
            h.fetch_add(1, Ordering::Relaxed);
            ctx.barrier();
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);

        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        scheduler.scope(|scope| {
            for _ in 0..150 {
                let c = Arc::clone(&c);
                scope.spawn(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 150);
    });
}

/// Empty scopes, scopes returning values, and repeated reuse of one
/// scheduler must be cheap and correct.
#[test]
fn empty_scopes_and_return_values() {
    let scheduler = Scheduler::with_threads(2);
    for i in 0..50 {
        let out = scheduler.scope(|_| i * 2);
        assert_eq!(out, i * 2);
    }
}

/// A panicking team member must not wedge the scheduler: the panic propagates
/// out of the scope and the scheduler stays usable.
#[test]
fn panicking_team_task_propagates_and_scheduler_survives() {
    let scheduler = Scheduler::with_threads(2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        scheduler.run_team(2, |ctx| {
            ctx.barrier();
            if ctx.local_id() == 0 {
                panic!("injected team failure");
            }
        });
    }));
    assert!(result.is_err(), "the injected panic must reach the caller");

    // The pool is still alive and can run both task kinds.
    let hits = Arc::new(AtomicUsize::new(0));
    let h = Arc::clone(&hits);
    scheduler.run_team(2, move |ctx| {
        h.fetch_add(1, Ordering::Relaxed);
        ctx.barrier();
    });
    assert_eq!(hits.load(Ordering::Relaxed), 2);
}

/// Very many tiny sequential tasks under the randomized-within-level policy:
/// exercises stealing heavily without any team machinery.
#[test]
fn task_storm_with_randomized_stealing() {
    with_watchdog("task_storm_with_randomized_stealing", WATCHDOG, || {
        let scheduler = Scheduler::builder()
            .threads(4)
            .steal_policy(StealPolicy::RandomizedWithinLevel)
            .build();
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        scheduler.scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move |ctx| {
                    for _ in 0..48 {
                        let c = Arc::clone(&c);
                        ctx.spawn(move |_| {
                            c.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 48);
        let m = scheduler.metrics();
        assert_eq!(
            m.teams_formed, 0,
            "r = 1 storms must not touch team machinery"
        );
        assert!(m.total_executions() >= 8 * 48);
    });
}

/// Very many tiny sequential tasks under the classic uniformly random
/// work-stealing policy (the paper's *Randfork* baseline): no hierarchy, no
/// team machinery — victims are chosen uniformly at random, so this is the
/// only stress coverage the `UniformRandom` partner path gets.  The storm
/// repeats until random-victim steals are observed, so the metrics
/// assertion cannot flake on a single-CPU host where the producer often
/// finishes before a thief wins a race.
#[test]
fn task_storm_with_uniform_random_stealing() {
    with_watchdog("task_storm_with_uniform_random_stealing", WATCHDOG, || {
        let scheduler = Scheduler::builder()
            .threads(4)
            .steal_policy(StealPolicy::UniformRandom)
            .build();
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            let before = scheduler.metrics();
            let counter = Arc::new(AtomicUsize::new(0));
            let c = Arc::clone(&counter);
            scheduler.scope(|scope| {
                for _ in 0..4 {
                    let c = Arc::clone(&c);
                    scope.spawn(move |ctx| {
                        for _ in 0..96 {
                            let c = Arc::clone(&c);
                            ctx.spawn(move |_| {
                                // Enough work per task that the producer's
                                // queue stays stealable for a while.
                                let mut acc = 0u64;
                                for i in 0..512u64 {
                                    acc = acc.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i);
                                }
                                std::hint::black_box(acc);
                                c.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), 4 * 96);
            let delta = scheduler.metrics().delta_since(&before);
            assert_eq!(
                delta.teams_formed, 0,
                "UniformRandom must never touch the team machinery"
            );
            assert_eq!(delta.registrations, 0);
            if delta.steals > 0 {
                assert!(delta.tasks_stolen > 0);
                break;
            }
            // No steal this round (single-CPU scheduling luck): run another
            // storm.  The watchdog bounds the overall attempt budget.
            assert!(
                rounds < 10_000,
                "uniformly random thieves never stole anything"
            );
        }
    });
}

/// Full-machine teams built repeatedly while sequential stragglers are in
/// flight: large teams must still form (Lemma 1: every task eventually runs).
#[test]
fn full_machine_teams_with_straggler_tasks() {
    with_watchdog("full_machine_teams_with_straggler_tasks", WATCHDOG, || {
        let scheduler = Scheduler::with_threads(4);
        let team_hits = Arc::new(AtomicUsize::new(0));
        let seq_hits = Arc::new(AtomicUsize::new(0));
        scheduler.scope(|scope| {
            for i in 0..6 {
                let seq_hits = Arc::clone(&seq_hits);
                scope.spawn(move |_| {
                    // A little uneven busy work so workers become idle at
                    // different times while the full-machine team is pending.
                    let mut acc = 0u64;
                    for k in 0..(i + 1) * 4_000 {
                        acc = acc.wrapping_add(k as u64).rotate_left(7);
                    }
                    assert!(acc != 1);
                    seq_hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            let team_hits = Arc::clone(&team_hits);
            scope.spawn_team(4, move |ctx| {
                team_hits.fetch_add(1, Ordering::Relaxed);
                ctx.barrier();
            });
        });
        assert_eq!(seq_hits.load(Ordering::Relaxed), 6);
        assert_eq!(team_hits.load(Ordering::Relaxed), 4);
    });
}
