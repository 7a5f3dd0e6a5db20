//! Tests tied directly to claims the paper makes about the algorithm
//! (Sections 3.1–3.3): execution-exactly-once, the single-CAS join cost,
//! team reuse, the degenerate case, and completeness under conflicting
//! coordinators.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use teamsteal::{Scheduler, StealPolicy};

/// Lemma 4: "Each task is only executed once by each of the threads in a
/// team."  Every (task, member) pair must be hit exactly once even when many
/// team tasks are in flight.
#[test]
fn lemma4_each_task_executed_once_per_member() {
    let scheduler = Scheduler::with_threads(4);
    let tasks = 40usize;
    let team = 4usize;
    // executions[task][member]
    let executions: Arc<Vec<Vec<AtomicUsize>>> = Arc::new(
        (0..tasks)
            .map(|_| (0..team).map(|_| AtomicUsize::new(0)).collect())
            .collect(),
    );
    {
        let executions = Arc::clone(&executions);
        scheduler.scope(|scope| {
            for t in 0..tasks {
                let executions = Arc::clone(&executions);
                scope.spawn_team(team, move |ctx| {
                    executions[t][ctx.local_id()].fetch_add(1, Ordering::Relaxed);
                    ctx.barrier();
                });
            }
        });
    }
    for (t, members) in executions.iter().enumerate() {
        for (m, count) in members.iter().enumerate() {
            assert_eq!(
                count.load(Ordering::Relaxed),
                1,
                "task {t} executed {} times by member {m}",
                count.load(Ordering::Relaxed)
            );
        }
    }
}

/// Section 3: "The overhead for forming a new team is a single extra atomic
/// compare-and-swap instruction per thread joining a team."  The
/// registration counter counts exactly those CAS operations; it must stay
/// bounded by (team size − 1) per formed team plus the re-registrations
/// caused by revocations — in particular it must be *zero* when no team
/// tasks exist and at least (team − 1) when one team forms.
#[test]
fn single_cas_join_is_visible_in_metrics() {
    let scheduler = Scheduler::with_threads(4);
    scheduler.run_team(4, |ctx| {
        ctx.barrier();
    });
    let m = scheduler.metrics();
    assert!(m.teams_formed >= 1);
    assert!(
        m.registrations >= 3,
        "a 4-thread team needs at least 3 joining threads, saw {}",
        m.registrations
    );
}

/// Section 3.1 / degenerate case: with only r = 1 tasks there are no
/// registrations, no teams and no team executions — the scheduler *is* a
/// classical work-stealer.
#[test]
fn degenerate_case_has_zero_team_overhead() {
    for policy in [
        StealPolicy::Deterministic,
        StealPolicy::RandomizedWithinLevel,
    ] {
        let scheduler = Scheduler::builder().threads(4).steal_policy(policy).build();
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let hits = Arc::clone(&hits);
            scheduler.scope(|scope| {
                for _ in 0..500 {
                    let hits = Arc::clone(&hits);
                    scope.spawn(move |ctx| {
                        let hits2 = Arc::clone(&hits);
                        ctx.spawn(move |_| {
                            hits2.fetch_add(1, Ordering::Relaxed);
                        });
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        let m = scheduler.metrics();
        assert_eq!(m.registrations, 0, "policy {policy:?}");
        assert_eq!(m.teams_formed, 0, "policy {policy:?}");
        assert_eq!(m.team_tasks_executed, 0, "policy {policy:?}");
    }
}

/// Section 3: "Once formed, teams can stay to process further tasks requiring
/// the same (or smaller) number of threads; this requires no further
/// coordination."  A burst of same-size team tasks submitted together should
/// form far fewer teams than it executes tasks.
#[test]
fn team_reuse_forms_fewer_teams_than_tasks() {
    let scheduler = Scheduler::with_threads(2);
    let tasks = 200usize;
    let runs = Arc::new(AtomicUsize::new(0));
    {
        let runs = Arc::clone(&runs);
        scheduler.scope(|scope| {
            // One generator task spawns all team tasks from a single worker,
            // so they all end up in one coordinator's queue back to back.
            let runs = Arc::clone(&runs);
            scope.spawn(move |ctx| {
                for _ in 0..tasks {
                    let runs = Arc::clone(&runs);
                    ctx.spawn_team(2, move |tctx| {
                        runs.fetch_add(1, Ordering::Relaxed);
                        tctx.barrier();
                    });
                }
            });
        });
    }
    assert_eq!(runs.load(Ordering::Relaxed), tasks * 2);
    let m = scheduler.metrics();
    assert!(m.teams_formed >= 1);
    assert!(
        (m.teams_formed as usize) < tasks / 2,
        "expected team reuse: {} teams formed for {} same-size tasks",
        m.teams_formed,
        tasks
    );
}

/// Lemma 3 (conflict resolution): several workers simultaneously holding
/// same-size team tasks must all make progress — the conflicts are resolved
/// deterministically instead of deadlocking.
#[test]
fn competing_coordinators_all_make_progress() {
    let scheduler = Scheduler::with_threads(4);
    let runs = Arc::new(AtomicUsize::new(0));
    let generators = 4usize;
    let per_generator = 10usize;
    {
        let runs = Arc::clone(&runs);
        scheduler.scope(|scope| {
            // Several generator tasks (landing on different workers) each
            // spawn team tasks, so multiple coordinators compete for the same
            // partners at the same time.
            for g in 0..generators {
                let runs = Arc::clone(&runs);
                scope.spawn(move |ctx| {
                    for _ in 0..per_generator {
                        let runs = Arc::clone(&runs);
                        let size = if g % 2 == 0 { 2 } else { 4 };
                        ctx.spawn_team(size, move |tctx| {
                            runs.fetch_add(1, Ordering::Relaxed);
                            tctx.barrier();
                        });
                    }
                });
            }
        });
    }
    // 2 generators spawn 10 tasks of size 2, 2 generators spawn 10 of size 4.
    let expected = 2 * per_generator * 2 + 2 * per_generator * 4;
    assert_eq!(runs.load(Ordering::Relaxed), expected);
}

/// Lemma 1 (completeness): a task requiring the whole machine is eventually
/// executed even while a steady stream of small tasks keeps every worker
/// busy.
#[test]
fn large_team_task_not_starved_by_small_tasks() {
    let scheduler = Scheduler::with_threads(4);
    let big_ran = Arc::new(AtomicUsize::new(0));
    let small_ran = Arc::new(AtomicUsize::new(0));
    {
        let big_ran = Arc::clone(&big_ran);
        let small_ran = Arc::clone(&small_ran);
        scheduler.scope(|scope| {
            // Lots of small work first …
            for _ in 0..400 {
                let small_ran = Arc::clone(&small_ran);
                scope.spawn(move |_| {
                    small_ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            // … and one task that needs every worker.
            let big_ran2 = Arc::clone(&big_ran);
            scope.spawn_team(4, move |ctx| {
                big_ran2.fetch_add(1, Ordering::Relaxed);
                ctx.barrier();
            });
            // … followed by more small work spawned afterwards.
            for _ in 0..400 {
                let small_ran = Arc::clone(&small_ran);
                scope.spawn(move |_| {
                    small_ran.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    }
    assert_eq!(big_ran.load(Ordering::Relaxed), 4);
    assert_eq!(small_ran.load(Ordering::Relaxed), 800);
}
