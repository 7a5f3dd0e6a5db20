//! The sharded scope countdown, end to end (DESIGN.md §9): a short scope
//! ends while its caller still polls, a longer one is signalled by a worker,
//! and neither is ever found by the waiter's 5 ms timed backstop; scopes that
//! overlap in time do not hold each other up, and every way a task can
//! retire — run, panic, cancellation, expiry, drop-time draining — counts it
//! exactly once.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use teamsteal::crates::core::CancelCell;
use teamsteal::{ConcurrentScope, Scheduler};

mod common;
use common::{with_watchdog, WATCHDOG};

/// The backstop interval of `ShardedCountdown::wait`.
const POLL: Duration = Duration::from_millis(5);

/// Bumps `.0` when dropped: a task that captured one was retired, whether it
/// ran or not.
struct Retired(Arc<AtomicUsize>);

impl Drop for Retired {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn back_to_back_scopes_are_signalled_not_polled() {
    with_watchdog(
        "back_to_back_scopes_are_signalled_not_polled",
        WATCHDOG,
        || {
            const RUNS: u32 = 2000;
            let scheduler = Scheduler::with_threads(2);
            let ran = Arc::new(AtomicUsize::new(0));
            let start = Instant::now();
            for _ in 0..RUNS {
                let ran = Arc::clone(&ran);
                scheduler.run(move |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            let took = start.elapsed();
            assert_eq!(ran.load(Ordering::Relaxed), RUNS as usize);
            // Decided by state: each wait reports how it ended, and none may
            // have needed the backstop.
            assert_eq!(
                scheduler.scope_backstops(),
                0,
                "a scope wait ended on the {POLL:?} backstop instead of a signal"
            );
            // Each scope ends microseconds after its only task — since the
            // waiter polls before it blocks, usually before it has even
            // registered, so "signalled" here mostly means "seen".  A waiter
            // that learned of it from the timed backstop would take a full
            // interval per scope.  A healthy run is more than ten times
            // under this bound.
            assert!(
                took < POLL * RUNS / 2,
                "{RUNS} empty scopes took {took:?}: completion is riding the {POLL:?} backstop"
            );
        },
    );
}

/// A task that outlives the waiter's poll budget (≈ 50 µs) forty times over:
/// the caller has long since registered and blocked, and still returns by
/// the finisher's signal — within a wake-up of the task's end, not at the
/// next 5 ms backstop.  (`wait`'s own account of how it ended, `by_backstop
/// == false`, is asserted where the waiter's registration can be observed:
/// `countdown::tests::a_wait_longer_than_the_poll_budget_registers_and_is_signalled`.)
#[test]
fn a_scope_that_outlives_the_poll_budget_is_signalled() {
    with_watchdog(
        "a_scope_that_outlives_the_poll_budget_is_signalled",
        WATCHDOG,
        || {
            const RUNS: usize = 21;
            const BODY: Duration = Duration::from_millis(2);
            let scheduler = Scheduler::with_threads(2);
            let anchor = Instant::now();
            let body_end = Arc::new(AtomicUsize::new(0));
            let mut late = Vec::with_capacity(RUNS);
            for _ in 0..RUNS {
                let ended = Arc::clone(&body_end);
                scheduler.run(move |_| {
                    let start = Instant::now();
                    while start.elapsed() < BODY {
                        std::hint::spin_loop();
                    }
                    ended.store(anchor.elapsed().as_nanos() as usize, Ordering::Release);
                });
                let returned = anchor.elapsed();
                late.push(returned - Duration::from_nanos(body_end.load(Ordering::Acquire) as u64));
            }
            late.sort();
            let median = late[RUNS / 2];
            // A missed signal would be found 3 ms after the body's end (the
            // backstop armed ~50 µs after the call, minus the 2 ms body).
            assert!(
                median < POLL / 5,
                "the scope returned {median:?} (median; slowest {:?}) after its task: \
                 completion is riding the {POLL:?} backstop",
                late[RUNS - 1]
            );
        },
    );
}

#[test]
fn short_scopes_return_while_a_long_scope_keeps_a_worker_busy() {
    with_watchdog(
        "short_scopes_return_while_a_long_scope_runs",
        WATCHDOG,
        || {
            const SHORT_SCOPES: usize = 200;
            let scheduler = Arc::new(Scheduler::with_threads(2));
            let long_running = Arc::new(AtomicBool::new(false));
            let shorts_done = Arc::new(AtomicBool::new(false));
            let long_children = Arc::new(AtomicUsize::new(0));
            let long_ran = Arc::new(AtomicUsize::new(0));

            let long = {
                let scheduler = Arc::clone(&scheduler);
                let (long_running, shorts_done) =
                    (Arc::clone(&long_running), Arc::clone(&shorts_done));
                let (long_children, long_ran) = (Arc::clone(&long_children), Arc::clone(&long_ran));
                std::thread::spawn(move || {
                    // The root occupies one worker until the short scopes are
                    // through and keeps feeding its own deque, so that worker
                    // holds queued tasks of the long scope the whole time and
                    // the other one alternates between stealing them and
                    // serving the short scopes.
                    scheduler.run(move |ctx| {
                        long_running.store(true, Ordering::Release);
                        while !shorts_done.load(Ordering::Acquire) {
                            for _ in 0..8 {
                                long_children.fetch_add(1, Ordering::Relaxed);
                                let long_ran = Arc::clone(&long_ran);
                                ctx.spawn(move |_| {
                                    long_ran.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                            std::thread::yield_now();
                        }
                    });
                })
            };
            while !long_running.load(Ordering::Acquire) {
                std::thread::yield_now();
            }

            let short_ran = Arc::new(AtomicUsize::new(0));
            for i in 0..SHORT_SCOPES {
                let counter = Arc::clone(&short_ran);
                scheduler.run(move |ctx| {
                    ctx.spawn(move |_| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                });
                // The scope returned, so its child has run — and the long scope,
                // whose root waits for `shorts_done`, has not.
                assert_eq!(short_ran.load(Ordering::Relaxed), i + 1);
                assert!(!long.is_finished());
            }
            shorts_done.store(true, Ordering::Release);
            long.join().unwrap();
            assert_eq!(
                long_ran.load(Ordering::Relaxed),
                long_children.load(Ordering::Relaxed),
                "the long scope returned before all of its children ran"
            );
        },
    );
}

#[test]
fn nested_scope_opened_from_inside_a_task() {
    with_watchdog("nested_scope_opened_from_inside_a_task", WATCHDOG, || {
        let scheduler = Arc::new(Scheduler::with_threads(2));
        let inner_ran = Arc::new(AtomicUsize::new(0));
        let outer_ran = Arc::new(AtomicUsize::new(0));
        {
            let nested = Arc::clone(&scheduler);
            let (inner_ran, outer_ran) = (Arc::clone(&inner_ran), Arc::clone(&outer_ran));
            scheduler.run(move |ctx| {
                // The worker running this task blocks in the inner scope's
                // wait; the other worker runs the inner tasks and signals.
                nested.scope(|scope| {
                    for _ in 0..16 {
                        let inner_ran = Arc::clone(&inner_ran);
                        scope.spawn(move |ctx| {
                            let inner_ran = Arc::clone(&inner_ran);
                            ctx.spawn(move |_| {
                                inner_ran.fetch_add(1, Ordering::Relaxed);
                            });
                        });
                    }
                });
                assert_eq!(
                    inner_ran.load(Ordering::Relaxed),
                    16,
                    "inner scope returned early"
                );
                // The outer scope is still counting: spawn into it after
                // the inner one is gone.
                for _ in 0..16 {
                    let outer_ran = Arc::clone(&outer_ran);
                    ctx.spawn(move |_| {
                        outer_ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(outer_ran.load(Ordering::Relaxed), 16);
    });
}

#[test]
fn panicked_cancelled_and_expired_tasks_retire_their_count_once() {
    with_watchdog(
        "panicked_cancelled_and_expired_tasks_retire_once",
        WATCHDOG,
        || {
            const EACH: usize = 25;
            let scheduler = Scheduler::with_threads(2);
            let scope = ConcurrentScope::new();
            let ran = Arc::new(AtomicUsize::new(0));
            let retired = Arc::new(AtomicUsize::new(0));

            // A task body that records that it ran; its captured token records
            // that it was retired, run or not.
            let body = || {
                let (ran, token) = (Arc::clone(&ran), Retired(Arc::clone(&retired)));
                move || {
                    let _token = token;
                    ran.fetch_add(1, Ordering::Relaxed);
                }
            };
            for _ in 0..EACH {
                // Runs and spawns a child that panics.
                let run = body();
                scope.submit(&scheduler, move |ctx| {
                    run();
                    ctx.spawn(|_| panic!("deliberate test panic"));
                });
                // Cancelled before a worker can claim it: dropped unrun.
                let cell = Arc::new(CancelCell::new());
                assert!(cell.cancel());
                let run = body();
                scope.submit_cancellable(&scheduler, Some(cell), None, move |_| run());
                // Deadline already passed: dropped unrun.
                let run = body();
                scope.submit_cancellable(&scheduler, None, Some(Instant::now()), move |_| run());
            }
            scope.wait_idle();
            // A count retired twice would have let `wait_idle` return early (or
            // wrapped `pending`); one never retired would have hung it.
            assert_eq!(scope.pending(), 0);
            assert_eq!(ran.load(Ordering::Relaxed), EACH);
            assert_eq!(retired.load(Ordering::SeqCst), 3 * EACH);
            assert_eq!(scope.panics_observed(), EACH as u64);
            assert!(scope.take_panic().is_some());
            let metrics = scheduler.metrics();
            assert_eq!(metrics.tasks_cancelled, EACH as u64);
            assert_eq!(metrics.tasks_expired, EACH as u64);
        },
    );
}

#[test]
fn tasks_drained_at_scheduler_drop_retire_their_count_once() {
    with_watchdog(
        "tasks_drained_at_scheduler_drop_retire_once",
        WATCHDOG,
        || {
            const QUEUED: usize = 50;
            let scheduler = Scheduler::with_threads(1);
            let scope = ConcurrentScope::new();
            let retired = Arc::new(AtomicUsize::new(0));
            let dropping = Arc::new(AtomicBool::new(false));

            // The only worker sits in this task until the scheduler is being
            // dropped, so the rest queue up behind it; shutdown then finds them
            // still queued and `drain_leftovers` retires them unrun.  (However
            // many the worker still gets to, each is retired exactly once.)
            {
                let dropping = Arc::clone(&dropping);
                scope.submit(&scheduler, move |_| {
                    while !dropping.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_millis(20));
                });
            }
            for _ in 0..QUEUED {
                let token = Retired(Arc::clone(&retired));
                scope.submit(&scheduler, move |_| drop(token));
            }
            assert_eq!(scope.pending(), QUEUED + 1);
            dropping.store(true, Ordering::Release);
            drop(scheduler);
            scope.wait_idle();
            assert_eq!(scope.pending(), 0);
            assert_eq!(retired.load(Ordering::SeqCst), QUEUED);
        },
    );
}

#[test]
fn dropping_a_concurrent_scope_with_tasks_outstanding_is_safe() {
    with_watchdog(
        "dropping_a_concurrent_scope_with_tasks_outstanding",
        WATCHDOG,
        || {
            const TASKS: usize = 32;
            let scheduler = Scheduler::with_threads(2);
            let release = Arc::new(AtomicBool::new(false));
            let retired = Arc::new(AtomicUsize::new(0));
            let scope = ConcurrentScope::new();
            for _ in 0..TASKS {
                let (release, token) = (Arc::clone(&release), Retired(Arc::clone(&retired)));
                scope.submit(&scheduler, move |ctx| {
                    while !release.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    // Spawning and finishing still count on the scope's state,
                    // which no user handle keeps alive any more.
                    ctx.spawn(move |_| drop(token));
                });
            }
            drop(scope);
            release.store(true, Ordering::Release);
            let deadline = Instant::now() + Duration::from_secs(30);
            while retired.load(Ordering::SeqCst) < TASKS && Instant::now() < deadline {
                std::thread::yield_now();
            }
            assert_eq!(retired.load(Ordering::SeqCst), TASKS);
        },
    );
}

/// A `ConcurrentScope` may be served by several schedulers at once, so
/// worker 0 of each counts on the scope's shard 0: its shards must stay
/// shared (counted by RMWs), unlike a `Scheduler::scope`'s owned worker
/// shards, or one worker's plain store would overwrite the other's count.
/// Debug builds also assert that an owned shard has a single writer.
#[test]
fn a_concurrent_scope_served_by_two_schedulers_drains_exactly() {
    with_watchdog(
        "a_concurrent_scope_served_by_two_schedulers_drains_exactly",
        WATCHDOG,
        || {
            const ROOTS: usize = 200;
            const CHILDREN: usize = 16;
            let schedulers = [Scheduler::with_threads(2), Scheduler::with_threads(2)];
            let scope = ConcurrentScope::new();
            let ran = Arc::new(AtomicUsize::new(0));
            std::thread::scope(|threads| {
                for scheduler in &schedulers {
                    let (scope, ran) = (scope.clone(), Arc::clone(&ran));
                    threads.spawn(move || {
                        for _ in 0..ROOTS {
                            let ran = Arc::clone(&ran);
                            scope.submit(scheduler, move |ctx| {
                                for _ in 0..CHILDREN {
                                    let ran = Arc::clone(&ran);
                                    ctx.spawn(move |_| {
                                        ran.fetch_add(1, Ordering::Relaxed);
                                    });
                                }
                                ran.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            });
            scope.wait_idle();
            assert_eq!(scope.pending(), 0);
            assert_eq!(
                ran.load(Ordering::Relaxed),
                2 * ROOTS * (CHILDREN + 1),
                "wait_idle returned with tasks still running"
            );
        },
    );
}
