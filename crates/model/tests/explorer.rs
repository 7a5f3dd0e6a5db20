//! Self-tests for the mini-loom explorer: it must actually find races,
//! detect deadlocks, respect its pruning knobs, and replay
//! deterministically.  These run in every configuration (they do not
//! need `--cfg teamsteal_model`; that cfg only switches the *protocol
//! crates* onto the model types).

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex as StdMutex};
use teamsteal_model::sync::atomic::{AtomicUsize, Ordering};
use teamsteal_model::sync::{Condvar, Mutex};
use teamsteal_model::{model, random_walk, replay, thread, Builder};

/// The classic lost-update race: two threads doing load-then-store must
/// exhibit both final values 1 (lost update) and 2 under exhaustive
/// exploration.  This is the canary that the DFS really interleaves.
#[test]
fn finds_lost_update() {
    let outcomes: Arc<StdMutex<BTreeSet<usize>>> = Arc::new(StdMutex::new(BTreeSet::new()));
    let sink = Arc::clone(&outcomes);
    let report = model(move || {
        let x = Arc::new(AtomicUsize::new(0));
        let x2 = Arc::clone(&x);
        let t = thread::spawn(move || {
            let v = x2.load(Ordering::SeqCst);
            x2.store(v + 1, Ordering::SeqCst);
        });
        let v = x.load(Ordering::SeqCst);
        x.store(v + 1, Ordering::SeqCst);
        t.join().unwrap();
        sink.lock().unwrap().insert(x.load(Ordering::SeqCst));
    });
    assert!(!report.truncated);
    assert!(
        report.schedules >= 2,
        "only {} schedules explored",
        report.schedules
    );
    let outcomes = outcomes.lock().unwrap();
    assert_eq!(
        *outcomes,
        BTreeSet::from([1, 2]),
        "missed an interleaving: {outcomes:?}"
    );
}

/// Atomic RMWs never lose updates; the model must agree.
#[test]
fn rmw_is_atomic() {
    model(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let x2 = Arc::clone(&x);
        let t = thread::spawn(move || {
            x2.fetch_add(1, Ordering::SeqCst);
        });
        x.fetch_add(1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(x.load(Ordering::SeqCst), 2);
    });
}

/// `fetch_or` is an RMW too: two threads setting different bits always
/// end with both set, each sees the other's bit or not depending on the
/// order, and the exploration reaches both orders.
#[test]
fn fetch_or_is_atomic() {
    let seen: Arc<StdMutex<BTreeSet<(usize, usize)>>> = Arc::default();
    let sink = Arc::clone(&seen);
    model(move || {
        let x = Arc::new(AtomicUsize::new(0));
        let x2 = Arc::clone(&x);
        let t = thread::spawn(move || x2.fetch_or(0b01, Ordering::SeqCst));
        let mine = x.fetch_or(0b10, Ordering::SeqCst);
        let theirs = t.join().unwrap();
        assert_eq!(x.load(Ordering::SeqCst), 0b11, "a bit was lost");
        assert!(mine == 0 || mine == 0b01);
        assert!(theirs == 0 || theirs == 0b10);
        assert!(mine == 0 || theirs == 0, "exactly one RMW ran first");
        sink.lock().unwrap().insert((mine, theirs));
    });
    let seen = seen.lock().unwrap();
    assert_eq!(
        *seen,
        BTreeSet::from([(0, 0b10), (0b01, 0)]),
        "missed an order: {seen:?}"
    );
}

/// Sleep-set pruning must not lose outcomes: the pruned exploration sees
/// the same set of final values as the unpruned one, with no more
/// schedules.
#[test]
fn sleep_sets_preserve_outcomes() {
    fn explore(b: Builder) -> (BTreeSet<(usize, usize)>, usize) {
        let outcomes: Arc<StdMutex<BTreeSet<(usize, usize)>>> =
            Arc::new(StdMutex::new(BTreeSet::new()));
        let sink = Arc::clone(&outcomes);
        let report = b.check(move || {
            let x = Arc::new(AtomicUsize::new(0));
            let y = Arc::new(AtomicUsize::new(0));
            let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
            let t = thread::spawn(move || {
                x2.store(1, Ordering::SeqCst);
                let seen_y = y2.load(Ordering::SeqCst);
                x2.store(seen_y + 10, Ordering::SeqCst);
            });
            y.store(1, Ordering::SeqCst);
            let seen_x = x.load(Ordering::SeqCst);
            t.join().unwrap();
            sink.lock()
                .unwrap()
                .insert((seen_x, x.load(Ordering::SeqCst)));
        });
        let got = outcomes.lock().unwrap().clone();
        (got, report.schedules)
    }
    let (with_sleep, n_with) = explore(Builder::new());
    let (without_sleep, n_without) = explore(Builder::new().without_sleep_sets());
    assert_eq!(with_sleep, without_sleep);
    assert!(
        n_with <= n_without,
        "sleep sets explored more ({n_with}) than brute force ({n_without})"
    );
}

/// The preemption bound must actually cap the schedule count, and a
/// tighter bound must explore no more than a looser one.
#[test]
fn preemption_bound_caps_schedules() {
    fn count(b: Builder) -> usize {
        b.check(|| {
            let x = Arc::new(AtomicUsize::new(0));
            let x2 = Arc::clone(&x);
            let t = thread::spawn(move || {
                for _ in 0..3 {
                    x2.fetch_add(1, Ordering::SeqCst);
                }
            });
            for _ in 0..3 {
                x.fetch_add(1, Ordering::SeqCst);
            }
            t.join().unwrap();
        })
        .schedules
    }
    // Disable sleep sets so the counts reflect the preemption bound alone.
    let unbounded = count(Builder::new().without_sleep_sets());
    let bound_1 = count(Builder::new().without_sleep_sets().preemption_bound(1));
    let bound_0 = count(Builder::new().without_sleep_sets().preemption_bound(0));
    assert!(
        bound_0 < bound_1 && bound_1 < unbounded,
        "bounds failed to prune: p0={bound_0} p1={bound_1} unbounded={unbounded}"
    );
    // With no preemptions allowed, only forced switches (blocking/finish)
    // remain: there is exactly one schedule per spawn-order arrangement.
    assert!(
        bound_0 <= 4,
        "preemption bound 0 still explored {bound_0} schedules"
    );
}

/// ABBA lock ordering must be reported as a deadlock, not a hang.
#[test]
fn detects_deadlock() {
    let err = catch_unwind(AssertUnwindSafe(|| {
        model(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = thread::spawn(move || {
                let _ga = a2.lock().unwrap();
                let _gb = b2.lock().unwrap();
            });
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
            drop((_gb, _ga));
            t.join().unwrap();
        });
    }))
    .expect_err("ABBA deadlock went undetected");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("deadlock"),
        "unexpected failure message: {msg}"
    );
}

/// A panic inside a virtual thread surfaces as a model failure that
/// names the schedule.
#[test]
fn reports_assertion_failures_with_schedule() {
    let err = catch_unwind(AssertUnwindSafe(|| {
        model(|| {
            let x = Arc::new(AtomicUsize::new(0));
            let x2 = Arc::clone(&x);
            let t = thread::spawn(move || {
                let v = x2.load(Ordering::SeqCst);
                x2.store(v + 1, Ordering::SeqCst);
            });
            let v = x.load(Ordering::SeqCst);
            x.store(v + 1, Ordering::SeqCst);
            t.join().unwrap();
            // Fails on the lost-update interleaving.
            assert_eq!(x.load(Ordering::SeqCst), 2, "lost update");
        });
    }))
    .expect_err("racy assertion never failed");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("schedule:"),
        "failure report lacks schedule: {msg}"
    );
    assert!(
        msg.contains("lost update"),
        "failure report lacks panic message: {msg}"
    );
}

/// A `Relaxed` load may observe one stale value; a `SeqCst` load of the
/// same history may not.  This is the branching that makes weakening a
/// protocol-critical ordering observable (DESIGN.md §14).
#[test]
fn relaxed_loads_branch_over_stale_values() {
    fn observed(relaxed: bool) -> BTreeSet<usize> {
        let outcomes: Arc<StdMutex<BTreeSet<usize>>> = Arc::new(StdMutex::new(BTreeSet::new()));
        let sink = Arc::clone(&outcomes);
        model(move || {
            let x = Arc::new(AtomicUsize::new(0));
            let x2 = Arc::clone(&x);
            let t = thread::spawn(move || {
                x2.store(1, Ordering::SeqCst);
            });
            // Force the store to happen first, then read.
            t.join().unwrap();
            let order = if relaxed {
                Ordering::Relaxed
            } else {
                Ordering::SeqCst
            };
            sink.lock().unwrap().insert(x.load(order));
        });
        Arc::try_unwrap(outcomes).unwrap().into_inner().unwrap()
    }
    assert_eq!(
        observed(false),
        BTreeSet::from([1]),
        "SeqCst load saw a stale value"
    );
    assert_eq!(
        observed(true),
        BTreeSet::from([0, 1]),
        "Relaxed load never branched to the stale value"
    );
}

/// Virtual-time semantics: a timed condvar wait with nothing else
/// runnable escapes via its deadline instead of deadlocking, and the
/// virtual clock advances to the deadline.
#[test]
fn timed_wait_escapes_idle_system() {
    model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let start = teamsteal_model::time::Instant::now();
        let (lock, cv) = &*pair;
        let guard = lock.lock().unwrap();
        let (guard, res) = cv
            .wait_timeout(guard, std::time::Duration::from_millis(5))
            .unwrap();
        assert!(res.timed_out());
        assert!(!*guard);
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(5),
            "clock did not jump to the deadline"
        );
    });
}

/// Notify wakes a parked waiter and the handshake completes without the
/// timeout path.
#[test]
fn notify_wakes_waiter() {
    model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock().unwrap();
            *ready = true;
            drop(ready);
            cv.notify_one();
        });
        let (lock, cv) = &*pair;
        let mut guard = lock.lock().unwrap();
        let mut timed_out = false;
        while !*guard {
            let (g, res) = cv
                .wait_timeout(guard, std::time::Duration::from_secs(1))
                .unwrap();
            guard = g;
            timed_out = res.timed_out();
        }
        drop(guard);
        t.join().unwrap();
        // The producer can only set the flag while holding the mutex, so
        // any waiter that parked is woken by the notify — the timeout
        // backstop is never needed in this protocol.
        assert!(
            !timed_out,
            "waiter woke via timeout despite a delivered notify"
        );
    });
}

/// Same schedule string ⇒ identical trace, twice over.
#[test]
fn replay_is_deterministic() {
    fn scenario() -> impl Fn() + Send + Sync + 'static {
        || {
            let x = Arc::new(AtomicUsize::new(0));
            let y = Arc::new(AtomicUsize::new(0));
            let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
            let t = thread::spawn(move || {
                x2.fetch_add(1, Ordering::SeqCst);
                y2.store(x2.load(Ordering::Relaxed), Ordering::SeqCst);
            });
            y.fetch_add(10, Ordering::SeqCst);
            x.store(y.load(Ordering::Relaxed) + 5, Ordering::SeqCst);
            t.join().unwrap();
        }
    }
    for seed in [1u64, 7, 42, 1234, 99999] {
        let (schedule, trace) = random_walk(seed, scenario());
        let replayed_a = replay(&schedule, scenario());
        let replayed_b = replay(&schedule, scenario());
        assert_eq!(
            replayed_a, replayed_b,
            "replay diverged from itself (seed {seed})"
        );
        assert_eq!(
            trace, replayed_a,
            "replay diverged from original walk (seed {seed})"
        );
    }
}

/// Random-walk mode is seeded: same seed ⇒ same schedule; different
/// seeds explore different schedules (statistically).
#[test]
fn random_walks_are_seeded() {
    fn scenario() -> impl Fn() + Send + Sync + 'static {
        || {
            let x = Arc::new(AtomicUsize::new(0));
            let x2 = Arc::clone(&x);
            let t = thread::spawn(move || {
                for _ in 0..4 {
                    x2.fetch_add(1, Ordering::SeqCst);
                }
            });
            for _ in 0..4 {
                x.fetch_add(1, Ordering::SeqCst);
            }
            t.join().unwrap();
        }
    }
    let (s1, _) = random_walk(7, scenario());
    let (s1b, _) = random_walk(7, scenario());
    assert_eq!(s1, s1b);
    let distinct: BTreeSet<String> = (0..16)
        .map(|seed| random_walk(seed, scenario()).0)
        .collect();
    assert!(distinct.len() > 1, "all seeds produced the same walk");
}

/// The schedule budget is enforced (and reported as truncation when
/// allowed) — this is what keeps the CI model job bounded.
#[test]
fn schedule_budget_truncates() {
    let report = Builder::new()
        .max_schedules(5)
        .allow_truncation()
        .check(|| {
            let x = Arc::new(AtomicUsize::new(0));
            let x2 = Arc::clone(&x);
            let t = thread::spawn(move || {
                for _ in 0..6 {
                    x2.fetch_add(1, Ordering::SeqCst);
                }
            });
            for _ in 0..6 {
                x.fetch_add(1, Ordering::SeqCst);
            }
            t.join().unwrap();
        });
    assert!(report.truncated);
    assert_eq!(report.schedules, 5);
}
