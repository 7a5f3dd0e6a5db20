//! Model-checked tests for the eventcount parking protocol (`DESIGN.md`
//! §10 and §12).
//!
//! The central invariant is *no lost wakeup*: whatever the interleaving of
//! a producer's publish→notify against a waiter's prepare→recheck→park,
//! the waiter never sleeps through the notification — it either sees the
//! published state on its recheck, aborts the park on the ticket bump, or
//! is explicitly claimed.  The defensive backstop (§12) is tested with a
//! deliberately *dropped* notification: the fault hook swallows the whole
//! notify, and only the backstop timeout saves the schedule from a hang.
//!
//! Run with `RUSTFLAGS='--cfg teamsteal_model' cargo test -p teamsteal-model`.
#![cfg(teamsteal_model)]

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

use teamsteal_model::{thread, Builder};
use teamsteal_util::eventcount::{EventCount, ParkClass, WakeReason};
use teamsteal_util::sync::atomic::{AtomicUsize, Ordering};

/// The backstop used by every test: long enough that it can only fire via
/// the model's nothing-else-runnable timeout escape, never en passant.
const BACKSTOP: Duration = Duration::from_millis(10);

/// Exhaustive no-lost-wakeup: one producer publishes a flag and notifies;
/// one waiter runs prepare→recheck→park.  On no interleaving may the park
/// end in `Backstop` — that would mean the waiter slept through the only
/// notification.
#[test]
fn publish_then_notify_is_never_lost() {
    let seen: Arc<StdMutex<BTreeSet<&'static str>>> = Arc::default();
    let seen_in = Arc::clone(&seen);
    Builder::new().check(move || {
        let ec = Arc::new(EventCount::new(1));
        let work = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let ec = Arc::clone(&ec);
            let work = Arc::clone(&work);
            thread::spawn(move || {
                let mut wakes = Vec::new();
                // One notification exists, so at most one TicketChanged and
                // one Notified can occur before the recheck must succeed.
                for _ in 0..4 {
                    let ticket = ec.prepare_wait();
                    if work.load(Ordering::SeqCst) == 1 {
                        return wakes;
                    }
                    match ec.park(0, ticket, ParkClass::Idle, BACKSTOP) {
                        WakeReason::Backstop => {
                            panic!("lost wakeup: backstop fired despite a notification")
                        }
                        WakeReason::Notified(_) => wakes.push("notified"),
                        WakeReason::TicketChanged => wakes.push("ticket"),
                    }
                }
                panic!("waiter still parked after the only notification: {wakes:?}")
            })
        };
        let producer = {
            let ec = Arc::clone(&ec);
            let work = Arc::clone(&work);
            thread::spawn(move || {
                work.store(1, Ordering::SeqCst);
                ec.notify_one_idle();
            })
        };
        let wakes = waiter.join().unwrap();
        producer.join().unwrap();
        let mut seen = seen_in.lock().unwrap();
        if wakes.is_empty() {
            seen.insert("recheck");
        }
        for w in wakes {
            seen.insert(w);
        }
    });
    // The exploration must reach all three ways the protocol avoids the
    // lost wakeup; missing one means the model lost interleavings.
    let seen = seen.lock().unwrap();
    for way in ["recheck", "ticket", "notified"] {
        assert!(
            seen.contains(way),
            "exploration never hit the {way} path: {seen:?}"
        );
    }
}

/// The scheduler-shaped composition (§10): the producer pushes into an
/// injection queue and notifies only because the push observed the queue
/// empty; the waiter parks only after its recheck (`try_pop`) misses.
/// The waiter must obtain the value on every interleaving.
#[test]
fn push_observed_empty_wakes_the_parked_popper() {
    use teamsteal_deque::{Injector, Steal};
    Builder::new().preemption_bound(2).check(|| {
        let ec = Arc::new(EventCount::new(1));
        let inj = Arc::new(Injector::new());
        let waiter = {
            let ec = Arc::clone(&ec);
            let inj = Arc::clone(&inj);
            thread::spawn(move || {
                for _ in 0..6 {
                    let ticket = ec.prepare_wait();
                    match inj.try_pop() {
                        Steal::Stolen(v) => return v,
                        Steal::Empty | Steal::Retry => {}
                    }
                    if let WakeReason::Backstop = ec.park(0, ticket, ParkClass::Idle, BACKSTOP) {
                        panic!("lost wakeup: popper slept through push-observed-empty notify");
                    }
                }
                panic!("popper never obtained the pushed value")
            })
        };
        let producer = {
            let ec = Arc::clone(&ec);
            let inj = Arc::clone(&inj);
            thread::spawn(move || {
                let observed_empty = inj.push(7usize);
                assert!(observed_empty, "the only push must observe the queue empty");
                ec.notify_one_idle();
            })
        };
        assert_eq!(waiter.join().unwrap(), 7);
        producer.join().unwrap();
    });
}

/// §12 defensive backstop under fault injection: the producer's only
/// notification is swallowed by [`fault::drop_next_notifies`], so no
/// ticket bump and no claim ever reach the waiter.  A parked waiter can
/// then only be saved by the backstop timeout — the test hanging (model
/// deadlock) instead would mean the backstop is gone.
#[test]
fn dropped_notify_is_rescued_by_the_backstop() {
    use teamsteal_util::sync::fault;
    let rescued = Arc::new(StdAtomicUsize::new(0));
    let rescued_in = Arc::clone(&rescued);
    Builder::new().check(move || {
        let ec = Arc::new(EventCount::new(1));
        let work = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let ec = Arc::clone(&ec);
            let work = Arc::clone(&work);
            thread::spawn(move || {
                let mut backstops = 0usize;
                for _ in 0..4 {
                    let ticket = ec.prepare_wait();
                    if work.load(Ordering::SeqCst) == 1 {
                        return backstops;
                    }
                    match ec.park(0, ticket, ParkClass::Idle, BACKSTOP) {
                        WakeReason::Backstop => backstops += 1,
                        other => panic!(
                            "the notification was dropped, yet the waiter woke via {other:?}"
                        ),
                    }
                }
                panic!("waiter kept missing the published flag after backstop wakes")
            })
        };
        let producer = {
            let ec = Arc::clone(&ec);
            let work = Arc::clone(&work);
            thread::spawn(move || {
                work.store(1, Ordering::SeqCst);
                fault::drop_next_notifies(1);
                assert!(!ec.notify_one_idle(), "a dropped notify must claim nobody");
            })
        };
        let backstops = waiter.join().unwrap();
        producer.join().unwrap();
        rescued_in.fetch_add(backstops, StdOrdering::SeqCst);
    });
    assert!(
        rescued.load(StdOrdering::SeqCst) > 0,
        "no schedule ever parked into the dropped notification — the fault was not exercised"
    );
}
