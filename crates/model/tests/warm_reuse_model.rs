//! Model-checked tests for the warm team-reuse pool and its
//! disband (`DESIGN.md` §15).
//!
//! Three properties, each explored over every interleaving:
//!
//! * **No torn reuse** — [`AtomicRegistration::try_reuse`] racing a
//!   `disband` either claims the *intact* pre-disband team (all four
//!   counters from before the renewal) or reports `Incompatible` against
//!   the renewed singleton.  A half-disbanded team is unobservable because
//!   the word is a single 64-bit load.
//! * **Exactly-once member release, no lost wakeup** — a pooled member
//!   parked handshake-style on the eventcount must observe the pool's
//!   disband on every schedule: it wakes via recheck, ticket bump, or the
//!   slot notification, releases itself exactly once, and never sleeps
//!   into the backstop.
//! * **Warm publication reaches the pooled member** — the reuse fast path
//!   (one `try_reuse` claim, one publication bump, one slot notify)
//!   delivers the next task to a parked member on every interleaving,
//!   with the registration word still encoding the formed team at claim
//!   time.
//!
//! Run with `RUSTFLAGS='--cfg teamsteal_model' cargo test -p teamsteal-model`.
#![cfg(teamsteal_model)]

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

use teamsteal_model::{thread, Builder};
use teamsteal_registration::{AtomicRegistration, ReuseOutcome};
use teamsteal_util::eventcount::{EventCount, ParkClass, WakeReason};
use teamsteal_util::sync::atomic::{AtomicUsize, Ordering};

/// Backstop long enough that it can only fire through the model's
/// nothing-else-runnable timeout escape, never en passant.
const BACKSTOP: Duration = Duration::from_millis(10);

/// Builds a formed two-thread team (`t = a = r = 2`) the way the scheduler
/// does: announce, register, form.  Returns the word and the counter the
/// team was formed under.
fn formed_pair() -> (Arc<AtomicRegistration>, u16) {
    let word = Arc::new(AtomicRegistration::new());
    word.push_requirement(2);
    match word.try_acquire(2) {
        teamsteal_registration::AcquireOutcome::Registered(_) => {}
        other => panic!("uncontended acquire failed: {other:?}"),
    }
    let teamed = word.try_form_team().expect("complete word must form a team");
    (word, teamed.counter)
}

/// The warm-reuse claim races a disband (shutdown or keep-alive expiry
/// deciding against the pool).  `Reused` must hand back the *intact*
/// pre-disband team — same size, same renewal counter — and
/// `Incompatible` must show the renewed singleton.  Nothing in between is
/// observable, and both orders must be reached by the exploration.
#[test]
fn reuse_claim_vs_disband_is_atomic() {
    let saw: Arc<StdMutex<BTreeSet<&'static str>>> = Arc::default();
    let saw_in = Arc::clone(&saw);
    let report = Builder::new().check(move || {
        let (word, counter) = formed_pair();

        let reuser = {
            let word = Arc::clone(&word);
            thread::spawn(move || word.try_reuse(2))
        };
        let disbander = {
            let word = Arc::clone(&word);
            thread::spawn(move || word.disband())
        };
        let claim = reuser.join().unwrap();
        let after = disbander.join().unwrap();
        assert!(after.is_well_formed(), "torn post-disband word: {after:?}");
        assert_eq!((after.teamed, after.required, after.counter), (1, 1, counter + 1));

        let how = match claim {
            ReuseOutcome::Reused(snap) => {
                // The claim won: it must have seen the whole team exactly
                // as formed, counter included — never a partial renewal.
                assert!(snap.is_well_formed(), "torn reuse snapshot: {snap:?}");
                assert_eq!(
                    (snap.teamed, snap.acquired, snap.required, snap.counter),
                    (2, 2, 2, counter),
                    "reuse claimed a torn team: {snap:?}"
                );
                "reused"
            }
            ReuseOutcome::Incompatible(snap) => {
                assert!(snap.is_well_formed(), "torn refusal snapshot: {snap:?}");
                assert_eq!(
                    (snap.teamed, snap.counter),
                    (1, counter + 1),
                    "refusal must have seen the completed disband: {snap:?}"
                );
                "cold"
            }
        };
        saw_in.lock().unwrap().insert(how);
    });
    let saw = saw.lock().unwrap();
    assert!(
        saw.contains("reused") && saw.contains("cold"),
        "exploration missed a claim/disband order: {saw:?} over {} schedules",
        report.schedules
    );
}

/// Disband handoff (keep-alive expiry or shutdown): the coordinator
/// disbands the pool and pings the pooled member's eventcount slot; it is
/// parked handshake-style exactly as `member_step` leaves it.  On every
/// interleaving the member must observe the renewal (recheck, ticket
/// bump, or slot notify — never the backstop) and release itself exactly
/// once.
#[test]
fn elastic_disband_releases_the_pooled_member_exactly_once() {
    let seen: Arc<StdMutex<BTreeSet<&'static str>>> = Arc::default();
    let seen_in = Arc::clone(&seen);
    Builder::new().check(move || {
        let (word, counter) = formed_pair();
        let ec = Arc::new(EventCount::new(2));

        let member = {
            let word = Arc::clone(&word);
            let ec = Arc::clone(&ec);
            thread::spawn(move || {
                let mut releases = 0usize;
                let mut wakes = Vec::new();
                // One renewal exists, so at most one ticket bump and one
                // slot notification can precede a successful recheck.
                for _ in 0..4 {
                    let ticket = ec.prepare_wait();
                    let cur = word.load();
                    assert!(cur.is_well_formed(), "member saw a torn word: {cur:?}");
                    if cur.counter != counter || !cur.has_team() {
                        // Released: back to thieving.  Must happen once.
                        releases += 1;
                        assert_eq!((cur.teamed, cur.counter), (1, counter + 1));
                        return (releases, wakes);
                    }
                    match ec.park(1, ticket, ParkClass::Handshake, BACKSTOP) {
                        WakeReason::Backstop => {
                            panic!("lost wakeup: pooled member slept through the disband")
                        }
                        WakeReason::Notified(_) => wakes.push("notified"),
                        WakeReason::TicketChanged => wakes.push("ticket"),
                    }
                }
                panic!("pooled member never observed the disband: {wakes:?}")
            })
        };
        let coordinator = {
            let word = Arc::clone(&word);
            let ec = Arc::clone(&ec);
            thread::spawn(move || {
                // The §10 disband order: renew the word first, then wake
                // the member slots (`Worker::withdraw`).
                word.disband();
                ec.notify_slot(1);
            })
        };
        let (releases, wakes) = member.join().unwrap();
        coordinator.join().unwrap();
        assert_eq!(releases, 1, "member must release exactly once");
        let mut seen = seen_in.lock().unwrap();
        if wakes.is_empty() {
            seen.insert("recheck");
        }
        for w in wakes {
            seen.insert(w);
        }
    });
    // All three rescue paths must be reachable, as in the §12 tests.
    let seen = seen.lock().unwrap();
    for way in ["recheck", "ticket", "notified"] {
        assert!(seen.contains(way), "exploration never hit the {way} path: {seen:?}");
    }
}

/// The warm fast path end to end: the coordinator claims the team with
/// `try_reuse`, publishes the next task (one sequence bump standing in
/// for the §9 seqlock write), and pings the member slot.  The pooled
/// member must obtain the task on every interleaving — the whole point of
/// the pool is that this one-write handoff is as lost-wakeup-free as the
/// full protocol it replaces.
#[test]
fn warm_publication_reaches_the_pooled_member() {
    Builder::new().preemption_bound(2).check(|| {
        let (word, counter) = formed_pair();
        let ec = Arc::new(EventCount::new(2));
        let publication = Arc::new(AtomicUsize::new(0));

        let member = {
            let word = Arc::clone(&word);
            let ec = Arc::clone(&ec);
            let publication = Arc::clone(&publication);
            thread::spawn(move || {
                for _ in 0..6 {
                    let ticket = ec.prepare_wait();
                    if publication.load(Ordering::SeqCst) == 1 {
                        // Got the task; the team must still be intact.
                        let cur = word.load();
                        assert_eq!((cur.teamed, cur.counter), (2, counter));
                        return true;
                    }
                    if let WakeReason::Backstop = ec.park(1, ticket, ParkClass::Handshake, BACKSTOP)
                    {
                        panic!("lost wakeup: pooled member slept through the warm publication");
                    }
                }
                panic!("pooled member never received the warm publication")
            })
        };
        let coordinator = {
            let word = Arc::clone(&word);
            let ec = Arc::clone(&ec);
            let publication = Arc::clone(&publication);
            thread::spawn(move || {
                // The one-load claim that replaces partner visits and
                // registration on this path.
                match word.try_reuse(2) {
                    ReuseOutcome::Reused(snap) => {
                        assert_eq!((snap.teamed, snap.counter), (2, counter))
                    }
                    other => panic!("idle warm team must be reusable: {other:?}"),
                }
                publication.store(1, Ordering::SeqCst);
                ec.notify_slot(1);
            })
        };
        assert!(member.join().unwrap());
        coordinator.join().unwrap();
    });
}
