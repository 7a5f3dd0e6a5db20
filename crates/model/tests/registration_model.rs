//! Model-checked tests for the registration protocol (`DESIGN.md` §9).
//!
//! These exhaustively explore the single-word CAS protocol of
//! [`teamsteal_registration::AtomicRegistration`] under 2–3 virtual
//! threads: every interleaving of the thief-side `try_acquire` /
//! `try_release` CAS loops against the coordinator-side
//! `try_form_team` / `push_requirement` transitions.  The invariant in
//! every test is the paper's *no torn team*: because all four counters
//! live in one 64-bit word, no observer ever sees a half-updated team
//! (`is_well_formed` holds for every loaded snapshot) and a team forms
//! with exactly the threads whose registrations were still valid.
//!
//! Run with `RUSTFLAGS='--cfg teamsteal_model' cargo test -p teamsteal-model`.
#![cfg(teamsteal_model)]

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex as StdMutex};

use teamsteal_model::{thread, Builder};
use teamsteal_registration::{AcquireOutcome, AtomicRegistration, ReleaseOutcome};

/// Two thieves race `try_acquire` for the single open slot of a
/// requirement-2 word.  Exactly one registration must win, the loser must
/// observe `NotNeeded` (never a torn word), and the team the coordinator
/// then forms must be exactly `t = a = r = 2`.
#[test]
fn acquire_race_admits_exactly_one_thief() {
    let outcomes: Arc<StdMutex<BTreeSet<(bool, bool)>>> = Arc::default();
    let outcomes_in = Arc::clone(&outcomes);
    let report = Builder::new().check(move || {
        let word = Arc::new(AtomicRegistration::new());
        // Coordinator announces a requirement of 2 before the thieves run
        // (the racy part is acquisition, not publication).
        word.push_requirement(2);

        let thieves: Vec<_> = (0..2)
            .map(|_| {
                let word = Arc::clone(&word);
                thread::spawn(move || {
                    // Bounded CAS retry loop: `Contended` means the word
                    // moved under us; with one competitor and an idle
                    // coordinator at most one retry can be needed before
                    // the outcome is decided.
                    for _ in 0..4 {
                        match word.try_acquire(2) {
                            AcquireOutcome::Contended => continue,
                            AcquireOutcome::Registered(snap) => {
                                assert!(snap.is_well_formed(), "torn snapshot: {snap:?}");
                                return true;
                            }
                            AcquireOutcome::NotNeeded(snap) => {
                                assert!(snap.is_well_formed(), "torn snapshot: {snap:?}");
                                return false;
                            }
                        }
                    }
                    panic!("try_acquire still contended after competitors settled");
                })
            })
            .collect();
        let wins: Vec<bool> = thieves.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            wins.iter().filter(|&&w| w).count(),
            1,
            "exactly one thief must claim the single open slot, got {wins:?}"
        );

        // Thieves are done; the word is complete, so team formation is a
        // single uncontended CAS now.
        let teamed = word
            .try_form_team()
            .expect("complete word must form a team");
        assert!(teamed.is_well_formed());
        assert_eq!((teamed.teamed, teamed.acquired, teamed.required), (2, 2, 2));
        outcomes_in.lock().unwrap().insert((wins[0], wins[1]));
    });
    // Both orders of the race must have been explored.
    let outcomes = outcomes.lock().unwrap();
    assert!(
        outcomes.contains(&(true, false)) && outcomes.contains(&(false, true)),
        "exploration missed a winner ordering: {outcomes:?} over {} schedules",
        report.schedules
    );
}

/// A thief's `try_release` races the coordinator's shrinking
/// `push_requirement` (which bumps the renewal counter).  The stale
/// registration must be *revoked*, never double-decremented: `acquired`
/// ends at exactly 1 on every interleaving and never reaches 0.
#[test]
fn release_vs_renewal_never_double_decrements() {
    let saw: Arc<StdMutex<BTreeSet<&'static str>>> = Arc::default();
    let saw_in = Arc::clone(&saw);
    Builder::new().check(move || {
        let word = Arc::new(AtomicRegistration::new());
        word.push_requirement(3);
        let counter = match word.try_acquire(3) {
            AcquireOutcome::Registered(snap) => snap.counter,
            other => panic!("uncontended acquire failed: {other:?}"),
        };

        let releaser = {
            let word = Arc::clone(&word);
            // `try_release` retries its CAS internally while the counter
            // still matches, so one call always settles.
            thread::spawn(move || match word.try_release(counter) {
                ReleaseOutcome::Released => "released",
                ReleaseOutcome::Revoked => "revoked",
                ReleaseOutcome::Teamed => "teamed",
            })
        };
        let renewer = {
            let word = Arc::clone(&word);
            // Shrinking the requirement resets `acquired` to the teamed
            // size and bumps the counter, voiding outstanding registrations.
            thread::spawn(move || word.push_requirement(1))
        };
        let how = releaser.join().unwrap();
        renewer.join().unwrap();

        let fin = word.load();
        assert!(fin.is_well_formed(), "torn final word: {fin:?}");
        assert_eq!(
            fin.acquired, 1,
            "release-after-renewal must not decrement again ({how}): {fin:?}"
        );
        assert_eq!(fin.counter, counter + 1);
        saw_in.lock().unwrap().insert(how);
    });
    let saw = saw.lock().unwrap();
    assert!(
        saw.contains("released") && saw.contains("revoked"),
        "exploration should reach both release-first and renew-first orders: {saw:?}"
    );
}

/// `try_form_team` races a registered thief's `try_release`: either the
/// team forms *with* the thief (whose release then reports `Teamed`), or
/// the thief gets out first and the team cannot form.  A formed team with
/// a missing member — torn between `teamed` and `acquired` — must be
/// impossible.
#[test]
fn form_vs_release_is_atomic() {
    let saw: Arc<StdMutex<BTreeSet<(bool, &'static str)>>> = Arc::default();
    let saw_in = Arc::clone(&saw);
    Builder::new().check(move || {
        let word = Arc::new(AtomicRegistration::new());
        word.push_requirement(2);
        let counter = match word.try_acquire(2) {
            AcquireOutcome::Registered(snap) => snap.counter,
            other => panic!("uncontended acquire failed: {other:?}"),
        };

        let thief = {
            let word = Arc::clone(&word);
            thread::spawn(move || match word.try_release(counter) {
                ReleaseOutcome::Released => "released",
                ReleaseOutcome::Teamed => "teamed",
                ReleaseOutcome::Revoked => "revoked",
            })
        };
        let coordinator = {
            let word = Arc::clone(&word);
            thread::spawn(move || word.try_form_team().is_some())
        };
        let how = thief.join().unwrap();
        let formed = coordinator.join().unwrap();

        let fin = word.load();
        assert!(fin.is_well_formed(), "torn final word: {fin:?}");
        if formed {
            // The team closed over the thief before it could leave; the
            // single-word CAS makes the membership atomic.
            assert_eq!(how, "teamed");
            assert_eq!((fin.teamed, fin.acquired, fin.required), (2, 2, 2));
        } else {
            assert_eq!(how, "released");
            assert_eq!(fin.acquired, 1, "escaped thief must be fully deregistered");
            assert_eq!(fin.teamed, 1);
        }
        saw_in.lock().unwrap().insert((formed, how));
    });
    let saw = saw.lock().unwrap();
    assert!(
        saw.contains(&(true, "teamed")) && saw.contains(&(false, "released")),
        "exploration should reach both atomic outcomes: {saw:?}"
    );
}

/// Smoke check that the instrumented word really goes through the model
/// runtime: a two-thief acquire race explored with stale-`Relaxed`
/// branching disabled must still see both winners (the protocol is all
/// `SeqCst` CAS, so SC exploration covers it).
#[test]
fn acquire_race_explored_under_plain_sc() {
    let winners = Arc::new(AtomicUsize::new(0));
    let winners_in = Arc::clone(&winners);
    let report = Builder::new().without_stale_reads().check(move || {
        let word = Arc::new(AtomicRegistration::new());
        word.push_requirement(2);
        let t = {
            let word = Arc::clone(&word);
            thread::spawn(move || matches!(word.try_acquire(2), AcquireOutcome::Registered(_)))
        };
        let main_won = matches!(word.try_acquire(2), AcquireOutcome::Registered(_));
        let thief_won = t.join().unwrap();
        assert!(
            main_won ^ thief_won,
            "exactly one of two racers must register"
        );
        winners_in.fetch_add(usize::from(main_won), Ordering::Relaxed);
    });
    assert!(
        report.schedules >= 2,
        "race must have multiple interleavings"
    );
    let w = winners.load(Ordering::Relaxed);
    assert!(
        w > 0 && w < report.schedules,
        "both racers must win somewhere"
    );
}
