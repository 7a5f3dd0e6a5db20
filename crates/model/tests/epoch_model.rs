//! Model-checked tests for the epoch reclamation domain (`DESIGN.md` §13).
//!
//! Two invariants, each explored with 2–3 virtual threads:
//!
//! * **safety** — an object unlinked and deferred into the domain is never
//!   freed while a pinned participant that loaded it is still pinned;
//! * **exactly-once** — every deferred object's destructor runs exactly
//!   once, whether it is freed by a racing `try_collect`, by a later one,
//!   or by the domain's drop.
//!
//! Both hold for a reader that re-pins between two protected loads, at an
//! unchanged epoch (the pin's same-epoch skip stores and fences nothing)
//! and across an advance.
//!
//! Destructor runs are counted through `std` atomics (invisible to the
//! explorer) so the assertions don't add interleavings of their own.
//!
//! Both tests run with stale-`Relaxed` branching disabled
//! ([`Builder::without_stale_reads`]): the epoch protocol is *fence*-based
//! (`Relaxed` accesses ordered by `SeqCst` fences), and the model treats
//! fences as pure scheduling points — branching `Relaxed` loads over stale
//! values would fabricate executions the real fence pairs forbid (see
//! `DESIGN.md` §14 on this soundness boundary).  Plain SC exploration
//! still covers every *interleaving*-level ordering of the protocol.
//!
//! Run with `RUSTFLAGS='--cfg teamsteal_model' cargo test -p teamsteal-model`.
#![cfg(teamsteal_model)]

use std::collections::BTreeSet;
use std::ptr;
use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
use std::sync::Arc;

use teamsteal_model::{thread, Builder};
use teamsteal_util::epoch::{Deferred, Domain, ReclaimClass};
use teamsteal_util::sync::atomic::{AtomicPtr, Ordering};

/// Increments a shared counter when dropped; the model tests use it to
/// observe *when* (and how many times) the domain runs a deferred free.
struct Tracked(Arc<StdAtomicUsize>);

impl Drop for Tracked {
    fn drop(&mut self) {
        self.0.fetch_add(1, StdOrdering::SeqCst);
    }
}

/// A pinned reader loads a shared pointer while a writer concurrently
/// unlinks it, defers it, and collects.  On no interleaving may the free
/// run while the reader still holds the pointer under its pin; after the
/// domain is gone the free must have run exactly once.
#[test]
fn pinned_reader_never_overlaps_the_free() {
    Builder::new()
        .without_stale_reads()
        .preemption_bound(2)
        .check(|| {
            let drops = Arc::new(StdAtomicUsize::new(0));
            let domain = Domain::new(2);
            let shared: Arc<AtomicPtr<Tracked>> = Arc::new(AtomicPtr::new(Box::into_raw(
                Box::new(Tracked(Arc::clone(&drops))),
            )));

            let reader = {
                let domain = Arc::clone(&domain);
                let shared = Arc::clone(&shared);
                let drops = Arc::clone(&drops);
                thread::spawn(move || {
                    let participant = domain.register().expect("domain has a free slot");
                    participant.pin();
                    let raw = shared.load(Ordering::SeqCst);
                    if !raw.is_null() {
                        // A tracked read between the load and the check gives
                        // the explorer a scheduling point at which the writer's
                        // whole defer+collect sequence can run.
                        let _ = domain.global_epoch();
                        assert_eq!(
                            drops.load(StdOrdering::SeqCst),
                            0,
                            "object freed while a pinned reader still held it"
                        );
                    }
                    participant.unpin();
                })
            };
            let writer = {
                let domain = Arc::clone(&domain);
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    let raw = shared.swap(ptr::null_mut(), Ordering::SeqCst);
                    assert!(!raw.is_null(), "writer is the only unlinker");
                    // SAFETY: `raw` came from `Box::into_raw` above and the swap
                    // unlinked it — no new reader can reach it.
                    domain.defer(unsafe { Deferred::from_box(raw, ReclaimClass::Segment) });
                    for _ in 0..2 {
                        domain.try_collect();
                    }
                })
            };
            reader.join().unwrap();
            writer.join().unwrap();

            // Quiescent: nothing is pinned, so the domain (via collect or its
            // drop) must free the object — exactly once.
            domain.try_collect();
            drop(domain);
            assert_eq!(
                drops.load(StdOrdering::SeqCst),
                1,
                "deferred free must run exactly once"
            );
        });
}

/// Two collectors race `try_collect` over a domain holding two deferred
/// objects.  However the bag-handoff races resolve, each destructor runs
/// exactly once (and never twice — the double-free a lost race would
/// cause).
#[test]
fn racing_collectors_free_each_object_exactly_once() {
    Builder::new()
        .without_stale_reads()
        .preemption_bound(2)
        .check(|| {
            let domain = Domain::new(2);
            let counters: Vec<Arc<StdAtomicUsize>> =
                (0..2).map(|_| Arc::new(StdAtomicUsize::new(0))).collect();
            for counter in &counters {
                let boxed = Box::into_raw(Box::new(Tracked(Arc::clone(counter))));
                // SAFETY: freshly leaked, never shared — trivially unlinked.
                domain.defer(unsafe { Deferred::from_box(boxed, ReclaimClass::Buffer) });
            }

            let collectors: Vec<_> = (0..2)
                .map(|_| {
                    let domain = Arc::clone(&domain);
                    thread::spawn(move || {
                        domain.try_collect();
                    })
                })
                .collect();
            for h in collectors {
                h.join().unwrap();
            }
            drop(domain);
            for (i, counter) in counters.iter().enumerate() {
                assert_eq!(
                    counter.load(StdOrdering::SeqCst),
                    1,
                    "object {i} must be freed exactly once"
                );
            }
        });
}

/// A reader re-pins between two protected loads while a writer unlinks,
/// defers and collects.  Each pointer is checked under the pin it was
/// loaded under: the first one until the re-pin (a quiescent point, after
/// which it is dead), the second one until the unpin.  The exploration must
/// produce both kinds of re-pin: at an unchanged epoch (the same-epoch
/// skip, which stores and fences nothing) and across an advance (which
/// stores and fences, and only then lets a later advance free what the
/// first pin protected).
#[test]
fn repin_between_two_loads_keeps_protecting() {
    let seen: Arc<std::sync::Mutex<BTreeSet<(u64, u64)>>> = Arc::default();
    let seen_in = Arc::clone(&seen);
    Builder::new()
        .without_stale_reads()
        .preemption_bound(2)
        .check(move || {
            let drops = Arc::new(StdAtomicUsize::new(0));
            let domain = Domain::new(2);
            let shared: Arc<AtomicPtr<Tracked>> = Arc::new(AtomicPtr::new(Box::into_raw(
                Box::new(Tracked(Arc::clone(&drops))),
            )));

            let reader = {
                let domain = Arc::clone(&domain);
                let shared = Arc::clone(&shared);
                let drops = Arc::clone(&drops);
                thread::spawn(move || {
                    let protected_load = || {
                        if !shared.load(Ordering::SeqCst).is_null() {
                            // A scheduling point between the load and the
                            // check, as in the first test.
                            let _ = domain.global_epoch();
                            assert_eq!(
                                drops.load(StdOrdering::SeqCst),
                                0,
                                "object freed while a pinned reader still held it"
                            );
                        }
                    };
                    let participant = domain.register().expect("domain has a free slot");
                    participant.pin();
                    let first = participant.pinned_epoch().expect("pinned");
                    protected_load();
                    participant.pin();
                    let second = participant.pinned_epoch().expect("pinned");
                    protected_load();
                    participant.unpin();
                    (first, second)
                })
            };
            let writer = {
                let domain = Arc::clone(&domain);
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    let raw = shared.swap(ptr::null_mut(), Ordering::SeqCst);
                    // SAFETY: `raw` came from `Box::into_raw` above and the swap
                    // unlinked it — no new reader can reach it.
                    domain.defer(unsafe { Deferred::from_box(raw, ReclaimClass::Segment) });
                    for _ in 0..3 {
                        domain.try_collect();
                    }
                })
            };
            let epochs = reader.join().unwrap();
            writer.join().unwrap();
            drop(domain);
            assert_eq!(drops.load(StdOrdering::SeqCst), 1, "freed exactly once");
            seen_in.lock().unwrap().insert(epochs);
        });
    let seen = seen.lock().unwrap();
    assert!(
        seen.iter().any(|&(first, second)| first == second),
        "no schedule re-pinned at an unchanged epoch: {seen:?}"
    );
    assert!(
        seen.iter().any(|&(first, second)| second > first),
        "no schedule re-pinned across an advance: {seen:?}"
    );
}
