//! Model-checked tests for the sharded scope countdown (`DESIGN.md` §9).
//!
//! The protocol under test is the real one: [`ShardedCountdown`] is built on
//! the `teamsteal_util::sync` shim, so under `--cfg teamsteal_model` its
//! counters, `waiters` flag, lock and condvar run on the explorer's virtual
//! primitives.  The scenario is the smallest one that has every hazard of
//! the sharded design in it — two workers and one waiter:
//!
//! * the waiter counts a root task on the external shard, hands it to
//!   worker A and blocks in `wait`;
//! * worker A runs the root, which spawns a child (counted on A's shard)
//!   into A's deque and keeps running;
//! * worker B may steal the child and finish it — on **B's** shard — while
//!   its parent still runs, or lose the race, in which case A pops it;
//! * each worker calls `signal_if_zero` when it has run out of work, like
//!   `Worker::leave_scope`.
//!
//! `wait` first polls (`is_zero`, `yield_now` through the shim, until its
//! budget of virtual time is spent) and only then registers as a waiter and
//! blocks.  Both ways out are explored: the waiter that sees zero while it
//! polls never registers — it may be gone, and with it the last *borrowed*
//! reference to the countdown, while a finisher still sits between its
//! `finished` and its `signal_if_zero` (the owned-handle rule, here the
//! `Arc<Scene>` each worker holds) — and the waiter that polls in vain is
//! signalled.
//!
//! Invariants, on every interleaving:
//!
//! 1. **No early return**: when `wait` returns, both tasks have run (their
//!    effects are counted before their `finished`).
//! 2. **No lost wake**: `wait` never ends on its timed backstop.  The model
//!    fires a timeout only when nothing else can run, so a backstop wake
//!    *is* a missed signal.
//!
//! Two negative controls show the scenario has teeth: a countdown that sums
//! `spawned` before `finished` is caught returning early on it, and a copy
//! of the owned-shard protocol whose `signal_if_zero` lacks its fence is
//! caught losing the wake.  The second relies on the explorer's stale
//! `Relaxed` loads, which a `SeqCst` fence ends (DESIGN.md §14): the
//! finisher's `Relaxed` load of `waiters` may miss the waiter's
//! registration exactly when no fence precedes it.
//!
//! Run with `RUSTFLAGS='--cfg teamsteal_model' cargo test -p teamsteal-model`.
#![cfg(teamsteal_model)]

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool as StdAtomicBool;
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

use teamsteal_model::time::Instant;
use teamsteal_model::{thread, Builder};
use teamsteal_util::countdown::ShardedCountdown;
use teamsteal_util::sync::atomic::{fence, AtomicUsize, Ordering};
use teamsteal_util::sync::{Condvar, Mutex};

/// Shard keys: one per worker, the last for the thread outside the pool.
const A: usize = 0;
const B: usize = 1;
const EXTERNAL: usize = 2;

/// The child's deque slot: `EMPTY` until A pushes it, `QUEUED` until A's pop
/// or B's steal takes it (one CAS — the deque's linearization point).
const EMPTY: usize = 0;
const QUEUED: usize = 1;
const TAKEN: usize = 2;

/// `wait`'s poll budget (`countdown::POLL_BUDGET`): a wait that took less
/// virtual time than this returned from its poll phase, unregistered.
const POLL_BUDGET: Duration = Duration::from_micros(50);

/// What the two workers and the waiter share.
struct Scene {
    countdown: ShardedCountdown,
    slot: AtomicUsize,
    /// Task bodies that have run; bumped before the task's `finished`.
    ran: AtomicUsize,
    /// Set by A between the root's body and its `finished`.
    root_done: AtomicUsize,
    /// Bookkeeping the explorer does not schedule (plain std atomics): the
    /// waiter is back from `wait`; a worker saw that before it signalled.
    waiter_returned: StdAtomicBool,
    signalled_after_return: StdAtomicBool,
}

impl Scene {
    fn new() -> Arc<Self> {
        Arc::new(Scene {
            countdown: ShardedCountdown::with_owned_shards(3, 2),
            slot: AtomicUsize::new(EMPTY),
            ran: AtomicUsize::new(0),
            root_done: AtomicUsize::new(0),
            waiter_returned: StdAtomicBool::new(false),
            signalled_after_return: StdAtomicBool::new(false),
        })
    }

    /// `Worker::check_scope`: the finisher's half of the completion
    /// protocol, on a countdown its waiter may already have left.
    fn signal(&self) {
        if self.waiter_returned.load(Ordering::SeqCst) {
            self.signalled_after_return.store(true, Ordering::SeqCst);
        }
        self.countdown.signal_if_zero();
    }

    /// Worker A: runs the root (spawn the child, push it, finish), then pops
    /// the child if nobody stole it, then leaves the scope.  Returns whether
    /// it ran the child itself.
    fn worker_a(&self) -> bool {
        self.countdown.spawned(A);
        self.slot.store(QUEUED, Ordering::Release);
        self.ran.fetch_add(1, Ordering::SeqCst);
        self.root_done.store(1, Ordering::SeqCst);
        self.countdown.finished(A);
        let kept = self.take_child();
        if kept {
            self.ran.fetch_add(1, Ordering::SeqCst);
            self.countdown.finished(A);
        }
        self.signal();
        kept
    }

    /// Worker B: one steal attempt.  Returns `None` when it found nothing
    /// (it then never entered the scope and has nothing to signal), else
    /// whether the root was still running when the child finished.
    fn worker_b(&self) -> Option<bool> {
        if !self.take_child() {
            return None;
        }
        self.ran.fetch_add(1, Ordering::SeqCst);
        let parent_running = self.root_done.load(Ordering::SeqCst) == 0;
        self.countdown.finished(B);
        self.signal();
        Some(parent_running)
    }

    fn take_child(&self) -> bool {
        self.slot
            .compare_exchange(QUEUED, TAKEN, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// The whole scenario against the production countdown.
#[test]
fn wait_returns_only_after_every_counted_task_and_is_always_signalled() {
    let seen: Arc<StdMutex<BTreeSet<&'static str>>> = Arc::default();
    let seen_in = Arc::clone(&seen);
    Builder::new().preemption_bound(2).check(move || {
        let scene = Scene::new();
        // `Scope::spawn`: count the root, then make it runnable (spawning
        // the worker thread is the injector's release/acquire handoff).
        scene.countdown.spawned(EXTERNAL);
        let a = {
            let scene = Arc::clone(&scene);
            thread::spawn(move || scene.worker_a())
        };
        let b = {
            let scene = Arc::clone(&scene);
            thread::spawn(move || scene.worker_b())
        };

        let called = Instant::now();
        let by_backstop = scene.countdown.wait();
        let polled = called.elapsed() < POLL_BUDGET;
        scene.waiter_returned.store(true, Ordering::SeqCst);
        // Invariant 1: nothing counted is still unfinished.
        assert_eq!(
            scene.ran.load(Ordering::SeqCst),
            2,
            "wait returned while a counted task had not run"
        );
        // Invariant 2: completion was signalled (or seen by the first check).
        assert!(!by_backstop, "lost wake: wait ended on its timed backstop");
        assert_eq!(scene.countdown.pending(), 0);

        let kept = a.join().unwrap();
        let stolen = b.join().unwrap();
        assert_eq!(kept, stolen.is_none(), "exactly one worker ran the child");
        let mut seen = seen_in.lock().unwrap();
        seen.insert(match stolen {
            None => "kept",
            Some(true) => "stolen, finished while the parent ran",
            Some(false) => "stolen, finished after the parent",
        });
        seen.insert(if polled {
            "wait ended in its poll phase"
        } else {
            "wait registered and blocked"
        });
        if polled && scene.signalled_after_return.load(Ordering::SeqCst) {
            seen.insert("waiter gone before the last finisher signalled");
        }
    });
    // The exploration must have produced the cross-shard finish both before
    // and after the parent's, the unstolen case, and both ways out of `wait`
    // — including the one that makes the owned handle necessary.
    let seen = seen.lock().unwrap();
    for outcome in [
        "kept",
        "stolen, finished while the parent ran",
        "stolen, finished after the parent",
        "wait ended in its poll phase",
        "wait registered and blocked",
        "waiter gone before the last finisher signalled",
    ] {
        assert!(
            seen.contains(outcome),
            "exploration never produced a schedule with the child {outcome}: {seen:?}"
        );
    }
}

/// A waiter that arrives after all the work is done must not block at all:
/// nobody is left to signal it.  (The registration in `waiters` and the
/// check are both behind the finishes, so the check sees them.)
#[test]
fn late_waiter_sees_zero_without_blocking() {
    Builder::new().preemption_bound(2).check(|| {
        let scene = Scene::new();
        scene.countdown.spawned(EXTERNAL);
        let a = {
            let scene = Arc::clone(&scene);
            thread::spawn(move || scene.worker_a())
        };
        assert!(a.join().unwrap(), "without a thief A runs the child itself");
        assert!(
            !scene.countdown.wait(),
            "a late waiter must not need the backstop"
        );
        assert_eq!(scene.ran.load(Ordering::SeqCst), 2);
    });
}

/// Negative control: summing `spawned` **before** `finished` (or, the same
/// mistake, one signed balance per shard) reads zero while the root is still
/// running — the spawn pass misses the child's `+1` on shard A, the finish
/// pass then sees its `-1` on shard B.  The explorer must find that
/// schedule, or the positive test above proves nothing about the order.
#[test]
fn spawned_before_finished_is_caught_returning_early() {
    struct Wrong {
        spawned: [AtomicUsize; 3],
        finished: [AtomicUsize; 3],
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        Builder::new().preemption_bound(2).check(|| {
            let c = Arc::new(Wrong {
                spawned: Default::default(),
                finished: Default::default(),
            });
            let ran = Arc::new(AtomicUsize::new(0));
            let slot = Arc::new(AtomicUsize::new(EMPTY));
            c.spawned[EXTERNAL].fetch_add(1, Ordering::SeqCst);
            let a = {
                let (c, ran, slot) = (Arc::clone(&c), Arc::clone(&ran), Arc::clone(&slot));
                thread::spawn(move || {
                    c.spawned[A].fetch_add(1, Ordering::SeqCst);
                    slot.store(QUEUED, Ordering::SeqCst);
                    ran.fetch_add(1, Ordering::SeqCst);
                    c.finished[A].fetch_add(1, Ordering::SeqCst);
                })
            };
            let b = {
                let (c, ran, slot) = (Arc::clone(&c), Arc::clone(&ran), Arc::clone(&slot));
                thread::spawn(move || {
                    if slot.load(Ordering::SeqCst) == QUEUED {
                        ran.fetch_add(1, Ordering::SeqCst);
                        c.finished[B].fetch_add(1, Ordering::SeqCst);
                    }
                })
            };
            let sum = |side: &[AtomicUsize; 3]| {
                side.iter().map(|s| s.load(Ordering::SeqCst)).sum::<usize>()
            };
            let spawned = sum(&c.spawned);
            let finished = sum(&c.finished);
            if spawned == finished {
                // "Zero": the scope would return here, so both bodies must
                // have run.
                assert_eq!(
                    ran.load(Ordering::SeqCst),
                    2,
                    "read zero while a counted task had not run"
                );
            }
            a.join().unwrap();
            b.join().unwrap();
        });
    }));
    let message = match result {
        Ok(()) => panic!("the explorer never found the torn sum"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    };
    assert!(
        message.contains("read zero while a counted task had not run"),
        "failed for another reason: {message}"
    );
}

/// The owned-shard protocol of `ShardedCountdown`, copied down to what one
/// finisher and one registered waiter touch, with `signal_if_zero`'s fence
/// switchable.  `fenced: true` is the production protocol.
struct OwnedShardCopy {
    fenced: bool,
    spawned: [AtomicUsize; 2],
    finished: [AtomicUsize; 2],
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl OwnedShardCopy {
    fn is_zero(&self) -> bool {
        let finished: usize = self.finished.iter().map(|f| f.load(Ordering::SeqCst)).sum();
        let spawned: usize = self.spawned.iter().map(|s| s.load(Ordering::Acquire)).sum();
        finished == spawned
    }

    /// `finished` on owned shard `A`, then `signal_if_zero`.
    fn finish_and_signal(&self) {
        let count = self.finished[A].load(Ordering::Relaxed);
        self.finished[A].store(count + 1, Ordering::Release);
        if self.fenced {
            fence(Ordering::SeqCst);
        }
        if self.waiters.load(Ordering::Relaxed) != 0 && self.is_zero() {
            drop(self.lock.lock().unwrap());
            self.cv.notify_all();
        }
    }

    /// `wait` past its poll budget: register, then check under the lock.
    /// Returns `true` when the backstop ended it.
    fn wait_registered(&self) -> bool {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut by_backstop = false;
        let mut guard = self.lock.lock().unwrap();
        while !self.is_zero() {
            let (g, timeout) = self
                .cv
                .wait_timeout(guard, Duration::from_millis(5))
                .unwrap();
            guard = g;
            by_backstop = timeout.timed_out();
        }
        by_backstop
    }
}

/// One task counted on the shared shard (index 1 here), finished by worker
/// A on its owned shard while the waiter registers.  Panics with "lost
/// wake" when the waiter needed its backstop.
fn owned_shard_scene(fenced: bool) {
    Builder::new().preemption_bound(2).check(move || {
        let c = Arc::new(OwnedShardCopy {
            fenced,
            spawned: Default::default(),
            finished: Default::default(),
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        });
        c.spawned[1].fetch_add(1, Ordering::SeqCst);
        let worker = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.finish_and_signal())
        };
        assert!(
            !c.wait_registered(),
            "lost wake: the finisher missed the registered waiter"
        );
        worker.join().unwrap();
    });
}

/// The copy with its fence is as safe as the production countdown: the
/// fence is what makes the `Relaxed` load of `waiters` see a waiter that
/// registered before it.
#[test]
fn owned_shard_copy_with_its_fence_never_loses_the_wake() {
    owned_shard_scene(true);
}

/// Negative control: without the fence, the finisher's `Release` store and
/// its `Relaxed` load of `waiters` form no Dekker pair with the waiter's
/// registration and check — the store-buffering outcome where each side
/// misses the other.  The explorer must find it.
#[test]
fn signal_without_its_fence_is_caught_losing_the_wake() {
    let result = catch_unwind(AssertUnwindSafe(|| owned_shard_scene(false)));
    let message = match result {
        Ok(()) => panic!("the explorer never found the lost wake"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    };
    assert!(
        message.contains("lost wake: the finisher missed the registered waiter"),
        "failed for another reason: {message}"
    );
}
