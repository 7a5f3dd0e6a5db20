//! A sharded completion countdown: "how many spawned tasks have not
//! finished yet", without a cache line every spawner and finisher writes.
//!
//! A single `pending` counter costs one read-modify-write per spawn and one
//! per finish on a line shared by all workers; with two workers running a
//! tree of empty tasks that line *is* the workload (DESIGN.md §9,
//! EXPERIMENTS.md "The sharded scope countdown").  Here every thread counts
//! on its own cache-padded shard instead:
//!
//! * [`spawned`](ShardedCountdown::spawned) and
//!   [`finished`](ShardedCountdown::finished) bump **monotone** per-shard
//!   counters.  A task may be spawned on one shard and finished on another
//!   (it was stolen), so no single shard ever knows a balance.
//! * **Owned shards.**  A countdown made by
//!   [`with_owned_shards`](ShardedCountdown::with_owned_shards) promises
//!   that each of its first shards is counted by one thread only (a
//!   scheduler's worker `i` on shard `i`).  Such a shard counts with a load
//!   and a store instead of a locked read-modify-write: the `r = 1` task
//!   path then pays no barrier for its count.  Every other shard may be
//!   shared and counts with RMWs.  Debug builds assert the promise.
//! * [`is_zero`](ShardedCountdown::is_zero) sums every `finished` **first**
//!   and every `spawned` **second** and reports zero only when the sums
//!   match.  Let `t` be the moment the first pass ends: the first pass
//!   under-estimates the finishes at `t`, the second over-estimates the
//!   spawns at `t`, and finishes never exceed spawns — so equal sums mean
//!   *nothing was outstanding at `t`*.  (One signed balance per shard does
//!   not have this property: a sum can read the `-1` of a child's finish on
//!   shard B before the `+1` of its spawn on shard A and report zero while
//!   the parent is still running.)
//! * [`wait`](ShardedCountdown::wait) **polls, then blocks**.  For about
//!   what one blocking wake-up costs it re-reads the sums with a
//!   `yield_now` in between — a scope that ends within that budget never
//!   puts its caller to sleep, and the yield (not a spin) leaves the core to
//!   the worker the caller is waiting for.  During that phase the waiter is
//!   invisible: finishers skip the sums while `waiters` is zero.
//! * A waiter that outlives the budget is **signalled**, not polled: it
//!   registers in `waiters` before it checks again, and a finisher calls
//!   [`signal_if_zero`](ShardedCountdown::signal_if_zero) after its
//!   increments.  The waiter's registration and its first load of the sums
//!   are `SeqCst`; the finisher's side is its `SeqCst` RMW on a shared shard
//!   or, after a `Release` store on an owned one, the `SeqCst` fence that
//!   `signal_if_zero` issues before it loads `waiters` — once per run-out,
//!   not once per task.  Either form is the Dekker pair that guarantees
//!   the waiter sees the last increment or the finisher sees the waiter.
//!   The waiter's 5 ms timed wait is a backstop the protocol never relies
//!   on (model-checked: `crates/model/tests/scope_countdown_model.rs`).
//!
//! The countdown does not manage its own lifetime: `finished` may be the
//! increment that releases a waiter — a polling one needs no signal for
//! that — who then frees the countdown, so a finisher that goes on to call
//! `signal_if_zero` must hold an **owned** handle (an `Arc`) on whatever
//! contains it.  The scheduler's workers cache one per scope switch
//! (DESIGN.md §9, "owned-handle rule").
//!
//! ```
//! use std::sync::Arc;
//! use teamsteal_util::countdown::ShardedCountdown;
//!
//! let countdown = Arc::new(ShardedCountdown::new(3));
//! countdown.spawned(2); // submitted from outside the pool
//! let worker = {
//!     let countdown = Arc::clone(&countdown);
//!     std::thread::spawn(move || {
//!         countdown.spawned(0); // the task spawns a child ...
//!         countdown.finished(0); // ... runs it ...
//!         countdown.finished(0); // ... and finishes itself
//!         countdown.signal_if_zero();
//!     })
//! };
//! countdown.wait();
//! assert_eq!(countdown.pending(), 0);
//! worker.join().unwrap();
//! ```

use crate::sync::atomic::{fence, AtomicUsize, Ordering};
use crate::sync::time::Instant;
use crate::sync::{thread, Condvar, Mutex};
use std::time::Duration;

use crate::CachePadded;

/// Upper bound on one blocking wait: a missed signal (a bug — the protocol
/// has none) costs this much latency instead of a hang.
const WAIT_BACKSTOP: Duration = Duration::from_millis(5);

/// How long [`ShardedCountdown::wait`] polls before it blocks: about what
/// the blocking wake-up it avoids costs (35–60 µs on the reference host), so
/// a waiter that polls in vain has at most doubled its wait (competitive
/// spinning; Karlin et al., SOSP 1991).  A time, not a poll count: a
/// `yield_now` takes a third of a microsecond on an idle core and a whole
/// time slice on a busy one.  And a yield, not a spin: with a worker per
/// core the waiter is one runnable thread too many, and the same wait
/// spinning made a cold entry *slower* than blocking at once (DESIGN.md §9).
const POLL_BUDGET: Duration = Duration::from_micros(50);

/// One thread's pair of monotone counters, on a cache line of its own.
#[derive(Default)]
struct Shard {
    spawned: AtomicUsize,
    finished: AtomicUsize,
    /// Debug builds: the thread that counts on this shard, if it is owned
    /// (see [`ShardedCountdown::sole_writer`]).  A std atomic, so the model
    /// explores no interleavings of the check itself.
    writer: std::sync::atomic::AtomicUsize,
}

/// A completion countdown sharded by thread.  See the [module docs](self).
pub struct ShardedCountdown {
    shards: Box<[CachePadded<Shard>]>,
    /// Shards `0..owned` are each counted by one thread only.
    owned: usize,
    /// Threads currently inside [`wait`](Self::wait) (plus any registered
    /// through [`add_waiter`](Self::add_waiter)); finishers skip the sums
    /// while it is zero.
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl ShardedCountdown {
    /// Creates a countdown with `shards` shards (at least one), all of
    /// them shared.  Callers give each thread that counts often a shard key
    /// of its own; keys are reduced modulo the shard count, so any key is
    /// valid and two threads sharing a shard are merely slower, never wrong.
    pub fn new(shards: usize) -> Self {
        Self::with_owned_shards(shards, 0)
    }

    /// Creates a countdown with `shards` shards whose first `owned` are
    /// **owned**: the caller promises that each key below `owned` is
    /// counted by one thread only, so those shards count without an RMW
    /// (module docs).  At least one shard stays shared; keys from `owned`
    /// up are reduced onto the shared ones, never onto an owned shard.
    pub fn with_owned_shards(shards: usize, owned: usize) -> Self {
        let shards = shards.max(1);
        assert!(owned < shards, "a countdown needs a shared shard");
        ShardedCountdown {
            shards: (0..shards).map(|_| CachePadded::default()).collect(),
            owned,
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` counts on, and whether it is owned.
    #[inline]
    fn shard(&self, key: usize) -> (&Shard, bool) {
        let n = self.shards.len();
        let index = if key < n {
            key
        } else {
            self.owned + (key - self.owned) % (n - self.owned)
        };
        let owned = index < self.owned;
        debug_assert!(
            !owned || self.sole_writer(index),
            "owned countdown shard {index} counted by a second thread"
        );
        (&self.shards[index], owned)
    }

    /// `true` when the calling thread is the only one that has counted on
    /// owned shard `index`.  The first counter claims the shard.
    fn sole_writer(&self, index: usize) -> bool {
        use std::sync::atomic::Ordering::Relaxed;
        thread_local!(static TOKEN: u8 = const { 0 });
        let me = TOKEN.with(|token| token as *const u8 as usize);
        let writer = &self.shards[index].writer;
        match writer.compare_exchange(0, me, Relaxed, Relaxed) {
            Ok(_) => true,
            Err(first) => first == me,
        }
    }

    /// Counts one more outstanding task on shard `key`.
    ///
    /// Relaxed suffices: a spawn is sequenced before the push that makes the
    /// task runnable, so it happens-before the task's own `finished` and —
    /// when a running task spawns — before the spawner's.  Whoever
    /// acquire-reads either of those in `is_zero`'s first pass therefore
    /// sees this increment in the second.  On an owned shard the load reads
    /// the owner's own last store, so load plus store is an increment.
    #[inline]
    pub fn spawned(&self, key: usize) {
        let (shard, owned) = self.shard(key);
        if owned {
            let count = shard.spawned.load(Ordering::Relaxed);
            shard
                .spawned
                .store(count.wrapping_add(1), Ordering::Relaxed);
        } else {
            shard.spawned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one task as finished on shard `key`.  May release a waiter:
    /// see the module docs for what the caller may touch afterwards.
    ///
    /// The release half publishes the task's effects to whoever reads the
    /// counter in `is_zero`.  On a shared shard the RMW is `SeqCst`: it is
    /// the finisher's half of the Dekker pair with `waiters`.  On an owned
    /// shard a `Release` store suffices, because `signal_if_zero` fences
    /// before it reads `waiters`.
    #[inline]
    pub fn finished(&self, key: usize) {
        let (shard, owned) = self.shard(key);
        if owned {
            let count = shard.finished.load(Ordering::Relaxed);
            shard
                .finished
                .store(count.wrapping_add(1), Ordering::Release);
        } else {
            shard.finished.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Sums `finished` over all shards, then `spawned`.  The order is the
    /// whole point — see the module docs.
    fn sums(&self) -> (usize, usize) {
        let finished = self.shards.iter().fold(0usize, |sum, s| {
            sum.wrapping_add(s.finished.load(Ordering::SeqCst))
        });
        let spawned = self.shards.iter().fold(0usize, |sum, s| {
            sum.wrapping_add(s.spawned.load(Ordering::Acquire))
        });
        (finished, spawned)
    }

    /// Tasks spawned and not yet finished.  Exact at some moment during the
    /// call when it returns zero; an upper bound on that moment's value
    /// otherwise.
    pub fn pending(&self) -> usize {
        let (finished, spawned) = self.sums();
        spawned.wrapping_sub(finished)
    }

    /// `true` when every task spawned so far had finished at some moment
    /// during the call.
    pub fn is_zero(&self) -> bool {
        self.pending() == 0
    }

    /// Wakes the waiters if one is registered and nothing is outstanding.
    /// Returns `true` when it did.  Finishers call this after their
    /// `finished` increments, whenever they run out of work that could
    /// belong to this countdown — not per task.
    pub fn signal_if_zero(&self) -> bool {
        if !self.has_waiter() || !self.is_zero() {
            return false;
        }
        // Taking the lock orders this notification after a waiter's failed
        // check: the waiter holds it from the check until `wait_timeout`
        // releases it atomically with enqueueing on the condvar.
        drop(self.lock.lock().expect("countdown lock poisoned"));
        self.cv.notify_all();
        true
    }

    /// The finisher's half of the Dekker pair with `wait`'s registration.
    /// Without owned shards every finish was a `SeqCst` RMW, and a `SeqCst`
    /// load completes the pair.  An owned shard's finish is a `Release`
    /// store, which a later load may overtake: the fence keeps it ahead, so
    /// either the waiter's `SeqCst` first pass sees it or this load sees
    /// the waiter (DESIGN.md §9, row 7).
    #[inline]
    fn has_waiter(&self) -> bool {
        if self.owned == 0 {
            return self.waiters.load(Ordering::SeqCst) != 0;
        }
        fence(Ordering::SeqCst);
        self.waiters.load(Ordering::Relaxed) != 0
    }

    /// Registers a permanent waiter: from now on every `signal_if_zero`
    /// checks the sums.  For owners that want to learn of completion from
    /// `signal_if_zero`'s return value without blocking in `wait`.
    pub fn add_waiter(&self) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
    }

    /// Waits until nothing is outstanding: polls for about one wake-up's
    /// worth of time (`POLL_BUDGET`), yielding between polls, then registers
    /// as a waiter and blocks until signalled.  Returns `true` when the
    /// wake-up that ended the wait was the timed backstop rather than a
    /// signal — with a correct caller this only happens when completion and
    /// the timeout coincide.
    pub fn wait(&self) -> bool {
        let start = Instant::now();
        loop {
            if self.is_zero() {
                return false;
            }
            if start.elapsed() >= POLL_BUDGET {
                break;
            }
            thread::yield_now();
        }
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut by_backstop = false;
        let mut guard = self.lock.lock().expect("countdown lock poisoned");
        while !self.is_zero() {
            let (g, timeout) = self
                .cv
                .wait_timeout(guard, WAIT_BACKSTOP)
                .expect("countdown lock poisoned");
            guard = g;
            by_backstop = timeout.timed_out();
        }
        drop(guard);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        by_backstop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn counts_down_to_zero_across_shards() {
        let c = ShardedCountdown::new(3);
        assert!(c.is_zero());
        c.spawned(0);
        c.spawned(2);
        assert_eq!(c.pending(), 2);
        // Finished on a different shard than it was spawned on.
        c.finished(1);
        assert_eq!(c.pending(), 1);
        c.finished(1);
        assert!(c.is_zero());
        assert!(!c.wait(), "nothing pending: returns without blocking");
    }

    #[test]
    fn keys_beyond_the_shard_count_wrap() {
        let c = ShardedCountdown::new(2);
        assert_eq!(ShardedCountdown::new(0).num_shards(), 1);
        c.spawned(7);
        c.spawned(usize::MAX);
        assert_eq!(c.pending(), 2);
        c.finished(4);
        c.finished(5);
        assert!(c.is_zero());
    }

    #[test]
    fn owned_shards_count_and_wrap_only_onto_shared_ones() {
        let c = ShardedCountdown::with_owned_shards(4, 2);
        c.spawned(0);
        c.spawned(1);
        c.spawned(5); // 2 + (5 - 2) % 2 = shard 3
        assert_eq!(c.pending(), 3);
        c.finished(1);
        c.finished(0);
        c.finished(2);
        assert!(c.is_zero());
        assert_eq!(c.shards[3].spawned.load(Ordering::Relaxed), 1);
        assert_eq!(c.shards[2].finished.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "a countdown needs a shared shard")]
    fn every_shard_owned_is_refused() {
        ShardedCountdown::with_owned_shards(2, 2);
    }

    /// Two threads counting on one owned shard would lose counts (load plus
    /// store is no RMW); debug builds refuse the second thread.
    #[test]
    #[cfg(debug_assertions)]
    fn a_second_writer_on_an_owned_shard_is_caught() {
        let c = Arc::new(ShardedCountdown::with_owned_shards(2, 1));
        c.spawned(0);
        let other = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.finished(0))
        };
        let message = other.join().expect_err("the second writer must panic");
        let message = message
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("counted by a second thread"), "{message}");
        c.finished(0);
        assert!(c.is_zero());
    }

    #[test]
    fn signal_needs_a_waiter_and_zero() {
        for c in [
            ShardedCountdown::new(2),
            ShardedCountdown::with_owned_shards(2, 1),
        ] {
            assert!(!c.signal_if_zero(), "no waiter registered");
            c.add_waiter();
            c.spawned(0);
            assert!(!c.signal_if_zero(), "a task is outstanding");
            c.finished(0);
            assert!(c.signal_if_zero());
        }
    }

    #[test]
    fn wait_blocks_until_signalled() {
        let c = Arc::new(ShardedCountdown::new(2));
        c.spawned(1);
        let released = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (c, released) = (Arc::clone(&c), Arc::clone(&released));
            std::thread::spawn(move || {
                c.wait();
                released.load(Ordering::SeqCst)
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        released.store(true, Ordering::SeqCst);
        c.finished(0);
        c.signal_if_zero();
        assert!(
            waiter.join().unwrap(),
            "wait returned before the task finished"
        );
    }

    /// A wait that sees zero while it polls has never been a waiter: there is
    /// nobody for a late `signal_if_zero` to wake, and the finishers of a
    /// short scope never took the lock.
    #[test]
    fn zero_seen_in_the_poll_phase_leaves_no_waiter_registered() {
        let c = ShardedCountdown::new(2);
        c.spawned(0);
        c.finished(1);
        assert!(!c.wait());
        assert_eq!(c.waiters.load(Ordering::SeqCst), 0);
        assert!(
            !c.signal_if_zero(),
            "the finisher's late signal finds nobody"
        );
    }

    /// A wait that polls in vain registers, blocks, and is released by the
    /// finisher's signal — not by its backstop.
    #[test]
    fn a_wait_longer_than_the_poll_budget_registers_and_is_signalled() {
        let c = Arc::new(ShardedCountdown::new(2));
        c.spawned(0);
        let waiter = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.wait())
        };
        while c.waiters.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        assert!(!c.signal_if_zero(), "registered, but a task is outstanding");
        c.finished(1);
        c.signal_if_zero();
        assert!(
            !waiter.join().unwrap(),
            "ended on the backstop, not the signal"
        );
        assert_eq!(c.waiters.load(Ordering::SeqCst), 0);
    }
}
