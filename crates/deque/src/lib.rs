//! A lock-free Chase–Lev work-stealing deque and the injection queues.
//!
//! Standard work-stealing (Section 2 of the paper) keeps per-thread,
//! double-ended queues with the operations `pushBottom`, `popBottom`,
//! `popTop` (steal) and `isEmpty`, implemented lock-/wait-free following
//! Arora–Blumofe–Plaxton / Chase–Lev.  The team-building scheduler reuses the
//! same queues — one per size class (Refinement 1) — so this crate is the
//! storage substrate for both the classic and the mixed-mode scheduler.
//!
//! [`RawDeque`] is that deque (Chase and Lev, *Dynamic Circular
//! Work-Stealing Deque*, SPAA 2005) over `usize`-sized words: the scheduler
//! stores task-node pointers in it and owns what they point to.  Slots are
//! `AtomicUsize`, which makes the racy read in `steal_top` well defined (no
//! torn reads) without an `unsafe` data race.  The paper's `popappend` — a
//! thief moving up to half of a victim's tasks — is a loop of `steal_top`
//! calls in the scheduler's `transfer_steal`.
//!
//! The crate also provides [`Injector`], a lock-free unbounded MPMC FIFO the
//! scheduler uses as its external root-task injection queue (see the
//! [`injector`] module docs for the design), and [`ShardedInjector`], the
//! per-locality-domain sharding of it the scheduler actually deploys (see
//! the [`sharded`] module docs).
//!
//! # Ownership protocol
//!
//! A deque is shared between its **owner** (the worker whose queue it is) and
//! arbitrarily many **thieves**.  `push_bottom` and `pop_bottom` must only be
//! called by the owner; `steal_top`, `len` and `is_empty` may be called by
//! anyone.  The owner-only rule is the caller's contract, which the deque
//! does not check; the scheduler upholds it (each worker only pushes to and
//! pops from its own queues).
//!
//! # Memory management
//!
//! A thief may hold a stale buffer pointer while the owner grows the deque,
//! so retired growth buffers cannot be freed immediately.  Growth always
//! defers the old buffer into a [`teamsteal_util::epoch::Domain`], which
//! frees it once every registered participant has passed a quiescent point.
//! The scheduler passes its own domain ([`RawDeque::in_domain`]), so a
//! long-lived scheduler does not retain every buffer it ever grew through;
//! the safety argument shares DESIGN.md §11 with the injection queue.  A
//! standalone deque ([`RawDeque::new`]) retires into a private domain that
//! nothing collects, so its buffers live until the deque drops (bounded by
//! twice the queue's high-water mark) and its callers need not pin.
//!
//! The [`Injector`]'s consumed segments follow the same scheme (see the
//! [`injector`] module docs).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicIsize, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

use teamsteal_util::epoch::{Deferred, Domain, ReclaimClass};

pub mod injector;
pub mod sharded;

pub use injector::Injector;
pub use sharded::ShardedInjector;

/// Result of a steal attempt (`popTop`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// A value was stolen.
    Stolen(T),
    /// The deque was observed empty.
    Empty,
    /// The steal lost a race (with the owner or another thief); retrying may
    /// succeed.
    Retry,
}

impl<T> Steal<T> {
    /// Returns the stolen value, if any.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Stolen(v) => Some(v),
            _ => None,
        }
    }

    /// `true` if the deque was observed empty.
    pub fn is_empty(&self) -> bool {
        matches!(self, Steal::Empty)
    }
}

const MIN_CAPACITY: usize = 32;

struct Buffer {
    slots: Box<[AtomicUsize]>,
    capacity: usize,
}

impl Buffer {
    fn new(capacity: usize) -> Box<Buffer> {
        let slots = (0..capacity).map(|_| AtomicUsize::new(0)).collect();
        Box::new(Buffer { slots, capacity })
    }

    #[inline]
    fn read(&self, index: isize) -> usize {
        self.slots[index as usize & (self.capacity - 1)].load(Ordering::Relaxed)
    }

    #[inline]
    fn write(&self, index: isize, value: usize) {
        self.slots[index as usize & (self.capacity - 1)].store(value, Ordering::Relaxed);
    }
}

/// The lock-free Chase–Lev deque over word-sized values.
pub struct RawDeque {
    top: AtomicIsize,
    bottom: AtomicIsize,
    buffer: AtomicPtr<Buffer>,
    /// Epoch domain retired buffers are deferred into.
    domain: Arc<Domain>,
}

// SAFETY: all shared mutable state is accessed through atomics; buffer
// contents are plain words, and what they point to (if anything) is owned
// by the caller, not the deque.
unsafe impl Send for RawDeque {}
unsafe impl Sync for RawDeque {}

impl Default for RawDeque {
    fn default() -> Self {
        Self::new()
    }
}

impl RawDeque {
    /// Creates an empty deque with a **private** epoch domain.
    ///
    /// Nothing ever collects a private domain, so retired growth buffers are
    /// retained until drop and thieves need not pin — appropriate for tests
    /// and standalone use.  The scheduler's bounded footprint comes from
    /// [`RawDeque::in_domain`].
    pub fn new() -> Self {
        // SAFETY: the private domain is never exposed, so no collector
        // exists and unpinned access can never observe freed memory.
        unsafe { Self::in_domain(Domain::new(1)) }
    }

    /// Creates an empty deque whose retired growth buffers are reclaimed
    /// through `domain`.
    ///
    /// # Safety
    ///
    /// For as long as `domain` can be collected
    /// ([`teamsteal_util::epoch::Domain::try_collect`]), every thread
    /// calling [`steal_top`](Self::steal_top) must do so while pinned to a
    /// registered participant of that same domain, and must treat the
    /// buffer pointer as dead across a repin.  The owner's
    /// `push_bottom`/`pop_bottom` are exempt: the owner only ever
    /// dereferences the *current* buffer, which is never deferred.
    pub unsafe fn in_domain(domain: Arc<Domain>) -> Self {
        RawDeque {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buffer: AtomicPtr::new(Box::into_raw(Buffer::new(MIN_CAPACITY))),
            domain,
        }
    }

    /// Number of elements currently in the deque.  Like the paper's
    /// `Q.size()`, the value is a snapshot and may be stale by the time the
    /// caller acts on it.
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Acquire);
        let t = self.top.load(Ordering::Acquire);
        (b - t).max(0) as usize
    }

    /// `true` if the deque was observed empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes a value at the bottom.  **Owner only.**
    pub fn push_bottom(&self, value: usize) {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        let buf_ptr = self.buffer.load(Ordering::Relaxed);
        // SAFETY: only the owner mutates the buffer pointer; loading it on the
        // owner thread is always current.
        let mut buf = unsafe { &*buf_ptr };
        if b - t >= buf.capacity as isize {
            buf = self.grow(buf_ptr, t, b);
        }
        buf.write(b, value);
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Pops a value from the bottom.  **Owner only.**
    pub fn pop_bottom(&self) -> Option<usize> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        // SAFETY: owner thread; see push_bottom.
        let buf = unsafe { &*self.buffer.load(Ordering::Relaxed) };
        self.bottom.store(b, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t <= b {
            let value = buf.read(b);
            if t == b {
                // Last element: race against thieves for it.
                let won = self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b + 1, Ordering::Relaxed);
                if won {
                    Some(value)
                } else {
                    None
                }
            } else {
                Some(value)
            }
        } else {
            // Deque was empty.
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Attempts to steal a value from the top (the paper's `popTop`).  Safe to
    /// call from any thread.
    pub fn steal_top(&self) -> Steal<usize> {
        let t = self.top.load(Ordering::Acquire);
        std::sync::atomic::fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        // SAFETY: a stale buffer pointer remains readable — retired buffers
        // are freed only after this (pinned, per the `in_domain` contract)
        // thief's next quiescent point, and never while the domain is
        // private.  The value is only trusted if the CAS on `top`
        // succeeds, and the owner never overwrites live slots in a retired
        // buffer (growth copies them to the new buffer first).
        let buf = unsafe { &*self.buffer.load(Ordering::Acquire) };
        let value = buf.read(t);
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Stolen(value)
        } else {
            Steal::Retry
        }
    }

    fn grow(&self, old_ptr: *mut Buffer, top: isize, bottom: isize) -> &Buffer {
        // SAFETY: owner thread; the current buffer is live.
        let old = unsafe { &*old_ptr };
        let new = Buffer::new(old.capacity * 2);
        for i in top..bottom {
            new.write(i, old.read(i));
        }
        let new_ptr = Box::into_raw(new);
        self.buffer.store(new_ptr, Ordering::Release);
        // Retire the old buffer: thieves may still read it through a stale
        // pointer, but the owner never writes live slots into a retired
        // buffer again (the live range was copied to the new one above).
        // SAFETY: the buffer is unlinked (the `buffer` pointer moved on
        // above, Release-ordered before this defer's epoch read), this
        // retire path runs once per buffer, and pinned thieves are exactly
        // what the deferred free waits out (`in_domain` contract).
        self.domain
            .defer(unsafe { Deferred::from_box(old_ptr, ReclaimClass::Buffer) });
        // SAFETY: the pointer was just created; it is freed at drop time.
        unsafe { &*new_ptr }
    }
}

impl Drop for RawDeque {
    fn drop(&mut self) {
        // SAFETY: the current buffer is owned by the deque and freed only
        // here; deferred buffers belong to the domain instead.
        drop(unsafe { Box::from_raw(*self.buffer.get_mut()) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;

    #[test]
    fn lifo_for_owner() {
        let q = RawDeque::new();
        assert!(q.is_empty());
        for i in 0..10 {
            q.push_bottom(i);
        }
        assert_eq!(q.len(), 10);
        for i in (0..10).rev() {
            assert_eq!(q.pop_bottom(), Some(i));
        }
        assert_eq!(q.pop_bottom(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_for_thieves() {
        let q = RawDeque::new();
        for i in 0..10 {
            q.push_bottom(i);
        }
        for i in 0..10 {
            assert_eq!(q.steal_top().success(), Some(i));
        }
        assert!(q.steal_top().is_empty());
    }

    #[test]
    fn growth_preserves_contents() {
        let q = RawDeque::new();
        let n = 10_000;
        for i in 0..n {
            q.push_bottom(i);
        }
        assert_eq!(q.len(), n);
        // Every doubling retired its old buffer into the private domain.
        let doublings = (n.next_power_of_two() / MIN_CAPACITY).trailing_zeros() as usize;
        assert_eq!(q.domain.pending(), doublings);
        let mut out = Vec::new();
        while let Some(v) = q.pop_bottom() {
            out.push(v);
        }
        out.reverse();
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn growth_with_domain_defers_and_reclaims_old_buffers() {
        use teamsteal_util::epoch::Domain;

        let domain = Domain::new(1);
        let me = domain.register().expect("slot");
        // SAFETY: single-threaded test; the only (owner) accessor needs no
        // pin and there are no thieves.
        let q = unsafe { RawDeque::in_domain(Arc::clone(&domain)) };
        me.pin();
        for i in 0..10 * MIN_CAPACITY {
            q.push_bottom(i);
        }
        // Several doublings happened; all old buffers went to the domain.
        assert!(domain.pending() >= 3, "pending: {}", domain.pending());
        me.pin();
        domain.try_collect();
        me.pin();
        domain.try_collect();
        let (_, freed_buffers, _) = domain.totals();
        assert!(freed_buffers >= 3, "freed: {freed_buffers}");
        // Contents survive the reclamation churn.
        for i in (0..10 * MIN_CAPACITY).rev() {
            assert_eq!(q.pop_bottom(), Some(i));
        }
    }

    #[test]
    fn concurrent_steals_deliver_every_element_once() {
        const N: usize = 20_000;
        const THIEVES: usize = 4;
        let q = Arc::new(RawDeque::new());
        let seen = Arc::new((0..N).map(|_| StdAtomicUsize::new(0)).collect::<Vec<_>>());

        // Owner pushes and occasionally pops; thieves steal concurrently.
        // The pushes outgrow the initial buffer many times over, so thieves
        // also read buffers that growth has already retired into the
        // private domain.
        let handles: Vec<_> = (0..THIEVES)
            .map(|_| {
                let q = Arc::clone(&q);
                let seen = Arc::clone(&seen);
                std::thread::spawn(move || {
                    let mut count = 0usize;
                    let mut idle = 0;
                    loop {
                        match q.steal_top() {
                            Steal::Stolen(v) => {
                                seen[v].fetch_add(1, Ordering::SeqCst);
                                count += 1;
                                idle = 0;
                            }
                            Steal::Empty => {
                                idle += 1;
                                if idle > 10_000 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                            Steal::Retry => {}
                        }
                    }
                    count
                })
            })
            .collect();

        let mut owner_popped = 0usize;
        for i in 0..N {
            q.push_bottom(i);
            if i % 7 == 0 {
                if let Some(v) = q.pop_bottom() {
                    seen[v].fetch_add(1, Ordering::SeqCst);
                    owner_popped += 1;
                }
            }
        }
        // Drain the rest as the owner.
        while let Some(v) = q.pop_bottom() {
            seen[v].fetch_add(1, Ordering::SeqCst);
            owner_popped += 1;
        }
        let stolen: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(owner_popped + stolen, N, "every element delivered");
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(
                s.load(Ordering::SeqCst),
                1,
                "element {i} delivered exactly once"
            );
        }
    }

    #[test]
    fn owner_and_single_thief_race_on_last_element() {
        // Repeatedly race pop_bottom and steal_top over a single element; the
        // element must go to exactly one side.
        for _ in 0..2_000 {
            let q = Arc::new(RawDeque::new());
            q.push_bottom(7);
            let thief = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || loop {
                    match q.steal_top() {
                        Steal::Retry => std::hint::spin_loop(),
                        other => return other.success(),
                    }
                })
            };
            let owner = q.pop_bottom();
            let stolen = thief.join().unwrap();
            match (owner, stolen) {
                (Some(7), None) | (None, Some(7)) => {}
                other => panic!("element duplicated or lost: {other:?}"),
            }
        }
    }
}
