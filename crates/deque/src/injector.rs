//! A lock-free, unbounded MPMC injection queue.
//!
//! `Scheduler::scope` submits root tasks from *outside* the worker pool, and
//! every idle worker polls for them.  The original implementation used a
//! `Mutex<VecDeque>`, which serialized all submitters and all idle workers on
//! one lock — and put a lock acquisition on the stall-reporting diagnostic
//! path.  [`Injector`] replaces it with a segment-chained
//! Michael–Scott-style FIFO:
//!
//! * **push** (any thread): one `fetch_add` reserves a global slot index, the
//!   producer writes the value into its segment and flips the slot's state to
//!   *written* with a release store.  Producers never block each other; a new
//!   segment is allocated (and linked in with a CAS) once per
//!   [`SEGMENT_SLOTS`] pushes.
//! * **pop** (any thread): read the head index, check that the slots'
//!   producers have finished writing, then claim the whole run of written
//!   slots — up to a caller's bound and never past the segment's end — with
//!   one CAS ([`Injector::try_pop_batch`]; [`Injector::try_pop`] is the
//!   claim of one).  A consumer never waits on a slow producer — it returns
//!   [`Steal::Retry`] instead of spinning, so an idle worker just goes back
//!   to stealing.
//!
//! # Memory reclamation
//!
//! Consumed segments are **reclaimed through an epoch domain**
//! ([`teamsteal_util::epoch`]): the consumer that takes the last slot of a
//! segment claims the exhausted prefix of the chain by advancing the head
//! hint with one CAS (the winner is unique, so each segment is retired
//! exactly once) and hands the unlinked segments to
//! [`Domain::defer`](teamsteal_util::epoch::Domain::defer).  They are freed
//! once every registered participant has passed a quiescent point — so a
//! racing reader holding a stale segment pointer can never touch freed
//! memory, while the retained footprint stays bounded by the *live* queue
//! plus the (small) not-yet-collected deferral window instead of growing
//! with lifetime-total traffic.  The safety argument is written up in
//! DESIGN.md §11; [`Injector::live_segments`] exposes the retained count.
//!
//! An [`Injector::new`] without an explicit domain creates a private one
//! that nobody collects, which degrades to the old leak-until-drop behavior
//! and keeps unpinned standalone use sound; the scheduler constructs its
//! injector with [`Injector::in_domain`] and upholds the pinning contract
//! documented there.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::Arc;
use teamsteal_util::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use teamsteal_util::epoch::{Deferred, Domain, ReclaimClass};
use teamsteal_util::CachePadded;

use crate::Steal;

/// Slots per segment.  Power of two so index→offset is a mask.
///
/// Under `cfg(teamsteal_model)` the segment shrinks to 2 slots so that
/// exhaustive model tests can cross a segment boundary (and exercise the
/// retire-exactly-once protocol) in a handful of operations instead of 64.
#[cfg(not(teamsteal_model))]
pub const SEGMENT_SLOTS: usize = 64;
/// Slots per segment (model build: tiny segments, see above).
#[cfg(teamsteal_model)]
pub const SEGMENT_SLOTS: usize = 2;

/// Slot is empty (reserved, producer still writing).
const EMPTY: usize = 0;
/// Slot holds a value.
const WRITTEN: usize = 1;

struct Slot<T> {
    state: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

struct Segment<T> {
    /// Global index of the first slot of this segment.
    start: usize,
    slots: Box<[Slot<T>]>,
    next: AtomicPtr<Segment<T>>,
}

impl<T> Segment<T> {
    fn new(start: usize) -> *mut Segment<T> {
        Box::into_raw(Box::new(Segment {
            start,
            slots: (0..SEGMENT_SLOTS)
                .map(|_| Slot {
                    state: AtomicUsize::new(EMPTY),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }))
    }

    #[inline]
    fn slot(&self, index: usize) -> &Slot<T> {
        debug_assert!(index >= self.start && index < self.start + SEGMENT_SLOTS);
        &self.slots[index & (SEGMENT_SLOTS - 1)]
    }
}

/// An unbounded lock-free multi-producer multi-consumer FIFO queue.
///
/// See the [module docs](self) for the design; the scheduler uses it as the
/// external root-task injection queue.
pub struct Injector<T> {
    /// Next index to consume.  `head <= tail` always.  `head` and `tail`
    /// sit on separate cache lines, so a submitter's `fetch_add` on `tail`
    /// does not invalidate the line a consumer CASes, and neighbouring
    /// shards of a `ShardedInjector` share no line either.
    head: CachePadded<AtomicUsize>,
    /// Next index to produce (indices below `tail` are reserved).
    tail: CachePadded<AtomicUsize>,
    /// A segment at or before the one containing `head`, **and** the
    /// reclamation frontier: every segment before it has been retired
    /// (deferred into the epoch domain), so the live chain starts here.
    head_seg: AtomicPtr<Segment<T>>,
    /// Hint: a segment at or before the one containing `tail` (never behind
    /// `head_seg`; the retire path fixes it up before deferring).
    tail_seg: AtomicPtr<Segment<T>>,
    /// Epoch domain consumed segments are deferred into.
    domain: Arc<Domain>,
    /// Segments linked into the chain over the injector's lifetime.
    segs_linked: AtomicUsize,
    /// Segments retired (unlinked and deferred) over the lifetime.
    segs_retired: AtomicUsize,
}

// SAFETY: all shared state is accessed through atomics; values are moved in
// and out under the slot-state / index-claim protocol below.
unsafe impl<T: Send> Send for Injector<T> {}
unsafe impl<T: Send> Sync for Injector<T> {}

impl<T: Send> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> Injector<T> {
    /// Creates an empty injector with a **private** epoch domain.
    ///
    /// Nothing ever collects a private domain, so consumed segments are
    /// retained until drop (the pre-reclamation behavior) and callers need
    /// not pin — appropriate for tests and standalone use.  Scheduler-grade
    /// bounded memory comes from [`Injector::in_domain`].
    pub fn new() -> Self {
        // SAFETY: the private domain is never exposed, so no collector
        // exists and unpinned access can never observe freed memory.
        unsafe { Self::in_domain(Domain::new(1)) }
    }

    /// Creates an empty injector whose consumed segments are deferred into
    /// `domain` (allocates the first segment).
    ///
    /// # Safety
    ///
    /// For as long as `domain` can be collected
    /// ([`Domain::try_collect`]), every thread calling [`push`](Self::push),
    /// [`try_pop_batch`](Self::try_pop_batch), [`try_pop`](Self::try_pop)
    /// or [`pop`](Self::pop) must do so while
    /// pinned to a registered participant of that same domain
    /// ([`teamsteal_util::epoch::Participant::pin`]), and must treat any
    /// segment pointer as dead across a repin.  `len`/`is_empty` and
    /// `live_segments` read only top-level atomics and are exempt.
    pub unsafe fn in_domain(domain: Arc<Domain>) -> Self {
        let first = Segment::new(0);
        Injector {
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            head_seg: AtomicPtr::new(first),
            tail_seg: AtomicPtr::new(first),
            domain,
            segs_linked: AtomicUsize::new(1),
            segs_retired: AtomicUsize::new(0),
        }
    }

    /// Number of segments currently linked (live chain; already-deferred
    /// ones are excluded): the injector's *chain* footprint in units of
    /// `SEGMENT_SLOTS` slots.  Bounded by the live queue length plus a
    /// small constant in every configuration — consumed segments leave the
    /// chain at retire time.  In the private-domain (`new()`) configuration
    /// the memory still accumulates, but in the domain's deferral bags:
    /// watch [`Domain::pending`] for that, not this gauge.
    pub fn live_segments(&self) -> usize {
        self.segs_linked
            .load(Ordering::Relaxed)
            .saturating_sub(self.segs_retired.load(Ordering::Relaxed))
    }

    /// Snapshot of the number of queued elements.  Like the deque's `len`,
    /// the value may be stale by the time the caller acts on it.  Lock-free:
    /// safe to call from diagnostic paths (stall reports).
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }

    /// `true` if the queue was observed empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finds the segment containing `index`, walking (and extending) the
    /// chain from `from`.  `index` must be a reserved slot index and `from`
    /// must start at or before it.
    fn segment_for(
        &self,
        mut from: *mut Segment<T>,
        index: usize,
        extend: bool,
    ) -> Option<*mut Segment<T>> {
        loop {
            // SAFETY: `from` was reachable from a hint while we are pinned
            // (the `in_domain` contract), so even if it has since been
            // retired it cannot be freed before our next quiescent point.
            let seg = unsafe { &*from };
            debug_assert!(seg.start <= index);
            if index < seg.start + SEGMENT_SLOTS {
                return Some(from);
            }
            let next = seg.next.load(Ordering::Acquire);
            if !next.is_null() {
                from = next;
                continue;
            }
            if !extend {
                // The producer that reserved `index` has not linked the
                // segment yet; the caller treats this as transient.
                return None;
            }
            let candidate = Segment::new(seg.start + SEGMENT_SLOTS);
            match seg.next.compare_exchange(
                std::ptr::null_mut(),
                candidate,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.segs_linked.fetch_add(1, Ordering::Relaxed);
                    from = candidate;
                }
                Err(winner) => {
                    // SAFETY: the candidate was never published.
                    drop(unsafe { Box::from_raw(candidate) });
                    from = winner;
                }
            }
        }
    }

    /// Advances a segment hint pointer to `to` if it still lags behind.
    fn advance_hint(hint: &AtomicPtr<Segment<T>>, current: *mut Segment<T>, to: *mut Segment<T>) {
        // Best effort: a failed CAS means someone else advanced it further.
        let _ = hint.compare_exchange(current, to, Ordering::AcqRel, Ordering::Relaxed);
    }

    /// Enqueues a value.  Safe to call from any thread; never blocks on
    /// other producers or consumers (segment allocation aside, the push is a
    /// `fetch_add` plus a release store).
    ///
    /// Returns `true` when the queue was **observed empty** at this push:
    /// the consumer index had caught up with (or passed) every slot reserved
    /// before ours, i.e. there was an instant during the push at which no
    /// earlier element remained queued.  This is the wake hint the
    /// scheduler's sleep controller needs — a push into an observed-empty
    /// queue means no consumer is guaranteed to be draining, so a sleeper
    /// should be woken.  The hint is one-sided: `false` reliably means the
    /// queue held at least one other in-flight element at the observation
    /// instant, while a `true` may be missed (the load races with concurrent
    /// pops) — callers must treat it as "wake needed", never as "skip
    /// bookkeeping".
    pub fn push(&self, value: T) -> bool {
        let index = self.tail.fetch_add(1, Ordering::AcqRel);
        // Observed-empty hint: `head >= index` means every slot reserved
        // before ours is already claimed by a consumer, so at the moment of
        // this load the queue contained no other element.  Loaded right
        // after the reservation so the hint describes *this* push's instant.
        let observed_empty = self.head.load(Ordering::Acquire) >= index;
        let mut hint = self.tail_seg.load(Ordering::Acquire);
        // SAFETY: a hint pointer loaded while pinned (the `in_domain`
        // contract) stays dereferenceable until our next quiescent point,
        // even if the segment is concurrently retired.  Faster producers may
        // have advanced the tail hint *past* our slot; fall back to the head
        // hint, which cannot pass an unwritten slot (consumers stop at it),
        // so it starts at or before `index`.
        if unsafe { &*hint }.start > index {
            hint = self.head_seg.load(Ordering::Acquire);
        }
        let seg_ptr = self
            .segment_for(hint, index, true)
            .expect("extend=true always finds the segment");
        if seg_ptr != hint {
            Self::advance_hint(&self.tail_seg, hint, seg_ptr);
        }
        // SAFETY: see the hint-load comment above; our slot's segment cannot
        // be retired before the slot is consumed, which requires the WRITTEN
        // store below.
        let seg = unsafe { &*seg_ptr };
        let slot = seg.slot(index);
        debug_assert_eq!(slot.state.load(Ordering::Relaxed), EMPTY);
        // SAFETY: the fetch_add above gave us exclusive ownership of this
        // slot until we flip its state.
        unsafe { (*slot.value.get()).write(value) };
        // Release: consumers that acquire-observe WRITTEN see the value.
        slot.state.store(WRITTEN, Ordering::Release);
        observed_empty
    }

    /// Attempts to dequeue the oldest element.  Safe to call from any
    /// thread.
    ///
    /// [`Steal::Retry`] means the queue is non-empty but the head element's
    /// producer has not finished writing (or another consumer got in the
    /// way); the caller may retry immediately or come back later.
    pub fn try_pop(&self) -> Steal<T> {
        let mut out = None;
        match self.try_pop_batch(1, |value| out = Some(value)) {
            Steal::Stolen(_) => Steal::Stolen(out.expect("a claim of one hands out one value")),
            Steal::Empty => Steal::Empty,
            Steal::Retry => Steal::Retry,
        }
    }

    /// Claims up to `max` of the oldest elements with one `head` CAS and
    /// hands them to `sink` oldest first; returns how many were claimed.
    /// The claim is the run of *written* slots in
    /// `[head, min(tail, head + max, end of head's segment))`, so it stops
    /// at the first slot whose producer has not finished and never crosses
    /// a segment.  Safe to call from any thread.
    ///
    /// [`Steal::Retry`] has the meaning it has for
    /// [`try_pop`](Self::try_pop).  Should `sink` panic, the values not yet
    /// handed out are leaked, never dropped twice.
    ///
    /// # Panics
    ///
    /// Panics if `max == 0`.
    pub fn try_pop_batch(&self, max: usize, mut sink: impl FnMut(T)) -> Steal<usize> {
        assert!(max > 0, "a claim takes at least one element");
        loop {
            let head = self.head.load(Ordering::Acquire);
            let tail = self.tail.load(Ordering::Acquire);
            if head >= tail {
                return Steal::Empty;
            }
            let hint = self.head_seg.load(Ordering::Acquire);
            // SAFETY: loaded while pinned (`in_domain` contract), so the
            // segment outlives this call even if retired concurrently.  If
            // the hint has already moved past our (stale) `head`, other
            // consumers advanced the queue under us — re-read everything.
            if unsafe { &*hint }.start > head {
                continue;
            }
            // `head < tail` means slot `head` was reserved — though its
            // segment may not be linked in yet.
            let Some(seg_ptr) = self.segment_for(hint, head, false) else {
                return Steal::Retry;
            };
            if seg_ptr != hint {
                // The hint lags behind the segment containing `head`: every
                // segment strictly before `seg_ptr` holds only indices below
                // `head` and is therefore fully consumed.  Advance the hint
                // and retire the range (the CAS winner does it exactly
                // once).  This also covers the boundary case where a
                // segment's last slot was consumed before its successor was
                // linked: the next pop retires it here.
                self.advance_head_and_retire(hint, seg_ptr);
            }
            let seg = unsafe { &*seg_ptr };
            let seg_end = seg.start + SEGMENT_SLOTS;
            let limit = tail.min(head.saturating_add(max)).min(seg_end);
            // The contiguous run of written slots from `head`: a reserved
            // but unwritten slot ends it, so no claim waits on a producer.
            let mut end = head;
            while end < limit && seg.slot(end).state.load(Ordering::Acquire) == WRITTEN {
                end += 1;
            }
            if end == head {
                return Steal::Retry;
            }
            if self
                .head
                .compare_exchange(head, end, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                // Another consumer claimed some of these indices; start over.
                continue;
            }
            // We own indices `head..end` exclusively now (`head` only moves
            // forward, so the CAS from `head` means nobody claimed any of
            // them), and we observed each one WRITTEN with Acquire first.
            for index in head..end {
                // SAFETY: exactly one consumer claims each index.
                sink(unsafe { (*seg.slot(index).value.get()).assume_init_read() });
            }
            if end == seg_end {
                // We consumed the last slot of this segment: if its
                // successor is already linked, advance the head hint past it
                // and retire it eagerly (otherwise the lag-detection above
                // retires it on the next pop).
                let next = seg.next.load(Ordering::Acquire);
                if !next.is_null() {
                    self.advance_head_and_retire(seg_ptr, next);
                }
            }
            return Steal::Stolen(end - head);
        }
    }

    /// Advances `head_seg` from `from` to `to` and, on winning that CAS,
    /// retires every segment in `[from, to)` into the epoch domain.
    ///
    /// Exactly-once: successful CASes on `head_seg` form a chain of strictly
    /// forward, contiguous hops (the next winner's `from` is this winner's
    /// `to`), so the half-open ranges they claim are disjoint and cover each
    /// segment once.  Every slot of the range is below `head` and therefore
    /// consumed; racing readers still walking those segments are pinned and
    /// protected by the deferred free (DESIGN.md §11).
    fn advance_head_and_retire(&self, from: *mut Segment<T>, to: *mut Segment<T>) {
        if self
            .head_seg
            .compare_exchange(from, to, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            // Another consumer advanced past `from`; that winner owns the
            // retirement of the range.
            return;
        }
        // SAFETY: `to` is reachable from the chain we are pinned against.
        let to_start = unsafe { &*to }.start;
        // Unlink the range from the *tail* hint too before deferring: a new
        // producer must never be handed a pointer into memory that may be
        // freed after its pin.  `tail >= head > every index of [from, to)`,
        // so `to` is a valid (at-or-before-tail) hint value.
        loop {
            let t = self.tail_seg.load(Ordering::Acquire);
            // SAFETY: `t` was reachable via a hint while pinned.
            if unsafe { &*t }.start >= to_start {
                break;
            }
            if self
                .tail_seg
                .compare_exchange(t, to, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        let mut cur = from;
        while cur != to {
            // SAFETY: `cur` is in our exclusively claimed range; the link
            // was written before the segment was linked in.
            let next = unsafe { &*cur }.next.load(Ordering::Acquire);
            self.segs_retired.fetch_add(1, Ordering::Relaxed);
            // SAFETY: the range is unlinked from both hints (no new reader
            // can reach it) and claimed exactly once; the segment came from
            // `Segment::new`'s `Box::into_raw` and all its slots are
            // consumed, so dropping the box frees no live value.
            self.domain
                .defer(unsafe { Deferred::from_box(cur, ReclaimClass::Segment) });
            cur = next;
        }
    }

    /// Dequeues the oldest element, retrying through transient
    /// [`Steal::Retry`] results a bounded number of times.
    pub fn pop(&self) -> Option<T> {
        let mut out = None;
        self.pop_batch(1, |value| out = Some(value));
        out
    }

    /// [`try_pop_batch`](Self::try_pop_batch), retrying through transient
    /// [`Steal::Retry`] results a bounded number of times; returns how many
    /// elements `sink` received (0 when the queue stayed empty or busy).
    pub(crate) fn pop_batch(&self, max: usize, mut sink: impl FnMut(T)) -> usize {
        let mut retries = 0;
        loop {
            match self.try_pop_batch(max, &mut sink) {
                Steal::Stolen(n) => return n,
                Steal::Empty => return 0,
                Steal::Retry => {
                    retries += 1;
                    if retries > 32 {
                        return 0;
                    }
                    std::hint::spin_loop();
                }
            }
        }
    }
}

impl<T> Drop for Injector<T> {
    fn drop(&mut self) {
        // `&mut self`: no concurrent producers or consumers.  Drop the
        // values still in [head, tail), then free the live segment chain —
        // it starts at `head_seg`, because everything before it was already
        // retired into the epoch domain (which frees it on its own drop).
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let mut seg_ptr = *self.head_seg.get_mut();
        while !seg_ptr.is_null() {
            // SAFETY: the chain is only freed here, exactly once.
            let seg = unsafe { Box::from_raw(seg_ptr) };
            for index in seg.start..seg.start + SEGMENT_SLOTS {
                if index >= head
                    && index < tail
                    && seg.slot(index).state.load(Ordering::Relaxed) == WRITTEN
                {
                    // SAFETY: unclaimed, fully written slot; dropped once.
                    unsafe { (*seg.slot(index).value.get()).assume_init_drop() };
                }
            }
            seg_ptr = seg.next.load(Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;

    #[test]
    fn fifo_single_threaded() {
        let q: Injector<u32> = Injector::new();
        assert!(q.is_empty());
        assert!(matches!(q.try_pop(), Steal::Empty));
        for i in 0..200 {
            q.push(i);
        }
        assert_eq!(q.len(), 200);
        for i in 0..200 {
            assert_eq!(q.pop(), Some(i), "strict FIFO order");
        }
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    /// Claims one batch into a `Vec` (`None` for `Empty`/`Retry`).
    fn batch<T: Send>(q: &Injector<T>, max: usize) -> Option<Vec<T>> {
        let mut got = Vec::new();
        match q.try_pop_batch(max, |v| got.push(v)) {
            Steal::Stolen(n) => {
                assert_eq!(n, got.len(), "the count matches what the sink received");
                Some(got)
            }
            Steal::Empty | Steal::Retry => None,
        }
    }

    #[test]
    fn batch_is_fifo_and_bounded_by_max() {
        let q: Injector<usize> = Injector::new();
        for i in 0..10 {
            q.push(i);
        }
        assert_eq!(batch(&q, 4), Some(vec![0, 1, 2, 3]));
        assert_eq!(batch(&q, 1), Some(vec![4]));
        // A bound above the queue length takes what is there.
        assert_eq!(batch(&q, 100), Some(vec![5, 6, 7, 8, 9]));
        assert!(q.is_empty());
    }

    #[test]
    fn batch_stops_at_the_segment_end() {
        let q: Injector<usize> = Injector::new();
        let n = SEGMENT_SLOTS + 5;
        for i in 0..n {
            q.push(i);
        }
        assert_eq!(batch(&q, 3), Some(vec![0, 1, 2]));
        // The rest of the first segment, not a slot past it.
        let first = batch(&q, usize::MAX).expect("first segment");
        assert_eq!(first, (3..SEGMENT_SLOTS).collect::<Vec<_>>());
        // Taking the segment's last slot retired it off the live chain.
        assert_eq!(q.live_segments(), 1);
        assert_eq!(batch(&q, usize::MAX), Some((SEGMENT_SLOTS..n).collect()));
        assert!(q.is_empty());
    }

    #[test]
    fn batch_from_an_empty_queue_claims_nothing() {
        let q: Injector<u32> = Injector::new();
        assert!(matches!(
            q.try_pop_batch(8, |_| panic!("nothing to hand out")),
            Steal::Empty
        ));
        q.push(1);
        assert_eq!(batch(&q, 8), Some(vec![1]));
        assert!(matches!(
            q.try_pop_batch(8, |_| panic!("nothing to hand out")),
            Steal::Empty
        ));
        assert!(q.push(2), "a drained queue observes empty again");
    }

    #[test]
    fn two_producers_and_two_batch_consumers_deliver_exactly_once() {
        const PRODUCERS: usize = 2;
        const PER_PRODUCER: usize = 20_000;
        let q: Arc<Injector<usize>> = Arc::new(Injector::new());
        let seen = Arc::new(
            (0..PRODUCERS * PER_PRODUCER)
                .map(|_| StdAtomicUsize::new(0))
                .collect::<Vec<_>>(),
        );
        let produced = Arc::new(StdAtomicUsize::new(0));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (q, produced) = (Arc::clone(&q), Arc::clone(&produced));
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(p * PER_PRODUCER + i);
                        produced.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = [3usize, 17]
            .into_iter()
            .map(|max| {
                let (q, seen, produced) =
                    (Arc::clone(&q), Arc::clone(&seen), Arc::clone(&produced));
                std::thread::spawn(move || {
                    let mut last = [None::<usize>; PRODUCERS];
                    let mut taken = 0usize;
                    loop {
                        let mut got = Vec::new();
                        match q.try_pop_batch(max, |v| got.push(v)) {
                            Steal::Stolen(n) => assert!(n <= max && n == got.len()),
                            Steal::Retry => continue,
                            Steal::Empty => {
                                if produced.load(Ordering::SeqCst) == PRODUCERS * PER_PRODUCER
                                    && q.is_empty()
                                {
                                    break;
                                }
                                std::thread::yield_now();
                                continue;
                            }
                        }
                        for v in got {
                            // Each consumer sees every producer's values in
                            // push order, across batches too.
                            let (p, i) = (v / PER_PRODUCER, v % PER_PRODUCER);
                            assert!(
                                last[p].map_or(true, |prev| i > prev),
                                "producer {p} reordered"
                            );
                            last[p] = Some(i);
                            seen[v].fetch_add(1, Ordering::SeqCst);
                            taken += 1;
                        }
                    }
                    taken
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        let taken: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(taken, PRODUCERS * PER_PRODUCER, "every element delivered");
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(
                s.load(Ordering::SeqCst),
                1,
                "element {i} delivered exactly once"
            );
        }
    }

    #[test]
    fn crosses_many_segment_boundaries() {
        let q: Injector<usize> = Injector::new();
        let n = 10 * SEGMENT_SLOTS + 7;
        for i in 0..n {
            q.push(i);
        }
        for i in 0..n {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn drop_releases_queued_elements() {
        static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
        struct Token;
        impl Drop for Token {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let q: Injector<Token> = Injector::new();
            for _ in 0..(SEGMENT_SLOTS + 9) {
                q.push(Token);
            }
            for _ in 0..5 {
                let _ = q.pop();
            }
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), SEGMENT_SLOTS + 9);
    }

    #[test]
    fn mpmc_delivers_every_element_exactly_once() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: usize = 20_000;
        let q: Arc<Injector<usize>> = Arc::new(Injector::new());
        let seen = Arc::new(
            (0..PRODUCERS * PER_PRODUCER)
                .map(|_| StdAtomicUsize::new(0))
                .collect::<Vec<_>>(),
        );

        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(p * PER_PRODUCER + i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                let seen = Arc::clone(&seen);
                std::thread::spawn(move || {
                    let mut taken = 0usize;
                    let mut idle = 0u32;
                    loop {
                        match q.try_pop() {
                            Steal::Stolen(v) => {
                                seen[v].fetch_add(1, Ordering::SeqCst);
                                taken += 1;
                                idle = 0;
                            }
                            Steal::Retry => {}
                            Steal::Empty => {
                                idle += 1;
                                if idle > 20_000 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    taken
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        let taken: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(taken, PRODUCERS * PER_PRODUCER, "every element delivered");
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(
                s.load(Ordering::SeqCst),
                1,
                "element {i} delivered exactly once"
            );
        }
        assert!(q.is_empty());
    }

    #[test]
    fn push_empty_hint_single_threaded() {
        let q: Injector<u32> = Injector::new();
        assert!(q.push(1), "first push into a fresh queue observes empty");
        assert!(!q.push(2), "second push sees element 1 still queued");
        assert!(!q.push(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert!(q.push(4), "push after a full drain observes empty again");
        assert_eq!(q.pop(), Some(4));
    }

    #[test]
    fn push_empty_hint_is_one_sided_under_mpmc() {
        // One-sided accuracy: a `false` hint guarantees the queue held
        // another in-flight element at the push.  With *no* consumer
        // running, only the very first reserved slot (index 0) can ever
        // observe `head >= index`, so across any number of concurrent
        // producers at most one push per drained-empty phase may hint true.
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 5_000;
        let q: Arc<Injector<usize>> = Arc::new(Injector::new());
        for phase in 0..3 {
            let true_hints: usize = (0..PRODUCERS)
                .map(|p| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        let mut trues = 0usize;
                        for i in 0..PER_PRODUCER {
                            if q.push(p * PER_PRODUCER + i) {
                                trues += 1;
                            }
                        }
                        trues
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|t| t.join().unwrap())
                .sum();
            assert!(
                true_hints <= 1,
                "phase {phase}: {true_hints} pushes claimed an empty queue \
                 while no consumer ran — the hint lied about emptiness"
            );
            // Drain for the next phase; the first push afterwards must be
            // able to observe emptiness again.
            let mut drained = 0;
            while q.pop().is_some() {
                drained += 1;
            }
            assert_eq!(drained, PRODUCERS * PER_PRODUCER);
            assert!(q.push(0), "post-drain push observes empty");
            assert_eq!(q.pop(), Some(0));
        }
    }

    #[test]
    fn private_domain_retains_consumed_segments_until_drop() {
        // `Injector::new()` has no collector: exhausted segments are
        // deferred but never freed, so unpinned access stays sound.
        let q: Injector<usize> = Injector::new();
        let n = 5 * SEGMENT_SLOTS;
        for i in 0..n {
            q.push(i);
        }
        for i in 0..n {
            assert_eq!(q.pop(), Some(i));
        }
        // All but the current segment were retired off the live chain.
        assert!(q.live_segments() <= 2, "live: {}", q.live_segments());
    }

    #[test]
    fn shared_domain_reclaims_consumed_segments() {
        use teamsteal_util::epoch::Domain;

        let domain = Domain::new(1);
        let me = domain.register().expect("slot");
        // SAFETY: the only accessor (this thread) pins around every call.
        let q: Injector<usize> = unsafe { Injector::in_domain(Arc::clone(&domain)) };
        let n = 20 * SEGMENT_SLOTS;
        me.pin();
        for i in 0..n {
            q.push(i);
        }
        for i in 0..n {
            assert_eq!(q.pop(), Some(i));
            if i % SEGMENT_SLOTS == 0 {
                me.pin(); // quiescent point between segments
                domain.try_collect();
            }
        }
        me.pin();
        domain.try_collect();
        me.pin();
        let final_collect = domain.try_collect();
        let (freed_segments, _, _) = domain.totals();
        assert!(
            freed_segments > 0,
            "epoch collection must actually free consumed segments \
             (freed {freed_segments}, last collect {final_collect:?})"
        );
        assert!(q.live_segments() <= 2, "live: {}", q.live_segments());
        assert!(
            domain.pending() <= 2 * SEGMENT_SLOTS,
            "deferral window stays small, got {}",
            domain.pending()
        );
    }

    #[test]
    fn pinned_mpmc_with_concurrent_collection_delivers_exactly_once() {
        use teamsteal_util::epoch::Domain;

        // The full protocol under contention: pinned producers and
        // consumers, with consumers collecting as they go.  Every element
        // delivered exactly once and no crash means no segment was freed
        // under a racing reader.
        const PRODUCERS: usize = 2;
        const CONSUMERS: usize = 2;
        const PER_PRODUCER: usize = 30_000;
        let domain = Domain::new(PRODUCERS + CONSUMERS);
        // SAFETY: every accessing thread below registers and pins.
        let q: Arc<Injector<usize>> = Arc::new(unsafe { Injector::in_domain(Arc::clone(&domain)) });
        let seen = Arc::new(
            (0..PRODUCERS * PER_PRODUCER)
                .map(|_| StdAtomicUsize::new(0))
                .collect::<Vec<_>>(),
        );

        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                let domain = Arc::clone(&domain);
                std::thread::spawn(move || {
                    let me = domain.register().expect("producer slot");
                    for i in 0..PER_PRODUCER {
                        me.pin();
                        q.push(p * PER_PRODUCER + i);
                    }
                    me.unpin();
                })
            })
            .collect();
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                let domain = Arc::clone(&domain);
                let seen = Arc::clone(&seen);
                std::thread::spawn(move || {
                    let me = domain.register().expect("consumer slot");
                    let mut taken = 0usize;
                    let mut idle = 0u32;
                    loop {
                        me.pin();
                        match q.try_pop() {
                            Steal::Stolen(v) => {
                                seen[v].fetch_add(1, Ordering::SeqCst);
                                taken += 1;
                                idle = 0;
                                if taken % 64 == 0 {
                                    me.pin(); // quiescent point
                                    domain.try_collect();
                                }
                            }
                            Steal::Retry => {}
                            Steal::Empty => {
                                idle += 1;
                                if idle > 20_000 {
                                    break;
                                }
                                me.unpin();
                                std::thread::yield_now();
                            }
                        }
                    }
                    me.unpin();
                    taken
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        let taken: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(taken, PRODUCERS * PER_PRODUCER, "every element delivered");
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(
                s.load(Ordering::SeqCst),
                1,
                "element {i} delivered exactly once"
            );
        }
        let (freed_segments, _, _) = domain.totals();
        assert!(freed_segments > 0, "concurrent run must reclaim segments");
        assert!(
            q.live_segments() < PRODUCERS * PER_PRODUCER / SEGMENT_SLOTS,
            "retained segments must not scale with lifetime traffic"
        );
    }

    #[test]
    fn per_producer_order_is_preserved() {
        // FIFO per producer: a consumer never sees producer p's element k
        // after its element k+1.
        const PER_PRODUCER: usize = 30_000;
        let q: Arc<Injector<(usize, usize)>> = Arc::new(Injector::new());
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push((p, i));
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut last = [None::<usize>; 2];
                let mut taken = 0;
                while taken < 2 * PER_PRODUCER {
                    if let Steal::Stolen((p, i)) = q.try_pop() {
                        if let Some(prev) = last[p] {
                            assert!(i > prev, "producer {p} reordered: {i} after {prev}");
                        }
                        last[p] = Some(i);
                        taken += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        for producer in producers {
            producer.join().unwrap();
        }
        consumer.join().unwrap();
    }
}
