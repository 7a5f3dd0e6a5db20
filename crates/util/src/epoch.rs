//! Epoch-based memory reclamation for the scheduler's lock-free queues.
//!
//! The lock-free structures of the scheduler (`teamsteal_deque::Injector`
//! segments, `RawDeque` growth buffers) let racing readers hold pointers to
//! memory that has logically left the structure.  Freeing that memory
//! immediately would be a use-after-free; keeping it forever (the seed's
//! "leaky" idiom) makes a long-lived server scheduler's footprint grow with
//! lifetime traffic.  This module provides the middle ground: **deferred
//! reclamation gated on a global epoch**, sized for the scheduler's fixed
//! worker set plus a small pool of registered external submitters.
//!
//! # Protocol
//!
//! A [`Domain`] owns a global epoch counter and a fixed-capacity array of
//! cache-padded participant slots.  Each thread that may read the protected
//! structures registers a [`Participant`] and, while it accesses them, keeps
//! itself **pinned** to the epoch it observed:
//!
//! * [`Participant::pin`] — (re)announce "I am reading, and the global epoch
//!   I have observed is `E`".  Workers call this once per scheduler-loop
//!   iteration.  When the epoch has moved it is one store plus one fence;
//!   when the participant already stands pinned at the current epoch it is
//!   two loads and nothing else (the same-epoch skip, DESIGN.md §11 row A).
//! * [`Participant::unpin`] — announce "I hold no protected pointers".
//!   Workers unpin before parking so sleepers never stall reclamation.
//! * [`Domain::defer`] — hand over ownership of an *already unlinked* object
//!   for deferred destruction.  The object is tagged with the global epoch
//!   current at the hand-over.
//! * [`Domain::try_collect`] — attempt to advance the global epoch (possible
//!   exactly when every pinned participant has observed the current epoch)
//!   and free every object deferred **two or more epochs ago**.  Workers
//!   call this at quiescent points (idle rounds, every few loop iterations).
//!
//! # Safety argument (DESIGN.md §11 carries the full ordering table)
//!
//! An object deferred at epoch `E` can only be referenced by threads that
//! loaded its pointer before it was unlinked, and every such thread was
//! pinned at epoch `E - 1`, `E`, or `E + 1` at that moment (the global epoch
//! moves at most once ahead of any pinned reader, because advancing requires
//! *every* pinned participant to have observed the current value).  Freeing
//! only once the global epoch has reached `E + 2` therefore means at least
//! one full advance has completed after every possible holder's pin — i.e.
//! each of them has since repinned (a quiescent point, after which it holds
//! no stale pointers) or unpinned.  Unregistered slots never block.
//!
//! Deferral itself takes a (cold-path) mutex: objects are retired once per
//! queue segment or per deque growth, not per task, so a lock there costs
//! nothing measurable while keeping the hot pin/unpin path lock-free.
//!
//! ```
//! use teamsteal_util::epoch::{Deferred, Domain, ReclaimClass};
//!
//! let domain = Domain::new(2);
//! let reader = domain.register().expect("capacity 2");
//!
//! reader.pin();
//! // ... the reader may now safely traverse the protected structure ...
//! let garbage = Box::into_raw(Box::new([0u8; 64]));
//! // SAFETY: `garbage` is unlinked (never published) and owned by us.
//! domain.defer(unsafe { Deferred::from_box(garbage, ReclaimClass::Segment) });
//!
//! // The reader still pins the retire epoch: nothing may be freed yet.
//! assert_eq!(domain.try_collect().freed_segments, 0);
//!
//! // One quiescent point later the epoch can advance past the garbage.
//! reader.pin(); // repin = quiescent point: stale pointers are dead now
//! let freed = domain.try_collect();
//! assert_eq!(freed.freed_segments, 1);
//! ```

use crate::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::Mutex;
use std::sync::Arc;

use crate::CachePadded;

/// What kind of object a [`Deferred`] frees.  The classes exist so the
/// scheduler can attribute reclamation to its metrics
/// (`segments_reclaimed` / `buffers_reclaimed`) without the domain knowing
/// about concrete queue types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimClass {
    /// A consumed injection-queue segment.
    Segment,
    /// A retired work-stealing-deque growth buffer.
    Buffer,
}

/// Ownership of one unlinked object awaiting destruction.
///
/// Type-erased so a single domain can hold garbage from differently typed
/// structures.  Constructed with [`Deferred::from_box`]; the domain runs the
/// stored free function exactly once — either from [`Domain::try_collect`]
/// when the epoch permits, or from the domain's `Drop`.
pub struct Deferred {
    data: *mut (),
    free: unsafe fn(*mut ()),
    class: ReclaimClass,
}

// SAFETY: the deferred object is owned exclusively by the domain from
// `defer` onwards (caller contract on `from_box`: the pointer is unlinked
// and the payload is `Send`), so its destruction may run on any thread.
unsafe impl Send for Deferred {}

impl Deferred {
    /// Takes ownership of `ptr` (a `Box::into_raw` pointer) for deferred
    /// destruction via `Box::from_raw`.
    ///
    /// # Safety
    ///
    /// `ptr` must have come from `Box::<T>::into_raw`, must not be freed or
    /// used again by the caller, and must already be **unlinked**: no new
    /// reader may be able to reach it through the shared structure (readers
    /// that obtained it earlier are exactly what the epoch protocol covers).
    pub unsafe fn from_box<T: Send>(ptr: *mut T, class: ReclaimClass) -> Deferred {
        unsafe fn free_box<T>(data: *mut ()) {
            // SAFETY: `data` was produced by `Box::<T>::into_raw` in
            // `from_box` and this function runs exactly once per `Deferred`.
            drop(unsafe { Box::from_raw(data.cast::<T>()) });
        }
        Deferred {
            data: ptr.cast(),
            free: free_box::<T>,
            class,
        }
    }

    /// Runs the stored destructor.  Consumes the deferred object.
    ///
    /// # Safety
    ///
    /// Only the domain calls this, once per object, after the epoch rule (or
    /// exclusive `&mut` access at drop time) guarantees no reader can still
    /// hold the pointer.
    unsafe fn run(self) {
        // SAFETY: forwarded contract.
        unsafe { (self.free)(self.data) };
    }
}

/// Bit 0 of a slot state: the participant is pinned.
const PINNED: u64 = 1;

/// One participant slot: `(epoch << 1) | pinned`, plus an occupancy flag so
/// the advance scan skips unregistered slots.
struct Slot {
    state: AtomicU64,
    occupied: AtomicBool,
}

/// Outcome of one [`Domain::try_collect`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Collect {
    /// Queue segments freed by this call.
    pub freed_segments: u64,
    /// Deque growth buffers freed by this call.
    pub freed_buffers: u64,
    /// `true` if this call advanced the global epoch.
    pub advanced: bool,
}

impl Collect {
    /// Total objects freed by this call.
    pub fn freed_total(&self) -> u64 {
        self.freed_segments + self.freed_buffers
    }
}

/// Deferred objects not yet free, grouped by retire epoch (ascending).
#[derive(Default)]
struct BagQueue {
    bags: Vec<(u64, Vec<Deferred>)>,
}

/// An epoch-reclamation domain: the global epoch, the participant slots and
/// the deferred-free bags.  See the [module docs](self) for the protocol.
///
/// Capacity is fixed at construction ([`Domain::new`]); the scheduler sizes
/// it as *workers + external-submitter pool*.  All methods take `&self`; the
/// domain is shared as an `Arc` between the structures that defer into it
/// and the threads that collect from it.
pub struct Domain {
    /// The global epoch.  Padded: every pin loads it, every advance CASes it.
    global: CachePadded<AtomicU64>,
    /// One cache line per participant so pin stores never false-share.
    slots: Box<[CachePadded<Slot>]>,
    /// Deferred objects awaiting their epoch.  Cold path (one retirement per
    /// segment / growth, not per task), so a mutex is fine here.
    bags: Mutex<BagQueue>,
    /// Deferred-but-not-yet-freed object count (cheap garbage check).
    pending: AtomicUsize,
    /// Lifetime totals, by class, for diagnostics.
    freed_segments: AtomicU64,
    freed_buffers: AtomicU64,
    /// Lifetime epoch advances.
    advances: AtomicU64,
}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Domain")
            .field("global_epoch", &self.global_epoch())
            .field("capacity", &self.capacity())
            .field("registered", &self.registered())
            .field("pending", &self.pending())
            .finish()
    }
}

impl Domain {
    /// Creates a domain with room for `capacity` simultaneous participants.
    ///
    /// ```
    /// use teamsteal_util::epoch::Domain;
    ///
    /// let domain = Domain::new(3);
    /// assert_eq!(domain.capacity(), 3);
    /// assert_eq!(domain.registered(), 0);
    /// ```
    pub fn new(capacity: usize) -> Arc<Domain> {
        Arc::new(Domain {
            global: CachePadded::new(AtomicU64::new(0)),
            slots: (0..capacity.max(1))
                .map(|_| {
                    CachePadded::new(Slot {
                        state: AtomicU64::new(0),
                        occupied: AtomicBool::new(false),
                    })
                })
                .collect(),
            bags: Mutex::new(BagQueue::default()),
            pending: AtomicUsize::new(0),
            freed_segments: AtomicU64::new(0),
            freed_buffers: AtomicU64::new(0),
            advances: AtomicU64::new(0),
        })
    }

    /// Registers a participant, claiming a free slot.  Returns `None` when
    /// every slot is taken; the slot is released when the returned
    /// [`Participant`] is dropped.
    ///
    /// ```
    /// use teamsteal_util::epoch::Domain;
    ///
    /// let domain = Domain::new(1);
    /// let p = domain.register().expect("one slot free");
    /// assert!(domain.register().is_none(), "capacity exhausted");
    /// drop(p);
    /// assert!(domain.register().is_some(), "slot released on drop");
    /// ```
    pub fn register(self: &Arc<Self>) -> Option<Participant> {
        for (index, slot) in self.slots.iter().enumerate() {
            if slot.occupied.load(Ordering::Relaxed) {
                continue;
            }
            if slot
                .occupied
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                // Reset the state only *after* winning the claim: a losing
                // racer must never touch the slot, or it could wipe the
                // winner's PINNED bit and let the epoch advance past a
                // pinned reader.  No stale-pin hazard from the previous
                // tenant either: `Participant::drop` unpins before its
                // occupied release, which our Acquire CAS observed.
                slot.state.store(0, Ordering::Relaxed);
                return Some(Participant {
                    domain: Arc::clone(self),
                    index,
                    _not_sync: std::marker::PhantomData,
                });
            }
        }
        None
    }

    /// Number of participant slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of currently registered participants.
    pub fn registered(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.occupied.load(Ordering::Relaxed))
            .count()
    }

    /// The current global epoch.
    pub fn global_epoch(&self) -> u64 {
        self.global.load(Ordering::Acquire)
    }

    /// Deferred objects not yet freed.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// Lifetime totals: (segments freed, buffers freed, epoch advances).
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.freed_segments.load(Ordering::Relaxed),
            self.freed_buffers.load(Ordering::Relaxed),
            self.advances.load(Ordering::Relaxed),
        )
    }

    /// Hands ownership of an unlinked object to the domain for destruction
    /// once the epoch permits (see the [module docs](self)).  Callable from
    /// any thread; takes the (cold) bag mutex.
    pub fn defer(&self, deferred: Deferred) {
        // SeqCst: the epoch tag must be read *after* the unlink that made
        // the object unreachable (DESIGN.md §11, row D).
        fence(Ordering::SeqCst);
        let epoch = self.global.load(Ordering::SeqCst);
        let mut bags = self.bags.lock().expect("epoch bag mutex poisoned");
        match bags.bags.last_mut() {
            // The epoch can advance between our load above and taking the
            // lock, so the back bag may carry a *newer* tag than we read.
            // Merging into it is safe: a later tag only delays the free
            // (the e+2 rule is a lower bound, never an upper one), and it
            // keeps the bag queue sorted for the ripeness scan.
            Some((e, bag)) if *e >= epoch => bag.push(deferred),
            _ => bags.bags.push((epoch, vec![deferred])),
        }
        // Count while still holding the lock: a collector that drains this
        // bag does its matching `fetch_sub` after taking the same lock, so
        // the gauge can never go transiently negative (wrapping).
        self.pending.fetch_add(1, Ordering::Relaxed);
        drop(bags);
    }

    /// Tries to advance the global epoch: succeeds exactly when every
    /// *pinned* participant has observed the current value.
    fn try_advance(&self) -> bool {
        let global = self.global.load(Ordering::Relaxed);
        // Full fence before the scan: every pin store that happened before
        // this point is visible to the loads below (DESIGN.md §11, row C).
        fence(Ordering::SeqCst);
        for slot in self.slots.iter() {
            if !slot.occupied.load(Ordering::Acquire) {
                continue;
            }
            let state = slot.state.load(Ordering::Relaxed);
            if state & PINNED == PINNED && state >> 1 != global {
                return false;
            }
        }
        if self
            .global
            .compare_exchange(global, global + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            self.advances.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Attempts one epoch advance, then frees every object whose retire
    /// epoch is at least two behind the global epoch.  Cheap when there is
    /// no garbage (one relaxed load).  Destructors run outside the bag lock.
    pub fn try_collect(&self) -> Collect {
        let mut outcome = Collect::default();
        if self.pending.load(Ordering::Relaxed) == 0 {
            return outcome;
        }
        outcome.advanced = self.try_advance();
        let global = self.global.load(Ordering::Acquire);
        let ripe: Vec<(u64, Vec<Deferred>)> = {
            let mut bags = self.bags.lock().expect("epoch bag mutex poisoned");
            let split = bags
                .bags
                .iter()
                .position(|(epoch, _)| epoch + 2 > global)
                .unwrap_or(bags.bags.len());
            bags.bags.drain(..split).collect()
        };
        for (_, bag) in ripe {
            self.pending.fetch_sub(bag.len(), Ordering::Relaxed);
            for deferred in bag {
                match deferred.class {
                    ReclaimClass::Segment => outcome.freed_segments += 1,
                    ReclaimClass::Buffer => outcome.freed_buffers += 1,
                }
                // SAFETY: retire epoch + 2 <= global means every participant
                // that could hold the pointer has repinned or unpinned since
                // (module docs); ownership came to us through `defer`.
                unsafe { deferred.run() };
            }
        }
        self.freed_segments
            .fetch_add(outcome.freed_segments, Ordering::Relaxed);
        self.freed_buffers
            .fetch_add(outcome.freed_buffers, Ordering::Relaxed);
        outcome
    }
}

impl Drop for Domain {
    fn drop(&mut self) {
        // `&mut self`: no participant handles remain (they hold `Arc`s), so
        // nobody can be reading the protected structures anymore.
        let bags = std::mem::take(&mut *self.bags.get_mut().expect("epoch bag mutex poisoned"));
        for (_, bag) in bags.bags {
            for deferred in bag {
                // SAFETY: exclusive access; each object freed exactly once.
                unsafe { deferred.run() };
            }
        }
    }
}

/// A registered participant of a [`Domain`]: the capability to pin the
/// current thread into the epoch protocol.
///
/// One participant must not be used from two threads at once — it is
/// `Send` but deliberately **not** `Sync`, which the compiler enforces:
///
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<teamsteal_util::epoch::Participant>();
/// ```
///
/// The scheduler gives every worker its own participant and multiplexes
/// external submitters over a claimed-slot pool, which hands a participant
/// on only unpinned (a re-pin at an unchanged epoch relies on the fence of
/// the thread that pinned, see [`pin`](Self::pin)).  Dropping the
/// participant unpins it and releases its slot.
pub struct Participant {
    domain: Arc<Domain>,
    index: usize,
    /// `Cell<()>` is `Send + !Sync`, so this marker keeps the auto traits
    /// exactly where the protocol needs them: a `Participant` may *move*
    /// between threads (the external-submitter pool hands them around), but
    /// `&Participant` must never be shared — two threads interleaving
    /// pin/unpin stores on one slot would break the pinned-bit bookkeeping
    /// and could let the epoch advance past a reader.
    _not_sync: std::marker::PhantomData<std::cell::Cell<()>>,
}

impl std::fmt::Debug for Participant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Participant")
            .field("index", &self.index)
            .field("pinned", &self.is_pinned())
            .finish()
    }
}

impl Participant {
    #[inline]
    fn slot(&self) -> &Slot {
        &self.domain.slots[self.index]
    }

    /// The domain this participant belongs to.
    pub fn domain(&self) -> &Arc<Domain> {
        &self.domain
    }

    /// Pins (or re-pins) this participant to the current global epoch.
    ///
    /// A pin is a **quiescent point**: any pointer obtained from a protected
    /// structure under an earlier pin must not be used after this call.
    /// Cost: two loads when the slot already announces the current epoch,
    /// else one store and one full fence more.
    #[inline]
    pub fn pin(&self) {
        let epoch = self.domain.global.load(Ordering::Relaxed);
        let pinned = (epoch << 1) | PINNED;
        let state = &self.slot().state;
        // Same-epoch skip: the slot already says "pinned at `epoch`", and
        // the pin that wrote it fenced.  Every later protected load follows
        // that fence, and a store of the same word would tell the advance
        // scan nothing new (DESIGN.md §11, row A).  "Follows" needs the
        // same thread: a participant moves between threads only unpinned.
        if state.load(Ordering::Relaxed) == pinned {
            return;
        }
        state.store(pinned, Ordering::Relaxed);
        // Full fence: the pin announcement must be ordered before every
        // subsequent protected load, and visible to the advance scan's
        // fence-then-load (DESIGN.md §11, rows A and C).
        fence(Ordering::SeqCst);
    }

    /// Unpins this participant.  Call before parking/sleeping so an idle
    /// thread never stalls epoch advancement; every protected pointer must
    /// be dead by then.
    #[inline]
    pub fn unpin(&self) {
        let state = self.slot().state.load(Ordering::Relaxed);
        // Release: protected loads made under the pin stay before it.
        self.slot().state.store(state & !PINNED, Ordering::Release);
    }

    /// `true` while pinned.
    #[inline]
    pub fn is_pinned(&self) -> bool {
        self.slot().state.load(Ordering::Relaxed) & PINNED == PINNED
    }

    /// The epoch this participant is pinned at, or `None` while unpinned.
    pub fn pinned_epoch(&self) -> Option<u64> {
        let state = self.slot().state.load(Ordering::Relaxed);
        (state & PINNED == PINNED).then_some(state >> 1)
    }

    /// Convenience forwarding of [`Domain::defer`].
    pub fn defer(&self, deferred: Deferred) {
        self.domain.defer(deferred);
    }
}

impl Drop for Participant {
    fn drop(&mut self) {
        self.unpin();
        // Release pairs with the Acquire claim in `register`, so the next
        // tenant's re-initialization of the state cannot be reordered ahead
        // of our unpin.
        self.slot().occupied.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;

    /// A drop-counting token so tests can observe exactly-once destruction.
    struct Token<'a>(&'a StdAtomicUsize);
    impl Drop for Token<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn defer_token(domain: &Domain, drops: &'static StdAtomicUsize, class: ReclaimClass) {
        let ptr = Box::into_raw(Box::new(Token(drops)));
        // SAFETY: the box is owned and never published anywhere.
        domain.defer(unsafe { Deferred::from_box(ptr, class) });
    }

    #[test]
    fn participant_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Participant>();
        // The matching !Sync guarantee is enforced by the compile_fail
        // doctest on `Participant`.
    }

    #[test]
    fn registration_respects_capacity_and_slot_reuse() {
        let domain = Domain::new(2);
        let a = domain.register().unwrap();
        let b = domain.register().unwrap();
        assert_eq!(domain.registered(), 2);
        assert!(domain.register().is_none());
        drop(a);
        assert_eq!(domain.registered(), 1);
        let c = domain.register().unwrap();
        assert!(domain.register().is_none());
        drop(b);
        drop(c);
        assert_eq!(domain.registered(), 0);
    }

    #[test]
    fn collect_frees_nothing_while_a_participant_pins_the_retire_epoch() {
        static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
        let domain = Domain::new(2);
        let reader = domain.register().unwrap();
        reader.pin();
        defer_token(&domain, &DROPS, ReclaimClass::Segment);
        // The reader never repins: the epoch cannot advance, nothing ages.
        for _ in 0..4 {
            let c = domain.try_collect();
            assert_eq!(c.freed_total(), 0);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        assert_eq!(domain.pending(), 1);
        // The stalled collects already advanced the epoch once (the reader
        // was observed *at* the then-current epoch); after the reader's next
        // quiescent point the second advance ages the bag out and the token
        // is freed exactly once.
        reader.pin();
        let c = domain.try_collect();
        assert_eq!(c.freed_segments, 1);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
        assert_eq!(domain.pending(), 0);
    }

    #[test]
    fn a_pin_at_an_unchanged_epoch_leaves_the_slot_word_alone() {
        let domain = Domain::new(1);
        let p = domain.register().unwrap();
        p.pin();
        let word = domain.slots[0].state.load(Ordering::Relaxed);
        assert_eq!(word, PINNED, "pinned at epoch 0");
        p.pin();
        assert_eq!(domain.slots[0].state.load(Ordering::Relaxed), word);
        assert_eq!(p.pinned_epoch(), Some(0));
        // After an unpin the word differs, so the next pin stores again.
        p.unpin();
        assert_eq!(p.pinned_epoch(), None);
        p.pin();
        assert_eq!(domain.slots[0].state.load(Ordering::Relaxed), word);
    }

    #[test]
    fn a_pin_after_an_advance_moves_the_word_and_unblocks_the_next_advance() {
        let domain = Domain::new(2);
        let p = domain.register().unwrap();
        p.pin();
        assert!(domain.try_advance(), "pinned at the current epoch: 0 -> 1");
        assert!(
            !domain.try_advance(),
            "still announcing 0, which blocks 1 -> 2"
        );
        p.pin();
        assert_eq!(
            domain.slots[0].state.load(Ordering::Relaxed),
            (1 << 1) | PINNED,
            "the pin announced the new epoch"
        );
        assert!(domain.try_advance(), "1 -> 2 goes through");
        assert_eq!(domain.global_epoch(), 2);
    }

    #[test]
    fn unpinned_participants_never_block_advancement() {
        static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
        let domain = Domain::new(3);
        let active = domain.register().unwrap();
        let sleeper = domain.register().unwrap();
        sleeper.pin();
        sleeper.unpin(); // parked: must not stall reclamation
        active.pin();
        defer_token(&domain, &DROPS, ReclaimClass::Buffer);
        active.pin();
        domain.try_collect();
        active.pin();
        let c = domain.try_collect();
        assert_eq!(c.freed_buffers, 1);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn collect_totals_accumulate_by_class() {
        static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
        let domain = Domain::new(1);
        let p = domain.register().unwrap();
        p.pin();
        defer_token(&domain, &DROPS, ReclaimClass::Segment);
        defer_token(&domain, &DROPS, ReclaimClass::Segment);
        defer_token(&domain, &DROPS, ReclaimClass::Buffer);
        for _ in 0..3 {
            p.pin();
            domain.try_collect();
        }
        let (segments, buffers, advances) = domain.totals();
        assert_eq!(segments, 2);
        assert_eq!(buffers, 1);
        assert!(advances >= 2);
        assert_eq!(DROPS.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn domain_drop_frees_remaining_garbage_exactly_once() {
        static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
        {
            let domain = Domain::new(1);
            let p = domain.register().unwrap();
            p.pin();
            for _ in 0..5 {
                defer_token(&domain, &DROPS, ReclaimClass::Segment);
            }
            // No collect: everything is still pending at drop time.
            drop(p);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn concurrent_pinned_readers_and_collector() {
        // Producers defer garbage while readers pin/unpin and one thread
        // collects; every token must be freed exactly once by the end.
        static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
        const READERS: usize = 3;
        const TOKENS: usize = 2_000;
        let domain = Domain::new(READERS + 1);
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let domain = Arc::clone(&domain);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let p = domain.register().expect("reader slot");
                    while !stop.load(Ordering::Relaxed) {
                        p.pin();
                        std::hint::spin_loop();
                        p.unpin();
                    }
                })
            })
            .collect();
        let producer = domain.register().expect("producer slot");
        for _ in 0..TOKENS {
            producer.pin();
            defer_token(&domain, &DROPS, ReclaimClass::Segment);
            producer.pin();
            domain.try_collect();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        drop(producer);
        // Whatever is still pending is freed at domain drop.
        let freed_live = domain.totals().0;
        let pending = domain.pending() as u64;
        assert_eq!(freed_live + pending, TOKENS as u64);
        drop(domain);
        assert_eq!(DROPS.load(Ordering::SeqCst), TOKENS);
    }

    proptest! {
        /// Random pin/unpin/defer/collect sequences: every deferred object
        /// is freed exactly once, never while a participant that was pinned
        /// at (or before) its retire epoch has not passed a quiescent point,
        /// and no participant is left pinned after its handle drops.
        #[test]
        fn protocol_invariants_hold(ops in proptest::collection::vec(0u8..6, 1..200)) {
            static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
            let before = DROPS.load(Ordering::SeqCst);
            let mut deferred_count = 0u64;
            {
                let domain = Domain::new(2);
                let a = domain.register().unwrap();
                let b = domain.register().unwrap();
                for op in ops {
                    match op {
                        0 => a.pin(),
                        1 => b.pin(),
                        2 => a.unpin(),
                        3 => b.unpin(),
                        4 => {
                            defer_token(&domain, &DROPS, ReclaimClass::Segment);
                            deferred_count += 1;
                        }
                        _ => {
                            let c = domain.try_collect();
                            // Free counts can never exceed what was deferred.
                            prop_assert!(c.freed_total() <= deferred_count);
                        }
                    }
                    // The pending gauge always matches deferred - freed.
                    prop_assert_eq!(
                        domain.pending() as u64 + domain.totals().0,
                        deferred_count
                    );
                }
                drop(a);
                drop(b);
                prop_assert_eq!(domain.registered(), 0, "no participant left pinned/registered");
            }
            // Domain drop frees the rest: exactly-once overall.
            prop_assert_eq!(DROPS.load(Ordering::SeqCst) as u64 - before as u64, deferred_count);
        }
    }
}
