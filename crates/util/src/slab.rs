//! A recycling slab allocator for fixed-size scheduler objects.
//!
//! The spawn hot path of the scheduler allocates one task node per spawned
//! task.  Going through the global allocator for every spawn costs two cache
//! misses and a lock-free-but-contended malloc on most allocators, and the
//! paper's "a single extra CAS" overhead claim drowns in it.  A [`Slab`]
//! instead hands out slots from worker-owned memory chunks and recycles
//! freed slots through intrusive free lists, so steady-state spawn/finish
//! cycles never touch the global allocator.
//!
//! # Ownership protocol
//!
//! A slab has one **owner** (whoever allocates from it) and arbitrarily
//! many **releasers** (whichever thread happens to finish a task last frees
//! its node *back to the node's home slab*).  The owner is whoever holds an
//! exclusive claim on the slab, and need not be one thread for life: a
//! worker owns its slab for its whole lifetime, while the slab of an
//! external submission slot changes hands with every claim.  The claim must
//! be handed over with Acquire/Release — the new owner acquires what the
//! old one released — so each owner sees its predecessor's private list and
//! bump state.  Freed slots go
//! to one of two lists, split by who frees them (free-list sharding, as in
//! Leijen, Zorn and de Moura, *Mimalloc: Free List Sharding in Action*,
//! 2019):
//!
//! * [`Slab::free_owned`] — owner only.  Pushes onto the **private** list, a
//!   plain pointer no other thread reads: no atomic read-modify-write.
//! * [`Slab::free`] — any thread.  Pushes onto the **remote** list, a
//!   Treiber stack (a CAS loop, no allocation).
//! * [`Slab::alloc`] — owner only.  Pops the private list; when that is
//!   empty, takes the whole remote stack over as the new private list with
//!   one `swap`; when both are empty, carves a fresh slot from the current
//!   chunk (allocating a new chunk from the global allocator when the
//!   current one is full).
//!
//! The remote stack has *multiple producers and a single consumer* that
//! only ever detaches it whole, so the classic ABA hazard of a Treiber pop
//! (a popped node re-appearing as head with a different successor) cannot
//! occur: no slot is ever popped from it one at a time.
//!
//! Memory is only returned to the global allocator when the slab is dropped;
//! the retained footprint is bounded by the high-water mark of simultaneously
//! live objects (rounded up to whole chunks).
//!
//! # Safety
//!
//! The slab hands out raw, uninitialized slots and never runs destructors on
//! them; callers `ptr::write` on alloc and `ptr::drop_in_place` before free.
//! The intrusive link lives *inside* the object (see [`Recycle`]) so that a
//! slot on either free list needs no side allocation.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicPtr, Ordering};

use crate::CachePadded;

/// Types that can live in a [`Slab`]: they embed an intrusive free-list link
/// (an `AtomicPtr<Self>` field) the slab may use while the value is dead.
///
/// # Safety
///
/// Implementations must return a pointer to a field *inside* the object (so
/// it stays valid as long as the object's memory does) and must not create a
/// reference to any other part of the possibly-dead object while doing so —
/// use [`std::ptr::addr_of_mut!`] on the raw pointer:
///
/// ```
/// use std::sync::atomic::AtomicPtr;
/// use teamsteal_util::slab::Recycle;
///
/// struct Node {
///     free_next: AtomicPtr<Node>,
/// }
///
/// unsafe impl Recycle for Node {
///     unsafe fn free_link(ptr: *mut Self) -> *mut AtomicPtr<Self> {
///         unsafe { std::ptr::addr_of_mut!((*ptr).free_next) }
///     }
/// }
/// ```
///
/// The link field is owned by the slab whenever the object is on the free
/// list; the object must not touch it while it is dead.
pub unsafe trait Recycle: Sized {
    /// Raw pointer to the intrusive link field of the object at `ptr`.
    ///
    /// # Safety
    ///
    /// `ptr` must point to memory that holds (or held) a `Self` within a
    /// live allocation; the returned pointer is only valid for as long as
    /// that allocation is.
    unsafe fn free_link(ptr: *mut Self) -> *mut AtomicPtr<Self>;
}

/// Number of slots carved per chunk allocation.
const CHUNK_SLOTS: usize = 64;

type Chunk<T> = Box<[UnsafeCell<MaybeUninit<T>>]>;

/// Owner-side bump region: the chunks allocated so far and the fill level of
/// the last one.
struct BumpState<T> {
    chunks: Vec<Chunk<T>>,
    /// Slots already handed out from the last chunk.
    used_in_last: usize,
}

/// A recycling slab allocator.  See the [module docs](self) for the
/// ownership protocol and safety contract.
pub struct Slab<T: Recycle> {
    /// Head of the intrusive Treiber stack that non-owners free onto.
    /// Padded to its own cache line: remote releasers CAS it while the
    /// owner's private list and bump state stay clean.
    remote: CachePadded<AtomicPtr<T>>,
    /// Head of the owner's private free list.  Owner-only (see
    /// [`Slab::alloc`] and [`Slab::free_owned`]).
    private: UnsafeCell<*mut T>,
    /// Bump-allocation state.  Owner-only (see [`Slab::alloc`]).
    bump: UnsafeCell<BumpState<T>>,
}

// SAFETY: `remote` is an atomic; `private` and `bump` are only touched by
// the current owner (contracts on `alloc` and `free_owned`).  `T: Send`
// because slots are released from other threads.
unsafe impl<T: Recycle + Send> Send for Slab<T> {}
unsafe impl<T: Recycle + Send> Sync for Slab<T> {}

impl<T: Recycle> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Recycle> Slab<T> {
    /// Creates an empty slab.  No memory is allocated until the first
    /// [`alloc`](Slab::alloc).
    pub fn new() -> Self {
        Slab {
            remote: CachePadded::new(AtomicPtr::new(std::ptr::null_mut())),
            private: UnsafeCell::new(std::ptr::null_mut()),
            bump: UnsafeCell::new(BumpState {
                chunks: Vec::new(),
                used_in_last: 0,
            }),
        }
    }

    /// Hands out one uninitialized slot and reports whether it was recycled
    /// from a free list (`true`) or carved fresh from a chunk (`false`).
    /// The caller must `ptr::write` a value before using it.
    ///
    /// # Safety
    ///
    /// Owner only: at most one thread may call `alloc` or
    /// [`free_owned`](Slab::free_owned) on a given slab at a time (it is the
    /// single consumer of the remote stack and the only toucher of the
    /// private list and the bump state), and a change of owner must be
    /// ordered by an Acquire/Release handover (see the module docs).
    pub unsafe fn alloc(&self) -> (*mut T, bool) {
        // SAFETY: owner-only access per the contract above.
        let private = unsafe { &mut *self.private.get() };
        if private.is_null() && !self.remote.load(Ordering::Relaxed).is_null() {
            // Take the whole remote stack over in one step.  The Acquire
            // pairs with the Release of every `free` push before it (each
            // push's CAS continues the release sequence of the ones below
            // it), making the link writes and the releasers' drops of the
            // slot contents visible before reuse.
            *private = self.remote.swap(std::ptr::null_mut(), Ordering::Acquire);
        }
        let head = *private;
        if head.is_null() {
            // SAFETY: same owner-only contract as `alloc` itself.
            return (unsafe { self.bump_alloc() }, false);
        }
        // SAFETY: `head` is on the private list, so its link field was
        // written by `free` or `free_owned` and nobody else reads it.
        *private = unsafe { (*T::free_link(head)).load(Ordering::Relaxed) };
        (head, true)
    }

    /// Carves a fresh slot, growing by one chunk when needed.  Owner only.
    unsafe fn bump_alloc(&self) -> *mut T {
        // SAFETY: owner-only access per the `alloc` contract.
        let bump = unsafe { &mut *self.bump.get() };
        if bump.chunks.is_empty() || bump.used_in_last == CHUNK_SLOTS {
            bump.chunks.push(
                (0..CHUNK_SLOTS)
                    .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                    .collect(),
            );
            bump.used_in_last = 0;
        }
        let chunk = bump.chunks.last().expect("chunk just ensured");
        let slot = chunk[bump.used_in_last].get();
        bump.used_in_last += 1;
        slot.cast::<T>()
    }

    /// Returns a dead slot to the owner's private list: two plain writes,
    /// no atomic read-modify-write.
    ///
    /// # Safety
    ///
    /// Owner only, like [`alloc`](Slab::alloc); otherwise the contract of
    /// [`free`](Slab::free).
    pub unsafe fn free_owned(&self, ptr: *mut T) {
        // SAFETY: owner-only access per the contract above.
        let private = unsafe { &mut *self.private.get() };
        // SAFETY: `ptr` came from this slab's `alloc` (caller contract); a
        // plain write (re)initializes the link in the dead slot.
        unsafe { T::free_link(ptr).write(AtomicPtr::new(*private)) };
        *private = ptr;
    }

    /// Returns a dead slot to the remote list.  Safe to call from any
    /// thread.
    ///
    /// # Safety
    ///
    /// `ptr` must have been handed out by *this* slab's [`alloc`](Slab::alloc)
    /// and its contents must already have been dropped (the slab never runs
    /// destructors).  The slot must not be accessed again until `alloc`
    /// returns it.
    pub unsafe fn free(&self, ptr: *mut T) {
        // SAFETY: `ptr` came from this slab's `alloc` (caller contract), so
        // it points into a live chunk allocation.
        let link = unsafe { T::free_link(ptr) };
        let mut head = self.remote.load(Ordering::Relaxed);
        loop {
            // SAFETY: the link field is inside the slot, which we own until
            // the CAS below publishes it.  A plain write (re)initializes the
            // atomic in possibly-uninitialized memory.
            unsafe { link.write(AtomicPtr::new(head)) };
            // Release pairs with the Acquire takeover in `alloc`: the link
            // write and the caller's drop of the contents become visible to
            // the owner before the slot can be reused.
            match self
                .remote
                .compare_exchange_weak(head, ptr, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(observed) => head = observed,
            }
        }
    }
}

impl<T: Recycle> Drop for Slab<T> {
    fn drop(&mut self) {
        // Chunks are freed wholesale; per the `free` contract all slot
        // contents are already dead, so there is nothing to drop in place.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    struct Node {
        free_next: AtomicPtr<Node>,
        value: u64,
    }

    unsafe impl Recycle for Node {
        unsafe fn free_link(ptr: *mut Self) -> *mut AtomicPtr<Self> {
            unsafe { std::ptr::addr_of_mut!((*ptr).free_next) }
        }
    }

    fn write_node(slab: &Slab<Node>, value: u64) -> (*mut Node, bool) {
        // SAFETY: tests are single-owner per slab.
        let (ptr, recycled) = unsafe { slab.alloc() };
        unsafe {
            ptr.write(Node {
                free_next: AtomicPtr::new(std::ptr::null_mut()),
                value,
            })
        };
        (ptr, recycled)
    }

    /// Frees `ptr` from the owner thread.
    fn free_owned(slab: &Slab<Node>, ptr: *mut Node) {
        // SAFETY: tests are single-owner per slab; `ptr` is live and ours.
        unsafe {
            std::ptr::drop_in_place(ptr);
            slab.free_owned(ptr);
        }
    }

    #[test]
    fn fresh_allocations_are_distinct() {
        let slab: Slab<Node> = Slab::new();
        let mut seen = HashSet::new();
        for i in 0..3 * CHUNK_SLOTS as u64 {
            let (ptr, recycled) = write_node(&slab, i);
            assert!(!recycled, "nothing was freed yet");
            assert!(
                seen.insert(ptr as usize),
                "slab handed out a live slot twice"
            );
        }
    }

    #[test]
    fn freed_slots_are_recycled_lifo() {
        let slab: Slab<Node> = Slab::new();
        let (a, _) = write_node(&slab, 1);
        let (b, _) = write_node(&slab, 2);
        let (c, _) = write_node(&slab, 3);
        let (d, _) = write_node(&slab, 4);
        // Two slots through the remote list, two through the private one.
        unsafe {
            std::ptr::drop_in_place(a);
            slab.free(a);
            std::ptr::drop_in_place(b);
            slab.free(b);
        }
        free_owned(&slab, c);
        free_owned(&slab, d);
        let handed: Vec<(*mut Node, bool)> = (5..9).map(|v| write_node(&slab, v)).collect();
        // The private list drains first, LIFO; the remote stack is taken
        // over whole once it is empty and drains LIFO too.
        assert_eq!(handed, [(d, true), (c, true), (b, true), (a, true)]);
        assert!(!write_node(&slab, 9).1, "both lists are empty again");
    }

    #[test]
    fn cross_thread_free_reaches_the_owner() {
        let slab: Arc<Slab<Node>> = Arc::new(Slab::new());
        let released = Arc::new(AtomicUsize::new(0));
        const N: usize = 10_000;
        // The owner allocates; helper threads free.  Every freed slot must
        // eventually come back through the owner's alloc as recycled.
        let helpers: Vec<_> = (0..4)
            .map(|_| {
                let slab = Arc::clone(&slab);
                let released = Arc::clone(&released);
                let (htx, hrx) = std::sync::mpsc::channel::<usize>();
                let handle = std::thread::spawn(move || {
                    while let Ok(addr) = hrx.recv() {
                        let ptr = addr as *mut Node;
                        unsafe {
                            std::ptr::drop_in_place(ptr);
                            slab.free(ptr);
                        }
                        released.fetch_add(1, Ordering::Relaxed);
                    }
                });
                (htx, handle)
            })
            .collect();
        let mut recycled_while_freeing = 0;
        for i in 0..N {
            let (ptr, recycled) = write_node(&slab, i as u64);
            recycled_while_freeing += usize::from(recycled);
            helpers[i % helpers.len()]
                .0
                .send(ptr as usize)
                .expect("helper alive");
        }
        for (htx, handle) in helpers {
            drop(htx);
            handle.join().unwrap();
        }
        assert_eq!(released.load(Ordering::Relaxed), N);
        // Everything is free now and nothing is live, so the next N
        // allocations reuse memory only: the `N - recycled_while_freeing`
        // slots ever carved, then fresh ones.
        let carved = N - recycled_while_freeing;
        let recycled_after = (0..N).filter(|&i| write_node(&slab, i as u64).1).count();
        assert_eq!(recycled_after, carved, "the owner saw a remote free late");
    }

    /// Dropping a slab with slots on both free lists (and live ones) frees
    /// its chunks without touching the slots: Miri or a sanitizer would
    /// flag a double free or a read of a dead slot here.
    #[test]
    fn drop_with_slots_on_both_lists() {
        let slab: Slab<Node> = Slab::new();
        let slots = (0..CHUNK_SLOTS as u64 + 3).map(|v| write_node(&slab, v).0);
        for (i, ptr) in slots.enumerate() {
            match i % 3 {
                0 => free_owned(&slab, ptr),
                1 => unsafe {
                    std::ptr::drop_in_place(ptr);
                    slab.free(ptr);
                },
                _ => {} // still live: its plain-data contents need no drop
            }
        }
        drop(slab);
    }

    /// An owner role that changes hands: two threads take turns as the
    /// slab's owner through an `AtomicBool` claim (Acquire CAS, Release
    /// store), as the external submission slots of a scheduler do.  Each
    /// allocates and writes canaries under the claim and hands the slots to
    /// a third thread that checks them and frees them remotely.  A slot
    /// handed out twice while live would break a canary or show up twice
    /// in the live set.
    #[test]
    fn alternating_owners_never_alias_a_live_slot() {
        use std::collections::HashMap;
        use std::sync::atomic::AtomicBool;
        use std::sync::Mutex;
        const PER_OWNER: u64 = 20_000;
        let slab: Arc<Slab<Node>> = Arc::new(Slab::new());
        let claim = Arc::new(AtomicBool::new(false));
        let live: Arc<Mutex<HashMap<usize, u64>>> = Arc::new(Mutex::new(HashMap::new()));
        let (to_freer, freer_rx) = std::sync::mpsc::channel::<usize>();
        let freer = {
            let slab = Arc::clone(&slab);
            let live = Arc::clone(&live);
            std::thread::spawn(move || {
                let mut freed = 0u64;
                while let Ok(addr) = freer_rx.recv() {
                    let ptr = addr as *mut Node;
                    let canary = live
                        .lock()
                        .unwrap()
                        .remove(&addr)
                        .expect("freed slot was live");
                    assert_eq!(
                        unsafe { (*ptr).value },
                        canary,
                        "a live slot was overwritten"
                    );
                    unsafe {
                        std::ptr::drop_in_place(ptr);
                        slab.free(ptr);
                    }
                    freed += 1;
                }
                freed
            })
        };
        let owners: Vec<_> = (0..2u64)
            .map(|owner| {
                let slab = Arc::clone(&slab);
                let claim = Arc::clone(&claim);
                let live = Arc::clone(&live);
                let to_freer = to_freer.clone();
                std::thread::spawn(move || {
                    let mut done = 0;
                    while done < PER_OWNER {
                        if claim
                            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                            .is_err()
                        {
                            std::hint::spin_loop();
                            continue;
                        }
                        // A short turn as owner, then hand the claim over.
                        for _ in 0..(done % 7 + 1).min(PER_OWNER - done) {
                            let canary = (owner << 32) | done;
                            let (ptr, _) = write_node(&slab, canary);
                            let previous = live.lock().unwrap().insert(ptr as usize, canary);
                            assert!(
                                previous.is_none(),
                                "slab handed out live slot {ptr:p} twice"
                            );
                            to_freer.send(ptr as usize).expect("freer alive");
                            done += 1;
                        }
                        claim.store(false, Ordering::Release);
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        drop(to_freer);
        for owner in owners {
            owner.join().unwrap();
        }
        assert_eq!(freer.join().unwrap(), 2 * PER_OWNER);
        assert!(live.lock().unwrap().is_empty());
    }

    /// One step of the two-list proptest.
    #[derive(Debug)]
    enum Op {
        Alloc,
        FreeOwned,
        FreeRemote,
    }

    proptest! {
        /// Drives a slab through arbitrary sequences of `alloc`, owner
        /// frees and frees issued from a second thread, and checks the core
        /// invariant of node recycling: a slot handed out by `alloc` is
        /// never handed out again while it is still live (its canary would
        /// be overwritten), and a slot freed onto either list comes back
        /// flagged `recycled` before any fresh slot is carved.
        #[test]
        fn reuse_never_aliases_a_live_slot(codes in proptest::collection::vec(0u8..3, 1..256)) {
            let slab: Arc<Slab<Node>> = Arc::new(Slab::new());
            let (to_remote, remote_rx) = std::sync::mpsc::channel::<usize>();
            let (freed_tx, freed) = std::sync::mpsc::channel::<()>();
            let remote = {
                let slab = Arc::clone(&slab);
                std::thread::spawn(move || {
                    while let Ok(addr) = remote_rx.recv() {
                        let ptr = addr as *mut Node;
                        unsafe {
                            std::ptr::drop_in_place(ptr);
                            slab.free(ptr);
                        }
                        freed_tx.send(()).expect("owner alive");
                    }
                })
            };
            // Live slots with the canary each was written with.
            let mut live: Vec<(*mut Node, u64)> = Vec::new();
            let mut live_set: HashSet<usize> = HashSet::new();
            let mut free_slots = 0usize;
            let mut next_value = 0u64;
            for code in codes {
                let op = match code {
                    _ if live.is_empty() => Op::Alloc,
                    0 => Op::Alloc,
                    1 => Op::FreeOwned,
                    _ => Op::FreeRemote,
                };
                match op {
                    Op::Alloc => {
                        let (ptr, recycled) = write_node(&slab, next_value);
                        prop_assert!(
                            live_set.insert(ptr as usize),
                            "slab handed out live slot {:p} twice", ptr
                        );
                        prop_assert_eq!(recycled, free_slots > 0, "a freed slot was skipped or invented");
                        free_slots -= usize::from(recycled);
                        live.push((ptr, next_value));
                        next_value += 1;
                    }
                    Op::FreeOwned | Op::FreeRemote => {
                        let (ptr, canary) = live.swap_remove(next_value as usize % live.len());
                        // Nothing else wrote the slot while it was live.
                        prop_assert_eq!(unsafe { (*ptr).value }, canary);
                        live_set.remove(&(ptr as usize));
                        if matches!(op, Op::FreeOwned) {
                            free_owned(&slab, ptr);
                        } else {
                            to_remote.send(ptr as usize).expect("remote freer alive");
                            freed.recv().expect("remote freer alive");
                        }
                        free_slots += 1;
                    }
                }
            }
            drop(to_remote);
            remote.join().unwrap();
            // Live slots still hold distinct addresses and intact canaries.
            prop_assert_eq!(live.len(), live_set.len());
            for &(ptr, canary) in &live {
                prop_assert_eq!(unsafe { (*ptr).value }, canary);
            }
        }
    }
}
