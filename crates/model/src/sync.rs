//! Model replacements for `std::sync`: tracked atomics, a modeled
//! `Mutex`/`Condvar` pair, and an SC `fence`.
//!
//! Inside a model run every operation is a yield point enumerated by the
//! explorer.  Outside a run the atomics transparently fall back to their
//! std counterparts (so protocol constructors and `Drop` impls that run
//! on ordinary threads keep working); `Mutex`/`Condvar`, by contrast,
//! require a run — the protocols only reach them from modeled paths.
//!
//! All atomics store their value twice: in a real std atomic (the
//! fallback, and the source for `get_mut`) and, once first touched inside
//! a run, in the execution's per-object modification-order history.  The
//! std cell is kept in sync at every modeled write so mixed access (e.g.
//! a `Debug` impl after the run) sees the final value.

use crate::execution::{self, Ctx, ObjKind};
use std::cell::UnsafeCell;
use std::sync::atomic::AtomicUsize as StdAtomicUsize;

pub use self::atomic::fence;

/// Lazily-registered per-execution object id.
///
/// `usize::MAX` means "not yet registered with the current execution".
/// Objects are created and dropped within a single run (the model closure
/// re-runs from scratch per schedule), so one slot suffices.
#[derive(Debug)]
struct ObjId(StdAtomicUsize);

impl Default for ObjId {
    fn default() -> Self {
        ObjId::new()
    }
}

impl ObjId {
    const fn new() -> Self {
        ObjId(StdAtomicUsize::new(usize::MAX))
    }

    fn get(&self, ctx: &Ctx, kind: ObjKind, initial: u64) -> usize {
        use std::sync::atomic::Ordering::Relaxed;
        let id = self.0.load(Relaxed);
        if id != usize::MAX {
            return id;
        }
        let id = ctx.exec.register_object(kind, initial);
        self.0.store(id, Relaxed);
        id
    }
}

macro_rules! int_atomic {
    ($name:ident, $std:ty, $prim:ty, $doc:literal) => {
        #[doc = $doc]
        #[doc = ""]
        #[doc = "Mirrors the std API surface the teamsteal protocols use;"]
        #[doc = "every operation is a model yield point inside a run."]
        #[derive(Debug, Default)]
        pub struct $name {
            value: $std,
            id: ObjId,
        }

        // The macro instantiates `v as u64` / `old as $prim` even when
        // `$prim` is itself u64.
        #[allow(clippy::unnecessary_cast)]
        impl $name {
            /// Create a new atomic with the given initial value.
            pub const fn new(v: $prim) -> Self {
                Self {
                    value: <$std>::new(v),
                    id: ObjId::new(),
                }
            }

            fn obj(&self, ctx: &Ctx) -> usize {
                use std::sync::atomic::Ordering::Relaxed;
                self.id
                    .get(ctx, ObjKind::Atomic, self.value.load(Relaxed) as u64)
            }

            /// Atomic load.  Under the model, `Relaxed` loads may observe
            /// one stale value (bounded staleness window, DESIGN.md §14).
            pub fn load(&self, order: Ordering) -> $prim {
                match execution::current() {
                    Some(ctx) => {
                        let obj = self.obj(&ctx);
                        let relaxed = matches!(order, Ordering::Relaxed);
                        ctx.exec.atomic_load(ctx.tid, obj, relaxed) as $prim
                    }
                    None => self.value.load(order),
                }
            }

            /// Atomic store (immediately visible to all threads: the
            /// model is SC for writes).
            pub fn store(&self, val: $prim, order: Ordering) {
                match execution::current() {
                    Some(ctx) => {
                        let obj = self.obj(&ctx);
                        ctx.exec.atomic_store(ctx.tid, obj, val as u64);
                        self.value.store(val, sync_store(order));
                    }
                    None => self.value.store(val, order),
                }
            }

            /// Atomic fetch-add; RMWs always read the latest value.
            pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                match execution::current() {
                    Some(ctx) => {
                        let obj = self.obj(&ctx);
                        let old = ctx
                            .exec
                            .atomic_rmw(ctx.tid, obj, |v| ((v as $prim).wrapping_add(val)) as u64)
                            as $prim;
                        self.value
                            .store(old.wrapping_add(val), std::sync::atomic::Ordering::SeqCst);
                        old
                    }
                    None => self.value.fetch_add(val, order),
                }
            }

            /// Atomic fetch-sub; RMWs always read the latest value.
            pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                match execution::current() {
                    Some(ctx) => {
                        let obj = self.obj(&ctx);
                        let old = ctx
                            .exec
                            .atomic_rmw(ctx.tid, obj, |v| ((v as $prim).wrapping_sub(val)) as u64)
                            as $prim;
                        self.value
                            .store(old.wrapping_sub(val), std::sync::atomic::Ordering::SeqCst);
                        old
                    }
                    None => self.value.fetch_sub(val, order),
                }
            }

            /// Atomic fetch-or; RMWs always read the latest value.
            pub fn fetch_or(&self, val: $prim, order: Ordering) -> $prim {
                match execution::current() {
                    Some(ctx) => {
                        let obj = self.obj(&ctx);
                        let old = ctx
                            .exec
                            .atomic_rmw(ctx.tid, obj, |v| ((v as $prim) | val) as u64)
                            as $prim;
                        self.value
                            .store(old | val, std::sync::atomic::Ordering::SeqCst);
                        old
                    }
                    None => self.value.fetch_or(val, order),
                }
            }

            /// Strong compare-exchange.
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                match execution::current() {
                    Some(ctx) => {
                        let obj = self.obj(&ctx);
                        let res = ctx
                            .exec
                            .atomic_cas(ctx.tid, obj, current as u64, new as u64)
                            .map(|v| v as $prim)
                            .map_err(|v| v as $prim);
                        if res.is_ok() {
                            self.value.store(new, std::sync::atomic::Ordering::SeqCst);
                        }
                        res
                    }
                    None => self.value.compare_exchange(current, new, success, failure),
                }
            }

            /// Weak compare-exchange; the model never fails spuriously
            /// (a sound strengthening — all protocol CAS loops retry).
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.compare_exchange(current, new, success, failure)
            }

            /// Mutable access; no yield point (exclusivity is proven by
            /// the `&mut`).
            pub fn get_mut(&mut self) -> &mut $prim {
                self.value.get_mut()
            }

            /// Consume the atomic, returning its value.
            pub fn into_inner(self) -> $prim {
                self.value.into_inner()
            }
        }

        impl From<$prim> for $name {
            fn from(v: $prim) -> Self {
                Self::new(v)
            }
        }
    };
}

/// When mirroring a modeled store into the std fallback cell, `Relaxed`
/// would be fine (the model serializes everything), but `SeqCst` keeps
/// miri-style tooling quiet about the double bookkeeping.
fn sync_store(_order: atomic::Ordering) -> atomic::Ordering {
    atomic::Ordering::SeqCst
}

/// Tracked atomics and fences; `Ordering` is re-exported from std.
pub mod atomic {
    use super::*;

    pub use std::sync::atomic::Ordering;

    int_atomic!(
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize,
        "Tracked `AtomicUsize`."
    );
    int_atomic!(
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64,
        "Tracked `AtomicU64`."
    );
    int_atomic!(
        AtomicU32,
        std::sync::atomic::AtomicU32,
        u32,
        "Tracked `AtomicU32`."
    );

    /// Tracked `AtomicBool` (stored as 0/1 in the modification order).
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        value: std::sync::atomic::AtomicBool,
        id: super::ObjId,
    }

    impl AtomicBool {
        /// Create a new atomic with the given initial value.
        pub const fn new(v: bool) -> Self {
            Self {
                value: std::sync::atomic::AtomicBool::new(v),
                id: super::ObjId::new(),
            }
        }

        fn obj(&self, ctx: &Ctx) -> usize {
            self.id.get(
                ctx,
                ObjKind::Atomic,
                self.value.load(Ordering::Relaxed) as u64,
            )
        }

        /// Atomic load (see [`AtomicUsize::load`] for `Relaxed` semantics).
        pub fn load(&self, order: Ordering) -> bool {
            match execution::current() {
                Some(ctx) => {
                    let obj = self.obj(&ctx);
                    let relaxed = matches!(order, Ordering::Relaxed);
                    ctx.exec.atomic_load(ctx.tid, obj, relaxed) != 0
                }
                None => self.value.load(order),
            }
        }

        /// Atomic store.
        pub fn store(&self, val: bool, order: Ordering) {
            match execution::current() {
                Some(ctx) => {
                    let obj = self.obj(&ctx);
                    ctx.exec.atomic_store(ctx.tid, obj, val as u64);
                    self.value.store(val, Ordering::SeqCst);
                }
                None => self.value.store(val, order),
            }
        }

        /// Strong compare-exchange.
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            match execution::current() {
                Some(ctx) => {
                    let obj = self.obj(&ctx);
                    let res = ctx
                        .exec
                        .atomic_cas(ctx.tid, obj, current as u64, new as u64)
                        .map(|v| v != 0)
                        .map_err(|v| v != 0);
                    if res.is_ok() {
                        self.value.store(new, Ordering::SeqCst);
                    }
                    res
                }
                None => self.value.compare_exchange(current, new, success, failure),
            }
        }

        /// Atomic swap.
        pub fn swap(&self, val: bool, order: Ordering) -> bool {
            match execution::current() {
                Some(ctx) => {
                    let obj = self.obj(&ctx);
                    let old = ctx.exec.atomic_rmw(ctx.tid, obj, |_| val as u64) != 0;
                    self.value.store(val, Ordering::SeqCst);
                    old
                }
                None => self.value.swap(val, order),
            }
        }

        /// Mutable access; no yield point.
        pub fn get_mut(&mut self) -> &mut bool {
            self.value.get_mut()
        }
    }

    /// Tracked `AtomicPtr<T>` (pointers enter the modification order as
    /// their address bits).
    pub struct AtomicPtr<T> {
        value: std::sync::atomic::AtomicPtr<T>,
        id: super::ObjId,
    }

    impl<T> std::fmt::Debug for AtomicPtr<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_tuple("AtomicPtr").field(&self.value).finish()
        }
    }

    impl<T> AtomicPtr<T> {
        /// Create a new atomic pointer.
        pub const fn new(p: *mut T) -> Self {
            Self {
                value: std::sync::atomic::AtomicPtr::new(p),
                id: super::ObjId::new(),
            }
        }

        fn obj(&self, ctx: &Ctx) -> usize {
            self.id.get(
                ctx,
                ObjKind::Atomic,
                self.value.load(Ordering::Relaxed) as usize as u64,
            )
        }

        /// Atomic load (see [`AtomicUsize::load`] for `Relaxed` semantics).
        pub fn load(&self, order: Ordering) -> *mut T {
            match execution::current() {
                Some(ctx) => {
                    let obj = self.obj(&ctx);
                    let relaxed = matches!(order, Ordering::Relaxed);
                    ctx.exec.atomic_load(ctx.tid, obj, relaxed) as usize as *mut T
                }
                None => self.value.load(order),
            }
        }

        /// Atomic store.
        pub fn store(&self, p: *mut T, order: Ordering) {
            match execution::current() {
                Some(ctx) => {
                    let obj = self.obj(&ctx);
                    ctx.exec.atomic_store(ctx.tid, obj, p as usize as u64);
                    self.value.store(p, Ordering::SeqCst);
                }
                None => self.value.store(p, order),
            }
        }

        /// Atomic swap; RMWs always read the latest value.
        pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
            match execution::current() {
                Some(ctx) => {
                    let obj = self.obj(&ctx);
                    let old = ctx.exec.atomic_rmw(ctx.tid, obj, |_| p as usize as u64);
                    self.value.store(p, Ordering::SeqCst);
                    old as usize as *mut T
                }
                None => self.value.swap(p, order),
            }
        }

        /// Strong compare-exchange.
        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            match execution::current() {
                Some(ctx) => {
                    let obj = self.obj(&ctx);
                    let res = ctx
                        .exec
                        .atomic_cas(ctx.tid, obj, current as usize as u64, new as usize as u64)
                        .map(|v| v as usize as *mut T)
                        .map_err(|v| v as usize as *mut T);
                    if res.is_ok() {
                        self.value.store(new, Ordering::SeqCst);
                    }
                    res
                }
                None => self.value.compare_exchange(current, new, success, failure),
            }
        }

        /// Weak compare-exchange (never spurious in the model).
        pub fn compare_exchange_weak(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            self.compare_exchange(current, new, success, failure)
        }

        /// Mutable access; no yield point.
        pub fn get_mut(&mut self) -> &mut *mut T {
            self.value.get_mut()
        }
    }

    impl<T> Default for AtomicPtr<T> {
        fn default() -> Self {
            Self::new(std::ptr::null_mut())
        }
    }

    /// Memory fence: a yield point, treated as dependent with every atomic
    /// op by the sleep-set pruner.  A `SeqCst` fence also ends the calling
    /// thread's stale reads: its later `Relaxed` loads return no value older
    /// than the newest one of each object at the fence (DESIGN.md §14).
    /// Other orderings have no state effect (non-`Relaxed` accesses are
    /// sequentially consistent here anyway).
    pub fn fence(order: Ordering) {
        match execution::current() {
            Some(ctx) => ctx.exec.fence(ctx.tid, matches!(order, Ordering::SeqCst)),
            None => std::sync::atomic::fence(order),
        }
    }
}

// ---------------------------------------------------------------------
// Mutex / Condvar
// ---------------------------------------------------------------------

/// Result of a timed condvar wait (mirrors `std::sync::WaitTimeoutResult`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Infallible `LockResult` stand-in: the model never poisons (a panicked
/// virtual thread fails the whole run before anyone re-locks).
pub type LockResult<G> = Result<G, std::convert::Infallible>;

/// A modeled mutex.  Must only be locked from inside a model run; the
/// protocols reach it exclusively from modeled paths.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    data: UnsafeCell<T>,
    id: ObjId,
}

// Safety: access to `data` is serialized by the model scheduler — the
// lock/unlock yield points enforce mutual exclusion, and at most one
// virtual thread runs at a time.
unsafe impl<T: Send> Send for Mutex<T> {}
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Create a new mutex guarding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            data: UnsafeCell::new(value),
            id: ObjId::new(),
        }
    }

    fn ctx_and_obj(&self) -> (Ctx, usize) {
        let ctx = execution::current().expect("teamsteal-model Mutex used outside a model run");
        let obj = self.id.get(&ctx, ObjKind::Mutex, 0);
        (ctx, obj)
    }

    /// Acquire the mutex (a yield point; blocks the virtual thread while
    /// another holds it).
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let (ctx, obj) = self.ctx_and_obj();
        ctx.exec.mutex_lock(ctx.tid, obj);
        Ok(MutexGuard {
            mutex: self,
            armed: true,
        })
    }

    /// Mutable access without locking; no yield point.
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        Ok(self.data.get_mut())
    }

    /// Consume the mutex, returning the guarded value.
    pub fn into_inner(self) -> LockResult<T> {
        Ok(self.data.into_inner())
    }
}

/// RAII guard for [`Mutex`]; releasing is itself a yield point.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    /// False once consumed by `Condvar::wait_timeout` (the wait releases
    /// the mutex itself, so the guard's drop must not).
    armed: bool,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: the model holds the mutex for this virtual thread.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: as above, and `&mut self` prevents aliasing.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            let (ctx, obj) = self.mutex.ctx_and_obj();
            ctx.exec.mutex_unlock(ctx.tid, obj);
        }
    }
}

/// A modeled condition variable with virtual-time timeouts.
///
/// Timed waits use *deadlock-escape* semantics: a timeout fires only when
/// no virtual thread can otherwise run, at which point the virtual clock
/// jumps to the deadline.  There are no spurious wakeups.  See
/// DESIGN.md §14 for why this is the right approximation for the
/// eventcount backstop.
#[derive(Debug, Default)]
pub struct Condvar {
    id: ObjId,
}

impl Condvar {
    /// Create a new condvar.
    pub const fn new() -> Self {
        Condvar { id: ObjId::new() }
    }

    fn obj(&self, ctx: &Ctx) -> usize {
        self.id.get(ctx, ObjKind::Condvar, 0)
    }

    /// Park until notified, releasing (and re-acquiring) the mutex.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        Ok(self.wait_inner(guard, None).0)
    }

    /// Park until notified or the (virtual) timeout elapses.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        let ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        Ok(self.wait_inner(guard, Some(ns)))
    }

    fn wait_inner<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout_ns: Option<u64>,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let (ctx, mutex_obj) = guard.mutex.ctx_and_obj();
        let cv_obj = self.obj(&ctx);
        guard.armed = false; // the wait releases the mutex itself
        let mutex = guard.mutex;
        drop(guard);
        let timed_out = ctx.exec.cond_wait(ctx.tid, cv_obj, mutex_obj, timeout_ns);
        (
            MutexGuard { mutex, armed: true },
            WaitTimeoutResult(timed_out),
        )
    }

    /// Wake one parked waiter (lowest virtual-thread id first).
    pub fn notify_one(&self) {
        let ctx = execution::current().expect("teamsteal-model Condvar used outside a model run");
        let obj = self.obj(&ctx);
        ctx.exec.notify(ctx.tid, obj, false);
    }

    /// Wake all parked waiters.
    pub fn notify_all(&self) {
        let ctx = execution::current().expect("teamsteal-model Condvar used outside a model run");
        let obj = self.obj(&ctx);
        ctx.exec.notify(ctx.tid, obj, true);
    }
}
