//! A futex-style eventcount: the blocking primitive behind the scheduler's
//! event-driven parking (DESIGN.md §12).
//!
//! The paper's idle workers back off exponentially between failed attempts,
//! from 1 µs up to 10 ms; timed sleeps like those trade wake-up latency
//! against idle CPU burn.  An eventcount removes that trade-off: waiters
//! block on an OS primitive and producers wake them in O(µs), with a
//! protocol that makes a **lost wakeup impossible**.  The paper's intervals
//! survive as the scheduler's parking constants (a spin/yield prefix, a
//! handshake poll window, a defensive backstop), and
//! [`Backoff`](crate::Backoff) keeps only the spin-then-yield prefix:
//!
//! 1. [`prepare_wait`](EventCount::prepare_wait) — read the *ticket* (a
//!    global notification counter) before re-checking the wait condition.
//! 2. **Recheck** — the caller re-evaluates its condition.  Any state change
//!    that happened before the ticket read is seen here (the `SeqCst` fence
//!    in `prepare_wait` pairs with the fence notifiers execute before
//!    deciding whether anyone needs waking).
//! 3. [`park`](EventCount::park) (commit) or nothing (cancel; there is
//!    nothing to undo).  `park` re-reads the ticket after publishing the
//!    parked state: a notification that raced with the recheck bumped the
//!    ticket and aborts the park before it blocks.
//!
//! Waiters occupy **cache-padded per-slot waiter records** (one per worker)
//! over a `Mutex`/`Condvar` pair, so notifications can target a specific
//! worker ([`notify_slot`](EventCount::notify_slot)) and the wake scan never
//! false-shares.  Parks carry a *class* ([`ParkClass`]): anonymous work
//! notifications ([`notify_one_idle`](EventCount::notify_one_idle)) wake
//! only [`ParkClass::Idle`] parkers, so a coordinator blocked in a team
//! handshake can never swallow a "new work arrived" wakeup meant for an idle
//! thief.
//!
//! Every park takes a caller-supplied **backstop timeout**.  The protocol
//! does not rely on it — it exists so that a missed-notification *bug*
//! degrades into bounded extra latency (and a visible
//! [`WakeReason::Backstop`] count) instead of a deadlock.
//!
//! ```
//! use std::sync::atomic::{AtomicBool, Ordering};
//! use std::sync::Arc;
//! use std::time::Duration;
//! use teamsteal_util::eventcount::{EventCount, ParkClass, WakeReason};
//!
//! let ec = Arc::new(EventCount::new(1));
//! let ready = Arc::new(AtomicBool::new(false));
//! let (ec2, ready2) = (Arc::clone(&ec), Arc::clone(&ready));
//! let waiter = std::thread::spawn(move || loop {
//!     let ticket = ec2.prepare_wait();
//!     if ready2.load(Ordering::Acquire) {
//!         break; // recheck saw the flag: no park needed
//!     }
//!     ec2.park(0, ticket, ParkClass::Idle, Duration::from_secs(5));
//! });
//! ready.store(true, Ordering::Release);
//! ec.notify_one_idle();
//! waiter.join().unwrap();
//! ```

use crate::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::sync::time::Instant;
use crate::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::CachePadded;

/// Slot is not parked.
const EMPTY: u32 = 0;
/// Slot is parked and may be woken by anonymous work notifications.
const PARKED_IDLE: u32 = 1;
/// Slot is parked waiting for a targeted handshake event; only
/// [`EventCount::notify_slot`] / [`EventCount::notify_all`] wake it.
const PARKED_HANDSHAKE: u32 = 2;
/// Slot has been claimed by a notifier; the waiter consumes this on wake.
const NOTIFIED: u32 = 3;

/// What a parked waiter is willing to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkClass {
    /// An idle worker waiting for *any* work to appear.  Woken by
    /// [`EventCount::notify_one_idle`] and by targeted notifications.
    Idle,
    /// A worker waiting for a specific handshake (team registration,
    /// publication, start countdown).  Only targeted notifications
    /// ([`EventCount::notify_slot`], [`EventCount::notify_all`]) wake it, so
    /// anonymous work wakeups are never swallowed by a waiter that cannot
    /// act on them.
    Handshake,
}

impl ParkClass {
    fn state(self) -> u32 {
        match self {
            ParkClass::Idle => PARKED_IDLE,
            ParkClass::Handshake => PARKED_HANDSHAKE,
        }
    }
}

/// Why [`EventCount::park`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// A notifier explicitly claimed this waiter.  Carries the
    /// notification-to-wake latency (measured from the notifier's clock
    /// read to the waiter observing the claim).
    Notified(Duration),
    /// The global ticket moved between `prepare_wait` and the park blocking:
    /// *some* notification happened system-wide while this waiter was
    /// committing, so it aborts and re-checks its condition instead of
    /// risking a sleep through the event.
    TicketChanged,
    /// The defensive backstop timeout expired without any notification.
    /// Healthy schedulers show (almost) none of these; a growing count means
    /// a state change forgot its notify call.
    Backstop,
}

impl WakeReason {
    /// `true` for [`WakeReason::Backstop`].
    pub fn is_spurious(&self) -> bool {
        matches!(self, WakeReason::Backstop)
    }
}

/// One waiter record.  Cache-padded by the containing array so a notifier
/// scanning for parked slots never invalidates a neighbour's line.
struct WaiterSlot {
    /// `EMPTY` / `PARKED_IDLE` / `PARKED_HANDSHAKE` / `NOTIFIED`.  Notifiers
    /// claim a parked slot by CASing `PARKED_* → NOTIFIED`; exactly one
    /// notifier wins, so each notification wakes at most one waiter.
    state: AtomicU32,
    /// Notifier's clock (nanoseconds since the eventcount's anchor) at claim
    /// time, for wake-latency measurement.  Written before the claim CAS.
    notified_at_ns: AtomicU64,
    /// The blocking primitive.  The mutex protects nothing but the condvar
    /// wait itself; all state lives in the atomics above.
    lock: Mutex<()>,
    cv: Condvar,
}

/// A fixed-capacity eventcount with per-slot waiter records.  See the
/// [module docs](self) for the protocol.
pub struct EventCount {
    /// The notification ticket.  Every notification bumps it, so a waiter
    /// whose `prepare_wait` ticket is stale knows *something* happened and
    /// refuses to block.
    ticket: CachePadded<AtomicU64>,
    /// Rotating start index for the anonymous wake scan, so repeated
    /// `notify_one_idle` calls spread wakes over the sleepers instead of
    /// hammering slot 0.
    scan_from: CachePadded<AtomicUsize>,
    slots: Box<[CachePadded<WaiterSlot>]>,
    /// Anchor for the `notified_at_ns` timestamps.
    anchor: Instant,
}

impl std::fmt::Debug for EventCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventCount")
            .field("slots", &self.slots.len())
            .field("ticket", &self.ticket.load(Ordering::Relaxed))
            .finish()
    }
}

impl EventCount {
    /// Creates an eventcount with `slots` waiter records (one per worker).
    pub fn new(slots: usize) -> EventCount {
        EventCount {
            ticket: CachePadded::new(AtomicU64::new(0)),
            scan_from: CachePadded::new(AtomicUsize::new(0)),
            slots: (0..slots.max(1))
                .map(|_| {
                    CachePadded::new(WaiterSlot {
                        state: AtomicU32::new(EMPTY),
                        notified_at_ns: AtomicU64::new(0),
                        lock: Mutex::new(()),
                        cv: Condvar::new(),
                    })
                })
                .collect(),
            anchor: Instant::now(),
        }
    }

    /// Number of waiter slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Nanoseconds since this eventcount was created (the timestamp base of
    /// wake-latency measurement).
    #[inline]
    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Step 1 of the wait protocol: announce intent and read the ticket.
    ///
    /// The caller **must** re-check its wait condition after this call and
    /// before [`park`](EventCount::park): the `SeqCst` fence here pairs with
    /// the fence notifiers execute before reading waiter counts, so either
    /// the recheck sees the state change, or the notifier sees the waiter
    /// (and bumps the ticket / signals the slot).  There is no cancel
    /// operation — if the recheck fires, simply do not park.
    #[inline]
    pub fn prepare_wait(&self) -> u64 {
        // The caller (e.g. the scheduler's sleep controller) has already
        // announced itself as a sleeper with a SeqCst RMW; this fence closes
        // the Dekker pattern against notifiers for callers that did not.
        fence(Ordering::SeqCst);
        self.ticket.load(Ordering::SeqCst)
    }

    /// Step 3 of the wait protocol: block until notified, until the ticket
    /// moves, or until `backstop` expires.
    ///
    /// `ticket` must come from [`prepare_wait`](EventCount::prepare_wait) on
    /// this eventcount, and the caller's wait condition must have been
    /// re-checked in between.  One slot must never be parked by two threads
    /// at once (the scheduler gives each worker its own slot).
    pub fn park(
        &self,
        slot: usize,
        ticket: u64,
        class: ParkClass,
        backstop: Duration,
    ) -> WakeReason {
        let s = &*self.slots[slot];
        // Publish the parked state *before* re-reading the ticket: if a
        // notifier's bump is not visible to the re-read below, the bump is
        // later in the SeqCst order, so the notifier's wake scan (which
        // follows its bump) is guaranteed to observe our parked state.
        s.state.store(class.state(), Ordering::SeqCst);
        let deadline = Instant::now() + backstop;
        let mut guard = s.lock.lock().expect("eventcount slot mutex poisoned");
        let reason = loop {
            let state = s.state.load(Ordering::SeqCst);
            if state == NOTIFIED {
                let latency = self
                    .now_ns()
                    .saturating_sub(s.notified_at_ns.load(Ordering::Relaxed));
                break WakeReason::Notified(Duration::from_nanos(latency));
            }
            if self.ticket.load(Ordering::SeqCst) != ticket {
                break WakeReason::TicketChanged;
            }
            let now = Instant::now();
            if now >= deadline {
                break WakeReason::Backstop;
            }
            let (g, _) =
                s.cv.wait_timeout(guard, deadline - now)
                    .expect("eventcount slot mutex poisoned");
            guard = g;
        };
        // Reclaim the slot.  A notifier may have claimed us concurrently
        // with a ticket/backstop exit; the store consumes that claim — we
        // are awake either way, so the wake is not lost, merely
        // misattributed to the other reason.
        s.state.store(EMPTY, Ordering::SeqCst);
        drop(guard);
        reason
    }

    /// Claims slot `index` if it is parked (either class): timestamp, CAS to
    /// `NOTIFIED`, signal.  Returns `true` if this call claimed it.
    fn claim(&self, index: usize) -> bool {
        let s = &*self.slots[index];
        let state = s.state.load(Ordering::SeqCst);
        if state != PARKED_IDLE && state != PARKED_HANDSHAKE {
            return false;
        }
        // Timestamp before the claim so the waiter (which reads it after
        // observing NOTIFIED) never sees an unwritten value.
        s.notified_at_ns.store(self.now_ns(), Ordering::Relaxed);
        if s.state
            .compare_exchange(state, NOTIFIED, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        // Lock-then-signal: the waiter holds the mutex from before its state
        // check until inside `wait_timeout`, so acquiring it here means the
        // waiter is either before the check (it will see NOTIFIED) or inside
        // the wait (the signal reaches it).
        drop(s.lock.lock().expect("eventcount slot mutex poisoned"));
        s.cv.notify_one();
        true
    }

    /// [`claim`](Self::claim) restricted to [`ParkClass::Idle`] parkers: what
    /// every anonymous wake uses, so a handshake waiter never swallows one.
    fn claim_if_idle(&self, index: usize) -> bool {
        self.slots[index].state.load(Ordering::SeqCst) == PARKED_IDLE && self.claim(index)
    }

    /// Wakes one [`ParkClass::Idle`] waiter, if any is parked.  Bumps the
    /// ticket first, so concurrent `prepare_wait`/`park` callers abort
    /// instead of sleeping through this notification.  Returns `true` if a
    /// parked waiter was claimed.
    pub fn notify_one_idle(&self) -> bool {
        // Fault injection (model builds only): swallow the notification
        // entirely — no ticket bump, no claim — so model tests can check
        // the §12 defensive-backstop claim that a *lost* wake costs
        // bounded latency rather than a deadlock.
        #[cfg(teamsteal_model)]
        if crate::sync::fault::take_dropped_notify() {
            return false;
        }
        self.ticket.fetch_add(1, Ordering::SeqCst);
        self.claim_one_idle_rotating()
    }

    /// Wakes one [`ParkClass::Idle`] waiter, preferring slots inside
    /// `preferred` (scanned in order) before falling back to the global
    /// rotating scan — the locality-aware variant of
    /// [`notify_one_idle`](EventCount::notify_one_idle) the scheduler uses
    /// for domain-affine injection wakes (DESIGN.md §13).  Exactly like the
    /// anonymous wake it claims **only idle parkers**, so a handshake waiter
    /// can never swallow it.  Returns `true` if a parked waiter was claimed.
    pub fn notify_one_idle_in(&self, preferred: std::ops::Range<usize>) -> bool {
        self.ticket.fetch_add(1, Ordering::SeqCst);
        if (preferred.start..preferred.end.min(self.slots.len())).any(|i| self.claim_if_idle(i)) {
            return true;
        }
        // Fall back outward: any idle sleeper is better than a lost wake.
        // (Re-visiting the preferred slots is harmless — they are not
        // parked idle, so the scan skips them.)
        self.claim_one_idle_rotating()
    }

    /// Wakes **every** [`ParkClass::Idle`] waiter parked in `block` with one
    /// ticket bump, or — when the block has none — one idle waiter anywhere:
    /// the wake for work that needs the whole block (a team task injected
    /// from outside, DESIGN.md §12), where waking one worker that then wakes
    /// the next would put the two wake-ups in series.  Handshake parkers are
    /// left alone, as by every anonymous wake.  Returns the number of
    /// waiters claimed.
    pub fn notify_idle_block(&self, block: std::ops::Range<usize>) -> usize {
        self.ticket.fetch_add(1, Ordering::SeqCst);
        let claimed = (block.start..block.end.min(self.slots.len()))
            .filter(|&i| self.claim_if_idle(i))
            .count();
        if claimed == 0 {
            return usize::from(self.claim_one_idle_rotating());
        }
        claimed
    }

    /// The anonymous wake scan: rotating start, claims the first
    /// `PARKED_IDLE` slot.  The caller has already bumped the ticket.
    fn claim_one_idle_rotating(&self) -> bool {
        let n = self.slots.len();
        let start = self.scan_from.fetch_add(1, Ordering::Relaxed);
        (0..n).any(|i| self.claim_if_idle((start + i) % n))
    }

    /// Wakes slot `index` regardless of its park class.  Returns `true` if
    /// it was parked and this call claimed it; in every case the ticket bump
    /// keeps a concurrently committing waiter from sleeping through the
    /// event.
    pub fn notify_slot(&self, index: usize) -> bool {
        self.ticket.fetch_add(1, Ordering::SeqCst);
        self.claim(index)
    }

    /// Wakes every slot in `indices` (one ticket bump for the whole batch).
    /// Returns the number of parked waiters claimed.
    pub fn notify_slots(&self, indices: impl IntoIterator<Item = usize>) -> usize {
        self.ticket.fetch_add(1, Ordering::SeqCst);
        indices.into_iter().filter(|&i| self.claim(i)).count()
    }

    /// Wakes every parked waiter of both classes (shutdown, stall resync).
    /// Returns the number claimed.
    pub fn notify_all(&self) -> usize {
        self.ticket.fetch_add(1, Ordering::SeqCst);
        (0..self.slots.len()).filter(|&i| self.claim(i)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn notify_one_wakes_a_parked_idle_waiter() {
        let ec = Arc::new(EventCount::new(2));
        let flag = Arc::new(AtomicBool::new(false));
        let (ec2, flag2) = (Arc::clone(&ec), Arc::clone(&flag));
        let waiter = std::thread::spawn(move || loop {
            let t = ec2.prepare_wait();
            if flag2.load(Ordering::Acquire) {
                break;
            }
            let reason = ec2.park(0, t, ParkClass::Idle, LONG);
            assert_ne!(reason, WakeReason::Backstop, "no backstop expected");
        });
        // Give the waiter a moment to actually park, then publish + notify.
        std::thread::sleep(Duration::from_millis(20));
        flag.store(true, Ordering::Release);
        ec.notify_one_idle();
        waiter.join().unwrap();
    }

    #[test]
    fn ticket_change_aborts_a_commit_in_flight() {
        let ec = EventCount::new(1);
        let t = ec.prepare_wait();
        // A notification between prepare and park must abort the park even
        // though no slot was parked when it fired.
        assert!(!ec.notify_one_idle(), "nobody parked yet");
        let reason = ec.park(0, t, ParkClass::Idle, LONG);
        assert_eq!(reason, WakeReason::TicketChanged);
    }

    #[test]
    fn backstop_fires_without_notification() {
        let ec = EventCount::new(1);
        let t = ec.prepare_wait();
        let start = Instant::now();
        let reason = ec.park(0, t, ParkClass::Idle, Duration::from_millis(30));
        assert_eq!(reason, WakeReason::Backstop);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn handshake_parks_ignore_anonymous_notifications() {
        let ec = Arc::new(EventCount::new(2));
        let stop = Arc::new(AtomicBool::new(false));
        let (ec2, stop2) = (Arc::clone(&ec), Arc::clone(&stop));
        let waiter = std::thread::spawn(move || {
            let mut woken_by_notify = false;
            loop {
                let t = ec2.prepare_wait();
                if stop2.load(Ordering::Acquire) {
                    break;
                }
                if let WakeReason::Notified(_) = ec2.park(1, t, ParkClass::Handshake, LONG) {
                    woken_by_notify = true;
                }
            }
            woken_by_notify
        });
        std::thread::sleep(Duration::from_millis(20));
        // Anonymous wake: must not claim the handshake parker (the ticket
        // bump may still abort its next commit, which is fine).
        assert!(
            !ec.notify_one_idle(),
            "handshake parker must not be claimed"
        );
        std::thread::sleep(Duration::from_millis(20));
        // Targeted wake reaches it.
        stop.store(true, Ordering::Release);
        assert!(
            ec.notify_slot(1) || {
                // The waiter may have been between parks (ticket bump covers
                // it); either way it must terminate.
                true
            }
        );
        let _ = waiter.join().unwrap();
    }

    #[test]
    fn targeted_notify_wakes_the_right_slot() {
        let ec = Arc::new(EventCount::new(4));
        let stop = Arc::new(AtomicBool::new(false));
        let waiters: Vec<_> = (0..4)
            .map(|slot| {
                let (ec, stop) = (Arc::clone(&ec), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut notified_wakes = 0u32;
                    loop {
                        let t = ec.prepare_wait();
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        if let WakeReason::Notified(latency) =
                            ec.park(slot, t, ParkClass::Handshake, LONG)
                        {
                            assert!(latency < LONG);
                            // The shutdown notify_all below also claims
                            // slots; only count wakes from the targeted
                            // poking phase.
                            if !stop.load(Ordering::Acquire) {
                                notified_wakes += 1;
                            }
                        }
                    }
                    notified_wakes
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        // Repeatedly poke slot 2 only.
        let mut claimed = 0;
        for _ in 0..50 {
            if ec.notify_slot(2) {
                claimed += 1;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(claimed > 0, "slot 2 should have been parked at least once");
        stop.store(true, Ordering::Release);
        ec.notify_all();
        let wakes: Vec<u32> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
        assert_eq!(
            wakes[0] + wakes[1] + wakes[3],
            0,
            "only slot 2 was targeted"
        );
        assert!(wakes[2] > 0);
    }

    #[test]
    fn notify_one_idle_in_prefers_the_given_range() {
        let ec = Arc::new(EventCount::new(4));
        let stop = Arc::new(AtomicBool::new(false));
        let woken: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
        let waiters: Vec<_> = (0..4)
            .map(|slot| {
                let (ec, stop, woken) = (Arc::clone(&ec), Arc::clone(&stop), Arc::clone(&woken));
                std::thread::spawn(move || loop {
                    let t = ec.prepare_wait();
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let WakeReason::Notified(_) = ec.park(slot, t, ParkClass::Idle, LONG) {
                        if !stop.load(Ordering::Acquire) {
                            woken[slot].fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        let all_parked = |slots: std::ops::Range<usize>| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !slots
                .clone()
                .all(|i| ec.slots[i].state.load(Ordering::SeqCst) == PARKED_IDLE)
            {
                assert!(
                    Instant::now() < deadline,
                    "waiters {slots:?} not parked within 10 s"
                );
                std::thread::yield_now();
            }
        };
        all_parked(0..4);
        // Repeatedly wake with a preference for slots 2..4; slots 0 and 1
        // must never be claimed while a preferred sleeper is available.
        // Each wake first waits until both are parked: a woken waiter may
        // take longer than the pause below to park again on an
        // oversubscribed host, and with neither preferred slot parked the
        // fallback rightly wakes slot 0 or 1.
        let mut claimed = 0;
        for _ in 0..50 {
            all_parked(2..4);
            if ec.notify_one_idle_in(2..4) {
                claimed += 1;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(claimed > 0, "preferred-range wakes should land");
        stop.store(true, Ordering::Release);
        ec.notify_all();
        for w in waiters {
            w.join().unwrap();
        }
        let out_of_range: u64 = woken[0].load(Ordering::SeqCst) + woken[1].load(Ordering::SeqCst);
        let in_range: u64 = woken[2].load(Ordering::SeqCst) + woken[3].load(Ordering::SeqCst);
        assert!(in_range > 0, "preferred sleepers were woken");
        assert_eq!(
            out_of_range, 0,
            "a preferred sleeper was always parked, so the fallback never fired"
        );
    }

    #[test]
    fn notify_one_idle_in_falls_back_outside_the_range() {
        let ec = Arc::new(EventCount::new(4));
        let flag = Arc::new(AtomicBool::new(false));
        let (ec2, flag2) = (Arc::clone(&ec), Arc::clone(&flag));
        // Only slot 0 parks; a wake preferring 2..4 must still reach it.
        let waiter = std::thread::spawn(move || loop {
            let t = ec2.prepare_wait();
            if flag2.load(Ordering::Acquire) {
                break;
            }
            ec2.park(0, t, ParkClass::Idle, LONG);
        });
        std::thread::sleep(Duration::from_millis(20));
        flag.store(true, Ordering::Release);
        ec.notify_one_idle_in(2..4);
        waiter.join().unwrap();
    }

    #[test]
    fn notify_idle_block_wakes_the_blocks_idle_waiters_together() {
        let ec = Arc::new(EventCount::new(4));
        // Starts a waiter that parks `slot` once, and returns when the park
        // is published; `settle` then covers the few instructions from there
        // to the condvar, after which a ticket bump no longer ends the park.
        let park_once = |slot: usize, class: ParkClass| {
            let waiter = {
                let ec = Arc::clone(&ec);
                std::thread::spawn(move || {
                    let t = ec.prepare_wait();
                    ec.park(slot, t, class, LONG)
                })
            };
            while ec.slots[slot].state.load(Ordering::SeqCst) == EMPTY {
                std::thread::yield_now();
            }
            waiter
        };
        let settle = || std::thread::sleep(Duration::from_millis(20));
        // Slots 0 and 1 are the block: one idle waiter, one in a handshake.
        let in_block = park_once(0, ParkClass::Idle);
        let handshake = park_once(1, ParkClass::Handshake);
        settle();
        assert_eq!(
            ec.notify_idle_block(0..2),
            1,
            "the idle waiter, not the handshake"
        );
        assert!(matches!(in_block.join().unwrap(), WakeReason::Notified(_)));
        // No idle waiter left in the block: one from outside it, as for any
        // anonymous work; the other one is in the next call's block.
        let outside = [park_once(2, ParkClass::Idle), park_once(3, ParkClass::Idle)];
        settle();
        assert_eq!(ec.notify_idle_block(0..2), 1);
        assert_eq!(ec.notify_idle_block(2..4), 1);
        for waiter in outside {
            assert!(matches!(waiter.join().unwrap(), WakeReason::Notified(_)));
        }
        assert!(
            ec.notify_slot(1),
            "the handshake waiter slept through all of it"
        );
        assert!(matches!(handshake.join().unwrap(), WakeReason::Notified(_)));
    }

    #[test]
    fn producer_consumer_ping_pong_never_loses_a_wakeup() {
        // The lost-wakeup stress: a consumer parks between items, a producer
        // publishes one item at a time and notifies.  Any lost wakeup shows
        // up as a Backstop (long stall) — with a generous backstop this test
        // would time out rather than pass silently.
        const ITEMS: u64 = 2_000;
        let ec = Arc::new(EventCount::new(1));
        let item = Arc::new(AtomicU64::new(0));
        let (ec2, item2) = (Arc::clone(&ec), Arc::clone(&item));
        let consumer = std::thread::spawn(move || {
            let mut seen = 0u64;
            let mut backstops = 0u32;
            while seen < ITEMS {
                let t = ec2.prepare_wait();
                let current = item2.load(Ordering::Acquire);
                if current > seen {
                    seen = current;
                    continue;
                }
                if ec2.park(0, t, ParkClass::Idle, Duration::from_secs(5)) == WakeReason::Backstop {
                    backstops += 1;
                }
            }
            backstops
        });
        for i in 1..=ITEMS {
            item.store(i, Ordering::Release);
            ec.notify_one_idle();
            // Occasionally let the consumer actually park.
            if i % 64 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let backstops = consumer.join().unwrap();
        assert_eq!(backstops, 0, "a backstop means a notification was lost");
    }

    #[test]
    fn notify_all_wakes_everyone() {
        let ec = Arc::new(EventCount::new(3));
        let stop = Arc::new(AtomicBool::new(false));
        let waiters: Vec<_> = (0..3)
            .map(|slot| {
                let (ec, stop) = (Arc::clone(&ec), Arc::clone(&stop));
                std::thread::spawn(move || loop {
                    let t = ec.prepare_wait();
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    ec.park(slot, t, ParkClass::Handshake, LONG);
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, Ordering::Release);
        ec.notify_all();
        for w in waiters {
            w.join().unwrap();
        }
    }
}
