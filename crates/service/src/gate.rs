//! The drain gate: the service's exactly-once graceful-shutdown protocol
//! (DESIGN.md §16).
//!
//! Every submission enters the gate before it touches the scheduler and
//! exits it once its task is **counted** in the service's scope (or the
//! submission failed), so the gate's `in_flight` counter covers exactly the
//! submitters mid-pipeline.  `drain()` flips the gate shut, waits for
//! `in_flight` to hit zero, and then waits for the scope's countdown to
//! empty; the inc-then-check entry protocol makes the classic drain race
//! (a submitter slipping a task in after the drainer decided the service
//! is empty) impossible.
//!
//! The protocol runs on `teamsteal_util::sync` types, so the model suite
//! (`crates/model/tests/service_model.rs`) explores every interleaving of
//! racing submitters against a drainer and a worker through the
//! `cfg(teamsteal_model)` shim, with the gate composed with the real scope
//! countdown — the ordering argument below is machine-checked, not
//! prose-only.
//!
//! ## Why inc-then-check is safe (DESIGN.md §16 table, rows A–D)
//!
//! All gate accesses are `SeqCst`, so they embed into one total order `S`.
//! A submitter increments `in_flight` (A) and *then* loads `state` (B); the
//! drainer CASes `state` from `Open` to `Draining` (C) and then repeatedly
//! loads `in_flight` until it reads zero (D).
//!
//! * If A follows C in `S`, then B does too, and since `state` never
//!   returns to `Open`, B observes `Draining` and the submitter rejects
//!   (decrementing what it incremented).  No task enters after C unseen.
//! * If A precedes C, the increment is visible to every D, so the drainer
//!   cannot observe zero until the submission's matching exit — which for
//!   an *admitted* task follows the scope's count of it.  The drainer's
//!   scope wait that comes next therefore covers the task: "drain returns
//!   ⇒ every admitted task has completed".
//! * Exactly-once: only one caller wins the `Open → Draining` CAS; every
//!   later `drain()` observes the transition and merely waits.
//!
//! The exit path's wakeup cannot be lost: the final decrement takes the
//! monitor lock before notifying, and the drainer re-checks `in_flight`
//! under that same lock before parking, with a defensive backstop timeout
//! on top (the same belt-and-suspenders shape as the eventcount, §12).
//! In the service the backstop is purely defensive: a submission holds its
//! entry across a few atomic checks and the scope's injection, with no
//! sleep of its own (only the scheduler's spin-then-yield wait for a pin
//! slot when more submitters than pin slots race), so the final exit's
//! notification, not the timeout, ends a drain's wait.

use std::time::Duration;

use teamsteal_util::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use teamsteal_util::sync::{Condvar, Mutex};

/// Lifecycle of a [`DrainGate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateState {
    /// Accepting submissions.
    Open,
    /// `drain()` has begun: new submissions are rejected, ones already in
    /// the gate may still be completing.
    Draining,
    /// No submission is in flight and none can enter; the gate is
    /// permanently shut.
    Drained,
}

const OPEN: u32 = 0;
const DRAINING: u32 = 1;
const DRAINED: u32 = 2;

/// The admission/drain gate described in the module docs.
pub struct DrainGate {
    state: AtomicU32,
    /// Submissions mid-pipeline: entered, not yet exited.
    in_flight: AtomicUsize,
    /// Times the drainer's backstop timeout fired with work still in
    /// flight (i.e. the defensive `wait_timeout` did real waiting instead
    /// of being woken by the final exit).  Mirrors the §12 eventcount
    /// backstop counter.  A fire needs an entry held longer than the
    /// backstop duration (the service's submissions never sleep inside
    /// the gate, so only a descheduled submitter holds one that long);
    /// what would indicate a lost-notification bug is the counter growing
    /// while `in_flight` holds steady at a small value with no long entry
    /// held.
    backstops: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Default for DrainGate {
    fn default() -> Self {
        Self::new()
    }
}

impl DrainGate {
    /// Creates an open gate with nothing in flight.
    pub fn new() -> Self {
        DrainGate {
            state: AtomicU32::new(OPEN),
            in_flight: AtomicUsize::new(0),
            backstops: AtomicU64::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Attempts to enter the gate.  On `true` the caller holds one
    /// `in_flight` reference and **must** balance it exactly once with
    /// [`exit`](Self::exit) — typically once the submission has handed its
    /// task to the scheduler.
    /// On `false` the gate is draining (or drained) and the reference has
    /// already been released.
    pub fn try_enter(&self) -> bool {
        // Inc *before* the state check: a concurrent drainer either sees
        // this increment (and waits for our exit) or already flipped the
        // state (and the load below observes it).  See module docs.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.state.load(Ordering::SeqCst) != OPEN {
            self.exit();
            return false;
        }
        true
    }

    /// Releases one `in_flight` reference taken by a successful
    /// [`try_enter`](Self::try_enter).  The final exit during a drain
    /// notifies the waiting drainer through the monitor.
    pub fn exit(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1
            && self.state.load(Ordering::SeqCst) != OPEN
        {
            // Taking the lock before notifying closes the window where the
            // drainer has checked `in_flight` but not yet parked.
            let _guard = self.lock.lock().expect("drain gate lock poisoned");
            self.cv.notify_all();
        }
    }

    /// Flips the gate from `Open` to `Draining`.  Returns `true` for the
    /// single caller that performed the transition; `false` if a drain was
    /// already in progress (or finished).
    pub fn begin_drain(&self) -> bool {
        self.state
            .compare_exchange(OPEN, DRAINING, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Blocks until `in_flight` reaches zero, then marks the gate
    /// `Drained`.  Call only after [`begin_drain`](Self::begin_drain) has
    /// happened (by this caller or a racing one); idempotent across racing
    /// drainers.  `backstop` bounds one park against a (hypothetical) lost
    /// notification; the protocol itself does not rely on it.
    pub fn await_empty(&self, backstop: Duration) {
        let mut guard = self.lock.lock().expect("drain gate lock poisoned");
        while self.in_flight.load(Ordering::SeqCst) != 0 {
            let (g, timeout) = self
                .cv
                .wait_timeout(guard, backstop)
                .expect("drain gate lock poisoned");
            guard = g;
            // Count backstop fires that did real work: the timeout elapsed
            // and in-flight work remained, so this iteration re-parks
            // instead of exiting.  Spurious timed-out wakes racing the
            // final exit (in_flight already 0) are not backstops.
            if timeout.timed_out() && self.in_flight.load(Ordering::SeqCst) != 0 {
                self.backstops.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(guard);
        self.state.store(DRAINED, Ordering::SeqCst);
    }

    /// Current lifecycle state (point-in-time; may be stale immediately).
    pub fn state(&self) -> GateState {
        match self.state.load(Ordering::SeqCst) {
            OPEN => GateState::Open,
            DRAINING => GateState::Draining,
            _ => GateState::Drained,
        }
    }

    /// Current `in_flight` count (point-in-time; may be stale immediately).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Number of drainer backstop-timeout fires that found work still in
    /// flight (see the field docs for how to read it).  Surfaced through
    /// `TaskService::report`.
    pub fn backstops(&self) -> u64 {
        self.backstops.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_exit_balances() {
        let gate = DrainGate::new();
        assert_eq!(gate.state(), GateState::Open);
        assert!(gate.try_enter());
        assert!(gate.try_enter());
        assert_eq!(gate.in_flight(), 2);
        gate.exit();
        gate.exit();
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn drain_rejects_new_entries_and_is_exactly_once() {
        let gate = DrainGate::new();
        assert!(gate.begin_drain(), "first drainer wins the transition");
        assert!(!gate.begin_drain(), "second drainer must not win again");
        assert!(!gate.try_enter(), "entries after begin_drain are rejected");
        assert_eq!(gate.in_flight(), 0, "rejected entry released itself");
        gate.await_empty(Duration::from_millis(10));
        assert_eq!(gate.state(), GateState::Drained);
        assert!(!gate.try_enter(), "entries after the drain stay rejected");
    }

    #[test]
    fn await_empty_blocks_until_last_exit() {
        let gate = std::sync::Arc::new(DrainGate::new());
        assert!(gate.try_enter());
        assert!(gate.begin_drain());
        let worker = {
            let gate = std::sync::Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                gate.exit();
            })
        };
        gate.await_empty(Duration::from_millis(5));
        assert_eq!(gate.in_flight(), 0);
        assert_eq!(gate.state(), GateState::Drained);
        worker.join().unwrap();
        // The 5 ms backstop fired at least once during the 20 ms wait with
        // the entry still in flight, and the counter saw it.
        assert!(gate.backstops() >= 1, "backstop fires are counted");
    }

    #[test]
    fn uncontended_drain_counts_no_backstops() {
        let gate = DrainGate::new();
        assert!(gate.try_enter());
        gate.exit();
        assert!(gate.begin_drain());
        gate.await_empty(Duration::from_millis(10));
        assert_eq!(gate.state(), GateState::Drained);
        assert_eq!(
            gate.backstops(),
            0,
            "nothing in flight, nothing to back stop"
        );
    }
}
