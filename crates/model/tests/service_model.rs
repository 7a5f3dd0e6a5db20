//! Model-checked tests for the task service's drain protocol (`DESIGN.md`
//! §16): the drain gate composed with the scope countdown.
//!
//! The protocols under test are the real ones: `teamsteal_service::gate`
//! and `teamsteal_util::countdown` are built on the `teamsteal_util::sync`
//! shim, so under `--cfg teamsteal_model` the [`DrainGate`] and the
//! [`ShardedCountdown`] run on the explorer's virtual atomics and monitors,
//! and every interleaving of racing submitters against a drainer and a
//! worker is enumerated.  The gate brackets only the submission — a
//! submitter leaves it once its task is counted — and the countdown alone
//! tracks completion, as in `TaskService`.  The invariants are the
//! service's drain guarantee:
//!
//! 1. **No admitted task is dropped**: when the drain returns (gate empty,
//!    then countdown empty), every submission that won `try_enter` has
//!    been run by the worker.
//! 2. **No post-drain execution**: no task runs after the drain returned.
//! 3. **Exactly-once drain**: of racing drainers, exactly one performs the
//!    `Open → Draining` transition.
//!
//! A negative control shows the composition has teeth: a submitter that
//! leaves the gate before its task is counted is caught with the drain
//! returning early.
//!
//! Run with `RUSTFLAGS='--cfg teamsteal_model' cargo test -p teamsteal-model`.
#![cfg(teamsteal_model)]

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

use teamsteal_model::{thread, Builder};
use teamsteal_service::gate::{DrainGate, GateState};
use teamsteal_util::countdown::ShardedCountdown;
use teamsteal_util::sync::atomic::{AtomicUsize, Ordering};
use teamsteal_util::sync::{Condvar, Mutex};

/// Long enough that it can only fire via the model's
/// nothing-else-runnable timeout escape, never en passant.
const BACKSTOP: Duration = Duration::from_millis(10);

/// Countdown shard keys: the worker's, and the one external submitters
/// share (as `ConcurrentScope` counts root tasks).
const WORKER: usize = 0;
const EXTERNAL: usize = 1;

const SUBMITTERS: usize = 2;

/// What the submitters, the worker and the drainer share: the service in
/// miniature, with the injector as a locked queue.
struct Service {
    gate: DrainGate,
    countdown: ShardedCountdown,
    queue: Mutex<Vec<usize>>,
    queue_cv: Condvar,
    admitted: AtomicUsize,
    completed: AtomicUsize,
    drain_returned: AtomicUsize,
    post_drain_runs: AtomicUsize,
    submitters_done: AtomicUsize,
}

impl Service {
    fn new() -> Arc<Self> {
        Arc::new(Service {
            gate: DrainGate::new(),
            countdown: ShardedCountdown::new(2),
            queue: Mutex::new(Vec::new()),
            queue_cv: Condvar::new(),
            admitted: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            drain_returned: AtomicUsize::new(0),
            post_drain_runs: AtomicUsize::new(0),
            submitters_done: AtomicUsize::new(0),
        })
    }

    /// `Tenant::submit`: enter the gate, count the admission, count the
    /// task in the scope, inject it, and only then leave the gate.  With
    /// `exit_early` the submitter leaves the gate right after admission —
    /// the ordering mistake the negative control plants.  Returns whether
    /// the submission was admitted.
    fn submit(&self, task_id: usize, exit_early: bool) -> bool {
        let won = self.gate.try_enter();
        if won {
            self.admitted.fetch_add(1, Ordering::SeqCst);
            if exit_early {
                self.gate.exit();
            }
            self.countdown.spawned(EXTERNAL);
            let mut q = self.queue.lock().unwrap();
            q.push(task_id);
            self.queue_cv.notify_all();
            drop(q);
            if !exit_early {
                self.gate.exit();
            }
        }
        self.submitters_done.fetch_add(1, Ordering::SeqCst);
        won
    }

    /// One worker: pops and runs tasks until every submitter is done and
    /// the queue is empty.  A task's completion is counted before its
    /// `finished`, as the completion guard drops before the scope counts
    /// the task finished; the worker signals when it runs out of work.
    fn work(&self) {
        let mut guard = self.queue.lock().unwrap();
        loop {
            if guard.pop().is_some() {
                drop(guard);
                // "Run" the task: an execution after the drain returned
                // would violate the drain guarantee.
                if self.drain_returned.load(Ordering::SeqCst) == 1 {
                    self.post_drain_runs.fetch_add(1, Ordering::SeqCst);
                }
                self.completed.fetch_add(1, Ordering::SeqCst);
                self.countdown.finished(WORKER);
                self.countdown.signal_if_zero();
                guard = self.queue.lock().unwrap();
                continue;
            }
            if self.submitters_done.load(Ordering::SeqCst) == SUBMITTERS {
                return;
            }
            let (g, _) = self.queue_cv.wait_timeout(guard, BACKSTOP).unwrap();
            guard = g;
        }
    }

    /// `ServiceCore::drain`: flip the gate, wait until no submitter is
    /// mid-pipeline, then wait for the countdown.
    fn drain(&self) {
        assert!(self.gate.begin_drain(), "the only drainer wins the CAS");
        self.gate.await_empty(BACKSTOP);
        let by_backstop = self.countdown.wait();
        // Invariant 1: the drain point sees every admitted task already
        // completed — the gate covered submit → counted, the countdown
        // counted → complete.
        assert_eq!(
            self.completed.load(Ordering::SeqCst),
            self.admitted.load(Ordering::SeqCst),
            "drain returned with an admitted task not yet run"
        );
        assert!(
            !by_backstop,
            "lost wake: the countdown wait ended on its backstop"
        );
        self.drain_returned.store(1, Ordering::SeqCst);
    }
}

/// Two submitters race one drainer while a worker runs admitted tasks,
/// with the submitters' gate exits placed as `exit_early` says.  Returns
/// how many submissions were admitted.
fn race(exit_early: bool) -> usize {
    let service = Service::new();
    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|task_id| {
            let service = Arc::clone(&service);
            thread::spawn(move || service.submit(task_id, exit_early))
        })
        .collect();
    let worker = {
        let service = Arc::clone(&service);
        thread::spawn(move || service.work())
    };
    let drainer = {
        let service = Arc::clone(&service);
        thread::spawn(move || service.drain())
    };

    let wins: usize = submitters
        .into_iter()
        .map(|s| s.join().unwrap() as usize)
        .sum();
    drainer.join().unwrap();
    worker.join().unwrap();

    // Invariant 2: no execution after the drain point, on any schedule.
    assert_eq!(
        service.post_drain_runs.load(Ordering::SeqCst),
        0,
        "a task ran after drain() returned"
    );
    assert_eq!(service.completed.load(Ordering::SeqCst), wins);
    assert_eq!(service.countdown.pending(), 0);
    assert_eq!(service.gate.state(), GateState::Drained);
    assert_eq!(service.gate.in_flight(), 0);
    // The gate stays shut forever after the drain.
    assert!(
        !service.gate.try_enter(),
        "post-drain submission must be rejected"
    );
    wins
}

/// The service pipeline in miniature against the production gate and
/// countdown.  On **every** interleaving: drain returns only after all
/// admitted tasks completed, and nothing runs after it returned.
#[test]
fn drain_vs_racing_submitters_loses_nothing() {
    let seen: Arc<StdMutex<BTreeSet<usize>>> = Arc::default();
    let seen_in = Arc::clone(&seen);
    Builder::new().preemption_bound(2).check(move || {
        let wins = race(false);
        seen_in.lock().unwrap().insert(wins);
    });
    // The exploration must reach schedules where the drainer beat both
    // submitters, lost to both, and split them — otherwise the race was
    // never actually explored.
    let seen = seen.lock().unwrap();
    for admitted in [0usize, 1, 2] {
        assert!(
            seen.contains(&admitted),
            "exploration never produced a schedule admitting {admitted} tasks: {seen:?}"
        );
    }
}

/// Negative control: a submitter that leaves the gate **before** its task
/// is counted lets the drainer find the gate empty and the countdown at
/// zero while an admitted task has not run.  The explorer must find that
/// schedule, or the positive test above proves nothing about the order.
#[test]
fn gate_exit_before_count_is_caught_returning_early() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        Builder::new().preemption_bound(2).check(|| {
            race(true);
        });
    }));
    let message = match result {
        Ok(()) => panic!("the explorer never found the early drain"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    };
    assert!(
        message.contains("drain returned with an admitted task not yet run"),
        "failed for another reason: {message}"
    );
}

/// Exactly-once initiation (invariant 3): two racing drainers — exactly
/// one wins the `Open → Draining` CAS on every interleaving, both may wait
/// the gate out, and the gate ends `Drained` with a live entry released
/// in between.
#[test]
fn racing_drainers_initiate_exactly_once() {
    let seen: Arc<StdMutex<BTreeSet<&'static str>>> = Arc::default();
    let seen_in = Arc::clone(&seen);
    Builder::new().check(move || {
        let gate = Arc::new(DrainGate::new());
        // One live entry so await_empty has something to wait for.
        assert!(gate.try_enter());
        let drainers: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                thread::spawn(move || {
                    let initiated = gate.begin_drain();
                    gate.await_empty(BACKSTOP);
                    assert_eq!(gate.in_flight(), 0);
                    initiated
                })
            })
            .collect();
        let completer = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.exit())
        };
        let initiations: usize = drainers
            .into_iter()
            .map(|d| d.join().unwrap() as usize)
            .sum();
        completer.join().unwrap();
        assert_eq!(
            initiations, 1,
            "the Open → Draining transition must be exactly-once"
        );
        assert_eq!(gate.state(), GateState::Drained);
        seen_in.lock().unwrap().insert("done");
    });
    assert!(seen.lock().unwrap().contains("done"));
}
