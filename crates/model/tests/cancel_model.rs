//! Model-checked tests for the cancellation claim-to-run cell
//! (`DESIGN.md` §17).
//!
//! The protocol under test is the real one: [`CancelCell`] is built on the
//! `teamsteal_util::sync` shim, so under `--cfg teamsteal_model` its CASes
//! run on the explorer's virtual atomics and every interleaving of a
//! canceller against the worker that owns the node is enumerated.  The
//! invariants are the run-XOR-drop guarantee the scheduler relies on:
//!
//! 1. **Run XOR drop**: on every schedule the task either executes exactly
//!    once or is retired without running exactly once — never both, never
//!    neither.
//! 2. **Exactly-once retirement**: the scope countdown (`finish_node`'s
//!    `participants` decrement in the real scheduler) fires exactly once
//!    regardless of which side won.
//! 3. **Cancel is a guarantee**: when `cancel()` returns `true` (it
//!    observed the cell un-`Claimed` and won the CAS), the task never runs.
//!
//! Both races from the worker loop are covered: *cancel vs pop* (the
//! canceller against the exclusive owner claiming at `pop`/`run_singleton`
//! time) and *cancel vs steal* (the canceller against two workers racing
//! for node ownership through the deque, the winner of which claim-gates).
//! On top of those, the service-plane compositions: a *batch sweep*
//! (one `CancelToken::cancel` cancelling each batch member's own cell in
//! turn, racing the workers claiming them — each task decides its race
//! independently, so an unswept batch always runs in full) and *expiry vs
//! cancel* (the owning worker's `expire()` against an external
//! `cancel()` — exactly one settles the cell, the task never runs, and
//! the attribution is coherent: `cancel() == true ⇔ is_cancelled()`).
//! Last, *finish vs cancel*: the releaser drops the job's captures and then
//! sets the cell's FINISHED bit, racing a canceller and an observer.  Seen
//! finished, the cell has a terminal outcome, refuses every transition, and
//! the captures are gone; and `cancel() == true ⇔ is_cancelled()` still
//! holds with the bit set.  A negative control that sets the bit before the
//! drop must be caught.
//!
//! Run with `RUSTFLAGS='--cfg teamsteal_model' cargo test -p teamsteal-model`.
#![cfg(teamsteal_model)]

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex as StdMutex};

use teamsteal_core::CancelCell;
use teamsteal_model::{thread, Builder};
use teamsteal_util::sync::atomic::{AtomicUsize, Ordering};

/// The worker-side claim gate, shaped exactly like
/// `worker::claim_for_run` + `finish_node`: claim, then run or drop, then
/// retire the node exactly once either way.  Returns `(ran, dropped)`.
fn claim_and_retire(
    cell: &CancelCell,
    runs: &AtomicUsize,
    drops: &AtomicUsize,
    countdown: &AtomicUsize,
) -> bool {
    let ran = if cell.try_claim() {
        runs.fetch_add(1, Ordering::SeqCst);
        true
    } else {
        // Cancelled first: retire without running.
        drops.fetch_add(1, Ordering::SeqCst);
        false
    };
    // `finish_node`: the scope countdown fires on both paths, once.
    let prev = countdown.fetch_sub(1, Ordering::SeqCst);
    assert_eq!(prev, 1, "scope countdown fired more than once");
    ran
}

/// Cancel vs pop: one worker exclusively owns the node (it popped it from
/// its own deque or the injector) and claim-gates before running, while
/// the submitter's thread races `cancel()`.  On every interleaving the
/// task runs XOR is dropped, the countdown fires exactly once, and a
/// winning `cancel()` means the task never ran.
#[test]
fn cancel_vs_pop_runs_xor_drops() {
    let seen: Arc<StdMutex<BTreeSet<&'static str>>> = Arc::default();
    let seen_in = Arc::clone(&seen);
    Builder::new().preemption_bound(2).check(move || {
        let cell = Arc::new(CancelCell::new());
        let runs = Arc::new(AtomicUsize::new(0));
        let drops = Arc::new(AtomicUsize::new(0));
        let countdown = Arc::new(AtomicUsize::new(1));

        let worker = {
            let cell = Arc::clone(&cell);
            let runs = Arc::clone(&runs);
            let drops = Arc::clone(&drops);
            let countdown = Arc::clone(&countdown);
            thread::spawn(move || claim_and_retire(&cell, &runs, &drops, &countdown))
        };
        let canceller = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || cell.cancel())
        };

        let ran = worker.join().unwrap();
        let cancel_won = canceller.join().unwrap();

        let runs = runs.load(Ordering::SeqCst);
        let drops = drops.load(Ordering::SeqCst);
        // Invariant 1: run XOR drop.
        assert_eq!(runs + drops, 1, "task must run or drop exactly once");
        // Invariant 2: the countdown reached zero (each fire asserts it was
        // the first inside `claim_and_retire`).
        assert_eq!(countdown.load(Ordering::SeqCst), 0);
        // Invariant 3: a winning cancel() is a never-ran guarantee, and the
        // decided race is coherent from both sides.
        assert_eq!(cancel_won, !ran, "exactly one side wins the CAS race");
        if cancel_won {
            assert_eq!(runs, 0, "task ran although cancel() won");
            assert!(cell.is_cancelled());
        } else {
            assert!(cell.is_claimed());
        }
        seen_in
            .lock()
            .unwrap()
            .insert(if ran { "ran" } else { "dropped" });
    });
    // The exploration must have reached both outcomes of the race,
    // otherwise it never actually interleaved the CASes.
    let seen = seen.lock().unwrap();
    for outcome in ["ran", "dropped"] {
        assert!(
            seen.contains(outcome),
            "exploration never produced a schedule where the task {outcome}: {seen:?}"
        );
    }
}

/// Cancel vs steal: two workers race a CAS for ownership of the node (the
/// linearization point of the deque handoff — only one thread ever owns a
/// node), the winner claim-gates exactly like the pop path, and the
/// canceller races both.  On every interleaving exactly one worker touches
/// the cell, the task runs XOR drops, and the countdown fires once.
#[test]
fn cancel_vs_steal_runs_xor_drops() {
    let seen: Arc<StdMutex<BTreeSet<&'static str>>> = Arc::default();
    let seen_in = Arc::clone(&seen);
    Builder::new().preemption_bound(2).check(move || {
        let cell = Arc::new(CancelCell::new());
        let runs = Arc::new(AtomicUsize::new(0));
        let drops = Arc::new(AtomicUsize::new(0));
        let countdown = Arc::new(AtomicUsize::new(1));
        // The node's single ownership slot: 0 = in the deque, 1 = taken.
        // Stealing is a CAS on this slot; the loser never sees the node.
        let owner = Arc::new(AtomicUsize::new(0));

        let workers: Vec<_> = (0..2)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let runs = Arc::clone(&runs);
                let drops = Arc::clone(&drops);
                let countdown = Arc::clone(&countdown);
                let owner = Arc::clone(&owner);
                thread::spawn(move || {
                    if owner
                        .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        // Lost the steal: never touches the node again.
                        return None;
                    }
                    Some(claim_and_retire(&cell, &runs, &drops, &countdown))
                })
            })
            .collect();
        let canceller = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || cell.cancel())
        };

        let outcomes: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        let cancel_won = canceller.join().unwrap();

        // Exactly one worker won the steal race…
        assert_eq!(outcomes.iter().filter(|o| o.is_some()).count(), 1);
        let ran = outcomes.into_iter().flatten().next().unwrap();
        // …and the owner's claim gate decided run-vs-drop exactly once.
        let runs = runs.load(Ordering::SeqCst);
        let drops = drops.load(Ordering::SeqCst);
        assert_eq!(runs + drops, 1, "task must run or drop exactly once");
        assert_eq!(countdown.load(Ordering::SeqCst), 0);
        assert_eq!(cancel_won, !ran, "exactly one side wins the CAS race");
        if cancel_won {
            assert_eq!(runs, 0, "task ran although cancel() won");
        }
        seen_in
            .lock()
            .unwrap()
            .insert(if ran { "ran" } else { "dropped" });
    });
    let seen = seen.lock().unwrap();
    for outcome in ["ran", "dropped"] {
        assert!(
            seen.contains(outcome),
            "exploration never produced a schedule where the task {outcome}: {seen:?}"
        );
    }
}

/// Batch sweep vs claiming workers: two tasks each carry their **own**
/// cell (the `submit_with` shape — a shared `CancelToken` is a registry
/// over per-task cells, never one cell), a worker per task claim-gates,
/// and the sweeper cancels the cells in registry order like
/// `CancelToken::cancel`.  On every interleaving each task independently
/// runs XOR drops with its countdown firing exactly once, the sweep's
/// "won at least one race" answer matches the per-cell outcomes, and —
/// the regression this models — a task whose race the sweep *lost* still
/// ran even when its batch sibling was dropped.
#[test]
fn batch_sweep_decides_each_task_independently() {
    let seen: Arc<StdMutex<BTreeSet<u32>>> = Arc::default();
    let seen_in = Arc::clone(&seen);
    Builder::new().preemption_bound(2).check(move || {
        let cells: Vec<_> = (0..2).map(|_| Arc::new(CancelCell::new())).collect();
        let runs: Vec<_> = (0..2).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        let drops: Vec<_> = (0..2).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        let countdowns: Vec<_> = (0..2).map(|_| Arc::new(AtomicUsize::new(1))).collect();

        let workers: Vec<_> = (0..2)
            .map(|i| {
                let cell = Arc::clone(&cells[i]);
                let runs = Arc::clone(&runs[i]);
                let drops = Arc::clone(&drops[i]);
                let countdown = Arc::clone(&countdowns[i]);
                thread::spawn(move || claim_and_retire(&cell, &runs, &drops, &countdown))
            })
            .collect();
        let sweeper = {
            let cells = cells.clone();
            thread::spawn(move || {
                // `CancelToken::cancel`: sweep the registry, reporting
                // whether any per-task race was won.
                let mut won = false;
                for cell in &cells {
                    won |= cell.cancel();
                }
                won
            })
        };

        let ran: Vec<bool> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        let sweep_won = sweeper.join().unwrap();

        let mut ran_count = 0u32;
        for i in 0..2 {
            let runs = runs[i].load(Ordering::SeqCst);
            let drops = drops[i].load(Ordering::SeqCst);
            assert_eq!(runs + drops, 1, "task {i} must run or drop exactly once");
            assert_eq!(countdowns[i].load(Ordering::SeqCst), 0);
            // Per-task coherence: ran ⇔ claimed, dropped ⇔ the sweep won.
            assert_eq!(ran[i], cells[i].is_claimed());
            assert_eq!(!ran[i], cells[i].is_cancelled());
            ran_count += u32::from(ran[i]);
        }
        assert_eq!(
            sweep_won,
            ran_count < 2,
            "the sweep won at least one race iff some task did not run"
        );
        seen_in.lock().unwrap().insert(ran_count);
    });
    // The exploration must reach full survival (sweep lost both races —
    // the old shared-cell bug made this impossible), full cancellation,
    // and the mixed outcome.
    let seen = seen.lock().unwrap();
    for ran_count in 0..=2 {
        assert!(
            seen.contains(&ran_count),
            "exploration never produced a schedule where {ran_count} of 2 batch tasks ran: {seen:?}"
        );
    }
}

/// Expiry vs cancel: the node's exclusive owner observed the deadline
/// lapsed and settles the cell with `expire()` (the `retire_if_stale`
/// shape — it first probes `is_cancelled`, then expires and drops), while
/// an external canceller races `cancel()`.  On every interleaving the
/// task never runs, it is retired exactly once, exactly one transition
/// wins the cell, and the attribution both sides report is coherent:
/// `cancel() == true ⇔ is_cancelled()`, else the cell reads expired.
#[test]
fn expiry_vs_cancel_settles_coherently() {
    let seen: Arc<StdMutex<BTreeSet<&'static str>>> = Arc::default();
    let seen_in = Arc::clone(&seen);
    Builder::new().preemption_bound(2).check(move || {
        let cell = Arc::new(CancelCell::new());
        let countdown = Arc::new(AtomicUsize::new(1));

        let owner = {
            let cell = Arc::clone(&cell);
            let countdown = Arc::clone(&countdown);
            thread::spawn(move || {
                // `retire_if_stale` with a lapsed deadline: probe the
                // cancel fast path, then settle to Expired; the task is
                // dropped (never claimed) on both branches.
                let expired = if cell.is_cancelled() {
                    false
                } else {
                    cell.expire()
                };
                let prev = countdown.fetch_sub(1, Ordering::SeqCst);
                assert_eq!(prev, 1, "scope countdown fired more than once");
                expired
            })
        };
        let canceller = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || cell.cancel())
        };

        let expired = owner.join().unwrap();
        let cancel_won = canceller.join().unwrap();

        assert_eq!(countdown.load(Ordering::SeqCst), 0);
        // Exactly one transition settled the cell, and everyone agrees
        // which: a winning cancel() is the only way is_cancelled() turns
        // true; otherwise the owner's expire() won.
        assert!(expired ^ cancel_won, "exactly one side settles the cell");
        assert_eq!(cancel_won, cell.is_cancelled());
        assert_eq!(expired, cell.is_expired());
        assert!(!cell.is_claimed(), "a stale task is never claimed");
        seen_in
            .lock()
            .unwrap()
            .insert(if expired { "expired" } else { "cancelled" });
    });
    let seen = seen.lock().unwrap();
    for outcome in ["expired", "cancelled"] {
        assert!(
            seen.contains(outcome),
            "exploration never produced a schedule where the task {outcome}: {seen:?}"
        );
    }
}

/// How the releaser in [`finish_race`] retires the task.
#[derive(Clone, Copy)]
enum Retire {
    /// The worker path: claim-gate, then run or drop, then release.
    Claim,
    /// The scheduler's shutdown drain: release without claiming.
    Drain,
}

/// One finish-vs-cancel schedule: a releaser retires the task the `retire`
/// way — dropping the job's captures, then setting FINISHED, or the other
/// way round when `finish_first` — while a canceller races `cancel()` and
/// an observer polls `is_finished()` once.  Returns what the schedule
/// showed: whether the task ran, whether the cancel won, and whether the
/// observer saw the task finished.
fn finish_race(retire: Retire, finish_first: bool) -> (bool, bool, bool) {
    let cell = Arc::new(CancelCell::new());
    // The job's captured state: 1 once dropped.
    let dropped = Arc::new(AtomicUsize::new(0));

    let releaser = {
        let (cell, dropped) = (Arc::clone(&cell), Arc::clone(&dropped));
        thread::spawn(move || {
            let ran = matches!(retire, Retire::Claim) && cell.try_claim();
            // `TaskNode::release`: the job drops, then the bit is set.
            if finish_first {
                cell.finish();
            }
            dropped.fetch_add(1, Ordering::SeqCst);
            if !finish_first {
                cell.finish();
            }
            ran
        })
    };
    let canceller = {
        let cell = Arc::clone(&cell);
        thread::spawn(move || {
            let won = cell.cancel();
            // A won cancel reads as cancelled at once, and stays so.
            assert!(
                !won || cell.is_cancelled(),
                "cancel() won but is_cancelled() is false"
            );
            won
        })
    };
    let observer = {
        let (cell, dropped) = (Arc::clone(&cell), Arc::clone(&dropped));
        thread::spawn(move || {
            if !cell.is_finished() {
                return false;
            }
            assert_eq!(
                dropped.load(Ordering::SeqCst),
                1,
                "is_finished() before the job's captures dropped"
            );
            assert!(!cell.is_pending(), "a finished cell reads pending");
            if matches!(retire, Retire::Claim) {
                assert!(
                    cell.is_claimed() || cell.is_cancelled(),
                    "a finished, claim-gated task has no outcome"
                );
            }
            true
        })
    };

    let ran = releaser.join().unwrap();
    let cancel_won = canceller.join().unwrap();
    let saw_finished = observer.join().unwrap();

    assert!(cell.is_finished());
    assert_eq!(dropped.load(Ordering::SeqCst), 1);
    assert!(!(ran && cancel_won), "a task ran although cancel() won");
    assert_eq!(
        cancel_won,
        cell.is_cancelled(),
        "cancel() == true ⇔ is_cancelled()"
    );
    assert!(!cell.is_expired());
    assert_eq!(ran, cell.is_claimed());
    assert!(
        !cell.cancel() && !cell.try_claim() && !cell.expire(),
        "a finished cell refuses"
    );
    (ran, cancel_won, saw_finished)
}

/// Finish vs cancel, on both retire paths: on every interleaving the
/// FINISHED bit is observed only after the captures dropped and alongside a
/// settled cell, and the masked outcome reads keep `cancel() == true ⇔
/// is_cancelled()` once the bit is set.
#[test]
fn finish_vs_cancel_observes_dropped_captures() {
    for retire in [Retire::Claim, Retire::Drain] {
        let seen: Arc<StdMutex<BTreeSet<(bool, bool, bool)>>> = Arc::default();
        let seen_in = Arc::clone(&seen);
        Builder::new().preemption_bound(2).check(move || {
            let outcome = finish_race(retire, false);
            seen_in.lock().unwrap().insert(outcome);
        });
        let seen = seen.lock().unwrap();
        // Every side of each race must have been reached: the cancel won
        // and lost, the observer came early and late, and on the claim
        // path the task ran.
        for (what, reached) in [
            ("cancel won", seen.iter().any(|o| o.1)),
            ("cancel lost", seen.iter().any(|o| !o.1)),
            ("observer saw finished", seen.iter().any(|o| o.2)),
            ("observer came early", seen.iter().any(|o| !o.2)),
            (
                "task ran",
                seen.iter().any(|o| o.0) || matches!(retire, Retire::Drain),
            ),
        ] {
            assert!(reached, "exploration never reached `{what}`: {seen:?}");
        }
    }
}

/// Negative control: a releaser that sets FINISHED **before** dropping the
/// job lets an observer see a finished task whose captures are still
/// alive.  The explorer must find that schedule, or the positive test
/// above proves nothing about the order.
#[test]
fn finish_before_drop_is_caught() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        Builder::new().preemption_bound(2).check(|| {
            finish_race(Retire::Claim, true);
        });
    }));
    let message = match result {
        Ok(()) => panic!("the explorer never found the early FINISHED"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    };
    assert!(
        message.contains("is_finished() before the job's captures dropped"),
        "failed for another reason: {message}"
    );
}
