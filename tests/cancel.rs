//! Watchdogged integration tests for the SLO-enforcement layer
//! (`teamsteal::service`, DESIGN.md §17): cancellation before pop never
//! executes, deadline expiry drops work at claim time, the report surfaces
//! panics and gate backstops, and `TaskService::drop` stays live with
//! submitters looping on refused admissions while a task is mid-flight.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use teamsteal::service::{CancelToken, ServiceBuilder, SubmitError, SubmitOptions, TenantConfig};

mod common;
use common::{with_watchdog, WATCHDOG};

/// Spins until `release` flips, parking the worker that runs it.  Used to
/// pin tasks in the injector: while the blocker occupies the only worker,
/// nothing behind it can be popped.
fn blocker(
    release: &Arc<AtomicBool>,
) -> impl for<'a, 'b> FnOnce(&'a teamsteal::TaskContext<'b>) + Send + 'static {
    let release = Arc::clone(release);
    move |_| {
        while !release.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }
}

/// A task cancelled while still queued is dropped at pop time: it never
/// runs, never increments `tasks_executed`, and is counted in
/// `tasks_cancelled` — yet its completion guard still retires it, so the
/// handle finishes and the drain accounting stays exactly-once.
#[test]
fn cancelled_before_pop_never_increments_tasks_executed() {
    with_watchdog("cancelled_before_pop", WATCHDOG, || {
        let service = ServiceBuilder::new()
            .threads(1)
            .tenant(TenantConfig::new("t").burst(8))
            .build();
        let tenant = service.tenant("t").unwrap();
        let release = Arc::new(AtomicBool::new(false));
        tenant.submit(blocker(&release)).unwrap();

        let ran = Arc::new(AtomicBool::new(false));
        let ran_in = Arc::clone(&ran);
        let handle = tenant
            .submit_with(SubmitOptions::new(), move |_| {
                ran_in.store(true, Ordering::SeqCst);
            })
            .unwrap();
        assert!(!handle.is_finished(), "task cannot finish behind the blocker");
        assert!(handle.cancel(), "cancel must win while the task is queued");
        assert!(handle.is_cancelled());
        assert!(!handle.cancel(), "second cancel does not win again");

        release.store(true, Ordering::Release);
        let report = service.drain();
        assert!(!ran.load(Ordering::SeqCst), "cancelled task must never run");
        assert!(handle.is_finished(), "dropped tasks still finish their guard");
        // Accounting: the blocker executed, the cancelled task did not, and
        // both retired exactly once.
        let metrics = service.metrics();
        assert_eq!(metrics.tasks_executed, 1, "only the blocker may execute");
        assert_eq!(metrics.tasks_cancelled, 1);
        assert_eq!(metrics.tasks_expired, 0);
        assert_eq!(report.completed(), report.admitted());
        assert_eq!(service.report().tasks_cancelled, 1);
    });
}

/// A queued task whose deadline passes before any worker claims it is dropped at pop time and counted
/// in `tasks_expired`, without ever running.
#[test]
fn expired_task_is_dropped_at_claim_time() {
    with_watchdog("expired_before_pop", WATCHDOG, || {
        let service = ServiceBuilder::new()
            .threads(1)
            .tenant(TenantConfig::new("t").burst(8))
            .build();
        let tenant = service.tenant("t").unwrap();
        let release = Arc::new(AtomicBool::new(false));
        tenant.submit(blocker(&release)).unwrap();

        let ran = Arc::new(AtomicBool::new(false));
        let ran_in = Arc::clone(&ran);
        let handle = tenant
            .submit_with(
                SubmitOptions::new().deadline(Duration::from_millis(5)),
                move |_| {
                    ran_in.store(true, Ordering::SeqCst);
                },
            )
            .unwrap();
        // Let the deadline lapse while the task is still queued.
        std::thread::sleep(Duration::from_millis(20));
        release.store(true, Ordering::Release);
        let report = service.drain();

        assert!(!ran.load(Ordering::SeqCst), "expired task must never run");
        assert!(handle.is_finished());
        assert!(handle.is_expired(), "expiry must be visible on the handle");
        assert!(
            !handle.is_cancelled(),
            "expiry must not masquerade as cancellation"
        );
        let metrics = service.metrics();
        assert_eq!(metrics.tasks_executed, 1, "only the blocker may execute");
        assert_eq!(metrics.tasks_expired, 1);
        assert_eq!(report.completed(), report.admitted());
        assert_eq!(service.report().tasks_expired, 1);
    });
}

/// The batch fan-out contract of a shared [`CancelToken`]: each
/// submission keeps its own claim cell, so an *uncancelled* shared token
/// never stops any batch member from running.  (Regression: a one-shot
/// cell shared across the batch let only the first claimer run and
/// miscounted the rest as cancelled.)
#[test]
fn shared_token_batch_all_run_when_uncancelled() {
    const BATCH: usize = 8;
    with_watchdog("shared_token_all_run", WATCHDOG, || {
        let service = ServiceBuilder::new()
            .threads(2)
            .tenant(TenantConfig::new("t").burst(16))
            .build();
        let tenant = service.tenant("t").unwrap();
        let token = CancelToken::new();
        let ran = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..BATCH)
            .map(|_| {
                let ran = Arc::clone(&ran);
                tenant
                    .submit_with(SubmitOptions::new().cancel_token(token.clone()), move |_| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    })
                    .unwrap()
            })
            .collect();
        service.drain();
        assert_eq!(
            ran.load(Ordering::SeqCst),
            BATCH,
            "every member of an uncancelled batch must execute"
        );
        for handle in &handles {
            assert!(handle.is_finished());
            assert!(!handle.is_cancelled());
            assert!(!handle.is_expired());
        }
        let metrics = service.metrics();
        assert_eq!(metrics.tasks_executed, BATCH as u64);
        assert_eq!(metrics.tasks_cancelled, 0);
        assert_eq!(metrics.tasks_expired, 0);
    });
}

/// A single `CancelToken::cancel` sweeps every queued task sharing the
/// token: none run, each is counted in `tasks_cancelled`, and each
/// handle reports per-task cancellation — while a task submitted with
/// its own token is untouched by the sweep.
#[test]
fn shared_token_cancel_sweeps_whole_batch() {
    const BATCH: usize = 3;
    with_watchdog("shared_token_sweep", WATCHDOG, || {
        let service = ServiceBuilder::new()
            .threads(1)
            .tenant(TenantConfig::new("t").burst(16))
            .build();
        let tenant = service.tenant("t").unwrap();
        let release = Arc::new(AtomicBool::new(false));
        tenant.submit(blocker(&release)).unwrap();

        let token = CancelToken::new();
        let ran = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..BATCH)
            .map(|_| {
                let ran = Arc::clone(&ran);
                tenant
                    .submit_with(SubmitOptions::new().cancel_token(token.clone()), move |_| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    })
                    .unwrap()
            })
            .collect();
        // A bystander with its own (default) token must survive the sweep.
        let bystander_ran = Arc::new(AtomicBool::new(false));
        let bystander_ran_in = Arc::clone(&bystander_ran);
        let bystander = tenant
            .submit_with(SubmitOptions::new(), move |_| {
                bystander_ran_in.store(true, Ordering::SeqCst);
            })
            .unwrap();

        assert!(token.cancel(), "the sweep must win at least one race");
        assert!(token.is_cancelled());
        assert!(!token.cancel(), "a second sweep has nothing left to win");

        release.store(true, Ordering::Release);
        let report = service.drain();
        assert_eq!(ran.load(Ordering::SeqCst), 0, "swept tasks must never run");
        assert!(bystander_ran.load(Ordering::SeqCst), "bystander must run");
        for handle in &handles {
            assert!(handle.is_finished());
            assert!(handle.is_cancelled(), "sweep must be visible per task");
        }
        assert!(!bystander.is_cancelled());
        let metrics = service.metrics();
        // The blocker and the bystander executed; the batch did not.
        assert_eq!(metrics.tasks_executed, 2);
        assert_eq!(metrics.tasks_cancelled, BATCH as u64);
        assert_eq!(report.completed(), report.admitted());
    });
}

/// Cancelling a token *before* submitting through it poisons it: the
/// submission is admitted but dropped at claim time, never running.
#[test]
fn cancelled_token_poisons_later_submissions() {
    with_watchdog("poisoned_token", WATCHDOG, || {
        let service = ServiceBuilder::new()
            .threads(1)
            .tenant(TenantConfig::new("t").burst(8))
            .build();
        let tenant = service.tenant("t").unwrap();
        let token = CancelToken::new();
        assert!(!token.cancel(), "nothing attached yet — no race to win");
        let ran = Arc::new(AtomicBool::new(false));
        let ran_in = Arc::clone(&ran);
        let handle = tenant
            .submit_with(SubmitOptions::new().cancel_token(token.clone()), move |_| {
                ran_in.store(true, Ordering::SeqCst);
            })
            .unwrap();
        service.drain();
        assert!(!ran.load(Ordering::SeqCst), "poisoned submission must not run");
        assert!(handle.is_finished());
        assert!(handle.is_cancelled());
        assert_eq!(service.metrics().tasks_cancelled, 1);
    });
}

/// Effectively-infinite durations are "no deadline" sentinels, not
/// panics: `Duration::MAX` (or any deadline past the end of `Instant`'s
/// range) as a per-task deadline must submit and run normally
/// (regression: unchecked `Instant::now() + d` overflowed).
#[test]
fn huge_durations_mean_no_deadline_not_a_panic() {
    with_watchdog("huge_durations", WATCHDOG, || {
        let service = ServiceBuilder::new()
            .threads(1)
            .tenant(TenantConfig::new("t").burst(8))
            .build();
        let tenant = service.tenant("t").unwrap();
        let ran = Arc::new(AtomicUsize::new(0));
        let opts = [
            SubmitOptions::new().deadline(Duration::MAX),
            SubmitOptions::new().deadline(Duration::from_secs(u64::MAX / 2)),
        ];
        for opts in opts {
            let ran = Arc::clone(&ran);
            tenant
                .submit_with(opts, move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
        }
        service.drain();
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        assert_eq!(service.metrics().tasks_expired, 0);
    });
}

/// The service report surfaces §17's health counters: every task panic is
/// counted (not just the one whose payload is kept), and a drain that
/// starts after every submission returned never fires the gate's
/// backstop: the gate holds only submissions, not tasks, so slow tasks —
/// e.g. panic unwinding with backtrace capture — are waited out by the
/// scope, not the gate.
#[test]
fn report_surfaces_panics_and_gate_backstops() {
    with_watchdog("report_panics_backstops", WATCHDOG, || {
        let service = ServiceBuilder::new()
            .threads(2)
            .tenant(TenantConfig::new("t").burst(8))
            .build();
        let tenant = service.tenant("t").unwrap();
        for _ in 0..2 {
            tenant.submit(|_| panic!("boom")).unwrap();
        }
        service.drain();
        let report = service.report();
        assert_eq!(report.panics_observed, 2, "both panics must be counted");
        assert_eq!(report.gate_backstops, 0, "no submission was in the gate to back stop");
        assert!(service.take_panic().is_some(), "first payload is kept");
        assert!(service.take_panic().is_none(), "…and only the first");
    });
}

/// Liveness under teardown: dropping the service while submitter threads
/// loop on refused admissions *and* a task is mid-flight must complete the
/// implicit drain, and every submitter must see `Draining` and stop — no
/// submitter or worker may wedge, and every task admitted before the drop
/// runs.
#[test]
fn drop_with_blocked_submitters_and_midflight_tasks_stays_live() {
    const SUBMITTERS: usize = 4;
    with_watchdog("drop_with_blocked_submitters", WATCHDOG, || {
        let service = ServiceBuilder::new()
            .threads(2)
            .refill_rate(1)
            .tenant(TenantConfig::new("t").burst(1))
            .build();
        let tenant = service.tenant("t").unwrap();
        // Mid-flight work: occupies a worker until we release it below.  It
        // also spends the one-token burst.
        let release = Arc::new(AtomicBool::new(false));
        tenant.submit(blocker(&release)).unwrap();

        // These threads retry against the empty budget (refill is 1/s) until
        // the drain refuses them; each returns how many of its submissions
        // were admitted.
        let threads: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                let tenant = tenant.clone();
                std::thread::spawn(move || {
                    let mut admitted = 0u64;
                    loop {
                        match tenant.submit(|_| {}) {
                            Ok(()) => admitted += 1,
                            Err(SubmitError::Backpressure) => std::thread::yield_now(),
                            Err(SubmitError::Draining) => return admitted,
                            Err(other) => panic!("unexpected submit error: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        // Let the submitters get refused a few times each.
        while tenant.stats().rejected < 16 * SUBMITTERS as u64 {
            std::thread::yield_now();
        }

        // Unblock the in-flight task just before teardown so the implicit
        // drain can complete, then drop the service out from under the
        // looping submitters.
        release.store(true, Ordering::Release);
        drop(service);

        let admitted: u64 = threads
            .into_iter()
            .map(|thread| thread.join().expect("submitter panicked"))
            .sum();
        // Post-drop submissions on surviving tenant handles fail cleanly.
        assert_eq!(tenant.submit(|_| {}).unwrap_err(), SubmitError::Draining);
        let stats = tenant.stats();
        assert_eq!(stats.admitted, 1 + admitted);
        assert_eq!(
            stats.completed, stats.admitted,
            "the drop drained every admitted task"
        );
        assert_eq!(
            stats.admitted + stats.rejected + stats.shed + stats.drain_rejected,
            stats.offered
        );
    });
}
