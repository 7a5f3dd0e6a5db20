//! Watchdogged integration tests for the multi-tenant task service
//! (`teamsteal::service`, DESIGN.md §16): fairness under offered skew, backlog bounded by the high-water shed gate, the drain-vs-submit
//! race, clean submit-after-drain failure, the external-pin pool sized
//! to the declared submitter concurrency, and the `in_flight` gauge across
//! a panicking submission and a queued backlog.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use teamsteal::service::{ServiceBuilder, SubmitError, TaskService, TenantConfig};

mod common;
use common::{with_watchdog, WATCHDOG};

/// 99:1 offered load against equal weights (every tenant's bucket refills
/// at the service's one rate): both tenants saturate their token budgets,
/// so *admitted* (and hence completed) work must track the weights — about
/// 1:1 — not the offered skew.  The tolerance is generous
/// (2× either way) because the refill clock runs on wall time under an
/// oversubscribed CI host.
#[test]
fn tenant_skew_fairness_tracks_weights_not_offered_load() {
    with_watchdog("tenant_skew_fairness", WATCHDOG, || {
        let service = ServiceBuilder::new()
            .threads(2)
            .refill_rate(2_000)
            .tenant(TenantConfig::new("hot").burst(1))
            .tenant(TenantConfig::new("cold").burst(1))
            .build();
        let hot = service.tenant("hot").unwrap();
        let cold = service.tenant("cold").unwrap();
        let start = Instant::now();
        // One driving thread keeps the probe interleaving exact: 99 hot
        // offers per cold offer, both far above the 2 000/s refill rate.
        while start.elapsed() < Duration::from_millis(300) {
            for _ in 0..99 {
                let _ = hot.submit(|_| {});
            }
            let _ = cold.submit(|_| {});
        }
        let report = service.drain();
        let hot_stats = hot.stats();
        let cold_stats = cold.stats();
        // The skew reached the admission layer…
        assert!(hot_stats.offered >= 99 * cold_stats.offered);
        // …but admitted work followed the (equal) weights.
        assert!(
            cold_stats.admitted > 0,
            "cold tenant starved: {cold_stats:?}"
        );
        let ratio = hot_stats.admitted as f64 / cold_stats.admitted as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "admitted ratio {ratio:.2} strayed from the 1:1 weight ratio \
             (hot {hot_stats:?}, cold {cold_stats:?})"
        );
        // Exactly-once completion and per-tenant conservation.
        assert_eq!(report.completed(), report.admitted());
        for stats in [hot_stats, cold_stats] {
            assert_eq!(
                stats.admitted + stats.rejected + stats.shed + stats.drain_rejected,
                stats.offered
            );
        }
    });
}

/// With a tiny high-water mark and slow tasks on one worker, storming
/// submitters must never grow the injector backlog beyond
/// `high_water + submitters`: each submitter can observe a backlog at the
/// mark and still push its one admitted task, but nothing more.
#[test]
fn backpressure_bounds_backlog_at_high_water() {
    const HIGH_WATER: usize = 64;
    const SUBMITTERS: usize = 4;
    with_watchdog("backpressure_bounds_backlog", WATCHDOG, || {
        let service = Arc::new(
            ServiceBuilder::new()
                .threads(1)
                .refill_rate(10_000_000)
                .high_water(HIGH_WATER)
                .tenant(TenantConfig::new("storm").burst(1 << 20).max_concurrency(SUBMITTERS))
                .build(),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let max_backlog = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|threads| {
            for _ in 0..SUBMITTERS {
                let tenant = service.tenant("storm").unwrap();
                let stop = Arc::clone(&stop);
                threads.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        // ~20 µs of work per task keeps the single worker
                        // the bottleneck so the backlog actually fills.
                        let _ = tenant.submit(|_| {
                            let t = Instant::now();
                            while t.elapsed() < Duration::from_micros(20) {
                                std::hint::spin_loop();
                            }
                        });
                    }
                });
            }
            // Sample the per-shard gauges while the storm runs.
            let deadline = Instant::now() + Duration::from_millis(200);
            while Instant::now() < deadline {
                let backlog: usize = service.scheduler().injector_shard_lens().iter().sum();
                max_backlog.fetch_max(backlog, Ordering::Relaxed);
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
        });
        let observed = max_backlog.load(Ordering::Relaxed);
        assert!(
            observed <= HIGH_WATER + SUBMITTERS,
            "backlog reached {observed}, above high-water {HIGH_WATER} + {SUBMITTERS} in-flight submitters"
        );
        let report = service.drain();
        let stats = &report.tenants[0].1;
        assert!(stats.shed > 0, "storm never hit the shed gate: {stats:?}");
        assert_eq!(report.completed(), report.admitted());
    });
}

/// Submitters storm while a drain fires mid-storm: nothing admitted is
/// lost, nothing runs twice, no task observes the world after `drain()`
/// returned, and post-drain submissions fail with `Draining`.
#[test]
fn drain_vs_submit_race_loses_and_duplicates_nothing() {
    const SUBMITTERS: usize = 4;
    with_watchdog("drain_vs_submit_race", WATCHDOG, || {
        let service = Arc::new(
            ServiceBuilder::new()
                .threads(2)
                .refill_rate(10_000_000)
                .tenant(TenantConfig::new("race").burst(1 << 20).max_concurrency(SUBMITTERS))
                .build(),
        );
        let executed = Arc::new(AtomicU64::new(0));
        let drained_flag = Arc::new(AtomicBool::new(false));
        let post_drain_runs = Arc::new(AtomicU64::new(0));
        let accepted = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|threads| {
            for _ in 0..SUBMITTERS {
                let tenant = service.tenant("race").unwrap();
                let executed = Arc::clone(&executed);
                let drained_flag = Arc::clone(&drained_flag);
                let post_drain_runs = Arc::clone(&post_drain_runs);
                let accepted = Arc::clone(&accepted);
                let stop = Arc::clone(&stop);
                threads.spawn(move || {
                    let mut saw_draining = false;
                    while !(saw_draining && stop.load(Ordering::Relaxed)) {
                        let executed = Arc::clone(&executed);
                        let drained_flag = Arc::clone(&drained_flag);
                        let post_drain_runs = Arc::clone(&post_drain_runs);
                        match tenant.submit(move |_| {
                            if drained_flag.load(Ordering::SeqCst) {
                                post_drain_runs.fetch_add(1, Ordering::SeqCst);
                            }
                            executed.fetch_add(1, Ordering::SeqCst);
                        }) {
                            Ok(()) => {
                                accepted.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(SubmitError::Draining) => saw_draining = true,
                            // Release-built submitters outrun the two
                            // workers, so the storm legitimately trips the
                            // high-water shed; the test is about the drain
                            // race, not shedding, so back off and re-offer.
                            Err(SubmitError::Overloaded) => std::thread::yield_now(),
                            Err(other) => panic!("unexpected error {other:?}"),
                        }
                    }
                });
            }
            // Let the storm build, then drain from the main thread while
            // the submitters keep racing.
            std::thread::sleep(Duration::from_millis(20));
            let report = service.drain();
            // Every task the gate admitted ran to completion before
            // drain() returned, and only then do we raise the flag…
            drained_flag.store(true, Ordering::SeqCst);
            assert!(report.initiated);
            assert_eq!(
                executed.load(Ordering::SeqCst),
                report.admitted(),
                "admitted tasks lost or duplicated across the drain"
            );
            stop.store(true, Ordering::Relaxed);
        });
        // …so no admitted task can have observed the post-drain world.
        assert_eq!(
            post_drain_runs.load(Ordering::SeqCst),
            0,
            "a task ran after drain() returned"
        );
        assert_eq!(
            executed.load(Ordering::SeqCst),
            accepted.load(Ordering::SeqCst),
            "every accepted submission ran exactly once"
        );
        // Submitters observed the drain and later submissions fail clean.
        let tenant = service.tenant("race").unwrap();
        assert_eq!(tenant.submit(|_| {}), Err(SubmitError::Draining));
        assert!(tenant.stats().drain_rejected > 0);
    });
}

/// A drained service fails every submission path cleanly — sequential and
/// team — and an exhausted budget does not mask the drain: `Draining`
/// wins over `Backpressure`.
#[test]
fn submit_after_drain_fails_cleanly() {
    with_watchdog("submit_after_drain", WATCHDOG, || {
        let service: TaskService = ServiceBuilder::new()
            .threads(2)
            .refill_rate(1) // budget exhausted after the 1-task burst
            .tenant(TenantConfig::new("t").burst(1))
            .build();
        let tenant = service.tenant("t").unwrap();
        tenant.submit(|_| {}).unwrap(); // consumes the whole burst
        assert_eq!(tenant.submit(|_| {}), Err(SubmitError::Backpressure));
        let report = service.drain();
        assert_eq!(report.admitted(), 1);
        assert_eq!(report.completed(), 1);
        assert_eq!(tenant.submit(|_| {}), Err(SubmitError::Draining));
        assert_eq!(tenant.submit_team(2, |_| {}), Err(SubmitError::Draining));
        let stats = tenant.stats();
        assert_eq!(
            stats.admitted + stats.rejected + stats.shed + stats.drain_rejected,
            stats.offered
        );
    });
}

/// Regression for the `ExternalPins` convoy (PR 9 satellite): with the pin
/// pool auto-sized from the tenants' declared concurrency, a submitter
/// storm at exactly that concurrency never exhausts the pool —
/// `external_pin_waits` stays 0.
#[test]
fn external_pin_pool_scales_to_declared_concurrency() {
    const SUBMITTERS: usize = 48;
    const PER_SUBMITTER: usize = 200;
    with_watchdog("external_pin_pool_scales", WATCHDOG, || {
        let service = Arc::new(
            ServiceBuilder::new()
                .threads(2)
                .refill_rate(100_000_000)
                .tenant(
                    TenantConfig::new("wide")
                        .burst(1 << 20)
                        .max_concurrency(SUBMITTERS),
                )
                .build(),
        );
        // The auto-sizing covered the declared concurrency (48 > the old
        // fixed pool of 32, which this storm used to convoy on).
        assert_eq!(service.scheduler().external_pin_slots(), SUBMITTERS);
        std::thread::scope(|threads| {
            for _ in 0..SUBMITTERS {
                let tenant = service.tenant("wide").unwrap();
                threads.spawn(move || {
                    for _ in 0..PER_SUBMITTER {
                        tenant.submit(|_| {}).unwrap();
                    }
                });
            }
        });
        let report = service.drain();
        assert_eq!(report.admitted(), (SUBMITTERS * PER_SUBMITTER) as u64);
        assert_eq!(report.completed(), report.admitted());
        assert_eq!(
            service.scheduler().metrics().external_pin_waits,
            0,
            "submitters waited for epoch-pin slots at the declared concurrency"
        );
    });
}

/// A team submission wider than the pool passes admission and then panics
/// on the caller when the scheduler checks its requirement.  The unwind
/// must release the submitter's gate entry and retire the admitted task,
/// or the drain below would wait forever.
#[test]
fn panicking_submission_releases_its_gate_entry() {
    const WORKERS: usize = 2;
    with_watchdog("panicking_submission", WATCHDOG, || {
        let service = ServiceBuilder::new()
            .threads(WORKERS)
            .tenant(TenantConfig::new("t"))
            .build();
        let tenant = service.tenant("t").unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tenant.submit_team(WORKERS + 1, |_| {})
        }));
        assert!(result.is_err(), "an unrunnable team width must panic");
        let report = service.drain();
        assert_eq!(report.admitted(), 1, "the panic came after admission");
        assert_eq!(report.completed(), report.admitted());
        assert_eq!(service.report().in_flight, 0);
    });
}

/// `ServiceReport::in_flight` counts admitted tasks until they finish, not
/// just submissions mid-pipeline: with the only worker held, every queued
/// submission shows, and after the drain none does.
#[test]
fn in_flight_counts_queued_tasks_until_the_drain() {
    const QUEUED: usize = 8;
    with_watchdog("in_flight_counts_queued", WATCHDOG, || {
        let service = ServiceBuilder::new()
            .threads(1)
            .tenant(TenantConfig::new("t").burst(2 * QUEUED as u64))
            .build();
        let tenant = service.tenant("t").unwrap();
        let release = Arc::new(AtomicBool::new(false));
        {
            let release = Arc::clone(&release);
            tenant
                .submit(move |_| {
                    while !release.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                })
                .unwrap();
        }
        for _ in 0..QUEUED {
            tenant.submit(|_| {}).unwrap();
        }
        let in_flight = service.report().in_flight;
        assert!(in_flight >= QUEUED, "in_flight {in_flight} < {QUEUED} queued");
        release.store(true, Ordering::Release);
        let report = service.drain();
        assert_eq!(report.completed(), report.admitted());
        assert_eq!(service.report().in_flight, 0);
    });
}
