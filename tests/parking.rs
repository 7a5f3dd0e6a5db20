//! Integration tests for the event-driven parking subsystem (DESIGN.md §12):
//! idle workers must actually park (not sleep-poll), external submissions
//! and team handshakes must wake them through notifications (not the
//! defensive backstop), and shutdown must never hang on a sleeper.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use teamsteal::{Scheduler, StealPolicy};

mod common;
use common::{with_watchdog, WATCHDOG};

/// Polls `f` until it returns true or the deadline passes.
fn eventually(deadline: Duration, mut f: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    f()
}

/// An idle scheduler's workers end up parked on the eventcount instead of
/// cycling timed sleeps.
#[test]
fn idle_workers_park() {
    let scheduler = Scheduler::with_threads(4);
    scheduler.run(|_| {});
    assert!(
        eventually(Duration::from_secs(5), || scheduler.metrics().parks >= 3),
        "idle workers never parked; metrics: {:?}",
        scheduler.metrics()
    );
}

/// External submissions into a parked scheduler are completed through
/// notified wakeups, and the wake-latency histogram records them.
#[test]
fn external_submit_wakes_parked_workers() {
    let scheduler = Scheduler::with_threads(4);
    scheduler.run(|_| {});
    // Let the workers park.
    assert!(eventually(Duration::from_secs(5), || {
        scheduler.metrics().parks >= 3
    }));
    let before = scheduler.metrics();
    for _ in 0..20 {
        let hit = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hit);
        scheduler.scope(|scope| {
            scope.spawn(move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
        // Let the worker that ran it park again, so the next submission
        // meets a parked scheduler too.
        let parks = scheduler.metrics().parks;
        assert!(
            eventually(Duration::from_secs(5), || scheduler.metrics().parks > parks),
            "no worker parked after a submission: {:?}",
            scheduler.metrics()
        );
    }
    let delta = scheduler.metrics().delta_since(&before);
    assert!(
        delta.wakeups > 0,
        "20 submissions into a parked scheduler produced no notified wakeups: {delta:?}"
    );
    assert!(
        delta.wake_latency.total() > 0,
        "no wake latencies recorded: {delta:?}"
    );
}

/// Team formation, publication and the start countdown all cross parked
/// workers; the handshakes must complete through notifications with no
/// timed polling left to hide a lost wakeup.  Backstop wakes are tolerated
/// only in trace amounts (scheduling noise on an oversubscribed host), not
/// as the mechanism that makes progress.
#[test]
fn team_handshakes_wake_parked_members() {
    with_watchdog("team_handshakes_wake_parked_members", WATCHDOG, || {
        let scheduler = Scheduler::with_threads(4);
        let before_all = scheduler.metrics();
        // A new scheduler has counted no parks; every later round starts
        // when the previous `run_team` returned.
        let mut parks_at_round_start = 0;
        for round in 0..10 {
            // Let everyone park between team tasks, so every handshake
            // (announcement, registration, publication, countdown) has to
            // cross a parked worker.  Four parks, not three: the three
            // members of the last round's warm team park while its
            // coordinator still holds it, and a round started then would
            // reuse that team instead of forming one.
            assert!(
                eventually(Duration::from_secs(5), || {
                    scheduler.metrics().parks >= parks_at_round_start + 4
                }),
                "workers never parked before round {round}: {:?}",
                scheduler.metrics()
            );
            let hits = Arc::new(AtomicUsize::new(0));
            let h = Arc::clone(&hits);
            scheduler.run_team(4, move |ctx| {
                h.fetch_add(1, Ordering::Relaxed);
                ctx.barrier();
            });
            assert_eq!(hits.load(Ordering::Relaxed), 4, "round {round}");
            parks_at_round_start = scheduler.metrics().parks;
        }
        let delta = scheduler.metrics().delta_since(&before_all);
        assert_eq!(delta.teams_formed, 10);
        assert!(
            delta.parks > 0,
            "teams formed without any parking: {delta:?}"
        );
        assert_eq!(
            delta.liveness_resyncs, 0,
            "healthy team rounds must not trip the liveness backstops: {delta:?}"
        );
        // Progress must come from notifications: the 100 ms backstop could
        // deliver at most ~10 wakes per second of runtime, and a run that
        // *relied* on it would be visibly slow; a healthy run shows
        // notified wakeups dominating.
        assert!(
            delta.wakeups > delta.spurious_wakes,
            "backstop wakes dominate notified wakes: {delta:?}"
        );
    });
}

/// Dropping a scheduler whose workers are all parked must complete promptly
/// (shutdown broadcasts through the eventcount).
#[test]
fn shutdown_wakes_parked_workers() {
    with_watchdog("shutdown_wakes_parked_workers", WATCHDOG, || {
        let scheduler = Scheduler::with_threads(4);
        scheduler.run(|_| {});
        assert!(eventually(Duration::from_secs(5), || {
            scheduler.metrics().parks >= 3
        }));
        let start = Instant::now();
        drop(scheduler);
        // Well under the backstop: shutdown must not wait for timeouts.
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "drop took {:?}",
            start.elapsed()
        );
    });
}

/// The parking subsystem under the randomized-within-level policy: mixed
/// team and sequential traffic with parking pauses in between.
#[test]
fn parking_survives_randomized_mixed_traffic() {
    with_watchdog(
        "parking_survives_randomized_mixed_traffic",
        WATCHDOG,
        || {
            let scheduler = Scheduler::builder()
                .threads(4)
                .steal_policy(StealPolicy::RandomizedWithinLevel)
                .build();
            let total = Arc::new(AtomicUsize::new(0));
            for round in 0..8 {
                std::thread::sleep(Duration::from_millis(3));
                let t = Arc::clone(&total);
                scheduler.scope(|scope| {
                    for _ in 0..8 {
                        let t = Arc::clone(&t);
                        scope.spawn(move |_| {
                            t.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    let t = Arc::clone(&t);
                    scope.spawn_team(2, move |ctx| {
                        t.fetch_add(1, Ordering::Relaxed);
                        ctx.barrier();
                    });
                });
                assert_eq!(
                    total.load(Ordering::Relaxed),
                    (round + 1) * (8 + 2),
                    "round {round}"
                );
            }
        },
    );
}
