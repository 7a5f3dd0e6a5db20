//! Cold external entry (DESIGN.md §12, "Cold entry"): `run_team(2, barrier)`
//! from parked workers.  The submitter wakes the block that will form the
//! team in one batch, and nobody on the path — caller, coordinator,
//! registrant — sleeps through a partner that is already on its way, so a
//! cold run costs the workers about three parks (one idle park each, one
//! member park while the coordinator holds the team warm), not five.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use teamsteal::{MetricsSnapshot, Scheduler};

mod common;
use common::{with_watchdog, WATCHDOG};

/// The tests count parks per run, so they take turns instead of sharing the
/// host's cores with each other.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const RUNS: u64 = 500;
/// Idle time between two runs: longer than the 200 µs warm keep-alive, so
/// every run finds its team disbanded and every worker parked.
const IDLE_GAP: Duration = Duration::from_micros(400);

/// The benchmark's `team_stream` sparse phase: `RUNS` times `run_team(2,
/// barrier)` from parked workers.  Returns how often each worker ran a
/// member body, the counter deltas and the median call time.
fn cold_runs(scheduler: &Scheduler) -> (Vec<u64>, MetricsSnapshot, Duration) {
    let p = scheduler.num_threads();
    let members: Arc<Vec<AtomicU64>> = Arc::new((0..p).map(|_| AtomicU64::new(0)).collect());
    // Settle: the first team of a scheduler is built by threads that have
    // not parked yet.
    scheduler.run_team(2, |c| {
        c.barrier();
    });
    let before = scheduler.metrics();
    let mut took = Vec::with_capacity(RUNS as usize);
    for _ in 0..RUNS {
        std::thread::sleep(IDLE_GAP);
        let members = Arc::clone(&members);
        let start = Instant::now();
        scheduler.run_team(2, move |c| {
            c.barrier();
            members[c.global_thread_id()].fetch_add(1, Ordering::Relaxed);
        });
        took.push(start.elapsed());
    }
    let delta = scheduler.metrics().delta_since(&before);
    took.sort();
    let members = members.iter().map(|m| m.load(Ordering::Relaxed)).collect();
    (members, delta, took[took.len() / 2])
}

/// A worker per core: every run builds one team out of parked workers, each
/// member runs exactly once, and the run costs at most 3.5 parks (it was 4.8
/// to 4.9 when the submitter woke one worker that woke the next and the
/// coordinator parked under its partner's wake).
#[test]
fn a_cold_run_costs_three_parks_not_five() {
    with_watchdog("a_cold_run_costs_three_parks_not_five", WATCHDOG, || {
        let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let scheduler = Scheduler::with_threads(2);
        let (members, delta, median) = cold_runs(&scheduler);
        assert_eq!(
            members,
            vec![RUNS, RUNS],
            "each worker ran each team task once"
        );
        // One publication per run, and a cold one: a coordinator that lost
        // its core for a while may still hold the team when the next call
        // comes (seen twice in 500 runs, once in thirty processes).
        assert_eq!(delta.teams_built + delta.team_reuses, RUNS, "{delta:?}");
        assert!(
            delta.team_reuses * 20 <= RUNS,
            "the runs are not cold: {delta:?}"
        );
        assert_eq!(delta.team_tasks_executed, 2 * RUNS, "{delta:?}");
        assert_eq!(delta.liveness_resyncs, 0, "{delta:?}");
        let parks_per_run = delta.parks as f64 / RUNS as f64;
        eprintln!("cold run_team(2) at p = 2: median {median:?}, {parks_per_run:.2} parks per run");
        assert!(
            parks_per_run <= 3.5,
            "{parks_per_run:.2} parks per cold run (median {median:?}): somebody sleeps through \
             its partner again: {delta:?}"
        );
    });
}

/// Four workers on (at most) two cores: the caller and the coordinator wait
/// by yielding, so the workers they wait for get the core — the loop finishes
/// well inside the watchdog and no liveness backstop fires.
#[test]
fn a_yielding_waiter_never_starves_the_worker_it_waits_for() {
    with_watchdog(
        "a_yielding_waiter_never_starves_the_worker_it_waits_for",
        WATCHDOG,
        || {
            let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
            let scheduler = Scheduler::with_threads(4);
            let (members, delta, median) = cold_runs(&scheduler);
            assert_eq!(members.iter().sum::<u64>(), 2 * RUNS, "{members:?}");
            assert_eq!(delta.team_tasks_executed, 2 * RUNS, "{delta:?}");
            assert_eq!(delta.liveness_resyncs, 0, "{delta:?}");
            eprintln!(
                "cold run_team(2) at p = 4: median {median:?}, {:.2} parks per run",
                delta.parks as f64 / RUNS as f64
            );
        },
    );
}
