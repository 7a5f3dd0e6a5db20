//! Quickstart: sequential tasks, a data-parallel team task, and the metrics
//! the scheduler exposes.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use teamsteal::{Scheduler, StealPolicy};

fn main() {
    // A scheduler with 4 workers and the paper's deterministic team-building
    // steal policy.
    let scheduler = Scheduler::builder()
        .threads(4)
        .steal_policy(StealPolicy::Deterministic)
        .build();
    println!(
        "scheduler with {} workers, hierarchy levels {:?}",
        scheduler.num_threads(),
        scheduler.topology().level_sizes()
    );

    // ---------------------------------------------------------------
    // 1. Classic work-stealing: a bunch of sequential (r = 1) tasks.
    // ---------------------------------------------------------------
    let sum = Arc::new(AtomicU64::new(0));
    scheduler.scope(|scope| {
        for chunk in 0..16u64 {
            let sum = Arc::clone(&sum);
            scope.spawn(move |ctx| {
                // Each task can spawn further tasks onto its worker's queue.
                let lo = chunk * 1_000;
                let hi = lo + 1_000;
                let local: u64 = (lo..hi).sum();
                sum.fetch_add(local, Ordering::Relaxed);
                let _ = ctx.global_thread_id(); // which worker ran us
            });
        }
    });
    let expected: u64 = (0..16_000u64).sum();
    println!(
        "sequential tasks: sum = {} (expected {expected})",
        sum.load(Ordering::Relaxed)
    );
    assert_eq!(sum.load(Ordering::Relaxed), expected);

    // ---------------------------------------------------------------
    // 2. Mixed-mode parallelism: a task that *requires* 4 threads.
    //    The scheduler builds a team of 4 consecutively numbered workers;
    //    every member runs the closure with its own local id.
    // ---------------------------------------------------------------
    let partial = Arc::new([
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ]);
    let p = Arc::clone(&partial);
    scheduler.run_team(4, move |ctx| {
        let me = ctx.local_id();
        let team = ctx.team_size();
        // Split a reduction across the team by local id (SPMD style).
        let total: u64 = (0..1_000_000u64)
            .filter(|x| x % team as u64 == me as u64)
            .sum();
        p[me].store(total, Ordering::Relaxed);
        // Synchronize, then let exactly one member report.
        if ctx.barrier() {
            let grand: u64 = p.iter().map(|x| x.load(Ordering::Relaxed)).sum();
            println!("team of {team}: grand total = {grand}");
            assert_eq!(grand, (0..1_000_000u64).sum());
        }
    });

    // ---------------------------------------------------------------
    // 3. What did the scheduler do?
    // ---------------------------------------------------------------
    let m = scheduler.metrics();
    println!(
        "metrics: {} sequential tasks, {} team participations, {} teams formed, {} registrations, {} steals",
        m.tasks_executed, m.team_tasks_executed, m.teams_formed, m.registrations, m.steals
    );
}
