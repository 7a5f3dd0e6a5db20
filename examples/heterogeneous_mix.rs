//! A heterogeneous mixed-mode workload: a stream of tasks whose thread
//! requirements vary between 1 and the full machine, interleaved at random.
//!
//! This is the situation the paper's introduction motivates (PEPPHER
//! component tasks with fixed resource requirements): the scheduler must keep
//! building, reusing, shrinking and disbanding teams while ordinary
//! work-stealing fills the gaps.  The example prints how the work was spread
//! over the workers and how many teams were built.
//!
//! ```text
//! cargo run --release --example heterogeneous_mix [tasks]
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use teamsteal::{Scheduler, StealPolicy};
use teamsteal_util::rng::Xoshiro256;

fn main() {
    let total_tasks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    let threads = 8usize;
    let scheduler = Scheduler::builder()
        .threads(threads)
        .steal_policy(StealPolicy::Deterministic)
        .build();

    // Per-worker execution counts, to see the load balance.
    let per_worker: Arc<Vec<AtomicUsize>> =
        Arc::new((0..threads).map(|_| AtomicUsize::new(0)).collect());
    let team_work = Arc::new(AtomicU64::new(0));
    let solo_work = Arc::new(AtomicU64::new(0));

    let mut rng = Xoshiro256::new(2024);
    let mut submitted_by_requirement = vec![0usize; threads + 1];

    scheduler.scope(|scope| {
        for i in 0..total_tasks {
            // Requirements 1, 2, 4 and 8 with decreasing probability.
            let requirement = match rng.next_below(10) {
                0..=5 => 1usize,
                6..=7 => 2,
                8 => 4,
                _ => 8,
            };
            submitted_by_requirement[requirement] += 1;
            let per_worker = Arc::clone(&per_worker);
            if requirement == 1 {
                let solo_work = Arc::clone(&solo_work);
                scope.spawn(move |ctx| {
                    per_worker[ctx.global_thread_id()].fetch_add(1, Ordering::Relaxed);
                    solo_work.fetch_add(busy_work(i as u64, 20_000), Ordering::Relaxed);
                });
            } else {
                let team_work = Arc::clone(&team_work);
                scope.spawn_team(requirement, move |ctx| {
                    per_worker[ctx.global_thread_id()].fetch_add(1, Ordering::Relaxed);
                    // Split the work across the members; the barrier makes the
                    // task genuinely cooperative.
                    let share = busy_work(
                        i as u64 + ctx.local_id() as u64,
                        20_000 / ctx.team_size() as u64,
                    );
                    team_work.fetch_add(share, Ordering::Relaxed);
                    ctx.barrier();
                });
            }
        }
    });

    println!("submitted {total_tasks} tasks with requirements:");
    for (r, count) in submitted_by_requirement.iter().enumerate() {
        if *count > 0 {
            println!("  r = {r}: {count} tasks");
        }
    }
    println!("task executions per worker (team participations count once per member):");
    for (w, count) in per_worker.iter().enumerate() {
        println!("  worker {w}: {}", count.load(Ordering::Relaxed));
    }
    let m = scheduler.metrics();
    println!(
        "scheduler metrics: {} sequential executions, {} team participations, {} teams formed, \
         {} registrations, {} steals ({} tasks moved), {} help-steals",
        m.tasks_executed,
        m.team_tasks_executed,
        m.teams_formed,
        m.registrations,
        m.steals,
        m.tasks_stolen,
        m.help_steals
    );
    // Every submitted task ran: sequential ones once, team ones once per member.
    std::hint::black_box((solo_work, team_work));
}

/// Deterministic busy loop standing in for real component work.
fn busy_work(seed: u64, iters: u64) -> u64 {
    let mut acc = seed;
    for k in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
    }
    std::hint::black_box(acc % 7)
}
