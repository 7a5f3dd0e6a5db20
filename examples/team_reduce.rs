//! Data-parallel reductions with explicit thread requirements.
//!
//! This example shows the SPMD style the team API enables: a task that
//! *requires* `r` threads gets `r` consecutively numbered members, each of
//! which processes a slice of the data, synchronizes on the team barrier and
//! lets one member combine the partial results.  Three reductions of
//! different sizes run concurrently with a batch of ordinary sequential
//! tasks, demonstrating that teams of different sizes and classic
//! work-stealing tasks coexist on one scheduler.
//!
//! ```text
//! cargo run --release --example team_reduce
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use teamsteal::{Scheduler, TaskContext};

/// A shared reduction workspace for one team task.
struct Reduction {
    /// The input values.
    input: Vec<u64>,
    /// One partial-sum slot per team member.
    partials: Vec<AtomicU64>,
    /// The final result, written by the member that wins the barrier.
    result: AtomicU64,
}

impl Reduction {
    fn new(n: usize, team: usize, seed: u64) -> Arc<Self> {
        Arc::new(Reduction {
            input: (0..n as u64)
                .map(|i| (i.wrapping_mul(seed) % 1000) + 1)
                .collect(),
            partials: (0..team).map(|_| AtomicU64::new(0)).collect(),
            result: AtomicU64::new(0),
        })
    }

    /// The team-task body: every member sums its stripe, then one member
    /// folds the stripes.
    fn run(&self, ctx: &TaskContext<'_>) {
        // Distribute over the *requested* number of threads; surplus members
        // (possible when the requirement is rounded up to a hierarchy group
        // on non power-of-two machines) only take part in the barriers.
        let workers = ctx
            .requested_threads()
            .min(ctx.team_size())
            .min(self.partials.len());
        let me = ctx.local_id();
        if me < workers {
            let chunk = self.input.len().div_ceil(workers);
            let lo = (me * chunk).min(self.input.len());
            let hi = ((me + 1) * chunk).min(self.input.len());
            let partial: u64 = self.input[lo..hi].iter().sum();
            self.partials[me].store(partial, Ordering::Relaxed);
        }
        if ctx.barrier() {
            let total: u64 = self
                .partials
                .iter()
                .map(|p| p.load(Ordering::Relaxed))
                .sum();
            self.result.store(total, Ordering::Relaxed);
        }
        // Second barrier so every member sees the published result before the
        // team moves on to its next task.
        ctx.barrier();
        assert_eq!(
            self.result.load(Ordering::Relaxed),
            self.input.iter().sum::<u64>()
        );
    }
}

fn main() {
    let threads = 8;
    let scheduler = Scheduler::with_threads(threads);
    println!(
        "running three team reductions (r = 2, 4, 8) plus 64 sequential tasks on {threads} workers"
    );

    let small = Reduction::new(200_000, 2, 3);
    let medium = Reduction::new(400_000, 4, 5);
    let large = Reduction::new(800_000, 8, 7);
    let sequential_done = Arc::new(AtomicU64::new(0));

    scheduler.scope(|scope| {
        // Ordinary sequential background tasks.
        for i in 0..64u64 {
            let sequential_done = Arc::clone(&sequential_done);
            scope.spawn(move |_| {
                // A little busy work.
                let mut acc = i;
                for k in 0..10_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                std::hint::black_box(acc);
                sequential_done.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Three data-parallel reductions with different thread requirements.
        for (label, team, reduction) in [
            ("small", 2usize, Arc::clone(&small)),
            ("medium", 4, Arc::clone(&medium)),
            ("large", 8, Arc::clone(&large)),
        ] {
            let r = Arc::clone(&reduction);
            scope.spawn_team(team, move |ctx| r.run(ctx));
            println!("  submitted {label} reduction requiring {team} threads");
        }
    });

    println!(
        "results: small = {}, medium = {}, large = {}",
        small.result.load(Ordering::Relaxed),
        medium.result.load(Ordering::Relaxed),
        large.result.load(Ordering::Relaxed)
    );
    println!(
        "sequential tasks completed: {}",
        sequential_done.load(Ordering::Relaxed)
    );
    let m = scheduler.metrics();
    println!(
        "scheduler metrics: {} teams formed, {} registrations (one CAS each), {} steals",
        m.teams_formed, m.registrations, m.steals
    );
}
