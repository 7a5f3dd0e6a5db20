//! The paper's headline workload: mixed-mode parallel Quicksort
//! (data-parallel partitioning by teams + fork-join recursion), compared on
//! the spot against the fork-join-only version and the sequential reference.
//!
//! ```text
//! cargo run --release --example mixed_mode_quicksort [n] [threads]
//! ```

use teamsteal::{
    fork_join_sort, is_sorted, mixed_mode_sort, std_sort, Distribution, Scheduler, SortConfig,
};
use teamsteal_util::timing::{speedup, time};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1 << 21);
    let threads: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|x| x.get().max(2))
            .unwrap_or(4)
    });

    println!("sorting {n} uniformly random u32 values with {threads} worker threads");
    let input = Distribution::Random.generate(n, threads, 0xC0FFEE);
    let config = SortConfig::default();
    let scheduler = Scheduler::with_threads(threads);

    // Sequential reference (the paper's Seq/STL column).
    let mut seq = input.clone();
    let (t_seq, ()) = time(|| std_sort(&mut seq));
    println!(
        "  Seq/STL                     {:>9.3} s",
        t_seq.as_secs_f64()
    );

    // Fork-join Quicksort (Algorithm 10) on the work-stealer.
    let mut fork = input.clone();
    let (t_fork, ()) = time(|| fork_join_sort(&scheduler, &mut fork, &config));
    assert!(is_sorted(&fork));
    println!(
        "  Fork (Algorithm 10)         {:>9.3} s   speedup {:>4.2}",
        t_fork.as_secs_f64(),
        speedup(t_seq, t_fork)
    );

    // Mixed-mode Quicksort (Algorithm 11): team-built data-parallel partition.
    let mut mm = input.clone();
    let (t_mm, ()) = time(|| mixed_mode_sort(&scheduler, &mut mm, &config));
    assert!(is_sorted(&mm));
    println!(
        "  MMPar (Algorithm 11)        {:>9.3} s   speedup {:>4.2}",
        t_mm.as_secs_f64(),
        speedup(t_seq, t_mm)
    );
    assert_eq!(
        seq, mm,
        "all variants must produce the identical sorted array"
    );

    let m = scheduler.metrics();
    println!(
        "  scheduler: {} teams formed, {} team participations, {} steals, {} tasks",
        m.teams_formed, m.team_tasks_executed, m.steals, m.tasks_executed
    );
    println!(
        "note: on a machine with few hardware threads the parallel variants cannot show real speedup;\n\
         the point of this example is the identical API driving both execution modes."
    );
}
