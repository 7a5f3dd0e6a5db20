//! Heat diffusion on a 1-D rod: an iterative stencil run by a single,
//! long-lived team task.
//!
//! Every Jacobi sweep is data parallel, but consecutive sweeps depend on each
//! other.  A fork-join runtime has to spawn and join `p` tasks per sweep; on
//! the team-building scheduler the whole iteration is **one** team task — the
//! team is built once and reused for every sweep (Section 3.1 of the paper),
//! and sweeps are separated by intra-team barriers.
//!
//! ```text
//! cargo run --release --example heat_diffusion [cells] [sweeps] [threads]
//! ```

use teamsteal::apps::stencil::{jacobi_mixed, jacobi_sequential, StencilConfig};
use teamsteal::Scheduler;

fn main() {
    let mut args = std::env::args().skip(1);
    let cells: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(400_000);
    let sweeps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });

    println!("heat_diffusion: {cells} cells, {sweeps} sweeps, {threads} worker threads");

    // A rod that is hot in the middle and cold (fixed) at both ends.
    let mut grid = vec![0.0f64; cells];
    for (i, cell) in grid.iter_mut().enumerate() {
        let x = i as f64 / cells as f64;
        *cell = 100.0 * (-((x - 0.5) * 12.0).powi(2)).exp();
    }

    let config = StencilConfig {
        sweeps,
        alpha: 0.25,
        min_cells_per_member: 8 * 1024,
    };

    let t0 = std::time::Instant::now();
    let reference = jacobi_sequential(&grid, &config);
    let seq_time = t0.elapsed();

    let scheduler = Scheduler::with_threads(threads);
    let t1 = std::time::Instant::now();
    let result = jacobi_mixed(&scheduler, &grid, &config);
    let mixed_time = t1.elapsed();

    let max_diff = reference
        .iter()
        .zip(&result)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max)
        .max(0.0);
    let peak = result.iter().cloned().fold(f64::MIN, f64::max);
    let total: f64 = result.iter().sum();

    println!("  sequential:  {:.3?}", seq_time);
    println!("  mixed-mode:  {:.3?}", mixed_time);
    println!("  max |diff| between the two solutions: {max_diff:.3e}");
    println!("  peak temperature after diffusion: {peak:.3}");
    println!("  total heat (conserved away from the boundaries): {total:.3}");

    let metrics = scheduler.metrics();
    println!(
        "  scheduler: {} teams formed, {} registrations, {} team-task executions",
        metrics.teams_formed, metrics.registrations, metrics.team_tasks_executed
    );
    assert!(
        max_diff < 1e-9,
        "mixed-mode result must match the sequential solver"
    );
}
