//! Tour of the mixed-mode application kernels sharing one scheduler.
//!
//! One of the arguments the paper makes for putting data-parallel tasks *on
//! the work-stealer* (instead of hand-rolled helper threads) is composability:
//! different parallel computations can share the same worker pool and
//! load-balance against each other.  This example runs the kernel suite —
//! reduction, prefix sum, histogram, matrix multiplication — back to back on
//! a single scheduler and reports what the scheduler did.
//!
//! ```text
//! cargo run --release --example kernel_suite [n] [threads]
//! ```

use teamsteal::apps::histogram::{histogram_mixed, histogram_sequential};
use teamsteal::apps::matmul::{matmul_mixed, matmul_sequential, Matrix};
use teamsteal::apps::reduce::{dot_product, parallel_max, parallel_sum};
use teamsteal::apps::scan::inclusive_scan_mixed;
use teamsteal::{Distribution, Scheduler};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1 << 20);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });

    println!("kernel_suite: n = {n}, {threads} worker threads");
    let scheduler = Scheduler::with_threads(threads);

    // Reduction.
    let ints: Vec<u64> = (0..n as u64).map(|i| i % 1_000).collect();
    let sum = parallel_sum(&scheduler, &ints);
    let max = parallel_max(&scheduler, &ints).unwrap();
    assert_eq!(sum, ints.iter().sum::<u64>());
    println!("  reduce:    sum = {sum}, max = {max}");

    // Dot product.
    let a: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
    let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
    let dot = dot_product(&scheduler, &a, &b);
    println!("  dot:       a·b = {dot:.1}");

    // Prefix sum.
    let mut prefix = vec![0u64; n];
    inclusive_scan_mixed(&scheduler, &ints, &mut prefix, 0, |x, y| x + y);
    assert_eq!(*prefix.last().unwrap(), sum);
    println!("  scan:      last prefix = {}", prefix.last().unwrap());

    // Histogram.
    let keys = Distribution::Gauss.generate(n, threads, 7);
    let hist = histogram_mixed(&scheduler, &keys, 32);
    assert_eq!(hist, histogram_sequential(&keys, 32));
    let densest = hist
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, c)| (i, *c))
        .unwrap();
    println!(
        "  histogram: densest bucket {} holds {} keys",
        densest.0, densest.1
    );

    // Matrix multiplication (kept small so the example stays quick).
    let dim = 160;
    let ma = Matrix::from_fn(dim, dim, |i, j| ((i + 2 * j) % 9) as f64 * 0.5);
    let mb = Matrix::from_fn(dim, dim, |i, j| ((3 * i + j) % 7) as f64 * 0.25);
    let mc = matmul_mixed(&scheduler, &ma, &mb);
    let diff = mc.max_abs_diff(&matmul_sequential(&ma, &mb));
    println!("  matmul:    {dim}x{dim}, max |diff| vs sequential = {diff:.1e}");

    let m = scheduler.metrics();
    println!();
    println!(
        "scheduler totals: {} sequential task executions, {} team tasks, {} teams formed, {} steals",
        m.tasks_executed, m.team_tasks_executed, m.teams_formed, m.steals
    );
}
