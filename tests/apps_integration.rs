//! Cross-crate integration tests: the application kernels (`teamsteal-apps`),
//! the Quicksort workloads (`teamsteal-sort`) and the scheduler
//! (`teamsteal-core`) running together on shared worker pools.
//!
//! The paper's argument for scheduling data-parallel tasks *inside* the
//! work-stealer (rather than with dedicated helper threads) is that different
//! parallel computations can then share one pool and balance against each
//! other.  These tests exercise exactly that: several kernels on one
//! scheduler, kernels running concurrently with task-parallel work, and the
//! same kernel across scheduler configurations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use teamsteal::apps::bfs::{bfs_mixed_with, bfs_sequential, CsrGraph};
use teamsteal::apps::histogram::{histogram_mixed_with, histogram_sequential};
use teamsteal::apps::matmul::{matmul_mixed, matmul_mixed_with, matmul_sequential, Matrix};
use teamsteal::apps::reduce::{parallel_sum, team_reduce_with};
use teamsteal::apps::scan::scan_with;
use teamsteal::apps::stencil::{jacobi_mixed, jacobi_sequential, StencilConfig};
use teamsteal::{
    is_permutation_of, is_sorted, mixed_mode_sort, Distribution, Scheduler, SortConfig, StealPolicy,
};

/// Every kernel, one after another, on one shared scheduler.  Checks results
/// and that team machinery was actually exercised.
#[test]
fn kernel_suite_shares_one_scheduler() {
    let scheduler = Scheduler::with_threads(4);
    // Sizes are modest: the suite's point is cross-kernel composition on one
    // pool, not throughput, and the CI host is a single oversubscribed CPU.
    let n = 60_000usize;

    let ints: Vec<u64> = (0..n as u64).map(|i| i % 97).collect();
    assert_eq!(
        team_reduce_with(&scheduler, &ints, 0u64, |a, b| a + b, 1024),
        ints.iter().sum::<u64>()
    );

    let mut prefix = vec![0u64; n];
    scan_with(&scheduler, &ints, &mut prefix, 0, |a, b| a + b, true, 1024);
    assert_eq!(*prefix.last().unwrap(), ints.iter().sum::<u64>());

    let keys = Distribution::Buckets.generate(n, 4, 3);
    assert_eq!(
        histogram_mixed_with(&scheduler, &keys, 48, 1024),
        histogram_sequential(&keys, 48)
    );

    // Row bands below the default flops floor are r = 1 tasks.
    let a = Matrix::from_fn(96, 80, |i, j| ((i * 7 + j) % 13) as f64);
    let b = Matrix::from_fn(80, 64, |i, j| ((i + j * 3) % 11) as f64);
    let product = matmul_mixed(&scheduler, &a, &b);
    assert!(product.max_abs_diff(&matmul_sequential(&a, &b)) < 1e-9);

    let grid: Vec<f64> = (0..n).map(|i| (i % 31) as f64).collect();
    let stencil_cfg = StencilConfig {
        sweeps: 8,
        alpha: 0.25,
        min_cells_per_member: 1024,
    };
    let heat = jacobi_mixed(&scheduler, &grid, &stencil_cfg);
    let heat_ref = jacobi_sequential(&grid, &stencil_cfg);
    assert!(heat
        .iter()
        .zip(&heat_ref)
        .all(|(a, b)| (a - b).abs() < 1e-12));

    let metrics = scheduler.metrics();
    assert!(metrics.teams_formed > 0, "the suite must have formed teams");
    assert!(metrics.team_tasks_executed > 0);
    assert!(
        metrics.tasks_executed > 0,
        "matmul's row bands are r = 1 tasks"
    );
}

/// The mixed-mode Quicksort and a team reduction submitted to the same
/// scheduler from two OS threads at the same time: the pool must serve both
/// without deadlocking and both must produce correct results.
#[test]
fn quicksort_and_reduction_share_the_pool_concurrently() {
    let scheduler = Arc::new(Scheduler::with_threads(4));
    let sort_input = Distribution::Random.generate(60_000, 4, 9);
    // The reduction is sized so its team requirement (r = 2) is smaller than
    // the machine: the team can form while the other workers keep sorting,
    // which is the co-existence behaviour this test is about (a full-machine
    // team would simply serialize after the sort drains).
    let ints: Vec<u64> = (0..60_000u64).map(|i| i % 1009).collect();
    let expected_sum: u64 = ints.iter().sum();

    let s1 = Arc::clone(&scheduler);
    let original = sort_input.clone();
    let sorter = std::thread::spawn(move || {
        let mut data = original;
        mixed_mode_sort(
            &s1,
            &mut data,
            &SortConfig {
                cutoff: 256,
                block_size: 512,
                min_blocks_per_thread: 4,
            },
        );
        data
    });
    let s2 = Arc::clone(&scheduler);
    let reducer = std::thread::spawn(move || {
        let mut sums = Vec::new();
        for _ in 0..3 {
            sums.push(team_reduce_with(&s2, &ints, 0u64, |a, b| a + b, 16_384));
        }
        sums
    });

    let sorted = sorter.join().expect("sorter panicked");
    assert!(is_sorted(&sorted));
    assert!(is_permutation_of(&sort_input, &sorted));
    for sum in reducer.join().expect("reducer panicked") {
        assert_eq!(sum, expected_sum);
    }
}

/// Team tasks of different sizes interleaved with sequential tasks in one
/// scope: tasks requiring fewer threads must not be starved by large ones and
/// everything must complete.
#[test]
fn interleaved_team_sizes_and_sequential_tasks_complete() {
    let scheduler = Scheduler::with_threads(4);
    let team_hits = Arc::new(AtomicUsize::new(0));
    let seq_hits = Arc::new(AtomicUsize::new(0));

    scheduler.scope(|scope| {
        for round in 0..12 {
            let team = match round % 3 {
                0 => 2,
                1 => 4,
                _ => 1,
            };
            if team == 1 {
                let seq_hits = Arc::clone(&seq_hits);
                scope.spawn(move |ctx| {
                    // Sequential tasks spawn more sequential work.
                    for _ in 0..4 {
                        let seq_hits = Arc::clone(&seq_hits);
                        ctx.spawn(move |_| {
                            seq_hits.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    seq_hits.fetch_add(1, Ordering::Relaxed);
                });
            } else {
                let team_hits = Arc::clone(&team_hits);
                scope.spawn_team(team, move |ctx| {
                    assert!(ctx.local_id() < ctx.team_size());
                    team_hits.fetch_add(1, Ordering::Relaxed);
                    ctx.barrier();
                });
            }
        }
    });

    // 4 rounds of r=1 tasks -> 4 * (1 + 4) executions; 4 rounds of r=2 teams
    // -> 8 member executions; 4 rounds of r=4 teams -> 16 member executions.
    assert_eq!(seq_hits.load(Ordering::Relaxed), 20);
    assert_eq!(team_hits.load(Ordering::Relaxed), 8 + 16);
}

/// The same kernels must work under the randomized-within-level policy
/// (Refinement 4) and on a machine hierarchy that is not a power of two
/// (Refinement 3).
#[test]
fn kernels_respect_refinements_3_and_4() {
    for (threads, policy) in [
        (3usize, StealPolicy::Deterministic),
        (4usize, StealPolicy::RandomizedWithinLevel),
        (6usize, StealPolicy::RandomizedWithinLevel),
    ] {
        let scheduler = Scheduler::builder()
            .threads(threads)
            .steal_policy(policy)
            .build();
        let ints: Vec<u64> = (0..90_000u64).map(|i| i % 11).collect();
        assert_eq!(
            team_reduce_with(&scheduler, &ints, 0u64, |a, b| a + b, 1024),
            ints.iter().sum::<u64>(),
            "reduce failed for p={threads}, {policy:?}"
        );
        let graph = CsrGraph::grid(120, 90);
        assert_eq!(
            bfs_mixed_with(&scheduler, &graph, 7, 512),
            bfs_sequential(&graph, 7),
            "bfs failed for p={threads}, {policy:?}"
        );
    }
}

/// Matrix multiplication correctness on a scheduler that is reused for many
/// multiplications (team reuse across independent scope invocations).
#[test]
fn repeated_matmul_on_a_reused_scheduler() {
    let scheduler = Scheduler::with_threads(4);
    for round in 0..3 {
        let dim = 70 + round * 30;
        let a = Matrix::from_fn(dim, dim, |i, j| {
            ((i * 13 + j * 5 + round) % 17) as f64 * 0.5
        });
        let b = Matrix::from_fn(dim, dim, |i, j| {
            ((i * 3 + j * 11 + round) % 19) as f64 * 0.25
        });
        let reference = matmul_sequential(&a, &b);
        let got = matmul_mixed_with(&scheduler, &a, &b, 1 << 12);
        assert!(
            got.max_abs_diff(&reference) < 1e-9,
            "round {round}: mixed-mode matmul diverged"
        );
    }
}

/// `parallel_sum` on inputs around the team-formation threshold: the result
/// must be identical whether or not a team was built.
#[test]
fn reduction_threshold_boundary_is_seamless() {
    let scheduler = Scheduler::with_threads(2);
    for n in [0usize, 1, 100, 8 * 1024, 8 * 1024 + 1, 64 * 1024] {
        let data: Vec<u64> = (0..n as u64).collect();
        assert_eq!(
            parallel_sum(&scheduler, &data),
            data.iter().sum::<u64>(),
            "n = {n}"
        );
    }
}
