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

use teamsteal::apps::bfs::{self, bfs_mixed, bfs_sequential, CsrGraph};
use teamsteal::apps::histogram::{self, histogram_mixed, histogram_sequential};
use teamsteal::apps::matmul::{self, matmul_mixed, matmul_sequential, Matrix};
use teamsteal::apps::reduce::{self, parallel_sum, team_reduce};
use teamsteal::apps::scan::{self, inclusive_scan_mixed};
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
    // Four times the largest element floor gives reduce, scan and histogram
    // a team each.
    let n = 4 * histogram::MIN_ELEMENTS_PER_MEMBER;

    let ints: Vec<u64> = (0..n as u64).map(|i| i % 97).collect();
    assert_eq!(
        team_reduce(&scheduler, &ints, 0u64, |a, b| a + b),
        ints.iter().sum::<u64>()
    );

    let mut prefix = vec![0u64; n];
    inclusive_scan_mixed(&scheduler, &ints, &mut prefix, 0, |a, b| a + b);
    assert_eq!(*prefix.last().unwrap(), ints.iter().sum::<u64>());

    let keys = Distribution::Buckets.generate(n, 4, 3);
    assert_eq!(
        histogram_mixed(&scheduler, &keys, 48),
        histogram_sequential(&keys, 48)
    );

    // Row bands below the default flops floor are r = 1 tasks.
    let a = Matrix::from_fn(96, 80, |i, j| ((i * 7 + j) % 13) as f64);
    let b = Matrix::from_fn(80, 64, |i, j| ((i + j * 3) % 11) as f64);
    let product = matmul_mixed(&scheduler, &a, &b);
    assert!(product.max_abs_diff(&matmul_sequential(&a, &b)) < 1e-9);

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
    // team would simply serialize after the sort drains).  Three floors'
    // worth of elements is two members' and not four.
    let n = 3 * reduce::MIN_ELEMENTS_PER_MEMBER as u64;
    let ints: Vec<u64> = (0..n).map(|i| i % 1009).collect();
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
            sums.push(team_reduce(&s2, &ints, 0u64, |a, b| a + b));
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
            team_reduce(&scheduler, &ints, 0u64, |a, b| a + b),
            ints.iter().sum::<u64>(),
            "reduce failed for p={threads}, {policy:?}"
        );
        // A degree-8 random graph's widest levels hold several floors' worth
        // of edges, so they run as team tasks.
        let graph = CsrGraph::random(4 * bfs::MIN_EDGES_PER_MEMBER, 8, 5);
        assert_eq!(
            bfs_mixed(&scheduler, &graph, 7),
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
    // A band of 64 rows gets two members once its `64·n·k` flops reach two
    // floors: square operands of dimension 256 and up.
    let min_dim = (1..)
        .find(|d| 64 * d * d >= 2 * matmul::MIN_FLOPS_PER_MEMBER)
        .unwrap();
    for round in 0..3 {
        let dim = min_dim + round * 32;
        let a = Matrix::from_fn(dim, dim, |i, j| {
            ((i * 13 + j * 5 + round) % 17) as f64 * 0.5
        });
        let b = Matrix::from_fn(dim, dim, |i, j| {
            ((i * 3 + j * 11 + round) % 19) as f64 * 0.25
        });
        let reference = matmul_sequential(&a, &b);
        let got = matmul_mixed(&scheduler, &a, &b);
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

/// Per kernel, the team publications its public entry point causes on a
/// two-thread scheduler: a team exactly from twice its floor (two members'
/// worth of work) and none at one unit less.
#[test]
fn every_kernel_builds_a_team_from_twice_its_floor() {
    let scheduler = Scheduler::with_threads(2);
    // Each case runs its kernel at `units` of the unit its floor counts.
    type Run = fn(&Scheduler, usize);
    let cases: [(&str, usize, Run); 5] = [
        ("reduce", reduce::MIN_ELEMENTS_PER_MEMBER, |s, n| {
            parallel_sum(s, &vec![1; n]);
        }),
        ("scan", scan::MIN_ELEMENTS_PER_MEMBER, |s, n| {
            inclusive_scan_mixed(s, &vec![1u64; n], &mut vec![0; n], 0, |a, b| a + b);
        }),
        ("histogram", histogram::MIN_ELEMENTS_PER_MEMBER, |s, n| {
            histogram_mixed(s, &vec![7; n], 16);
        }),
        ("matmul", matmul::MIN_FLOPS_PER_MEMBER, |s, flops| {
            let (rows, k, n) = one_band(flops);
            matmul_mixed(s, &Matrix::zeros(rows, k), &Matrix::zeros(k, n));
        }),
        ("bfs", bfs::MIN_EDGES_PER_MEMBER, |s, edges| {
            // A star: the second level is the `edges` leaves, one edge each
            // by the mean degree.
            let star: Vec<(u32, u32)> = (1..=edges as u32).map(|v| (0, v)).collect();
            bfs_mixed(s, &CsrGraph::from_edges(edges + 1, &star), 0);
        }),
    ];
    for (kernel, floor, run) in cases {
        let teams = |units: usize| {
            let before = scheduler.metrics();
            run(&scheduler, units);
            let delta = scheduler.metrics().delta_since(&before);
            delta.teams_built + delta.team_reuses
        };
        assert!(teams(2 * floor) > 0, "{kernel}: no team at 2 × floor");
        assert_eq!(teams(2 * floor - 1), 0, "{kernel}: a team below 2 × floor");
    }
}

/// The shape of a matmul whose single row band (at most 64 rows) costs
/// exactly `flops` multiply-adds: `rows × k` times `k × n`, each factor as
/// large as it divides.
fn one_band(flops: usize) -> (usize, usize, usize) {
    let rows = (1..=64).rev().find(|r| flops % r == 0).unwrap();
    let rest = flops / rows;
    let k = (1..)
        .take_while(|k| k * k <= rest)
        .filter(|k| rest % k == 0)
        .last()
        .unwrap();
    (rows, k, rest / k)
}
