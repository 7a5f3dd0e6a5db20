//! End-to-end sorting integration tests: every variant of the paper's
//! evaluation, cross-checked on the same inputs, plus property-based tests
//! over arbitrary vectors.

use proptest::prelude::*;

use teamsteal::{
    fork_join_sort, is_permutation_of, is_sorted, mixed_mode_sort, sequential_quicksort, std_sort,
    Distribution, Scheduler, SortConfig, StealPolicy,
};

mod common;
use common::{with_watchdog, WATCHDOG};

fn small_config() -> SortConfig {
    SortConfig {
        cutoff: 256,
        block_size: 512,
        min_blocks_per_thread: 4,
    }
}

#[test]
fn all_variants_agree_on_every_distribution() {
    let threads = 4;
    let det = Scheduler::with_threads(threads);
    let rand = Scheduler::builder()
        .threads(threads)
        .steal_policy(StealPolicy::UniformRandom)
        .build();
    let config = small_config();
    for distribution in Distribution::ALL {
        let input = distribution.generate(120_000, threads, 2026);
        let mut reference = input.clone();
        std_sort(&mut reference);

        let mut seq = input.clone();
        sequential_quicksort(&mut seq, &config);
        assert_eq!(seq, reference, "{distribution:?}: SeqQS disagrees");

        let mut fork = input.clone();
        fork_join_sort(&det, &mut fork, &config);
        assert_eq!(fork, reference, "{distribution:?}: Fork disagrees");

        let mut randfork = input.clone();
        fork_join_sort(&rand, &mut randfork, &config);
        assert_eq!(randfork, reference, "{distribution:?}: Randfork disagrees");

        let mut mm = input.clone();
        mixed_mode_sort(&det, &mut mm, &config);
        assert_eq!(mm, reference, "{distribution:?}: MMPar disagrees");
    }
}

#[test]
fn mixed_mode_sort_uses_teams_on_large_inputs_only() {
    let scheduler = Scheduler::with_threads(4);
    let config = small_config();

    // Large enough input: the data-parallel partitioning step must run.
    let mut big = Distribution::Random.generate(300_000, 4, 1);
    mixed_mode_sort(&scheduler, &mut big, &config);
    assert!(is_sorted(&big));
    let after_big = scheduler.metrics();
    assert!(
        after_big.teams_formed > 0,
        "expected team-built partitioning"
    );

    // Small input on a fresh scheduler: pure fork-join, no team overhead.
    let scheduler_small = Scheduler::with_threads(4);
    let mut small = Distribution::Random.generate(4_000, 4, 2);
    mixed_mode_sort(&scheduler_small, &mut small, &config);
    assert!(is_sorted(&small));
    assert_eq!(scheduler_small.metrics().teams_formed, 0);
}

/// The share cap (DESIGN.md §5): on two threads only the root's share of the
/// machine is two workers wide, so one sort runs exactly one team partition
/// (`team_tasks_executed` counts per participant) and everything below it is
/// Algorithm 10's task.
#[test]
fn two_threads_partition_only_the_root_as_a_team() {
    with_watchdog(
        "two_threads_partition_only_the_root_as_a_team",
        WATCHDOG,
        || {
            let scheduler = Scheduler::with_threads(2);
            for distribution in Distribution::ALL {
                let mut data = distribution.generate(1 << 20, 2, 22);
                let mut reference = data.clone();
                reference.sort_unstable();
                let before = scheduler.metrics();
                mixed_mode_sort(&scheduler, &mut data, &SortConfig::default());
                let team_tasks = scheduler.metrics().delta_since(&before).team_tasks_executed;
                assert!(
                    data == reference,
                    "{distribution:?} differs from sort_unstable"
                );
                assert_eq!(
                    team_tasks, 2,
                    "{distribution:?}: one two-member root partition"
                );
            }
        },
    );
}

/// On four threads the teams below the root shrink with their share: a sort
/// runs a handful of team partitions, not one per subrange down to
/// `best_np`'s floor.  The bound is loose on purpose — a skewed split can keep
/// one child above half the machine for a few levels.
#[test]
fn four_threads_run_a_handful_of_team_partitions() {
    with_watchdog(
        "four_threads_run_a_handful_of_team_partitions",
        WATCHDOG,
        || {
            let threads = 4;
            let scheduler = Scheduler::with_threads(threads);
            for distribution in Distribution::ALL {
                let input = distribution.generate(1 << 20, threads, 23);
                let mut data = input.clone();
                let before = scheduler.metrics();
                mixed_mode_sort(&scheduler, &mut data, &SortConfig::default());
                let delta = scheduler.metrics().delta_since(&before);
                assert!(is_sorted(&data), "{distribution:?} not sorted");
                assert!(
                    is_permutation_of(&input, &data),
                    "{distribution:?} corrupted"
                );
                assert!(
                    delta.team_tasks_executed <= 8 * threads as u64,
                    "{distribution:?}: {} team-task executions in one sort",
                    delta.team_tasks_executed
                );
            }
            assert!(scheduler.metrics().teams_formed > 0);
        },
    );
}

#[test]
fn adversarial_inputs_sort_correctly() {
    let scheduler = Scheduler::with_threads(4);
    let config = small_config();
    let n = 100_000;
    let cases: Vec<(&str, Vec<u32>)> = vec![
        ("already sorted", (0..n as u32).collect()),
        ("reverse sorted", (0..n as u32).rev().collect()),
        ("all equal", vec![42u32; n]),
        ("two values", (0..n as u32).map(|i| i % 2).collect()),
        (
            "organ pipe",
            (0..n as u32).map(|i| i.min(n as u32 - 1 - i)).collect(),
        ),
        ("single", vec![7]),
        ("empty", vec![]),
    ];
    for (name, input) in cases {
        let mut fork = input.clone();
        fork_join_sort(&scheduler, &mut fork, &config);
        assert!(is_sorted(&fork), "fork failed on {name}");
        assert!(is_permutation_of(&input, &fork), "fork corrupted {name}");

        let mut mm = input.clone();
        mixed_mode_sort(&scheduler, &mut mm, &config);
        assert!(is_sorted(&mm), "mmpar failed on {name}");
        assert!(is_permutation_of(&input, &mm), "mmpar corrupted {name}");
    }
}

#[test]
fn paper_thread_counts_all_sort() {
    // The thread counts of the paper's four machines (scaled run): the
    // scheduler must work oversubscribed on whatever host this runs on.
    let config = small_config();
    for threads in [8usize, 16, 32] {
        let scheduler = Scheduler::with_threads(threads);
        let input = Distribution::Staggered.generate(150_000, threads, threads as u64);
        let mut mm = input.clone();
        mixed_mode_sort(&scheduler, &mut mm, &config);
        assert!(is_sorted(&mm), "MMPar failed with {threads} threads");
        assert!(is_permutation_of(&input, &mm));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fork_join_sort_matches_std(mut v in proptest::collection::vec(any::<u32>(), 0..4000)) {
        let scheduler = Scheduler::with_threads(3);
        let mut reference = v.clone();
        reference.sort_unstable();
        fork_join_sort(&scheduler, &mut v, &SortConfig { cutoff: 64, ..SortConfig::default() });
        prop_assert_eq!(v, reference);
    }

    #[test]
    fn mixed_mode_sort_matches_std(mut v in proptest::collection::vec(any::<u32>(), 0..4000)) {
        let scheduler = Scheduler::with_threads(3);
        let mut reference = v.clone();
        reference.sort_unstable();
        let config = SortConfig { cutoff: 64, block_size: 128, min_blocks_per_thread: 2 };
        mixed_mode_sort(&scheduler, &mut v, &config);
        prop_assert_eq!(v, reference);
    }
}
