//! `spawn_tree`: pure task parallelism.
//!
//! *big* — one `Scheduler::run` of a binary `TaskContext::spawn` tree of
//! depth 20: `2^21 - 1` tasks that do nothing but spawn their two children;
//! leaves bump a per-worker counter so the leaf count can be asserted.
//!
//! *small* — the same tree at depth 10 (2047 tasks) submitted to parked
//! workers, after 400 µs of idleness: what a small parallel job costs from
//! a cold start (wake, spawn, first steal, scope countdown).

use std::time::{Duration, Instant};

use teamsteal_core::{Scheduler, TaskContext};
use teamsteal_util::timing::time;

use super::{worker_counts, Measured, Params, PerWorker};
use crate::stats::{median, percentile_sorted, sorted, trimmed_mean};
use crate::trace::Tracer;
use crate::watchdog::Watchdog;

/// Fewest timed repetitions per instance, whatever `--seconds` says.
const MIN_BIG_REPS: usize = 2;
const MIN_SMALL_RUNS: usize = 20;
/// Share of an instance's measuring time spent on big trees.
const BIG_SHARE: f64 = 0.75;
const IDLE_GAP: Duration = Duration::from_micros(400);

fn node(ctx: &TaskContext<'_>, depth: u32, leaves: &'static PerWorker) {
    if depth == 0 {
        leaves.add(ctx.global_thread_id(), 1);
        return;
    }
    ctx.spawn(move |c| node(c, depth - 1, leaves));
    ctx.spawn(move |c| node(c, depth - 1, leaves));
}

pub fn run(params: &Params, tracer: &mut Tracer, watchdog: &Watchdog) -> Measured {
    let (big_depth, small_depth): (u32, u32) = if params.smoke { (12, 6) } else { (20, 10) };
    let first_use_depth = big_depth - 5;
    let tasks_in = |depth: u32| (1u64 << (depth + 1)) - 1;
    // Leaked so tasks can hold a plain reference: an `Arc` cloned per task
    // would put a shared counter line into the system under test.
    let leaves: &'static PerWorker = Box::leak(Box::new(PerWorker::new()));
    let tree = move |scheduler: &Scheduler, depth: u32| {
        let start = Instant::now();
        scheduler.run(move |ctx| node(ctx, depth, leaves));
        start.elapsed()
    };

    let root = tracer.open("spawn_tree", None);
    let mut setup_secs = Vec::new();
    let mut big_secs = Vec::new();
    let mut small_us = Vec::new();
    let mut expected_leaves = 0u64;
    let mut delta = teamsteal_core::MetricsSnapshot::default();
    let budget = params.seconds_per_instance();
    for _ in 0..params.instances {
        // Set-up is the scheduler build plus first use: a smaller tree on
        // the cold scheduler, which wakes the workers and grows the node
        // arenas and deque buffers, so that lazily done work shows here.
        let (took, scheduler) = watchdog.phase("spawn_tree/set-up", Duration::from_secs(5), || {
            time(|| {
                let scheduler = Scheduler::with_threads(params.threads);
                tree(&scheduler, first_use_depth);
                scheduler
            })
        });
        setup_secs.push(took.as_secs_f64());
        expected_leaves += 1 << first_use_depth;
        let before = scheduler.metrics();

        let start = Instant::now();
        let mut reps = 0;
        while reps < MIN_BIG_REPS || start.elapsed().as_secs_f64() < budget * BIG_SHARE {
            let elapsed = watchdog.phase("spawn_tree/big", Duration::from_secs(5), || {
                tracer.scoped("core.scheduler.run", Some(root), || {
                    tree(&scheduler, big_depth)
                })
            });
            big_secs.push(elapsed.as_secs_f64());
            expected_leaves += 1 << big_depth;
            reps += 1;
            if params.smoke && reps >= MIN_BIG_REPS {
                break;
            }
        }

        let start = Instant::now();
        let mut runs = 0;
        watchdog.phase(
            "spawn_tree/small",
            Duration::from_secs_f64(budget.max(1.0)),
            || {
                while runs < MIN_SMALL_RUNS
                    || start.elapsed().as_secs_f64() < budget * (1.0 - BIG_SHARE)
                {
                    std::thread::sleep(IDLE_GAP);
                    small_us.push(tree(&scheduler, small_depth).as_secs_f64() * 1e6);
                    expected_leaves += 1 << small_depth;
                    runs += 1;
                    if params.smoke && runs >= MIN_SMALL_RUNS {
                        break;
                    }
                }
            },
        );
        delta = delta.merge(scheduler.metrics().delta_since(&before));
    }
    tracer.close(root);

    let lost = expected_leaves.abs_diff(leaves.total());
    let tasks_per_s = tasks_in(big_depth) as f64 / trimmed_mean(&big_secs);
    let mut layer = vec![("core.tree.mtasks_per_s", tasks_per_s / 1e6)];
    layer.extend(worker_counts(&delta));

    Measured {
        correct: lost == 0,
        attempted: big_secs.len() as u64 * tasks_in(big_depth)
            + small_us.len() as u64 * tasks_in(small_depth),
        failed: lost,
        setup_s: median(&setup_secs),
        throughput_kops: tasks_per_s / 1e3,
        latency_p50_us: percentile_sorted(&sorted(&small_us), 50.0),
        layer,
        samples: vec![
            ("throughput_kops_per_s", big_secs.len() as u64),
            ("latency_p50_us", small_us.len() as u64),
            ("setup_s", setup_secs.len() as u64),
        ],
    }
}
