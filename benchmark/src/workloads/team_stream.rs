//! `team_stream`: the team-building layer used two ways on one scheduler.
//!
//! *dense* — one root task spawns 100 000 children; every fourth is a
//! `spawn_team(r)` with `r` cycling over `2..=P` and two barriers in its
//! body, the rest are 0.5 µs singletons.  Consecutive team tasks find the
//! previous team still warm, so this is the reuse path.
//!
//! *sparse* — `run_team(P, barrier)` followed by 400 µs of idleness, longer
//! than the default `warm_keepalive` (200 µs), over and over: every team is
//! built from parked workers by the paper's full protocol.

use std::time::{Duration, Instant};

use teamsteal_core::{MetricsSnapshot, Scheduler};
use teamsteal_util::timing::time;

use super::{worker_counts, Measured, Params, PerWorker};
use crate::host::spin_for_ns;
use crate::stats::{median, percentile_sorted, sorted, trimmed_mean};
use crate::trace::Tracer;
use crate::watchdog::Watchdog;

/// Fewest repetitions per instance, whatever `--seconds` says.
const MIN_DENSE_REPS: usize = 2;
const MIN_COLD_RUNS: usize = 20;
/// Share of an instance's measuring time spent in the dense phase.
const DENSE_SHARE: f64 = 0.6;
const SINGLETON_SPIN_NS: u64 = 500;
const IDLE_GAP: Duration = Duration::from_micros(400);

struct Counters {
    singletons: PerWorker,
    team_members: PerWorker,
    cold_members: PerWorker,
}

/// Team size of the `k`-th team task of a dense repetition.
fn team_size(k: usize, p: usize) -> usize {
    2 + k % (p - 1)
}

pub fn run(params: &Params, tracer: &mut Tracer, watchdog: &Watchdog) -> Measured {
    let p = params.threads;
    let children: usize = if params.smoke { 4_000 } else { 100_000 };
    let counters: &'static Counters = Box::leak(Box::new(Counters {
        singletons: PerWorker::new(),
        team_members: PerWorker::new(),
        cold_members: PerWorker::new(),
    }));

    let dense_rep = |scheduler: &Scheduler, children: usize| {
        let start = Instant::now();
        scheduler.run(move |ctx| {
            for i in 0..children {
                if i % 4 == 3 {
                    ctx.spawn_team(team_size(i / 4, p), move |c| {
                        c.barrier();
                        // Members beyond the requested size (a requirement
                        // rounded up to a hierarchy group) are not counted.
                        if !c.is_surplus() {
                            counters.team_members.add(c.global_thread_id(), 1);
                        }
                        c.barrier();
                    });
                } else {
                    ctx.spawn(move |c| {
                        spin_for_ns(SINGLETON_SPIN_NS);
                        counters.singletons.add(c.global_thread_id(), 1);
                    });
                }
            }
        });
        start.elapsed()
    };
    // What a dense repetition of `children` children must have executed.
    let singletons_in = |children: usize| (children - children / 4) as u64;
    let members_in = |children: usize| {
        (0..children / 4)
            .map(|k| team_size(k, p) as u64)
            .sum::<u64>()
    };

    let root = tracer.open("team_stream", None);
    let mut setup_secs = Vec::new();
    let mut dense_secs = Vec::new();
    let mut cold_us = Vec::new();
    let mut first_use_reps = 0u64;
    let mut delta = MetricsSnapshot::default();
    let mut dense_delta = MetricsSnapshot::default();
    let budget = params.seconds_per_instance();
    for _ in 0..params.instances {
        // Set-up is the scheduler build plus first use: a short dense
        // stream on the cold scheduler (first team built), then every worker
        // spawns a stream's worth of empty children, so that lazily done
        // work shows here.  The second step also makes peak memory
        // repeatable: a node comes from the arena of the worker that spawns
        // it, and whether one worker or, over the run, both get to run a
        // root task (23 MB or 44 MB) is otherwise luck.
        let (took, scheduler) =
            watchdog.phase("team_stream/set-up", Duration::from_secs(5), || {
                time(|| {
                    let scheduler = Scheduler::with_threads(p);
                    dense_rep(&scheduler, children / 10);
                    scheduler.run_team(p, move |ctx| {
                        for _ in 0..children {
                            ctx.spawn(|_| {});
                        }
                    });
                    scheduler
                })
            });
        setup_secs.push(took.as_secs_f64());
        first_use_reps += 1;
        let before = scheduler.metrics();

        // ---- dense -----------------------------------------------------
        let dense_span = tracer.open("team_stream.dense", Some(root));
        let dense_start = Instant::now();
        let mut reps = 0;
        while reps < MIN_DENSE_REPS || dense_start.elapsed().as_secs_f64() < budget * DENSE_SHARE {
            let elapsed = watchdog.phase("team_stream/dense", Duration::from_secs(5), || {
                tracer.scoped("core.scheduler.run", Some(dense_span), || {
                    dense_rep(&scheduler, children)
                })
            });
            dense_secs.push(elapsed.as_secs_f64());
            reps += 1;
            if params.smoke && reps >= MIN_DENSE_REPS {
                break;
            }
        }
        tracer.close(dense_span);
        dense_delta = dense_delta.merge(scheduler.metrics().delta_since(&before));

        // ---- sparse ----------------------------------------------------
        let sparse_span = tracer.open("team_stream.sparse", Some(root));
        let sparse_start = Instant::now();
        let mut runs = 0;
        watchdog.phase(
            "team_stream/sparse",
            Duration::from_secs_f64(budget.max(1.0)),
            || {
                while runs < MIN_COLD_RUNS
                    || sparse_start.elapsed().as_secs_f64() < budget * (1.0 - DENSE_SHARE)
                {
                    std::thread::sleep(IDLE_GAP);
                    let span = tracer.open("core.run_team.cold", Some(sparse_span));
                    let start = Instant::now();
                    scheduler.run_team(p, move |c| {
                        c.barrier();
                        counters.cold_members.add(c.global_thread_id(), 1);
                    });
                    cold_us.push(start.elapsed().as_secs_f64() * 1e6);
                    tracer.close(span);
                    runs += 1;
                    if params.smoke && runs >= MIN_COLD_RUNS {
                        break;
                    }
                }
            },
        );
        tracer.close(sparse_span);
        delta = delta.merge(scheduler.metrics().delta_since(&before));
    }
    tracer.close(root);

    let reps = dense_secs.len() as u64;
    let cold_runs = cold_us.len() as u64;
    let expected_singletons =
        reps * singletons_in(children) + first_use_reps * singletons_in(children / 10);
    let expected_members = reps * members_in(children) + first_use_reps * members_in(children / 10);
    let lost = expected_singletons.abs_diff(counters.singletons.total())
        + expected_members.abs_diff(counters.team_members.total())
        + (cold_runs * p as u64).abs_diff(counters.cold_members.total());
    let dense_tasks_per_s = (children as f64 + 1.0) / trimmed_mean(&dense_secs);
    let cold_p50 = percentile_sorted(&sorted(&cold_us), 50.0);

    let mut layer = vec![
        (
            "core.team_stream.dense_ktasks_per_s",
            dense_tasks_per_s / 1e3,
        ),
        ("core.team_stream.cold_run_us", cold_p50),
    ];
    layer.extend(worker_counts(&delta));
    // The reuse ratio of the whole run mixes the two phases; what the dense
    // phase alone achieved is the number the interaction table predicts.
    if let Some(row) = layer
        .iter_mut()
        .find(|(n, _)| *n == "core.worker.team_reuse_ratio")
    {
        let publications = dense_delta.team_reuses + dense_delta.teams_built;
        row.1 = if publications == 0 {
            0.0
        } else {
            dense_delta.team_reuses as f64 / publications as f64
        };
    }

    Measured {
        correct: lost == 0,
        attempted: reps * (children as u64 + 1) + cold_runs,
        failed: lost,
        setup_s: median(&setup_secs),
        throughput_kops: dense_tasks_per_s / 1e3,
        latency_p50_us: cold_p50,
        layer,
        samples: vec![
            ("throughput_kops_per_s", reps),
            ("latency_p50_us", cold_runs),
            ("setup_s", setup_secs.len() as u64),
        ],
    }
}
