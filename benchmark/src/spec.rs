//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics.  `BENCHMARK.json` at the
//! repository root is this table rendered by `teamsteal-benchmark spec`; a
//! unit test keeps the two equal.

use crate::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload: its name and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// One metric.  `bound` is set for end-to-end metrics only: the share of
/// the parent's median by which the metric may get worse.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

/// Seconds one run measures for; the driver passes it as `--seconds`.
pub const RUN_SECONDS: u32 = 20;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 42;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sort_large",
        why: "the paper's experiment: four distributions at n=2^22 sorted by MMPar, Fork and std; partition kernels and team barrier do the work, task spawn almost none",
    },
    Workload {
        name: "spawn_tree",
        why: "binary spawn tree of 2^21-1 empty tasks, then 2047-task trees from parked workers: slab, level deque, steal and scope countdown do all the work, teams and sort kernels none",
    },
    Workload {
        name: "team_stream",
        why: "dense stream of singleton and team tasks (warm team reuse), then run_team from parked workers (the full cold team-building protocol)",
    },
    Workload {
        name: "service_paced",
        why: "open loop through Tenant::submit at 20k/100k/200k Hz timed from due time, then a closed-loop ceiling: wake path when idle, queue and guard path when busy",
    },
    Workload {
        name: "service_slo",
        why: "the same service through submit_with: 5 ms deadlines, a shared CancelToken per 64 tasks, cancelled batches, and a 2x overload phase (its goodput is the throughput) that only expiry defends",
    },
];

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// End-to-end metrics.  The driver wants every one of them from every
/// workload, so they are the four quantities every workload has; what each
/// means per workload is in the README.
///
/// Bounds come from the calibration record in the README: three times the
/// widest quartile spread any workload showed over ten runs, capped at the
/// 25 % the driver allows.  On this shared two-core host `spawn_tree` and
/// `team_stream` spread by 10-14 % in a noisy quarter of an hour, so the
/// two timing metrics sit at the cap.
pub const END_TO_END: [Metric; 4] = [
    gated("throughput_kops_per_s", "kops/s", Better::Higher, 0.25),
    gated("latency_p50_us", "us", Better::Lower, 0.25),
    gated("peak_rss_mb", "MB", Better::Lower, 0.10),
    gated("setup_s", "s", Better::Lower, 0.25),
];

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// Per-layer metrics, named `<crate>.<module>.<what>`.  Reported by the
/// traced run, never gated.  A metric a workload does not exercise reads 0.
pub const PER_LAYER: [Metric; 82] = [
    // -- Ladder: the same empty operation through each public boundary.
    lo("util.slab.alloc_release_ns", "ns"),
    lo("util.epoch.pin_unpin_ns", "ns"),
    lo("util.eventcount.notify_wake_us", "us"),
    lo("deque.raw.push_pop_ns", "ns"),
    lo("deque.raw.steal_ns", "ns"),
    lo("deque.injector.push_pop_ns", "ns"),
    lo("deque.sharded.push_pop_ns", "ns"),
    lo("registration.acquire_release_ns", "ns"),
    lo("registration.try_reuse_ns", "ns"),
    lo("core.scheduler.build_us", "us"),
    lo("core.context.spawn_ns", "ns"),
    lo("core.scope.spawn_ns", "ns"),
    lo("core.concurrent_scope.submit_ns", "ns"),
    lo("core.run_team.warm_us", "us"),
    lo("core.run_team.cold_us", "us"),
    lo("core.team.barrier_ns", "ns"),
    lo("service.admission.try_acquire_ns", "ns"),
    lo("service.gate.enter_exit_ns", "ns"),
    lo("service.tenant.submit_ns", "ns"),
    lo("service.tenant.submit_with_ns", "ns"),
    lo("sort.seq.std_sort_ns_per_elem", "ns"),
    lo("sort.seq.quicksort_ns_per_elem", "ns"),
    hi("sort.seq.partition_melems_per_s", "Melem/s"),
    hi("sort.partition.team_melems_per_s", "Melem/s"),
    hi("sort.partition.efficiency", "ratio"),
    hi("data.generate_melems_per_s", "Melem/s"),
    // -- What a user of one workload sees beyond the four shared metrics,
    //    measured with tracing off (speed-ups read 0 when P > nproc).
    hi("sort.mixed.melems_per_s", "Melem/s"),
    hi("sort.mixed.speedup_vs_seq", "ratio"),
    hi("sort.mixed.vs_fork", "ratio"),
    hi("core.tree.mtasks_per_s", "Mtask/s"),
    hi("core.team_stream.dense_ktasks_per_s", "ktask/s"),
    lo("core.team_stream.cold_run_us", "us"),
    lo("service.idle_p50_us", "us"),
    lo("service.mid_p50_us", "us"),
    lo("service.busy_p50_us", "us"),
    hi("service.within_slo_share", "ratio"),
    hi("service.ceiling_ktasks_per_s", "ktask/s"),
    hi("service.goodput_ktasks_per_s", "ktask/s"),
    lo("bench.trace_overhead_share", "ratio"),
    // -- Spans around the benchmark's own calls (traced run).
    lo("sort.mixed.random_ms", "ms"),
    lo("sort.mixed.gauss_ms", "ms"),
    lo("sort.mixed.buckets_ms", "ms"),
    lo("sort.mixed.staggered_ms", "ms"),
    lo("sort.fork.cycle_ms", "ms"),
    lo("sort.std.cycle_ms", "ms"),
    lo("bench.verify_self_ms", "ms"),
    lo("service.tenant.submit_call_idle_ns", "ns"),
    lo("service.tenant.submit_call_busy_ns", "ns"),
    lo("service.queue_wait_p50_us", "us"),
    lo("service.queue_wait_p99_us", "us"),
    lo("service.run_p50_us", "us"),
    lo("service.latency_p99_us", "us"),
    lo("service.latency_pmax_us", "us"),
    hi("service.latency_pmax_samples", "count"),
    lo("service.drain_ms", "ms"),
    lo("service.gen_late_p99_us", "us"),
    lo("service.gen_late_max_us", "us"),
    // -- Counts over the traced run, from Scheduler::metrics() and
    //    TaskService::report() deltas.
    hi("core.worker.tasks_executed", "count"),
    hi("core.worker.tasks_spawned", "count"),
    lo("core.worker.steals", "count"),
    lo("core.worker.failed_steal_rounds", "count"),
    hi("core.worker.steal_success_ratio", "ratio"),
    lo("core.worker.teams_built", "count"),
    hi("core.worker.team_reuses", "count"),
    hi("core.worker.team_reuse_ratio", "ratio"),
    lo("core.worker.registrations", "count"),
    lo("core.worker.cas_failures", "count"),
    lo("core.worker.parks", "count"),
    lo("core.worker.wakeups", "count"),
    lo("core.worker.spurious_wakes", "count"),
    lo("core.worker.liveness_resyncs", "count"),
    hi("core.worker.nodes_recycled_ratio", "ratio"),
    lo("core.worker.injector_remote_share", "ratio"),
    lo("core.worker.wake_latency_p50_bound_us", "us"),
    hi("service.tenant.offered", "count"),
    hi("service.tenant.admitted", "count"),
    lo("service.tenant.refused", "count"),
    lo("service.tenant.shed", "count"),
    lo("service.tenant.expired", "count"),
    lo("service.tenant.cancelled", "count"),
    lo("service.tenant.retry_attempts", "count"),
    lo("service.tenant.lost", "count"),
];

/// `true` for names the driver accepts: a letter or digit first, then at
/// most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn metric_json(metric: &Metric) -> Json {
    let mut pairs = vec![
        ("name", Json::str(metric.name)),
        ("unit", Json::str(metric.unit)),
        ("better", Json::str(metric.better.as_str())),
    ];
    if let Some(bound) = metric.bound {
        pairs.push(("bound", Json::Num(bound)));
    }
    Json::obj(pairs)
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_units_and_limits_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "name {name} is used twice");
        }
        for metric in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                !metric.unit.is_empty() && metric.unit.len() <= 16,
                "{}",
                metric.name
            );
            assert!(
                metric
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {} on {}",
                metric.unit,
                metric.name
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for metric in &END_TO_END {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            !valid_name(".x") && !valid_name("") && !valid_name("a b") && valid_name("a.b-c_1")
        );
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `teamsteal-benchmark spec > BENCHMARK.json`"
        );
        let keys: Vec<&str> = on_disk
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
