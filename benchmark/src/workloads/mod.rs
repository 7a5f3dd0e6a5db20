//! The five workloads.  Each builds what it needs (timed as set-up), runs
//! for the requested time under the watchdog, checks its outputs, and
//! returns the two shared end-to-end numbers plus everything it knows about
//! single layers.

pub mod service;
pub mod sort_large;
pub mod spawn_tree;
pub mod team_stream;

use std::sync::atomic::{AtomicU64, Ordering};

use teamsteal_core::MetricsSnapshot;
use teamsteal_util::CachePadded;

use crate::host;
use crate::trace::Tracer;
use crate::watchdog::Watchdog;

/// How one workload run is parameterised.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seconds to measure for.
    pub seconds: f64,
    /// Seed of every generated input.
    pub seed: u64,
    /// Total threads `P` (see [`host::threads_for`]).
    pub threads: usize,
    /// How many fresh instances of the system a run builds.  Each build is
    /// one set-up sample (the median is reported), and the measuring time
    /// is shared among the instances: how fast one scheduler instance runs
    /// depends on where its hot words happened to land, so a run that
    /// measured a single instance would report that accident.
    pub instances: usize,
    /// Shrinks problem sizes so a test can run all five workloads in
    /// seconds; never used for a measurement.
    pub smoke: bool,
}

impl Params {
    /// The parameters of a measured run on this host.
    pub fn measured(seconds: f64, seed: u64) -> Self {
        Params {
            seconds,
            seed,
            threads: host::threads_for(host::nproc()),
            instances: 5,
            smoke: false,
        }
    }

    /// Tiny sizes for tests.
    pub fn smoke(seed: u64) -> Self {
        Params {
            seconds: 1.0,
            seed,
            threads: host::threads_for(host::nproc()),
            instances: 2,
            smoke: true,
        }
    }

    /// The same run at `share` of the length, with fewer instances.
    pub fn scaled(&self, share: f64) -> Self {
        Params {
            seconds: self.seconds * share,
            instances: 2,
            ..self.clone()
        }
    }

    /// Measuring time of one instance.
    pub fn seconds_per_instance(&self) -> f64 {
        self.seconds / self.instances.max(1) as f64
    }
}

/// What one workload run measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Outputs were right, nothing was lost.
    pub correct: bool,
    /// Operations attempted and operations that failed (wrong output, lost
    /// task, or a refusal/expiry while offered load was below capacity).
    pub attempted: u64,
    pub failed: u64,
    /// Median set-up time over the run's `Params::instances` builds.
    pub setup_s: f64,
    /// Work completed per second at saturation, in thousands of operations.
    pub throughput_kops: f64,
    /// Median latency of the workload's request, in microseconds.
    pub latency_p50_us: f64,
    /// Per-layer values by metric name.
    pub layer: Vec<(&'static str, f64)>,
    /// How many samples stand behind a reported number.
    pub samples: Vec<(&'static str, u64)>,
}

impl Measured {
    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layer.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Runs workload `name`.  `None` for an unknown name.
pub fn run(
    name: &str,
    params: &Params,
    tracer: &mut Tracer,
    watchdog: &Watchdog,
) -> Option<Measured> {
    Some(match name {
        "sort_large" => sort_large::run(params, tracer, watchdog),
        "spawn_tree" => spawn_tree::run(params, tracer, watchdog),
        "team_stream" => team_stream::run(params, tracer, watchdog),
        "service_paced" => service::run(service::Mode::Paced, params, tracer, watchdog),
        "service_slo" => service::run(service::Mode::Slo, params, tracer, watchdog),
        _ => return None,
    })
}

/// One counter per possible worker (`P <= 4`), each on its own cache line,
/// so that counting what ran does not add a shared line to the system under
/// test.
pub(crate) struct PerWorker([CachePadded<AtomicU64>; 4]);

impl PerWorker {
    pub(crate) const fn new() -> Self {
        PerWorker([
            CachePadded::new(AtomicU64::new(0)),
            CachePadded::new(AtomicU64::new(0)),
            CachePadded::new(AtomicU64::new(0)),
            CachePadded::new(AtomicU64::new(0)),
        ])
    }

    pub(crate) fn add(&self, worker: usize, n: u64) {
        self.0[worker % 4].fetch_add(n, Ordering::Relaxed);
    }

    /// Sum over workers.  Exact once the scope that did the counting has
    /// returned (its completion synchronises with the workers).
    pub(crate) fn total(&self) -> u64 {
        self.0.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The `core.worker.*` per-layer rows from a scheduler-metrics delta.
pub(crate) fn worker_counts(delta: &MetricsSnapshot) -> Vec<(&'static str, f64)> {
    vec![
        (
            "core.worker.tasks_executed",
            delta.total_executions() as f64,
        ),
        ("core.worker.tasks_spawned", delta.tasks_spawned as f64),
        ("core.worker.steals", delta.steals as f64),
        (
            "core.worker.failed_steal_rounds",
            delta.failed_steal_rounds as f64,
        ),
        (
            "core.worker.steal_success_ratio",
            ratio(delta.steals, delta.steals + delta.failed_steal_rounds),
        ),
        ("core.worker.teams_built", delta.teams_built as f64),
        ("core.worker.team_reuses", delta.team_reuses as f64),
        (
            "core.worker.team_reuse_ratio",
            ratio(delta.team_reuses, delta.team_reuses + delta.teams_built),
        ),
        ("core.worker.registrations", delta.registrations as f64),
        ("core.worker.cas_failures", delta.cas_failures as f64),
        ("core.worker.parks", delta.parks as f64),
        ("core.worker.wakeups", delta.wakeups as f64),
        ("core.worker.spurious_wakes", delta.spurious_wakes as f64),
        (
            "core.worker.liveness_resyncs",
            delta.liveness_resyncs as f64,
        ),
        (
            "core.worker.nodes_recycled_ratio",
            ratio(delta.nodes_recycled, delta.tasks_spawned),
        ),
        (
            "core.worker.injector_remote_share",
            ratio(
                delta.injector_remote_pops,
                delta.injector_remote_pops + delta.injector_local_pops,
            ),
        ),
        (
            "core.worker.wake_latency_p50_bound_us",
            delta.wake_latency.percentile_bound_us(50.0).unwrap_or(0) as f64,
        ),
    ]
}
