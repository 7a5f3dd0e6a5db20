//! Perf-trajectory harness: sweeps the paper's sort variants and the
//! application kernels and persists machine-readable reports
//! (`BENCH_sort.json`, `BENCH_kernels.json`) so every PR can be compared
//! against a recorded baseline.
//!
//! ```text
//! cargo run --release -p teamsteal-bench --bin perf -- [options]
//!
//!   --smoke            tiny sizes and minimal repetitions (CI guard)
//!   --size N           sort / kernel work budget in elements (default 1<<19)
//!   --threads LIST     comma-separated thread counts (default 1,2,4)
//!   --reps N           timed repetitions per scenario (default 5)
//!   --warmups N        untimed warmup runs per scenario (default 1)
//!   --seed N           input seed (default 42)
//!   --out-dir PATH     where the BENCH_*.json files are written (default .)
//!   --check FILE       compare the fresh sort report's MMPar records
//!                      against the baseline report FILE, and spawn_overhead
//!                      at p = 1 against the BENCH_kernels.json next to it;
//!                      exit 1 on any median regression beyond the tolerance
//!   --tolerance PCT    regression tolerance in percent (default 25)
//! ```
//!
//! The JSON schema and the regeneration workflow are documented in
//! `EXPERIMENTS.md`; the measurement methodology (warmups, why the median is
//! the headline aggregate) in `DESIGN.md` §7.  Unlike the `tables` /
//! `scaling` bins this harness needs no optional features: it only measures
//! scenarios that run on the `teamsteal` scheduler itself, so its numbers
//! are meaningful even in the offline stub build.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use teamsteal_apps::harness::{Kernel, Workload};
use teamsteal_apps::micro;
use teamsteal_bench::report::{
    check_regressions, CheckOutcome, Environment, JsonValue, Report, RunRecord, TimingSummary,
    SCHEMA_VERSION,
};
use teamsteal_bench::{Variant, VariantRunner};
use teamsteal_core::{MetricsSnapshot, Scheduler};
use teamsteal_data::Distribution;
use teamsteal_sort::SortConfig;
use teamsteal_util::timing::RunStats;

/// The sort variants the trajectory tracks.  `SeqStd` is the speedup
/// denominator; the rayon baselines are excluded because in the offline stub
/// build their numbers are not comparable (see EXPERIMENTS.md).
const SORT_SEQUENTIAL: [Variant; 2] = [Variant::SeqStd, Variant::SeqQs];
const SORT_PARALLEL: [Variant; 3] = [Variant::Fork, Variant::RandFork, Variant::MmPar];

/// Which sweep families a run executes (`--only`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sweeps {
    sort: bool,
    kernel: bool,
    micro: bool,
    injection: bool,
    soak: bool,
    wakeup_latency: bool,
    idle_burn: bool,
    team_build: bool,
    service: bool,
}

impl Default for Sweeps {
    fn default() -> Self {
        Sweeps {
            sort: true,
            kernel: true,
            micro: true,
            injection: true,
            soak: true,
            wakeup_latency: true,
            idle_burn: true,
            team_build: true,
            service: true,
        }
    }
}

impl Sweeps {
    const NONE: Sweeps = Sweeps {
        sort: false,
        kernel: false,
        micro: false,
        injection: false,
        soak: false,
        wakeup_latency: false,
        idle_burn: false,
        team_build: false,
        service: false,
    };

    /// `true` when any family writing into `BENCH_kernels.json` runs.
    fn any_kernel_report_family(&self) -> bool {
        self.kernel
            || self.micro
            || self.injection
            || self.soak
            || self.wakeup_latency
            || self.idle_burn
            || self.team_build
            || self.service
    }

    /// `true` when every `BENCH_kernels.json` family runs (no carryover
    /// needed).
    fn all_kernel_report_families(&self) -> bool {
        self.kernel
            && self.micro
            && self.injection
            && self.soak
            && self.wakeup_latency
            && self.idle_burn
            && self.team_build
            && self.service
    }
}

struct Options {
    smoke: bool,
    size: usize,
    threads: Vec<usize>,
    reps: usize,
    warmups: usize,
    seed: u64,
    out_dir: PathBuf,
    check: Option<PathBuf>,
    tolerance_pct: f64,
    sweeps: Sweeps,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            smoke: false,
            size: 1 << 19,
            threads: vec![1, 2, 4],
            reps: 5,
            warmups: 1,
            seed: 42,
            out_dir: PathBuf::from("."),
            check: None,
            tolerance_pct: 25.0,
            sweeps: Sweeps::default(),
        }
    }
}

const HELP: &str = "Perf-trajectory harness (writes BENCH_sort.json / BENCH_kernels.json).
  --smoke            tiny sizes and minimal repetitions (CI guard)
  --size N           sort / kernel work budget in elements (default 524288)
  --threads LIST     comma-separated thread counts (default 1,2,4)
  --reps N           timed repetitions per scenario (default 5)
  --warmups N        untimed warmup runs per scenario (default 1)
  --seed N           input seed (default 42)
  --out-dir PATH     output directory (default .)
  --only LIST        comma-separated sweep families to run: sort,kernel,
                     micro,injection_throughput,soak,wakeup_latency,idle_burn,
                     team_build,service_latency (default: all nine)
  --check FILE       fail (exit 1) on MMPar median regression vs baseline FILE
                     (and p = 1 spawn_overhead vs the BENCH_kernels.json beside it);
                     with --smoke the comparison runs a dedicated MMPar pass at
                     the baseline's recorded size/threads so medians compare
  --tolerance PCT    regression tolerance in percent (default 25)";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let all: Vec<String> = std::env::args().skip(1).collect();
    // Apply the smoke defaults first so explicit flags always win,
    // regardless of where --smoke appears on the command line.
    if all.iter().any(|a| a == "--smoke") {
        opts.smoke = true;
        opts.size = 20_000;
        opts.threads = vec![2];
        opts.reps = 2;
        opts.warmups = 1;
    }
    let mut args = all.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--smoke" => {}
            "--size" => {
                opts.size = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad size: {e}"))?
            }
            "--threads" => {
                let list = value("a list")?;
                opts.threads = list
                    .split(',')
                    .map(|t| t.trim().parse().map_err(|e| format!("bad thread count: {e}")))
                    .collect::<Result<Vec<usize>, String>>()?;
                if opts.threads.is_empty() || opts.threads.contains(&0) {
                    return Err("--threads needs a non-empty list of positive counts".into());
                }
            }
            "--reps" => {
                opts.reps = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad repetition count: {e}"))?
            }
            "--warmups" => {
                opts.warmups = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad warmup count: {e}"))?
            }
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--out-dir" => opts.out_dir = PathBuf::from(value("a path")?),
            "--only" => {
                let list = value("a list")?;
                let mut sweeps = Sweeps::NONE;
                for family in list.split(',') {
                    match family.trim() {
                        "sort" => sweeps.sort = true,
                        "kernel" => sweeps.kernel = true,
                        "micro" => sweeps.micro = true,
                        "injection_throughput" => sweeps.injection = true,
                        "soak" => sweeps.soak = true,
                        "wakeup_latency" => sweeps.wakeup_latency = true,
                        "idle_burn" => sweeps.idle_burn = true,
                        "team_build" => sweeps.team_build = true,
                        "service_latency" => sweeps.service = true,
                        other => {
                            return Err(format!(
                                "unknown sweep family '{other}' (expected sort, kernel, \
                                 micro, injection_throughput, soak, wakeup_latency, \
                                 idle_burn, team_build or service_latency)"
                            ))
                        }
                    }
                }
                opts.sweeps = sweeps;
            }
            "--check" => opts.check = Some(PathBuf::from(value("a path")?)),
            "--tolerance" => {
                opts.tolerance_pct = value("a percentage")?
                    .parse()
                    .map_err(|e| format!("bad tolerance: {e}"))?;
                if opts.tolerance_pct < 0.0 {
                    return Err("--tolerance must be non-negative".into());
                }
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    opts.reps = opts.reps.max(1);
    Ok(opts)
}

fn params_json(opts: &Options, group: &str) -> JsonValue {
    JsonValue::Object(vec![
        ("group".into(), JsonValue::String(group.into())),
        ("smoke".into(), JsonValue::Bool(opts.smoke)),
        ("size".into(), JsonValue::Number(opts.size as f64)),
        (
            "threads".into(),
            JsonValue::Array(
                opts.threads
                    .iter()
                    .map(|&t| JsonValue::Number(t as f64))
                    .collect(),
            ),
        ),
        ("reps".into(), JsonValue::Number(opts.reps as f64)),
        ("warmups".into(), JsonValue::Number(opts.warmups as f64)),
        ("seed".into(), JsonValue::Number(opts.seed as f64)),
    ])
}

fn new_report(opts: &Options, group: &str, records: Vec<RunRecord>) -> Report {
    Report {
        schema_version: SCHEMA_VERSION,
        harness: "perf".into(),
        group: group.into(),
        created_unix_s: SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        environment: Environment::detect(),
        params: params_json(opts, group),
        records,
    }
}

/// Runs `warmups` untimed and `reps` timed repetitions of one sort scenario
/// and folds them into a record.
fn sort_cell(
    runner: &mut VariantRunner,
    variant: Variant,
    distribution: Distribution,
    input: &[u32],
    opts: &Options,
    threads: usize,
) -> (RunStats, MetricsSnapshot) {
    for _ in 0..opts.warmups {
        runner.measure(variant, input);
    }
    let mut stats = RunStats::new();
    let mut metrics = MetricsSnapshot::default();
    for _ in 0..opts.reps {
        let m = runner.measure(variant, input);
        stats.record(m.duration);
        metrics = metrics.merge(m.metrics);
    }
    eprintln!(
        "sort    | {:<9} | {:<8} | p = {:>2} | median {:>10.6}s",
        distribution.label(),
        variant.label(),
        threads,
        stats.median().as_secs_f64()
    );
    (stats, metrics)
}

fn sort_record(
    variant: Variant,
    distribution: Distribution,
    opts: &Options,
    threads: usize,
    stats: &RunStats,
    metrics: MetricsSnapshot,
    seq_reference_s: Option<f64>,
) -> RunRecord {
    let secs = TimingSummary::from_stats(stats);
    let speedup_vs_seq = seq_reference_s
        .filter(|&s| secs.median_s > 0.0 && s > 0.0)
        .map(|s| s / secs.median_s);
    RunRecord {
        group: "sort".into(),
        name: variant.label().into(),
        distribution: Some(distribution.label().into()),
        size: opts.size,
        threads,
        warmups: opts.warmups,
        repetitions: opts.reps,
        secs,
        metrics,
        seq_reference_s,
        speedup_vs_seq,
        extra: None,
    }
}

/// Sweeps SeqQS/Fork/Randfork/MMPar (plus the Seq/STL reference) over every
/// input distribution and thread count.
fn sweep_sorts(opts: &Options) -> Report {
    let config = SortConfig::default();
    let mut records = Vec::new();
    // One input per distribution, shared by every variant and thread count.
    let inputs: Vec<(Distribution, Vec<u32>)> = Distribution::ALL
        .into_iter()
        .map(|d| (d, d.generate(opts.size, 8, opts.seed)))
        .collect();
    // Median Seq/STL time per distribution: the speedup denominator.
    let mut seq_medians: HashMap<&'static str, f64> = HashMap::new();

    // Sequential variants, measured once per distribution.
    let mut seq_runner = VariantRunner::new(1, config.clone());
    for (distribution, input) in &inputs {
        for variant in SORT_SEQUENTIAL {
            let (stats, metrics) =
                sort_cell(&mut seq_runner, variant, *distribution, input, opts, 1);
            if variant == Variant::SeqStd {
                seq_medians.insert(distribution.label(), stats.median().as_secs_f64());
            }
            records.push(sort_record(
                variant,
                *distribution,
                opts,
                1,
                &stats,
                metrics,
                None,
            ));
        }
    }

    // Parallel variants at every thread count; one runner (and hence one
    // scheduler set) per thread count, reused across distributions.
    for &threads in &opts.threads {
        let mut runner = VariantRunner::new(threads, config.clone());
        for (distribution, input) in &inputs {
            let seq_reference_s = seq_medians.get(distribution.label()).copied();
            for variant in SORT_PARALLEL {
                let (stats, metrics) =
                    sort_cell(&mut runner, variant, *distribution, input, opts, threads);
                records.push(sort_record(
                    variant,
                    *distribution,
                    opts,
                    threads,
                    &stats,
                    metrics,
                    seq_reference_s,
                ));
            }
        }
    }
    new_report(opts, "sort", records)
}

/// Sweeps every application kernel over the thread counts, with a sequential
/// reference per kernel.
fn sweep_kernels(opts: &Options) -> Report {
    let mut records = Vec::new();
    let workloads: Vec<Workload> = Kernel::ALL
        .iter()
        .map(|&k| Workload::prepare(k, opts.size, opts.seed))
        .collect();

    // Sequential references (median over the same repetition policy).
    let mut seq_medians: HashMap<&'static str, f64> = HashMap::new();
    for workload in &workloads {
        for _ in 0..opts.warmups {
            workload.run_sequential();
        }
        let mut stats = RunStats::new();
        for _ in 0..opts.reps {
            stats.record(workload.run_sequential());
        }
        eprintln!(
            "kernel  | {:<9} | sequential | median {:>10.6}s",
            workload.kernel().label(),
            stats.median().as_secs_f64()
        );
        seq_medians.insert(workload.kernel().label(), stats.median().as_secs_f64());
    }

    for &threads in &opts.threads {
        let scheduler = Scheduler::with_threads(threads);
        for workload in &workloads {
            for _ in 0..opts.warmups {
                workload.run_mixed(&scheduler);
            }
            let mut stats = RunStats::new();
            let mut metrics = MetricsSnapshot::default();
            for _ in 0..opts.reps {
                let before = scheduler.metrics();
                stats.record(workload.run_mixed(&scheduler));
                metrics = metrics.merge(scheduler.metrics().delta_since(&before));
            }
            let secs = TimingSummary::from_stats(&stats);
            let seq_reference_s = seq_medians.get(workload.kernel().label()).copied();
            let speedup_vs_seq = seq_reference_s
                .filter(|&s| secs.median_s > 0.0 && s > 0.0)
                .map(|s| s / secs.median_s);
            eprintln!(
                "kernel  | {:<9} | p = {:>2}     | median {:>10.6}s | SU {:>5.2}",
                workload.kernel().label(),
                threads,
                secs.median_s,
                speedup_vs_seq.unwrap_or(0.0)
            );
            records.push(RunRecord {
                group: "kernel".into(),
                name: workload.kernel().label().into(),
                distribution: None,
                size: workload.size(),
                threads,
                warmups: opts.warmups,
                repetitions: opts.reps,
                secs,
                metrics,
                seq_reference_s,
                speedup_vs_seq,
                extra: None,
            });
        }
    }
    new_report(opts, "kernel", records)
}

/// Runs `reps` timed repetitions of one micro scenario (after `warmups`
/// untimed ones) and folds them into a record.
fn micro_record(
    name: &str,
    work_items: usize,
    opts: &Options,
    threads: usize,
    scheduler: &teamsteal_core::Scheduler,
    mut run_once: impl FnMut() -> std::time::Duration,
) -> RunRecord {
    for _ in 0..opts.warmups {
        run_once();
    }
    let mut stats = RunStats::new();
    let mut metrics = MetricsSnapshot::default();
    for _ in 0..opts.reps {
        let before = scheduler.metrics();
        stats.record(run_once());
        metrics = metrics.merge(scheduler.metrics().delta_since(&before));
    }
    let secs = TimingSummary::from_stats(&stats);
    let per_item_ns = if work_items > 0 {
        secs.median_s * 1e9 / work_items as f64
    } else {
        0.0
    };
    eprintln!(
        "micro   | {name:<14} | p = {threads:>2} | median {:>10.6}s | {per_item_ns:>8.1} ns/task",
        secs.median_s
    );
    RunRecord {
        group: "micro".into(),
        name: name.into(),
        distribution: None,
        size: work_items,
        threads,
        warmups: opts.warmups,
        repetitions: opts.reps,
        secs,
        metrics,
        seq_reference_s: None,
        speedup_vs_seq: None,
        extra: None,
    }
}

/// Sweeps the scheduler micro-scenarios (spawn/join loop, steal-latency
/// probe, external-injection loop) over the thread counts.  The scenario
/// budgets are derived from `--size` so `--smoke` scales them down too.
fn sweep_micro(opts: &Options) -> Vec<RunRecord> {
    let spawns = (opts.size / 4).max(1_000);
    let steal_tasks = (opts.size / 8).max(1_000);
    let scopes = (opts.size / 2_048).max(32);
    let per_scope = 16;
    let mut records = Vec::new();
    for &threads in &opts.threads {
        let scheduler = teamsteal_core::Scheduler::with_threads(threads);
        records.push(micro_record(
            "spawn_overhead",
            spawns,
            opts,
            threads,
            &scheduler,
            || micro::spawn_overhead(&scheduler, spawns),
        ));
        if threads > 1 {
            records.push(micro_record(
                "steal_latency",
                steal_tasks,
                opts,
                threads,
                &scheduler,
                || micro::steal_latency(&scheduler, steal_tasks),
            ));
        }
        records.push(micro_record(
            "scope_inject",
            scopes * per_scope,
            opts,
            threads,
            &scheduler,
            || micro::scope_inject(&scheduler, scopes, per_scope),
        ));
    }
    records
}

/// Sweeps the multi-producer injection scenario
/// ([`micro::injection_throughput`]): 8 concurrent submitter threads feed
/// empty root tasks into one persistent scheduler.  Each thread count is
/// measured twice — once with the default domain width (sharded injector)
/// and once with `domain_width = p` (a single shard, the pre-sharding
/// layout) — so the sharded-vs-single comparison lives side by side in the
/// report.  On top of `--threads`, oversubscribed p = 32/64 "simulated big
/// iron" cells run too: that is where the domain structure has more than
/// one shard to spread producers over.
fn sweep_injection(opts: &Options) -> Vec<RunRecord> {
    const PRODUCERS: usize = 8;
    let per_producer = (opts.size / 32).clamp(256, 16_384);
    let tasks = PRODUCERS * per_producer;
    let mut thread_counts = opts.threads.clone();
    for big in [32usize, 64] {
        if !thread_counts.contains(&big) {
            thread_counts.push(big);
        }
    }
    let mut records = Vec::new();
    for &threads in &thread_counts {
        for (name, width) in [("sharded", None), ("single_shard", Some(threads))] {
            let mut builder = Scheduler::builder().threads(threads);
            if let Some(width) = width {
                builder = builder.domain_width(width);
            }
            let scheduler = builder.build();
            let shards = scheduler.injector_shard_segments().len();
            for _ in 0..opts.warmups {
                micro::injection_throughput(&scheduler, PRODUCERS, per_producer);
            }
            let mut stats = RunStats::new();
            let mut submit = RunStats::new();
            let mut metrics = MetricsSnapshot::default();
            for _ in 0..opts.reps {
                let before = scheduler.metrics();
                let outcome = micro::injection_throughput(&scheduler, PRODUCERS, per_producer);
                stats.record(outcome.duration);
                metrics = metrics.merge(scheduler.metrics().delta_since(&before));
                for sample in outcome.submit_to_start {
                    submit.record(sample);
                }
            }
            let secs = TimingSummary::from_stats(&stats);
            let submit_secs = TimingSummary::from_stats(&submit);
            let tasks_per_sec = if secs.median_s > 0.0 {
                tasks as f64 / secs.median_s
            } else {
                0.0
            };
            let pops = metrics.injector_local_pops + metrics.injector_remote_pops;
            let remote_share = if pops > 0 {
                metrics.injector_remote_pops as f64 / pops as f64
            } else {
                0.0
            };
            eprintln!(
                "inject  | {name:<12} | p = {threads:>2} | median {:>10.6}s | {tasks_per_sec:>10.0} tasks/s | shards {shards} | remote {:>5.1}%",
                secs.median_s,
                remote_share * 100.0
            );
            records.push(RunRecord {
                group: "injection_throughput".into(),
                name: name.into(),
                distribution: None,
                size: tasks,
                threads,
                warmups: opts.warmups,
                repetitions: opts.reps,
                secs,
                metrics,
                seq_reference_s: None,
                speedup_vs_seq: None,
                extra: Some(JsonValue::Object(vec![
                    ("producers".into(), JsonValue::Number(PRODUCERS as f64)),
                    (
                        "per_producer".into(),
                        JsonValue::Number(per_producer as f64),
                    ),
                    ("shards".into(), JsonValue::Number(shards as f64)),
                    ("tasks_per_sec".into(), JsonValue::Number(tasks_per_sec)),
                    (
                        "submit_to_start_median_us".into(),
                        JsonValue::Number(submit_secs.median_s * 1e6),
                    ),
                    (
                        "submit_to_start_p95_us".into(),
                        JsonValue::Number(submit_secs.p95_s * 1e6),
                    ),
                    (
                        "injector_remote_pop_share".into(),
                        JsonValue::Number(remote_share),
                    ),
                ])),
            });
        }
    }
    records
}

/// Sweeps the bounded-memory soak scenario ([`micro::soak`]) over the
/// thread counts: many back-to-back root-task lifetimes whose spawn bursts
/// also exercise deque growth.  The reclaimed-object counts land in the
/// record's ordinary scheduler metrics (`segments_reclaimed`,
/// `buffers_reclaimed`, `epoch_advances`); the retained-footprint gauges
/// ride in the record's `extra` object (see EXPERIMENTS.md).
fn sweep_soak(opts: &Options) -> Vec<RunRecord> {
    let per_scope = 8;
    let scopes = (opts.size / 256).max(24);
    let root_tasks = scopes * per_scope;
    let mut records = Vec::new();
    for &threads in &opts.threads {
        // Unlike the latency micros, each repetition runs a *fresh*
        // scheduler: soak measures a full scheduler lifecycle (cold deques
        // growing, segments churning, everything reclaimed), and a reused
        // engine would hide the buffer-retire traffic behind the warmup's
        // high-water mark.
        for _ in 0..opts.warmups {
            let scheduler = Scheduler::with_threads(threads);
            micro::soak(&scheduler, scopes.min(64), per_scope);
        }
        let mut stats = RunStats::new();
        let mut metrics = MetricsSnapshot::default();
        let mut peak_segments = 0usize;
        let mut peak_deferred = 0usize;
        let mut final_segments = 0usize;
        for _ in 0..opts.reps {
            let scheduler = Scheduler::with_threads(threads);
            let before = scheduler.metrics();
            let outcome = micro::soak(&scheduler, scopes, per_scope);
            stats.record(outcome.duration);
            metrics = metrics.merge(scheduler.metrics().delta_since(&before));
            peak_segments = peak_segments.max(outcome.peak_injector_segments);
            peak_deferred = peak_deferred.max(outcome.peak_deferred_items);
            final_segments = outcome.final_injector_segments;
        }
        let secs = TimingSummary::from_stats(&stats);
        eprintln!(
            "soak    | {root_tasks:>6} roots | p = {threads:>2} | median {:>10.6}s | peak segs {peak_segments} | reclaimed {}+{}",
            secs.median_s, metrics.segments_reclaimed, metrics.buffers_reclaimed
        );
        records.push(RunRecord {
            group: "soak".into(),
            name: "soak".into(),
            distribution: None,
            size: root_tasks,
            threads,
            warmups: opts.warmups,
            repetitions: opts.reps,
            secs,
            metrics,
            seq_reference_s: None,
            speedup_vs_seq: None,
            extra: Some(JsonValue::Object(vec![
                (
                    "peak_injector_segments".into(),
                    JsonValue::Number(peak_segments as f64),
                ),
                (
                    "final_injector_segments".into(),
                    JsonValue::Number(final_segments as f64),
                ),
                (
                    "peak_deferred_items".into(),
                    JsonValue::Number(peak_deferred as f64),
                ),
                ("scopes".into(), JsonValue::Number(scopes as f64)),
                ("per_scope".into(), JsonValue::Number(per_scope as f64)),
            ])),
        });
    }
    records
}

/// Sweeps the external-submission wake-latency scenario
/// ([`micro::wakeup_latency`]) over the thread counts.  Unlike the other
/// micros, the record's samples *are* the individual submit→start
/// latencies, so `secs.median_s` / `secs.p95_s` read directly as seconds of
/// wake latency (EXPERIMENTS.md).  The submission count is derived from
/// `--size`; each submission is preceded by a settle pause so the workers
/// actually park, which bounds how many are practical per run.
fn sweep_wakeup_latency(opts: &Options) -> Vec<RunRecord> {
    let submissions = (opts.size / 2_048).clamp(24, 240);
    let warmup_submissions = opts.warmups.min(1) * 8;
    let mut records = Vec::new();
    for &threads in &opts.threads {
        let scheduler = Scheduler::with_threads(threads);
        if warmup_submissions > 0 {
            micro::wakeup_latency(&scheduler, warmup_submissions);
        }
        let before = scheduler.metrics();
        let mut stats = RunStats::new();
        for latency in micro::wakeup_latency(&scheduler, submissions) {
            stats.record(latency);
        }
        let metrics = scheduler.metrics().delta_since(&before);
        let secs = TimingSummary::from_stats(&stats);
        eprintln!(
            "wakeup  | {submissions:>4} submits | p = {threads:>2} | median {:>8.1} us | p95 {:>8.1} us",
            secs.median_s * 1e6,
            secs.p95_s * 1e6
        );
        records.push(RunRecord {
            group: "wakeup_latency".into(),
            name: "wakeup_latency".into(),
            distribution: None,
            size: submissions,
            threads,
            warmups: warmup_submissions,
            repetitions: submissions,
            secs,
            metrics,
            seq_reference_s: None,
            speedup_vs_seq: None,
            extra: Some(JsonValue::Object(vec![(
                "settle_ms".into(),
                JsonValue::Number(micro::WAKEUP_SETTLE.as_secs_f64() * 1e3),
            )])),
        });
    }
    records
}

/// Sweeps the idle-CPU-burn scenario ([`micro::idle_burn`]) over the thread
/// counts.  Each sample is the CPU time (seconds) the whole process burned
/// across one idle wall interval — near-zero with event-driven parking,
/// `O(p · interval / poll-cap)` under sleep-polling.  On platforms without
/// a process-CPU clock the scenario is skipped (recording zeros would fake
/// a perfect result).
fn sweep_idle_burn(opts: &Options) -> Vec<RunRecord> {
    if micro::process_cpu_time().is_none() {
        eprintln!("idle    | skipped: no process-CPU clock on this platform");
        return Vec::new();
    }
    let wall = if opts.smoke {
        std::time::Duration::from_millis(150)
    } else {
        std::time::Duration::from_millis(500)
    };
    let mut records = Vec::new();
    for &threads in &opts.threads {
        let scheduler = Scheduler::with_threads(threads);
        let before = scheduler.metrics();
        let mut stats = RunStats::new();
        let mut wall_total = std::time::Duration::ZERO;
        let mut reps_recorded = 0usize;
        for _ in 0..opts.reps {
            let outcome = micro::idle_burn(&scheduler, wall);
            // The probe can transiently fail (procfs race); skip the sample
            // rather than abort the sweep.
            let Some(cpu) = outcome.cpu else { continue };
            stats.record(cpu);
            wall_total += outcome.wall;
            reps_recorded += 1;
        }
        if reps_recorded == 0 {
            eprintln!("idle    | skipped p = {threads}: CPU probe failed every repetition");
            continue;
        }
        let metrics = scheduler.metrics().delta_since(&before);
        let secs = TimingSummary::from_stats(&stats);
        let burn_ratio = if wall_total.as_secs_f64() > 0.0 {
            stats.samples().iter().map(|d| d.as_secs_f64()).sum::<f64>()
                / wall_total.as_secs_f64()
        } else {
            0.0
        };
        eprintln!(
            "idle    | {:>4} ms wall | p = {threads:>2} | median {:>8.3} ms CPU | burn {:>6.4}",
            wall.as_millis(),
            secs.median_s * 1e3,
            burn_ratio
        );
        records.push(RunRecord {
            group: "idle_burn".into(),
            name: "idle_burn".into(),
            distribution: None,
            size: wall.as_millis() as usize,
            threads,
            warmups: 0,
            repetitions: reps_recorded,
            secs,
            metrics,
            seq_reference_s: None,
            speedup_vs_seq: None,
            extra: Some(JsonValue::Object(vec![
                (
                    "wall_interval_s".into(),
                    JsonValue::Number(wall.as_secs_f64()),
                ),
                ("cpu_per_wall".into(), JsonValue::Number(burn_ratio)),
            ])),
        });
    }
    records
}

/// Sweeps the team-build latency scenarios
/// ([`micro::team_build_streak`], [`micro::team_build_cold`],
/// [`micro::team_build_mix`]) over the thread counts (skipping `p = 1`,
/// which has no teams to build).  For the `streak` and `cold` records the
/// samples *are* the per-task submit→team-start latencies — `secs.median_s`
/// / `secs.p95_s` read directly as seconds of team-build latency — and the
/// `reuse_hit_rate` extra reports how many publications rode a warm team
/// (`team_reuses / (teams_built + team_reuses)`, EXPERIMENTS.md).  The
/// `mix` record times a bursty heterogeneous requirement mix (fixed-`r`
/// streaks, moldable ranges, sequential riders) end-to-end.
fn sweep_team_build(opts: &Options) -> Vec<RunRecord> {
    let streak_tasks = (opts.size / 2_048).clamp(32, 256);
    // Every cold submission pays a keep-alive-expiry gap, which bounds how
    // many are practical per run.
    let cold_tasks = (opts.size / 8_192).clamp(8, 48);
    let mix_bursts = (opts.size / 4_096).clamp(8, 64);
    let mut records = Vec::new();
    let reuse_extra = |metrics: &MetricsSnapshot| {
        let publications = metrics.teams_built + metrics.team_reuses;
        let hit_rate = if publications > 0 {
            metrics.team_reuses as f64 / publications as f64
        } else {
            0.0
        };
        JsonValue::Object(vec![
            ("reuse_hit_rate".into(), JsonValue::Number(hit_rate)),
            (
                "cold_gap_ms".into(),
                JsonValue::Number(micro::TEAM_BUILD_COLD_GAP.as_secs_f64() * 1e3),
            ),
        ])
    };
    for &threads in &opts.threads {
        if threads < 2 {
            continue;
        }
        // Full-machine teams: with r = p the team level is unstealable, so
        // streak reuse measures the pool, not steal races.
        let r = threads;
        let scheduler = Scheduler::with_threads(threads);
        if opts.warmups > 0 {
            micro::team_build_streak(&scheduler, r, 8);
        }

        let before = scheduler.metrics();
        let streak = micro::team_build_streak(&scheduler, r, streak_tasks);
        let streak_metrics = scheduler.metrics().delta_since(&before);
        let mut stats = RunStats::new();
        for latency in &streak.submit_to_start {
            stats.record(*latency);
        }
        let secs = TimingSummary::from_stats(&stats);
        let streak_median_us = secs.median_s * 1e6;
        records.push(RunRecord {
            group: "team_build".into(),
            name: "team_build_streak".into(),
            distribution: None,
            size: streak_tasks,
            threads,
            warmups: opts.warmups,
            repetitions: streak_tasks,
            secs,
            extra: Some(reuse_extra(&streak_metrics)),
            metrics: streak_metrics,
            seq_reference_s: None,
            speedup_vs_seq: None,
        });

        let before = scheduler.metrics();
        let cold = micro::team_build_cold(&scheduler, r, cold_tasks);
        let cold_metrics = scheduler.metrics().delta_since(&before);
        let mut stats = RunStats::new();
        for latency in &cold.submit_to_start {
            stats.record(*latency);
        }
        let secs = TimingSummary::from_stats(&stats);
        eprintln!(
            "team    | r = {r:>2} | p = {threads:>2} | streak median {streak_median_us:>8.1} us (hit {:>5.3}) | cold median {:>8.1} us",
            streak_metrics.team_reuses as f64
                / (streak_metrics.teams_built + streak_metrics.team_reuses).max(1) as f64,
            secs.median_s * 1e6,
        );
        records.push(RunRecord {
            group: "team_build".into(),
            name: "team_build_cold".into(),
            distribution: None,
            size: cold_tasks,
            threads,
            warmups: opts.warmups,
            repetitions: cold_tasks,
            secs,
            extra: Some(reuse_extra(&cold_metrics)),
            metrics: cold_metrics,
            seq_reference_s: None,
            speedup_vs_seq: None,
        });

        let mut stats = RunStats::new();
        let mut metrics = MetricsSnapshot::default();
        for _ in 0..opts.reps {
            let before = scheduler.metrics();
            stats.record(micro::team_build_mix(&scheduler, mix_bursts));
            metrics = metrics.merge(scheduler.metrics().delta_since(&before));
        }
        let secs = TimingSummary::from_stats(&stats);
        eprintln!(
            "teammix | {mix_bursts:>4} bursts | p = {threads:>2} | median {:>10.6}s | built {} reused {} shrunk {}",
            secs.median_s, metrics.teams_built, metrics.team_reuses, metrics.team_shrinks
        );
        records.push(RunRecord {
            group: "team_build".into(),
            name: "team_build_mix".into(),
            distribution: None,
            size: mix_bursts,
            threads,
            warmups: 0,
            repetitions: opts.reps,
            secs,
            extra: Some(reuse_extra(&metrics)),
            metrics,
            seq_reference_s: None,
            speedup_vs_seq: None,
        });
    }
    records
}

/// The `service_latency` family (DESIGN.md §16, EXPERIMENTS.md): drives the
/// multi-tenant task service with the open-loop generator from
/// [`teamsteal_service::loadgen`] and records two scenarios per thread
/// count.  For the `service_latency_paced` record the samples *are* the
/// sampled submit-to-complete latencies — `secs.median_s` / `secs.p95_s`
/// read directly as p50/p95 service latency — with the arrival rate,
/// admission counters, nearest-rank p99 and per-tenant fairness ratios
/// (admitted share ÷ weight share; 1.0 is perfectly weighted-fair) in
/// `extra`.  The `service_saturation` record measures the closed-loop
/// completion ceiling and reports it as `saturation_tasks_per_sec`.
///
/// The `service_overload_2x` record (PR 10) is the graceful-degradation
/// demonstration: with heavier tasks the cell first measures that
/// configuration's saturation ceiling, then offers **2×** that rate with a
/// per-task deadline, a high-water mark too large to shed and an admission
/// budget too large to backpressure — so *stale-work expiry* is the only
/// defense.  Goodput (completions within deadline per second) must hold
/// near the at-saturation reference while `tasks_expired` absorbs the
/// excess; the same 2× run without deadlines shows the collapse being
/// avoided (timely completions crater even though raw throughput holds).
fn sweep_service(opts: &Options) -> Vec<RunRecord> {
    use teamsteal_service::loadgen::{saturation, service_latency, LoadgenConfig};
    // Weighted tenants so the fairness ratios exercise the non-trivial
    // (3:1) case; submitters alternate tenants, so offered load is even
    // and the weights — not the offered split — set the fair shares.
    let weights: Vec<u64> = vec![3, 1];
    let paced_duration = if opts.smoke {
        Duration::from_millis(250)
    } else {
        Duration::from_secs(2)
    };
    let arrival_rate_hz = (opts.size as u64).clamp(5_000, 50_000);
    // Sample roughly this many latencies regardless of scale: enough for a
    // stable nearest-rank p99, small enough that the committed baseline
    // (which embeds `samples_s`) stays reviewable.
    let offered_total = arrival_rate_hz as f64 * paced_duration.as_secs_f64();
    let sample_every = ((offered_total / 512.0) as usize).max(1);
    let mut records = Vec::new();
    for &threads in &opts.threads {
        let cfg = LoadgenConfig {
            threads,
            submitters: threads.max(2),
            arrival_rate_hz,
            duration: paced_duration,
            tenant_weights: weights.clone(),
            // Half the offered rate per weight unit: with weights 3 + 1 the
            // combined budget is 2x the offered rate, so admission is
            // normally quiet but bursts still brush the token buckets.
            refill_rate: (arrival_rate_hz / 2).max(1_000),
            burst: 256,
            high_water: 1 << 15,
            sample_every,
            task_spin_ns: 500,
            deadline: None,
        };
        let paced = service_latency(&cfg);
        let mut stats = RunStats::new();
        for latency in &paced.latencies {
            stats.record(*latency);
        }
        let secs = TimingSummary::from_stats(&stats);
        // Nearest-rank p99 over the sampled latencies (TimingSummary stops
        // at p95; tail latency is this family's whole point).
        let p99_s = {
            let mut sorted: Vec<f64> = secs.samples_s.clone();
            sorted.sort_by(f64::total_cmp);
            if sorted.is_empty() {
                0.0
            } else {
                sorted[((sorted.len() as f64 * 0.99).ceil() as usize).max(1) - 1]
            }
        };
        let fairness = paced.fairness_ratios(&weights);
        let mut extra = vec![
            (
                "arrival_rate_hz".into(),
                JsonValue::Number(arrival_rate_hz as f64),
            ),
            ("offered".into(), JsonValue::Number(paced.offered() as f64)),
            ("admitted".into(), JsonValue::Number(paced.admitted() as f64)),
            (
                "backpressure_count".into(),
                JsonValue::Number(paced.backpressure() as f64),
            ),
            ("shed_count".into(), JsonValue::Number(paced.shed() as f64)),
            ("p99_s".into(), JsonValue::Number(p99_s)),
        ];
        for (i, ratio) in fairness.iter().enumerate() {
            extra.push((format!("fairness_tenant_{i}"), JsonValue::Number(*ratio)));
        }
        eprintln!(
            "service | {arrival_rate_hz:>6} Hz | p = {threads:>2} | p50 {:>8.1} us | p95 {:>8.1} us | p99 {:>8.1} us | shed {} bp {}",
            secs.median_s * 1e6,
            secs.p95_s * 1e6,
            p99_s * 1e6,
            paced.shed(),
            paced.backpressure(),
        );
        records.push(RunRecord {
            group: "service_latency".into(),
            name: "service_latency_paced".into(),
            distribution: None,
            size: arrival_rate_hz as usize,
            threads,
            warmups: 0,
            repetitions: paced.latencies.len(),
            secs,
            extra: Some(JsonValue::Object(extra)),
            metrics: paced.metrics,
            seq_reference_s: None,
            speedup_vs_seq: None,
        });

        let mut sat_cfg = cfg.clone();
        sat_cfg.duration = paced_duration / 2;
        let sat = saturation(&sat_cfg);
        let throughput = sat.tasks_per_sec();
        eprintln!(
            "satsvc  | p = {threads:>2} | {:>12.0} tasks/s ceiling ({} completed)",
            throughput, sat.completed
        );
        let mut stats = RunStats::new();
        stats.record(sat.elapsed);
        records.push(RunRecord {
            group: "service_latency".into(),
            name: "service_saturation".into(),
            distribution: None,
            size: sat.completed as usize,
            threads,
            warmups: 0,
            repetitions: 1,
            secs: TimingSummary::from_stats(&stats),
            extra: Some(JsonValue::Object(vec![(
                "saturation_tasks_per_sec".into(),
                JsonValue::Number(throughput),
            )])),
            metrics: sat.metrics,
            seq_reference_s: None,
            speedup_vs_seq: None,
        });

        records.push(overload_2x_record(&cfg, paced_duration, threads));
    }
    records
}

/// Measures the `service_overload_2x` cell described in [`sweep_service`]'s
/// docs and packages it as one record whose samples are the overload run's
/// sampled latencies.
fn overload_2x_record(
    base_cfg: &teamsteal_service::loadgen::LoadgenConfig,
    paced_duration: Duration,
    threads: usize,
) -> RunRecord {
    use teamsteal_service::loadgen::{saturation, service_latency};
    let deadline = Duration::from_millis(20);
    // Heavier tasks (20 µs of work) pull the ceiling low enough that the
    // open-loop submitters can genuinely offer twice it; an effectively
    // unbounded admission budget and high-water mark take shedding and
    // backpressure out of the picture, leaving expiry as the only defense.
    let mut over_cfg = base_cfg.clone();
    over_cfg.task_spin_ns = 20_000;
    over_cfg.refill_rate = u64::MAX / (1 << 24);
    over_cfg.burst = 1 << 20;
    over_cfg.high_water = 1 << 22;
    over_cfg.duration = paced_duration;

    let mut probe_cfg = over_cfg.clone();
    probe_cfg.duration = paced_duration / 2;
    let ceiling = saturation(&probe_cfg).tasks_per_sec();
    let sat_rate = (ceiling as u64).max(1_000);
    let sample_for = |rate: u64| {
        let offered = rate as f64 * paced_duration.as_secs_f64();
        ((offered / 512.0) as usize).max(1)
    };

    // At-saturation goodput reference, with the same deadline.
    over_cfg.deadline = Some(deadline);
    over_cfg.arrival_rate_hz = sat_rate;
    over_cfg.sample_every = sample_for(sat_rate);
    let at_sat = service_latency(&over_cfg);
    let goodput_sat = at_sat.goodput_per_sec().unwrap_or(0.0);

    // 2× overload with deadlines: the record under test.
    let mut cfg_2x = over_cfg.clone();
    cfg_2x.arrival_rate_hz = sat_rate * 2;
    cfg_2x.sample_every = sample_for(sat_rate * 2);
    let over = service_latency(&cfg_2x);
    let goodput_2x = over.goodput_per_sec().unwrap_or(0.0);

    // The same 2× offered load *without* deadlines: raw completion
    // throughput holds (every admitted task eventually runs), but timely
    // completions collapse.  Estimated from the unbiased latency samples:
    // (fraction of samples within the deadline) × completions per second.
    let mut raw_cfg = cfg_2x.clone();
    raw_cfg.deadline = None;
    let raw = service_latency(&raw_cfg);
    let raw_completed: u64 = raw.per_tenant.iter().map(|(_, s)| s.completed).sum();
    let raw_tasks_per_sec = raw_completed as f64 / raw.elapsed.as_secs_f64().max(1e-9);
    let timely_fraction = if raw.latencies.is_empty() {
        0.0
    } else {
        raw.latencies.iter().filter(|l| **l <= deadline).count() as f64
            / raw.latencies.len() as f64
    };
    let raw_timely_per_sec = raw_tasks_per_sec * timely_fraction;

    let mut stats = RunStats::new();
    for latency in &over.latencies {
        stats.record(*latency);
    }
    eprintln!(
        "overload| p = {threads:>2} | sat {:>8.0}/s | goodput@1x {:>8.0}/s | goodput@2x {:>8.0}/s | expired {} | no-deadline timely {:>8.0}/s",
        ceiling,
        goodput_sat,
        goodput_2x,
        over.metrics.tasks_expired,
        raw_timely_per_sec,
    );
    RunRecord {
        group: "service_latency".into(),
        name: "service_overload_2x".into(),
        distribution: None,
        size: (sat_rate * 2) as usize,
        threads,
        warmups: 0,
        repetitions: over.latencies.len(),
        secs: TimingSummary::from_stats(&stats),
        extra: Some(JsonValue::Object(vec![
            ("deadline_ms".into(), JsonValue::Number(20.0)),
            ("saturation_tasks_per_sec".into(), JsonValue::Number(ceiling)),
            ("offered".into(), JsonValue::Number(over.offered() as f64)),
            ("admitted".into(), JsonValue::Number(over.admitted() as f64)),
            (
                "goodput_at_saturation_per_sec".into(),
                JsonValue::Number(goodput_sat),
            ),
            ("goodput_per_sec".into(), JsonValue::Number(goodput_2x)),
            (
                "deadline_miss_rate".into(),
                JsonValue::Number(over.deadline_miss_rate().unwrap_or(0.0)),
            ),
            (
                "tasks_expired".into(),
                JsonValue::Number(over.metrics.tasks_expired as f64),
            ),
            (
                "no_deadline_tasks_per_sec".into(),
                JsonValue::Number(raw_tasks_per_sec),
            ),
            (
                "no_deadline_timely_per_sec".into(),
                JsonValue::Number(raw_timely_per_sec),
            ),
        ])),
        metrics: over.metrics,
        seq_reference_s: None,
        speedup_vs_seq: None,
    }
}

/// Re-measures the checked variant (MMPar) at the baseline's recorded
/// (distribution, size, threads) cells, so `--smoke --check` compares
/// like-for-like medians instead of smoke-sized ones.  Repetitions and
/// warmups stay at the (smoke) values of the current run.
fn check_pass_report(baseline: &Report, opts: &Options) -> Result<Report, String> {
    let seed = baseline
        .params
        .get("seed")
        .and_then(JsonValue::as_f64)
        .map(|s| s as u64)
        .unwrap_or(opts.seed);
    let mmpar = Variant::MmPar.label();
    // Distinct cells of the baseline, preserving its sweep order.
    let mut cells: Vec<(String, usize, usize)> = Vec::new();
    for record in baseline.records.iter().filter(|r| r.name == mmpar) {
        let cell = (
            record.distribution.clone().unwrap_or_default(),
            record.size,
            record.threads,
        );
        if !cells.contains(&cell) {
            cells.push(cell);
        }
    }
    if cells.is_empty() {
        return Err("baseline contains no MMPar records to check against".into());
    }
    let config = SortConfig::default();
    let mut records = Vec::new();
    // One input per (distribution, size); one runner per thread count.
    let mut inputs: HashMap<(String, usize), Vec<u32>> = HashMap::new();
    let mut runners: HashMap<usize, VariantRunner> = HashMap::new();
    for (dist_label, size, threads) in cells {
        let distribution = Distribution::ALL
            .into_iter()
            .find(|d| d.label() == dist_label)
            .ok_or_else(|| format!("baseline has unknown distribution `{dist_label}`"))?;
        let input = inputs
            .entry((dist_label.clone(), size))
            .or_insert_with(|| distribution.generate(size, 8, seed));
        let runner = runners
            .entry(threads)
            .or_insert_with(|| VariantRunner::new(threads, config.clone()));
        let sized_opts = Options {
            smoke: opts.smoke,
            size,
            threads: opts.threads.clone(),
            reps: opts.reps,
            warmups: opts.warmups,
            seed,
            out_dir: opts.out_dir.clone(),
            check: None,
            tolerance_pct: opts.tolerance_pct,
            sweeps: opts.sweeps,
        };
        let (stats, metrics) =
            sort_cell(runner, Variant::MmPar, distribution, input, &sized_opts, threads);
        records.push(sort_record(
            Variant::MmPar,
            distribution,
            &sized_opts,
            threads,
            &stats,
            metrics,
            None,
        ));
    }
    Ok(new_report(opts, "sort", records))
}

/// The micro scenario gated next to MMPar: the cost of one empty spawned
/// task, the number ROADMAP direction 2 is about.
const SPAWN_OVERHEAD: &str = "spawn_overhead";

/// Re-measures `spawn_overhead` at the kernel baseline's recorded
/// (spawns, threads) cells, for the same reason as [`check_pass_report`].
fn spawn_overhead_check_report(baseline: &Report, opts: &Options) -> Report {
    let records = baseline
        .records
        .iter()
        .filter(|r| r.group == "micro" && r.name == SPAWN_OVERHEAD)
        .map(|base| {
            let scheduler = Scheduler::with_threads(base.threads);
            micro_record(SPAWN_OVERHEAD, base.size, opts, base.threads, &scheduler, || {
                micro::spawn_overhead(&scheduler, base.size)
            })
        })
        .collect();
    new_report(opts, "kernel", records)
}

/// Prints what one empty task costs at p = 2 relative to p = 1 against
/// ROADMAP direction 2's target (within 1.2x).  Informational, like every
/// multi-threaded cell of this probe: one producer against a thief has two
/// regimes — the producer runs ahead (1.1-1.7x) or the thief takes each task
/// as it is pushed (4x) — and which one a process lands in changed between
/// builds of the same library code (EXPERIMENTS.md "The sharded scope
/// countdown").  Says
/// nothing on a one-core host, where p = 2 only measures time slicing.
fn report_spawn_scaling(current: &Report) {
    if current.environment.available_parallelism < 2 {
        return;
    }
    let per_task = |threads: usize| {
        current
            .records
            .iter()
            .find(|r| r.name == SPAWN_OVERHEAD && r.threads == threads && r.size > 0)
            .map(|r| r.secs.median_s / r.size as f64)
    };
    if let (Some(one), Some(two)) = (per_task(1), per_task(2)) {
        println!(
            "check: spawn_overhead p = 2 costs {:.2}x p = 1 per task ({:.0} vs {:.0} ns; target 1.2x)",
            two / one,
            two * 1e9,
            one * 1e9
        );
    }
}

/// Prints the verdict of one `--check` comparison; `true` when it passed.
fn report_check(outcome: &CheckOutcome, what: &str, baseline: &Path, tolerance_pct: f64) -> bool {
    if outcome.passed() {
        println!(
            "check: OK — {} {what}(s) within +{tolerance_pct:.1}% of {}",
            outcome.compared,
            baseline.display()
        );
    } else {
        eprintln!(
            "check: FAILED — {} regression(s) vs {}:",
            outcome.regressions.len(),
            baseline.display()
        );
        for regression in &outcome.regressions {
            eprintln!("  {regression}");
        }
    }
    outcome.passed()
}

fn write_report(path: &Path, report: &Report) -> Result<(), String> {
    std::fs::write(path, report.to_json_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "wrote {} ({} records)",
        path.display(),
        report.records.len()
    );
    Ok(())
}

fn run() -> Result<i32, String> {
    let opts = parse_args()?;
    if opts.check.is_some() && !opts.sweeps.sort && !opts.smoke {
        return Err("--check needs the sort sweep; drop `--only` families excluding it".into());
    }
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;

    // Read and parse the baseline BEFORE any sweep writes its output: with
    // the default --out-dir the baseline path and the fresh report path are
    // the same file, and reading it afterwards would compare the fresh
    // report against itself (a vacuously green gate).
    let baseline = match &opts.check {
        Some(baseline_path) => {
            let text = std::fs::read_to_string(baseline_path)
                .map_err(|e| format!("cannot read baseline {}: {e}", baseline_path.display()))?;
            let report = Report::from_json_str(&text)
                .map_err(|e| format!("baseline {} is invalid: {e}", baseline_path.display()))?;
            if report.group != "sort" {
                return Err(format!(
                    "baseline {} is a `{}` report; --check compares sort reports (BENCH_sort.json)",
                    baseline_path.display(),
                    report.group
                ));
            }
            if report.schema_version != SCHEMA_VERSION {
                return Err(format!(
                    "baseline {} has schema version {}, this harness writes {SCHEMA_VERSION}",
                    baseline_path.display(),
                    report.schema_version
                ));
            }
            Some((baseline_path.clone(), report))
        }
        None => None,
    };
    // The kernel baseline lives next to the sort one and, like it, must be
    // read before a sweep overwrites it.  Absent or unreadable: only MMPar
    // is gated (said below).
    let kernel_baseline = baseline.as_ref().and_then(|(path, _)| {
        let path = path.with_file_name("BENCH_kernels.json");
        let report = Report::from_json_str(&std::fs::read_to_string(&path).ok()?).ok()?;
        (report.schema_version == SCHEMA_VERSION).then_some((path, report))
    });

    eprintln!(
        "perf harness — size {}, threads {:?}, {} reps after {} warmups, seed {}{}",
        opts.size,
        opts.threads,
        opts.reps,
        opts.warmups,
        opts.seed,
        if opts.smoke { " (smoke)" } else { "" }
    );

    let sort_path = opts.out_dir.join("BENCH_sort.json");
    let sort_report = if opts.sweeps.sort {
        let report = sweep_sorts(&opts);
        write_report(&sort_path, &report)?;
        Some(report)
    } else {
        None
    };

    if opts.sweeps.any_kernel_report_family() {
        let kernels_path = opts.out_dir.join("BENCH_kernels.json");
        // A partial run (`--only kernel`, `--only soak`, …) must not clobber
        // the skipped families' records in an existing report at the
        // destination: carry them over instead.
        let preserved: Vec<RunRecord> = if opts.sweeps.all_kernel_report_families() {
            Vec::new()
        } else {
            std::fs::read_to_string(&kernels_path)
                .ok()
                .and_then(|text| Report::from_json_str(&text).ok())
                .map(|existing| {
                    existing
                        .records
                        .into_iter()
                        .filter(|r| {
                            (r.group == "kernel" && !opts.sweeps.kernel)
                                || (r.group == "micro" && !opts.sweeps.micro)
                                || (r.group == "injection_throughput"
                                    && !opts.sweeps.injection)
                                || (r.group == "soak" && !opts.sweeps.soak)
                                || (r.group == "wakeup_latency" && !opts.sweeps.wakeup_latency)
                                || (r.group == "idle_burn" && !opts.sweeps.idle_burn)
                                || (r.group == "team_build" && !opts.sweeps.team_build)
                                || (r.group == "service_latency" && !opts.sweeps.service)
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        // Stable record order: kernel, micro, injection_throughput, soak,
        // wakeup_latency, idle_burn, team_build, service_latency.
        let mut records: Vec<RunRecord> = Vec::new();
        let family = |enabled: bool,
                          group: &str,
                          records: &mut Vec<RunRecord>,
                          sweep: &mut dyn FnMut() -> Vec<RunRecord>| {
            if enabled {
                records.extend(sweep());
            } else {
                records.extend(preserved.iter().filter(|r| r.group == group).cloned());
            }
        };
        family(opts.sweeps.kernel, "kernel", &mut records, &mut || {
            sweep_kernels(&opts).records
        });
        family(opts.sweeps.micro, "micro", &mut records, &mut || {
            sweep_micro(&opts)
        });
        family(
            opts.sweeps.injection,
            "injection_throughput",
            &mut records,
            &mut || sweep_injection(&opts),
        );
        family(opts.sweeps.soak, "soak", &mut records, &mut || {
            sweep_soak(&opts)
        });
        family(
            opts.sweeps.wakeup_latency,
            "wakeup_latency",
            &mut records,
            &mut || sweep_wakeup_latency(&opts),
        );
        family(opts.sweeps.idle_burn, "idle_burn", &mut records, &mut || {
            sweep_idle_burn(&opts)
        });
        family(opts.sweeps.team_build, "team_build", &mut records, &mut || {
            sweep_team_build(&opts)
        });
        family(
            opts.sweeps.service,
            "service_latency",
            &mut records,
            &mut || sweep_service(&opts),
        );
        let kernel_report = new_report(&opts, "kernel", records);
        write_report(&kernels_path, &kernel_report)?;
    }

    if let Some((baseline_path, baseline)) = baseline {
        // Under --smoke the fresh sort report used tiny inputs, so its
        // medians are incomparable to the baseline: run a dedicated MMPar
        // pass at the baseline's recorded parameters instead.
        let current = if opts.smoke {
            check_pass_report(&baseline, &opts)?
        } else {
            sort_report.expect("--check without --smoke requires the sort sweep")
        };
        let outcome =
            check_regressions(&baseline, &current, Variant::MmPar.label(), opts.tolerance_pct);
        for missing in &outcome.missing_baseline {
            eprintln!("check: no baseline record for {missing}");
        }
        if baseline_path
            .canonicalize()
            .ok()
            .zip(sort_path.canonicalize().ok())
            .is_some_and(|(b, s)| b == s)
        {
            eprintln!(
                "note: {} was overwritten with the fresh report (comparison used the previous contents)",
                baseline_path.display()
            );
        }
        if outcome.compared == 0 {
            // A gate that compared nothing protects nothing: parameter
            // mismatches (size/threads/seed) must be loud, not green.
            eprintln!(
                "check: FAILED — no scenario of the current run matches the baseline {} \
                 (size/threads must match the recorded parameters)",
                baseline_path.display()
            );
            return Ok(1);
        }
        if !report_check(&outcome, "MMPar scenario", &baseline_path, opts.tolerance_pct) {
            return Ok(1);
        }
        let Some((kernels_path, kernel_baseline)) = kernel_baseline else {
            println!("check: no BENCH_kernels.json beside the baseline; spawn_overhead not gated");
            return Ok(0);
        };
        let mut current = spawn_overhead_check_report(&kernel_baseline, &opts);
        report_spawn_scaling(&current);
        // Only the one-thread cell — the spawn path itself — is gated.
        current.records.retain(|r| r.threads == 1);
        let outcome =
            check_regressions(&kernel_baseline, &current, SPAWN_OVERHEAD, opts.tolerance_pct);
        if outcome.compared == 0 {
            println!(
                "check: {} has no p = 1 spawn_overhead cell; spawn_overhead not gated",
                kernels_path.display()
            );
            return Ok(0);
        }
        if !report_check(&outcome, "spawn_overhead cell", &kernels_path, opts.tolerance_pct) {
            return Ok(1);
        }
    }
    Ok(0)
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
