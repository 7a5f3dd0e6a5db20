//! Perf-trajectory harness: sweeps the cells the `benchmark/` package does
//! not measure — the sort variants over thread counts, the application
//! kernels, and the scheduler probes of [`SCENARIOS`] — and persists
//! machine-readable reports (`BENCH_sort.json`, `BENCH_kernels.json`) so
//! every PR can be compared against a recorded baseline.
//!
//! ```text
//! cargo run --release -p teamsteal-bench --bin perf -- --help
//! ```
//!
//! lists the options ([`help`] is the one copy of that list).  Exit status:
//! 0 done, 1 a `--check` comparison regressed or compared nothing, 2 bad
//! arguments or a report file that exists but cannot be used.
//!
//! The JSON schema, the regeneration workflow and the map of which number
//! comes from the benchmark and which from here are in `EXPERIMENTS.md`; the
//! measurement methodology (warmups, interleaved repetitions, why the median
//! is the headline aggregate) in `DESIGN.md` §7.  Reports are read and
//! written through the benchmark library's `Json`, samples aggregated by its
//! `stats` (`teamsteal_bench::report`).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use teamsteal_apps::harness::{Kernel, Workload};
use teamsteal_apps::micro;
use teamsteal_bench::report::{
    check_regressions, CheckOutcome, Environment, Report, RunRecord, TimingSummary, SCHEMA_VERSION,
};
use teamsteal_bench::{interleave, measured, Cell, Variant, VariantRunner};
use teamsteal_benchmark::host;
use teamsteal_benchmark::json::Json;
use teamsteal_core::{MetricsSnapshot, Scheduler};
use teamsteal_data::Distribution;
use teamsteal_sort::SortConfig;

/// The sort variants the trajectory tracks.  `SeqStd` is the speedup
/// denominator.
const SORT_SEQUENTIAL: [Variant; 2] = [Variant::SeqStd, Variant::SeqQs];
const SORT_PARALLEL: [Variant; 3] = [Variant::Fork, Variant::RandFork, Variant::MmPar];

const SORT_FILE: &str = "BENCH_sort.json";
const KERNELS_FILE: &str = "BENCH_kernels.json";

/// One sweep family.  Its `name` is what `--only` selects, the `group` of
/// every record it writes, and the key a partial run carries records over
/// by; a report file's own `group` is the name of its first scenario.
struct Scenario {
    name: &'static str,
    file: &'static str,
    run: fn(&Options) -> Vec<RunRecord>,
}

/// Every family `perf` measures, in report order.  A cell belongs here only
/// if no `BENCHMARK.json` workload or ladder rung measures it
/// (EXPERIMENTS.md, "Which number comes from where").
#[rustfmt::skip]
const SCENARIOS: [Scenario; 8] = [
    Scenario { name: "sort", file: SORT_FILE, run: sweep_sorts },
    Scenario { name: "kernel", file: KERNELS_FILE, run: sweep_kernels },
    Scenario { name: SPAWN_OVERHEAD, file: KERNELS_FILE, run: sweep_spawn_overhead },
    Scenario { name: "injection_throughput", file: KERNELS_FILE, run: sweep_injection },
    Scenario { name: "soak", file: KERNELS_FILE, run: sweep_soak },
    Scenario { name: "wakeup_latency", file: KERNELS_FILE, run: sweep_wakeup_latency },
    Scenario { name: "idle_burn", file: KERNELS_FILE, run: sweep_idle_burn },
    Scenario { name: "team_build", file: KERNELS_FILE, run: sweep_team_build },
];

/// The scenario gated next to MMPar: the cost of one empty spawned task, the
/// number ROADMAP direction 2 is about.
const SPAWN_OVERHEAD: &str = "spawn_overhead";

fn scenario_names() -> String {
    SCENARIOS.map(|s| s.name).join(", ")
}

#[derive(Clone)]
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
    /// Names of the scenarios to run (`--only`; default: all of them).
    only: Vec<&'static str>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            smoke: false,
            size: 1 << 19,
            threads: vec![1, 2, 4],
            reps: 9,
            warmups: 1,
            seed: 42,
            out_dir: PathBuf::from("."),
            check: None,
            tolerance_pct: 25.0,
            only: SCENARIOS.map(|s| s.name).to_vec(),
        }
    }
}

impl Options {
    fn runs(&self, scenario: &Scenario) -> bool {
        self.only.contains(&scenario.name)
    }
}

fn help() -> String {
    format!(
        "Perf-trajectory harness (writes {SORT_FILE} / {KERNELS_FILE}).
  --smoke            tiny sizes and minimal repetitions (CI guard)
  --size N           sort / kernel work budget in elements (default 524288)
  --threads LIST     comma-separated thread counts (default 1,2,4)
  --reps N           timed repetitions per scenario (default 9)
  --warmups N        untimed warmup runs per scenario (default 1)
  --seed N           input seed (default 42)
  --out-dir PATH     output directory (default .)
  --only LIST        comma-separated scenarios to run (default: all of
                     {})
  --check FILE       fail (exit 1) on MMPar median regression vs baseline FILE
                     (and p = 1 spawn_overhead vs the {KERNELS_FILE} beside it);
                     with --smoke the comparison runs a dedicated MMPar pass at
                     the baseline's recorded size/threads so medians compare;
                     cells with more threads than cores are not compared
  --tolerance PCT    regression tolerance in percent (default 25)",
        scenario_names()
    )
}

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
                opts.only = value("a list")?
                    .split(',')
                    .map(|name| {
                        let known = SCENARIOS.iter().find(|s| s.name == name.trim());
                        known.map(|s| s.name).ok_or_else(|| {
                            format!(
                                "unknown sweep family '{}' (expected one of: {})",
                                name.trim(),
                                scenario_names()
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?;
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
                println!("{}", help());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    opts.reps = opts.reps.max(1);
    Ok(opts)
}

fn params_json(opts: &Options, group: &str) -> Json {
    Json::obj([
        ("group", Json::str(group)),
        ("smoke", Json::Bool(opts.smoke)),
        ("size", Json::Num(opts.size as f64)),
        ("threads", Json::Arr(opts.threads.iter().map(|&t| Json::Num(t as f64)).collect())),
        ("reps", Json::Num(opts.reps as f64)),
        ("warmups", Json::Num(opts.warmups as f64)),
        ("seed", Json::Num(opts.seed as f64)),
    ])
}

fn new_report(opts: &Options, group: &str, records: Vec<RunRecord>) -> Report {
    let mut report = Report {
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
    };
    report.withhold_oversubscribed_speedups();
    report
}

/// The aggregates of `samples`, which stay in the order they were taken.
fn summary(samples: &[Duration]) -> TimingSummary {
    TimingSummary::from_samples(samples.iter().map(Duration::as_secs_f64).collect())
}

/// One input's interleaved repetitions of `variants`
/// ([`VariantRunner::sort_cells`]), each variant's median printed.
fn sort_cells(
    runner: &mut VariantRunner,
    variants: &[Variant],
    distribution: Distribution,
    input: &[u32],
    opts: &Options,
    threads: usize,
) -> Vec<(TimingSummary, MetricsSnapshot)> {
    let cells: Vec<_> = runner
        .sort_cells(variants, input, opts.warmups, opts.reps)
        .into_iter()
        .map(|(samples, metrics)| (TimingSummary::from_samples(samples), metrics))
        .collect();
    for (variant, (secs, _)) in variants.iter().zip(&cells) {
        eprintln!(
            "sort    | {:<9} | {:<8} | p = {:>2} | median {:>10.6}s",
            distribution.label(),
            variant.label(),
            threads,
            secs.median_s
        );
    }
    cells
}

fn sort_record(
    variant: Variant,
    distribution: Distribution,
    opts: &Options,
    threads: usize,
    secs: TimingSummary,
    metrics: MetricsSnapshot,
    seq_reference_s: Option<f64>,
) -> RunRecord {
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
fn sweep_sorts(opts: &Options) -> Vec<RunRecord> {
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
        let cells = sort_cells(&mut seq_runner, &SORT_SEQUENTIAL, *distribution, input, opts, 1);
        for (variant, (secs, metrics)) in SORT_SEQUENTIAL.into_iter().zip(cells) {
            if variant == Variant::SeqStd {
                seq_medians.insert(distribution.label(), secs.median_s);
            }
            records.push(sort_record(variant, *distribution, opts, 1, secs, metrics, None));
        }
    }

    // Parallel variants at every thread count; one runner (and hence one
    // scheduler set) per thread count, reused across distributions.
    for &threads in &opts.threads {
        let mut runner = VariantRunner::new(threads, config.clone());
        for (distribution, input) in &inputs {
            let seq_reference_s = seq_medians.get(distribution.label()).copied();
            let cells = sort_cells(&mut runner, &SORT_PARALLEL, *distribution, input, opts, threads);
            // The paper's claim per cell: Fork's median over MMPar's, from
            // the same interleaved repetitions (> 1: MMPar is faster).
            let median_of = |variant: Variant| {
                let at = SORT_PARALLEL.iter().position(|&v| v == variant);
                cells[at.expect("a parallel variant")].0.median_s
            };
            let mmpar_vs_fork = median_of(Variant::Fork) / median_of(Variant::MmPar);
            eprintln!(
                "sort    | {:<9} | p = {threads:>2} | mmpar_vs_fork {mmpar_vs_fork:.2}",
                distribution.label()
            );
            for (variant, (secs, metrics)) in SORT_PARALLEL.into_iter().zip(cells) {
                let mut record = sort_record(
                    variant,
                    *distribution,
                    opts,
                    threads,
                    secs,
                    metrics,
                    seq_reference_s,
                );
                if variant == Variant::MmPar {
                    record.extra = Some(Json::obj([("mmpar_vs_fork", Json::Num(mmpar_vs_fork))]));
                }
                records.push(record);
            }
        }
    }
    records
}

/// Sweeps every application kernel over the thread counts.  Per kernel, the
/// sequential reference and one cell per thread count run interleaved, on
/// schedulers all built up front, so the control shares the host's
/// conditions with what it controls.
fn sweep_kernels(opts: &Options) -> Vec<RunRecord> {
    let schedulers: Vec<Scheduler> = opts
        .threads
        .iter()
        .map(|&threads| Scheduler::with_threads(threads))
        .collect();
    let mut records = Vec::new();
    for kernel in Kernel::ALL {
        let workload = &Workload::prepare(kernel, opts.size, opts.seed);
        let sides = std::iter::once(None).chain(schedulers.iter().map(Some));
        let cells = sides
            .map(|side| Cell::new(side, move || workload.run(side)))
            .collect();
        let mut cells = interleave(cells, opts.warmups, opts.reps).into_iter();
        let (sequential, _) = cells.next().expect("the sequential cell");
        let seq_s = summary(&sequential).median_s;
        eprintln!(
            "kernel  | {:<9} | sequential | median {seq_s:>10.6}s",
            kernel.label()
        );
        for ((samples, metrics), &threads) in cells.zip(&opts.threads) {
            let secs = summary(&samples);
            let speedup_vs_seq = (secs.median_s > 0.0).then(|| seq_s / secs.median_s);
            eprintln!(
                "kernel  | {:<9} | p = {threads:>2}     | median {:>10.6}s | SU {:>5.2} | teams {}",
                kernel.label(),
                secs.median_s,
                speedup_vs_seq.unwrap_or(0.0),
                metrics.teams_built + metrics.team_reuses
            );
            records.push(RunRecord {
                group: "kernel".into(),
                name: kernel.label().into(),
                distribution: None,
                size: workload.size(),
                threads,
                warmups: opts.warmups,
                repetitions: opts.reps,
                secs,
                metrics,
                seq_reference_s: Some(seq_s),
                speedup_vs_seq,
                extra: None,
            });
        }
    }
    records
}

/// The spawn/join loop of empty tasks ([`micro::spawn_overhead`]) at every
/// `(spawns, threads)` cell, one scheduler at a time: the p = 1 cell is the
/// gated one, and another pool's workers winding down beside it would share
/// its cores.
fn spawn_overhead_records(cells: &[(usize, usize)], opts: &Options) -> Vec<RunRecord> {
    let record = |&(spawns, threads): &(usize, usize)| {
        let scheduler = Scheduler::with_threads(threads);
        let cell = Cell::new(Some(&scheduler), || {
            micro::spawn_overhead(&scheduler, spawns)
        });
        let (samples, metrics) = interleave(vec![cell], opts.warmups, opts.reps).remove(0);
        let secs = summary(&samples);
        eprintln!(
            "spawn   | {spawns:>8} tasks | p = {threads:>2} | median {:>10.6}s | {:>8.1} ns/task",
            secs.median_s,
            secs.median_s * 1e9 / spawns.max(1) as f64
        );
        RunRecord {
            group: SPAWN_OVERHEAD.into(),
            name: SPAWN_OVERHEAD.into(),
            distribution: None,
            size: spawns,
            threads,
            warmups: opts.warmups,
            repetitions: opts.reps,
            secs,
            metrics,
            seq_reference_s: None,
            speedup_vs_seq: None,
            extra: None,
        }
    };
    cells.iter().map(record).collect()
}

/// Sweeps the spawn/join loop of empty tasks over the thread counts: at
/// p = 1 the cost of the spawn path itself, at p ≥ 2 one flat producer
/// against thieves (ROADMAP direction 2b; the benchmark's spawn rungs are
/// p = 1 only).  The budget is derived from `--size` so `--smoke` scales it
/// down too.
fn sweep_spawn_overhead(opts: &Options) -> Vec<RunRecord> {
    let spawns = (opts.size / 4).max(1_000);
    let cells: Vec<_> = opts
        .threads
        .iter()
        .map(|&threads| (spawns, threads))
        .collect();
    spawn_overhead_records(&cells, opts)
}

/// Sweeps the multi-producer injection scenario
/// ([`micro::injection_throughput`]): 8 concurrent submitter threads feed
/// empty root tasks into one persistent scheduler.  Each thread count is
/// measured twice — once with the default domain width (sharded injector)
/// and once with `domain_width = p` (a single shard, the pre-sharding
/// layout) — so the sharded-vs-single comparison lives side by side in the
/// report.  On top of `--threads`, oversubscribed p = 32/64 "simulated big
/// iron" cells run too: that is where the domain structure has more than
/// one shard to spread producers over.  One scheduler at a time, for the
/// reason [`spawn_overhead_records`] gives.
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
            let cell = Cell::new(Some(&scheduler), || {
                micro::injection_throughput(&scheduler, PRODUCERS, per_producer)
            });
            let (outcomes, metrics) = interleave(vec![cell], opts.warmups, opts.reps).remove(0);
            let shards = scheduler.injector_shard_segments().len();
            let secs = summary(&outcomes.iter().map(|o| o.duration).collect::<Vec<_>>());
            let submit: Vec<Duration> = outcomes
                .into_iter()
                .flat_map(|o| o.submit_to_start)
                .collect();
            let submit_secs = summary(&submit);
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
                extra: Some(Json::obj([
                    ("producers", Json::Num(PRODUCERS as f64)),
                    ("per_producer", Json::Num(per_producer as f64)),
                    ("shards", Json::Num(shards as f64)),
                    ("tasks_per_sec", Json::Num(tasks_per_sec)),
                    ("submit_to_start_median_us", Json::Num(submit_secs.median_s * 1e6)),
                    ("submit_to_start_p95_us", Json::Num(submit_secs.p95_s * 1e6)),
                    ("injector_remote_pop_share", Json::Num(remote_share)),
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
        let mut samples = Vec::new();
        let mut metrics = MetricsSnapshot::default();
        let mut peak_segments = 0usize;
        let mut peak_deferred = 0usize;
        let mut final_segments = 0usize;
        for _ in 0..opts.reps {
            let scheduler = Scheduler::with_threads(threads);
            let (outcome, delta) = measured(Some(&scheduler), || {
                micro::soak(&scheduler, scopes, per_scope)
            });
            samples.push(outcome.duration);
            metrics = metrics.merge(delta);
            peak_segments = peak_segments.max(outcome.peak_injector_segments);
            peak_deferred = peak_deferred.max(outcome.peak_deferred_items);
            final_segments = outcome.final_injector_segments;
        }
        let secs = summary(&samples);
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
            extra: Some(Json::obj([
                ("peak_injector_segments", Json::Num(peak_segments as f64)),
                ("final_injector_segments", Json::Num(final_segments as f64)),
                ("peak_deferred_items", Json::Num(peak_deferred as f64)),
                ("scopes", Json::Num(scopes as f64)),
                ("per_scope", Json::Num(per_scope as f64)),
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
        let (latencies, metrics) = measured(Some(&scheduler), || {
            micro::wakeup_latency(&scheduler, submissions)
        });
        let secs = summary(&latencies);
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
            extra: Some(Json::obj([(
                "settle_ms",
                Json::Num(micro::WAKEUP_SETTLE.as_secs_f64() * 1e3),
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
        Duration::from_millis(150)
    } else {
        Duration::from_millis(500)
    };
    let mut records = Vec::new();
    for &threads in &opts.threads {
        let scheduler = Scheduler::with_threads(threads);
        let cell = Cell::new(Some(&scheduler), || micro::idle_burn(&scheduler, wall));
        let (outcomes, metrics) = interleave(vec![cell], 0, opts.reps).remove(0);
        // The probe can transiently fail (procfs race); skip the sample
        // rather than abort the sweep.
        let measured = outcomes.iter().filter_map(|o| Some((o.cpu?, o.wall)));
        let (samples, walls): (Vec<Duration>, Vec<Duration>) = measured.unzip();
        let reps_recorded = samples.len();
        if reps_recorded == 0 {
            eprintln!("idle    | skipped p = {threads}: CPU probe failed every repetition");
            continue;
        }
        let wall_total: Duration = walls.iter().sum();
        let secs = summary(&samples);
        let burn_ratio = if wall_total.as_secs_f64() > 0.0 {
            secs.samples_s.iter().sum::<f64>() / wall_total.as_secs_f64()
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
            extra: Some(Json::obj([
                ("wall_interval_s", Json::Num(wall.as_secs_f64())),
                ("cpu_per_wall", Json::Num(burn_ratio)),
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
/// `mix` record times a bursty heterogeneous requirement mix (full-width
/// streaks, a half-width task, sequential riders) end-to-end.
fn sweep_team_build(opts: &Options) -> Vec<RunRecord> {
    let streak_tasks = (opts.size / 2_048).clamp(32, 256);
    // Every cold submission pays a keep-alive-expiry gap, which bounds how
    // many are practical per run.
    let cold_tasks = (opts.size / 8_192).clamp(8, 48);
    let mix_bursts = (opts.size / 4_096).clamp(8, 64);
    let mut records = Vec::new();
    let hit_rate = |metrics: &MetricsSnapshot| {
        metrics.team_reuses as f64 / (metrics.teams_built + metrics.team_reuses).max(1) as f64
    };
    let record = |name: &str, threads, size, warmups, reps, secs, metrics| RunRecord {
        group: "team_build".into(),
        name: name.into(),
        distribution: None,
        size,
        threads,
        warmups,
        repetitions: reps,
        secs,
        extra: Some(Json::obj([
            ("reuse_hit_rate", Json::Num(hit_rate(&metrics))),
            ("cold_gap_ms", Json::Num(micro::TEAM_BUILD_COLD_GAP.as_secs_f64() * 1e3)),
        ])),
        metrics,
        seq_reference_s: None,
        speedup_vs_seq: None,
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
        // One streak and one cold run, whose samples are their tasks'
        // latencies; then the mix, timed end to end.
        let streak = measured(Some(&scheduler), || {
            micro::team_build_streak(&scheduler, r, streak_tasks)
        });
        let cold = measured(Some(&scheduler), || {
            micro::team_build_cold(&scheduler, r, cold_tasks)
        });
        let mut medians_us = Vec::new();
        for (name, (outcome, metrics)) in [("team_build_streak", streak), ("team_build_cold", cold)] {
            let tasks = outcome.tasks;
            let secs = summary(&outcome.submit_to_start);
            medians_us.push((secs.median_s * 1e6, hit_rate(&metrics)));
            records.push(record(
                name,
                threads,
                tasks,
                opts.warmups,
                tasks,
                secs,
                metrics,
            ));
        }
        eprintln!(
            "team    | r = {r:>2} | p = {threads:>2} | streak median {:>8.1} us (hit {:>5.3}) | cold median {:>8.1} us",
            medians_us[0].0, medians_us[0].1, medians_us[1].0
        );

        let mix_cell = Cell::new(Some(&scheduler), || {
            micro::team_build_mix(&scheduler, mix_bursts)
        });
        let (samples, metrics) = interleave(vec![mix_cell], 0, opts.reps).remove(0);
        let secs = summary(&samples);
        eprintln!(
            "teammix | {mix_bursts:>4} bursts | p = {threads:>2} | median {:>10.6}s | built {} reused {}",
            secs.median_s, metrics.teams_built, metrics.team_reuses
        );
        records.push(record(
            "team_build_mix",
            threads,
            mix_bursts,
            0,
            opts.reps,
            secs,
            metrics,
        ));
    }
    records
}

/// Re-measures the checked variant (MMPar) at the baseline's recorded
/// (distribution, size, threads) cells, so `--smoke --check` compares
/// like-for-like medians instead of smoke-sized ones.  Repetitions and
/// warmups stay at the (smoke) values of the current run.  Cells the gate
/// would not compare — oversubscribed when recorded, or on this host — are
/// not measured either.
fn check_pass_report(baseline: &Report, opts: &Options) -> Result<Report, String> {
    let seed = baseline
        .params
        .get("seed")
        .and_then(Json::as_f64)
        .map(|s| s as u64)
        .unwrap_or(opts.seed);
    let mmpar = Variant::MmPar.label();
    let cores = host::nproc();
    // Distinct cells of the baseline, preserving its sweep order.
    let mut cells: Vec<(String, usize, usize)> = Vec::new();
    for record in baseline.records.iter().filter(|r| r.name == mmpar) {
        if baseline.oversubscribed(record) || record.threads > cores {
            continue;
        }
        let cell = (
            record.distribution.clone().unwrap_or_default(),
            record.size,
            record.threads,
        );
        if !cells.contains(&cell) {
            cells.push(cell);
        }
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
        let sized_opts = Options { size, seed, ..opts.clone() };
        let (secs, metrics) =
            sort_cells(runner, &[Variant::MmPar], distribution, input, &sized_opts, threads)
                .pop()
                .expect("one cell per variant");
        records.push(sort_record(
            Variant::MmPar,
            distribution,
            &sized_opts,
            threads,
            secs,
            metrics,
            None,
        ));
    }
    Ok(new_report(opts, "sort", records))
}

/// Re-measures `spawn_overhead` at the kernel baseline's recorded
/// (spawns, threads) cells, for the same reason as [`check_pass_report`] and
/// with the same exclusions.
fn spawn_overhead_check_report(baseline: &Report, opts: &Options) -> Report {
    let cores = host::nproc();
    let cells: Vec<_> = baseline
        .records
        .iter()
        .filter(|r| r.group == SPAWN_OVERHEAD && r.threads <= cores && !baseline.oversubscribed(r))
        .map(|base| (base.size, base.threads))
        .collect();
    new_report(opts, "kernel", spawn_overhead_records(&cells, opts))
}

/// Prints what one empty task costs at p = 2 relative to p = 1 against
/// ROADMAP direction 2's target (within 1.2x).  Informational, like every
/// multi-threaded cell of this probe: one producer against a thief has two
/// regimes — the producer runs ahead (1.1-1.7x) or the thief takes each task
/// as it is pushed (4x) — and which one a process lands in changed between
/// builds of the same library code (EXPERIMENTS.md "The sharded scope
/// countdown").  Says nothing on a one-core host, where p = 2 only measures
/// time slicing.
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

/// Reads the report at `path`, `None` when no file is there.  A file that is
/// there but is not a report of this schema is an error, never an absent
/// file: treating it as absent would skip a gate or overwrite its records.
fn read_report(path: &Path, what: &str) -> Result<Option<Report>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {what} {}: {e}", path.display())),
    };
    let report = Report::from_json_str(&text);
    report.map(Some).map_err(|e| format!("{what} {} is invalid: {e}", path.display()))
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
    let runs_sort = opts.only.contains(&"sort");
    if opts.check.is_some() && !runs_sort && !opts.smoke {
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
            let report = read_report(baseline_path, "baseline")?
                .ok_or_else(|| format!("baseline {} does not exist", baseline_path.display()))?;
            if report.group != "sort" {
                return Err(format!(
                    "baseline {} is a `{}` report; --check compares sort reports ({SORT_FILE})",
                    baseline_path.display(),
                    report.group
                ));
            }
            Some((baseline_path.clone(), report))
        }
        None => None,
    };
    // The kernel baseline lives next to the sort one and, like it, must be
    // read before a sweep overwrites it.  Absent: only MMPar is gated (said
    // below).
    let kernel_baseline = match &baseline {
        Some((path, _)) => {
            let path = path.with_file_name(KERNELS_FILE);
            read_report(&path, "kernel baseline")?.map(|report| (path, report))
        }
        None => None,
    };

    eprintln!(
        "perf harness — size {}, threads {:?}, {} reps after {} warmups, seed {}{}",
        opts.size,
        opts.threads,
        opts.reps,
        opts.warmups,
        opts.seed,
        if opts.smoke { " (smoke)" } else { "" }
    );

    // One report per file that has a selected scenario, records in table
    // order.  A partial run (`--only kernel`, `--only soak`, …) must not
    // clobber the skipped scenarios' records in an existing report at the
    // destination: it carries them over instead — read here, before any
    // sweep, so a report that cannot be carried over stops the run at once.
    let sort_path = opts.out_dir.join(SORT_FILE);
    let mut sort_report = None;
    let mut plans = Vec::new();
    for file in [SORT_FILE, KERNELS_FILE] {
        let scenarios: Vec<&Scenario> = SCENARIOS.iter().filter(|s| s.file == file).collect();
        if !scenarios.iter().any(|s| opts.runs(s)) {
            continue;
        }
        let path = opts.out_dir.join(file);
        let existing = if scenarios.iter().all(|s| opts.runs(s)) {
            Vec::new()
        } else {
            let carried = read_report(&path, "existing report")?;
            carried.map(|report| report.records).unwrap_or_default()
        };
        plans.push((file, path, scenarios, existing));
    }
    for (file, path, scenarios, existing) in plans {
        let mut records = Vec::new();
        for scenario in &scenarios {
            if opts.runs(scenario) {
                records.extend((scenario.run)(&opts));
            } else {
                records.extend(existing.iter().filter(|r| r.group == scenario.name).cloned());
            }
        }
        let report = new_report(&opts, scenarios[0].name, records);
        write_report(&path, &report)?;
        if file == SORT_FILE {
            sort_report = Some(report);
        }
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
                 (size/threads must match the recorded parameters; cells with more \
                 threads than cores are not compared)",
                baseline_path.display()
            );
            return Ok(1);
        }
        if !report_check(&outcome, "MMPar scenario", &baseline_path, opts.tolerance_pct) {
            return Ok(1);
        }
        let Some((kernels_path, kernel_baseline)) = kernel_baseline else {
            println!("check: no {KERNELS_FILE} beside the baseline; spawn_overhead not gated");
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
