//! Command line of `teamsteal-benchmark`.
//!
//! ```text
//! teamsteal-benchmark --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command calls)
//! teamsteal-benchmark all [--trace] [--seed N] [--seconds S]          every workload, each in a fresh process
//! teamsteal-benchmark repeat N [--seed N] [--seconds S]               the suite N times: min/median/max/spread
//! teamsteal-benchmark compare BASE.json CHANGE.json [more pairs]      verdict per workload and metric
//! teamsteal-benchmark spec                                            prints BENCHMARK.json
//! ```

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::host;
use crate::json::Json;
use crate::ladder;
use crate::report;
use crate::spec::{self, Metric};
use crate::trace::Tracer;
use crate::watchdog::Watchdog;
use crate::workloads::{self, Measured, Params};

/// Share of a traced run's time given to the untraced reference, the traced
/// workload and the ladder.
const UNTRACED_SHARE: f64 = 0.25;
const TRACED_SHARE: f64 = 0.35;
const LADDER_SHARE: f64 = 0.40;

/// Per-layer metrics that are what a user of one workload sees; in a traced
/// run they come from the part measured with tracing off.
const FROM_UNTRACED: [&str; 12] = [
    "sort.mixed.melems_per_s",
    "sort.mixed.speedup_vs_seq",
    "sort.mixed.vs_fork",
    "core.tree.mtasks_per_s",
    "core.team_stream.dense_ktasks_per_s",
    "core.team_stream.cold_run_us",
    "service.idle_p50_us",
    "service.mid_p50_us",
    "service.busy_p50_us",
    "service.within_slo_share",
    "service.ceiling_ktasks_per_s",
    "service.goodput_ktasks_per_s",
];

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

/// Flags shared by the subcommands, parsed from `--name value` pairs.
struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    /// `switches` are the flags that take no value.
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => flags.switches.push(name.to_owned()),
                Some(name) => {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.values.push((name.to_owned(), value.clone()));
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: cannot read `{text}`")),
        }
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .values
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((name, _)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }

    /// `--seconds`, bounded to what a run can honour inside its time limit.
    fn seconds(&self) -> Result<f64, String> {
        let seconds: f64 = self.parsed("seconds", f64::from(spec::RUN_SECONDS))?;
        if !(0.05..=60.0).contains(&seconds) {
            return Err(format!(
                "--seconds must be between 0.05 and 60, not {seconds}"
            ));
        }
        Ok(seconds)
    }
}

fn metric_json(metric: &Metric, value: f64) -> (&'static str, Json) {
    (
        metric.name,
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::str(metric.unit)),
        ]),
    )
}

/// One run of one workload: returns the meta object, the result object (the
/// contract's last line) and whether the run was correct.
fn run_workload(args: &RunArgs, watchdog: &Watchdog) -> Result<(Json, Json), String> {
    let params = if args.smoke {
        Params::smoke(args.seed)
    } else {
        Params::measured(args.seconds, args.seed)
    };
    let unknown = || format!("unknown workload `{}`", args.workload);
    let measured: Measured;
    let metrics: Vec<(&'static str, Json)>;
    if !args.trace {
        measured = workloads::run(&args.workload, &params, &mut Tracer::new(false), watchdog)
            .ok_or_else(unknown)?;
        let value = |name: &str| match name {
            "throughput_kops_per_s" => measured.throughput_kops,
            "latency_p50_us" => measured.latency_p50_us,
            "peak_rss_mb" => host::peak_rss_mb(),
            "setup_s" => measured.setup_s,
            other => unreachable!("end-to-end metric {other} has no source"),
        };
        metrics = spec::END_TO_END
            .iter()
            .map(|m| metric_json(m, value(m.name)))
            .collect();
    } else {
        let untraced = workloads::run(
            &args.workload,
            &params.scaled(UNTRACED_SHARE),
            &mut Tracer::new(false),
            watchdog,
        )
        .ok_or_else(unknown)?;
        let mut tracer = Tracer::new(true);
        let mut traced = workloads::run(
            &args.workload,
            &params.scaled(TRACED_SHARE),
            &mut tracer,
            watchdog,
        )
        .ok_or_else(unknown)?;
        let ladder_seconds = if args.smoke {
            0.05
        } else {
            params.seconds * LADDER_SHARE
        };
        let rungs = ladder::run(ladder_seconds, params.threads, params.seed, watchdog);
        // What recording spans cost the workload's own headline number.
        let overhead = if untraced.throughput_kops > 0.0 {
            1.0 - traced.throughput_kops / untraced.throughput_kops
        } else {
            0.0
        };
        let value = |name: &str| -> f64 {
            if name == "bench.trace_overhead_share" {
                overhead
            } else if let Some(&(_, v)) = rungs.iter().find(|(n, _)| *n == name) {
                v
            } else if FROM_UNTRACED.contains(&name) {
                untraced.layer_value(name).unwrap_or(0.0)
            } else {
                traced.layer_value(name).unwrap_or(0.0)
            }
        };
        metrics = spec::PER_LAYER
            .iter()
            .map(|m| metric_json(m, value(m.name)))
            .collect();
        write_trace(args, &tracer, &metrics);
        traced.correct &= untraced.correct;
        traced.attempted += untraced.attempted;
        traced.failed += untraced.failed;
        measured = traced;
    }
    let meta = Json::obj([
        ("benchmark", Json::str("teamsteal")),
        ("workload", Json::str(args.workload.as_str())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(params.seconds)),
        ("trace", Json::Num(f64::from(u8::from(args.trace)))),
        ("threads", Json::Num(params.threads as f64)),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("rustc", Json::str(host::rustc_version())),
        ("commit", Json::str(host::commit())),
        (
            "samples",
            Json::obj(
                measured
                    .samples
                    .iter()
                    .map(|&(n, c)| (n, Json::Num(c as f64))),
            ),
        ),
    ]);
    let result = Json::obj([
        ("correct", Json::Bool(measured.correct)),
        ("attempted", Json::Num(measured.attempted.max(1) as f64)),
        ("failed", Json::Num(measured.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    Ok((meta, result))
}

/// Writes `benchmark/out/trace-<workload>.json` and the per-layer table.
/// Both are by-products: failing to write them is reported, not fatal.
fn write_trace(args: &RunArgs, tracer: &Tracer, metrics: &[(&'static str, Json)]) {
    let dir = report::out_dir();
    let meta = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        (
            "note",
            "per-request service spans are kept for the first requests of each phase only".into(),
        ),
    ];
    let trace_path = dir.join(format!("trace-{}.json", args.workload));
    if let Err(err) = tracer.write_chrome(&trace_path, &meta) {
        eprintln!("could not write {}: {err}", trace_path.display());
    }
    let mut table = String::from("per-layer metrics (traced run)\n");
    for (name, metric) in metrics {
        table.push_str(&format!(
            "  {name:<42} {:>16.4} {}\n",
            metric
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            metric.get("unit").and_then(Json::as_str).unwrap_or(""),
        ));
    }
    table.push_str("span totals (name, count, total ms, self ms)\n");
    for (name, totals) in tracer.totals() {
        table.push_str(&format!(
            "  {name:<42} {:>9} {:>14.3} {:>14.3}\n",
            totals.count,
            totals.total_ns as f64 / 1e6,
            totals.self_ns as f64 / 1e6
        ));
    }
    eprint!("{table}");
    let table_path = dir.join(format!("layers-{}.txt", args.workload));
    if let Err(err) = std::fs::write(&table_path, table) {
        eprintln!("could not write {}: {err}", table_path.display());
    }
}

/// The contract's command: one workload, result as the last line.
fn cmd_run(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    flags.reject_unknown(&["workload", "seed", "seconds", "trace"])?;
    if !flags.positional.is_empty() {
        return Err(format!("unexpected argument `{}`", flags.positional[0]));
    }
    let run = RunArgs {
        workload: flags
            .value("workload")
            .ok_or("--workload is required")?
            .to_owned(),
        seed: flags.parsed("seed", spec::DEFAULT_SEED)?,
        seconds: flags.seconds()?,
        trace: match flags.value("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        smoke: flags.switch("smoke"),
    };
    if !spec::WORKLOADS.iter().any(|w| w.name == run.workload) {
        return Err(format!("unknown workload `{}`", run.workload));
    }
    let watchdog = Watchdog::start();
    let (meta, result) = run_workload(&run, &watchdog)?;
    drop(watchdog);
    println!("{}", meta.to_line());
    println!("{}", result.to_line());
    Ok(
        if result.get("correct").and_then(Json::as_bool) == Some(true) {
            0
        } else {
            1
        },
    )
}

/// Runs one workload in a fresh process of this executable (so that peak
/// memory is per workload) and returns its run object.
fn run_in_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child; its stderr (progress, stall dumps) is
    // passed on.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().and_then(|l| Json::parse(l).ok());
    let meta = lines.next().and_then(|l| Json::parse(l).ok());
    match (meta, result) {
        (Some(Json::Obj(mut run)), Some(Json::Obj(result))) => {
            run.extend(result);
            run.push((
                "exit_code".into(),
                Json::Num(f64::from(output.status.code().unwrap_or(-1))),
            ));
            Ok(Json::Obj(run))
        }
        _ => Err(format!(
            "{workload} ended with {} and printed no result",
            output.status
        )),
    }
}

fn suite_meta(seconds: f64) -> Json {
    Json::obj([
        ("commit", Json::str(host::commit())),
        ("rustc", Json::str(host::rustc_version())),
        ("nproc", Json::Num(host::nproc() as f64)),
        (
            "threads",
            Json::Num(host::threads_for(host::nproc()) as f64),
        ),
        ("seconds", Json::Num(seconds)),
        (
            "created_unix",
            Json::Num(
                SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .unwrap_or(Duration::ZERO)
                    .as_secs() as f64,
            ),
        ),
    ])
}

/// Runs the suite `rounds` times (seed, seed+1, ...) and returns the result
/// file plus whether every run was correct.
fn run_suite(flags: &Flags, rounds: u64, trace: bool) -> Result<(Json, bool), String> {
    let seed: u64 = flags.parsed("seed", spec::DEFAULT_SEED)?;
    let seconds = flags.seconds()?;
    let only = flags.value("workload");
    let mut runs = Vec::new();
    let mut all_correct = true;
    for round in 0..rounds {
        for w in spec::WORKLOADS
            .iter()
            .filter(|w| only.map_or(true, |o| o == w.name))
        {
            eprintln!(
                "[{}/{rounds}] {} (seed {})",
                round + 1,
                w.name,
                seed + round
            );
            let run = run_in_child(w.name, seed + round, seconds, trace, flags.switch("smoke"))?;
            all_correct &= run.get("correct").and_then(Json::as_bool) == Some(true)
                && run.get("failed").and_then(Json::as_f64) == Some(0.0);
            runs.push(run);
        }
    }
    if runs.is_empty() {
        return Err(format!("no workload is called `{}`", only.unwrap_or("")));
    }
    Ok((
        Json::obj([("meta", suite_meta(seconds)), ("runs", Json::Arr(runs))]),
        all_correct,
    ))
}

fn save(flags: &Flags, default_name: &str, file: &Json) {
    let path = flags
        .value("out")
        .map_or_else(|| report::out_dir().join(default_name), PathBuf::from);
    match report::write_json(&path, file) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
}

fn cmd_all(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["trace", "smoke"])?;
    flags.reject_unknown(&["seed", "seconds", "workload", "out"])?;
    let trace = flags.switch("trace");
    let (file, all_correct) = run_suite(&flags, 1, trace)?;
    print!("{}", report::metrics_table(&file));
    save(
        &flags,
        if trace {
            "result-traced.json"
        } else {
            "result.json"
        },
        &file,
    );
    Ok(if all_correct { 0 } else { 1 })
}

fn cmd_repeat(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    flags.reject_unknown(&["seed", "seconds", "workload", "out"])?;
    let rounds: u64 = match flags.positional.as_slice() {
        [n] => n.parse().ok().filter(|n| (2..=100).contains(n)),
        _ => None,
    }
    .ok_or("usage: repeat N (2..=100) [--seed N] [--seconds S] [--workload W] [--out FILE]")?;
    let (file, all_correct) = run_suite(&flags, rounds, false)?;
    let rows = report::spread_rows(&file);
    print!("{}", report::spread_table(&rows));
    save(&flags, "repeat.json", &file);
    let steady = rows.iter().all(report::SpreadRow::within_bound);
    if !steady {
        eprintln!("a metric's quartile spread exceeds its bound in BENCHMARK.json");
    }
    Ok(if steady && all_correct { 0 } else { 1 })
}

fn cmd_compare(args: &[String]) -> Result<i32, String> {
    if args.is_empty() || args.len() % 2 != 0 {
        return Err("usage: compare BASE.json CHANGE.json [BASE2.json CHANGE2.json ...]".into());
    }
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let pairs = args
        .chunks(2)
        .map(|pair| Ok((load(&pair[0])?, load(&pair[1])?)))
        .collect::<Result<Vec<_>, String>>()?;
    let table = report::compare_table(&pairs)?;
    print!("{table}");
    Ok(if table.contains("| regressed |") {
        1
    } else {
        0
    })
}

/// Exercises the watchdog's expiry path from a test: a phase that never
/// ends must end the process with the watchdog's exit code.
fn cmd_wedge() -> Result<i32, String> {
    let watchdog = Watchdog::start();
    watchdog.phase("wedge-test", Duration::from_millis(50), || loop {
        std::thread::park();
    })
}

/// Runs the command line and returns the process exit code.
pub fn main_with_args(args: &[String]) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        Some("all") => cmd_all(&args[1..]),
        Some("repeat") => cmd_repeat(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().to_pretty());
            Ok(0)
        }
        Some("wedge") => cmd_wedge(),
        Some("help" | "--help" | "-h") | None => {
            eprintln!("usage: teamsteal-benchmark --workload W --seed N --seconds S --trace 0|1\n       teamsteal-benchmark all|repeat N|compare A B|spec   (see benchmark/README.md)");
            Ok(2)
        }
        Some(_) => cmd_run(args),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        2
    })
}
