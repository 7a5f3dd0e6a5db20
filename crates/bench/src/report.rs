//! Machine-readable perf-trajectory reports (`BENCH_*.json`).
//!
//! The paper's contribution is quantitative (Tables 1–10 plus the "no
//! overhead in the `r = 1` case" claim), so every perf-relevant change to
//! this repository needs numbers that a later change can be compared
//! against.  This module is that instrument: the `perf` bin sweeps the sort
//! variants and the application kernels and persists one [`Report`] per
//! group as JSON at the repository root.
//!
//! Three design constraints shape the module:
//!
//! 1. **One JSON layer, one set of order statistics.**  The build
//!    environment has no crates.io access (see `stubs/README.md`), so the
//!    repository owns a small JSON value with a parser and a writer — the
//!    benchmark package's [`Json`], which this module reads and writes
//!    through; medians and percentiles are that package's `stats`.  What
//!    lives here is the typed schema on top: every field a report must have,
//!    checked when a file is read.
//! 2. **Explainable numbers.**  Every [`RunRecord`] carries a
//!    [`MetricsSnapshot`] delta next to its timing aggregates: a slowdown
//!    with a spike in `failed_steal_rounds` reads very differently from one
//!    with constant metrics.
//! 3. **Regression gating.**  [`check_regressions`] compares two reports
//!    record-by-record and reports the scenarios whose median regressed
//!    beyond a tolerance — the `perf --check <baseline>` exit status.
//!
//! The JSON schema is documented in `EXPERIMENTS.md` ("Regenerating
//! `BENCH_*.json`").

use teamsteal_benchmark::json::Json;
use teamsteal_benchmark::{host, stats};
use teamsteal_core::MetricsSnapshot;

/// Value of the `schema_version` field of every report this code writes, and
/// the only one it reads.
pub const SCHEMA_VERSION: u64 = 1;

/// `value` as a non-negative integer that an `f64` holds exactly.  `None`
/// for whatever a cast would have bent into one: a sign, a fraction, a
/// `null` that was a NaN when written, 2^53 and beyond.
fn uint(value: &Json) -> Option<u64> {
    let n = value.as_f64()?;
    (n >= 0.0 && n.fract() == 0.0 && n < 9_007_199_254_740_992.0).then_some(n as u64)
}

/// Member `key` of the object `value` (a `what`, for the message) as a
/// non-negative integer that fits `T`.
fn uint_field<T: TryFrom<u64>>(value: &Json, what: &str, key: &str) -> Result<T, String> {
    let field = value
        .get(key)
        .ok_or_else(|| format!("{what} missing `{key}`"))?;
    uint(field)
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| {
            format!(
                "{what} `{key}` must be a non-negative integer, found {}",
                field.to_line()
            )
        })
}

fn str_field(value: &Json, what: &str, key: &str) -> Result<String, String> {
    let field = value.get(key).and_then(Json::as_str);
    field
        .map(str::to_string)
        .ok_or_else(|| format!("{what} missing string `{key}`"))
}

// ---------------------------------------------------------------------------
// Report data model
// ---------------------------------------------------------------------------

/// Timing aggregates of one scenario, in seconds.
///
/// Built by [`TimingSummary::from_samples`]; the raw samples are retained so
/// a future reader can re-aggregate differently.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimingSummary {
    /// Best (minimum) sample.
    pub best_s: f64,
    /// Arithmetic mean.
    pub average_s: f64,
    /// Median — the headline aggregate (see `DESIGN.md` §7).
    pub median_s: f64,
    /// 95th percentile (nearest-rank).
    pub p95_s: f64,
    /// Worst (maximum) sample.
    pub worst_s: f64,
    /// Sample standard deviation.
    pub stddev_s: f64,
    /// Every timed sample, in execution order.
    pub samples_s: Vec<f64>,
}

impl TimingSummary {
    /// Aggregates samples given in seconds, in execution order.  Median and
    /// percentile are the benchmark's (`stats::median`: midpoint of the two
    /// central samples for an even count; `stats::percentile_sorted`:
    /// nearest rank); no samples aggregate to all zeros.
    pub fn from_samples(samples_s: Vec<f64>) -> Self {
        if samples_s.is_empty() {
            return TimingSummary::default();
        }
        let sorted = stats::sorted(&samples_s);
        let n = sorted.len() as f64;
        let average_s = samples_s.iter().sum::<f64>() / n;
        let squares: f64 = samples_s.iter().map(|s| (s - average_s).powi(2)).sum();
        TimingSummary {
            best_s: sorted[0],
            average_s,
            median_s: stats::median(&sorted),
            p95_s: stats::percentile_sorted(&sorted, 95.0),
            worst_s: sorted[sorted.len() - 1],
            // Sample (n - 1) deviation; a single sample has none.
            stddev_s: if sorted.len() < 2 {
                0.0
            } else {
                (squares / (n - 1.0)).sqrt()
            },
            samples_s,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("best_s", Json::Num(self.best_s)),
            ("average_s", Json::Num(self.average_s)),
            ("median_s", Json::Num(self.median_s)),
            ("p95_s", Json::Num(self.p95_s)),
            ("worst_s", Json::Num(self.worst_s)),
            ("stddev_s", Json::Num(self.stddev_s)),
            (
                "samples_s",
                Json::Arr(self.samples_s.iter().map(|&s| Json::Num(s)).collect()),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        let num = |key: &str| {
            let field = value.get(key).and_then(Json::as_f64);
            field.ok_or_else(|| format!("timing summary missing number `{key}`"))
        };
        let samples = value
            .get("samples_s")
            .and_then(Json::as_arr)
            .ok_or("timing summary missing `samples_s`")?
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| "non-numeric sample".to_string()))
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(TimingSummary {
            best_s: num("best_s")?,
            average_s: num("average_s")?,
            median_s: num("median_s")?,
            p95_s: num("p95_s")?,
            worst_s: num("worst_s")?,
            stddev_s: num("stddev_s")?,
            samples_s: samples,
        })
    }
}

/// Key of the wake-latency histogram inside the metrics object: one count
/// per bucket, bounds `teamsteal_core::metrics::WAKE_LATENCY_BOUNDS_US`
/// (last bucket unbounded).  Every other key is a scalar counter named after
/// its [`MetricsSnapshot`] field, in [`MetricsSnapshot::counters`] order.
const WAKE_LATENCY_FIELD: &str = "wake_latency_us";

fn metrics_to_json(m: &MetricsSnapshot) -> Json {
    let buckets = m.wake_latency.buckets.iter().map(|&b| Json::Num(b as f64));
    let counters = m
        .counters()
        .map(|(name, value)| (name, Json::Num(value as f64)));
    Json::obj(counters.chain([(WAKE_LATENCY_FIELD, Json::Arr(buckets.collect()))]))
}

/// Every counter and every histogram bucket must be present: a report of
/// another schema version is refused before its records are read, so a gap
/// is a damaged file, not an old one.
fn metrics_from_json(value: &Json) -> Result<MetricsSnapshot, String> {
    let mut metrics =
        MetricsSnapshot::try_from_counters(|name| uint_field(value, "metrics", name))?;
    let buckets = value
        .get(WAKE_LATENCY_FIELD)
        .and_then(Json::as_arr)
        .filter(|b| b.len() == metrics.wake_latency.buckets.len())
        .ok_or_else(|| format!("metrics missing `{WAKE_LATENCY_FIELD}` buckets"))?;
    for (slot, bucket) in metrics.wake_latency.buckets.iter_mut().zip(buckets) {
        *slot = uint(bucket).ok_or_else(|| {
            format!(
                "metrics `{WAKE_LATENCY_FIELD}` holds {}, not a count",
                bucket.to_line()
            )
        })?;
    }
    Ok(metrics)
}

/// One measured scenario: a (name, distribution, size, threads) cell with its
/// timing aggregates and the scheduler-counter delta accumulated over the
/// timed repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Record family: the name of the `perf` scenario that wrote it (`"sort"`
    /// for the Quicksort variants, `"kernel"` for the application kernels,
    /// `"soak"`, …).
    pub group: String,
    /// Scenario name: a variant label (`"MMPar"`, `"Fork"`, …) or a kernel
    /// label (`"reduce"`, `"matmul"`, …).
    pub name: String,
    /// Input distribution label for sort records; `None` for kernels.
    pub distribution: Option<String>,
    /// Input size in elements (kernels: see the schema notes in
    /// `EXPERIMENTS.md` for each kernel's interpretation).
    pub size: usize,
    /// Worker threads of the engine that produced the record (1 for purely
    /// sequential scenarios).
    pub threads: usize,
    /// Untimed warmup runs executed before sampling.
    pub warmups: usize,
    /// Timed repetitions (the number of samples).
    pub repetitions: usize,
    /// Timing aggregates over the repetitions.
    pub secs: TimingSummary,
    /// Scheduler-counter delta summed over the timed repetitions (zero for
    /// scenarios that do not run on a `teamsteal` scheduler).
    pub metrics: MetricsSnapshot,
    /// Median sequential reference time for this scenario, if one was
    /// measured (the paper's `SU` denominators).
    pub seq_reference_s: Option<f64>,
    /// `seq_reference_s / median_s`, if a reference exists and the record is
    /// not [oversubscribed](Report::oversubscribed).
    pub speedup_vs_seq: Option<f64>,
    /// Scenario-specific extra measurements as a free-form JSON object
    /// (`null` for scenarios without any).  The `soak` scenario records its
    /// memory-footprint gauges here (see EXPERIMENTS.md).  Absent in
    /// reports written before schema field introduction; the parser
    /// defaults it to `None`.
    pub extra: Option<Json>,
}

impl RunRecord {
    /// Serializes the record into the schema's object layout.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("group", Json::str(&self.group)),
            ("name", Json::str(&self.name)),
            (
                "distribution",
                self.distribution.as_ref().map_or(Json::Null, Json::str),
            ),
            ("size", Json::Num(self.size as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("warmups", Json::Num(self.warmups as f64)),
            ("repetitions", Json::Num(self.repetitions as f64)),
            ("secs", self.secs.to_json()),
            ("metrics", metrics_to_json(&self.metrics)),
            (
                "seq_reference_s",
                self.seq_reference_s.map_or(Json::Null, Json::Num),
            ),
            (
                "speedup_vs_seq",
                self.speedup_vs_seq.map_or(Json::Null, Json::Num),
            ),
            ("extra", self.extra.clone().unwrap_or(Json::Null)),
        ])
    }

    /// Parses a record from its object layout.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        let opt_num = |key: &str| value.get(key).and_then(Json::as_f64);
        Ok(RunRecord {
            group: str_field(value, "record", "group")?,
            name: str_field(value, "record", "name")?,
            distribution: str_field(value, "record", "distribution").ok(),
            size: uint_field(value, "record", "size")?,
            threads: uint_field(value, "record", "threads")?,
            warmups: uint_field(value, "record", "warmups")?,
            repetitions: uint_field(value, "record", "repetitions")?,
            secs: TimingSummary::from_json(value.get("secs").ok_or("record missing `secs`")?)?,
            metrics: metrics_from_json(value.get("metrics").ok_or("record missing `metrics`")?)?,
            seq_reference_s: opt_num("seq_reference_s"),
            speedup_vs_seq: opt_num("speedup_vs_seq"),
            extra: value.get("extra").filter(|v| **v != Json::Null).cloned(),
        })
    }

    /// The identity of a record for baseline matching: everything that names
    /// the scenario, nothing that was measured.
    pub fn scenario_key(&self) -> (String, String, Option<String>, usize, usize) {
        (
            self.group.clone(),
            self.name.clone(),
            self.distribution.clone(),
            self.size,
            self.threads,
        )
    }
}

/// Execution environment recorded into every report, so a number can never
/// outlive the knowledge of where it was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    /// Hardware threads available at measurement time (`host::nproc`): the
    /// bound beyond which a cell is oversubscribed.
    pub available_parallelism: usize,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// `git rev-parse HEAD` of the repository, or `"unknown"`.
    pub git_commit: String,
    /// Whether the working tree had uncommitted changes (`None` when git was
    /// unavailable).
    pub git_dirty: Option<bool>,
}

impl Environment {
    /// Detects the current environment.  Git queries run `git` as a
    /// subprocess and degrade to `"unknown"` / `None` when that fails.
    pub fn detect() -> Self {
        let status = std::process::Command::new("git")
            .args(["status", "--porcelain"])
            .output();
        let status = status.ok().filter(|out| out.status.success());
        Environment {
            available_parallelism: host::nproc(),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            git_commit: host::commit(),
            git_dirty: status.map(|out| out.stdout.iter().any(|b| !b.is_ascii_whitespace())),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "available_parallelism",
                Json::Num(self.available_parallelism as f64),
            ),
            ("os", Json::str(&self.os)),
            ("arch", Json::str(&self.arch)),
            ("git_commit", Json::str(&self.git_commit)),
            ("git_dirty", self.git_dirty.map_or(Json::Null, Json::Bool)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        Ok(Environment {
            available_parallelism: uint_field(value, "environment", "available_parallelism")?,
            os: str_field(value, "environment", "os")?,
            arch: str_field(value, "environment", "arch")?,
            git_commit: str_field(value, "environment", "git_commit")?,
            git_dirty: value.get("git_dirty").and_then(Json::as_bool),
        })
    }
}

/// A full perf-trajectory report: metadata plus one [`RunRecord`] per
/// measured scenario.  Serialized to `BENCH_sort.json` / `BENCH_kernels.json`
/// by the `perf` bin.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Schema version: always [`SCHEMA_VERSION`] in a report that was read
    /// from a file.
    pub schema_version: u64,
    /// Name of the producing harness (`"perf"`).
    pub harness: String,
    /// Record family contained in this report (`"sort"` or `"kernel"`).
    pub group: String,
    /// Unix timestamp (seconds) at which the sweep started.
    pub created_unix_s: u64,
    /// Measurement environment.
    pub environment: Environment,
    /// Harness parameters, stored verbatim for reproducibility (free-form
    /// object; the `perf` bin records sizes, thread lists, reps, seed).
    pub params: Json,
    /// One record per measured scenario.
    pub records: Vec<RunRecord>,
}

impl Report {
    /// `true` when `record` ran more worker threads than the host this
    /// report was recorded on has cores.  Such a cell times the OS time
    /// slicing, not the scheduler: its speedup is withheld
    /// ([`withhold_oversubscribed_speedups`](Self::withhold_oversubscribed_speedups))
    /// and [`check_regressions`] does not compare it.
    pub fn oversubscribed(&self, record: &RunRecord) -> bool {
        record.threads > self.environment.available_parallelism
    }

    /// Clears `speedup_vs_seq` of every oversubscribed record, so the file
    /// carries `null` where a ratio would read as a real parallel speedup.
    pub fn withhold_oversubscribed_speedups(&mut self) {
        let cores = self.environment.available_parallelism;
        for record in self.records.iter_mut().filter(|r| r.threads > cores) {
            record.speedup_vs_seq = None;
        }
    }

    /// Serializes the report to its on-disk JSON text: two-space indent, keys
    /// in schema order, so a regenerated report diffs cleanly against the
    /// committed one.
    pub fn to_json_string(&self) -> String {
        Json::obj([
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("harness", Json::str(&self.harness)),
            ("group", Json::str(&self.group)),
            ("created_unix_s", Json::Num(self.created_unix_s as f64)),
            ("environment", self.environment.to_json()),
            ("params", self.params.clone()),
            (
                "records",
                Json::Arr(self.records.iter().map(RunRecord::to_json).collect()),
            ),
        ])
        .to_pretty()
    }

    /// Parses a report from its on-disk JSON text.  A report of another
    /// schema version is refused as such, before its records are looked at.
    pub fn from_json_str(text: &str) -> Result<Report, String> {
        let value = Json::parse(text)?;
        let schema_version: u64 = uint_field(&value, "report", "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "report has schema version {schema_version}, this harness reads {SCHEMA_VERSION}"
            ));
        }
        let records = value
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("report missing `records`")?
            .iter()
            .map(RunRecord::from_json)
            .collect::<Result<Vec<RunRecord>, String>>()?;
        Ok(Report {
            schema_version,
            harness: str_field(&value, "report", "harness")?,
            group: str_field(&value, "report", "group")?,
            created_unix_s: uint_field(&value, "report", "created_unix_s")?,
            environment: Environment::from_json(
                value
                    .get("environment")
                    .ok_or("report missing `environment`")?,
            )?,
            params: value.get("params").cloned().unwrap_or(Json::Null),
            records,
        })
    }
}

// ---------------------------------------------------------------------------
// Regression checking
// ---------------------------------------------------------------------------

/// Outcome of comparing a fresh report against a recorded baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// Number of scenarios present in both reports and compared.
    pub compared: usize,
    /// Human-readable description of every scenario whose median regressed
    /// beyond the tolerance.  Empty means the check passed.
    pub regressions: Vec<String>,
    /// Scenarios selected in the current report with no baseline counterpart
    /// (reported for transparency, not a failure).
    pub missing_baseline: Vec<String>,
}

impl CheckOutcome {
    /// `true` when no regression was found.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares the records named `name` in `current` against their counterparts
/// in `baseline` (matched on the full [`RunRecord::scenario_key`]) and flags
/// every scenario whose median time exceeds the baseline median by more than
/// `tolerance_pct` percent.
///
/// Scenarios with a non-positive baseline median are skipped (a degenerate
/// baseline must not make every future run fail), and so are cells that are
/// [oversubscribed](Report::oversubscribed) on either side.
pub fn check_regressions(
    baseline: &Report,
    current: &Report,
    name: &str,
    tolerance_pct: f64,
) -> CheckOutcome {
    let mut outcome = CheckOutcome {
        compared: 0,
        regressions: Vec::new(),
        missing_baseline: Vec::new(),
    };
    for record in current.records.iter().filter(|r| r.name == name) {
        let key = record.scenario_key();
        let label = format!(
            "{}/{}{} n={} p={}",
            record.group,
            record.name,
            record
                .distribution
                .as_deref()
                .map(|d| format!(" [{d}]"))
                .unwrap_or_default(),
            record.size,
            record.threads
        );
        let Some(base) = baseline.records.iter().find(|b| b.scenario_key() == key) else {
            outcome.missing_baseline.push(label);
            continue;
        };
        if base.secs.median_s <= 0.0
            || baseline.oversubscribed(base)
            || current.oversubscribed(record)
        {
            continue;
        }
        outcome.compared += 1;
        let ratio = record.secs.median_s / base.secs.median_s;
        let limit = 1.0 + tolerance_pct / 100.0;
        if ratio > limit {
            outcome.regressions.push(format!(
                "{label}: median {:.6}s vs baseline {:.6}s ({:+.1}% > +{:.1}% tolerance)",
                record.secs.median_s,
                base.secs.median_s,
                (ratio - 1.0) * 100.0,
                tolerance_pct
            ));
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamsteal_core::WakeLatencyHistogram;

    fn sample_record(name: &str, median: f64) -> RunRecord {
        RunRecord {
            group: "sort".into(),
            name: name.into(),
            distribution: Some("Random".into()),
            size: 1 << 16,
            threads: 4,
            warmups: 1,
            repetitions: 3,
            secs: TimingSummary::from_samples(vec![median * 0.9, median, median * 1.3]),
            metrics: MetricsSnapshot {
                steals: 17,
                teams_formed: 3,
                registrations: 9,
                parks: 12,
                wakeups: 11,
                spurious_wakes: 1,
                teams_built: 3,
                team_reuses: 7,
                steals_local: 13,
                steals_remote: 4,
                wake_latency: WakeLatencyHistogram {
                    buckets: [2, 5, 3, 1, 0, 0, 0, 0],
                },
                ..Default::default()
            },
            seq_reference_s: Some(median * 2.0),
            speedup_vs_seq: Some(2.0),
            extra: Some(Json::obj([("peak_injector_segments", Json::Num(3.0))])),
        }
    }

    fn sample_report(median: f64) -> Report {
        Report {
            schema_version: SCHEMA_VERSION,
            harness: "perf".into(),
            group: "sort".into(),
            created_unix_s: 1_753_000_000,
            environment: Environment {
                available_parallelism: 8,
                os: "linux".into(),
                arch: "x86_64".into(),
                git_commit: "deadbeef".into(),
                git_dirty: Some(false),
            },
            params: Json::obj([("size", Json::Num(65536.0)), ("seed", Json::Num(42.0))]),
            records: vec![
                sample_record("MMPar", median),
                sample_record("Fork", median),
            ],
        }
    }

    /// `text` with `edit` applied to every record object.
    fn edit_records(text: &str, edit: impl Fn(&mut Vec<(String, Json)>)) -> String {
        let mut value = Json::parse(text).unwrap();
        let Json::Obj(pairs) = &mut value else {
            panic!("report is an object")
        };
        let Some((_, Json::Arr(records))) = pairs.iter_mut().find(|(k, _)| k == "records") else {
            panic!("report has records")
        };
        for record in records {
            let Json::Obj(fields) = record else {
                panic!("record is an object")
            };
            edit(fields);
        }
        value.to_pretty()
    }

    /// `text` with `edit` applied to the `metrics` object of every record.
    fn edit_metrics(text: &str, edit: impl Fn(&mut Vec<(String, Json)>)) -> String {
        edit_records(text, |fields| {
            match fields.iter_mut().find(|(k, _)| k == "metrics") {
                Some((_, Json::Obj(metrics))) => edit(metrics),
                _ => panic!("record has metrics"),
            }
        })
    }

    /// `fields` with the value under `key` replaced.
    fn set(fields: &mut [(String, Json)], key: &str, value: Json) {
        fields.iter_mut().find(|(k, _)| k == key).expect(key).1 = value;
    }

    #[test]
    fn json_strings_are_escaped_and_round_trip() {
        let nasty = "quote \" backslash \\ newline \n tab \t nul \u{0} emoji 🦀";
        let mut report = sample_report(0.010);
        report.environment.git_commit = nasty.into();
        report.records[0].name = nasty.into();
        report.records[0].extra = Some(Json::obj([("k\"ey", Json::str(nasty))]));
        let text = report.to_json_string();
        // The written form must not contain raw control characters.
        assert!(!text.chars().any(|c| (c as u32) < 0x20 && c != '\n'));
        assert_eq!(
            Report::from_json_str(&text).expect("written report parses"),
            report
        );
    }

    #[test]
    fn json_parser_handles_scalars_arrays_and_unicode_escapes() {
        // `params` and `extra` are free-form: whatever a hand-edited baseline
        // holds there comes through as written.
        let text = sample_report(0.010).to_json_string().replacen(
            "\"params\": {",
            r#""params": {"a": [1, -2.5, 1e3, true, false, null], "b": "é🦀", "#,
            1,
        );
        let params = Report::from_json_str(&text)
            .expect("edited report parses")
            .params;
        let a = params.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[..3], [Json::Num(1.0), Json::Num(-2.5), Json::Num(1000.0)]);
        assert_eq!(a[3..], [Json::Bool(true), Json::Bool(false), Json::Null]);
        assert_eq!(params.get("b").and_then(Json::as_str), Some("é🦀"));
        assert_eq!(params.get("seed").and_then(Json::as_f64), Some(42.0));
    }

    #[test]
    fn json_parser_rejects_malformed_input() {
        let good = sample_report(0.010).to_json_string();
        let truncated = &good[..good.len() / 2];
        // 200 000 `[` overflowed the stack of the parser this crate used to
        // carry; the shared one bounds the nesting it follows.
        let deep = "[".repeat(200_000);
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", truncated, &deep] {
            assert!(
                Report::from_json_str(bad).is_err(),
                "`{:.40}` should fail",
                bad
            );
        }
        assert_eq!(
            Report::from_json_str(&deep).unwrap_err(),
            "document nests too deeply"
        );
        // Well-formed JSON that is not a report names what it lacks.
        let err = Report::from_json_str("{\"schema_version\": 1}").unwrap_err();
        assert!(err.contains("records"), "{err}");
        let other = good.replacen("\"schema_version\": 1", "\"schema_version\": 2", 1);
        let err = Report::from_json_str(&other).unwrap_err();
        assert!(err.contains("schema version 2"), "{err}");
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        // JSON has no NaN: an optional field degrades to "absent", a required
        // one makes the file unreadable instead of reading as zero.
        let mut report = sample_report(0.010);
        report.records.truncate(1);
        report.records[0].speedup_vs_seq = Some(f64::NAN);
        let text = report.to_json_string();
        assert!(text.contains("\"speedup_vs_seq\": null"));
        assert_eq!(
            Report::from_json_str(&text).unwrap().records[0].speedup_vs_seq,
            None
        );
        report.records[0].secs.median_s = f64::INFINITY;
        let err = Report::from_json_str(&report.to_json_string()).unwrap_err();
        assert!(err.contains("median_s"), "{err}");
    }

    #[test]
    fn integers_are_validated_not_cast() {
        let text = sample_report(0.010).to_json_string();
        let bad_shapes = [
            Json::Num(-1.0),
            Json::Num(2.7),
            Json::Null,
            Json::Num(1e300),
        ];
        for bad in &bad_shapes {
            let refused = |edited: String, field: &str| {
                let err = Report::from_json_str(&edited).expect_err(field);
                assert!(
                    err.contains(field) && err.contains("non-negative integer"),
                    "{err}"
                );
            };
            for field in ["size", "threads", "warmups", "repetitions"] {
                refused(edit_records(&text, |r| set(r, field, bad.clone())), field);
            }
            refused(
                edit_metrics(&text, |m| set(m, "steals", bad.clone())),
                "steals",
            );
            let buckets = Json::Arr(vec![bad.clone(); 8]);
            let edited = edit_metrics(&text, |m| set(m, WAKE_LATENCY_FIELD, buckets.clone()));
            assert!(Report::from_json_str(&edited)
                .unwrap_err()
                .contains(WAKE_LATENCY_FIELD));
            for (field, was) in [("schema_version", "1"), ("available_parallelism", "8")] {
                let now = format!("\"{field}\": {}", bad.to_line());
                refused(
                    text.replacen(&format!("\"{field}\": {was}"), &now, 1),
                    field,
                );
            }
        }
    }

    #[test]
    fn report_round_trips_through_the_parser() {
        let report = sample_report(0.010);
        let text = report.to_json_string();
        let parsed = Report::from_json_str(&text).expect("report parses");
        assert_eq!(parsed, report);
        // And the re-rendered text is byte-identical (stable key order).
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn timing_summary_matches_run_stats() {
        // Nine samples, as `perf` takes by default.  The constants are what
        // `teamsteal_util::timing::RunStats` (removed in PR 24) returned for
        // them: midpoint median, nearest-rank p95 (the worst of nine), and
        // the sample (n - 1) standard deviation.
        let ms = [12.0, 10.0, 11.0, 30.0, 13.0, 14.0, 15.0, 16.0, 14.0];
        let summary = TimingSummary::from_samples(ms.iter().map(|ms| ms / 1e3).collect());
        assert_eq!(summary.best_s, 0.010);
        assert_eq!(summary.median_s, 0.014);
        assert_eq!(summary.p95_s, 0.030);
        assert_eq!(summary.worst_s, 0.030);
        assert_eq!(summary.stddev_s, 0.005937171043518959);
        assert!(
            (summary.average_s - 0.015).abs() < 1e-15,
            "{}",
            summary.average_s
        );
        assert_eq!(
            summary.samples_s[3], 0.030,
            "samples stay in execution order"
        );
        // An even count takes the midpoint, one sample has no deviation, and
        // no samples aggregate to zeros.
        assert_eq!(
            TimingSummary::from_samples(vec![0.04, 0.01, 0.03, 0.02]).median_s,
            0.025
        );
        let one = TimingSummary::from_samples(vec![0.007]);
        assert_eq!((one.median_s, one.p95_s, one.stddev_s), (0.007, 0.007, 0.0));
        assert_eq!(
            TimingSummary::from_samples(Vec::new()),
            TimingSummary::default()
        );
    }

    #[test]
    fn every_counter_round_trips_under_its_own_name_and_none_may_be_missing() {
        let mut report = sample_report(0.010);
        report.records.truncate(1);
        let names: Vec<&str> = MetricsSnapshot::default()
            .counters()
            .map(|(n, _)| n)
            .collect();
        let value_of = |name: &str| names.iter().position(|n| *n == name).unwrap() as u64 + 1;
        report.records[0].metrics = MetricsSnapshot {
            wake_latency: WakeLatencyHistogram {
                buckets: [8, 7, 6, 5, 4, 3, 2, 1],
            },
            ..MetricsSnapshot::try_from_counters(|name| Ok::<_, ()>(value_of(name))).unwrap()
        };
        let text = report.to_json_string();
        assert_eq!(Report::from_json_str(&text).expect("report parses"), report);
        // Field by field: the written object holds each counter under its
        // field name with that field's value.
        edit_metrics(&text, |metrics| {
            assert_eq!(metrics.len(), names.len() + 1);
            for (key, value) in metrics.iter().filter(|(k, _)| k != WAKE_LATENCY_FIELD) {
                assert_eq!(value.as_f64(), Some(value_of(key) as f64), "`{key}`");
            }
        });
        // A report that lacks any one of them is refused, naming the field.
        for missing in names.iter().copied().chain([WAKE_LATENCY_FIELD]) {
            let gapped = edit_metrics(&text, |metrics| metrics.retain(|(k, _)| k != missing));
            let err = Report::from_json_str(&gapped).expect_err(missing);
            assert!(err.contains(missing), "{err}");
        }
    }

    #[test]
    fn oversubscribed_cells_carry_no_speedup_and_are_not_compared() {
        // Recorded on 2 cores: the p = 4 records (every `sample_record`) are
        // oversubscribed, a p = 2 one is not.
        let mut baseline = sample_report(0.010);
        baseline.environment.available_parallelism = 2;
        let mut real = sample_record("MMPar", 0.010);
        real.threads = 2;
        baseline.records.push(real);
        assert!(baseline.oversubscribed(&baseline.records[0]));
        assert!(!baseline.oversubscribed(&baseline.records[2]));

        baseline.withhold_oversubscribed_speedups();
        let speedups: Vec<_> = baseline.records.iter().map(|r| r.speedup_vs_seq).collect();
        assert_eq!(speedups, [None, None, Some(2.0)]);
        let text = baseline.to_json_string();
        assert!(text.contains("\"speedup_vs_seq\": null"));
        assert_eq!(
            Report::from_json_str(&text).expect("report parses"),
            baseline
        );

        // A 10x slower current run fails on the real cell only...
        let mut current = baseline.clone();
        for record in &mut current.records {
            record.secs.median_s *= 10.0;
        }
        let outcome = check_regressions(&baseline, &current, "MMPar", 25.0);
        assert_eq!(outcome.compared, 1);
        assert_eq!(outcome.regressions.len(), 1);
        assert!(
            outcome.regressions[0].contains("p=2"),
            "{:?}",
            outcome.regressions
        );
        // ...and a current host too small for that cell compares nothing,
        // whatever the baseline's host was.
        current.environment.available_parallelism = 1;
        assert_eq!(
            check_regressions(&baseline, &current, "MMPar", 25.0).compared,
            0
        );
    }

    /// A record whose samples are latencies and whose family-specific
    /// numbers — rates, admission outcomes, a nearest-rank p99, per-tenant
    /// ratios — ride in `extra`, the way `wakeup_latency`, `team_build` and
    /// `injection_throughput` records carry theirs.
    fn sample_service_record() -> RunRecord {
        let latencies_us = [9.0, 11.0, 14.0, 21.0, 34.0];
        RunRecord {
            group: "service_latency".into(),
            name: "service_latency_paced".into(),
            distribution: None,
            size: 20_000, // the arrival rate doubles as the cell size
            threads: 2,
            warmups: 0,
            repetitions: 5,
            secs: TimingSummary::from_samples(latencies_us.iter().map(|us| us / 1e6).collect()),
            metrics: MetricsSnapshot {
                tasks_injected: 5_000,
                injector_local_pops: 4_000,
                injector_remote_pops: 1_000,
                ..Default::default()
            },
            seq_reference_s: None,
            speedup_vs_seq: None,
            extra: Some(Json::obj([
                ("arrival_rate_hz", Json::Num(20_000.0)),
                ("offered", Json::Num(5_000.0)),
                ("admitted", Json::Num(4_900.0)),
                ("backpressure_count", Json::Num(80.0)),
                ("shed_count", Json::Num(20.0)),
                ("p99_s", Json::Num(34e-6)),
                ("fairness_tenant_0", Json::Num(1.02)),
                ("fairness_tenant_1", Json::Num(0.94)),
            ])),
        }
    }

    #[test]
    fn service_latency_records_round_trip_with_extras() {
        let mut report = sample_report(0.010);
        report.group = "kernel".into();
        report.records = vec![sample_service_record()];
        let text = report.to_json_string();
        let parsed = Report::from_json_str(&text).expect("service report parses");
        assert_eq!(parsed, report);
        assert_eq!(parsed.to_json_string(), text);
        // The family counters survive the round trip through `extra`.
        let extra = parsed.records[0].extra.as_ref().expect("extra present");
        for (key, expected) in [
            ("arrival_rate_hz", 20_000.0),
            ("shed_count", 20.0),
            ("backpressure_count", 80.0),
            ("p99_s", 34e-6),
            ("fairness_tenant_0", 1.02),
            ("fairness_tenant_1", 0.94),
        ] {
            assert_eq!(
                extra.get(key).and_then(Json::as_f64),
                Some(expected),
                "extra field `{key}` lost in the round trip"
            );
        }
    }

    #[test]
    fn pre_service_baselines_parse_with_defaulted_extra() {
        // A kernels report written before PR 9 carries no `service_latency`
        // records, and records written by even older harnesses carry no
        // `extra` field at all: strip `extra` from every record and the
        // parser must default it to `None` (so pre-service committed
        // baselines keep working as carryover inputs).
        let mut report = sample_report(0.010);
        report.group = "kernel".into();
        let text = report.to_json_string();
        let stripped = edit_records(&text, |fields| fields.retain(|(k, _)| k != "extra"));
        let parsed = Report::from_json_str(&stripped).expect("old schema parses");
        assert!(!parsed.records.is_empty());
        for record in &parsed.records {
            assert_eq!(record.extra, None);
            // The pre-existing fields survived the strip.
            assert_eq!(record.metrics.steals, 17);
        }
        // And a defaulted report round-trips stably.
        assert_eq!(
            Report::from_json_str(&parsed.to_json_string()).unwrap(),
            parsed
        );
    }

    #[test]
    fn check_passes_within_tolerance_and_fails_beyond_it() {
        let baseline = sample_report(0.010);
        // 10% slower: inside a 25% tolerance, outside a 5% one.
        let current = sample_report(0.011);
        let ok = check_regressions(&baseline, &current, "MMPar", 25.0);
        assert!(ok.passed());
        assert_eq!(ok.compared, 1);
        let bad = check_regressions(&baseline, &current, "MMPar", 5.0);
        assert!(!bad.passed());
        assert_eq!(bad.regressions.len(), 1);
        assert!(bad.regressions[0].contains("MMPar"));
        // Only records with the requested name are considered.
        let fork = check_regressions(&baseline, &current, "Fork", 5.0);
        assert_eq!(fork.compared, 1);
    }

    #[test]
    fn check_reports_missing_baseline_scenarios() {
        let mut baseline = sample_report(0.010);
        baseline.records.retain(|r| r.name != "MMPar");
        let current = sample_report(0.010);
        let outcome = check_regressions(&baseline, &current, "MMPar", 25.0);
        assert!(outcome.passed());
        assert_eq!(outcome.compared, 0);
        assert_eq!(outcome.missing_baseline.len(), 1);
    }

    #[test]
    fn degenerate_zero_baseline_is_skipped() {
        let mut baseline = sample_report(0.010);
        for r in &mut baseline.records {
            r.secs.median_s = 0.0;
        }
        let current = sample_report(10.0);
        let outcome = check_regressions(&baseline, &current, "MMPar", 25.0);
        assert!(outcome.passed());
        assert_eq!(outcome.compared, 0);
    }

    #[test]
    fn environment_detects_something_sane() {
        let env = Environment::detect();
        assert!(env.available_parallelism >= 1);
        assert!(!env.os.is_empty());
        assert!(!env.git_commit.is_empty());
    }
}
