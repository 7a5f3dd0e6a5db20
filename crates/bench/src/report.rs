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
//! 1. **No third-party dependencies.**  The build environment has no
//!    crates.io access (see `stubs/README.md`), so the JSON layer is a small
//!    hand-rolled writer plus a minimal recursive-descent parser
//!    ([`JsonValue`]) instead of serde.  The parser exists so that reports
//!    round-trip (tested), and so `--check` can read a recorded baseline.
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

use std::fmt::Write as _;
use std::time::Duration;

use teamsteal_core::MetricsSnapshot;
use teamsteal_util::timing::RunStats;

/// Current value of the `schema_version` field written into every report.
pub const SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// JSON value: writer + minimal parser
// ---------------------------------------------------------------------------

/// A JSON document, as written and parsed by this crate.
///
/// Objects preserve insertion order (they are association lists, not maps) so
/// that regenerated reports diff cleanly against committed ones.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.  Stored as `f64`; the counters this crate writes stay
    /// far below 2^53, where `f64` is exact.
    Number(f64),
    /// A string (unescaped representation).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as an ordered association list.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object.  Returns `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value as pretty-printed JSON (2-space indent, `\n`
    /// line endings, trailing newline at the top level).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => render_number(out, *n),
            JsonValue::String(s) => render_string(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    render_string(out, key);
                    out.push_str(": ");
                    value.render_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// This is a minimal, strict parser: it accepts exactly one top-level
    /// value surrounded by optional whitespace, and supports the escape
    /// sequences of RFC 8259 including `\uXXXX` (with surrogate pairs).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at(pos, "trailing characters after JSON value"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn render_number(out: &mut String, n: f64) {
    if n.is_finite() {
        // `{}` on f64 produces the shortest representation that round-trips,
        // never in exponent notation — always a valid JSON number.
        let _ = write!(out, "{n}");
    } else {
        // JSON has no NaN/Infinity; degrade to null rather than emit an
        // unparseable file.
        out.push_str("null");
    }
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error produced by [`JsonValue::parse`]: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_literal(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(JsonError::at(*pos, format!("expected `{lit}`")))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'n') => expect_literal(bytes, pos, "null").map(|()| JsonValue::Null),
        Some(b't') => expect_literal(bytes, pos, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => expect_literal(bytes, pos, "false").map(|()| JsonValue::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::String),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&c) => Err(JsonError::at(*pos, format!("unexpected byte 0x{c:02x}"))),
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::at(start, "invalid UTF-8 in number"))?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| JsonError::at(start, format!("invalid number `{text}`")))
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u16, JsonError> {
    let slice = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| JsonError::at(*pos, "truncated \\u escape"))?;
    let text = std::str::from_utf8(slice)
        .map_err(|_| JsonError::at(*pos, "invalid UTF-8 in \\u escape"))?;
    let code = u16::from_str_radix(text, 16)
        .map_err(|_| JsonError::at(*pos, format!("invalid \\u escape `{text}`")))?;
    *pos += 4;
    Ok(code)
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    let start = *pos;
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at(start, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *bytes
                    .get(*pos)
                    .ok_or_else(|| JsonError::at(*pos, "truncated escape"))?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{08}'),
                    b'f' => out.push('\u{0c}'),
                    b'u' => {
                        let hi = parse_hex4(bytes, pos)?;
                        let c = if (0xd800..0xdc00).contains(&hi) {
                            // High surrogate: a \uXXXX low surrogate must follow.
                            expect_literal(bytes, pos, "\\u")?;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err(JsonError::at(*pos, "invalid low surrogate"));
                            }
                            let c = 0x10000
                                + ((hi as u32 - 0xd800) << 10)
                                + (lo as u32 - 0xdc00);
                            char::from_u32(c)
                        } else {
                            char::from_u32(hi as u32)
                        };
                        out.push(
                            c.ok_or_else(|| JsonError::at(*pos, "invalid unicode escape"))?,
                        );
                    }
                    other => {
                        return Err(JsonError::at(
                            *pos,
                            format!("unknown escape `\\{}`", other as char),
                        ))
                    }
                }
            }
            Some(_) => {
                // Consume one UTF-8 encoded character.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| JsonError::at(*pos, "invalid UTF-8 in string"))?;
                let c = rest.chars().next().expect("non-empty by construction");
                if (c as u32) < 0x20 {
                    return Err(JsonError::at(*pos, "unescaped control character"));
                }
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    debug_assert_eq!(bytes[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(JsonError::at(*pos, "expected `,` or `]`")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    debug_assert_eq!(bytes[*pos], b'{');
    *pos += 1;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(JsonError::at(*pos, "expected string key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError::at(*pos, "expected `:`"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(pairs));
            }
            _ => return Err(JsonError::at(*pos, "expected `,` or `}`")),
        }
    }
}

// ---------------------------------------------------------------------------
// Report data model
// ---------------------------------------------------------------------------

/// Timing aggregates of one scenario, in seconds.
///
/// Built from a [`RunStats`] via [`TimingSummary::from_stats`]; the raw
/// samples are retained so a future reader can re-aggregate differently.
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
    /// Aggregates a set of recorded samples.
    pub fn from_stats(stats: &RunStats) -> Self {
        TimingSummary {
            best_s: stats.best().as_secs_f64(),
            average_s: stats.average().as_secs_f64(),
            median_s: stats.median().as_secs_f64(),
            p95_s: stats.p95().as_secs_f64(),
            worst_s: stats.worst().as_secs_f64(),
            stddev_s: stats.stddev_secs(),
            samples_s: stats.samples().iter().map(Duration::as_secs_f64).collect(),
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("best_s".into(), JsonValue::Number(self.best_s)),
            ("average_s".into(), JsonValue::Number(self.average_s)),
            ("median_s".into(), JsonValue::Number(self.median_s)),
            ("p95_s".into(), JsonValue::Number(self.p95_s)),
            ("worst_s".into(), JsonValue::Number(self.worst_s)),
            ("stddev_s".into(), JsonValue::Number(self.stddev_s)),
            (
                "samples_s".into(),
                JsonValue::Array(self.samples_s.iter().map(|&s| JsonValue::Number(s)).collect()),
            ),
        ])
    }

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let num = |key: &str| -> Result<f64, String> {
            value
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("timing summary missing number `{key}`"))
        };
        let samples = value
            .get("samples_s")
            .and_then(JsonValue::as_array)
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

fn metrics_to_json(m: &MetricsSnapshot) -> JsonValue {
    let mut pairs: Vec<(String, JsonValue)> = m
        .counters()
        .map(|(name, value)| (name.to_string(), JsonValue::Number(value as f64)))
        .collect();
    let buckets = m.wake_latency.buckets.iter();
    pairs.push((
        WAKE_LATENCY_FIELD.to_string(),
        JsonValue::Array(buckets.map(|&b| JsonValue::Number(b as f64)).collect()),
    ));
    JsonValue::Object(pairs)
}

/// Every counter and every histogram bucket must be present: `perf` refuses
/// baselines of another schema version, so a gap is a damaged file, not an
/// old one.
fn metrics_from_json(value: &JsonValue) -> Result<MetricsSnapshot, String> {
    let mut metrics = MetricsSnapshot::try_from_counters(|name| {
        value
            .get(name)
            .and_then(JsonValue::as_f64)
            .map(|n| n as u64)
            .ok_or_else(|| format!("metrics missing `{name}`"))
    })?;
    let buckets = value
        .get(WAKE_LATENCY_FIELD)
        .and_then(JsonValue::as_array)
        .filter(|b| b.len() == metrics.wake_latency.buckets.len())
        .ok_or_else(|| format!("metrics missing `{WAKE_LATENCY_FIELD}` buckets"))?;
    for (slot, bucket) in metrics.wake_latency.buckets.iter_mut().zip(buckets) {
        *slot = bucket.as_f64().ok_or("non-numeric wake-latency bucket")? as u64;
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
    pub extra: Option<JsonValue>,
}

impl RunRecord {
    /// Serializes the record into the schema's object layout.
    pub fn to_json(&self) -> JsonValue {
        let opt_num = |v: Option<f64>| v.map(JsonValue::Number).unwrap_or(JsonValue::Null);
        JsonValue::Object(vec![
            ("group".into(), JsonValue::String(self.group.clone())),
            ("name".into(), JsonValue::String(self.name.clone())),
            (
                "distribution".into(),
                self.distribution
                    .clone()
                    .map(JsonValue::String)
                    .unwrap_or(JsonValue::Null),
            ),
            ("size".into(), JsonValue::Number(self.size as f64)),
            ("threads".into(), JsonValue::Number(self.threads as f64)),
            ("warmups".into(), JsonValue::Number(self.warmups as f64)),
            (
                "repetitions".into(),
                JsonValue::Number(self.repetitions as f64),
            ),
            ("secs".into(), self.secs.to_json()),
            ("metrics".into(), metrics_to_json(&self.metrics)),
            ("seq_reference_s".into(), opt_num(self.seq_reference_s)),
            ("speedup_vs_seq".into(), opt_num(self.speedup_vs_seq)),
            (
                "extra".into(),
                self.extra.clone().unwrap_or(JsonValue::Null),
            ),
        ])
    }

    /// Parses a record from its object layout.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let str_field = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("record missing string `{key}`"))
        };
        let usize_field = |key: &str| -> Result<usize, String> {
            value
                .get(key)
                .and_then(JsonValue::as_f64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("record missing number `{key}`"))
        };
        let opt_num = |key: &str| -> Option<f64> { value.get(key).and_then(JsonValue::as_f64) };
        Ok(RunRecord {
            group: str_field("group")?,
            name: str_field("name")?,
            distribution: value
                .get("distribution")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            size: usize_field("size")?,
            threads: usize_field("threads")?,
            warmups: usize_field("warmups")?,
            repetitions: usize_field("repetitions")?,
            secs: TimingSummary::from_json(
                value.get("secs").ok_or("record missing `secs`")?,
            )?,
            metrics: metrics_from_json(
                value.get("metrics").ok_or("record missing `metrics`")?,
            )?,
            seq_reference_s: opt_num("seq_reference_s"),
            speedup_vs_seq: opt_num("speedup_vs_seq"),
            extra: value
                .get("extra")
                .filter(|v| !matches!(v, JsonValue::Null))
                .cloned(),
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
    /// `std::thread::available_parallelism` at measurement time.
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

/// Hardware threads available to this process (`1` when unknown): the bound
/// beyond which a cell is oversubscribed.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Environment {
    /// Detects the current environment.  Git queries run `git` as a
    /// subprocess and degrade to `"unknown"` / `None` when that fails.
    pub fn detect() -> Self {
        let git = |args: &[&str]| -> Option<String> {
            let out = std::process::Command::new("git").args(args).output().ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        Environment {
            available_parallelism: host_parallelism(),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            git_commit: git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            git_dirty: git(&["status", "--porcelain"]).map(|s| !s.is_empty()),
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "available_parallelism".into(),
                JsonValue::Number(self.available_parallelism as f64),
            ),
            ("os".into(), JsonValue::String(self.os.clone())),
            ("arch".into(), JsonValue::String(self.arch.clone())),
            ("git_commit".into(), JsonValue::String(self.git_commit.clone())),
            (
                "git_dirty".into(),
                self.git_dirty.map(JsonValue::Bool).unwrap_or(JsonValue::Null),
            ),
        ])
    }

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        Ok(Environment {
            available_parallelism: value
                .get("available_parallelism")
                .and_then(JsonValue::as_f64)
                .ok_or("environment missing `available_parallelism`")?
                as usize,
            os: value
                .get("os")
                .and_then(JsonValue::as_str)
                .ok_or("environment missing `os`")?
                .to_string(),
            arch: value
                .get("arch")
                .and_then(JsonValue::as_str)
                .ok_or("environment missing `arch`")?
                .to_string(),
            git_commit: value
                .get("git_commit")
                .and_then(JsonValue::as_str)
                .ok_or("environment missing `git_commit`")?
                .to_string(),
            git_dirty: value.get("git_dirty").and_then(JsonValue::as_bool),
        })
    }
}

/// A full perf-trajectory report: metadata plus one [`RunRecord`] per
/// measured scenario.  Serialized to `BENCH_sort.json` / `BENCH_kernels.json`
/// by the `perf` bin.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Schema version, [`SCHEMA_VERSION`] for reports written by this code.
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
    pub params: JsonValue,
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

    /// Serializes the report to its on-disk JSON text.
    pub fn to_json_string(&self) -> String {
        JsonValue::Object(vec![
            (
                "schema_version".into(),
                JsonValue::Number(self.schema_version as f64),
            ),
            ("harness".into(), JsonValue::String(self.harness.clone())),
            ("group".into(), JsonValue::String(self.group.clone())),
            (
                "created_unix_s".into(),
                JsonValue::Number(self.created_unix_s as f64),
            ),
            ("environment".into(), self.environment.to_json()),
            ("params".into(), self.params.clone()),
            (
                "records".into(),
                JsonValue::Array(self.records.iter().map(RunRecord::to_json).collect()),
            ),
        ])
        .render()
    }

    /// Parses a report from its on-disk JSON text.
    pub fn from_json_str(text: &str) -> Result<Report, String> {
        let value = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let str_field = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("report missing string `{key}`"))
        };
        let records = value
            .get("records")
            .and_then(JsonValue::as_array)
            .ok_or("report missing `records`")?
            .iter()
            .map(RunRecord::from_json)
            .collect::<Result<Vec<RunRecord>, String>>()?;
        Ok(Report {
            schema_version: value
                .get("schema_version")
                .and_then(JsonValue::as_f64)
                .ok_or("report missing `schema_version`")? as u64,
            harness: str_field("harness")?,
            group: str_field("group")?,
            created_unix_s: value
                .get("created_unix_s")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0) as u64,
            environment: Environment::from_json(
                value.get("environment").ok_or("report missing `environment`")?,
            )?,
            params: value.get("params").cloned().unwrap_or(JsonValue::Null),
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
        let Some(base) = baseline
            .records
            .iter()
            .find(|b| b.scenario_key() == key)
        else {
            outcome.missing_baseline.push(label);
            continue;
        };
        if base.secs.median_s <= 0.0 || baseline.oversubscribed(base) || current.oversubscribed(record)
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
    use std::time::Duration;
    use teamsteal_core::WakeLatencyHistogram;

    fn sample_record(name: &str, median: f64) -> RunRecord {
        let mut stats = RunStats::new();
        stats.record(Duration::from_secs_f64(median * 0.9));
        stats.record(Duration::from_secs_f64(median));
        stats.record(Duration::from_secs_f64(median * 1.3));
        RunRecord {
            group: "sort".into(),
            name: name.into(),
            distribution: Some("Random".into()),
            size: 1 << 16,
            threads: 4,
            warmups: 1,
            repetitions: 3,
            secs: TimingSummary::from_stats(&stats),
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
            extra: Some(JsonValue::Object(vec![(
                "peak_injector_segments".into(),
                JsonValue::Number(3.0),
            )])),
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
            params: JsonValue::Object(vec![
                ("size".into(), JsonValue::Number(65536.0)),
                ("seed".into(), JsonValue::Number(42.0)),
            ]),
            records: vec![sample_record("MMPar", median), sample_record("Fork", median)],
        }
    }

    #[test]
    fn json_strings_are_escaped_and_round_trip() {
        let nasty = "quote \" backslash \\ newline \n tab \t nul \u{0} emoji 🦀";
        let value = JsonValue::Object(vec![(
            "k\"ey".to_string(),
            JsonValue::String(nasty.to_string()),
        )]);
        let text = value.render();
        // The rendered form must not contain raw control characters.
        assert!(!text.chars().any(|c| (c as u32) < 0x20 && c != '\n' && c != ' '));
        let parsed = JsonValue::parse(&text).expect("rendered JSON parses");
        assert_eq!(parsed, value);
        assert_eq!(
            parsed.get("k\"ey").and_then(JsonValue::as_str),
            Some(nasty)
        );
    }

    #[test]
    fn json_parser_handles_scalars_arrays_and_unicode_escapes() {
        let parsed = JsonValue::parse(
            r#"{"a": [1, -2.5, 1e3, true, false, null], "b": "é🦀"}"#,
        )
        .unwrap();
        let a = parsed.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(1000.0));
        assert_eq!(a[3].as_bool(), Some(true));
        assert_eq!(a[5], JsonValue::Null);
        assert_eq!(parsed.get("b").and_then(JsonValue::as_str), Some("é🦀"));
    }

    #[test]
    fn json_parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\": 1,}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        let v = JsonValue::Array(vec![
            JsonValue::Number(f64::NAN),
            JsonValue::Number(f64::INFINITY),
            JsonValue::Number(1.5),
        ]);
        let text = v.render();
        let parsed = JsonValue::parse(&text).unwrap();
        let items = parsed.as_array().unwrap();
        assert_eq!(items[0], JsonValue::Null);
        assert_eq!(items[1], JsonValue::Null);
        assert_eq!(items[2].as_f64(), Some(1.5));
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
        let mut stats = RunStats::new();
        for ms in [10u64, 20, 30, 40] {
            stats.record(Duration::from_millis(ms));
        }
        let summary = TimingSummary::from_stats(&stats);
        assert_eq!(summary.best_s, 0.010);
        assert_eq!(summary.worst_s, 0.040);
        assert_eq!(summary.median_s, 0.025);
        assert_eq!(summary.samples_s.len(), 4);
    }

    /// Applies `edit` to the `metrics` object of every record of `text`.
    fn edit_metrics(text: &str, edit: impl Fn(&mut Vec<(String, JsonValue)>)) -> String {
        let mut value = JsonValue::parse(text).unwrap();
        let JsonValue::Object(pairs) = &mut value else { panic!("report is an object") };
        let Some((_, JsonValue::Array(records))) = pairs.iter_mut().find(|(k, _)| k == "records")
        else {
            panic!("report has records")
        };
        for record in records {
            let JsonValue::Object(fields) = record else { panic!("record is an object") };
            match fields.iter_mut().find(|(k, _)| k == "metrics") {
                Some((_, JsonValue::Object(metrics))) => edit(metrics),
                _ => panic!("record has metrics"),
            }
        }
        value.render()
    }

    #[test]
    fn every_counter_round_trips_under_its_own_name_and_none_may_be_missing() {
        let mut report = sample_report(0.010);
        report.records.truncate(1);
        let names: Vec<&str> = MetricsSnapshot::default().counters().map(|(n, _)| n).collect();
        let value_of = |name: &str| names.iter().position(|n| *n == name).unwrap() as u64 + 1;
        report.records[0].metrics = MetricsSnapshot {
            wake_latency: WakeLatencyHistogram { buckets: [8, 7, 6, 5, 4, 3, 2, 1] },
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
        assert_eq!(Report::from_json_str(&text).expect("report parses"), baseline);

        // A 10x slower current run fails on the real cell only...
        let mut current = baseline.clone();
        for record in &mut current.records {
            record.secs.median_s *= 10.0;
        }
        let outcome = check_regressions(&baseline, &current, "MMPar", 25.0);
        assert_eq!(outcome.compared, 1);
        assert_eq!(outcome.regressions.len(), 1);
        assert!(outcome.regressions[0].contains("p=2"), "{:?}", outcome.regressions);
        // ...and a current host too small for that cell compares nothing,
        // whatever the baseline's host was.
        current.environment.available_parallelism = 1;
        assert_eq!(check_regressions(&baseline, &current, "MMPar", 25.0).compared, 0);
    }

    /// A record whose samples are latencies and whose family-specific
    /// numbers — rates, admission outcomes, a nearest-rank p99, per-tenant
    /// ratios — ride in `extra`, the way `wakeup_latency`, `team_build` and
    /// `injection_throughput` records carry theirs.
    fn sample_service_record() -> RunRecord {
        let mut stats = RunStats::new();
        for us in [9u64, 11, 14, 21, 34] {
            stats.record(Duration::from_micros(us));
        }
        RunRecord {
            group: "service_latency".into(),
            name: "service_latency_paced".into(),
            distribution: None,
            size: 20_000, // the arrival rate doubles as the cell size
            threads: 2,
            warmups: 0,
            repetitions: 5,
            secs: TimingSummary::from_stats(&stats),
            metrics: MetricsSnapshot {
                tasks_injected: 5_000,
                injector_local_pops: 4_000,
                injector_remote_pops: 1_000,
                ..Default::default()
            },
            seq_reference_s: None,
            speedup_vs_seq: None,
            extra: Some(JsonValue::Object(vec![
                ("arrival_rate_hz".into(), JsonValue::Number(20_000.0)),
                ("offered".into(), JsonValue::Number(5_000.0)),
                ("admitted".into(), JsonValue::Number(4_900.0)),
                ("backpressure_count".into(), JsonValue::Number(80.0)),
                ("shed_count".into(), JsonValue::Number(20.0)),
                ("p99_s".into(), JsonValue::Number(34e-6)),
                ("fairness_tenant_0".into(), JsonValue::Number(1.02)),
                ("fairness_tenant_1".into(), JsonValue::Number(0.94)),
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
                extra.get(key).and_then(JsonValue::as_f64),
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
        let mut value = JsonValue::parse(&text).unwrap();
        if let JsonValue::Object(pairs) = &mut value {
            if let Some((_, JsonValue::Array(records))) =
                pairs.iter_mut().find(|(k, _)| k == "records")
            {
                for record in records {
                    if let JsonValue::Object(fields) = record {
                        fields.retain(|(k, _)| k != "extra");
                    }
                }
            }
        }
        let parsed = Report::from_json_str(&value.render()).expect("old schema parses");
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
