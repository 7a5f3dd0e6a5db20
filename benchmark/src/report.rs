//! Result files, and the `repeat` and `compare` tables computed from them.
//!
//! A result file is `{"meta": {...}, "runs": [...]}`; a run is what one
//! benchmark process printed: its meta line merged with its result line.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::spec::{self, Better, Metric};
use crate::stats::{median, quartile_spread};

/// `benchmark/out`, where result files and traces go.  The package
/// directory is the one this binary was built from, which is the checkout
/// it runs in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes `value` to `path`, creating the directory.
pub fn write_json(path: &Path, value: &Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, value.to_pretty())
}

/// Values of `metric` on `workload` over the runs of a result file.
fn values_of(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Workloads present in a result file, in `BENCHMARK.json` order.
fn workloads_in(files: &[&Json]) -> Vec<&'static str> {
    spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| {
            files
                .iter()
                .any(|f| !values_of(f, name, spec::END_TO_END[0].name).is_empty())
        })
        .collect()
}

/// One row of the `repeat` table.
pub struct SpreadRow {
    pub workload: &'static str,
    pub metric: &'static Metric,
    pub values: Vec<f64>,
}

impl SpreadRow {
    pub fn spread(&self) -> Option<f64> {
        quartile_spread(&self.values)
    }

    /// `setup_s` is reported but never fails a repeat: the driver exempts
    /// its spread too.
    pub fn within_bound(&self) -> bool {
        self.metric.name == "setup_s"
            || self.spread().map_or(true, |s| {
                s <= self.metric.bound.expect("end-to-end metrics carry a bound")
            })
    }
}

/// Per workload and end-to-end metric: the values over all runs in `file`.
pub fn spread_rows(file: &Json) -> Vec<SpreadRow> {
    let mut rows = Vec::new();
    for workload in workloads_in(&[file]) {
        for metric in &spec::END_TO_END {
            rows.push(SpreadRow {
                workload,
                metric,
                values: values_of(file, workload, metric.name),
            });
        }
    }
    rows
}

/// The `repeat` table: min, median, max and quartile spread per metric.
pub fn spread_table(rows: &[SpreadRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "| workload | metric | unit | runs | min | median | max | spread | bound | |\n|---|---|---|---|---|---|---|---|---|---|"
    )
    .expect("writing to a String");
    for row in rows {
        let lo = row.values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = row.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let spread = row
            .spread()
            .map_or("n/a".into(), |s| format!("{:.1}%", s * 100.0));
        writeln!(
            out,
            "| {} | {} | {} | {} | {:.4} | {:.4} | {:.4} | {} | {:.0}% | {} |",
            row.workload,
            row.metric.name,
            row.metric.unit,
            row.values.len(),
            lo,
            median(&row.values),
            hi,
            spread,
            row.metric.bound.unwrap_or(0.0) * 100.0,
            if row.within_bound() { "ok" } else { "TOO WIDE" },
        )
        .expect("writing to a String");
    }
    out
}

/// Verdict of one `compare` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Regressed,
    /// A side's own quartile spread exceeds the bound: no verdict.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs needed before a gain may be claimed (choosing-metrics, section 8).
pub const PAIRS_FOR_A_CLAIM: usize = 10;

/// Decides one row from the per-pair values of base (`a`) and change (`b`).
///
/// * `unresolved` when either side's own quartile spread exceeds the bound;
/// * `regressed` when the change's median is worse by more than the bound;
/// * `better` only with at least ten pairs, of which the change wins at
///   least nine tenths (ties count for neither), and medians further apart
///   than the distance between the base's own quartiles;
/// * `unchanged` otherwise.
pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    if [a, b]
        .iter()
        .any(|side| quartile_spread(side).is_some_and(|s| s > bound))
    {
        return Verdict::Unresolved;
    }
    let (base, change) = (median(a), median(b));
    if base == 0.0 {
        return Verdict::Unresolved;
    }
    let gain = match metric.better {
        Better::Higher => (change - base) / base.abs(),
        Better::Lower => (base - change) / base.abs(),
    };
    if gain < -bound {
        return Verdict::Regressed;
    }
    let pairs = a.len().min(b.len());
    if pairs >= PAIRS_FOR_A_CLAIM {
        let wins = a
            .iter()
            .zip(b)
            .filter(|(x, y)| match metric.better {
                Better::Higher => y > x,
                Better::Lower => y < x,
            })
            .count();
        let base_spread = quartile_spread(a).unwrap_or(f64::INFINITY);
        if wins * 10 >= pairs * 9 && gain > base_spread {
            return Verdict::Better;
        }
    }
    Verdict::Unchanged
}

fn threads_of(file: &Json) -> Option<f64> {
    file.get("meta")?.get("threads")?.as_f64()
}

/// The `compare` table over pairs of result files `(base, change)`.  Each
/// file contributes one value per workload and metric: the median of its
/// runs.  Fails when the two sides did not use the same thread count.
pub fn compare_table(pairs: &[(Json, Json)]) -> Result<String, String> {
    let threads: Vec<Option<f64>> = pairs
        .iter()
        .flat_map(|(a, b)| [threads_of(a), threads_of(b)])
        .collect();
    if threads.iter().any(|t| *t != threads[0]) {
        return Err(format!(
            "results were measured with different thread counts P ({threads:?}); refusing to compare"
        ));
    }
    let all: Vec<&Json> = pairs.iter().flat_map(|(a, b)| [a, b]).collect();
    let mut out = String::new();
    writeln!(
        out,
        "| workload | metric | unit | base | change | ratio | bound | pairs | verdict |\n|---|---|---|---|---|---|---|---|---|"
    )
    .expect("writing to a String");
    for workload in workloads_in(&all) {
        for metric in &spec::END_TO_END {
            // With one pair, every run is a sample; with several, each file
            // is one sample (its median), so that pairs stay pairs.
            let side = |pick: &dyn Fn(&(Json, Json)) -> &Json| -> Vec<f64> {
                if pairs.len() == 1 {
                    values_of(pick(&pairs[0]), workload, metric.name)
                } else {
                    pairs
                        .iter()
                        .map(|pair| values_of(pick(pair), workload, metric.name))
                        .filter(|v| !v.is_empty())
                        .map(|v| median(&v))
                        .collect()
                }
            };
            let (a, b) = (side(&|p| &p.0), side(&|p| &p.1));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (base, change) = (median(&a), median(&b));
            writeln!(
                out,
                "| {workload} | {} | {} | {base:.4} | {change:.4} | {:.4} | {:.0}% | {} | {} |",
                metric.name,
                metric.unit,
                if base == 0.0 { f64::NAN } else { change / base },
                metric.bound.unwrap_or(0.0) * 100.0,
                a.len().min(b.len()),
                verdict(metric, &a, &b).as_str(),
            )
            .expect("writing to a String");
        }
    }
    Ok(out)
}

/// Every metric of every run in a result file, by name with its unit.
pub fn metrics_table(file: &Json) -> String {
    let mut out = String::new();
    let runs = file.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    for w in &spec::WORKLOADS {
        for run in runs
            .iter()
            .filter(|run| run.get("workload").and_then(Json::as_str) == Some(w.name))
        {
            let number = |key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let attempted = number("attempted");
            writeln!(
                out,
                "{} (seed {}, trace {}): correct={} failed_share={}",
                w.name,
                number("seed"),
                number("trace"),
                run.get("correct").and_then(Json::as_bool).unwrap_or(false),
                if attempted > 0.0 {
                    number("failed") / attempted
                } else {
                    1.0
                },
            )
            .expect("writing to a String");
            for (name, metric) in run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                writeln!(
                    out,
                    "  {name:<42} {:>16.4} {}",
                    metric
                        .get("value")
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN),
                    metric.get("unit").and_then(Json::as_str).unwrap_or(""),
                )
                .expect("writing to a String");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics with a 10 % bound, whatever the calibrated bounds are.
    fn throughput() -> &'static Metric {
        &Metric {
            name: "throughput",
            unit: "1/s",
            better: Better::Higher,
            bound: Some(0.10),
        }
    }

    fn latency() -> &'static Metric {
        &Metric {
            name: "latency",
            unit: "us",
            better: Better::Lower,
            bound: Some(0.10),
        }
    }

    /// Ten values around `centre`, a little apart (spread about 1 %).
    fn around(centre: f64) -> Vec<f64> {
        (0..10)
            .map(|i| centre * (1.0 + 0.002 * f64::from(i)))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_nine_tenths_rule() {
        let base = around(100.0);
        // Higher throughput on every pair, by far more than the base spread.
        assert_eq!(
            verdict(throughput(), &base, &around(130.0)),
            Verdict::Better
        );
        // The same gain on three pairs only proves nothing.
        assert_eq!(
            verdict(throughput(), &base[..3], &around(130.0)[..3]),
            Verdict::Unchanged
        );
        // Winning eight of ten pairs is not nine tenths.
        let mut mixed = around(130.0);
        mixed[0] = 50.0;
        mixed[1] = 50.0;
        assert_ne!(verdict(throughput(), &base, &mixed), Verdict::Better);
        // Worse by more than the bound.
        assert_eq!(
            verdict(throughput(), &base, &around(80.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(latency(), &base, &around(125.0)),
            Verdict::Regressed
        );
        assert_eq!(verdict(latency(), &base, &around(70.0)), Verdict::Better);
        // Inside the bound either way.
        assert_eq!(
            verdict(throughput(), &base, &around(97.0)),
            Verdict::Unchanged
        );
        // A side noisier than the bound cannot be judged.
        let noisy: Vec<f64> = (0..10).map(|i| 60.0 + 10.0 * f64::from(i)).collect();
        assert_eq!(
            verdict(throughput(), &noisy, &around(100.0)),
            Verdict::Unresolved
        );
    }

    fn file(threads: f64, workload: &str, throughputs: &[f64]) -> Json {
        let runs = throughputs
            .iter()
            .map(|&t| {
                Json::obj([
                    ("workload", Json::str(workload)),
                    (
                        "metrics",
                        Json::obj(spec::END_TO_END.iter().map(|m| {
                            (
                                m.name,
                                Json::obj([("value", Json::Num(t)), ("unit", Json::str(m.unit))]),
                            )
                        })),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("meta", Json::obj([("threads", Json::Num(threads))])),
            ("runs", Json::Arr(runs)),
        ])
    }

    #[test]
    fn compare_refuses_different_thread_counts_and_names_every_row() {
        let a = file(2.0, "spawn_tree", &around(100.0));
        let b = file(2.0, "spawn_tree", &around(50.0));
        let table = compare_table(&[(a.clone(), b)]).unwrap();
        assert!(
            table.contains("| spawn_tree | throughput_kops_per_s | kops/s |"),
            "{table}"
        );
        assert!(table.contains("regressed"), "{table}");
        assert_eq!(table.lines().count(), 2 + spec::END_TO_END.len());
        let other = file(4.0, "spawn_tree", &around(100.0));
        assert!(compare_table(&[(a, other)]).is_err());
    }

    #[test]
    fn repeat_rows_flag_a_spread_beyond_the_bound() {
        let steady = file(2.0, "sort_large", &around(100.0));
        assert!(spread_rows(&steady).iter().all(SpreadRow::within_bound));
        let noisy = file(2.0, "sort_large", &[60.0, 80.0, 100.0, 120.0, 140.0]);
        let rows = spread_rows(&noisy);
        assert_eq!(rows.len(), spec::END_TO_END.len());
        let wide: Vec<&str> = rows
            .iter()
            .filter(|r| !r.within_bound())
            .map(|r| r.metric.name)
            .collect();
        assert!(
            wide.contains(&"throughput_kops_per_s") && !wide.contains(&"setup_s"),
            "{wide:?}"
        );
        assert!(spread_table(&rows).contains("TOO WIDE"));
    }
}
