//! Table specifications and the sweep that regenerates Tables 1–10.

use std::time::Duration;

use teamsteal_benchmark::host;
use teamsteal_data::{Distribution, Scale};
use teamsteal_sort::SortConfig;
use teamsteal_util::timing::speedup;

use crate::report::TimingSummary;
use crate::runner::{Variant, VariantRunner};

/// How repeated measurements are aggregated into the reported number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Average over the repetitions (the paper's "Average running times").
    Average,
    /// Best (minimum) over the repetitions (the paper's "Best ... running
    /// time").
    Best,
}

impl Aggregation {
    /// The reported time for one cell's samples (seconds).
    pub fn pick(&self, samples_s: &[f64]) -> Duration {
        let summary = TimingSummary::from_samples(samples_s.to_vec());
        Duration::from_secs_f64(match self {
            Aggregation::Average => summary.average_s,
            Aggregation::Best => summary.best_s,
        })
    }
}

/// Description of one of the paper's tables.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table number in the paper (1–10).
    pub number: u8,
    /// Short description of the machine the paper measured on.
    pub system: &'static str,
    /// Number of worker threads (the paper's hardware-thread count).
    pub threads: usize,
    /// Average or best-of-N.
    pub aggregation: Aggregation,
    /// Indices into [`Scale::sizes`] used by this table (the Opteron and Sun
    /// tables omit the 10⁹ row).
    pub size_indices: &'static [usize],
}

impl TableSpec {
    /// All ten tables of the paper.
    pub fn all() -> Vec<TableSpec> {
        let six: &'static [usize] = &[0, 1, 2, 3, 4, 5];
        let five: &'static [usize] = &[0, 1, 3, 4, 5];
        vec![
            TableSpec {
                number: 1,
                system: "8-core Intel Nehalem",
                threads: 8,
                aggregation: Aggregation::Average,
                size_indices: six,
            },
            TableSpec {
                number: 2,
                system: "8-core Intel Nehalem",
                threads: 8,
                aggregation: Aggregation::Best,
                size_indices: six,
            },
            TableSpec {
                number: 3,
                system: "16-core AMD Opteron",
                threads: 16,
                aggregation: Aggregation::Average,
                size_indices: five,
            },
            TableSpec {
                number: 4,
                system: "16-core AMD Opteron",
                threads: 16,
                aggregation: Aggregation::Best,
                size_indices: five,
            },
            TableSpec {
                number: 5,
                system: "32-core Intel Nehalem EX",
                threads: 32,
                aggregation: Aggregation::Average,
                size_indices: six,
            },
            TableSpec {
                number: 6,
                system: "32-core Intel Nehalem EX",
                threads: 32,
                aggregation: Aggregation::Best,
                size_indices: six,
            },
            TableSpec {
                number: 7,
                system: "16-core Sun T2+ (32 threads)",
                threads: 32,
                aggregation: Aggregation::Average,
                size_indices: five,
            },
            TableSpec {
                number: 8,
                system: "16-core Sun T2+ (32 threads)",
                threads: 32,
                aggregation: Aggregation::Best,
                size_indices: five,
            },
            TableSpec {
                number: 9,
                system: "16-core Sun T2+ (64 threads)",
                threads: 64,
                aggregation: Aggregation::Average,
                size_indices: five,
            },
            TableSpec {
                number: 10,
                system: "16-core Sun T2+ (64 threads)",
                threads: 64,
                aggregation: Aggregation::Best,
                size_indices: five,
            },
        ]
    }

    /// Looks up the spec for a paper table number.
    pub fn by_number(number: u8) -> Option<TableSpec> {
        Self::all().into_iter().find(|t| t.number == number)
    }

    /// The variants (columns) of every table, in the paper's order.  The
    /// paper's Cilk columns (Intel tables only) have no counterpart here.
    pub fn variants(&self) -> Vec<Variant> {
        vec![
            Variant::SeqStd,
            Variant::SeqQs,
            Variant::Fork,
            Variant::RandFork,
            Variant::MmPar,
        ]
    }
}

/// One row of a regenerated table.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Input distribution.
    pub distribution: Distribution,
    /// Input size in elements.
    pub size: usize,
    /// Aggregated duration per variant (same order as `TableResult::variants`).
    pub durations: Vec<Duration>,
}

/// A fully regenerated table.
#[derive(Debug, Clone)]
pub struct TableResult {
    /// The specification that produced it.
    pub spec: TableSpec,
    /// Input scale used.
    pub scale: Scale,
    /// Repetitions per cell.
    pub repetitions: usize,
    /// Column variants.
    pub variants: Vec<Variant>,
    /// Rows, grouped by distribution then size (the paper's layout).
    pub rows: Vec<TableRow>,
}

impl TableResult {
    /// Speedup of `variant` in `row` relative to the sequential reference
    /// (column Seq/STL), the way the paper's `SU` columns are computed.
    pub fn speedup(&self, row: &TableRow, variant: Variant) -> f64 {
        let seq_idx = self
            .variants
            .iter()
            .position(|&v| v == Variant::SeqStd)
            .expect("SeqStd column present");
        let idx = self
            .variants
            .iter()
            .position(|&v| v == variant)
            .expect("variant present");
        speedup(row.durations[seq_idx], row.durations[idx])
    }
}

/// Runs the sweep for one table: every distribution × size × variant,
/// `repetitions` times, aggregated per the spec.  The repetitions of one row
/// are interleaved across its variants ([`VariantRunner::sort_cells`]), so
/// the `SU` columns divide times taken under the same host conditions.
/// `progress` is called after every finished cell with a short status line
/// (pass `|_| {}` to silence).
pub fn run_table(
    spec: &TableSpec,
    scale: Scale,
    repetitions: usize,
    config: &SortConfig,
    seed: u64,
    mut progress: impl FnMut(&str),
) -> TableResult {
    let variants = spec.variants();
    let sizes: Vec<usize> = {
        let all = scale.sizes();
        spec.size_indices.iter().map(|&i| all[i]).collect()
    };
    let mut runner = VariantRunner::new(spec.threads, config.clone());
    let mut rows = Vec::new();
    for distribution in Distribution::ALL {
        for &size in &sizes {
            let input = distribution.generate(size, spec.threads, seed ^ size as u64);
            let cells = runner.sort_cells(&variants, &input, 0, repetitions.max(1));
            let mut durations = Vec::with_capacity(variants.len());
            for (variant, (samples, _)) in variants.iter().zip(&cells) {
                durations.push(spec.aggregation.pick(samples));
                progress(&format!(
                    "table {:>2} | {:<9} | n = {:>9} | {:<11} | {:>9.3?} ({} reps)",
                    spec.number,
                    distribution.label(),
                    size,
                    variant.label(),
                    durations[durations.len() - 1],
                    samples.len()
                ));
            }
            rows.push(TableRow {
                distribution,
                size,
                durations,
            });
        }
    }
    TableResult {
        spec: spec.clone(),
        scale,
        repetitions,
        variants,
        rows,
    }
}

/// Renders a regenerated table in the paper's layout (times in seconds,
/// speedup columns after Fork and MMPar).  When the table ran more worker
/// threads than this host has cores its speedups measure time slicing, not
/// parallelism, and every `SU` cell is printed as `–`.
pub fn render_table(result: &TableResult) -> String {
    render_for_host(result, host::nproc())
}

fn render_for_host(result: &TableResult, host_parallelism: usize) -> String {
    let oversubscribed = result.spec.threads > host_parallelism;
    let mut out = String::new();
    let agg = match result.spec.aggregation {
        Aggregation::Average => "average",
        Aggregation::Best => "best (minimum)",
    };
    out.push_str(&format!(
        "Table {} — Quicksort on the {} ({} threads), {} of {} runs, scale {:?}\n",
        result.spec.number,
        result.spec.system,
        result.spec.threads,
        agg,
        result.repetitions,
        result.scale
    ));
    // Header.
    out.push_str(&format!("{:<10} {:>10}", "Type", "Size"));
    for v in &result.variants {
        out.push_str(&format!(" {:>11}", v.label()));
        if v.has_speedup_column() {
            out.push_str(&format!(" {:>5}", "SU"));
        }
    }
    out.push('\n');
    let width = out.lines().last().map(|l| l.len()).unwrap_or(80);
    out.push_str(&"-".repeat(width));
    out.push('\n');
    // Rows.
    let mut last_distribution = None;
    for row in &result.rows {
        let label = if last_distribution != Some(row.distribution) {
            last_distribution = Some(row.distribution);
            row.distribution.label()
        } else {
            ""
        };
        out.push_str(&format!("{:<10} {:>10}", label, row.size));
        for (i, v) in result.variants.iter().enumerate() {
            out.push_str(&format!(" {:>11.3}", row.durations[i].as_secs_f64()));
            if v.has_speedup_column() {
                if oversubscribed {
                    out.push_str(&format!(" {:>5}", "–"));
                } else {
                    out.push_str(&format!(" {:>5.1}", result.speedup(row, *v)));
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ten_tables_are_specified() {
        let all = TableSpec::all();
        assert_eq!(all.len(), 10);
        for (i, spec) in all.iter().enumerate() {
            assert_eq!(spec.number as usize, i + 1);
        }
        // Thread counts follow the paper's machines.
        assert_eq!(TableSpec::by_number(1).unwrap().threads, 8);
        assert_eq!(TableSpec::by_number(3).unwrap().threads, 16);
        assert_eq!(TableSpec::by_number(5).unwrap().threads, 32);
        assert_eq!(TableSpec::by_number(9).unwrap().threads, 64);
        assert!(TableSpec::by_number(11).is_none());
        // Odd tables are averages, even tables are best-of-N.
        for spec in &all {
            let expected = if spec.number % 2 == 1 {
                Aggregation::Average
            } else {
                Aggregation::Best
            };
            assert_eq!(spec.aggregation, expected, "table {}", spec.number);
        }
    }

    #[test]
    fn variant_order_matches_paper_columns() {
        let expected = vec![
            Variant::SeqStd,
            Variant::SeqQs,
            Variant::Fork,
            Variant::RandFork,
            Variant::MmPar,
        ];
        for number in [1, 3] {
            assert_eq!(TableSpec::by_number(number).unwrap().variants(), expected);
        }
    }

    #[test]
    fn tiny_table_runs_and_renders() {
        // A miniature sweep (2 threads, 1 repetition, tiny inputs) exercising
        // the full pipeline end to end.
        let spec = TableSpec {
            number: 1,
            system: "test",
            threads: 2,
            aggregation: Aggregation::Best,
            size_indices: &[0],
        };
        let config = SortConfig {
            cutoff: 256,
            block_size: 256,
            min_blocks_per_thread: 2,
        };
        let result = run_table(&spec, Scale::Ci, 1, &config, 7, |_| {});
        assert_eq!(result.rows.len(), 4, "one row per distribution");
        for row in &result.rows {
            assert_eq!(row.durations.len(), result.variants.len());
            let su = result.speedup(row, Variant::MmPar);
            assert!(su > 0.0);
        }
        // On a host with as many cores as the table's threads the speedups
        // are printed; on a smaller one they are withheld.
        let rendered = render_for_host(&result, 2);
        assert!(!rendered.contains('–'), "{rendered}");
        let withheld = render_for_host(&result, 1);
        assert_eq!(
            withheld.matches('–').count(),
            4 * 2,
            "Fork and MMPar SU per row: {withheld}"
        );
        assert_eq!(withheld.lines().count(), rendered.lines().count());
        assert!(rendered.contains("Table 1"));
        assert!(rendered.contains("MMPar"));
        assert!(rendered.contains("Random"));
        assert!(rendered.contains("Staggered"));
        // Header + separator + 4 rows.
        assert_eq!(rendered.lines().count(), 2 + 1 + 4);
    }

    #[test]
    fn every_cell_aggregates_all_repetitions_of_the_interleaved_loop() {
        let spec = TableSpec {
            threads: 2,
            size_indices: &[0],
            ..TableSpec::by_number(1).unwrap()
        };
        let mut cells = Vec::new();
        let progress = |line: &str| cells.push(line.to_string());
        let result = run_table(&spec, Scale::Ci, 3, &SortConfig::default(), 7, progress);
        assert_eq!(cells.len(), result.rows.len() * result.variants.len());
        assert!(
            cells.iter().all(|line| line.ends_with("(3 reps)")),
            "{cells:?}"
        );
        // Table 1 reports averages, table 2 the best run, of the same samples.
        let samples = [0.030, 0.010, 0.020];
        assert_eq!(Aggregation::Best.pick(&samples), Duration::from_millis(10));
        let average = Aggregation::Average.pick(&samples).as_secs_f64();
        assert!((average - 0.020).abs() < 1e-9, "{average}");
    }
}
