//! Variant runners: one timed sort execution per (variant, input), and the
//! interleaved repetition loop both `perf` and `tables` take their sort
//! samples from.

use std::time::Duration;

use teamsteal_core::{MetricsSnapshot, Scheduler, StealPolicy};
use teamsteal_sort::{fork_join_sort, mixed_mode_sort, sequential_quicksort, std_sort, SortConfig};
use teamsteal_util::timing::time;

/// The sorting variants of the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The best available sequential sort (paper: *Seq/STL*).
    SeqStd,
    /// Handwritten sequential Quicksort with cutoff (paper: *SeqQS*).
    SeqQs,
    /// Task-parallel Quicksort on the deterministic work-stealer (paper:
    /// *Fork*).
    Fork,
    /// Task-parallel Quicksort with uniformly random victim selection
    /// (paper: *Randfork*).
    RandFork,
    /// Mixed-mode parallel Quicksort on the team-building work-stealer
    /// (paper: *MMPar*).
    MmPar,
}

impl Variant {
    /// Column header used when rendering tables.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::SeqStd => "Seq/STL",
            Variant::SeqQs => "SeqQS",
            Variant::Fork => "Fork",
            Variant::RandFork => "Randfork",
            Variant::MmPar => "MMPar",
        }
    }

    /// `true` for the variants whose speedup the paper reports in an `SU`
    /// column (Fork and MMPar).
    pub fn has_speedup_column(&self) -> bool {
        matches!(self, Variant::Fork | Variant::MmPar)
    }
}

/// One timed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Which variant produced it.
    pub variant: Variant,
    /// Wall-clock duration of the sort (input generation excluded).
    pub duration: Duration,
    /// Scheduler-counter delta attributable to this run (steals, teams
    /// built, registrations, …).  Zero for variants that do not execute on a
    /// `teamsteal` scheduler (Seq/STL and SeqQS).
    pub metrics: MetricsSnapshot,
}

/// Holds the lazily created schedulers so repeated measurements of one
/// table reuse the same worker threads, as the paper's prototype does.  Fork
/// and MMPar run on one deterministic scheduler (identically configured, and
/// never timed at the same moment); only Randfork needs its own.
pub struct VariantRunner {
    threads: usize,
    config: SortConfig,
    det: Option<Scheduler>,
    rand: Option<Scheduler>,
}

impl VariantRunner {
    /// Creates a runner for `threads` worker threads and the given sort
    /// parameters.
    pub fn new(threads: usize, config: SortConfig) -> Self {
        VariantRunner {
            threads,
            config,
            det: None,
            rand: None,
        }
    }

    /// The scheduler a parallel `variant` runs on, built on first use.
    fn scheduler_for(&mut self, variant: Variant) -> &Scheduler {
        let threads = self.threads;
        let (slot, policy) = match variant {
            Variant::RandFork => (&mut self.rand, StealPolicy::UniformRandom),
            _ => (&mut self.det, StealPolicy::Deterministic),
        };
        slot.get_or_insert_with(|| {
            Scheduler::builder()
                .threads(threads)
                .steal_policy(policy)
                .build()
        })
    }

    /// Sorts a copy of `input` with `variant` and returns the measurement,
    /// including the scheduler-counter delta the run caused.  The sorted
    /// output is validated (cheap sortedness check) so a broken variant can
    /// never silently report a good time.
    pub fn measure(&mut self, variant: Variant, input: &[u32]) -> Measurement {
        let mut data = input.to_vec();
        let config = self.config.clone();
        // Times `f` on `scheduler` and attributes the counter delta to it.
        fn timed_on(
            scheduler: &Scheduler,
            f: impl FnOnce(&Scheduler),
        ) -> (Duration, MetricsSnapshot) {
            let before = scheduler.metrics();
            let (duration, ()) = time(|| f(scheduler));
            (duration, scheduler.metrics().delta_since(&before))
        }
        let (duration, metrics) = match variant {
            Variant::SeqStd => (time(|| std_sort(&mut data)).0, MetricsSnapshot::default()),
            Variant::SeqQs => (
                time(|| sequential_quicksort(&mut data, &config)).0,
                MetricsSnapshot::default(),
            ),
            Variant::Fork | Variant::RandFork => timed_on(self.scheduler_for(variant), |s| {
                fork_join_sort(s, &mut data, &config)
            }),
            Variant::MmPar => timed_on(self.scheduler_for(variant), |s| {
                mixed_mode_sort(s, &mut data, &config)
            }),
        };
        assert!(
            teamsteal_data::is_sorted(&data),
            "{} produced an unsorted result",
            variant.label()
        );
        Measurement {
            variant,
            duration,
            metrics,
        }
    }

    /// Runs `warmups` untimed and `repetitions` timed sorts of every variant
    /// in `variants` on one input and returns, in the same order, each
    /// variant's samples (seconds, in execution order) and summed counter
    /// delta.  The repetitions are interleaved — repetition `i` of every
    /// variant before repetition `i + 1` of any — so a drift of the host
    /// (frequency, a noisy neighbour) falls on all variants alike and their
    /// aggregates compare; timing each variant's repetitions as a block does
    /// not give comparable numbers.
    pub fn sort_cells(
        &mut self,
        variants: &[Variant],
        input: &[u32],
        warmups: usize,
        repetitions: usize,
    ) -> Vec<(Vec<f64>, MetricsSnapshot)> {
        for _ in 0..warmups {
            for &variant in variants {
                self.measure(variant, input);
            }
        }
        let mut cells = vec![(Vec::new(), MetricsSnapshot::default()); variants.len()];
        for _ in 0..repetitions {
            for (&variant, (samples, metrics)) in variants.iter().zip(&mut cells) {
                let m = self.measure(variant, input);
                samples.push(m.duration.as_secs_f64());
                *metrics = metrics.merge(m.metrics);
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamsteal_data::Distribution;

    #[test]
    fn labels_are_distinct() {
        let variants = [
            Variant::SeqStd,
            Variant::SeqQs,
            Variant::Fork,
            Variant::RandFork,
            Variant::MmPar,
        ];
        let mut labels: Vec<&str> = variants.iter().map(|v| v.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), variants.len());
        assert!(Variant::MmPar.has_speedup_column());
        assert!(!Variant::SeqQs.has_speedup_column());
    }

    #[test]
    fn every_variant_measures_and_sorts() {
        let input = Distribution::Random.generate(40_000, 4, 33);
        let config = SortConfig {
            cutoff: 256,
            block_size: 512,
            min_blocks_per_thread: 4,
        };
        let mut runner = VariantRunner::new(2, config);
        for variant in [
            Variant::SeqStd,
            Variant::SeqQs,
            Variant::Fork,
            Variant::RandFork,
            Variant::MmPar,
        ] {
            let m = runner.measure(variant, &input);
            assert!(m.duration > Duration::ZERO);
            assert_eq!(m.variant, variant);
        }
    }

    #[test]
    fn sort_cells_returns_every_repetition_of_every_variant() {
        let input = Distribution::Gauss.generate(40_000, 4, 5);
        let mut runner = VariantRunner::new(2, SortConfig::default());
        let variants = [Variant::SeqQs, Variant::MmPar, Variant::Fork];
        let before = runner.scheduler_for(Variant::MmPar).metrics();
        let cells = runner.sort_cells(&variants, &input, 1, 3);
        assert_eq!(cells.len(), variants.len());
        for (samples, _) in &cells {
            assert_eq!(samples.len(), 3);
            assert!(samples.iter().all(|&s| s > 0.0));
        }
        // The counters are those of the timed runs only: the three cells
        // account for everything the scheduler did, less the one warmup of
        // each of its two variants.
        assert_eq!(cells[0].1, MetricsSnapshot::default());
        let total = runner.scheduler_for(Variant::MmPar).metrics().delta_since(&before);
        let timed = cells[1].1.total_executions() + cells[2].1.total_executions();
        assert!(timed > 0 && timed < total.total_executions(), "{timed} of {total:?}");
    }

    #[test]
    fn scheduler_variants_report_metrics_and_sequential_ones_do_not() {
        let input = Distribution::Random.generate(60_000, 4, 7);
        let config = SortConfig {
            cutoff: 256,
            block_size: 512,
            min_blocks_per_thread: 2,
        };
        let mut runner = VariantRunner::new(2, config);
        let seq = runner.measure(Variant::SeqQs, &input);
        assert_eq!(seq.metrics, teamsteal_core::MetricsSnapshot::default());
        let fork = runner.measure(Variant::Fork, &input);
        assert!(
            fork.metrics.tasks_executed > 0,
            "fork-join sort must execute r = 1 tasks"
        );
        let mm = runner.measure(Variant::MmPar, &input);
        assert!(
            mm.metrics.teams_formed > 0,
            "mixed-mode sort at this size must build at least one team"
        );
        // A second measurement reuses the scheduler but the delta is still
        // attributed per run, not cumulatively.  Cumulative attribution
        // would make the second run report ~2x the first run's executions
        // (same input, same work), so a 1.5x bound detects it while leaving
        // headroom for scheduling variance in the per-run counts.
        let mm2 = runner.measure(Variant::MmPar, &input);
        assert!(
            mm2.metrics.total_executions() * 2 < mm.metrics.total_executions() * 3,
            "second run reported {} executions vs {} on the first — delta looks cumulative",
            mm2.metrics.total_executions(),
            mm.metrics.total_executions()
        );
    }
}
