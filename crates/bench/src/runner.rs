//! The one repetition loop of `perf` and `tables` ([`interleave`]), the one
//! place a scheduler-counter delta is taken ([`measured`]), and the sort
//! variants the loop runs for both.

use std::time::Duration;

use teamsteal_core::{MetricsSnapshot, Scheduler, StealPolicy};
use teamsteal_sort::{fork_join_sort, mixed_mode_sort, sequential_quicksort, std_sort, SortConfig};
use teamsteal_util::timing::time;

/// One cell of an interleaved measurement: a repetition, and the scheduler
/// whose counters it moves.
pub struct Cell<'a, T> {
    scheduler: Option<&'a Scheduler>,
    run: Box<dyn FnMut() -> T + 'a>,
}

impl<'a, T> Cell<'a, T> {
    /// A cell whose every repetition is one call of `run`, charged with the
    /// counter delta of `scheduler` (`None`: code that runs on no scheduler,
    /// or on one of its own).
    pub fn new(scheduler: Option<&'a Scheduler>, run: impl FnMut() -> T + 'a) -> Self {
        Cell {
            scheduler,
            run: Box::new(run),
        }
    }
}

/// Runs `f` once and returns its result with the counter delta it moved on
/// `scheduler` (zero without one).  Every repetition of [`interleave`] and
/// every one-shot probe of `perf` is charged through here.
pub fn measured<T>(scheduler: Option<&Scheduler>, f: impl FnOnce() -> T) -> (T, MetricsSnapshot) {
    let before = scheduler.map(Scheduler::metrics);
    let result = f();
    let delta = scheduler
        .zip(before)
        .map(|(scheduler, before)| scheduler.metrics().delta_since(&before))
        .unwrap_or_default();
    (result, delta)
}

/// Runs `warmups` untimed and then `repetitions` recorded rounds of `cells`,
/// and returns, in the same order, each cell's results (in execution order)
/// and the summed counter delta of its recorded repetitions.  A round runs
/// every cell once — repetition `i` of every cell before repetition `i + 1`
/// of any — so a drift of the host (frequency, a noisy neighbour) falls on
/// all cells alike and their aggregates compare; timing each cell's
/// repetitions as a block does not give comparable numbers.  Round `i`
/// starts at cell `i mod n`, so which cell runs first, and which runs right
/// after a team cell whose workers are still looking for work, changes from
/// round to round instead of always being the same one.  What a repetition
/// times is up to its cell: the loop only orders the calls and attributes
/// the counters.
pub fn interleave<T>(
    mut cells: Vec<Cell<'_, T>>,
    warmups: usize,
    repetitions: usize,
) -> Vec<(Vec<T>, MetricsSnapshot)> {
    for _ in 0..warmups {
        for cell in &mut cells {
            (cell.run)();
        }
    }
    let mut out: Vec<_> = cells
        .iter()
        .map(|_| (Vec::new(), MetricsSnapshot::default()))
        .collect();
    for round in 0..repetitions {
        for k in 0..cells.len() {
            let i = (round + k) % cells.len();
            let cell = &mut cells[i];
            let (result, delta) = measured(cell.scheduler, &mut cell.run);
            let (results, metrics) = &mut out[i];
            results.push(result);
            *metrics = metrics.merge(delta);
        }
    }
    out
}

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

    /// The steal policy of the scheduler a parallel variant runs on; `None`
    /// for the sequential ones.
    fn steal_policy(self) -> Option<StealPolicy> {
        match self {
            Variant::SeqStd | Variant::SeqQs => None,
            Variant::RandFork => Some(StealPolicy::UniformRandom),
            Variant::Fork | Variant::MmPar => Some(StealPolicy::Deterministic),
        }
    }
}

/// Holds the lazily created schedulers so repeated measurements of one
/// table reuse the same worker threads, as the paper's prototype does.  Fork
/// and MMPar run on one deterministic scheduler (identically configured, and
/// never timed at the same moment); only Randfork needs its own.
pub struct VariantRunner {
    threads: usize,
    config: SortConfig,
    schedulers: Vec<(StealPolicy, Scheduler)>,
}

impl VariantRunner {
    /// Creates a runner for `threads` worker threads and the given sort
    /// parameters.
    pub fn new(threads: usize, config: SortConfig) -> Self {
        VariantRunner {
            threads,
            config,
            schedulers: Vec::new(),
        }
    }

    /// The scheduler `variant` runs on, if it is parallel and already built.
    fn scheduler(&self, variant: Variant) -> Option<&Scheduler> {
        let policy = variant.steal_policy()?;
        self.schedulers
            .iter()
            .find(|(p, _)| *p == policy)
            .map(|(_, s)| s)
    }

    /// Sorts a copy of `input` with `variant` and returns how long the sort
    /// took (the copy excluded).  The output is validated (cheap sortedness
    /// check) so a broken variant can never silently report a good time.
    fn sort_once(&self, variant: Variant, input: &[u32]) -> Duration {
        let mut data = input.to_vec();
        let config = &self.config;
        let (duration, ()) = match (variant, self.scheduler(variant)) {
            (Variant::SeqStd, _) => time(|| std_sort(&mut data)),
            (Variant::SeqQs, _) => time(|| sequential_quicksort(&mut data, config)),
            (Variant::MmPar, Some(s)) => time(|| mixed_mode_sort(s, &mut data, config)),
            (_, Some(s)) => time(|| fork_join_sort(s, &mut data, config)),
            (_, None) => unreachable!("sort_cells builds every scheduler first"),
        };
        assert!(
            teamsteal_data::is_sorted(&data),
            "{} produced an unsorted result",
            variant.label()
        );
        duration
    }

    /// Runs `warmups` untimed and `repetitions` timed sorts of every variant
    /// in `variants` on one input through [`interleave`], every scheduler
    /// built first, and returns in the same order each variant's samples
    /// (seconds, in execution order) and summed counter delta (zero for the
    /// sequential variants).
    pub fn sort_cells(
        &mut self,
        variants: &[Variant],
        input: &[u32],
        warmups: usize,
        repetitions: usize,
    ) -> Vec<(Vec<f64>, MetricsSnapshot)> {
        for policy in variants.iter().filter_map(|v| v.steal_policy()) {
            if !self.schedulers.iter().any(|(p, _)| *p == policy) {
                let scheduler = Scheduler::builder()
                    .threads(self.threads)
                    .steal_policy(policy);
                self.schedulers.push((policy, scheduler.build()));
            }
        }
        let this = &*self;
        let cells = variants
            .iter()
            .map(|&v| Cell::new(this.scheduler(v), move || this.sort_once(v, input)))
            .collect();
        interleave(cells, warmups, repetitions)
            .into_iter()
            .map(|(durations, metrics)| {
                (
                    durations.iter().map(Duration::as_secs_f64).collect(),
                    metrics,
                )
            })
            .collect()
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
        let variants = [
            Variant::SeqStd,
            Variant::SeqQs,
            Variant::Fork,
            Variant::RandFork,
            Variant::MmPar,
        ];
        for (samples, _) in runner.sort_cells(&variants, &input, 0, 1) {
            assert!(samples.len() == 1 && samples[0] > 0.0, "{samples:?}");
        }
    }

    #[test]
    fn sort_cells_returns_every_repetition_of_every_variant() {
        let input = Distribution::Gauss.generate(40_000, 4, 5);
        let mut runner = VariantRunner::new(2, SortConfig::default());
        let variants = [Variant::SeqQs, Variant::MmPar, Variant::Fork];
        runner.sort_cells(&variants, &input, 0, 1);
        let before = runner.scheduler(Variant::MmPar).unwrap().metrics();
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
        let after = runner.scheduler(Variant::MmPar).unwrap().metrics();
        let total = after.delta_since(&before).total_executions();
        let timed = cells[1].1.total_executions() + cells[2].1.total_executions();
        assert!(timed > 0 && timed < total, "{timed} of {total}");

        // The loop under sort_cells: untimed warm-ups, then round after
        // round of every cell, each round starting one cell further on, and
        // each cell charged with exactly the tasks it ran (cell k runs
        // k + 1 on the one shared scheduler).
        let scheduler = Scheduler::with_threads(2);
        let calls = std::cell::RefCell::new(Vec::new());
        let cells = (0..3)
            .map(|k| {
                let (scheduler, calls) = (&scheduler, &calls);
                Cell::new(Some(scheduler), move || {
                    calls.borrow_mut().push(k);
                    scheduler.run(move |ctx| (0..k).for_each(|_| ctx.spawn(|_| {})));
                    k
                })
            })
            .collect();
        let results = interleave(cells, 1, 3);
        assert_eq!(*calls.borrow(), [0, 1, 2, 0, 1, 2, 1, 2, 0, 2, 0, 1]);
        for (k, (runs, metrics)) in results.into_iter().enumerate() {
            assert_eq!(runs, [k, k, k]);
            assert_eq!(
                metrics.tasks_executed,
                3 * (k as u64 + 1),
                "cell {k}: {metrics:?}"
            );
        }
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
        let mut metrics_of = |variant| runner.sort_cells(&[variant], &input, 0, 1)[0].1;
        assert_eq!(metrics_of(Variant::SeqQs), MetricsSnapshot::default());
        assert!(
            metrics_of(Variant::Fork).tasks_executed > 0,
            "fork-join sort must execute r = 1 tasks"
        );
        let mm = metrics_of(Variant::MmPar);
        assert!(
            mm.teams_formed > 0,
            "mixed-mode sort at this size must build at least one team"
        );
        // A second measurement reuses the scheduler but the delta is still
        // attributed per run, not cumulatively.  Cumulative attribution
        // would make the second run report ~2x the first run's executions
        // (same input, same work), so a 1.5x bound detects it while leaving
        // headroom for scheduling variance in the per-run counts.
        let mm2 = metrics_of(Variant::MmPar);
        assert!(
            mm2.total_executions() * 2 < mm.total_executions() * 3,
            "second run reported {} executions vs {} on the first — delta looks cumulative",
            mm2.total_executions(),
            mm.total_executions()
        );
    }
}
