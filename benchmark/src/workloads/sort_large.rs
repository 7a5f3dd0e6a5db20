//! `sort_large`: the paper's experiment scaled to the host.
//!
//! Per cycle, each of the four input distributions at `n = 2^22` is sorted
//! by `mixed_mode_sort` (MMPar), `fork_join_sort` (Fork) and `std_sort`
//! (Seq/STL), all with `SortConfig::default()`.  Every output is compared
//! with a reference that was itself checked with `is_sorted` and
//! `is_permutation_of` against the generated input, which is the same
//! verdict at a hundredth of the cost.

use std::time::{Duration, Instant};

use teamsteal_core::Scheduler;
use teamsteal_data::{is_permutation_of, is_sorted, Distribution};
use teamsteal_sort::{fork_join_sort, mixed_mode_sort, std_sort, SortConfig};
use teamsteal_util::timing::time;

use super::{worker_counts, Measured, Params};
use crate::host;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::watchdog::Watchdog;

/// Fewest timed cycles, whatever `--seconds` says.
const MIN_CYCLES: usize = 3;

struct State {
    scheduler: Scheduler,
    inputs: Vec<Vec<u32>>,
}

#[derive(Clone, Copy)]
enum Variant {
    Mixed,
    Fork,
    Std,
}

const VARIANTS: [Variant; 3] = [Variant::Mixed, Variant::Fork, Variant::Std];

const MIXED_SPANS: [&str; 4] = [
    "sort.mixed.random",
    "sort.mixed.gauss",
    "sort.mixed.buckets",
    "sort.mixed.staggered",
];
const MIXED_ROWS: [&str; 4] = [
    "sort.mixed.random_ms",
    "sort.mixed.gauss_ms",
    "sort.mixed.buckets_ms",
    "sort.mixed.staggered_ms",
];

/// Times one sort of a fresh copy of `input` and checks the output.
#[allow(clippy::too_many_arguments)]
fn sort_once(
    variant: Variant,
    dist: usize,
    scheduler: &Scheduler,
    config: &SortConfig,
    input: &[u32],
    reference: &[u32],
    work: &mut [u32],
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> (f64, bool) {
    work.copy_from_slice(input);
    let name = match variant {
        Variant::Mixed => MIXED_SPANS[dist],
        Variant::Fork => "sort.fork",
        Variant::Std => "sort.std",
    };
    let span = tracer.open(name, parent);
    let start = Instant::now();
    match variant {
        Variant::Mixed => mixed_mode_sort(scheduler, work, config),
        Variant::Fork => fork_join_sort(scheduler, work, config),
        Variant::Std => std_sort(work),
    }
    let secs = start.elapsed().as_secs_f64();
    tracer.close(span);
    let ok = tracer.scoped("bench.verify", parent, || work == reference);
    (secs, ok)
}

pub fn run(params: &Params, tracer: &mut Tracer, watchdog: &Watchdog) -> Measured {
    let n: usize = if params.smoke { 1 << 16 } else { 1 << 22 };
    let p = params.threads;
    let config = SortConfig::default();
    // Set-up is the scheduler build plus input generation, repeated once
    // per instance; the sorts themselves run on the last build (their times
    // do not depend on which instance runs them: the partition kernels do
    // the work, and every cycle starts from the same inputs).
    let mut setup_secs = Vec::new();
    let mut state = None;
    for _ in 0..params.instances.max(1) {
        // The previous scheduler's workers must be gone before the next
        // build is timed.
        drop(state.take());
        let (took, built) = time(|| State {
            scheduler: Scheduler::with_threads(p),
            // The block parameter of Buckets/Staggered is the thread
            // count, as in the paper.
            inputs: Distribution::ALL
                .iter()
                .map(|d| d.generate(n, p, params.seed))
                .collect(),
        });
        setup_secs.push(took.as_secs_f64());
        state = Some(built);
    }
    let State { scheduler, inputs } = state.expect("at least one set-up");
    let mut work = vec![0u32; n];
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Warm-up cycle, untimed: faults the buffers in, fills the node arenas,
    // and produces the references every later output is compared with.
    let warm_start = Instant::now();
    let references: Vec<Vec<u32>> =
        watchdog.phase("sort_large/warm-up", Duration::from_secs(30), || {
            inputs
                .iter()
                .map(|input| {
                    let mut reference = input.clone();
                    std_sort(&mut reference);
                    attempted += 1;
                    if !(is_sorted(&reference) && is_permutation_of(input, &reference)) {
                        failed += 1;
                    }
                    for variant in [Variant::Mixed, Variant::Fork] {
                        work.copy_from_slice(input);
                        match variant {
                            Variant::Mixed => mixed_mode_sort(&scheduler, &mut work, &config),
                            _ => fork_join_sort(&scheduler, &mut work, &config),
                        }
                        attempted += 1;
                        failed += u64::from(work != reference);
                    }
                    reference
                })
                .collect()
        });
    let cycle_allowance = warm_start.elapsed().max(Duration::from_secs(1));

    let before = scheduler.metrics();
    let root = tracer.open("sort_large", None);
    // times[variant][dist] holds one entry per cycle.
    let mut times = vec![vec![Vec::<f64>::new(); inputs.len()]; VARIANTS.len()];
    let measure_start = Instant::now();
    let mut cycles = 0usize;
    while cycles < MIN_CYCLES || measure_start.elapsed().as_secs_f64() < params.seconds {
        watchdog.phase("sort_large/cycle", cycle_allowance, || {
            let cycle = tracer.open("sort.cycle", Some(root));
            for (d, input) in inputs.iter().enumerate() {
                for (v, &variant) in VARIANTS.iter().enumerate() {
                    let (secs, ok) = sort_once(
                        variant,
                        d,
                        &scheduler,
                        &config,
                        input,
                        &references[d],
                        &mut work,
                        tracer,
                        Some(cycle),
                    );
                    times[v][d].push(secs);
                    attempted += 1;
                    failed += u64::from(!ok);
                }
            }
            tracer.close(cycle);
        });
        cycles += 1;
        if params.smoke && cycles >= MIN_CYCLES {
            break;
        }
    }
    tracer.close(root);
    let delta = scheduler.metrics().delta_since(&before);

    // Per-cycle totals over the four distributions, then medians over
    // cycles: one stalled cycle does not decide the run.
    let cycle_total =
        |v: usize, c: usize| -> f64 { (0..inputs.len()).map(|d| times[v][d][c]).sum() };
    let per_cycle =
        |f: &dyn Fn(usize) -> f64| -> f64 { median(&(0..cycles).map(f).collect::<Vec<_>>()) };
    let elems_per_cycle = (inputs.len() * n) as f64;
    let mixed_elems_per_s = per_cycle(&|c| elems_per_cycle / cycle_total(0, c));
    let mixed_calls: Vec<f64> = times[0].iter().flatten().copied().collect();
    // A speed-up measured with more threads than cores is a statement about
    // the kernel's time slicing, not about the scheduler: withhold it.
    let honest = p <= host::nproc();
    let speedup = |v: usize| -> f64 {
        if honest {
            per_cycle(&|c| cycle_total(v, c) / cycle_total(0, c))
        } else {
            0.0
        }
    };

    let mut layer = vec![
        ("sort.mixed.melems_per_s", mixed_elems_per_s / 1e6),
        ("sort.mixed.speedup_vs_seq", speedup(2)),
        ("sort.mixed.vs_fork", speedup(1)),
        (
            "sort.fork.cycle_ms",
            per_cycle(&|c| cycle_total(1, c)) * 1e3,
        ),
        ("sort.std.cycle_ms", per_cycle(&|c| cycle_total(2, c)) * 1e3),
    ];
    for (d, row) in MIXED_ROWS.iter().enumerate() {
        layer.push((row, median(&times[0][d]) * 1e3));
    }
    if let Some(verify) = tracer.totals().get("bench.verify") {
        layer.push(("bench.verify_self_ms", verify.self_ns as f64 / 1e6));
    }
    layer.extend(worker_counts(&delta));

    Measured {
        correct: failed == 0,
        attempted,
        failed,
        setup_s: median(&setup_secs),
        throughput_kops: mixed_elems_per_s / 1e3,
        latency_p50_us: median(&mixed_calls) * 1e6,
        layer,
        samples: vec![
            ("throughput_kops_per_s", cycles as u64),
            ("latency_p50_us", mixed_calls.len() as u64),
            ("setup_s", setup_secs.len() as u64),
        ],
    }
}
