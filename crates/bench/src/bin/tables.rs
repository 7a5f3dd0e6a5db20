//! Regenerates the paper's Tables 1–10 (and the steal-policy ablation).
//!
//! ```text
//! cargo run -p teamsteal-bench --release --bin tables -- [options]
//!
//!   --table N        regenerate paper table N (1..=10); may be repeated
//!   --all            regenerate all ten tables
//!   --scale S        input sizes: ci (default), medium, paper
//!   --reps N         repetitions per cell (default 10, like the paper)
//!   --threads N      override the table's thread count (e.g. to match the host)
//!   --seed N         input generation seed (default 42)
//!   --paper-config   use the paper's sort parameters (block 4096, 128 blocks/thread)
//!   --ablation steal-policy
//!                    run the deterministic vs randomized vs uniform ablation
//!   --quiet          suppress per-cell progress lines
//! ```
//!
//! With no arguments, Table 1 is regenerated at CI scale with 3 repetitions
//! (a quick smoke run); `EXPERIMENTS.md` records the full invocations used
//! for the reported numbers.

use std::time::Duration;

use teamsteal_bench::{render_table, run_table, Aggregation, TableSpec};
use teamsteal_data::{Distribution, Scale};
use teamsteal_sort::SortConfig;
use teamsteal_util::timing::speedup;

struct Options {
    tables: Vec<u8>,
    scale: Scale,
    reps: usize,
    threads_override: Option<usize>,
    seed: u64,
    paper_config: bool,
    ablation: Option<String>,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        tables: Vec::new(),
        scale: Scale::Ci,
        reps: 0,
        threads_override: None,
        seed: 42,
        paper_config: false,
        ablation: None,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    let mut explicit_reps = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--table" => {
                let n: u8 = args
                    .next()
                    .ok_or("--table needs a number")?
                    .parse()
                    .map_err(|e| format!("bad table number: {e}"))?;
                if !(1..=10).contains(&n) {
                    return Err(format!("table {n} does not exist (1..=10)"));
                }
                opts.tables.push(n);
            }
            "--all" => opts.tables = (1..=10).collect(),
            "--scale" => {
                let s = args.next().ok_or("--scale needs a value")?;
                opts.scale = Scale::parse(&s).ok_or(format!("unknown scale '{s}'"))?;
            }
            "--reps" => {
                opts.reps = args
                    .next()
                    .ok_or("--reps needs a number")?
                    .parse()
                    .map_err(|e| format!("bad repetition count: {e}"))?;
                explicit_reps = true;
            }
            "--threads" => {
                opts.threads_override = Some(
                    args.next()
                        .ok_or("--threads needs a number")?
                        .parse()
                        .map_err(|e| format!("bad thread count: {e}"))?,
                );
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .ok_or("--seed needs a number")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--paper-config" => opts.paper_config = true,
            "--ablation" => {
                opts.ablation = Some(args.next().ok_or("--ablation needs a name")?);
            }
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    if opts.tables.is_empty() && opts.ablation.is_none() {
        opts.tables.push(1);
        if !explicit_reps {
            opts.reps = 3; // quick smoke run
        }
    }
    if opts.reps == 0 {
        opts.reps = 10; // the paper's repetition count
    }
    Ok(opts)
}

const HELP: &str = "Regenerate the paper's tables.  See the module docs / EXPERIMENTS.md.
  --table N | --all     which tables (default: table 1, 3 reps)
  --scale ci|medium|paper
  --reps N              repetitions per cell (default 10)
  --threads N           override the table's thread count
  --seed N              input seed (default 42)
  --paper-config        paper sort parameters instead of scaled defaults
  --ablation steal-policy
  --quiet               no per-cell progress";

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let config = if opts.paper_config {
        SortConfig::paper()
    } else {
        SortConfig::default()
    };
    println!(
        "teamsteal table harness — host parallelism: {}, scale {:?}, {} repetitions, sort config {:?}",
        teamsteal_benchmark::host::nproc(),
        opts.scale,
        opts.reps,
        config
    );
    println!();

    if let Some(ablation) = &opts.ablation {
        match ablation.as_str() {
            "steal-policy" => run_steal_policy_ablation(&opts, &config),
            other => {
                eprintln!("unknown ablation '{other}' (available: steal-policy)");
                std::process::exit(2);
            }
        }
        return;
    }

    for number in &opts.tables {
        let mut spec = TableSpec::by_number(*number).expect("validated table number");
        if let Some(threads) = opts.threads_override {
            spec.threads = threads;
        }
        let result = run_table(&spec, opts.scale, opts.reps, &config, opts.seed, |line| {
            if !opts.quiet {
                eprintln!("  {line}");
            }
        });
        println!("{}", render_table(&result));
        println!();
    }
}

/// Ablation A1 (DESIGN.md): deterministic vs. randomized-within-level vs.
/// uniformly random stealing, for the fork-join and the mixed-mode Quicksort.
fn run_steal_policy_ablation(opts: &Options, config: &SortConfig) {
    use teamsteal_core::{Scheduler, StealPolicy};
    use teamsteal_sort::{fork_join_sort, mixed_mode_sort, std_sort};
    use teamsteal_util::timing::time;

    let threads = opts.threads_override.unwrap_or(8);
    let size = opts.scale.sizes()[2];
    println!(
        "Ablation: steal policy — {threads} threads, n = {size}, {} reps",
        opts.reps
    );
    println!(
        "{:<10} {:<26} {:>11} {:>6}",
        "Type", "Configuration", "seconds", "SU"
    );

    for distribution in Distribution::ALL {
        let input = distribution.generate(size, threads, opts.seed);
        // Sequential reference for the speedup column.
        let mut seq_samples = Vec::new();
        for _ in 0..opts.reps {
            let mut copy = input.clone();
            let (d, ()) = time(|| std_sort(&mut copy));
            seq_samples.push(d.as_secs_f64());
        }
        let seq = Aggregation::Average.pick(&seq_samples);
        let report = |label: &str, duration: Duration| {
            println!(
                "{:<10} {:<26} {:>11.3} {:>6.1}",
                distribution.label(),
                label,
                duration.as_secs_f64(),
                speedup(seq, duration)
            );
        };
        report("sequential (STL)", seq);

        let configs: [(&str, StealPolicy, bool); 5] = [
            ("fork / deterministic", StealPolicy::Deterministic, false),
            (
                "fork / rand-within-level",
                StealPolicy::RandomizedWithinLevel,
                false,
            ),
            ("fork / uniform-random", StealPolicy::UniformRandom, false),
            ("mmpar / deterministic", StealPolicy::Deterministic, true),
            (
                "mmpar / rand-within-level",
                StealPolicy::RandomizedWithinLevel,
                true,
            ),
        ];
        for (label, policy, mixed) in configs {
            let scheduler = Scheduler::builder()
                .threads(threads)
                .steal_policy(policy)
                .build();
            let mut samples = Vec::new();
            for _ in 0..opts.reps {
                let mut copy = input.clone();
                let (d, ()) = time(|| {
                    if mixed {
                        mixed_mode_sort(&scheduler, &mut copy, config)
                    } else {
                        fork_join_sort(&scheduler, &mut copy, config)
                    }
                });
                assert!(teamsteal_data::is_sorted(&copy));
                samples.push(d.as_secs_f64());
            }
            report(label, Aggregation::Average.pick(&samples));
        }
        println!();
    }
}
