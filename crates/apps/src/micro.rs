//! Scheduler micro-scenarios for the perf-trajectory harness.
//!
//! The application kernels measure end-to-end throughput, which buries the
//! scheduler's per-operation costs under user work.  The scenarios in this
//! module isolate exactly the hot paths the runtime optimizes:
//!
//! * [`spawn_overhead`] — a tight spawn/join loop of empty tasks: the cost of
//!   allocating a task node, pushing it through a deque, popping and
//!   executing it, and recycling the node.  This is the paper's "overhead in
//!   the degenerate case" measured directly; at `p ≥ 2` it is the flat
//!   producer against thieves (the benchmark's spawn rungs are `p = 1`).
//! * [`injection_throughput`] — many concurrent submitter threads feeding
//!   one persistent scheduler: the aggregate capacity of the (sharded)
//!   external injection queue, in tasks per second, plus sampled
//!   submit-to-start latencies.  The direct measurement of the sharded
//!   injection path (DESIGN.md §13).
//! * [`soak`] — a bounded-memory probe: many root-task lifetimes with
//!   deque-growing spawn bursts, sampling the scheduler's retained
//!   injection-queue segments and deferred-reclamation backlog between
//!   scopes.  Its gauges (peak/final footprint) ride in the perf report's
//!   `extra` object; the reclaimed counts are ordinary scheduler metrics.
//! * [`wakeup_latency`] — external-submission wake latency: let every worker
//!   park, submit one root task, measure submit → execution-start.  The
//!   direct measurement of the parking subsystem's wake path (DESIGN.md
//!   §12); its samples *are* the latencies, so the report's `median_s` /
//!   `p95_s` read as seconds of wake latency.
//! * [`idle_burn`] — CPU time an otherwise idle scheduler burns per second
//!   of wall time.  Near-zero with event-driven parking; proportional to
//!   `p / poll-interval` under sleep-polling.
//! * [`team_build_streak`] / [`team_build_cold`] — team-build latency
//!   (submit → first team-member instruction) for back-to-back same-`r`
//!   team tasks vs the same tasks spaced past the warm keep-alive window:
//!   the direct measurement of the warm team-reuse pool (DESIGN.md §15).
//!   Like `wakeup_latency`, the samples *are* the latencies.
//! * [`team_build_mix`] — a bursty heterogeneous requirement mix (full-width
//!   streaks, a half-width task, sequential riders) driving shrink-reuse and
//!   the reuse pool together; its scheduler counter deltas (`teams_built`,
//!   `team_reuses`) tell how much registration traffic the pool amortized
//!   away.
//!
//! Every scenario validates its own execution count, so a scheduler that
//! drops or duplicates tasks can never report a good time.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use teamsteal_core::Scheduler;
use teamsteal_util::timing::time;

/// One timed spawn/join loop: a single root task spawns `spawns` empty child
/// tasks, and the call returns once the scope has drained them all.
///
/// With one worker thread this is a pure producer/consumer loop over the
/// worker's own deque — no steals, no teams — so the measured time is
/// dominated by per-spawn allocation and queue traffic.
///
/// # Panics
///
/// Panics if not exactly `spawns` children executed.
pub fn spawn_overhead(scheduler: &Scheduler, spawns: usize) -> Duration {
    // The children are empty and are counted by the workers' own counters:
    // a shared counter (let alone an `Arc` of one, cloned per child) would
    // put a contended line of the probe's own making under the measurement.
    let before = scheduler.metrics();
    let (duration, ()) = time(|| {
        scheduler.run(move |ctx| {
            for _ in 0..spawns {
                ctx.spawn(|_| {});
            }
        });
    });
    assert_eq!(
        scheduler.metrics().delta_since(&before).tasks_executed,
        spawns as u64 + 1,
        "spawn_overhead lost or duplicated tasks"
    );
    duration
}

/// Every how-many-th submission of one [`injection_throughput`] producer
/// records a submit-to-start latency sample.  Sampling (instead of timing
/// every task) keeps the measurement from turning into an `Instant::now`
/// benchmark while still yielding hundreds of samples per run.
pub const INJECTION_SAMPLE_EVERY: usize = 64;

/// Outcome of one [`injection_throughput`] run.
#[derive(Debug, Clone, Default)]
pub struct InjectionOutcome {
    /// Wall-clock time from the first submission to the last task draining.
    pub duration: Duration,
    /// Total root tasks submitted (and executed — the count is asserted).
    pub tasks: usize,
    /// Sampled submit-to-start latencies (every
    /// [`INJECTION_SAMPLE_EVERY`]-th submission per producer).
    pub submit_to_start: Vec<Duration>,
}

impl InjectionOutcome {
    /// Aggregate injection throughput over the timed region.
    pub fn tasks_per_sec(&self) -> f64 {
        self.tasks as f64 / self.duration.as_secs_f64()
    }
}

/// One timed multi-producer injection run: `producers` submitter threads
/// each open one scope against the shared scheduler and submit
/// `per_producer` empty root tasks, all concurrently.  The timed region
/// covers every submission *and* the draining of every task, so the number
/// is end-to-end injection capacity, not just push throughput.  With a
/// sharded injector the producers spread over the shards (round-robin
/// affinity) instead of serializing on one head/tail cache-line pair.
///
/// # Panics
///
/// Panics if not exactly `producers * per_producer` tasks executed or a
/// sampled task never started.
pub fn injection_throughput(
    scheduler: &Scheduler,
    producers: usize,
    per_producer: usize,
) -> InjectionOutcome {
    let executed = Arc::new(AtomicUsize::new(0));
    let (duration, cells) = time(|| {
        std::thread::scope(|ts| {
            let handles: Vec<_> = (0..producers)
                .map(|_| {
                    let executed = Arc::clone(&executed);
                    ts.spawn(move || {
                        let mut cells: Vec<Arc<AtomicU64>> = Vec::new();
                        scheduler.scope(|scope| {
                            for k in 0..per_producer {
                                let counter = Arc::clone(&executed);
                                if k % INJECTION_SAMPLE_EVERY == 0 {
                                    let cell = Arc::new(AtomicU64::new(u64::MAX));
                                    let started = Arc::clone(&cell);
                                    let submit = Instant::now();
                                    scope.spawn(move |_| {
                                        started.store(
                                            submit.elapsed().as_nanos() as u64,
                                            Ordering::Relaxed,
                                        );
                                        counter.fetch_add(1, Ordering::Relaxed);
                                    });
                                    cells.push(cell);
                                } else {
                                    scope.spawn(move |_| {
                                        counter.fetch_add(1, Ordering::Relaxed);
                                    });
                                }
                            }
                        });
                        cells
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("producer thread panicked"))
                .collect::<Vec<_>>()
        })
    });
    assert_eq!(
        executed.load(Ordering::Relaxed),
        producers * per_producer,
        "injection_throughput lost or duplicated tasks"
    );
    let submit_to_start = cells
        .iter()
        .map(|cell| {
            let ns = cell.load(Ordering::Relaxed);
            assert_ne!(ns, u64::MAX, "a sampled injection task never started");
            Duration::from_nanos(ns)
        })
        .collect();
    InjectionOutcome {
        duration,
        tasks: producers * per_producer,
        submit_to_start,
    }
}

/// Children spawned by every root task of the [`soak`] scenario.  Above the
/// deque's minimum capacity (32), so each burst exercises buffer growth at
/// least until the per-worker deques reach their high-water capacity.
pub const SOAK_BURST: usize = 48;

/// Memory-footprint gauges recorded by one [`soak`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoakOutcome {
    /// Wall-clock time of the timed region.
    pub duration: Duration,
    /// Highest retained injection-segment count observed between scopes.
    pub peak_injector_segments: usize,
    /// Retained injection-segment count after the last scope drained.
    pub final_injector_segments: usize,
    /// Highest deferred-but-not-yet-freed object count observed.
    pub peak_deferred_items: usize,
}

/// One timed soak run: `scopes` back-to-back scopes, each injecting
/// `per_scope` root tasks that each spawn a [`SOAK_BURST`]-child burst —
/// i.e. many *root-task lifetimes*, the traffic pattern whose segments the
/// seed runtime used to retain forever.  Samples the reclamation gauges
/// ([`Scheduler::reclamation`]) between scopes; with healthy epoch
/// reclamation the peak stays bounded instead of growing with
/// `scopes * per_scope`.
///
/// # Panics
///
/// Panics if not exactly `scopes * per_scope * (SOAK_BURST + 1)` tasks
/// executed.
pub fn soak(scheduler: &Scheduler, scopes: usize, per_scope: usize) -> SoakOutcome {
    let executed = Arc::new(AtomicUsize::new(0));
    let mut outcome = SoakOutcome::default();
    let (duration, ()) = time(|| {
        for _ in 0..scopes {
            scheduler.scope(|scope| {
                for _ in 0..per_scope {
                    let counter = Arc::clone(&executed);
                    scope.spawn(move |ctx| {
                        for _ in 0..SOAK_BURST {
                            let counter = Arc::clone(&counter);
                            ctx.spawn(move |_| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            let r = scheduler.reclamation();
            outcome.peak_injector_segments =
                outcome.peak_injector_segments.max(r.injector_segments);
            outcome.peak_deferred_items = outcome.peak_deferred_items.max(r.deferred_items);
        }
    });
    outcome.duration = duration;
    outcome.final_injector_segments = scheduler.reclamation().injector_segments;
    assert_eq!(
        executed.load(Ordering::Relaxed),
        scopes * per_scope * (SOAK_BURST + 1),
        "soak lost or duplicated tasks"
    );
    outcome
}

/// Pause between [`wakeup_latency`] submissions, long enough for every
/// worker to exhaust its spin/yield prefix and commit an eventcount park.
pub const WAKEUP_SETTLE: Duration = Duration::from_millis(2);

/// Measures external-submission wake latency: `submissions` times, let the
/// (empty) scheduler settle so its workers park, then submit one root task
/// and record the time from just before the submission to the task's first
/// instruction.  Returns one latency sample per submission.
///
/// The numbers include the submit path itself (node allocation, injector
/// push) on top of the park-to-wake time, which is exactly what an external
/// client of the scheduler experiences.
///
/// # Panics
///
/// Panics if any submission's task fails to execute.
pub fn wakeup_latency(scheduler: &Scheduler, submissions: usize) -> Vec<Duration> {
    let mut samples = Vec::with_capacity(submissions);
    for _ in 0..submissions {
        std::thread::sleep(WAKEUP_SETTLE);
        // On a busy host the workers' spin/yield prefix can outlast the
        // pause, and the sample would time a spinning worker's pickup, not a
        // wake: wait (bounded) until every worker has committed its park.
        // Each park ends in exactly one notified or backstop wake (the
        // counters are read while workers run, hence saturating).
        let settle_deadline = Instant::now() + WAKEUP_SETTLE * 50;
        while Instant::now() < settle_deadline {
            let m = scheduler.metrics();
            let parked = m.parks.saturating_sub(m.wakeups + m.spurious_wakes);
            if parked >= scheduler.num_threads() as u64 {
                break;
            }
            std::thread::sleep(WAKEUP_SETTLE);
        }
        let started_ns = Arc::new(AtomicU64::new(u64::MAX));
        let cell = Arc::clone(&started_ns);
        let submit = Instant::now();
        scheduler.scope(|scope| {
            scope.spawn(move |_| {
                cell.store(submit.elapsed().as_nanos() as u64, Ordering::Relaxed);
            });
        });
        let ns = started_ns.load(Ordering::Relaxed);
        assert_ne!(ns, u64::MAX, "wakeup_latency task never executed");
        samples.push(Duration::from_nanos(ns));
    }
    samples
}

/// Gap inserted before every [`team_build_cold`] submission: comfortably
/// past the default warm keep-alive window (200 µs), so every cold team
/// task finds the previous team disbanded and pays the full registration
/// protocol.
pub const TEAM_BUILD_COLD_GAP: Duration = Duration::from_millis(2);

/// Outcome of one team-build latency run ([`team_build_streak`] /
/// [`team_build_cold`]).
#[derive(Debug, Clone, Default)]
pub struct TeamBuildOutcome {
    /// Wall-clock time of the whole run (including any cold gaps).
    pub duration: Duration,
    /// Team tasks submitted (and executed — the count is asserted).
    pub tasks: usize,
    /// Submit-to-team-start latency of every task: time from just before the
    /// `run_team` submission to team member 0's first instruction.
    pub submit_to_start: Vec<Duration>,
}

/// `tasks` back-to-back `run_team(r, …)` submissions with no gap: after the
/// first build, each next task arrives inside the warm keep-alive window and
/// should reuse the still-formed team (one publication write instead of the
/// full registration protocol).  The per-task submit-to-start latencies are
/// returned so the warm fast path is measured directly.
///
/// # Panics
///
/// Panics if any team task fails to execute exactly once.
pub fn team_build_streak(scheduler: &Scheduler, r: usize, tasks: usize) -> TeamBuildOutcome {
    team_build_run(scheduler, r, tasks, None)
}

/// The cold-path control for [`team_build_streak`]: identical submissions,
/// but each preceded by a [`TEAM_BUILD_COLD_GAP`] pause so the warm window
/// has expired and every task rebuilds its team from scratch.  The gap is
/// outside the per-task latency samples (each sample starts at its own
/// submission), so `streak` vs `cold` sample medians compare the reuse fast
/// path against the full protocol on otherwise identical work.
///
/// # Panics
///
/// Panics if any team task fails to execute exactly once.
pub fn team_build_cold(scheduler: &Scheduler, r: usize, tasks: usize) -> TeamBuildOutcome {
    team_build_run(scheduler, r, tasks, Some(TEAM_BUILD_COLD_GAP))
}

fn team_build_run(
    scheduler: &Scheduler,
    r: usize,
    tasks: usize,
    gap: Option<Duration>,
) -> TeamBuildOutcome {
    let executed = Arc::new(AtomicUsize::new(0));
    let mut submit_to_start = Vec::with_capacity(tasks);
    let (duration, ()) = time(|| {
        for _ in 0..tasks {
            if let Some(gap) = gap {
                std::thread::sleep(gap);
            }
            let started_ns = Arc::new(AtomicU64::new(u64::MAX));
            let cell = Arc::clone(&started_ns);
            let counter = Arc::clone(&executed);
            let submit = Instant::now();
            scheduler.run_team(r, move |ctx| {
                if ctx.local_id() == 0 {
                    cell.store(submit.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                ctx.barrier();
            });
            let ns = started_ns.load(Ordering::Relaxed);
            assert_ne!(ns, u64::MAX, "a team_build task never started");
            submit_to_start.push(Duration::from_nanos(ns));
        }
    });
    assert_eq!(
        executed.load(Ordering::Relaxed),
        tasks,
        "team_build lost or duplicated team tasks"
    );
    TeamBuildOutcome {
        duration,
        tasks,
        submit_to_start,
    }
}

/// Fixed-`r` team tasks per burst of the [`team_build_mix`] scenario.
pub const MIX_STREAK: usize = 4;

/// One timed heterogeneous-requirement run: a root task spawns `bursts`
/// bursts, each a streak of [`MIX_STREAK`] team tasks of width
/// `r = min(p, 4)`, one task of `r / 2` (a rider at `r = 2`, a smaller team
/// at `r = 4`) and one sequential rider.  The pattern exercises the
/// shrink-reuse rule (§3.1) and the warm pool in one scope; the caller reads
/// the `teams_built` / `team_reuses` counter deltas for the reuse hit rate.
/// Needs `p ≥ 2`.
///
/// # Panics
///
/// Panics if not exactly `bursts * (MIX_STREAK + 2)` tasks executed.
pub fn team_build_mix(scheduler: &Scheduler, bursts: usize) -> Duration {
    let executed = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&executed);
    let (duration, ()) = time(|| {
        scheduler.scope(|scope| {
            let counter = Arc::clone(&counter);
            scope.spawn(move |ctx| {
                let wide = ctx.num_threads().min(4);
                for _ in 0..bursts {
                    for _ in 0..MIX_STREAK {
                        let c = Arc::clone(&counter);
                        ctx.spawn_team(wide, move |tc| {
                            if tc.local_id() == 0 {
                                c.fetch_add(1, Ordering::Relaxed);
                            }
                            tc.barrier();
                        });
                    }
                    let c = Arc::clone(&counter);
                    ctx.spawn_team(wide / 2, move |tc| {
                        if tc.local_id() == 0 {
                            c.fetch_add(1, Ordering::Relaxed);
                        }
                        tc.barrier();
                    });
                    let c = Arc::clone(&counter);
                    ctx.spawn(move |_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
    });
    assert_eq!(
        executed.load(Ordering::Relaxed),
        bursts * (MIX_STREAK + 2),
        "team_build_mix lost or duplicated tasks"
    );
    duration
}

/// Gauges recorded by one [`idle_burn`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdleBurnOutcome {
    /// Wall-clock time of the measured idle interval.
    pub wall: Duration,
    /// CPU time the whole process consumed over the interval, or `None`
    /// when the platform offers no cheap process-CPU clock (non-Linux).
    pub cpu: Option<Duration>,
}

/// Measures the CPU time an idle scheduler burns: run one trivial task
/// (so every worker is demonstrably alive), wait for the workers to park,
/// then sample process CPU time across `wall` of doing nothing.
///
/// CPU time is read with [`process_cpu_time`] (nanosecond granularity,
/// covers every worker thread); on platforms where that is unavailable the
/// outcome's `cpu` is `None` and the caller should report the scenario as
/// unavailable rather than as zero burn.
pub fn idle_burn(scheduler: &Scheduler, wall: Duration) -> IdleBurnOutcome {
    scheduler.run(|_| {});
    // Let the workers drain their spin prefixes and park.
    std::thread::sleep(WAKEUP_SETTLE * 4);
    let before = process_cpu_time();
    let start = Instant::now();
    std::thread::sleep(wall);
    let elapsed = start.elapsed();
    let cpu = match (before, process_cpu_time()) {
        (Some(b), Some(a)) => Some(a.saturating_sub(b)),
        _ => None,
    };
    IdleBurnOutcome { wall: elapsed, cpu }
}

/// Total CPU time this process has consumed, from
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`: nanosecond granularity, and —
/// unlike a sum over the live threads' `schedstat` — it keeps the time of
/// threads that have exited, so it never runs backwards.  `None` where the
/// declaration below is not known to match the platform's libc.
pub fn process_cpu_time() -> Option<Duration> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct timespec` of 64-bit Linux.
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            // std links libc on this target; no crate is needed for one call.
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` with the layout
        // this target's libc expects, and the call keeps no reference to it.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
            return None;
        }
        Some(Duration::new(
            u64::try_from(ts.tv_sec).ok()?,
            u32::try_from(ts.tv_nsec).ok()?,
        ))
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamsteal_core::test_support::{with_watchdog, WATCHDOG};

    #[test]
    fn spawn_overhead_runs_and_validates() {
        let scheduler = Scheduler::with_threads(1);
        let d = spawn_overhead(&scheduler, 10_000);
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn wakeup_latency_returns_one_sample_per_submission() {
        let scheduler = Scheduler::with_threads(2);
        let samples = wakeup_latency(&scheduler, 5);
        assert_eq!(samples.len(), 5);
        assert!(samples.iter().all(|&s| s > Duration::ZERO));
        // Wakes actually flowed through the parking subsystem.
        let m = scheduler.metrics();
        assert!(m.parks > 0, "workers never parked between submissions");
        assert!(m.wakeups > 0, "submissions never woke a parked worker");
    }

    #[test]
    fn idle_burn_measures_an_interval() {
        let scheduler = Scheduler::with_threads(2);
        let outcome = idle_burn(&scheduler, Duration::from_millis(50));
        assert!(outcome.wall >= Duration::from_millis(50));
        if let Some(cpu) = outcome.cpu {
            // Parked workers burn (almost) nothing; allow generous slack for
            // the test harness's own threads on a busy host.
            assert!(
                cpu < outcome.wall * 2,
                "idle scheduler burned {cpu:?} CPU over {:?} wall",
                outcome.wall
            );
        }
    }

    /// The platforms on which [`process_cpu_time`] has a clock to read.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    mod process_cpu_clock {
        use super::*;

        fn burn_cpu() {
            let mut acc = 0u64;
            for i in 0..2_000_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
        }

        #[test]
        fn is_monotone() {
            let a = process_cpu_time().expect("process CPU clock available on Linux");
            // Burn a little CPU so the clock visibly advances.
            burn_cpu();
            let b = process_cpu_time().expect("process CPU clock available on Linux");
            assert!(b > a);
        }

        /// The time of a thread that exits between two samples must stay in
        /// the total (a per-live-thread sum loses it and runs backwards).
        #[test]
        fn keeps_the_time_of_exited_threads() {
            let before = process_cpu_time().expect("process CPU clock available on Linux");
            // The thread reports its own on-CPU nanoseconds just before it
            // exits, so preemption on a busy host cannot fail the comparison.
            let on_cpu = std::thread::spawn(|| {
                burn_cpu();
                let schedstat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
                schedstat.split_whitespace().next()?.parse::<u64>().ok()
            })
            .join()
            .expect("busy thread panicked");
            let after = process_cpu_time().expect("process CPU clock available on Linux");
            let on_cpu = Duration::from_nanos(on_cpu.unwrap_or(0));
            assert!(
                after >= before + on_cpu / 2,
                "{before:?} -> {after:?} lost an exited thread's {on_cpu:?}"
            );
        }
    }

    #[test]
    fn injection_throughput_counts_and_samples() {
        let scheduler = Scheduler::with_threads(2);
        let before = scheduler.metrics();
        let outcome = injection_throughput(&scheduler, 8, 200);
        assert_eq!(outcome.tasks, 8 * 200);
        assert!(outcome.duration > Duration::ZERO);
        assert!(outcome.tasks_per_sec() > 0.0);
        // ceil(200 / 64) = 4 samples per producer.
        assert_eq!(outcome.submit_to_start.len(), 8 * 4);
        let delta = scheduler.metrics().delta_since(&before);
        assert_eq!(delta.tasks_injected, 8 * 200);
        // Every injector pop is classified as local or remote, never both.
        assert_eq!(
            delta.injector_local_pops + delta.injector_remote_pops,
            delta.tasks_injected
        );
    }

    #[test]
    fn team_build_streak_reuses_the_warm_team() {
        with_watchdog("team_build_streak_reuses_the_warm_team", WATCHDOG, || {
            let scheduler = Scheduler::with_threads(4);
            let before = scheduler.metrics();
            let outcome = team_build_streak(&scheduler, 4, 48);
            assert_eq!(outcome.tasks, 48);
            assert_eq!(outcome.submit_to_start.len(), 48);
            let delta = scheduler.metrics().delta_since(&before);
            // Every team publication is classified as a cold build or a warm
            // reuse, never both and never neither.
            assert_eq!(delta.teams_built + delta.team_reuses, 48);
            // Back-to-back same-r submissions land inside the keep-alive
            // window; over 48 of them some must hit the warm pool.
            assert!(
                delta.team_reuses > 0,
                "no warm reuse over 48 back-to-back team tasks"
            );
        });
    }

    #[test]
    fn team_build_cold_pays_the_full_protocol() {
        with_watchdog("team_build_cold_pays_the_full_protocol", WATCHDOG, || {
            let scheduler = Scheduler::with_threads(4);
            let before = scheduler.metrics();
            let outcome = team_build_cold(&scheduler, 4, 8);
            assert_eq!(outcome.submit_to_start.len(), 8);
            let delta = scheduler.metrics().delta_since(&before);
            assert_eq!(delta.teams_built + delta.team_reuses, 8);
            // With every submission spaced past the keep-alive window, most
            // teams are rebuilt from scratch (a reuse would need the previous
            // team to outlive its window, which only extreme descheduling of
            // the coordinator can cause).
            assert!(
                delta.teams_built > 0,
                "cold-gap submissions never rebuilt a team"
            );
        });
    }

    #[test]
    fn team_build_mix_amortizes_registration() {
        with_watchdog("team_build_mix_amortizes_registration", WATCHDOG, || {
            let scheduler = Scheduler::with_threads(4);
            let before = scheduler.metrics();
            let d = team_build_mix(&scheduler, 6);
            assert!(d > Duration::ZERO);
            let delta = scheduler.metrics().delta_since(&before);
            assert!(delta.teams_built >= 1);
            // The fixed-r streaks queue together, so after the first build the
            // remaining streak publications ride the formed team.
            assert!(
                delta.team_reuses as usize >= 6 * MIX_STREAK - 1,
                "only {} reuses over {} streak tasks",
                delta.team_reuses,
                6 * MIX_STREAK
            );
        });
    }

    #[test]
    fn soak_reports_bounded_footprint() {
        let scheduler = Scheduler::with_threads(2);
        let outcome = soak(&scheduler, 40, 16);
        assert!(outcome.duration > Duration::ZERO);
        // 640 root tasks cross ten 64-slot segments; reclamation must keep
        // the retained chain far below that (a generous bound to stay
        // timing-insensitive — the exact gauge is asserted in the dedicated
        // reclamation integration tests).
        assert!(
            outcome.peak_injector_segments <= 8,
            "peak {} segments retained",
            outcome.peak_injector_segments
        );
        assert!(outcome.final_injector_segments >= 1);
    }
}
