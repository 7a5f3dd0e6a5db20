//! Hand-offs between two running workers on the dense team path: a stream
//! of singletons and warm team tasks must neither put its workers to sleep
//! between tasks (the team barrier polls, `announce` wakes only on a word
//! change) nor leave one of them parked as a registrant beside singletons it
//! could steal (`steal_round` takes smaller tasks before it registers).
//! A thief takes a batch from a long queue and one task from a short one,
//! and either way every task runs exactly once.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use teamsteal::{MetricsSnapshot, Scheduler, TaskContext};

mod common;
use common::{with_watchdog, WATCHDOG};

/// The tests time hand-offs between workers, so they take turns instead of
/// sharing the host's cores with each other.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const CHILDREN: usize = 20_000;
const TEAM_TASKS: u64 = (CHILDREN / 4) as u64;
const SINGLETONS: u64 = CHILDREN as u64 - TEAM_TASKS;

fn spin_for(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// What one dense stream executed, by worker.
#[derive(Default)]
struct Ran {
    singletons: [AtomicU64; 2],
    team_members: [AtomicU64; 2],
}

/// The benchmark's `team_stream` dense repetition at `p = 2`, a fifth of its
/// length: one root spawns `CHILDREN` children, every fourth a
/// `spawn_team(2)` with two barriers, the rest ~0.5 µs singletons.  Returns
/// the per-worker body counts and the scheduler's counter deltas.
fn dense_stream(scheduler: &Scheduler) -> (Arc<Ran>, MetricsSnapshot) {
    let ran = Arc::new(Ran::default());
    let before = scheduler.metrics();
    let counts = Arc::clone(&ran);
    scheduler.run(move |ctx| {
        for i in 0..CHILDREN {
            let counts = Arc::clone(&counts);
            if i % 4 == 3 {
                ctx.spawn_team(2, move |c| {
                    c.barrier();
                    counts.team_members[c.global_thread_id()].fetch_add(1, Ordering::Relaxed);
                    c.barrier();
                });
            } else {
                ctx.spawn(move |c| {
                    spin_for(Duration::from_nanos(500));
                    counts.singletons[c.global_thread_id()].fetch_add(1, Ordering::Relaxed);
                });
            }
        }
    });
    let delta = scheduler.metrics().delta_since(&before);
    (ran, delta)
}

fn total(per_worker: &[AtomicU64; 2]) -> u64 {
    per_worker.iter().map(|c| c.load(Ordering::Relaxed)).sum()
}

/// 5 000 warm team tasks and 15 000 singletons cost a handful of parks, not
/// one per hand-off: nothing on the path sleeps through its partner, and a
/// repeated `spawn_team(2)` wakes nobody.
#[test]
fn dense_stream_runs_without_parking_between_tasks() {
    with_watchdog(
        "dense_stream_runs_without_parking_between_tasks",
        WATCHDOG,
        || {
            let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
            let scheduler = Scheduler::with_threads(2);
            let (ran, delta) = dense_stream(&scheduler);

            assert_eq!(
                total(&ran.singletons),
                SINGLETONS,
                "every singleton ran once"
            );
            for (worker, members) in ran.team_members.iter().enumerate() {
                assert_eq!(
                    members.load(Ordering::Relaxed),
                    TEAM_TASKS,
                    "worker {worker} ran every team task once"
                );
            }
            assert_eq!(delta.tasks_executed, SINGLETONS + 1, "{delta:?}");
            assert_eq!(delta.team_tasks_executed, 2 * TEAM_TASKS, "{delta:?}");
            assert_eq!(
                delta.team_reuses + delta.teams_built,
                TEAM_TASKS,
                "{delta:?}"
            );
            assert_eq!(delta.liveness_resyncs, 0, "{delta:?}");
            assert!(delta.parks <= 64, "a park per hand-off is back: {delta:?}");
            assert!(
                delta.wakeups <= 64,
                "a wake per hand-off is back: {delta:?}"
            );
        },
    );
}

/// The second worker steals the singletons queued beside the advertised team
/// tasks instead of registering for a team that cannot form before they are
/// gone (Lemma 1).  A host that keeps one worker off its core for the whole
/// ~20 ms stream can starve it, so the stream is repeated until both workers
/// got their share (bounded attempts); exactly-once holds on every attempt.
#[test]
fn thief_takes_singletons_before_it_registers() {
    with_watchdog(
        "thief_takes_singletons_before_it_registers",
        WATCHDOG,
        || {
            let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
            const ATTEMPTS: usize = 20;
            let scheduler = Scheduler::with_threads(2);
            let mut seen = Vec::new();
            for _ in 0..ATTEMPTS {
                let (ran, delta) = dense_stream(&scheduler);
                assert_eq!(total(&ran.singletons), SINGLETONS);
                assert_eq!(total(&ran.team_members), 2 * TEAM_TASKS);
                let least = ran
                    .singletons
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .min()
                    .expect("two workers");
                if delta.steals > 0 && least * 20 >= SINGLETONS {
                    return;
                }
                seen.push((delta.steals, least));
            }
            panic!(
            "one worker ran under 5 % of {SINGLETONS} singletons in each of {ATTEMPTS} streams \
             (steals, smaller share): {seen:?}"
        );
        },
    );
}

/// Marks task `i` as run and fails if it already was (one bit per task).
struct RunOnce(Vec<AtomicU64>);

impl RunOnce {
    fn new(tasks: usize) -> Self {
        RunOnce((0..tasks.div_ceil(64)).map(|_| AtomicU64::new(0)).collect())
    }

    fn mark(&self, i: usize) {
        let bit = 1 << (i % 64);
        let before = self.0[i / 64].fetch_or(bit, Ordering::Relaxed);
        assert_eq!(before & bit, 0, "task {i} ran twice");
    }

    fn all_ran(&self, tasks: usize) -> bool {
        (0..tasks).all(|i| self.0[i / 64].load(Ordering::Relaxed) & (1 << (i % 64)) != 0)
    }
}

/// A flat spawn loop queues thousands of tasks, so a thief takes a batch
/// per steal (`tasks_stolen > steals`); a binary tree's LIFO queue holds
/// one pending sibling per level, far under the batch threshold, so every
/// steal there takes one task, the oldest and largest subtree
/// (`tasks_stolen == steals`).  Every task runs exactly once in both.  A
/// stream the host keeps one worker away from steals nothing, so each shape
/// is repeated until a steal happened (bounded attempts).
#[test]
fn thief_takes_a_batch_from_a_long_queue_and_one_task_from_a_short_one() {
    const CHILDREN: usize = 20_000;
    const DEPTH: u32 = 12;
    const TREE_TASKS: usize = (1 << (DEPTH + 1)) - 1;
    const ATTEMPTS: usize = 20;
    fn tree(ctx: &TaskContext<'_>, index: usize, ran: &Arc<RunOnce>) {
        ran.mark(index);
        if 2 * index + 1 >= TREE_TASKS {
            spin_for(Duration::from_micros(1));
            return;
        }
        for child in [2 * index + 1, 2 * index + 2] {
            let ran = Arc::clone(ran);
            ctx.spawn(move |c| tree(c, child, &ran));
        }
    }
    with_watchdog("thief_takes_a_batch_from_a_long_queue", WATCHDOG, || {
        let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let scheduler = Scheduler::with_threads(2);
        let mut seen = Vec::new();
        let batched = (0..ATTEMPTS).any(|_| {
            let ran = Arc::new(RunOnce::new(CHILDREN));
            let before = scheduler.metrics();
            let marks = Arc::clone(&ran);
            scheduler.run(move |ctx| {
                for i in 0..CHILDREN {
                    let marks = Arc::clone(&marks);
                    ctx.spawn(move |_| {
                        spin_for(Duration::from_nanos(500));
                        marks.mark(i);
                    });
                }
            });
            let delta = scheduler.metrics().delta_since(&before);
            assert!(
                ran.all_ran(CHILDREN),
                "a flat-loop task was lost: {delta:?}"
            );
            assert_eq!(delta.tasks_executed, CHILDREN as u64 + 1, "{delta:?}");
            seen.push((delta.steals, delta.tasks_stolen));
            delta.tasks_stolen > delta.steals
        });
        assert!(
            batched,
            "no steal took more than one task (steals, tasks stolen): {seen:?}"
        );
        let mut seen = Vec::new();
        let stole = (0..ATTEMPTS).any(|_| {
            let ran = Arc::new(RunOnce::new(TREE_TASKS));
            let before = scheduler.metrics();
            let marks = Arc::clone(&ran);
            scheduler.run(move |ctx| tree(ctx, 0, &marks));
            let delta = scheduler.metrics().delta_since(&before);
            assert!(ran.all_ran(TREE_TASKS), "a tree task was lost: {delta:?}");
            assert_eq!(
                delta.tasks_stolen, delta.steals,
                "a tree steal took a batch: {delta:?}"
            );
            seen.push(delta.steals);
            delta.steals > 0
        });
        assert!(
            stole,
            "no tree was stolen from in {ATTEMPTS} attempts (steals): {seen:?}"
        );
    });
}

/// A member that leaves its coordinator for a winning one (`try_release` in
/// `switch_coordinator`) lowers the old coordinator's `a` without waking
/// anybody.  That is sound only if no candidate of that block can be asleep
/// then (DESIGN.md §12): were one left behind, the `r = 4` task of a round
/// would wait for the 100 ms park backstop.  So conflict-heavy rounds at
/// `p = 4` — `r = 2` coordinators in both halves competing with an `r = 4`
/// one — must each take far less than a backstop.
#[test]
fn member_switches_leave_no_sleeper_behind() {
    with_watchdog("member_switches_leave_no_sleeper_behind", WATCHDOG, || {
        let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        const ROUNDS: usize = 200;
        const PAIRS_PER_ROUND: u64 = 6;
        let scheduler = Scheduler::with_threads(4);
        let before = scheduler.metrics();
        let members = Arc::new(AtomicU64::new(0));
        let mut round_times = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let members = Arc::clone(&members);
            let start = Instant::now();
            scheduler.run(move |ctx| {
                // Singletons that each spawn an `r = 2` task: thieves carry
                // them to both halves, where they become coordinators.
                for _ in 0..PAIRS_PER_ROUND {
                    let members = Arc::clone(&members);
                    ctx.spawn(move |c| {
                        c.spawn_team(2, move |t| {
                            t.barrier();
                            members.fetch_add(1, Ordering::Relaxed);
                        });
                    });
                }
                let members = Arc::clone(&members);
                ctx.spawn_team(4, move |t| {
                    t.barrier();
                    members.fetch_add(1, Ordering::Relaxed);
                });
            });
            round_times.push(start.elapsed());
        }
        let delta = scheduler.metrics().delta_since(&before);
        assert_eq!(
            members.load(Ordering::Relaxed),
            ROUNDS as u64 * (2 * PAIRS_PER_ROUND + 4),
            "{delta:?}"
        );
        assert_eq!(delta.liveness_resyncs, 0, "{delta:?}");
        round_times.sort();
        let median = round_times[ROUNDS / 2];
        assert!(
            median < Duration::from_millis(50),
            "rounds wait for the park backstop: median {median:?}, slowest {:?}, {delta:?}",
            round_times[ROUNDS - 1]
        );
    });
}

/// A streak of identical full-machine teams must classify every
/// publication exactly once — `teams_built + team_reuses` equals the
/// number of team tasks — and the scheduler must shut down cleanly while
/// the last team is still parked warm (the drop races the keep-alive
/// window, so both the warm and the expired arm get exercised over CI
/// runs).
#[test]
fn warm_streak_accounts_every_publication_and_drains_on_drop() {
    with_watchdog("warm_streak_accounts_every_publication", WATCHDOG, || {
        const ROUNDS: usize = 24;
        let scheduler = Scheduler::with_threads(2);
        let before = scheduler.metrics();
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..ROUNDS {
            let hits = Arc::clone(&hits);
            scheduler.run_team(2, move |ctx| {
                hits.fetch_add(1, Ordering::Relaxed);
                ctx.barrier();
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 2 * ROUNDS);
        let delta = scheduler.metrics().delta_since(&before);
        assert_eq!(
            delta.teams_built + delta.team_reuses,
            ROUNDS as u64,
            "every team publication must be counted as exactly one build or reuse"
        );
        // Immediately drop with the team likely still in its keep-alive
        // window: shutdown must disband the parked members, not hang.
        drop(scheduler);
    });
}
