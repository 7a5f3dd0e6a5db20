//! Stress tests for the moldable-team machinery (DESIGN.md §15): adaptive
//! `r_min..=r_max` requirements mixed with fixed-`r` spawns, warm team
//! reuse across consecutive tasks, and the shutdown path draining a parked
//! warm team.  Everything runs under the
//! shared watchdog so a lost wakeup in the pool shows up as a loud abort
//! with a stall report instead of a silent hang.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use teamsteal::{Scheduler, StealPolicy};

mod common;
use common::{with_watchdog, WATCHDOG};

/// Moldable and fixed-requirement team tasks interleaved in one scope,
/// with sequential riders mixed in.  Every moldable task must run on an
/// effective requirement inside its declared range, every fixed task on
/// exactly its requirement, and nothing may be lost.
#[test]
fn moldable_and_fixed_teams_mix() {
    with_watchdog("moldable_and_fixed_teams_mix", WATCHDOG, || {
        let scheduler = Scheduler::with_threads(4);
        let moldable_runs = Arc::new(AtomicUsize::new(0));
        let fixed_hits = Arc::new(AtomicUsize::new(0));
        let riders = Arc::new(AtomicUsize::new(0));
        const ROUNDS: usize = 12;
        scheduler.scope(|scope| {
            for i in 0..ROUNDS {
                let moldable_runs = Arc::clone(&moldable_runs);
                scope.spawn_team_moldable(2..=4, move |ctx| {
                    let r = ctx.requested_threads();
                    assert!(
                        (2..=4).contains(&r),
                        "effective requirement {r} escaped the declared 2..=4 range"
                    );
                    assert!(ctx.team_size() >= r);
                    if ctx.local_id() == 0 {
                        moldable_runs.fetch_add(1, Ordering::Relaxed);
                    }
                    ctx.barrier();
                });
                let fixed_hits = Arc::clone(&fixed_hits);
                let r = if i % 2 == 0 { 2 } else { 4 };
                scope.spawn_team(r, move |ctx| {
                    assert_eq!(ctx.requested_threads(), r);
                    fixed_hits.fetch_add(1, Ordering::Relaxed);
                    ctx.barrier();
                });
                let riders = Arc::clone(&riders);
                scope.spawn(move |_| {
                    riders.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(moldable_runs.load(Ordering::Relaxed), ROUNDS);
        // Half the fixed teams ran on r = 2, half on r = 4.
        assert_eq!(fixed_hits.load(Ordering::Relaxed), ROUNDS / 2 * (2 + 4));
        assert_eq!(riders.load(Ordering::Relaxed), ROUNDS);
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

/// Moldable spawns on the `UniformRandom` (Randfork) baseline must
/// collapse to `r_min`: that policy has no hierarchy to recruit teams
/// from, so `1..=k` ranges still work and run as sequential tasks when
/// `r_min` is 1.
#[test]
fn moldable_collapses_to_r_min_under_uniform_random() {
    with_watchdog("moldable_collapses_under_uniform_random", WATCHDOG, || {
        let scheduler = Scheduler::builder()
            .threads(4)
            .steal_policy(StealPolicy::UniformRandom)
            .seed(0x5EED)
            .build();
        let runs = Arc::new(AtomicUsize::new(0));
        scheduler.scope(|scope| {
            for _ in 0..32 {
                let runs = Arc::clone(&runs);
                scope.spawn_team_moldable(1..=4, move |ctx| {
                    assert_eq!(
                        ctx.requested_threads(),
                        1,
                        "UniformRandom must pick r_min — it cannot build teams"
                    );
                    runs.fetch_add(1, Ordering::Relaxed);
                    ctx.barrier();
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 32);
        assert_eq!(scheduler.metrics().teams_formed, 0);
    });
}
