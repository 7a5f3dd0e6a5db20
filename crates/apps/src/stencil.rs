//! Iterative 1-D Jacobi stencil (heat diffusion) as a long-lived team task.
//!
//! An iterative stencil is the textbook case of "data-parallel tasks with
//! dependencies" from the paper's introduction: every sweep is data parallel,
//! but sweep `t + 1` may only start once sweep `t` has finished everywhere.
//! A fork-join runtime re-spawns `p` tasks per sweep and joins them; on the
//! `teamsteal` scheduler the **whole iteration** is a single team task — the
//! team is built once (one CAS per member), stays together for every sweep
//! (the team-reuse property of Section 3.1), and sweeps are separated by
//! cheap intra-team barriers.
//!
//! The kernel solves the 1-D heat equation with fixed (Dirichlet) boundary
//! values: `next[i] = prev[i] + alpha * (prev[i-1] - 2 prev[i] + prev[i+1])`.

use teamsteal_core::Scheduler;
use teamsteal_util::SendMutPtr;

use crate::team_size::{best_team_size, chunk_range};

/// Parameters of a Jacobi run.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilConfig {
    /// Number of sweeps to perform.
    pub sweeps: usize,
    /// Diffusion coefficient (`0 < alpha <= 0.5` for stability).
    pub alpha: f64,
    /// Minimum number of grid cells per team member before the iteration is
    /// run by a team instead of sequentially.
    pub min_cells_per_member: usize,
}

impl Default for StencilConfig {
    fn default() -> Self {
        StencilConfig {
            sweeps: 100,
            alpha: 0.25,
            min_cells_per_member: 8 * 1024,
        }
    }
}

/// One sequential Jacobi sweep over the interior cells of `prev` into `next`.
fn sweep_range(prev: &[f64], next: &mut [f64], alpha: f64, range: std::ops::Range<usize>) {
    for i in range {
        next[i] = prev[i] + alpha * (prev[i - 1] - 2.0 * prev[i] + prev[i + 1]);
    }
}

/// Sequential reference implementation: `config.sweeps` Jacobi sweeps over
/// `grid`, returning the final state.
pub fn jacobi_sequential(grid: &[f64], config: &StencilConfig) -> Vec<f64> {
    let n = grid.len();
    let mut prev = grid.to_vec();
    if n < 3 || config.sweeps == 0 {
        return prev;
    }
    let mut next = prev.clone();
    for _ in 0..config.sweeps {
        sweep_range(&prev, &mut next, config.alpha, 1..n - 1);
        // Boundaries are fixed.
        next[0] = prev[0];
        next[n - 1] = prev[n - 1];
        std::mem::swap(&mut prev, &mut next);
    }
    prev
}

/// Mixed-mode Jacobi iteration: the full sweep loop runs inside one team task
/// (or sequentially if the grid is too small for a team to pay off).
pub fn jacobi_mixed(scheduler: &Scheduler, grid: &[f64], config: &StencilConfig) -> Vec<f64> {
    let n = grid.len();
    if n < 3 || config.sweeps == 0 {
        return grid.to_vec();
    }
    let interior = n - 2;
    let team = best_team_size(
        interior,
        config.min_cells_per_member,
        scheduler.num_threads(),
    );
    if team <= 1 {
        return jacobi_sequential(grid, config);
    }

    let mut buf_a = grid.to_vec();
    let mut buf_b = grid.to_vec();
    let pa = SendMutPtr::from_slice(&mut buf_a);
    let pb = SendMutPtr::from_slice(&mut buf_b);
    let sweeps = config.sweeps;
    let alpha = config.alpha;

    scheduler.run_team(team, move |ctx| {
        let members = ctx.team_size();
        let me = ctx.local_id();
        // Each member owns a contiguous stripe of interior cells for the whole
        // iteration (good locality: the stripe stays in the member's cache).
        let my_interior = chunk_range(interior, members, me);
        let my_range = my_interior.start + 1..my_interior.end + 1;
        // The member additionally owns the boundary cell adjacent to its
        // stripe, so write ranges of different members never overlap.  A
        // member with an empty stripe (more members than interior cells)
        // owns nothing; the boundary cells belong to the first member and to
        // the *non-empty* stripe that touches the right edge.
        let owns_left = me == 0;
        let owns_right = !my_interior.is_empty() && my_interior.end == interior;
        let write_start = if owns_left { 0 } else { my_range.start };
        let write_end = if owns_right { n } else { my_range.end };
        for sweep in 0..sweeps {
            let (src, dst) = if sweep % 2 == 0 { (pa, pb) } else { (pb, pa) };
            // SAFETY: the source buffer is only *read* during this sweep (all
            // writes go to the destination buffer), and the previous sweep's
            // writes to it are ordered before these reads by the barrier.
            let prev: &[f64] = unsafe { std::slice::from_raw_parts(src.get(), n) };
            // SAFETY: write ranges are disjoint across members by
            // construction, so this &mut slice aliases nothing.
            let next = unsafe { dst.add(write_start).slice_mut(write_end - write_start) };
            for i in my_range.clone() {
                next[i - write_start] =
                    prev[i] + alpha * (prev[i - 1] - 2.0 * prev[i] + prev[i + 1]);
            }
            if owns_left {
                next[0] = prev[0];
            }
            if owns_right {
                next[n - 1 - write_start] = prev[n - 1];
            }
            // Sweep t+1 must not read cells before every member finished
            // writing them in sweep t.
            ctx.barrier();
        }
    });

    if sweeps % 2 == 0 {
        buf_a
    } else {
        buf_b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use teamsteal_core::test_support::{with_watchdog, WATCHDOG};

    fn spike(n: usize) -> Vec<f64> {
        let mut g = vec![0.0; n];
        if n > 0 {
            g[n / 2] = 1000.0;
        }
        g
    }

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn sequential_conserves_heat_with_zero_boundaries() {
        // With fixed zero boundaries, the interior total can only leak through
        // the boundary cells; after a few sweeps of a centered spike nothing
        // has reached the boundary yet, so the sum is conserved.
        let grid = spike(1001);
        let out = jacobi_sequential(
            &grid,
            &StencilConfig {
                sweeps: 10,
                alpha: 0.25,
                min_cells_per_member: 1024,
            },
        );
        let total_in: f64 = grid.iter().sum();
        let total_out: f64 = out.iter().sum();
        assert!((total_in - total_out).abs() < 1e-9);
        // Diffusion flattens the spike.
        assert!(out[500] < 1000.0);
        assert!(out[499] > 0.0 && out[501] > 0.0);
    }

    #[test]
    fn tiny_grids_and_zero_sweeps_are_identity() {
        let s = Scheduler::with_threads(2);
        let cfg = StencilConfig {
            sweeps: 0,
            ..StencilConfig::default()
        };
        let grid = vec![1.0, 2.0, 3.0];
        assert_eq!(jacobi_mixed(&s, &grid, &cfg), grid);
        let cfg = StencilConfig::default();
        assert_eq!(jacobi_mixed(&s, &[1.0, 2.0], &cfg), vec![1.0, 2.0]);
        assert_eq!(jacobi_mixed(&s, &[], &cfg), Vec::<f64>::new());
    }

    #[test]
    fn mixed_matches_sequential_on_large_grid() {
        with_watchdog("mixed_matches_sequential_on_large_grid", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let grid: Vec<f64> = (0..80_000).map(|i| ((i % 97) as f64) * 0.5).collect();
            let cfg = StencilConfig {
                sweeps: 20,
                alpha: 0.2,
                min_cells_per_member: 1024,
            };
            let reference = jacobi_sequential(&grid, &cfg);
            let got = jacobi_mixed(&s, &grid, &cfg);
            assert!(max_abs_diff(&reference, &got) < 1e-12);
            let m = s.metrics();
            assert!(m.teams_formed > 0, "large stencils must run as a team task");
            // The whole iteration is one task: the team is built once and reused
            // across all sweeps.
            assert!(m.team_tasks_executed as usize <= s.num_threads());
        });
    }

    #[test]
    fn boundaries_stay_fixed() {
        with_watchdog("boundaries_stay_fixed", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let mut grid: Vec<f64> = vec![0.0; 40_000];
            grid[0] = 7.0;
            *grid.last_mut().unwrap() = -3.0;
            grid[20_000] = 500.0;
            let cfg = StencilConfig {
                sweeps: 15,
                alpha: 0.25,
                min_cells_per_member: 1024,
            };
            let out = jacobi_mixed(&s, &grid, &cfg);
            assert_eq!(out[0], 7.0);
            assert_eq!(*out.last().unwrap(), -3.0);
        });
    }

    #[test]
    fn odd_sweep_counts_and_non_power_of_two_threads() {
        with_watchdog(
            "odd_sweep_counts_and_non_power_of_two_threads",
            WATCHDOG,
            || {
                let s = Scheduler::with_threads(3);
                let grid: Vec<f64> = (0..50_001).map(|i| (i % 13) as f64).collect();
                let cfg = StencilConfig {
                    sweeps: 7,
                    alpha: 0.3,
                    min_cells_per_member: 512,
                };
                let reference = jacobi_sequential(&grid, &cfg);
                let got = jacobi_mixed(&s, &grid, &cfg);
                assert!(max_abs_diff(&reference, &got) < 1e-12);
            },
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_mixed_matches_sequential(
            n in 3usize..4_000,
            sweeps in 0usize..8,
            seed in any::<u64>(),
        ) {
            let mut rng = teamsteal_util::rng::Xoshiro256::new(seed);
            let grid: Vec<f64> = (0..n).map(|_| rng.next_f64() * 10.0).collect();
            let cfg = StencilConfig { sweeps, alpha: 0.25, min_cells_per_member: 64 };
            let s = Scheduler::with_threads(2);
            let reference = jacobi_sequential(&grid, &cfg);
            let got = jacobi_mixed(&s, &grid, &cfg);
            prop_assert!(max_abs_diff(&reference, &got) < 1e-12);
        }
    }
}
