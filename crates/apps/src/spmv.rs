//! Sparse matrix–vector multiplication (SpMV) as a team kernel.
//!
//! SpMV is the archetypal memory-bound data-parallel kernel: every output
//! element is an independent sparse dot product, but the work per row varies
//! with the row's population, so good load balance needs either fine-grained
//! tasks (high scheduling overhead) or a few coarse row blocks per thread
//! (exactly what a team provides).  [`spmv_mixed`] runs the whole product as
//! one team task whose members own contiguous row ranges balanced by
//! *non-zeros*, not by row count; repeated products (e.g. the power iteration
//! in [`power_iteration_mixed`]) reuse the same team across iterations, the
//! team-reuse property of Section 3.1 of the paper.

use std::sync::Arc;

use teamsteal_core::Scheduler;
use teamsteal_util::{SendConstPtr, SendMutPtr};

use crate::team_size::best_team_size;

/// A sparse matrix in compressed-sparse-row (CSR) format with `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_offsets[r] .. row_offsets[r + 1]` indexes the entries of row `r`.
    row_offsets: Vec<usize>,
    /// Column index of each stored entry.
    col_indices: Vec<u32>,
    /// Value of each stored entry.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from (row, col, value) triplets.  Duplicate
    /// entries are kept (their contributions add up in the product).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut counts = vec![0usize; rows];
        for &(r, c, _) in triplets {
            assert!(r < rows, "row index {r} out of range");
            assert!(c < cols, "column index {c} out of range");
            counts[r] += 1;
        }
        let mut row_offsets = Vec::with_capacity(rows + 1);
        let mut acc = 0usize;
        row_offsets.push(0);
        for &c in &counts {
            acc += c;
            row_offsets.push(acc);
        }
        let mut cursor = row_offsets.clone();
        let mut col_indices = vec![0u32; triplets.len()];
        let mut values = vec![0.0f64; triplets.len()];
        for &(r, c, v) in triplets {
            let slot = cursor[r];
            col_indices[slot] = c as u32;
            values[slot] = v;
            cursor[r] += 1;
        }
        CsrMatrix {
            rows,
            cols,
            row_offsets,
            col_indices,
            values,
        }
    }

    /// A square tridiagonal matrix (the 1-D Laplacian stencil), handy for
    /// tests and examples.
    pub fn tridiagonal(n: usize, diag: f64, off: f64) -> Self {
        let mut triplets = Vec::with_capacity(3 * n);
        for i in 0..n {
            triplets.push((i, i, diag));
            if i > 0 {
                triplets.push((i, i - 1, off));
            }
            if i + 1 < n {
                triplets.push((i, i + 1, off));
            }
        }
        Self::from_triplets(n, n, &triplets)
    }

    /// A pseudo-random sparse matrix with about `avg_nnz_per_row` entries per
    /// row, deterministic in `seed`.
    pub fn random(rows: usize, cols: usize, avg_nnz_per_row: usize, seed: u64) -> Self {
        let mut rng = teamsteal_util::rng::Xoshiro256::new(seed);
        let mut triplets = Vec::with_capacity(rows * avg_nnz_per_row);
        for r in 0..rows {
            for _ in 0..avg_nnz_per_row {
                let c = rng.next_usize_below(cols.max(1));
                triplets.push((r, c, rng.next_f64() * 2.0 - 1.0));
            }
        }
        Self::from_triplets(rows, cols, &triplets)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The sparse dot product of row `r` with the dense vector `x`.
    #[inline]
    pub fn row_dot(&self, r: usize, x: &[f64]) -> f64 {
        let range = self.row_offsets[r]..self.row_offsets[r + 1];
        let mut acc = 0.0;
        for (ci, v) in self.col_indices[range.clone()].iter().zip(&self.values[range]) {
            acc += v * x[*ci as usize];
        }
        acc
    }

    /// Row boundaries that split the matrix into `parts` contiguous row
    /// ranges with approximately equal numbers of non-zeros.
    fn nnz_balanced_bounds(&self, parts: usize) -> Vec<usize> {
        let total = self.nnz();
        let mut bounds = Vec::with_capacity(parts + 1);
        bounds.push(0);
        for p in 1..parts {
            let target = total * p / parts;
            let row = self.row_offsets.partition_point(|&off| off < target);
            bounds.push(row.min(self.rows).max(*bounds.last().unwrap()));
        }
        bounds.push(self.rows);
        bounds
    }
}

/// Sequential reference: `y = A · x`.
///
/// # Panics
///
/// Panics if `x.len() != A.cols()`.
pub fn spmv_sequential(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), a.cols, "vector length must match the column count");
    (0..a.rows).map(|r| a.row_dot(r, x)).collect()
}

/// Minimum number of non-zeros per team member before SpMV runs as a team.
pub const MIN_NNZ_PER_MEMBER: usize = 16 * 1024;

/// Mixed-mode `y = A · x`: one team task whose members own nnz-balanced row
/// ranges; sequential below the work threshold.
///
/// # Panics
///
/// Panics if `x.len() != A.cols()`.
pub fn spmv_mixed(scheduler: &Scheduler, a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    spmv_mixed_with(scheduler, a, x, MIN_NNZ_PER_MEMBER)
}

/// [`spmv_mixed`] with an explicit nnz-per-member threshold.
pub fn spmv_mixed_with(
    scheduler: &Scheduler,
    a: &CsrMatrix,
    x: &[f64],
    min_nnz_per_member: usize,
) -> Vec<f64> {
    assert_eq!(x.len(), a.cols, "vector length must match the column count");
    let team = best_team_size(a.nnz(), min_nnz_per_member, scheduler.num_threads());
    if team <= 1 || a.rows == 0 {
        return spmv_sequential(a, x);
    }
    let mut y = vec![0.0f64; a.rows];
    let bounds = Arc::new(a.nnz_balanced_bounds(team));
    let out = SendMutPtr::from_slice(&mut y);
    let xin = SendConstPtr::from_slice(x);
    let xlen = x.len();
    // The matrix itself is borrowed; hand its three arrays over as raw
    // pointers for the duration of the blocking call.
    let offsets = SendConstPtr::from_slice(&a.row_offsets);
    let cols = SendConstPtr::from_slice(&a.col_indices);
    let vals = SendConstPtr::from_slice(&a.values);
    let (offsets_len, nnz, rows) = (a.row_offsets.len(), a.nnz(), a.rows);

    scheduler.run_team(team, move |ctx| {
        let members = ctx.team_size();
        let me = ctx.local_id();
        // The nnz-balanced bounds were computed for `team` parts; members
        // beyond that (possible only when the executing team was rounded up,
        // Refinement 2/3) have nothing to do.
        let parts = bounds.len() - 1;
        if me >= parts || members == 0 {
            return;
        }
        // If the executing team is *smaller* than planned this would lose
        // rows, but teams are never smaller than the requirement; assert the
        // invariant in debug builds.
        debug_assert!(members >= parts);
        let (row_start, row_end) = (bounds[me], bounds[me + 1]);
        if row_start >= row_end {
            return;
        }
        // SAFETY: the matrix arrays and `x` outlive the blocking call and are
        // only read; members write disjoint row ranges of `y`.
        let offsets = unsafe { offsets.slice(offsets_len) };
        let cols = unsafe { cols.slice(nnz) };
        let vals = unsafe { vals.slice(nnz) };
        let x = unsafe { xin.slice(xlen) };
        debug_assert_eq!(offsets.len(), rows + 1);
        let my_y = unsafe { out.add(row_start).slice_mut(row_end - row_start) };
        for (i, y_slot) in my_y.iter_mut().enumerate() {
            let r = row_start + i;
            let mut acc = 0.0;
            for k in offsets[r]..offsets[r + 1] {
                acc += vals[k] * x[cols[k] as usize];
            }
            *y_slot = acc;
        }
    });
    y
}

/// A few steps of power iteration `x ← normalize(A · x)` using the mixed-mode
/// SpMV, returning the final vector and its last Rayleigh-quotient estimate.
/// Demonstrates team reuse across iterations.
pub fn power_iteration_mixed(
    scheduler: &Scheduler,
    a: &CsrMatrix,
    iterations: usize,
) -> (Vec<f64>, f64) {
    assert_eq!(a.rows, a.cols, "power iteration needs a square matrix");
    let n = a.rows;
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    let mut x = vec![1.0 / (n as f64).sqrt(); n];
    let mut eigen = 0.0;
    for _ in 0..iterations {
        let y = spmv_mixed(scheduler, a, &x);
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm == 0.0 {
            return (y, 0.0);
        }
        eigen = x.iter().zip(&y).map(|(xi, yi)| xi * yi).sum();
        x = y.into_iter().map(|v| v / norm).collect();
    }
    (x, eigen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use teamsteal_core::test_support::{with_watchdog, WATCHDOG};

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn triplet_construction_and_accessors() {
        let m = CsrMatrix::from_triplets(3, 4, &[(0, 1, 2.0), (2, 3, -1.0), (0, 0, 1.0)]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 3);
        let x = [1.0, 10.0, 100.0, 1000.0];
        assert_eq!(m.row_dot(0, &x), 21.0);
        assert_eq!(m.row_dot(1, &x), 0.0);
        assert_eq!(m.row_dot(2, &x), -1000.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_triplet_rejected() {
        let _ = CsrMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]);
    }

    #[test]
    fn tridiagonal_spmv_matches_dense_stencil() {
        let n = 100;
        let m = CsrMatrix::tridiagonal(n, 2.0, -1.0);
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let y = spmv_sequential(&m, &x);
        for i in 1..n - 1 {
            let expected = 2.0 * x[i] - x[i - 1] - x[i + 1];
            assert!((y[i] - expected).abs() < 1e-12, "mismatch at {i}");
        }
    }

    #[test]
    fn mixed_matches_sequential_on_random_matrices() {
        with_watchdog("mixed_matches_sequential_on_random_matrices", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let m = CsrMatrix::random(20_000, 20_000, 8, 99);
            let x: Vec<f64> = (0..20_000).map(|i| ((i % 13) as f64) * 0.25).collect();
            let reference = spmv_sequential(&m, &x);
            let got = spmv_mixed_with(&s, &m, &x, 1024);
            assert!(max_abs_diff(&reference, &got) < 1e-9);
            assert!(s.metrics().teams_formed > 0, "large SpMV must run as a team");
        });
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let s = Scheduler::with_threads(2);
        let empty = CsrMatrix::from_triplets(0, 0, &[]);
        assert!(spmv_mixed(&s, &empty, &[]).is_empty());
        // A matrix with rows but no entries produces all zeros.
        let zeros = CsrMatrix::from_triplets(5, 3, &[]);
        assert_eq!(spmv_mixed(&s, &zeros, &[1.0, 2.0, 3.0]), vec![0.0; 5]);
    }

    #[test]
    #[should_panic]
    fn mismatched_vector_length_rejected() {
        let s = Scheduler::with_threads(2);
        let m = CsrMatrix::tridiagonal(4, 2.0, -1.0);
        let _ = spmv_mixed(&s, &m, &[1.0, 2.0]);
    }

    #[test]
    fn power_iteration_finds_the_dominant_mode() {
        // For the tridiagonal Laplacian the dominant eigenvalue approaches 4
        // as n grows; a handful of iterations should already exceed 3.
        let s = Scheduler::with_threads(2);
        let m = CsrMatrix::tridiagonal(512, 2.0, -1.0);
        let (x, eigen) = power_iteration_mixed(&s, &m, 50);
        assert_eq!(x.len(), 512);
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9, "iterate must stay normalized");
        assert!(eigen > 3.0 && eigen < 4.0 + 1e-9, "eigen estimate {eigen} out of range");
    }

    #[test]
    fn nnz_balanced_bounds_cover_all_rows() {
        with_watchdog("nnz_balanced_bounds_cover_all_rows", WATCHDOG, || {
            // A matrix with a very skewed nnz distribution: row 0 holds half of
            // all entries.  The balanced bounds must still partition the rows.
            let mut triplets = Vec::new();
            for c in 0..500 {
                triplets.push((0usize, c, 1.0));
            }
            for r in 1..100 {
                for c in 0..5 {
                    triplets.push((r, c, 1.0));
                }
            }
            let m = CsrMatrix::from_triplets(100, 500, &triplets);
            let bounds = m.nnz_balanced_bounds(4);
            assert_eq!(bounds.first(), Some(&0));
            assert_eq!(bounds.last(), Some(&100));
            assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "bounds must be monotone");
            let s = Scheduler::with_threads(4);
            let x = vec![1.0; 500];
            let got = spmv_mixed_with(&s, &m, &x, 16);
            assert!(max_abs_diff(&spmv_sequential(&m, &x), &got) < 1e-12);
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn prop_mixed_matches_sequential(
            rows in 1usize..200,
            cols in 1usize..200,
            nnz_per_row in 0usize..6,
            seed in any::<u64>(),
        ) {
            let m = CsrMatrix::random(rows, cols, nnz_per_row, seed);
            let x: Vec<f64> = (0..cols).map(|i| ((i % 11) as f64) - 5.0).collect();
            let s = Scheduler::with_threads(2);
            let got = spmv_mixed_with(&s, &m, &x, 64);
            prop_assert!(max_abs_diff(&spmv_sequential(&m, &x), &got) < 1e-9);
        }
    }
}
