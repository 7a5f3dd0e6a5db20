//! Mixed-mode dense matrix multiplication.
//!
//! Matrix multiplication is the classic example used by the mixed-parallelism
//! literature the paper builds on (Chakrabarti et al.; Desprez & Suter's
//! Strassen study): the outer structure is task-parallel — independent output
//! blocks can be computed concurrently — while each block computation is
//! itself a data-parallel kernel that benefits from being executed by several
//! co-scheduled threads sharing the operand panels.
//!
//! [`matmul_mixed`] mirrors that structure on the `teamsteal` scheduler:
//!
//! * the output matrix is cut into row bands; each band is one spawned task,
//! * a band whose work volume is large enough becomes a **team task** whose
//!   members compute disjoint row stripes of the band (one CAS each to join,
//!   no further synchronization — members never write the same cache line),
//! * small bands fall back to `r = 1` tasks, so the degenerate case is plain
//!   task-parallel blocked matmul,
//! * a one-thread scheduler runs [`matmul_sequential`] on the caller's
//!   thread: its only worker would run every band anyway, one handoff later.

use teamsteal_core::Scheduler;
use teamsteal_util::{SendConstPtr, SendMutPtr};

use crate::team_size::{best_team_size, chunk_range};

/// A dense, row-major, `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major element vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "element count must match the shape"
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix whose element `(i, j)` is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.cols + col]
    }

    /// Sets element `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.cols + col] = value;
    }

    /// Row `row` as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The raw row-major element slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Maximum absolute element-wise difference to another matrix of the same
    /// shape (used by tests to compare against the sequential reference).
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Computes one row `i` of `C = A · B` into `c_row` (the cache-friendly
/// "ikj" loop order: stream over a row of B for every element of A's row).
fn multiply_row(a_row: &[f64], b: &[f64], b_cols: usize, c_row: &mut [f64]) {
    c_row.fill(0.0);
    for (k, &aik) in a_row.iter().enumerate() {
        if aik == 0.0 {
            continue;
        }
        let b_row = &b[k * b_cols..(k + 1) * b_cols];
        for (c, &bkj) in c_row.iter_mut().zip(b_row) {
            *c += aik * bkj;
        }
    }
}

/// Sequential reference: `A · B` with the ikj loop order.
///
/// # Panics
///
/// Panics if the inner dimensions do not match.
pub fn matmul_sequential(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.rows, "inner dimensions must match");
    let mut c = Matrix::zeros(a.rows, b.cols);
    for i in 0..a.rows {
        let row = &mut c.data[i * b.cols..(i + 1) * b.cols];
        multiply_row(a.row(i), &b.data, b.cols, row);
    }
    c
}

/// Work-volume threshold (in multiply-add operations) above which a row band
/// is executed by a team instead of a single task.
pub const MIN_FLOPS_PER_MEMBER: usize = 1 << 21;

/// Rows per spawned band task.
const BAND_ROWS: usize = 64;

/// Mixed-mode parallel `A · B` on the given scheduler.
///
/// # Panics
///
/// Panics if the inner dimensions do not match.
pub fn matmul_mixed(scheduler: &Scheduler, a: &Matrix, b: &Matrix) -> Matrix {
    matmul_with_floor(scheduler, a, b, MIN_FLOPS_PER_MEMBER)
}

/// [`matmul_mixed`] with the per-member flops floor as a parameter.
fn matmul_with_floor(
    scheduler: &Scheduler,
    a: &Matrix,
    b: &Matrix,
    min_flops_per_member: usize,
) -> Matrix {
    let p = scheduler.num_threads();
    if p == 1 {
        return matmul_sequential(a, b);
    }
    assert_eq!(a.cols, b.rows, "inner dimensions must match");
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let mut c = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return c; // already all zeros
    }

    let pa = SendConstPtr::from_slice(&a.data);
    let pb = SendConstPtr::from_slice(&b.data);
    let pc = SendMutPtr::from_slice(&mut c.data);
    let a_len = a.data.len();
    let b_len = b.data.len();

    scheduler.scope(|scope| {
        let mut row = 0;
        while row < m {
            let band_rows = BAND_ROWS.min(m - row);
            let flops = band_rows * n * k;
            let team = best_team_size(flops, min_flops_per_member, p);
            let band_start = row;
            if team <= 1 {
                scope.spawn(move |_ctx| {
                    // SAFETY: operands outlive the scope and are read-only;
                    // this task owns rows [band_start, band_start+band_rows).
                    let a = unsafe { pa.slice(a_len) };
                    let b = unsafe { pb.slice(b_len) };
                    for i in band_start..band_start + band_rows {
                        let c_row = unsafe { pc.add(i * n).slice_mut(n) };
                        multiply_row(&a[i * k..(i + 1) * k], b, n, c_row);
                    }
                });
            } else {
                scope.spawn_team(team, move |ctx| {
                    let members = ctx.team_size();
                    let me = ctx.local_id();
                    let my_rows = chunk_range(band_rows, members, me);
                    // SAFETY: operands outlive the scope and are read-only;
                    // team members own disjoint row stripes of the band.
                    let a = unsafe { pa.slice(a_len) };
                    let b = unsafe { pb.slice(b_len) };
                    for i in band_start + my_rows.start..band_start + my_rows.end {
                        let c_row = unsafe { pc.add(i * n).slice_mut(n) };
                        multiply_row(&a[i * k..(i + 1) * k], b, n, c_row);
                    }
                });
            }
            row += band_rows;
        }
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use teamsteal_core::test_support::{with_watchdog, WATCHDOG};
    use teamsteal_util::rng::Xoshiro256;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256::new(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.next_f64() * 2.0 - 1.0)
    }

    #[test]
    fn shape_accessors_and_identity() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3.rows(), 3);
        assert_eq!(i3.cols(), 3);
        assert_eq!(i3.get(1, 1), 1.0);
        assert_eq!(i3.get(0, 2), 0.0);
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.as_slice().len(), 6);
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_wrong_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul_sequential(&a, &b);
    }

    #[test]
    fn identity_is_neutral() {
        let s = Scheduler::with_threads(2);
        let a = random_matrix(17, 17, 1);
        let c = matmul_mixed(&s, &a, &Matrix::identity(17));
        assert!(c.max_abs_diff(&a) < 1e-12);
        let c = matmul_mixed(&s, &Matrix::identity(17), &a);
        assert!(c.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let s = Scheduler::with_threads(2);
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        let c = matmul_mixed(&s, &a, &b);
        assert_eq!(c.rows(), 0);
        assert_eq!(c.cols(), 3);

        // Zero inner dimension: result is all zeros.
        let a = random_matrix(4, 0, 3);
        let b = Matrix::zeros(0, 4);
        let c = matmul_mixed(&s, &a, &b);
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn mixed_matches_sequential_rectangular() {
        with_watchdog("mixed_matches_sequential_rectangular", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let a = random_matrix(83, 47, 7);
            let b = random_matrix(47, 61, 8);
            let reference = matmul_sequential(&a, &b);
            let c = matmul_mixed(&s, &a, &b);
            assert!(c.max_abs_diff(&reference) < 1e-9);
        });
    }

    #[test]
    fn team_path_is_exercised_and_matches() {
        with_watchdog("team_path_is_exercised_and_matches", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let a = random_matrix(256, 96, 9);
            let b = random_matrix(96, 128, 10);
            let reference = matmul_sequential(&a, &b);
            // Force a low threshold so bands become team tasks.
            let c = matmul_with_floor(&s, &a, &b, 1 << 12);
            assert!(c.max_abs_diff(&reference) < 1e-9);
            assert!(s.metrics().teams_formed > 0, "bands must run as team tasks");
        });
    }

    #[test]
    fn non_power_of_two_threads() {
        with_watchdog("non_power_of_two_threads", WATCHDOG, || {
            let s = Scheduler::with_threads(3);
            let a = random_matrix(130, 70, 11);
            let b = random_matrix(70, 90, 12);
            let reference = matmul_sequential(&a, &b);
            let c = matmul_with_floor(&s, &a, &b, 1 << 12);
            assert!(c.max_abs_diff(&reference) < 1e-9);
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn prop_mixed_matches_sequential(
            m in 1usize..40,
            k in 1usize..40,
            n in 1usize..40,
            seed in any::<u64>(),
        ) {
            let s = Scheduler::with_threads(2);
            let a = random_matrix(m, k, seed);
            let b = random_matrix(k, n, seed ^ 0xABCD);
            let reference = matmul_sequential(&a, &b);
            let c = matmul_with_floor(&s, &a, &b, 1 << 10);
            prop_assert!(c.max_abs_diff(&reference) < 1e-9);
        }
    }
}
