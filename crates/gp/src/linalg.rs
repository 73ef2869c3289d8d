//! Minimal dense linear algebra: just enough for exact GP regression.
//!
//! A GP fit needs a symmetric positive-definite kernel matrix `K`, its
//! Cholesky factor `L` (with a jitter ladder for numerically borderline
//! matrices), triangular solves, and a handful of vector helpers. Keeping
//! this in-crate avoids a heavyweight linear-algebra dependency and keeps
//! the numerical path auditable.

use crate::GpError;

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix of order `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Matrix filled by `f(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::ShapeMismatch`] if `x.len() != cols`.
    #[allow(clippy::needless_range_loop)] // index form mirrors the math
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, GpError> {
        if x.len() != self.cols {
            return Err(GpError::ShapeMismatch { op: "mul_vec" });
        }
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            out[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        Ok(out)
    }

    /// Adds `value` to every diagonal element (in place).
    pub fn add_diagonal(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
    }

    /// Row `i` as a contiguous slice (the storage is row-major).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// Lower-triangular Cholesky factor `L` of a symmetric positive-definite
/// matrix (`A = L·Lᵀ`).
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// Jitter that had to be added to the diagonal for the factorization to
    /// succeed (0.0 if none).
    jitter: f64,
}

impl Cholesky {
    /// Factorizes `a`, retrying with exponentially growing diagonal jitter
    /// (`1e-10 · mean-diagonal` up to `1e-2 · mean-diagonal`) if the matrix
    /// is numerically semi-definite — standard practice for GP kernel
    /// matrices built from near-duplicate points.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::ShapeMismatch`] for a non-square input,
    /// [`GpError::NonFiniteValue`] if the mean diagonal is not finite (an
    /// infinite or NaN entry, or finite entries whose sum overflows: the
    /// jitter ladder cannot scale to it), and
    /// [`GpError::NotPositiveDefinite`] if the jitter ladder is exhausted.
    pub fn decompose(a: &Matrix) -> Result<Self, GpError> {
        if a.rows != a.cols {
            return Err(GpError::ShapeMismatch { op: "cholesky" });
        }
        let n = a.rows;
        let mean_diag = (0..n).map(|i| a[(i, i)].abs()).sum::<f64>() / n as f64;
        if n > 0 && !mean_diag.is_finite() {
            return Err(GpError::NonFiniteValue);
        }
        let base = if mean_diag > 0.0 { mean_diag } else { 1.0 };

        if let Some(l) = try_factor(a, 0.0) {
            return Ok(Self { l, jitter: 0.0 });
        }
        let mut jitter = 1e-10 * base;
        while jitter <= 1e-2 * base {
            if let Some(l) = try_factor(a, jitter) {
                return Ok(Self { l, jitter });
            }
            jitter *= 10.0;
        }
        Err(GpError::NotPositiveDefinite)
    }

    /// The lower-triangular factor.
    #[must_use]
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Diagonal jitter added during factorization (0.0 for well-conditioned
    /// inputs).
    #[must_use]
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Solves `L·y = b` (forward substitution).
    ///
    /// # Errors
    ///
    /// Returns [`GpError::ShapeMismatch`] if `b.len()` differs from the
    /// matrix order.
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>, GpError> {
        let mut y = Vec::new();
        self.solve_lower_into(b, &mut y)?;
        Ok(y)
    }

    /// [`solve_lower`](Cholesky::solve_lower) into a caller-provided buffer
    /// — the allocation-free twin for prediction hot paths that perform
    /// thousands of solves per search iteration.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::ShapeMismatch`] if `b.len()` differs from the
    /// matrix order.
    #[allow(clippy::needless_range_loop)] // index form mirrors the math
    pub fn solve_lower_into(&self, b: &[f64], y: &mut Vec<f64>) -> Result<(), GpError> {
        let n = self.l.rows;
        if b.len() != n {
            return Err(GpError::ShapeMismatch { op: "solve_lower" });
        }
        y.clear();
        y.resize(n, 0.0);
        for i in 0..n {
            let mut sum = b[i];
            for j in 0..i {
                sum -= self.l[(i, j)] * y[j];
            }
            y[i] = sum / self.l[(i, i)];
        }
        Ok(())
    }

    /// Solves `L·V = B` for many right-hand sides at once: `rhs` holds `m`
    /// consecutive length-`n` vectors, and the `m` solutions are written to
    /// `out` in the same layout.
    ///
    /// A single forward substitution is latency-bound — each row's
    /// accumulation is one serial dependency chain. This batched form
    /// processes four right-hand sides per pass, held *interleaved* in a
    /// scratch block (`blk[4j..4j+4]` is element `j` of the four partial
    /// solutions) so the inner loop reads one contiguous four-lane vector
    /// per matrix entry and the four chains vectorize; the block is
    /// scattered back to the flat layout afterwards. The loop runs through
    /// [`clite_par::wide_lanes`], so on CPUs with AVX2 the four chains fill
    /// one 256-bit register (two SSE2 registers elsewhere), with the same
    /// bits either way. Each row's diagonal division becomes one reciprocal
    /// shared by the four lanes. Per-solution results can therefore differ
    /// from [`Cholesky::solve_lower_into`] in the last ulp; batch results
    /// do not depend on `m` or on how the batch is split into blocks of
    /// four (each solution only ever reads its own lane).
    ///
    /// The block lives past the end of `out` during the solve, and `out`
    /// is truncated to the `m` solutions afterwards: a caller that reuses
    /// `out` pays no allocation once its capacity has grown.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::ShapeMismatch`] if `rhs.len()` is not a multiple
    /// of the matrix order.
    pub fn solve_lower_batch(&self, rhs: &[f64], out: &mut Vec<f64>) -> Result<(), GpError> {
        clite_par::wide_lanes(
            #[inline(always)]
            || self.solve_lower_batch_body(rhs, out),
        )
    }

    /// The body of [`Cholesky::solve_lower_batch`], inlined into each
    /// lane-width instance.
    #[inline(always)]
    pub(crate) fn solve_lower_batch_body(
        &self,
        rhs: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), GpError> {
        let n = self.l.rows;
        if !rhs.len().is_multiple_of(n) {
            return Err(GpError::ShapeMismatch { op: "solve_lower_batch" });
        }
        out.clear();
        out.resize(rhs.len() + 4 * n, 0.0);
        let (solutions, blk) = out.split_at_mut(rhs.len());
        // A short final block runs in the same four lanes, its unused
        // lanes zero-padded: lanes are independent, and each chain is
        // latency-bound, so three real lanes cost what four do and a
        // scalar tail would cost three times as much. Row `i` reads only
        // the block rows `j < i` its own pass wrote, so the block needs
        // no clearing between passes.
        for (b, v) in rhs.chunks(4 * n).zip(solutions.chunks_mut(4 * n)) {
            let lanes = b.len() / n;
            for i in 0..n {
                let row = &self.l.row(i)[..i];
                let mut acc = [0.0_f64; 4];
                for (k, a) in acc.iter_mut().enumerate().take(lanes) {
                    *a = b[k * n + i];
                }
                for (&lij, vj) in row.iter().zip(blk.chunks_exact(4)) {
                    acc[0] -= lij * vj[0];
                    acc[1] -= lij * vj[1];
                    acc[2] -= lij * vj[2];
                    acc[3] -= lij * vj[3];
                }
                let d = 1.0 / self.l[(i, i)];
                blk[4 * i] = acc[0] * d;
                blk[4 * i + 1] = acc[1] * d;
                blk[4 * i + 2] = acc[2] * d;
                blk[4 * i + 3] = acc[3] * d;
            }
            for i in 0..n {
                for k in 0..lanes {
                    v[k * n + i] = blk[4 * i + k];
                }
            }
        }
        out.truncate(rhs.len());
        Ok(())
    }

    /// Solves `Lᵀ·x = b` (backward substitution).
    ///
    /// # Errors
    ///
    /// Returns [`GpError::ShapeMismatch`] if `b.len()` differs from the
    /// matrix order.
    #[allow(clippy::needless_range_loop)] // index form mirrors the math
    pub fn solve_upper(&self, b: &[f64]) -> Result<Vec<f64>, GpError> {
        let n = self.l.rows;
        if b.len() != n {
            return Err(GpError::ShapeMismatch { op: "solve_upper" });
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = b[i];
            for j in (i + 1)..n {
                sum -= self.l[(j, i)] * x[j];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A·x = b` where `A = L·Lᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::ShapeMismatch`] if `b.len()` differs from the
    /// matrix order.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, GpError> {
        let y = self.solve_lower(b)?;
        self.solve_upper(&y)
    }

    /// [`solve`](Cholesky::solve) in place: `b` is overwritten with `x`.
    /// Both substitutions read each solved element back from `b` right
    /// where the two-buffer form reads it from its own vectors, so the
    /// result is bit-identical — the allocation-free twin for callers
    /// that solve once per candidate on an admission path.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::ShapeMismatch`] if `b.len()` differs from the
    /// matrix order.
    #[allow(clippy::needless_range_loop)] // index form mirrors the math
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), GpError> {
        let n = self.l.rows;
        if b.len() != n {
            return Err(GpError::ShapeMismatch { op: "solve_in_place" });
        }
        for i in 0..n {
            let mut sum = b[i];
            for j in 0..i {
                sum -= self.l[(i, j)] * b[j];
            }
            b[i] = sum / self.l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut sum = b[i];
            for j in (i + 1)..n {
                sum -= self.l[(j, i)] * b[j];
            }
            b[i] = sum / self.l[(i, i)];
        }
        Ok(())
    }

    /// `log|A| = 2·Σ log L_ii`, needed by the log marginal likelihood.
    #[must_use]
    pub fn log_determinant(&self) -> f64 {
        (0..self.l.rows).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Extends the factor of an `n × n` matrix `A` to the factor of the
    /// bordered matrix `[[A, k], [kᵀ, diag]]` in O(n²): one forward
    /// substitution for the new off-diagonal row plus a triangle copy,
    /// instead of refactorizing from scratch in O(n³). This is what makes
    /// recording one new observation between GP hyper refreshes cheap.
    ///
    /// The new row follows the same recurrence `decompose` uses, so at
    /// equal jitter an extended factor is bit-identical to a from-scratch
    /// one; the factor's jitter is applied to `diag` too, keeping the
    /// extension consistent with the original factorization.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::ShapeMismatch`] if `k.len()` differs from the
    /// factor order, and [`GpError::NotPositiveDefinite`] if the bordered
    /// matrix is numerically not positive definite — callers should then
    /// fall back to [`Cholesky::decompose`], whose jitter ladder can retry.
    pub fn extend(&self, k: &[f64], diag: f64) -> Result<Self, GpError> {
        let n = self.l.rows;
        if k.len() != n {
            return Err(GpError::ShapeMismatch { op: "cholesky extend" });
        }
        let mut l = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..=i {
                l[(i, j)] = self.l[(i, j)];
            }
        }
        // L·l₁₂ = k, in `try_factor`'s exact operation order.
        for j in 0..n {
            let mut sum = k[j];
            for t in 0..j {
                sum -= l[(n, t)] * l[(j, t)];
            }
            l[(n, j)] = sum / l[(j, j)];
        }
        let mut s = diag + self.jitter;
        for t in 0..n {
            s -= l[(n, t)] * l[(n, t)];
        }
        if s <= 0.0 || !s.is_finite() {
            return Err(GpError::NotPositiveDefinite);
        }
        l[(n, n)] = s.sqrt();
        Ok(Self { l, jitter: self.jitter })
    }
}

fn try_factor(a: &Matrix, jitter: f64) -> Option<Matrix> {
    let n = a.rows;
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)] + if i == j { jitter } else { 0.0 };
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return None;
                }
                l[(i, i)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Some(l)
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics (debug) if the slices have different lengths.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B·Bᵀ + I for a fixed B is SPD.
        let b = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64 * 0.1 + 1.0);
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += b[(i, k)] * b[(j, k)];
                }
                a[(i, j)] = s;
            }
        }
        a.add_diagonal(1.0);
        a
    }

    #[test]
    fn a_non_finite_mean_diagonal_is_an_error() {
        // An infinite diagonal, and a singular matrix whose finite
        // diagonal sums to ∞, once spun the jitter ladder forever
        // (`∞ <= ∞`).
        let mut infinite = Matrix::zeros(2, 2);
        infinite.add_diagonal(f64::INFINITY);
        let overflowing = Matrix::from_fn(2, 2, |_, _| 1e308);
        let mut nan = Matrix::zeros(2, 2);
        nan.add_diagonal(f64::NAN);
        for a in [infinite, overflowing, nan] {
            assert_eq!(Cholesky::decompose(&a).unwrap_err(), GpError::NonFiniteValue, "{a:?}");
        }
        // A finite mean diagonal of the same size still factors.
        let mut a = Matrix::zeros(2, 2);
        a.add_diagonal(1e307);
        assert!(Cholesky::decompose(&a).is_ok());
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        assert_eq!(c.jitter(), 0.0);
        let l = c.l();
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += l[(i, k)] * l[(j, k)];
                }
                assert!((s - a[(i, j)]).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn solve_inverts() {
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = c.solve(&b).unwrap();
        let back = a.mul_vec(&x).unwrap();
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn log_determinant_matches_identity() {
        let c = Cholesky::decompose(&Matrix::identity(4)).unwrap();
        assert!(c.log_determinant().abs() < 1e-12);
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 matrix: xxᵀ with x = (1,1): singular, needs jitter.
        let mut a = Matrix::zeros(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                a[(i, j)] = 1.0;
            }
        }
        let c = Cholesky::decompose(&a).unwrap();
        assert!(c.jitter() > 0.0);
    }

    #[test]
    fn hopeless_matrix_errors() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = -5.0;
        a[(1, 1)] = -5.0;
        assert_eq!(Cholesky::decompose(&a).unwrap_err(), GpError::NotPositiveDefinite);
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Cholesky::decompose(&a), Err(GpError::ShapeMismatch { .. })));
    }

    #[test]
    fn mul_vec_shape_checked() {
        let a = Matrix::identity(3);
        assert!(a.mul_vec(&[1.0, 2.0]).is_err());
        assert_eq!(a.mul_vec(&[1.0, 2.0, 3.0]).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn solve_lower_into_matches_solve_lower() {
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        let b = vec![0.3, -1.0, 2.5];
        let owned = c.solve_lower(&b).unwrap();
        let mut buf = vec![9.0; 7]; // stale contents and wrong length
        c.solve_lower_into(&b, &mut buf).unwrap();
        assert_eq!(owned, buf);
        assert!(c.solve_lower_into(&[1.0], &mut buf).is_err());
    }

    #[test]
    fn batch_solve_rows_do_not_depend_on_their_batch() {
        // Every solution must be bit-identical whether it lands in a
        // 4-wide block or in the scalar tail, and whichever rows share its
        // batch: callers resolve arbitrary subsets four at a time.
        let n = 12;
        let b = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 * 0.07 + 0.3);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += b[(i, k)] * b[(j, k)];
                }
                a[(i, j)] = s;
            }
        }
        a.add_diagonal(1.0);
        let c = Cholesky::decompose(&a).unwrap();

        for m in [1usize, 3, 4, 5, 8, 9] {
            let rhs: Vec<f64> =
                (0..m * n).map(|i| ((i * 7919 % 1000) as f64).mul_add(1e-3, -0.5)).collect();
            let mut batch = Vec::new();
            c.solve_lower_batch(&rhs, &mut batch).unwrap();
            let mut alone = Vec::new();
            for (r, row) in rhs.chunks_exact(n).enumerate() {
                c.solve_lower_batch(row, &mut alone).unwrap();
                for (i, (x, y)) in batch[r * n..(r + 1) * n].iter().zip(&alone).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "m={m} row={r} diverged at element {i}");
                }
            }
        }
        let mut out = Vec::new();
        assert!(c.solve_lower_batch(&vec![0.0; n + 1], &mut out).is_err());
    }

    #[test]
    fn extend_matches_from_scratch_factor() {
        // Border spd3 with a row that keeps the matrix SPD.
        let a3 = spd3();
        let mut a4 = Matrix::zeros(4, 4);
        for i in 0..3 {
            for j in 0..3 {
                a4[(i, j)] = a3[(i, j)];
            }
        }
        let k = [0.5, 0.2, -0.1];
        for (i, v) in k.iter().enumerate() {
            a4[(i, 3)] = *v;
            a4[(3, i)] = *v;
        }
        a4[(3, 3)] = 2.0;

        let base = Cholesky::decompose(&a3).unwrap();
        let extended = base.extend(&k, 2.0).unwrap();
        let scratch = Cholesky::decompose(&a4).unwrap();
        assert_eq!(scratch.jitter(), 0.0);
        for i in 0..4 {
            for j in 0..=i {
                assert_eq!(
                    extended.l()[(i, j)].to_bits(),
                    scratch.l()[(i, j)].to_bits(),
                    "({i},{j}) must be bit-identical at zero jitter"
                );
            }
        }
    }

    #[test]
    fn extend_rejects_bad_shapes_and_indefinite_borders() {
        let c = Cholesky::decompose(&spd3()).unwrap();
        assert!(matches!(c.extend(&[1.0], 1.0), Err(GpError::ShapeMismatch { .. })));
        // A huge off-diagonal border makes the Schur complement negative.
        assert_eq!(
            c.extend(&[100.0, 100.0, 100.0], 1.0).unwrap_err(),
            GpError::NotPositiveDefinite
        );
    }
}
