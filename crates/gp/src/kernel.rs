//! Covariance kernels.
//!
//! The paper chooses the **Matérn** covariance kernel because it "does not
//! require restrictions on strong smoothness" (Sec. 4) — CLITE's score
//! surface has a kink at the QoS boundary (the two modes of Eq. 3), so an
//! infinitely smooth squared-exponential prior is a worse fit. Matérn 5/2
//! is the default; Matérn 3/2 and squared-exponential are provided for the
//! kernel-choice ablation.

use crate::fastmath::fast_exp;
use crate::linalg::Matrix;

/// Which covariance family a [`Kernel`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelFamily {
    /// Matérn ν = 5/2 (twice differentiable) — the paper's choice.
    Matern52,
    /// Matérn ν = 3/2 (once differentiable).
    Matern32,
    /// Squared exponential (infinitely smooth).
    SquaredExponential,
}

impl KernelFamily {
    /// Short lower-case name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelFamily::Matern52 => "matern52",
            KernelFamily::Matern32 => "matern32",
            KernelFamily::SquaredExponential => "sqexp",
        }
    }
}

/// A stationary covariance kernel with signal variance and lengthscales.
///
/// Lengthscales are either isotropic (one scale for all input dimensions)
/// or ARD (one per dimension).
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    family: KernelFamily,
    variance: f64,
    lengthscales: LengthScales,
}

#[derive(Debug, Clone, PartialEq)]
enum LengthScales {
    Isotropic(f64),
    Ard(Vec<f64>),
}

impl Kernel {
    /// Matérn 5/2 kernel with isotropic lengthscale.
    ///
    /// # Panics
    ///
    /// Panics if `variance` or `lengthscale` is not positive.
    #[must_use]
    pub fn matern52(variance: f64, lengthscale: f64) -> Self {
        Self::new(KernelFamily::Matern52, variance, lengthscale)
    }

    /// Matérn 3/2 kernel with isotropic lengthscale.
    ///
    /// # Panics
    ///
    /// Panics if `variance` or `lengthscale` is not positive.
    #[must_use]
    pub fn matern32(variance: f64, lengthscale: f64) -> Self {
        Self::new(KernelFamily::Matern32, variance, lengthscale)
    }

    /// Squared-exponential kernel with isotropic lengthscale.
    ///
    /// # Panics
    ///
    /// Panics if `variance` or `lengthscale` is not positive.
    #[must_use]
    pub fn squared_exponential(variance: f64, lengthscale: f64) -> Self {
        Self::new(KernelFamily::SquaredExponential, variance, lengthscale)
    }

    /// Kernel of any family with an isotropic lengthscale.
    ///
    /// # Panics
    ///
    /// Panics if `variance` or `lengthscale` is not positive and finite.
    #[must_use]
    pub fn new(family: KernelFamily, variance: f64, lengthscale: f64) -> Self {
        assert!(positive_finite(variance), "kernel variance must be positive and finite");
        assert!(positive_finite(lengthscale), "kernel lengthscale must be positive and finite");
        Self { family, variance, lengthscales: LengthScales::Isotropic(lengthscale) }
    }

    /// Kernel with per-dimension (ARD) lengthscales.
    ///
    /// # Panics
    ///
    /// Panics if `variance` or any lengthscale is not positive and
    /// finite, or if there are no lengthscales.
    #[must_use]
    pub fn with_ard(family: KernelFamily, variance: f64, lengthscales: Vec<f64>) -> Self {
        assert!(positive_finite(variance), "kernel variance must be positive and finite");
        assert!(
            !lengthscales.is_empty() && lengthscales.iter().all(|&l| positive_finite(l)),
            "ARD lengthscales must be positive and finite"
        );
        Self { family, variance, lengthscales: LengthScales::Ard(lengthscales) }
    }

    /// The kernel family.
    #[must_use]
    pub fn family(&self) -> KernelFamily {
        self.family
    }

    /// Signal variance `σ²`.
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Representative lengthscale: the isotropic value, or the geometric
    /// mean of the ARD lengthscales. Used by telemetry to summarize a
    /// fitted kernel in one number.
    #[must_use]
    pub fn mean_lengthscale(&self) -> f64 {
        match &self.lengthscales {
            LengthScales::Isotropic(l) => *l,
            LengthScales::Ard(ls) => {
                let log_sum: f64 = ls.iter().map(|l| l.ln()).sum();
                (log_sum / ls.len() as f64).exp()
            }
        }
    }

    /// Returns a copy with a different variance and isotropic lengthscale
    /// (used by grid hyperparameter search).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not positive and finite.
    #[must_use]
    pub fn reparameterized(&self, variance: f64, lengthscale: f64) -> Self {
        Self::new(self.family, variance, lengthscale)
    }

    /// Scaled distance `r = sqrt(Σ ((x_d − y_d)/ℓ_d)²)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `x` and `y` have different lengths, or if ARD
    /// lengthscales do not match the input dimension.
    #[must_use]
    pub fn scaled_distance(&self, x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        let mut r2 = 0.0;
        match &self.lengthscales {
            LengthScales::Isotropic(l) => {
                for (a, b) in x.iter().zip(y) {
                    let d = (a - b) / l;
                    r2 += d * d;
                }
            }
            LengthScales::Ard(ls) => {
                debug_assert_eq!(ls.len(), x.len());
                for ((a, b), l) in x.iter().zip(y).zip(ls) {
                    let d = (a - b) / l;
                    r2 += d * d;
                }
            }
        }
        r2.sqrt()
    }

    /// Correlation at scaled distance `r` (so that `k = σ² · corr(r)`).
    ///
    /// Uses [`fast_exp`] (relative error ≤ ~3e-13, orders of magnitude
    /// below the noise floor) so that the batched row evaluation in
    /// [`Kernel::eval_scaled_sq_append`] — which inlines the same
    /// arithmetic — makes no `libm` call, and scalar and batched
    /// evaluations agree bit for bit.
    fn correlation(&self, r: f64) -> f64 {
        match self.family {
            KernelFamily::Matern52 => {
                let s = 5.0_f64.sqrt() * r;
                (1.0 + s + s * s / 3.0) * fast_exp(-s)
            }
            KernelFamily::Matern32 => {
                let s = 3.0_f64.sqrt() * r;
                (1.0 + s) * fast_exp(-s)
            }
            KernelFamily::SquaredExponential => fast_exp(-0.5 * r * r),
        }
    }

    /// Covariance `k(x, y)`.
    #[must_use]
    pub fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        self.variance * self.correlation(self.scaled_distance(x, y))
    }

    /// Covariance from a *pre-scaled* squared distance (the squared
    /// Euclidean distance between points already divided by the
    /// lengthscales, see [`Kernel::scale_into`]). The prediction hot path
    /// scales its query once and then evaluates every training covariance
    /// with multiplies only — no per-pair divisions.
    #[must_use]
    pub fn eval_scaled_sq(&self, r2: f64) -> f64 {
        self.variance * self.correlation(r2.sqrt())
    }

    /// Appends `k(x*, xᵢ)` for a whole row of pre-scaled squared distances
    /// to `out` — bit-identical to mapping [`Kernel::eval_scaled_sq`] over
    /// `r2`, but with the family match hoisted out of the loop so the
    /// per-element body ([`fast_exp`] + a few multiplies) is branch-free.
    /// The acquisition climb evaluates one such row per candidate, which
    /// makes this the single hottest loop in a `suggest`.
    ///
    /// The loop runs through [`clite_par::wide_lanes`]: four lanes wide
    /// (packed AVX2 `vsqrtpd`/`vmulpd`) on CPUs that have AVX2, two lanes
    /// wide (SSE2) elsewhere, with the same bits either way. The loop is
    /// bound by arithmetic throughput, so the lane width is what sets its
    /// speed.
    pub fn eval_scaled_sq_append(&self, r2: &[f64], out: &mut Vec<f64>) {
        clite_par::wide_lanes(
            #[inline(always)]
            || self.eval_scaled_sq_append_body(r2, out),
        );
    }

    /// The body of [`Kernel::eval_scaled_sq_append`], inlined into each
    /// lane-width instance.
    #[inline(always)]
    pub(crate) fn eval_scaled_sq_append_body(&self, r2: &[f64], out: &mut Vec<f64>) {
        let start = out.len();
        out.resize(start + r2.len(), 0.0);
        let dst = &mut out[start..];
        match self.family {
            KernelFamily::Matern52 => {
                for (o, &d) in dst.iter_mut().zip(r2) {
                    let s = 5.0_f64.sqrt() * d.sqrt();
                    *o = self.variance * ((1.0 + s + s * s / 3.0) * fast_exp(-s));
                }
            }
            KernelFamily::Matern32 => {
                for (o, &d) in dst.iter_mut().zip(r2) {
                    let s = 3.0_f64.sqrt() * d.sqrt();
                    *o = self.variance * ((1.0 + s) * fast_exp(-s));
                }
            }
            KernelFamily::SquaredExponential => {
                for (o, &d) in dst.iter_mut().zip(r2) {
                    // `sqrt` then square, not `-0.5 * d` directly: keeps
                    // the promised bit-identity with the scalar path.
                    let r = d.sqrt();
                    *o = self.variance * fast_exp(-0.5 * r * r);
                }
            }
        }
    }

    /// Writes `x` divided element-wise by the lengthscales into `out`.
    /// Distances between pre-scaled points equal [`Kernel::scaled_distance`]
    /// up to rounding.
    ///
    /// # Panics
    ///
    /// Panics (debug) if ARD lengthscales do not match `x.len()`.
    pub fn scale_into(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        match &self.lengthscales {
            LengthScales::Isotropic(l) => {
                let inv = 1.0 / l;
                out.extend(x.iter().map(|v| v * inv));
            }
            LengthScales::Ard(ls) => {
                debug_assert_eq!(ls.len(), x.len());
                out.extend(x.iter().zip(ls).map(|(v, l)| v / l));
            }
        }
    }

    /// Divides a single coordinate by its lengthscale — the scalar
    /// counterpart of [`Kernel::scale_into`], for callers that shift one
    /// or two coordinates of an already-scaled query (incremental
    /// distance updates during a hill-climb).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `dim` is out of range for ARD lengthscales.
    #[must_use]
    pub fn scaled_coord(&self, dim: usize, v: f64) -> f64 {
        match &self.lengthscales {
            // `v * (1/l)`, not `v / l`: bit-identical to what
            // [`Kernel::scale_into`] produced for the same coordinate.
            LengthScales::Isotropic(l) => v * (1.0 / l),
            LengthScales::Ard(ls) => {
                debug_assert!(dim < ls.len());
                v / ls[dim]
            }
        }
    }

    /// The full kernel (Gram) matrix over a set of points.
    #[must_use]
    pub fn gram(&self, xs: &[Vec<f64>]) -> Matrix {
        let n = xs.len();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = self.eval(&xs[i], &xs[j]);
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        k
    }

    /// The Gram matrix from a precomputed *unscaled* squared-distance
    /// matrix (see [`squared_distances`]). Reparameterizing an isotropic
    /// kernel only rescales distances, so a hyper-parameter grid scan can
    /// pay the O(n²·d) geometry once and rebuild the Gram per grid point in
    /// O(n²) — this is the shared-distance fast path `fit_best` uses.
    ///
    /// # Panics
    ///
    /// Panics if the kernel has ARD lengthscales (they change the metric
    /// itself, not just its scale) or if `d2` is not square.
    #[must_use]
    pub fn gram_from_distances(&self, d2: &Matrix) -> Matrix {
        let LengthScales::Isotropic(l) = &self.lengthscales else {
            panic!("gram_from_distances requires an isotropic kernel");
        };
        assert_eq!(d2.rows(), d2.cols(), "distance matrix must be square");
        let inv = 1.0 / l;
        let n = d2.rows();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            k[(i, i)] = self.variance;
            for j in 0..i {
                let v = self.variance * self.correlation(d2[(i, j)].sqrt() * inv);
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        k
    }

    /// The cross-covariance vector `k(x*, X)` of a query point against the
    /// training points.
    #[must_use]
    pub fn cross(&self, x_star: &[f64], xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.eval(x_star, x)).collect()
    }
}

/// Whether a kernel parameter is usable: positive and finite. An infinite
/// variance would make the Gram diagonal, and the factorization's jitter
/// scale, infinite.
fn positive_finite(x: f64) -> bool {
    x > 0.0 && x.is_finite()
}

/// Pairwise *unscaled* squared Euclidean distances `‖x_i − x_j‖²` of a
/// point set, shared by every [`Kernel::gram_from_distances`] call of a
/// hyper-parameter grid scan.
///
/// # Panics
///
/// Panics if `xs` is empty (callers validate training data first).
#[must_use]
pub fn squared_distances(xs: &[Vec<f64>]) -> Matrix {
    let n = xs.len();
    let mut d2 = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..i {
            let mut sum = 0.0;
            for (a, b) in xs[i].iter().zip(&xs[j]) {
                let d = a - b;
                sum += d * d;
            }
            d2[(i, j)] = sum;
            d2[(j, i)] = sum;
        }
    }
    d2
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAMILIES: [KernelFamily; 3] =
        [KernelFamily::Matern52, KernelFamily::Matern32, KernelFamily::SquaredExponential];

    #[test]
    fn constructors_reject_non_finite_parameters() {
        fn ard(variance: f64, lengthscale: f64) -> Kernel {
            Kernel::with_ard(KernelFamily::Matern52, variance, vec![1.0, lengthscale])
        }
        fn rejected(build: fn() -> Kernel) -> bool {
            std::panic::catch_unwind(build).is_err()
        }
        assert!(rejected(|| Kernel::matern52(f64::INFINITY, 1.0)));
        assert!(rejected(|| Kernel::matern52(f64::NAN, 1.0)));
        assert!(rejected(|| Kernel::matern52(1.0, f64::INFINITY)));
        assert!(rejected(|| Kernel::matern52(1.0, f64::NAN)));
        assert!(rejected(|| Kernel::matern52(1.0, 1.0).reparameterized(f64::INFINITY, 1.0)));
        assert!(rejected(|| Kernel::matern52(1.0, 1.0).reparameterized(1.0, f64::INFINITY)));
        assert!(rejected(|| ard(f64::INFINITY, 1.0)));
        assert!(rejected(|| ard(1.0, f64::INFINITY)));
        assert!(rejected(|| ard(1.0, f64::NAN)));
        // The largest finite values are still kernels.
        assert!(!rejected(|| Kernel::matern52(f64::MAX, f64::MAX)));
        assert!(!rejected(|| ard(f64::MAX, f64::MAX)));
    }

    #[test]
    fn self_covariance_is_variance() {
        for f in FAMILIES {
            let k = Kernel::new(f, 2.5, 0.7);
            assert!((k.eval(&[0.3, 0.4], &[0.3, 0.4]) - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetric_and_decaying() {
        for f in FAMILIES {
            let k = Kernel::new(f, 1.0, 0.5);
            let a = [0.0, 0.0];
            let b = [0.4, 0.1];
            let c = [1.0, 1.0];
            assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
            assert!(k.eval(&a, &b) > k.eval(&a, &c), "covariance must decay with distance");
            assert!(k.eval(&a, &c) > 0.0);
        }
    }

    #[test]
    fn matern52_less_smooth_than_sqexp_near_origin() {
        // At small r, SE stays closer to σ² than Matérn (it is flatter).
        let m = Kernel::matern52(1.0, 1.0);
        let s = Kernel::squared_exponential(1.0, 1.0);
        let x = [0.0];
        let y = [0.1];
        assert!(m.eval(&x, &y) < s.eval(&x, &y));
    }

    #[test]
    fn ard_lengthscales_weight_dimensions() {
        let k = Kernel::with_ard(KernelFamily::Matern52, 1.0, vec![0.1, 10.0]);
        // Moving along the short-lengthscale dimension decays covariance
        // far faster than along the long one.
        let o = [0.0, 0.0];
        assert!(k.eval(&o, &[0.2, 0.0]) < k.eval(&o, &[0.0, 0.2]));
    }

    #[test]
    fn gram_is_symmetric_with_variance_diagonal() {
        let k = Kernel::matern52(1.3, 0.4);
        let xs = vec![vec![0.0, 0.1], vec![0.5, 0.5], vec![0.9, 0.2]];
        let g = k.gram(&xs);
        for i in 0..3 {
            assert!((g[(i, i)] - 1.3).abs() < 1e-12);
            for j in 0..3 {
                assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-15);
            }
        }
    }

    #[test]
    #[should_panic(expected = "variance must be positive")]
    fn zero_variance_panics() {
        let _ = Kernel::matern52(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "lengthscale must be positive")]
    fn zero_lengthscale_panics() {
        let _ = Kernel::matern52(1.0, 0.0);
    }

    #[test]
    fn family_names() {
        assert_eq!(KernelFamily::Matern52.name(), "matern52");
        assert_eq!(KernelFamily::Matern32.name(), "matern32");
        assert_eq!(KernelFamily::SquaredExponential.name(), "sqexp");
    }
}
