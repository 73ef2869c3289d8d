//! Exact Gaussian-process regression.
//!
//! Given training pairs `(X, y)`, a kernel `k`, and observation-noise
//! variance `σ_n²`, the GP posterior at a query `x*` is
//!
//! ```text
//! μ(x*) = k(x*,X) · (K + σ_n²·I)⁻¹ · (y − m)        + m
//! σ²(x*) = k(x*,x*) − k(x*,X) · (K + σ_n²·I)⁻¹ · k(X,x*)
//! ```
//!
//! with `m` the empirical mean of `y` (a constant-mean GP). The fit keeps
//! the Cholesky factor of `K + σ_n²·I` so each prediction costs one
//! triangular solve — CLITE keeps sample counts small (tens of points)
//! specifically so this exact inference stays cheap (paper Sec. 4,
//! "mitigates this overhead by carefully limiting the number of sampled
//! data points").

use std::sync::Arc;

use crate::kernel::Kernel;
use crate::linalg::{dot, Cholesky, Matrix};
use crate::GpError;

/// Non-kernel GP configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpConfig {
    /// Observation-noise variance `σ_n²` added to the Gram diagonal.
    pub noise_variance: f64,
}

impl Default for GpConfig {
    fn default() -> Self {
        Self { noise_variance: 1e-4 }
    }
}

/// Telemetry-friendly summary of one GP fit: what was fitted, with which
/// hyper-parameters, and how well.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitSummary {
    /// Number of training points.
    pub observations: usize,
    /// Input dimensionality.
    pub dim: usize,
    /// Kernel family name.
    pub family: &'static str,
    /// Kernel signal variance `σ²`.
    pub signal_variance: f64,
    /// Representative kernel lengthscale (geometric mean under ARD).
    pub lengthscale: f64,
    /// Log marginal likelihood of the fit.
    pub log_marginal: f64,
}

/// Reusable scratch buffers for [`GaussianProcess::predict_into`].
///
/// Acquisition maximization performs tens of thousands of predictions per
/// `suggest()`; routing them through one scratch value makes the hot path
/// allocation-free after the first call.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    k_star: Vec<f64>,
    v: Vec<f64>,
    scaled: Vec<f64>,
    r2: Vec<f64>,
}

/// Column-major (structure-of-arrays) storage of the lengthscale-scaled
/// training inputs: dimension `d` occupies the contiguous slice
/// `data[d·n .. (d+1)·n]`.
///
/// ```text
///            point:   0     1     2   …   n-1
/// data:  [ x₀/ℓ₀  x₁/ℓ₀  x₂/ℓ₀  …            ]  column 0 (dim 0)
///        [ x₀/ℓ₁  x₁/ℓ₁  x₂/ℓ₁  …            ]  column 1 (dim 1)
///        [   ⋮                                ]      ⋮
/// ```
///
/// The prediction hot paths accumulate squared distances dimension-by-
/// dimension over these flat columns, so every inner loop streams one
/// contiguous slice (auto-vectorizing) instead of chasing `n` separate
/// per-point `Vec`s. Per element, the accumulation order (dimensions
/// ascending) is exactly the old point-major loop's, so results are
/// bit-identical to the array-of-structs layout this replaced.
#[derive(Debug, Clone)]
struct ScaledColumns {
    n: usize,
    dim: usize,
    data: Vec<f64>,
}

impl ScaledColumns {
    /// Scales every training point through the kernel and scatters the
    /// results into column-major storage.
    fn build(kernel: &Kernel, xs: &[Vec<f64>]) -> Self {
        let n = xs.len();
        let dim = xs.first().map_or(0, Vec::len);
        let mut data = vec![0.0; n * dim];
        let mut scaled = Vec::new();
        for (i, x) in xs.iter().enumerate() {
            kernel.scale_into(x, &mut scaled);
            for (d, &v) in scaled.iter().enumerate() {
                data[d * n + i] = v;
            }
        }
        Self { n, dim, data }
    }

    /// The contiguous column for dimension `d`.
    fn column(&self, d: usize) -> &[f64] {
        &self.data[d * self.n..(d + 1) * self.n]
    }

    /// A copy extended by one already-scaled point.
    fn extended(&self, scaled: &[f64]) -> Self {
        debug_assert_eq!(scaled.len(), self.dim);
        let n = self.n + 1;
        let mut data = Vec::with_capacity(n * self.dim);
        for (d, &v) in scaled.iter().enumerate() {
            data.extend_from_slice(self.column(d));
            data.push(v);
        }
        Self { n, dim: self.dim, data }
    }

    /// Writes the squared distance from the scaled query `q` to every
    /// training point into `r2`, one streaming pass per dimension, through
    /// [`clite_par::wide_lanes`].
    fn sq_dists_into(&self, q: &[f64], r2: &mut Vec<f64>) {
        clite_par::wide_lanes(
            #[inline(always)]
            || self.sq_dists_into_body(q, r2),
        );
    }

    #[inline(always)]
    fn sq_dists_into_body(&self, q: &[f64], r2: &mut Vec<f64>) {
        debug_assert_eq!(q.len(), self.dim);
        r2.clear();
        r2.resize(self.n, 0.0);
        for (d, &qd) in q.iter().enumerate() {
            for (acc, &t) in r2.iter_mut().zip(self.column(d)) {
                let diff = qd - t;
                *acc += diff * diff;
            }
        }
    }
}

/// Posterior mean plus a cheap *upper bound* on the posterior standard
/// deviation, produced by [`GaussianProcess::gate_rows`] without the
/// O(n²) triangular solve. Acquisition climbs use the bound to skip or
/// defer the solve for candidates that cannot beat the step's best.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatedPrediction {
    /// Exact posterior mean.
    pub mean: f64,
    /// Upper bound on the posterior standard deviation (`std <= std_upper`
    /// always; equality is not approached in general).
    pub std_upper: f64,
}

/// A fitted Gaussian process.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: Kernel,
    config: GpConfig,
    xs: Arc<Vec<Vec<f64>>>,
    ys: Arc<Vec<f64>>,
    /// Training inputs pre-divided by the kernel lengthscales, stored
    /// column-major ([`ScaledColumns`]) so each prediction scales its query
    /// once and streams every cross-covariance over flat per-dimension
    /// slices with multiply/adds only.
    scaled_xs: ScaledColumns,
    /// Row sums of `K + σₙ²I` (all entries of a stationary kernel matrix
    /// are positive, so these are also the absolute row sums). Their max
    /// bounds `λ_max`, which powers the variance bound in
    /// [`GaussianProcess::gate_rows`]; kept as a vector so
    /// [`GaussianProcess::extended`] can update them in O(n).
    row_sums: Vec<f64>,
    /// `max(row_sums)`, precomputed so the gate pays zero per-candidate
    /// reduction cost.
    inf_norm: f64,
    mean_y: f64,
    alpha: Vec<f64>,
    chol: Cholesky,
    log_marginal: f64,
}

/// Checks a training set: non-empty, one target per input, one
/// dimension, every value finite. Returns the dimension.
pub(crate) fn validate(xs: &[Vec<f64>], ys: &[f64]) -> Result<usize, GpError> {
    if xs.is_empty() {
        return Err(GpError::EmptyTrainingSet);
    }
    if xs.len() != ys.len() {
        return Err(GpError::LengthMismatch { inputs: xs.len(), targets: ys.len() });
    }
    let dim = xs[0].len();
    for x in xs {
        if x.len() != dim {
            return Err(GpError::DimensionMismatch { expected: dim, actual: x.len() });
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFiniteValue);
        }
    }
    if ys.iter().any(|v| !v.is_finite()) {
        return Err(GpError::NonFiniteValue);
    }
    Ok(dim)
}

impl GaussianProcess {
    /// Fits an exact GP to `(xs, ys)`.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::EmptyTrainingSet`], [`GpError::LengthMismatch`],
    /// [`GpError::DimensionMismatch`], or [`GpError::NonFiniteValue`] for
    /// malformed data, and [`GpError::NotPositiveDefinite`] if the kernel
    /// matrix cannot be factorized even with jitter.
    pub fn fit(
        kernel: Kernel,
        config: GpConfig,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
    ) -> Result<Self, GpError> {
        Self::fit_shared(kernel, config, Arc::new(xs), Arc::new(ys))
    }

    /// Like [`GaussianProcess::fit`] but shares the training data instead
    /// of owning a private copy — hyper-parameter grid search fits the same
    /// `(X, y)` under many kernels and should not clone it per candidate.
    ///
    /// # Errors
    ///
    /// Same contract as [`GaussianProcess::fit`].
    pub fn fit_shared(
        kernel: Kernel,
        config: GpConfig,
        xs: Arc<Vec<Vec<f64>>>,
        ys: Arc<Vec<f64>>,
    ) -> Result<Self, GpError> {
        validate(&xs, &ys)?;
        let gram = kernel.gram(&xs);
        Self::fit_with_gram(kernel, config, xs, ys, gram)
    }

    /// Fits from a precomputed noise-free Gram matrix `K = k(X, X)`. This
    /// is the shared-distance grid-search entry point: the caller builds
    /// `K` per grid point from one pairwise-distance matrix
    /// ([`Kernel::gram_from_distances`]) and this constructor only pays for
    /// the factorization.
    ///
    /// # Errors
    ///
    /// Same contract as [`GaussianProcess::fit`], plus
    /// [`GpError::ShapeMismatch`] if `gram` is not `n × n`.
    pub fn fit_with_gram(
        kernel: Kernel,
        config: GpConfig,
        xs: Arc<Vec<Vec<f64>>>,
        ys: Arc<Vec<f64>>,
        gram: Matrix,
    ) -> Result<Self, GpError> {
        validate(&xs, &ys)?;
        let n = xs.len();
        if gram.rows() != n || gram.cols() != n {
            return Err(GpError::ShapeMismatch { op: "fit_with_gram" });
        }
        let targets = Centered::new(&ys);
        Ok(GramFit::new(kernel, config, &targets, gram)?.finish(config, xs, ys, &targets))
    }

    /// Returns a new GP with one extra observation `(x, y)`, reusing this
    /// fit's Cholesky factor via a rank-1 border extension — O(n²) instead
    /// of the O(n³) from-scratch refactorization, which is what makes
    /// recording between hyper refreshes cheap. Falls back to a full refit
    /// (same kernel) if the extended factor is numerically not positive
    /// definite, so the result matches a from-scratch fit to working
    /// precision either way.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] / [`GpError::NonFiniteValue`]
    /// for malformed input and [`GpError::NotPositiveDefinite`] if even the
    /// fallback refit fails.
    pub fn extended(&self, x: Vec<f64>, y: f64) -> Result<Self, GpError> {
        if x.len() != self.dim() {
            return Err(GpError::DimensionMismatch { expected: self.dim(), actual: x.len() });
        }
        if x.iter().any(|v| !v.is_finite()) || !y.is_finite() {
            return Err(GpError::NonFiniteValue);
        }

        let k = self.kernel.cross(&x, &self.xs);
        let diag = self.kernel.variance() + self.config.noise_variance.max(0.0);

        let mut xs: Vec<Vec<f64>> = Vec::clone(&self.xs);
        let mut ys: Vec<f64> = Vec::clone(&self.ys);
        xs.push(x);
        ys.push(y);
        let (xs, ys) = (Arc::new(xs), Arc::new(ys));

        let chol = match self.chol.extend(&k, diag) {
            Ok(c) => c,
            // The jitter ladder in `decompose` can rescue borderline cases
            // a fixed-jitter border extension cannot.
            Err(GpError::NotPositiveDefinite) => {
                return Self::fit_shared(self.kernel.clone(), self.config, xs, ys);
            }
            Err(e) => return Err(e),
        };

        // The empirical mean shifts with the new target, so α must be
        // re-solved against the extended factor — still O(n²).
        let n = ys.len();
        let mean_y = ys.iter().sum::<f64>() / n as f64;
        let centered: Vec<f64> = ys.iter().map(|v| v - mean_y).collect();
        let alpha = chol.solve(&centered)?;
        let log_marginal = log_marginal(&centered, &alpha, &chol);

        let mut scaled = Vec::new();
        self.kernel.scale_into(xs.last().expect("just pushed"), &mut scaled);
        let scaled_xs = self.scaled_xs.extended(&scaled);

        // Bordering `K + σₙ²I` with the cross-covariance row updates every
        // row sum by one entry and appends the new row's own sum.
        let mut row_sums: Vec<f64> = self.row_sums.iter().zip(&k).map(|(s, ki)| s + ki).collect();
        row_sums.push(k.iter().sum::<f64>() + diag);
        let inf_norm = row_sums.iter().fold(0.0_f64, |m, &s| m.max(s));

        Ok(Self {
            kernel: self.kernel.clone(),
            config: self.config,
            xs,
            ys,
            scaled_xs,
            row_sums,
            inf_norm,
            mean_y,
            alpha,
            chol,
            log_marginal,
        })
    }

    /// Number of training points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the training set is empty (never true for a fitted GP).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Input dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.xs[0].len()
    }

    /// The kernel used by this fit.
    #[must_use]
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The configuration used by this fit.
    #[must_use]
    pub fn config(&self) -> GpConfig {
        self.config
    }

    /// The log marginal likelihood `log p(y | X, θ)` of this fit.
    #[must_use]
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.log_marginal
    }

    /// One-line summary of this fit for telemetry sinks.
    #[must_use]
    pub fn fit_summary(&self) -> FitSummary {
        FitSummary {
            observations: self.len(),
            dim: self.dim(),
            family: self.kernel.family().name(),
            signal_variance: self.kernel.variance(),
            lengthscale: self.kernel.mean_lengthscale(),
            log_marginal: self.log_marginal,
        }
    }

    /// Posterior predictive mean and variance at `x`.
    ///
    /// The variance is clamped at zero to absorb round-off. Allocates
    /// per call — hot paths should hold a [`PredictScratch`] and use
    /// [`GaussianProcess::predict_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        self.predict_into(x, &mut PredictScratch::default())
    }

    /// [`predict`](GaussianProcess::predict) through caller-owned scratch
    /// buffers: zero allocations once the scratch has warmed up, and the
    /// query is divided by the lengthscales once instead of once per
    /// training point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn predict_into(&self, x: &[f64], scratch: &mut PredictScratch) -> (f64, f64) {
        assert_eq!(x.len(), self.dim(), "query dimension mismatch");
        self.kernel.scale_into(x, &mut scratch.scaled);
        self.scaled_xs.sq_dists_into(&scratch.scaled, &mut scratch.r2);
        scratch.k_star.clear();
        self.kernel.eval_scaled_sq_append(&scratch.r2, &mut scratch.k_star);
        let mean = self.mean_y + dot(&scratch.k_star, &self.alpha);
        // v = L⁻¹ k*; σ² = k(x,x) − vᵀv, and k(x,x) is exactly σ² for a
        // stationary kernel (corr(0) = 1).
        self.chol
            .solve_lower_into(&scratch.k_star, &mut scratch.v)
            .expect("cross-covariance length matches training size");
        let var = self.kernel.variance() - dot(&scratch.v, &scratch.v);
        (mean, var.max(0.0))
    }

    /// Posterior mean and *standard deviation* at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    #[must_use]
    pub fn predict_std(&self, x: &[f64]) -> (f64, f64) {
        let (m, v) = self.predict(x);
        (m, v.sqrt())
    }

    /// [`predict_std`](GaussianProcess::predict_std) through caller-owned
    /// scratch buffers.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn predict_std_into(&self, x: &[f64], scratch: &mut PredictScratch) -> (f64, f64) {
        let (m, v) = self.predict_into(x, scratch);
        (m, v.sqrt())
    }

    /// Writes the squared scaled distance from `x` to every training point
    /// into `r2_out`, scaling `x` once through `scaled_out`. A hill-climb
    /// computes this once per step for the current partition and derives
    /// each neighbour's row with two-coordinate shifts
    /// ([`GaussianProcess::append_shifted_sq_dists`]).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn scaled_sq_dists_into(
        &self,
        x: &[f64],
        scaled_out: &mut Vec<f64>,
        r2_out: &mut Vec<f64>,
    ) {
        assert_eq!(x.len(), self.dim(), "query dimension mismatch");
        self.kernel.scale_into(x, scaled_out);
        self.scaled_xs.sq_dists_into(scaled_out, r2_out);
    }

    /// Appends a neighbour's squared-distance row to `out`, derived from
    /// `base` when the neighbour differs from the base query in exactly two
    /// scaled coordinates: each `(dim, old, new)` change replaces the
    /// `(old − xᵢ[dim])²` term with `(new − xᵢ[dim])²`. O(n) per neighbour
    /// instead of the O(n·d) of [`GaussianProcess::scaled_sq_dists_into`].
    /// The result is clamped at zero to absorb cancellation round-off; the
    /// base is recomputed fresh each climb step, so error never
    /// accumulates across steps.
    ///
    /// # Panics
    ///
    /// Panics if `base.len()` differs from the number of training points.
    pub fn append_shifted_sq_dists(
        &self,
        base: &[f64],
        changes: [(usize, f64, f64); 2],
        out: &mut Vec<f64>,
    ) {
        clite_par::wide_lanes(
            #[inline(always)]
            || self.append_shifted_sq_dists_body(base, changes, out),
        );
    }

    #[inline(always)]
    fn append_shifted_sq_dists_body(
        &self,
        base: &[f64],
        changes: [(usize, f64, f64); 2],
        out: &mut Vec<f64>,
    ) {
        assert_eq!(base.len(), self.len(), "distance vector length mismatch");
        // Two streaming column passes; per element this applies the first
        // change, then the second, then the clamp.
        let start = out.len();
        out.extend_from_slice(base);
        let row = &mut out[start..];
        let [(dim0, old0, new0), (dim1, old1, new1)] = changes;
        for (acc, &t) in row.iter_mut().zip(self.scaled_xs.column(dim0)) {
            let (d_old, d_new) = (old0 - t, new0 - t);
            *acc += d_new * d_new - d_old * d_old;
        }
        for (acc, &t) in row.iter_mut().zip(self.scaled_xs.column(dim1)) {
            let (d_old, d_new) = (old1 - t, new1 - t);
            *acc += d_new * d_new - d_old * d_old;
            *acc = acc.max(0.0);
        }
    }

    /// Exact posterior means plus upper bounds on the posterior standard
    /// deviations for a batch of queries, given as consecutive length-`n`
    /// squared-distance rows in `r2_rows` — O(n) per row, no triangular
    /// solve. The cross-covariance rows are written to `k_star_rows` (same
    /// layout) in one sweep, so callers can resolve exact variances for
    /// the rows the bound does not rule out with
    /// [`GaussianProcess::batch_stds`]; `gated` receives one entry per row.
    ///
    /// Rows are reduced four at a time: the four rows' `k*·α`, `‖k*‖²` and
    /// `max k*²` chains interleave, so a pass runs twelve independent
    /// accumulations instead of three. Each chain still visits its row in
    /// element order, so every value is bit-identical to reducing the row
    /// on its own (the mean to `mean_y + dot(k*, α)`). The covariance
    /// sweep and the reduction run through [`clite_par::wide_lanes`], with
    /// the same bits at either lane width.
    ///
    /// The bound: `σ²(x) = σ² − vᵀv` with `v = L⁻¹k*`, and `vᵀv =
    /// k*ᵀ(K+σₙ²I)⁻¹k*` admits two cheap lower bounds — `‖k*‖² / λ_max`
    /// with `λ_max ≤ max_i Σ_j |K+σₙ²I|_ij` (row-sum bound; every entry of
    /// a stationary-kernel Gram matrix is positive), and `max_i k*ᵢ² /
    /// (σ²+σₙ²)` from Cauchy–Schwarz in the `(K+σₙ²I)⁻¹` inner product.
    /// Subtracting the larger from `σ²` upper-bounds the variance. Any
    /// factorization jitter is added to both denominators so the bound
    /// stays sound for rescued borderline fits.
    ///
    /// # Panics
    ///
    /// Panics if `r2_rows.len()` is not a multiple of the training size.
    pub fn gate_rows(
        &self,
        r2_rows: &[f64],
        k_star_rows: &mut Vec<f64>,
        gated: &mut Vec<GatedPrediction>,
    ) {
        clite_par::wide_lanes(
            #[inline(always)]
            || self.gate_rows_body(r2_rows, k_star_rows, gated),
        );
    }

    #[inline(always)]
    fn gate_rows_body(
        &self,
        r2_rows: &[f64],
        k_star_rows: &mut Vec<f64>,
        gated: &mut Vec<GatedPrediction>,
    ) {
        let n = self.len();
        assert!(r2_rows.len().is_multiple_of(n), "distance row length mismatch");
        k_star_rows.clear();
        self.kernel.eval_scaled_sq_append_body(r2_rows, k_star_rows);
        gated.clear();
        let mut blocks = k_star_rows.chunks_exact(4 * n);
        for block in &mut blocks {
            let (k0, rest) = block.split_at(n);
            let (k1, rest) = rest.split_at(n);
            let (k2, k3) = rest.split_at(n);
            gated.extend(self.gate_lanes([k0, k1, k2, k3]));
        }
        for row in blocks.remainder().chunks_exact(n) {
            gated.extend(self.gate_lanes([row]));
        }
    }

    /// The gate of [`GaussianProcess::gate_rows`] over `R` interleaved
    /// cross-covariance rows.
    #[inline(always)]
    fn gate_lanes<const R: usize>(&self, rows: [&[f64]; R]) -> [GatedPrediction; R] {
        // Rows sliced to `α`'s length: the compiler drops the per-element
        // bounds checks that would otherwise keep the lanes from
        // interleaving.
        let rows = rows.map(|row| &row[..self.alpha.len()]);
        // −0.0 is `f64`'s `Sum` identity, so the mean chain matches `dot`.
        let (mut k_alpha, mut norm_sq, mut max_sq) = ([-0.0_f64; R], [0.0_f64; R], [0.0_f64; R]);
        for (j, &a) in self.alpha.iter().enumerate() {
            for r in 0..R {
                let k = rows[r][j];
                k_alpha[r] += k * a;
                let k2 = k * k;
                norm_sq[r] += k2;
                max_sq[r] = max_sq[r].max(k2);
            }
        }
        let jitter = self.chol.jitter();
        let inf_norm = self.inf_norm + jitter;
        let diag = self.kernel.variance() + self.config.noise_variance.max(0.0) + jitter;
        std::array::from_fn(|r| {
            let vtv_lb = (norm_sq[r] / inf_norm).max(max_sq[r] / diag);
            let var_ub = self.kernel.variance() - vtv_lb;
            GatedPrediction { mean: self.mean_y + k_alpha[r], std_upper: var_ub.max(0.0).sqrt() }
        })
    }

    /// Exact posterior standard deviations for a batch of cross-covariance
    /// rows (`m` consecutive length-`n` rows in `k_star_all`, as written by
    /// [`GaussianProcess::gate_rows`]), written to `stds` in order.
    ///
    /// The solves run as one blocked multi-RHS forward substitution
    /// ([`Cholesky::solve_lower_batch`]) — a lone solve is latency-bound
    /// on its own dependency chain, while four-wide blocking runs four
    /// independent chains per pass. Each row's result does not depend on
    /// which other rows share its batch. `v_all` is solver scratch: it
    /// also holds the solver's interleaved block, so a reused `v_all`
    /// makes the call allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `k_star_all.len()` is not a multiple of the training size.
    pub fn batch_stds(&self, k_star_all: &[f64], v_all: &mut Vec<f64>, stds: &mut Vec<f64>) {
        clite_par::wide_lanes(
            #[inline(always)]
            || self.batch_stds_body(k_star_all, v_all, stds),
        );
    }

    #[inline(always)]
    fn batch_stds_body(&self, k_star_all: &[f64], v_all: &mut Vec<f64>, stds: &mut Vec<f64>) {
        self.chol
            .solve_lower_batch_body(k_star_all, v_all)
            .expect("cross-covariance batch length matches training size");
        let variance = self.kernel.variance();
        stds.clear();
        stds.extend(v_all.chunks_exact(self.len()).map(|v| (variance - dot(v, v)).max(0.0).sqrt()));
    }
}

/// Training targets with their empirical mean removed — the constant-mean
/// GP's regression targets, shared by every grid point of a scan.
pub(crate) struct Centered {
    mean: f64,
    values: Vec<f64>,
}

impl Centered {
    pub(crate) fn new(ys: &[f64]) -> Self {
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        Self { mean, values: ys.iter().map(|y| y - mean).collect() }
    }
}

/// The part of a fit that ranks it: the factor of the noisy Gram matrix
/// `K + σₙ²I`, `α` and the log marginal likelihood. A hyper-grid scan
/// builds one per grid point and [`finishes`](GramFit::finish) only the
/// winner. The Gram matrix itself is dropped once factored, keeping only
/// its row sums: a scan then holds one `n × n` matrix per grid point, the
/// factor, as the per-point fits it replaced did.
pub(crate) struct GramFit {
    kernel: Kernel,
    row_sums: Vec<f64>,
    chol: Cholesky,
    alpha: Vec<f64>,
    log_marginal: f64,
}

impl GramFit {
    /// Factors the noise-free Gram matrix `gram` of `kernel` plus the
    /// noise diagonal and solves for the centred targets.
    pub(crate) fn new(
        kernel: Kernel,
        config: GpConfig,
        targets: &Centered,
        mut gram: Matrix,
    ) -> Result<Self, GpError> {
        gram.add_diagonal(config.noise_variance.max(0.0));
        let n = gram.rows();
        let row_sums: Vec<f64> =
            (0..n).map(|i| (0..n).map(|j| gram[(i, j)]).sum::<f64>()).collect();
        let chol = Cholesky::decompose(&gram)?;
        let alpha = chol.solve(&targets.values)?;
        let log_marginal = log_marginal(&targets.values, &alpha, &chol);
        Ok(Self { kernel, row_sums, chol, alpha, log_marginal })
    }

    /// The fit's log marginal likelihood.
    pub(crate) fn log_marginal(&self) -> f64 {
        self.log_marginal
    }

    /// The full GP over `(xs, ys)`, whose centred targets this was fitted
    /// to: the gate's `‖K + σₙ²I‖∞` and the scaled training columns.
    pub(crate) fn finish(
        self,
        config: GpConfig,
        xs: Arc<Vec<Vec<f64>>>,
        ys: Arc<Vec<f64>>,
        targets: &Centered,
    ) -> GaussianProcess {
        let Self { kernel, row_sums, chol, alpha, log_marginal } = self;
        let inf_norm = row_sums.iter().fold(0.0_f64, |m, &s| m.max(s));
        let scaled_xs = ScaledColumns::build(&kernel, &xs);
        GaussianProcess {
            kernel,
            config,
            xs,
            ys,
            scaled_xs,
            row_sums,
            inf_norm,
            mean_y: targets.mean,
            alpha,
            chol,
            log_marginal,
        }
    }
}

/// `log p(y|X) = −½ yᵀα − ½ log|K| − (n/2) log 2π`.
fn log_marginal(centered: &[f64], alpha: &[f64], chol: &Cholesky) -> f64 {
    -0.5 * dot(centered, alpha)
        - 0.5 * chol.log_determinant()
        - 0.5 * centered.len() as f64 * (2.0 * std::f64::consts::PI).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelFamily;

    fn toy_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i) / 9.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 4.0).sin() + 0.5 * x[0]).collect();
        (xs, ys)
    }

    fn fit_toy() -> GaussianProcess {
        let (xs, ys) = toy_data();
        GaussianProcess::fit(Kernel::matern52(1.0, 0.3), GpConfig::default(), xs, ys).unwrap()
    }

    #[test]
    #[should_panic(expected = "kernel variance must be positive and finite")]
    fn an_infinite_variance_fit_is_refused_at_once() {
        let (xs, ys) = toy_data();
        let kernel = Kernel::matern52(f64::INFINITY, 0.3);
        let _ = GaussianProcess::fit(kernel, GpConfig::default(), xs, ys);
    }

    #[test]
    fn a_fit_whose_gram_diagonal_overflows_is_an_error() {
        // A repeated point makes the Gram matrix singular, so the jitter
        // ladder runs, scaled by a mean diagonal that overflows to ∞.
        let xs = vec![vec![0.5], vec![0.5]];
        let kernel = Kernel::matern52(f64::MAX, 0.3);
        let err =
            GaussianProcess::fit(kernel, GpConfig::default(), xs, vec![0.1, 0.2]).unwrap_err();
        assert_eq!(err, GpError::NonFiniteValue);
    }

    #[test]
    fn interpolates_training_points() {
        let gp = fit_toy();
        let (xs, ys) = toy_data();
        for (x, y) in xs.iter().zip(&ys) {
            let (m, v) = gp.predict(x);
            assert!((m - y).abs() < 0.05, "mean {m} vs target {y}");
            assert!(v < 0.01, "variance should be tiny at training points, got {v}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let gp = fit_toy();
        let (_, v_in) = gp.predict(&[0.5]);
        let (_, v_out) = gp.predict(&[3.0]);
        assert!(v_out > 10.0 * v_in.max(1e-9));
        // Far from data the posterior reverts to the prior variance.
        assert!((v_out - 1.0).abs() < 0.1);
    }

    #[test]
    fn predictions_are_finite_and_variance_nonnegative() {
        let gp = fit_toy();
        for i in 0..50 {
            let x = [f64::from(i) / 10.0 - 2.0];
            let (m, v) = gp.predict(&x);
            assert!(m.is_finite());
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn errors_on_malformed_input() {
        let k = Kernel::matern52(1.0, 1.0);
        let cfg = GpConfig::default();
        assert_eq!(
            GaussianProcess::fit(k.clone(), cfg, vec![], vec![]).unwrap_err(),
            GpError::EmptyTrainingSet
        );
        assert!(matches!(
            GaussianProcess::fit(k.clone(), cfg, vec![vec![0.0]], vec![1.0, 2.0]).unwrap_err(),
            GpError::LengthMismatch { .. }
        ));
        assert!(matches!(
            GaussianProcess::fit(k.clone(), cfg, vec![vec![0.0], vec![0.0, 1.0]], vec![1.0, 2.0])
                .unwrap_err(),
            GpError::DimensionMismatch { .. }
        ));
        assert_eq!(
            GaussianProcess::fit(k, cfg, vec![vec![f64::NAN]], vec![1.0]).unwrap_err(),
            GpError::NonFiniteValue
        );
    }

    #[test]
    fn duplicate_points_survive_via_noise() {
        // Two identical inputs with different targets: the noise term keeps
        // the Gram matrix invertible.
        let xs = vec![vec![0.5], vec![0.5], vec![0.9]];
        let ys = vec![1.0, 1.2, 0.0];
        let gp = GaussianProcess::fit(
            Kernel::matern52(1.0, 0.2),
            GpConfig { noise_variance: 1e-2 },
            xs,
            ys,
        )
        .unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!(m > 0.8 && m < 1.3, "mean near the duplicate targets, got {m}");
    }

    #[test]
    fn log_marginal_prefers_good_lengthscale() {
        let (xs, ys) = toy_data();
        let good = GaussianProcess::fit(
            Kernel::matern52(1.0, 0.3),
            GpConfig::default(),
            xs.clone(),
            ys.clone(),
        )
        .unwrap();
        let bad =
            GaussianProcess::fit(Kernel::matern52(1.0, 1e4), GpConfig::default(), xs, ys).unwrap();
        assert!(good.log_marginal_likelihood() > bad.log_marginal_likelihood());
    }

    #[test]
    fn predict_into_matches_predict_and_reuses_buffers() {
        let gp = fit_toy();
        let mut scratch = PredictScratch::default();
        for i in 0..20 {
            let x = [f64::from(i) / 10.0 - 0.5];
            let (m0, v0) = gp.predict(&x);
            let (m1, v1) = gp.predict_into(&x, &mut scratch);
            assert_eq!(m0.to_bits(), m1.to_bits());
            assert_eq!(v0.to_bits(), v1.to_bits());
        }
    }

    #[test]
    fn extended_matches_from_scratch_fit() {
        let (xs, ys) = toy_data();
        let base = GaussianProcess::fit(
            Kernel::matern52(1.0, 0.3),
            GpConfig::default(),
            xs[..9].to_vec(),
            ys[..9].to_vec(),
        )
        .unwrap();
        let inc = base.extended(xs[9].clone(), ys[9]).unwrap();
        let full =
            GaussianProcess::fit(Kernel::matern52(1.0, 0.3), GpConfig::default(), xs, ys).unwrap();
        assert_eq!(inc.len(), full.len());
        assert!(
            (inc.log_marginal_likelihood() - full.log_marginal_likelihood()).abs() < 1e-9,
            "log-marginal drift: {} vs {}",
            inc.log_marginal_likelihood(),
            full.log_marginal_likelihood()
        );
        for i in 0..30 {
            let x = [f64::from(i) / 29.0 * 2.0 - 0.5];
            let (mi, vi) = inc.predict(&x);
            let (mf, vf) = full.predict(&x);
            assert!((mi - mf).abs() < 1e-9, "mean drift at {x:?}: {mi} vs {mf}");
            assert!((vi - vf).abs() < 1e-9, "variance drift at {x:?}: {vi} vs {vf}");
        }
    }

    #[test]
    fn extended_rejects_malformed_points() {
        let gp = fit_toy();
        assert!(matches!(
            gp.extended(vec![0.1, 0.2], 0.5).unwrap_err(),
            GpError::DimensionMismatch { .. }
        ));
        assert_eq!(gp.extended(vec![f64::NAN], 0.5).unwrap_err(), GpError::NonFiniteValue);
        assert_eq!(gp.extended(vec![0.1], f64::INFINITY).unwrap_err(), GpError::NonFiniteValue);
    }

    #[test]
    fn extended_duplicate_point_falls_back_to_refit() {
        // An exact duplicate of a training point makes the bordered matrix
        // singular at the base fit's (zero) jitter, so `extended` must fall
        // back to the full decompose-with-jitter path and still succeed.
        let xs = vec![vec![0.1], vec![0.5], vec![0.9]];
        let ys = vec![0.3, 0.7, 0.2];
        let gp = GaussianProcess::fit(
            Kernel::matern52(1.0, 0.4),
            GpConfig { noise_variance: 0.0 },
            xs,
            ys,
        )
        .unwrap();
        let inc = gp.extended(vec![0.5], 0.7).unwrap();
        assert_eq!(inc.len(), 4);
        let (m, _) = inc.predict(&[0.5]);
        assert!(m.is_finite());
    }

    #[test]
    fn higher_dimensional_inputs() {
        let xs: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let t = f64::from(i) / 19.0;
                vec![t, 1.0 - t, (t * 7.0).fract()]
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[1] + 0.3 * x[2]).collect();
        let gp =
            GaussianProcess::fit(Kernel::matern52(1.0, 0.5), GpConfig::default(), xs, ys).unwrap();
        assert_eq!(gp.dim(), 3);
        let (m, _) = gp.predict(&[0.5, 0.5, 0.5]);
        assert!((m - 0.4).abs() < 0.15);
    }

    /// The gate of one row on its own, as a plain per-row pass: exact mean
    /// `mean_y + dot(k*, α)` and the two-bound σ ceiling.
    fn scalar_gate(gp: &GaussianProcess, r2: &[f64]) -> GatedPrediction {
        let mut k_star = Vec::new();
        gp.kernel.eval_scaled_sq_append(r2, &mut k_star);
        let mean = gp.mean_y + dot(&k_star, &gp.alpha);
        let (mut norm_sq, mut max_sq) = (0.0_f64, 0.0_f64);
        for &k in &k_star {
            let k2 = k * k;
            norm_sq += k2;
            max_sq = max_sq.max(k2);
        }
        let jitter = gp.chol.jitter();
        let inf_norm = gp.inf_norm + jitter;
        let diag = gp.kernel.variance() + gp.config.noise_variance.max(0.0) + jitter;
        let vtv_lb = (norm_sq / inf_norm).max(max_sq / diag);
        let var_ub = gp.kernel.variance() - vtv_lb;
        GatedPrediction { mean, std_upper: var_ub.max(0.0).sqrt() }
    }

    #[test]
    fn gate_rows_match_scalar_gate_bit_for_bit() {
        let gp = fit_toy();
        let mut scaled = Vec::new();
        let mut base = Vec::new();
        gp.scaled_sq_dists_into(&[0.37], &mut scaled, &mut base);
        // 1–9 rows: a lone tail, full 4-row blocks, and blocks plus tails.
        for rows in 1..=9_usize {
            let mut r2 = Vec::new();
            for r in 0..rows {
                let new = scaled[0] + (r as f64 - 4.0) * 0.9;
                gp.append_shifted_sq_dists(&base, [(0, scaled[0], new), (0, new, new)], &mut r2);
            }
            let (mut k_star, mut gated) = (Vec::new(), Vec::new());
            gp.gate_rows(&r2, &mut k_star, &mut gated);
            assert_eq!(gated.len(), rows);
            assert_eq!(k_star.len(), rows * gp.len());
            for (r, (g, row)) in gated.iter().zip(r2.chunks_exact(gp.len())).enumerate() {
                let want = scalar_gate(&gp, row);
                assert_eq!(g.mean.to_bits(), want.mean.to_bits(), "rows={rows} mean of row {r}");
                assert_eq!(
                    g.std_upper.to_bits(),
                    want.std_upper.to_bits(),
                    "rows={rows} std bound of row {r}"
                );
            }
        }
    }

    #[test]
    fn gate_bound_dominates_exact_std() {
        let gp = fit_toy();
        let mut scaled = Vec::new();
        let mut base = Vec::new();
        gp.scaled_sq_dists_into(&[0.5], &mut scaled, &mut base);
        let mut r2 = Vec::new();
        for r in 0..40 {
            let new = scaled[0] + (f64::from(r) - 20.0) * 0.37;
            gp.append_shifted_sq_dists(&base, [(0, scaled[0], new), (0, new, new)], &mut r2);
        }
        let (mut k_star, mut gated) = (Vec::new(), Vec::new());
        gp.gate_rows(&r2, &mut k_star, &mut gated);
        let (mut v, mut stds) = (Vec::new(), Vec::new());
        gp.batch_stds(&k_star, &mut v, &mut stds);
        for (g, s) in gated.iter().zip(&stds) {
            assert!(*s <= g.std_upper, "std {s} above its bound {}", g.std_upper);
        }
    }

    /// `fit_with_gram` as one body, before the fit was split into the part
    /// a grid scan ranks by ([`GramFit`]) and the part only its winner
    /// pays for: the reference the split form must equal bit for bit.
    fn unsplit_fit_with_gram(
        kernel: Kernel,
        config: GpConfig,
        xs: Arc<Vec<Vec<f64>>>,
        ys: Arc<Vec<f64>>,
        mut gram: Matrix,
    ) -> Result<GaussianProcess, GpError> {
        validate(&xs, &ys)?;
        let n = xs.len();
        if gram.rows() != n || gram.cols() != n {
            return Err(GpError::ShapeMismatch { op: "fit_with_gram" });
        }
        let mean_y = ys.iter().sum::<f64>() / n as f64;
        let centered: Vec<f64> = ys.iter().map(|y| y - mean_y).collect();
        gram.add_diagonal(config.noise_variance.max(0.0));
        let row_sums: Vec<f64> =
            (0..n).map(|i| (0..n).map(|j| gram[(i, j)]).sum::<f64>()).collect();
        let inf_norm = row_sums.iter().fold(0.0_f64, |m, &s| m.max(s));
        let chol = Cholesky::decompose(&gram)?;
        let alpha = chol.solve(&centered)?;
        let log_marginal = log_marginal(&centered, &alpha, &chol);
        let scaled_xs = ScaledColumns::build(&kernel, &xs);
        Ok(GaussianProcess {
            kernel,
            config,
            xs,
            ys,
            scaled_xs,
            row_sums,
            inf_norm,
            mean_y,
            alpha,
            chol,
            log_marginal,
        })
    }

    #[test]
    fn split_fit_matches_the_unsplit_fit_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(24);
        for case in 0..300 {
            let n = rng.gen_range(1..40);
            let dim = rng.gen_range(1..6);
            // A coarse lattice repeats points (a singular Gram without
            // noise); targets include −0.0 and flat runs.
            let coarse = case % 3 == 0;
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    (0..dim)
                        .map(|_| if coarse { f64::from(rng.gen_range(0..2)) } else { rng.gen() })
                        .collect()
                })
                .collect();
            let ys: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..4) {
                    0 => -0.0,
                    1 => 0.5,
                    _ => rng.gen_range(-3.0..3.0),
                })
                .collect();
            let kernel = Kernel::new(
                [KernelFamily::Matern52, KernelFamily::Matern32, KernelFamily::SquaredExponential]
                    [case % 3],
                rng.gen_range(0.001..2.0),
                rng.gen_range(0.05..4.0),
            );
            let config = GpConfig { noise_variance: [0.0, 1e-4, 1e-2][case % 3] };
            let (xs, ys) = (Arc::new(xs), Arc::new(ys));
            let gram = kernel.gram(&xs);
            let got = GaussianProcess::fit_with_gram(
                kernel.clone(),
                config,
                Arc::clone(&xs),
                Arc::clone(&ys),
                gram.clone(),
            );
            let want = unsplit_fit_with_gram(kernel, config, xs, ys, gram);
            // `Debug` prints every field, each `f64` in its shortest
            // round-trip form, so equal strings mean equal bits.
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "case {case}");
        }
    }
}

#[cfg(test)]
mod lane_identity;
