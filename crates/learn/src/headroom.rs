//! Surrogate QoS-headroom prediction: a tiny GP over a node's committed
//! search trace.
//!
//! A candidate node's last CLITE search left a trace of (sample index,
//! Eq. 3 score) points. Fitting a one-dimensional GP over that trace and
//! reading the posterior at the *end* of the trace gives a smoothed
//! estimate of the score level the node's committed mix converged to —
//! the QoS headroom the next co-runner would inherit — plus a posterior
//! variance that says how settled the search was. Both feed the feature
//! vector ([`crate::features::extract`]).
//!
//! The fit uses fixed hyper-parameters (no grid search): prediction must
//! be cheap enough for the admission path and — more importantly —
//! deterministic, since candidate ordering feeds the fleet's
//! byte-identity contract.
//!
//! ## The per-length design memo
//!
//! Traces sit at positions `i / (n − 1)`, and with fixed hyper-parameters
//! everything in the fit except the targets depends only on those
//! positions: the Cholesky factor of `K + σₙ²I`, the cross-covariance row
//! `k*` at `x = 1` and the posterior variance there. Each on-grid length
//! up to [`MEMO_CAP`] builds that design once per process; a prediction
//! then only centres the scores, solves for `α` with
//! [`Cholesky::solve_in_place`] (bit-identical to the fit's
//! [`Cholesky::solve`]) and takes `ȳ + k*·α` — the same operations on the
//! same operands as a fresh fit, so the result is bit-identical. Traces
//! whose finite points are off the grid (compared bit for bit), or longer
//! than the cap, take the general [`GaussianProcess::fit`] path.
//!
//! ## The one-pass path
//!
//! The cluster layer hands over whole traces at grid positions, so the
//! common case is a trace whose every point is finite and on the grid of
//! its own length. [`predict`] checks that, copies the scores and sums
//! them in one walk over the trace, into a stack buffer sized to the
//! trace (16 entries for the short traces admission searches leave,
//! [`MEMO_CAP`] otherwise), so a short trace never zero-fills the full
//! buffer. The sum folds from `−0.0` like `f64: Sum`, so the mean — and
//! every bit after it — is what a fresh fit computes. A trace that fails
//! the check anywhere takes the general path from the start, which runs
//! the same pass over its finite points alone.

use std::sync::OnceLock;

use clite_gp::gp::{GaussianProcess, GpConfig};
use clite_gp::kernel::Kernel;
use clite_gp::linalg::{dot, Cholesky};

/// Longest trace length whose design is memoized. Admission searches
/// stop well below this (the default `Termination` allows 60 iterations
/// after the initial samples); a longer trace falls back to a full fit.
pub const MEMO_CAP: usize = 128;

/// A surrogate headroom prediction for one candidate node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headroom {
    /// Posterior mean score at the end of the node's search trace,
    /// clamped to `[0, 1]` (0.5 when no trace exists: unknown, neither
    /// safe nor violating).
    pub predicted: f64,
    /// Posterior *variance* at the end of the trace (1.0 when no trace
    /// exists — maximal uncertainty). The feature schema
    /// ([`crate::FEATURE_VERSION`]) and trained models are built on this
    /// value, so it stays a variance despite the name.
    pub sigma: f64,
}

impl Headroom {
    /// The no-information prior: an empty node (or one whose trace is too
    /// short to fit) predicts 0.5 with full uncertainty.
    #[must_use]
    pub fn prior() -> Self {
        Self { predicted: 0.5, sigma: 1.0 }
    }
}

impl Default for Headroom {
    fn default() -> Self {
        Self::prior()
    }
}

/// The fixed kernel: Matérn-5/2, variance 0.25, lengthscale 0.3 in
/// normalized trace positions.
fn kernel() -> Kernel {
    Kernel::matern52(0.25, 0.3)
}

/// The fixed observation-noise variance.
fn config() -> GpConfig {
    GpConfig { noise_variance: 1e-3 }
}

/// Position of sample `i` in an `n`-sample trace.
fn grid_position(i: usize, n: usize) -> f64 {
    i as f64 / (n - 1) as f64
}

/// The target-independent part of a fit over the `n`-point grid.
struct Design {
    chol: Cholesky,
    /// `k(1, xᵢ)` for every grid position.
    k_star: Vec<f64>,
    /// Posterior variance at `x = 1`.
    variance: f64,
}

impl Design {
    /// Builds the design exactly as [`GaussianProcess::fit`] followed by
    /// [`GaussianProcess::predict`] at `x = 1` would; `None` when the Gram
    /// matrix cannot be factorized (the fit would fail too).
    fn build(n: usize) -> Option<Self> {
        let kernel = kernel();
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![grid_position(i, n)]).collect();
        let mut gram = kernel.gram(&xs);
        gram.add_diagonal(config().noise_variance);
        let chol = Cholesky::decompose(&gram).ok()?;
        let (mut query, mut point) = (Vec::new(), Vec::new());
        kernel.scale_into(&[1.0], &mut query);
        let r2: Vec<f64> = xs
            .iter()
            .map(|x| {
                kernel.scale_into(x, &mut point);
                let diff = query[0] - point[0];
                diff * diff
            })
            .collect();
        let mut k_star = Vec::with_capacity(n);
        kernel.eval_scaled_sq_append(&r2, &mut k_star);
        let v = chol.solve_lower(&k_star).ok()?;
        let variance = (kernel.variance() - dot(&v, &v)).max(0.0);
        Some(Self { chol, k_star, variance })
    }

    /// Posterior mean and variance at `x = 1` for targets `ys` summing to
    /// `sum`, which are centred and solved in place (`ys` holds `α`
    /// afterwards).
    fn posterior(&self, ys: &mut [f64], sum: f64) -> Option<(f64, f64)> {
        let mean_y = sum / ys.len() as f64;
        for y in ys.iter_mut() {
            *y -= mean_y;
        }
        self.chol.solve_in_place(ys).ok()?;
        Some((mean_y + dot(&self.k_star, ys), self.variance))
    }
}

/// The memoized design for `n`-point grid traces, built on first use;
/// `None` past [`MEMO_CAP`]. The inner `None` records a design whose
/// factorization failed.
fn design(n: usize) -> Option<&'static Option<Design>> {
    static DESIGNS: [OnceLock<Option<Design>>; MEMO_CAP + 1] =
        [const { OnceLock::new() }; MEMO_CAP + 1];
    DESIGNS.get(n).map(|cell| cell.get_or_init(|| Design::build(n)))
}

/// Posterior mean and variance at `x = 1` from a fresh GP fit over the
/// finite points.
fn fitted_posterior(clean: impl Iterator<Item = (f64, f64)>) -> Option<(f64, f64)> {
    let (xs, ys): (Vec<Vec<f64>>, Vec<f64>) = clean.map(|(x, y)| (vec![x], y)).unzip();
    let gp = GaussianProcess::fit(kernel(), config(), xs, ys).ok()?;
    Some(gp.predict(&[1.0]))
}

/// Predicts headroom from a node's `(position, score)` trace, where
/// `position` is the sample index normalized to `[0, 1]` and `score` the
/// Eq. 3 value observed there. Needs at least two finite points; anything
/// less (or a failed factorization) returns [`Headroom::prior`].
///
/// A memoized on-grid trace allocates nothing: its scores are copied to a
/// stack buffer and solved there in place (see the module docs for the
/// one-pass path).
#[must_use]
pub fn predict(trace: &[(f64, f64)]) -> Headroom {
    let points = trace.iter().copied();
    let posterior = match trace.len() {
        n @ 2..=SHORT => one_pass::<SHORT>(points, n, design(n)),
        n @ 2.. => one_pass::<MEMO_CAP>(points, n, design(n)),
        _ => None,
    };
    match posterior.unwrap_or_else(|| general_posterior(trace)) {
        Some((mean, var)) if mean.is_finite() && var.is_finite() => {
            Headroom { predicted: mean.clamp(0.0, 1.0), sigma: var.max(0.0) }
        }
        _ => Headroom::prior(),
    }
}

/// Stack-buffer length of the one-pass path's short traces.
const SHORT: usize = 16;

/// The memoized posterior of `n` points whose every one is finite and on
/// the `n`-point grid, checked, copied and summed in one walk: `None` when
/// any point is not (or `n` is past the memo), so the caller fits the
/// points instead; otherwise the design's posterior, `Some(None)` if the
/// design failed.
fn one_pass<const CAP: usize>(
    points: impl Iterator<Item = (f64, f64)>,
    n: usize,
    memo: Option<&'static Option<Design>>,
) -> Option<Option<(f64, f64)>> {
    let memo = memo?;
    let mut ys = [0.0; CAP];
    let mut sum = -0.0;
    for (i, ((x, y), slot)) in points.zip(&mut ys).enumerate() {
        if !y.is_finite() || x.to_bits() != grid_position(i, n).to_bits() {
            return None;
        }
        sum += y;
        *slot = y;
    }
    Some(memo.as_ref().and_then(|d| d.posterior(&mut ys[..n], sum)))
}

/// The general path: the finite points, memoized when they sit on the
/// grid of their own count, fitted from scratch otherwise.
fn general_posterior(trace: &[(f64, f64)]) -> Option<(f64, f64)> {
    let clean = trace.iter().copied().filter(|(x, y)| x.is_finite() && y.is_finite());
    let n = clean.clone().count();
    if n < 2 {
        return None;
    }
    one_pass::<MEMO_CAP>(clean.clone(), n, design(n)).unwrap_or_else(|| fitted_posterior(clean))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton_traces_fall_back_to_prior() {
        assert_eq!(predict(&[]), Headroom::prior());
        assert_eq!(predict(&[(0.0, 0.8)]), Headroom::prior());
        assert_eq!(predict(&[(f64::NAN, 0.8), (0.5, f64::INFINITY)]), Headroom::prior());
    }

    #[test]
    fn converged_trace_predicts_near_its_tail() {
        let trace: Vec<(f64, f64)> =
            (0..8).map(|i| (i as f64 / 7.0, 0.4 + 0.05 * i as f64)).collect();
        let h = predict(&trace);
        assert!(h.predicted > 0.55, "tail of a rising trace is high: {}", h.predicted);
        assert!(h.sigma < 1.0, "a fitted trace is more certain than the prior");
    }

    #[test]
    fn prediction_is_deterministic() {
        let trace = vec![(0.0, 0.3), (0.5, 0.6), (1.0, 0.7)];
        let a = predict(&trace);
        let b = predict(&trace);
        assert_eq!(a, b);
        assert_eq!(a.predicted.to_bits(), b.predicted.to_bits());
    }

    #[test]
    fn sigma_is_the_posterior_variance_at_the_trace_end() {
        let trace: Vec<(f64, f64)> =
            (0..6).map(|i| (i as f64 / 5.0, 0.3 + 0.1 * (i % 3) as f64)).collect();
        let xs: Vec<Vec<f64>> = trace.iter().map(|&(x, _)| vec![x]).collect();
        let ys: Vec<f64> = trace.iter().map(|&(_, y)| y).collect();
        let gp = GaussianProcess::fit(kernel(), config(), xs, ys).expect("fit");
        let (_, var) = gp.predict(&[1.0]);
        let (_, std) = gp.predict_std(&[1.0]);
        let h = predict(&trace);
        assert_eq!(h.sigma.to_bits(), var.to_bits());
        assert_ne!(h.sigma.to_bits(), std.to_bits(), "sigma is not the standard deviation");
    }

    #[test]
    fn lengths_past_the_cap_fall_back_to_a_fit() {
        assert!(design(MEMO_CAP).is_some());
        assert!(design(MEMO_CAP + 1).is_none());
    }
}
