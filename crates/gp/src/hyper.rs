//! Derivative-free hyperparameter selection.
//!
//! A time-constrained online controller cannot afford gradient-based
//! marginal-likelihood optimization on every sample, so CLITE's surrogate
//! refreshes its kernel hyperparameters by scanning a small log-spaced grid
//! of (signal variance, lengthscale) pairs and keeping the fit with the
//! highest log marginal likelihood. With tens of training points this costs
//! a handful of small Cholesky factorizations per refresh.
//!
//! A scan validates the data once, centres the targets once and computes
//! the pairwise distances once. Each grid point then costs its Gram
//! matrix, its factorization, `α` and its log marginal likelihood — all a
//! ranking needs — and keeps its Gram row sums, so the matrix itself is
//! freed before the next point's is built. Only the winner is finished
//! into a [`GaussianProcess`]: the row-sum norm the acquisition gate reads
//! and the lengthscale-scaled training columns are built once per
//! refresh, not once per grid point. Every bit of the result is what
//! fitting each point with [`GaussianProcess::fit_with_gram`] and keeping
//! the first strictly better one returns.

use std::sync::Arc;

use crate::gp::{validate, Centered, GaussianProcess, GpConfig, GramFit};
use crate::kernel::{squared_distances, Kernel};
use crate::GpError;

/// Hyperparameter search grid.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperGrid {
    /// Candidate signal variances.
    pub variances: Vec<f64>,
    /// Candidate isotropic lengthscales.
    pub lengthscales: Vec<f64>,
}

impl HyperGrid {
    /// Default grid tuned for inputs normalized to the unit hypercube and
    /// scores in `[0, 1]`: variances `{0.01, 0.04, 0.09}`, lengthscales
    /// `{0.2, 0.4, 0.8, 1.6, 3.2}`. The variance cap keeps prior
    /// uncertainty in never-visited corners of a huge space from propping
    /// up the acquisition forever (which would defeat EI-based
    /// termination); the long lengthscales matter in 15–30-dimensional
    /// partition spaces, where pairwise distances concentrate around 1 and
    /// a short-lengthscale GP degenerates into white noise.
    #[must_use]
    pub fn default_unit() -> Self {
        Self { variances: vec![0.01, 0.04, 0.09], lengthscales: vec![0.2, 0.4, 0.8, 1.6, 3.2] }
    }

    /// Number of candidate fits the grid will try.
    #[must_use]
    pub fn len(&self) -> usize {
        self.variances.len() * self.lengthscales.len()
    }

    /// Whether the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.variances.is_empty() || self.lengthscales.is_empty()
    }
}

impl Default for HyperGrid {
    fn default() -> Self {
        Self::default_unit()
    }
}

/// Fits a GP for every grid point and returns the fit with the highest log
/// marginal likelihood; ties keep the first in grid order (variances
/// outer, lengthscales inner). Grid points whose Gram matrix cannot be
/// factorized are skipped.
///
/// Every grid point reparameterizes one shared pairwise squared-distance
/// matrix ([`squared_distances`] + [`Kernel::gram_from_distances`]): an
/// isotropic kernel only rescales distances, so the O(n²·d) geometry is
/// paid once per refresh and each candidate costs O(n²) Gram assembly plus
/// its factorization. The points are ranked in one serial loop, and the
/// winner alone pays for the scaled columns that make a fit a
/// [`GaussianProcess`].
///
/// # Errors
///
/// Returns the last fitting error if *no* grid point produced a valid fit,
/// or the underlying data-validation error for malformed inputs.
pub fn fit_best(
    template: &Kernel,
    config: GpConfig,
    grid: &HyperGrid,
    xs: &[Vec<f64>],
    ys: &[f64],
) -> Result<GaussianProcess, GpError> {
    if xs.is_empty() || grid.is_empty() {
        return Err(GpError::EmptyTrainingSet);
    }
    validate(xs, ys)?;

    let targets = Centered::new(ys);
    let d2 = squared_distances(xs);

    let mut best: Option<GramFit> = None;
    let mut last_err = GpError::EmptyTrainingSet;
    for &v in &grid.variances {
        for &l in &grid.lengthscales {
            // `reparameterized` always yields an isotropic kernel, which
            // is what `gram_from_distances` requires.
            let kernel = template.reparameterized(v, l);
            let gram = kernel.gram_from_distances(&d2);
            match GramFit::new(kernel, config, &targets, gram) {
                Ok(fit) => {
                    if best.as_ref().is_none_or(|b| fit.log_marginal() > b.log_marginal()) {
                        best = Some(fit);
                    }
                }
                Err(e) => last_err = e,
            }
        }
    }
    let best = best.ok_or(last_err)?;
    Ok(best.finish(config, Arc::new(xs.to_vec()), Arc::new(ys.to_vec()), &targets))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_a_reasonable_lengthscale() {
        // Smooth slow function: the best lengthscale should not be the
        // smallest one on the grid.
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![f64::from(i) / 11.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let grid = HyperGrid::default_unit();
        let gp =
            fit_best(&Kernel::matern52(1.0, 1.0), GpConfig::default(), &grid, &xs, &ys).unwrap();
        // The selected fit must beat the worst grid candidate.
        let worst =
            GaussianProcess::fit(Kernel::matern52(0.01, 0.1), GpConfig::default(), xs, ys).unwrap();
        assert!(gp.log_marginal_likelihood() >= worst.log_marginal_likelihood());
    }

    #[test]
    #[should_panic(expected = "kernel variance must be positive and finite")]
    fn an_infinite_grid_variance_is_refused_at_once() {
        let xs: Vec<Vec<f64>> = (0..4).map(|i| vec![f64::from(i) / 3.0]).collect();
        let ys = vec![0.1, 0.4, 0.3, 0.2];
        let grid = HyperGrid { variances: vec![0.01, f64::INFINITY], lengthscales: vec![0.4] };
        let _ = fit_best(&Kernel::matern52(1.0, 1.0), GpConfig::default(), &grid, &xs, &ys);
    }

    #[test]
    fn a_grid_point_whose_gram_diagonal_overflows_is_skipped() {
        // Repeated points: the `f64::MAX` point's Gram matrix is singular
        // and its mean diagonal overflows to ∞.
        let xs = vec![vec![0.5], vec![0.5], vec![0.2]];
        let ys = vec![0.1, 0.2, 0.3];
        let template = Kernel::matern52(1.0, 1.0);
        let grid = HyperGrid { variances: vec![f64::MAX, 0.04], lengthscales: vec![0.4] };
        let gp = fit_best(&template, GpConfig::default(), &grid, &xs, &ys).unwrap();
        assert_eq!(gp.kernel().variance(), 0.04);
        let grid = HyperGrid { variances: vec![f64::MAX], lengthscales: vec![0.4] };
        let err = fit_best(&template, GpConfig::default(), &grid, &xs, &ys).unwrap_err();
        assert_eq!(err, GpError::NonFiniteValue);
    }

    #[test]
    fn empty_data_propagates_error() {
        let grid = HyperGrid::default_unit();
        let err = fit_best(&Kernel::matern52(1.0, 1.0), GpConfig::default(), &grid, &[], &[]);
        assert!(err.is_err());
    }

    #[test]
    fn grid_size() {
        let g = HyperGrid::default_unit();
        assert_eq!(g.len(), 15);
        assert!(!g.is_empty());
        let empty = HyperGrid { variances: vec![], lengthscales: vec![1.0] };
        assert!(empty.is_empty());
    }
}
