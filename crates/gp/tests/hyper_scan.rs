//! The hyper-grid scan must return, bit for bit, the fit that fitting every
//! grid point in full and keeping the first strictly better one returns.
//!
//! `fit_best` ranks grid points by their Gram matrix, factor, `α`
//! and log marginal likelihood, and finishes only the winner into a
//! `GaussianProcess`. The reference below is the scan it replaced: one
//! [`GaussianProcess::fit_with_gram`] per grid point over the shared
//! distance matrix, then a strict `>` reduction in grid order. Fits are
//! compared through `Debug`, which prints every field — kernel, α, factor,
//! row sums, scaled columns — with each `f64` in its shortest round-trip
//! form, so equal strings mean equal bits; the log marginal likelihood is
//! also compared by `to_bits`. `fit_with_gram` is built from the same two
//! parts as the scan, so it is pinned in turn against its one-body form
//! (`gp::tests::split_fit_matches_the_unsplit_fit_bit_for_bit`).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use clite_gp::gp::{GaussianProcess, GpConfig};
use clite_gp::hyper::{fit_best, HyperGrid};
use clite_gp::kernel::{squared_distances, Kernel, KernelFamily};
use clite_gp::GpError;

/// The per-point scan: a full fit per grid point, first strictly better
/// log marginal likelihood wins, the last error when none fits.
fn reference(
    template: &Kernel,
    config: GpConfig,
    grid: &HyperGrid,
    xs: &[Vec<f64>],
    ys: &[f64],
) -> Result<GaussianProcess, GpError> {
    let (xs, ys) = (Arc::new(xs.to_vec()), Arc::new(ys.to_vec()));
    let d2 = squared_distances(&xs);
    let mut best: Option<GaussianProcess> = None;
    let mut last_err = GpError::EmptyTrainingSet;
    for &v in &grid.variances {
        for &l in &grid.lengthscales {
            let kernel = template.reparameterized(v, l);
            let gram = kernel.gram_from_distances(&d2);
            match GaussianProcess::fit_with_gram(
                kernel,
                config,
                Arc::clone(&xs),
                Arc::clone(&ys),
                gram,
            ) {
                Ok(gp) => {
                    if best
                        .as_ref()
                        .is_none_or(|b| gp.log_marginal_likelihood() > b.log_marginal_likelihood())
                    {
                        best = Some(gp);
                    }
                }
                Err(e) => last_err = e,
            }
        }
    }
    best.ok_or(last_err)
}

/// Scans the grid and compares the result with the reference.
fn assert_scan_matches(
    template: &Kernel,
    config: GpConfig,
    grid: &HyperGrid,
    xs: &[Vec<f64>],
    ys: &[f64],
    label: &str,
) {
    let want = reference(template, config, grid, xs, ys);
    let got = fit_best(template, config, grid, xs, ys);
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{label}");
    if let (Ok(g), Ok(w)) = (&got, &want) {
        assert_eq!(
            g.log_marginal_likelihood().to_bits(),
            w.log_marginal_likelihood().to_bits(),
            "{label}"
        );
    }
}

/// `n` random points in `dim` dimensions; on a lattice, points repeat.
fn points(rng: &mut StdRng, n: usize, dim: usize, lattice: bool) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| if lattice { f64::from(rng.gen_range(0..2)) } else { rng.gen() })
                .collect()
        })
        .collect()
}

const FAMILIES: [KernelFamily; 3] =
    [KernelFamily::Matern52, KernelFamily::Matern32, KernelFamily::SquaredExponential];

#[test]
fn scan_matches_per_point_fits_on_random_data() {
    let mut rng = StdRng::seed_from_u64(24);
    for case in 0..120 {
        let n = rng.gen_range(1..48);
        let dim = rng.gen_range(1..8);
        let xs = points(&mut rng, n, dim, case % 4 == 0);
        let ys: Vec<f64> = (0..n)
            .map(|_| if rng.gen_bool(0.2) { -0.0 } else { rng.gen_range(-1.0..1.0) })
            .collect();
        let config = GpConfig { noise_variance: [0.0, 1e-4, 1e-3][case % 3] };
        let template = Kernel::new(FAMILIES[case % 3], 1.0, 1.0);
        let grid = if case % 2 == 0 {
            HyperGrid::default_unit()
        } else {
            HyperGrid {
                variances: (0..rng.gen_range(1..4)).map(|_| rng.gen_range(0.001..1.0)).collect(),
                lengthscales: (0..rng.gen_range(1..6)).map(|_| rng.gen_range(0.05..5.0)).collect(),
            }
        };
        assert_scan_matches(&template, config, &grid, &xs, &ys, &format!("case {case}"));
    }
}

#[test]
fn exact_ties_keep_the_first_grid_point() {
    // Every input at one point: the Gram matrix is the variance
    // everywhere, whatever the lengthscale, so each variance's
    // lengthscales tie on log marginal likelihood to the bit while their
    // kernels differ. The first of them must win.
    let template = Kernel::matern52(1.0, 1.0);
    let grid = HyperGrid::default_unit();
    for n in [1, 2, 5] {
        let xs = vec![vec![0.25, 0.75]; n];
        let ys: Vec<f64> = (0..n).map(|i| 0.1 * i as f64).collect();
        let config = GpConfig { noise_variance: 1e-3 };
        assert_scan_matches(&template, config, &grid, &xs, &ys, &format!("{n} copies"));
        let best = fit_best(&template, config, &grid, &xs, &ys).unwrap();
        let first = grid.lengthscales[0];
        assert_eq!(best.kernel().mean_lengthscale(), first, "the first tied lengthscale wins");
    }
}

#[test]
fn unfactorizable_grid_points_are_skipped() {
    // A subnormal lengthscale overflows every scaled distance between
    // distinct points to infinity, where the Matérn form is `∞ · 0`: NaN
    // Gram entries that no jitter can factor. The lengthscales around it
    // still fit.
    let mut rng = StdRng::seed_from_u64(7);
    let template = Kernel::matern52(1.0, 1.0);
    let tiny = 1e-300;
    let grid = HyperGrid { variances: vec![0.04, 0.09], lengthscales: vec![tiny, 0.8, tiny, 3.2] };
    let config = GpConfig { noise_variance: 1e-4 };
    let xs = points(&mut rng, 12, 3, false);
    let ys: Vec<f64> = (0..12).map(|_| rng.gen()).collect();
    let d2 = squared_distances(&xs);
    let broken = Kernel::matern52(0.04, tiny);
    let fit = GaussianProcess::fit_with_gram(
        broken.clone(),
        config,
        Arc::new(xs.clone()),
        Arc::new(ys.clone()),
        broken.gram_from_distances(&d2),
    );
    assert_eq!(fit.err(), Some(GpError::NotPositiveDefinite), "the tiny lengthscale must fail");
    assert_scan_matches(&template, config, &grid, &xs, &ys, "mixed grid");

    // Only unfactorizable points: the scan returns the last error.
    let grid = HyperGrid { variances: vec![0.04, 0.09], lengthscales: vec![tiny] };
    assert!(reference(&template, config, &grid, &xs, &ys).is_err());
    assert_scan_matches(&template, config, &grid, &xs, &ys, "no point fits");
}

#[test]
fn malformed_data_errors_match() {
    let template = Kernel::matern52(1.0, 1.0);
    let grid = HyperGrid::default_unit();
    let config = GpConfig::default();
    let xs = vec![vec![0.1, 0.2], vec![0.3, 0.4], vec![0.5, 0.6]];
    assert_scan_matches(&template, config, &grid, &xs, &[0.1, 0.2], "short targets");
    assert_scan_matches(&template, config, &grid, &xs, &[0.1, f64::NAN, 0.3], "NaN target");
    let ragged = vec![vec![0.1, 0.2], vec![0.3]];
    assert_scan_matches(&template, config, &grid, &ragged, &[0.1, 0.2], "ragged inputs");
    let empty = HyperGrid { variances: vec![], lengthscales: vec![1.0] };
    assert_scan_matches(&template, config, &empty, &xs, &[0.1, f64::NAN, 0.3], "empty grid");
}
