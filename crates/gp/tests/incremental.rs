//! Equivalence properties for the surrogate fast paths introduced for the
//! per-`suggest()` hot loop:
//!
//! * a rank-1-extended GP must agree with a from-scratch fit to 1e-9 on
//!   posterior mean/std and log marginal likelihood, across random input
//!   spaces and observation orders;
//! * the scratch-buffer prediction path must be byte-identical to the
//!   allocating one;
//! * the shared-distance Gram assembly must match the direct one.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use clite_gp::gp::{GaussianProcess, GpConfig, PredictScratch};
use clite_gp::kernel::{squared_distances, Kernel};

/// Deterministic random training set: `n` points in `dim` dimensions on
/// the unit cube with a smooth-ish target, from `seed`.
fn random_data(seed: u64, n: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> =
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            let s: f64 = x.iter().sum();
            (s * 2.0).sin() * 0.3 + s / dim as f64 * 0.4 + rng.gen_range(-0.05..0.05)
        })
        .collect();
    (xs, ys)
}

/// Shuffles index order deterministically (Fisher–Yates) so properties
/// cover many observation orders, not just the generation order.
fn shuffled_indices(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5151_5151);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Growing a GP one observation at a time through `extended` stays
    /// within 1e-9 of a from-scratch fit at every step, for every random
    /// space, size, and observation order.
    #[test]
    fn incremental_matches_scratch_fit(
        seed in 0u64..1_000_000,
        n in 4usize..14,
        dim in 1usize..6,
    ) {
        let (xs, ys) = random_data(seed, n, dim);
        let order = shuffled_indices(seed, n);
        let kernel = Kernel::matern52(0.05, 0.5);
        let config = GpConfig { noise_variance: 1e-4 };

        // Seed the incremental chain with the first 3 observations.
        let mut cur_xs: Vec<Vec<f64>> = order[..3].iter().map(|&i| xs[i].clone()).collect();
        let mut cur_ys: Vec<f64> = order[..3].iter().map(|&i| ys[i]).collect();
        let mut inc = GaussianProcess::fit(
            kernel.clone(), config, cur_xs.clone(), cur_ys.clone(),
        ).unwrap();

        for &i in &order[3..] {
            inc = inc.extended(xs[i].clone(), ys[i]).unwrap();
            cur_xs.push(xs[i].clone());
            cur_ys.push(ys[i]);
            let full = GaussianProcess::fit(
                kernel.clone(), config, cur_xs.clone(), cur_ys.clone(),
            ).unwrap();

            prop_assert!(
                (inc.log_marginal_likelihood() - full.log_marginal_likelihood()).abs() < 1e-9,
                "log-marginal drift at n={}: {} vs {}",
                cur_xs.len(), inc.log_marginal_likelihood(), full.log_marginal_likelihood()
            );
            // Probe the posterior at held-out points and at a training point.
            let mut probe_rng = StdRng::seed_from_u64(seed ^ 0x9e37);
            for _ in 0..4 {
                let q: Vec<f64> = (0..dim).map(|_| probe_rng.gen_range(-0.2..1.2)).collect();
                let (mi, si) = inc.predict_std(&q);
                let (mf, sf) = full.predict_std(&q);
                prop_assert!((mi - mf).abs() < 1e-9, "mean drift: {mi} vs {mf}");
                prop_assert!((si - sf).abs() < 1e-9, "std drift: {si} vs {sf}");
            }
            let (mi, si) = inc.predict_std(&cur_xs[0]);
            let (mf, sf) = full.predict_std(&cur_xs[0]);
            prop_assert!((mi - mf).abs() < 1e-9 && (si - sf).abs() < 1e-9);
        }
    }

    /// The scratch-buffer prediction path is byte-identical to the
    /// allocating one, including when the scratch is reused across queries
    /// of a long climb.
    #[test]
    fn predict_into_byte_identical(
        seed in 0u64..1_000_000,
        n in 3usize..12,
        dim in 1usize..6,
    ) {
        let (xs, ys) = random_data(seed, n, dim);
        let gp = GaussianProcess::fit(
            Kernel::matern52(0.05, 0.4), GpConfig::default(), xs, ys,
        ).unwrap();
        let mut scratch = PredictScratch::default();
        let mut probe_rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        for _ in 0..16 {
            let q: Vec<f64> = (0..dim).map(|_| probe_rng.gen_range(-0.5..1.5)).collect();
            let (m0, v0) = gp.predict(&q);
            let (m1, v1) = gp.predict_into(&q, &mut scratch);
            prop_assert_eq!(m0.to_bits(), m1.to_bits());
            prop_assert_eq!(v0.to_bits(), v1.to_bits());
        }
    }

    /// Rebuilding the Gram matrix from shared unscaled distances matches
    /// the direct per-pair evaluation to tight tolerance for every grid
    /// kernel (they associate the lengthscale division differently, so
    /// bit-equality is not required — the grid scan uses one path
    /// consistently, which is what its determinism relies on).
    #[test]
    fn gram_from_distances_matches_gram(
        seed in 0u64..1_000_000,
        n in 2usize..12,
        dim in 1usize..6,
    ) {
        let (xs, _) = random_data(seed, n, dim);
        let d2 = squared_distances(&xs);
        for &(v, l) in &[(0.01, 0.2), (0.04, 0.8), (0.09, 3.2)] {
            let k = Kernel::matern52(v, l);
            let direct = k.gram(&xs);
            let shared = k.gram_from_distances(&d2);
            for i in 0..n {
                for j in 0..n {
                    prop_assert!(
                        (direct[(i, j)] - shared[(i, j)]).abs() < 1e-12,
                        "({i},{j}): {} vs {}", direct[(i, j)], shared[(i, j)]
                    );
                }
            }
        }
    }
}
