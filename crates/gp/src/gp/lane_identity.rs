//! The lane-dispatched batch kernels against their bodies compiled at the
//! baseline target, bit for bit.
//!
//! Every public entry point below runs its body through
//! [`clite_par::wide_lanes`], four lanes wide on CPUs with AVX2. This test
//! code is compiled for the baseline target, so calling a `_body` function
//! directly inlines it two lanes wide (SSE2): on an AVX2 host each
//! comparison is the AVX2 instance against the SSE2 one. Run it under
//! `--release` too, where both instances vectorize.

use std::sync::Once;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{GatedPrediction, GaussianProcess, GpConfig};
use crate::kernel::{Kernel, KernelFamily};

const FAMILIES: [KernelFamily; 3] =
    [KernelFamily::Matern52, KernelFamily::Matern32, KernelFamily::SquaredExponential];

/// Pre-scaled squared distances at the edges of the kernels' range:
/// signed zeros, subnormal and tiny values, and distances whose
/// `fast_exp` argument sits on or below its −700 cut-off (Matérn 5/2
/// crosses it at `r² = 98,000`, Matérn 3/2 at `163,333`, the squared
/// exponential at `1,400`).
const EDGE_R2: [f64; 12] =
    [0.0, -0.0, 5e-324, 1e-300, 1_399.0, 1_401.0, 97_999.0, 98_001.0, 163_334.0, 2e5, 1e6, 1e8];

/// What one fit's comparisons exercised, summed by the sweep.
#[derive(Default)]
struct Coverage {
    /// Shifted rows whose unclamped value was negative (the `max(0.0)`
    /// clamp replaced it).
    clamped: usize,
    /// Fits whose factor needed diagonal jitter.
    jittered: usize,
}

fn report_lane_width() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        if clite_par::wide_lanes_enabled() {
            println!("lane identity: compared the AVX2 (4-lane) kernels with the SSE2 baseline");
        } else {
            println!("lane identity: this CPU has no AVX2; compared baseline with baseline");
        }
    });
}

fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: lengths differ");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i} is {g:e}, baseline {w:e}");
    }
}

fn assert_gated_bits(what: &str, got: &[GatedPrediction], want: &[GatedPrediction]) {
    let means = |g: &[GatedPrediction]| g.iter().map(|p| p.mean).collect::<Vec<_>>();
    let stds = |g: &[GatedPrediction]| g.iter().map(|p| p.std_upper).collect::<Vec<_>>();
    assert_bits(&format!("{what} means"), &means(got), &means(want));
    assert_bits(&format!("{what} std bounds"), &stds(got), &stds(want));
}

/// A fit on `n` random points of `dim` dimensions. With `near_duplicates`
/// every other point repeats its predecessor up to 1e-9 per coordinate
/// and the noise variance is zero, so the Gram matrix is numerically
/// singular and the factor carries jitter.
fn random_fit(
    rng: &mut StdRng,
    n: usize,
    dim: usize,
    family: KernelFamily,
    near_duplicates: bool,
) -> GaussianProcess {
    let mut xs: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let x = if near_duplicates && i % 2 == 1 {
            xs[i - 1].iter().map(|v| v + rng.gen_range(-1e-9..1e-9)).collect()
        } else {
            (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()
        };
        xs.push(x);
    }
    let ys = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let kernel = Kernel::new(family, rng.gen_range(0.2..3.0), rng.gen_range(0.05..2.0));
    let noise_variance = if near_duplicates { 0.0 } else { 1e-4 };
    GaussianProcess::fit(kernel, GpConfig { noise_variance }, xs, ys)
        .expect("the jitter ladder factors near-duplicate points")
}

/// Compares every dispatched kernel with its baseline body on `rows`
/// queries against `gp`.
fn check_fit(gp: &GaussianProcess, rng: &mut StdRng, rows: usize, cov: &mut Coverage) {
    let (n, dim) = (gp.len(), gp.dim());
    cov.jittered += usize::from(gp.chol.jitter() > 0.0);

    // Distance rows: a query near a training point `t` — off it only in
    // dimensions `d0` and `d1` — so the shifts that move both coordinates
    // back onto `t` cancel to ~0 and can land below zero.
    let t = rng.gen_range(0..n);
    let on_t: Vec<f64> = (0..dim).map(|d| gp.scaled_xs.column(d)[t]).collect();
    let (d0, d1) = (rng.gen_range(0..dim), rng.gen_range(0..dim));
    let mut query = on_t.clone();
    query[d0] += rng.gen_range(-0.5..0.5);
    query[d1] += rng.gen_range(-0.5..0.5);
    let (mut base, mut base_want) = (Vec::new(), Vec::new());
    gp.scaled_xs.sq_dists_into(&query, &mut base);
    gp.scaled_xs.sq_dists_into_body(&query, &mut base_want);
    assert_bits("sq_dists_into", &base, &base_want);
    let (mut on_row, mut on_row_want) = (Vec::new(), Vec::new());
    gp.scaled_xs.sq_dists_into(&on_t, &mut on_row);
    gp.scaled_xs.sq_dists_into_body(&on_t, &mut on_row_want);
    assert_bits("sq_dists_into on a training point", &on_row, &on_row_want);

    // `rows` shifted rows; row 0 lands back on `t`.
    let (mut r2, mut r2_want) = (Vec::new(), Vec::new());
    for r in 0..rows {
        let (new0, new1) = if r == 0 {
            (on_t[d0], on_t[d1])
        } else {
            (query[d0] + rng.gen_range(-1.0..1.0), query[d1] + rng.gen_range(-1.0..1.0))
        };
        // With `d0 == d1` the second change starts where the first ended.
        let old1 = if d0 == d1 { new0 } else { query[d1] };
        let changes = [(d0, query[d0], new0), (d1, old1, new1)];
        gp.append_shifted_sq_dists(&base, changes, &mut r2);
        gp.append_shifted_sq_dists_body(&base, changes, &mut r2_want);
        for (i, &b) in base.iter().enumerate() {
            let step = |acc: f64, (dim, old, new): (usize, f64, f64)| {
                let x = gp.scaled_xs.column(dim)[i];
                acc + ((new - x) * (new - x) - (old - x) * (old - x))
            };
            cov.clamped += usize::from(step(step(b, changes[0]), changes[1]) < 0.0);
        }
    }
    assert_bits("append_shifted_sq_dists", &r2, &r2_want);
    // The last row's distances become the edge values.
    let last = (rows - 1) * n;
    for (i, d) in r2[last..].iter_mut().enumerate() {
        *d = EDGE_R2[i % EDGE_R2.len()];
    }

    for family in FAMILIES {
        let kernel = Kernel::new(family, gp.kernel.variance(), 1.0);
        let (mut k, mut k_want) = (vec![7.0], vec![7.0]);
        kernel.eval_scaled_sq_append(&r2, &mut k);
        kernel.eval_scaled_sq_append_body(&r2, &mut k_want);
        assert_bits(&format!("eval_scaled_sq_append ({})", family.name()), &k, &k_want);
        let (mut edge, mut edge_want) = (Vec::new(), Vec::new());
        kernel.eval_scaled_sq_append(&EDGE_R2, &mut edge);
        kernel.eval_scaled_sq_append_body(&EDGE_R2, &mut edge_want);
        assert_bits(&format!("edge covariances ({})", family.name()), &edge, &edge_want);
    }

    let (mut k_star, mut gated) = (Vec::new(), Vec::new());
    let (mut k_star_want, mut gated_want) = (Vec::new(), Vec::new());
    gp.gate_rows(&r2, &mut k_star, &mut gated);
    gp.gate_rows_body(&r2, &mut k_star_want, &mut gated_want);
    assert_bits("gate_rows covariances", &k_star, &k_star_want);
    assert_gated_bits("gate_rows", &gated, &gated_want);

    let (mut v, mut stds) = (Vec::new(), Vec::new());
    let (mut v_want, mut stds_want) = (Vec::new(), Vec::new());
    gp.batch_stds(&k_star, &mut v, &mut stds);
    gp.batch_stds_body(&k_star, &mut v_want, &mut stds_want);
    assert_bits("batch_stds solutions", &v, &v_want);
    assert_bits("batch_stds", &stds, &stds_want);

    let (mut solved, mut solved_want) = (Vec::new(), Vec::new());
    gp.chol.solve_lower_batch(&k_star, &mut solved).expect("whole rows");
    gp.chol.solve_lower_batch_body(&k_star, &mut solved_want).expect("whole rows");
    assert_bits("solve_lower_batch", &solved, &solved_want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dispatched_kernels_match_their_baseline_bodies(
        seed in any::<u64>(),
        n in 1usize..=70,
        dim in 1usize..=6,
        family in 0usize..3,
        near_duplicates in any::<bool>(),
    ) {
        report_lane_width();
        let mut rng = StdRng::seed_from_u64(seed);
        let gp = random_fit(&mut rng, n, dim, FAMILIES[family], near_duplicates);
        for rows in 1..=9 {
            check_fit(&gp, &mut rng, rows, &mut Coverage::default());
        }
    }
}

/// Every training size from 1 to 70 (each 2- and 4-lane remainder) at
/// every row count from 1 to 9 (partial gate and solve blocks), and proof
/// that the sweep reached the clamp and the jitter ladder.
#[test]
fn every_training_size_and_row_count_matches_the_baseline() {
    report_lane_width();
    let mut cov = Coverage::default();
    for n in 1..=70 {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let gp = random_fit(&mut rng, n, 1 + n % 5, FAMILIES[n % 3], n % 2 == 0);
        for rows in 1..=9 {
            check_fit(&gp, &mut rng, rows, &mut cov);
        }
    }
    assert!(cov.clamped > 0, "no shifted row reached the max(0.0) clamp");
    assert!(cov.jittered > 0, "no fit needed jitter");
}
