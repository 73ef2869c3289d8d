//! The memoized headroom posterior must equal a fresh GP fit bit for bit.
//!
//! `headroom::predict` reuses one factorized design per on-grid trace
//! length. The reference below is the general path it replaces — fit a
//! fixed-hyper GP to the finite points, read the posterior at `x = 1` —
//! and every case compares `f64::to_bits` of both fields. Off-grid
//! positions and non-finite entries exercise the fit fallback; lengths
//! run past [`MEMO_CAP`] into the uncached range.

use std::ops::RangeInclusive;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use clite_gp::gp::{GaussianProcess, GpConfig};
use clite_gp::kernel::Kernel;
use clite_learn::headroom::{predict, MEMO_CAP};
use clite_learn::Headroom;

/// Lengths whose designs only [`first_use_from_concurrent_slots`] builds,
/// so its slots really race on an empty memo cell.
const RESERVED: RangeInclusive<usize> = MEMO_CAP - 7..=MEMO_CAP;

/// The general path: a fresh fit per call.
fn reference(trace: &[(f64, f64)]) -> Headroom {
    let clean: Vec<(f64, f64)> =
        trace.iter().copied().filter(|(x, y)| x.is_finite() && y.is_finite()).collect();
    if clean.len() < 2 {
        return Headroom::prior();
    }
    let xs: Vec<Vec<f64>> = clean.iter().map(|&(x, _)| vec![x]).collect();
    let ys: Vec<f64> = clean.iter().map(|&(_, y)| y).collect();
    let kernel = Kernel::matern52(0.25, 0.3);
    let config = GpConfig { noise_variance: 1e-3 };
    match GaussianProcess::fit(kernel, config, xs, ys) {
        Ok(gp) => {
            let (mean, var) = gp.predict(&[1.0]);
            if mean.is_finite() && var.is_finite() {
                Headroom { predicted: mean.clamp(0.0, 1.0), sigma: var.max(0.0) }
            } else {
                Headroom::prior()
            }
        }
        Err(_) => Headroom::prior(),
    }
}

/// A trace at the positions the cluster layer emits: `i / (n − 1)`.
fn grid_trace(scores: &[f64]) -> Vec<(f64, f64)> {
    let n = scores.len();
    scores.iter().enumerate().map(|(i, &y)| (i as f64 / (n - 1).max(1) as f64, y)).collect()
}

fn assert_bit_identical(trace: &[(f64, f64)]) -> Result<(), TestCaseError> {
    let got = predict(trace);
    let want = reference(trace);
    prop_assert_eq!(got.predicted.to_bits(), want.predicted.to_bits(), "mean of {:?}", trace);
    prop_assert_eq!(got.sigma.to_bits(), want.sigma.to_bits(), "variance of {:?}", trace);
    Ok(())
}

/// Number of lengths the proptests draw from: 2 through the cap + 8,
/// minus [`RESERVED`].
const LENGTHS: usize = MEMO_CAP + 7 - 8;

/// The `pick`-th length of 2 through the cap + 8, skipping [`RESERVED`].
fn length(pick: usize) -> usize {
    let n = 2 + pick;
    if n < *RESERVED.start() {
        n
    } else {
        n + RESERVED.count()
    }
}

/// Scores that stress the centring and the solve.
const EXTREMES: [f64; 7] = [0.0, -0.0, 1.0, f64::MIN_POSITIVE, 1e-300, -1e300, f64::MAX];

/// Random (`kind` 0), flat (1) or extreme (2) scores for an `n`-point
/// trace, drawn from `seed`.
fn scores(n: usize, kind: u8, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        0 => (0..n).map(|_| rng.gen::<f64>()).collect(),
        1 => vec![rng.gen::<f64>(); n],
        _ => (0..n)
            .map(|_| match rng.gen_range(0..EXTREMES.len() + 1) {
                i if i < EXTREMES.len() => EXTREMES[i],
                _ => rng.gen_range(-1e6..1e6),
            })
            .collect(),
    }
}

const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn on_grid_traces_match_a_fresh_fit(pick in 0..LENGTHS, kind in 0u8..3, seed: u64) {
        assert_bit_identical(&grid_trace(&scores(length(pick), kind, seed)))?;
    }

    #[test]
    fn non_finite_entries_match_a_fresh_fit(
        pick in 0..LENGTHS,
        kind in 0u8..3,
        seed: u64,
        poison in prop::collection::vec((0usize..1 << 16, any::<bool>(), 0usize..3), 1..4),
    ) {
        let mut trace = grid_trace(&scores(length(pick), kind, seed));
        let n = trace.len();
        for (at, in_position, bad) in poison {
            let entry = &mut trace[at % n];
            if in_position {
                entry.0 = NON_FINITE[bad];
            } else {
                entry.1 = NON_FINITE[bad];
            }
        }
        assert_bit_identical(&trace)?;
    }

    #[test]
    fn off_grid_positions_match_a_fresh_fit(
        pick in 0..LENGTHS,
        kind in 0u8..3,
        seed: u64,
        at in 0usize..1 << 16,
        ulps in 1i64..1000,
        down: bool,
    ) {
        let mut trace = grid_trace(&scores(length(pick), kind, seed));
        let n = trace.len();
        let entry = &mut trace[at % n];
        // Step the position by whole ulps (below 0.0 this wraps to NaN).
        let step = if down { -ulps } else { ulps };
        entry.0 = f64::from_bits(entry.0.to_bits().wrapping_add_signed(step));
        assert_bit_identical(&trace)?;
    }

    #[test]
    fn random_positions_match_a_fresh_fit(
        points in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 0..24),
    ) {
        assert_bit_identical(&points)?;
    }
}

#[test]
fn every_length_matches_a_fresh_fit() {
    for n in (2..=MEMO_CAP + 8).filter(|n| !RESERVED.contains(n)) {
        let rising: Vec<f64> = (0..n).map(|i| (i as f64 / n as f64).sqrt()).collect();
        let flat = vec![0.7; n];
        for ys in [rising, flat] {
            let trace = grid_trace(&ys);
            let (got, want) = (predict(&trace), reference(&trace));
            assert_eq!(got.predicted.to_bits(), want.predicted.to_bits(), "mean at n = {n}");
            assert_eq!(got.sigma.to_bits(), want.sigma.to_bits(), "variance at n = {n}");
        }
    }
}

#[test]
fn first_use_from_concurrent_slots() {
    // Four items per reserved length, striped over eight slots: slots
    // that share a length race to build its design.
    let items: Vec<(usize, usize)> =
        RESERVED.flat_map(|n| (0..4).map(move |copy| (n, copy))).collect();
    let pool = clite_par::WorkerPool::global();
    let got = clite_par::map_indexed(
        pool,
        8,
        &items,
        || (),
        |(), _, &(n, copy)| {
            let ys: Vec<f64> = (0..n).map(|i| ((i * 7 + copy) % 11) as f64 / 10.0).collect();
            predict(&grid_trace(&ys))
        },
    );
    for (&(n, copy), got) in items.iter().zip(got) {
        let ys: Vec<f64> = (0..n).map(|i| ((i * 7 + copy) % 11) as f64 / 10.0).collect();
        let want = reference(&grid_trace(&ys));
        assert_eq!(got.predicted.to_bits(), want.predicted.to_bits(), "mean at n = {n}");
        assert_eq!(got.sigma.to_bits(), want.sigma.to_bits(), "variance at n = {n}");
    }
}

/// Lengths for the exhaustive poison sweep: every short length (past the
/// one-pass path's short stack buffer), a few long ones, and lengths past
/// the cap. None of them, less one poisoned point, lands in [`RESERVED`].
fn sweep_lengths() -> impl Iterator<Item = usize> {
    (2..=24).chain([40, 100, MEMO_CAP - 8, MEMO_CAP + 5, MEMO_CAP + 8])
}

/// One point of a trace made unusable, or moved off the grid by one ulp.
const POISONS: [fn(&mut (f64, f64)); 7] = [
    |p| p.0 = f64::NAN,
    |p| p.0 = f64::INFINITY,
    |p| p.1 = f64::NAN,
    |p| p.1 = f64::INFINITY,
    |p| p.1 = f64::NEG_INFINITY,
    |p| p.0 = f64::from_bits(p.0.to_bits() + 1),
    |p| p.0 = f64::from_bits(p.0.to_bits().wrapping_sub(1)),
];

#[test]
fn the_one_pass_path_hands_over_at_every_position() {
    // A trace that is finite and on its grid everywhere but one point
    // must take the general path wherever that point sits: first, last,
    // or anywhere between (every position of a short trace, the ends and
    // the middle of a long one).
    for n in sweep_lengths() {
        let ys: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 / 10.0).collect();
        let clean = grid_trace(&ys);
        assert_bit_identical(&clean).unwrap();
        let positions: Vec<usize> =
            if n <= 24 { (0..n).collect() } else { vec![0, 1, n / 2, n - 2, n - 1] };
        for at in positions {
            for poison in POISONS {
                let mut trace = clean.clone();
                poison(&mut trace[at]);
                assert_bit_identical(&trace).unwrap_or_else(|e| panic!("n = {n}, at = {at}: {e}"));
            }
        }
    }
}

#[test]
fn signed_zero_scores_match_a_fresh_fit() {
    // The one-pass sum folds from −0.0 as `f64: Sum` does. (Folding from
    // +0.0 would flip only the signs of an all-(−0.0) trace's mean and
    // centred scores, and `ȳ + k*·α` rounds both forms to +0.0, so this
    // pins the results, not the fold.)
    for n in sweep_lengths() {
        for ys in [
            vec![-0.0; n],
            vec![0.0; n],
            (0..n).map(|i| if i % 2 == 0 { -0.0 } else { 0.0 }).collect(),
        ] {
            let trace = grid_trace(&ys);
            assert_bit_identical(&trace).unwrap_or_else(|e| panic!("n = {n}: {e}"));
        }
    }
}
