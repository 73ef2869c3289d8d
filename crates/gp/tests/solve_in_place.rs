//! `Cholesky::solve_in_place` must equal `Cholesky::solve` bit for bit:
//! the headroom surrogate on the admission path swapped one for the
//! other, and the fleet's placement witnesses carry every bit of the
//! result. Covers random SPD systems of order 1–40, including
//! rank-deficient ones that only factorize after the jitter ladder.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use clite_gp::linalg::{Cholesky, Matrix};

/// `B·Bᵀ + ridge·I` for a random `n × rank` matrix `B`: SPD when
/// `rank ≥ n` or `ridge > 0`, semi-definite (jitter needed) otherwise.
fn random_spd(rng: &mut StdRng, n: usize, rank: usize, ridge: f64) -> Matrix {
    let b = Matrix::from_fn(n, rank, |_, _| rng.gen_range(-1.0..1.0));
    let mut a = Matrix::from_fn(n, n, |i, j| (0..rank).map(|k| b[(i, k)] * b[(j, k)]).sum());
    a.add_diagonal(ridge);
    a
}

/// Solves `a·x = rhs` both ways and asserts identical bits; returns the
/// factor's jitter (`None` when even the jitter ladder fails).
fn assert_solves_agree(a: &Matrix, rhs: &[f64]) -> Option<f64> {
    let chol = Cholesky::decompose(a).ok()?;
    let expected = chol.solve(rhs).expect("shape");
    let mut actual = rhs.to_vec();
    chol.solve_in_place(&mut actual).expect("shape");
    for (i, (x, y)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "n={} element {i}: {x} vs {y}", rhs.len());
    }
    Some(chol.jitter())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn in_place_solve_is_bit_identical(
        seed in any::<u64>(),
        n in 1usize..=40,
        deficient in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rank, ridge) = if deficient { (n.div_ceil(2), 0.0) } else { (n, 1e-3) };
        let a = random_spd(&mut rng, n, rank, ridge);
        let rhs: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        assert_solves_agree(&a, &rhs);
    }
}

#[test]
fn jittered_factors_solve_identically_in_place() {
    let mut jittered = 0;
    for n in 2..=40 {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let a = random_spd(&mut rng, n, 1, 0.0);
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        if assert_solves_agree(&a, &rhs).is_some_and(|j| j > 0.0) {
            jittered += 1;
        }
    }
    assert!(jittered > 0, "rank-1 systems must exercise the jitter ladder");
}

#[test]
fn in_place_solve_checks_the_shape() {
    let chol = Cholesky::decompose(&Matrix::identity(3)).expect("identity");
    assert!(chol.solve_in_place(&mut [1.0, 2.0]).is_err());
}
