//! Acquisition functions.
//!
//! CLITE chooses **Expected Improvement** augmented with an exploration
//! factor ζ (paper Eq. 2, following Lizotte): cheap to evaluate and a good
//! exploration/exploitation balance for an online, time-constrained
//! controller. Probability of Improvement and Upper Confidence Bound are
//! provided for the acquisition ablation the paper discusses in Sec. 4
//! ("cheap acquisition functions such as PI suffer from inability to find
//! the balance…").

use serde::Serialize;

use clite_gp::stats::{norm_cdf, norm_pdf};

/// Which acquisition function scores candidate points.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Acquisition {
    /// Expected Improvement with exploration factor ζ (paper Eq. 2);
    /// ζ = 0.01 "works well in practice".
    ExpectedImprovement {
        /// Exploration factor ζ ≥ 0.
        zeta: f64,
    },
    /// Probability of Improvement with the same ζ offset.
    ProbabilityOfImprovement {
        /// Exploration factor ζ ≥ 0.
        zeta: f64,
    },
    /// Upper Confidence Bound `μ + β·σ`, reported as improvement over the
    /// incumbent so its scale is comparable to EI's.
    UpperConfidenceBound {
        /// Confidence multiplier β > 0.
        beta: f64,
    },
}

impl Acquisition {
    /// The paper's default: EI with ζ = 0.01.
    #[must_use]
    pub fn paper_default() -> Self {
        Acquisition::ExpectedImprovement { zeta: 0.01 }
    }

    /// Short name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Acquisition::ExpectedImprovement { .. } => "ei",
            Acquisition::ProbabilityOfImprovement { .. } => "pi",
            Acquisition::UpperConfidenceBound { .. } => "ucb",
        }
    }

    /// Scores a candidate with posterior mean `mean`, posterior standard
    /// deviation `std`, against the incumbent best observed value `best`.
    ///
    /// Higher is more promising. For EI the value is the paper's Eq. 2:
    /// zero whenever `std == 0` (already-sampled points are never
    /// re-suggested on acquisition merit alone).
    #[must_use]
    pub fn score(&self, mean: f64, std: f64, best: f64) -> f64 {
        match *self {
            Acquisition::ExpectedImprovement { zeta } => {
                if std <= 0.0 {
                    return 0.0;
                }
                let delta = mean - best - zeta;
                let z = delta / std;
                // EI is mathematically non-negative; the erf approximation
                // behind norm_cdf has a ~1e-8 error floor that can push the
                // closed form microscopically below zero at extreme z.
                (delta * norm_cdf(z) + std * norm_pdf(z)).max(0.0)
            }
            Acquisition::ProbabilityOfImprovement { zeta } => {
                if std <= 0.0 {
                    return if mean > best + zeta { 1.0 } else { 0.0 };
                }
                norm_cdf((mean - best - zeta) / std)
            }
            Acquisition::UpperConfidenceBound { beta } => mean + beta * std - best,
        }
    }

    /// Upper bound on [`Acquisition::score`] given the exact posterior
    /// mean and an *upper bound* `std_upper ≥ std` on the posterior
    /// standard deviation. Gated hill-climbs use this to discard
    /// candidates whose optimistic score cannot beat the incumbent step
    /// value without paying for the exact variance.
    ///
    /// EI and UCB are non-decreasing in `std` (for EI, ∂EI/∂σ = φ(z) ≥ 0),
    /// so scoring at `std_upper` bounds the score. PI is *not* monotone in
    /// `std` when `mean − best − ζ > 0` (shrinking σ drives it toward 1),
    /// so that branch returns PI's global maximum of 1; the test rounds
    /// exactly as [`Acquisition::score`] does.
    ///
    /// The bound holds in exact arithmetic. The computed EI is not
    /// monotone in σ at the ulp level — `norm_cdf`'s Abramowitz–Stegun
    /// `erf` cancels for z ≲ −6 — so `score(μ, σ)` can exceed
    /// `score_upper_bound(μ, σ_up)` by a few ulps of the score scale.
    /// Callers that rank on the bound allow `8ε·max(1, score)` for it (the
    /// unit tests check that tolerance on a grid of z ∈ [−30, 30]).
    #[must_use]
    pub fn score_upper_bound(&self, mean: f64, std_upper: f64, best: f64) -> f64 {
        if let Acquisition::ProbabilityOfImprovement { zeta } = *self {
            if mean - best - zeta > 0.0 {
                return 1.0;
            }
        }
        self.score(mean, std_upper, best)
    }
}

impl Default for Acquisition {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EI: Acquisition = Acquisition::ExpectedImprovement { zeta: 0.01 };

    #[test]
    fn ei_zero_at_zero_std() {
        assert_eq!(EI.score(10.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn ei_nonnegative() {
        for &(m, s, b) in &[(0.0, 1.0, 5.0), (5.0, 1.0, 0.0), (0.5, 0.01, 0.5), (-3.0, 2.0, 4.0)] {
            assert!(EI.score(m, s, b) >= 0.0, "EI({m},{s},{b})");
        }
    }

    #[test]
    fn ei_increases_with_mean() {
        let a = EI.score(0.2, 0.1, 0.5);
        let b = EI.score(0.6, 0.1, 0.5);
        assert!(b > a);
    }

    #[test]
    fn ei_rewards_uncertainty_below_incumbent() {
        // With mean below best, only variance can produce improvement.
        let low_std = EI.score(0.3, 0.01, 0.5);
        let high_std = EI.score(0.3, 0.3, 0.5);
        assert!(high_std > low_std);
    }

    #[test]
    fn ei_matches_closed_form_at_zero_delta() {
        // With mean − best − ζ = 0: EI = σ·ω(0) = σ/√(2π).
        let zeta = 0.01;
        let acq = Acquisition::ExpectedImprovement { zeta };
        let sigma = 0.4;
        let v = acq.score(1.0 + zeta, sigma, 1.0);
        assert!((v - sigma / (2.0 * std::f64::consts::PI).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn pi_bounded_and_monotone() {
        let pi = Acquisition::ProbabilityOfImprovement { zeta: 0.0 };
        let lo = pi.score(0.0, 1.0, 1.0);
        let hi = pi.score(2.0, 1.0, 1.0);
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        assert!(hi > lo);
        assert_eq!(pi.score(2.0, 0.0, 1.0), 1.0);
        assert_eq!(pi.score(0.5, 0.0, 1.0), 0.0);
    }

    #[test]
    fn ucb_ranks_by_optimism() {
        let ucb = Acquisition::UpperConfidenceBound { beta: 2.0 };
        assert!(ucb.score(0.5, 0.3, 0.0) > ucb.score(0.5, 0.1, 0.0));
        assert!(ucb.score(0.9, 0.1, 0.0) > ucb.score(0.5, 0.1, 0.0));
    }

    #[test]
    fn names() {
        assert_eq!(Acquisition::paper_default().name(), "ei");
        assert_eq!(Acquisition::ProbabilityOfImprovement { zeta: 0.0 }.name(), "pi");
        assert_eq!(Acquisition::UpperConfidenceBound { beta: 1.0 }.name(), "ucb");
    }

    #[test]
    fn upper_bound_dominates_score_up_to_the_stop_tolerance() {
        // score(μ, σ) ≤ score_upper_bound(μ, σ_up) + 8ε·max(1, score) for
        // every σ ≤ σ_up: the tolerance the bound-ordered climb step
        // stops with. Exact EI is monotone in σ; the computed one is not
        // at the ulp level (norm_cdf cancels for z ≲ −6).
        let acquisitions = [
            EI,
            Acquisition::ExpectedImprovement { zeta: 0.0 },
            Acquisition::ProbabilityOfImprovement { zeta: 0.01 },
            Acquisition::UpperConfidenceBound { beta: 2.0 },
        ];
        for acq in acquisitions {
            let zeta = match acq {
                Acquisition::ExpectedImprovement { zeta }
                | Acquisition::ProbabilityOfImprovement { zeta } => zeta,
                Acquisition::UpperConfidenceBound { .. } => 0.0,
            };
            for best in [0.0, 0.5, 1.0] {
                for std in [1e-12, 1e-6, 1e-3, 0.05, 0.3, 1.0] {
                    for step in -600..=600 {
                        let z = f64::from(step) * 0.05;
                        let mean = best + zeta + z * std;
                        let score = acq.score(mean, std, best);
                        for widen in [1.0, 1.0 + 1e-12, 1.001, 1.5, 4.0] {
                            let upper = acq.score_upper_bound(mean, std * widen, best);
                            assert!(
                                score <= upper + 8.0 * f64::EPSILON * score.max(1.0),
                                "{acq:?}: z={z} std={std} widen={widen}: {score} > {upper}"
                            );
                        }
                    }
                }
            }
        }
    }
}
