//! Controller configuration with the paper's defaults.

use clite_bo::engine::BoConfig;
use clite_bo::termination::Termination;
use serde::Serialize;

/// How the dropout-copy dimensionality reduction picks the job to freeze
/// (paper Sec. 4, "Mitigating High Dimensionality Limitations").
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum DropoutPolicy {
    /// No dropout: every job's allocation is searched every iteration
    /// (ablation baseline).
    None,
    /// The paper's policy: freeze the LC job that is performing best so far
    /// (has met or is closest to meeting its QoS) at its best-seen
    /// allocation; with probability `explore_prob` freeze a random LC job
    /// instead (the paper notes a "small probabilistic factor" in the
    /// choice, visible as CLITE's small residual run-to-run variability in
    /// Fig. 11).
    BestJob {
        /// Probability of freezing a uniformly random LC job instead of the
        /// best-performing one.
        explore_prob: f64,
    },
}

impl DropoutPolicy {
    /// The paper's default policy (drop one job, small exploration factor).
    #[must_use]
    pub fn paper_default() -> Self {
        DropoutPolicy::BestJob { explore_prob: 0.1 }
    }
}

/// Fault-recovery policy: how the controller reacts to faulted windows
/// and counter outliers (the degradation ladder's guard → retry →
/// quarantine → fallback rungs).
///
/// The retry/fallback machinery for *typed testbed faults* (dropped or
/// stuck windows, transient enforcement failures, node crashes) is always
/// active — it only runs when a fault actually surfaces, so fault-free
/// runs are bit-for-bit unchanged. The *outlier guard* re-observes
/// suspicious-but-successful windows, which spends extra windows, so it is
/// opt-in via [`RecoveryConfig::outlier_threshold`] (see
/// [`RecoveryConfig::hardened`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RecoveryConfig {
    /// Maximum re-observations of one sample before the controller gives
    /// up and engages the safe fallback (for faults) or quarantines the
    /// point (for unsettled outliers).
    pub max_retries: usize,
    /// Base of the exponential backoff spent before retry `n`: the retry
    /// waits `backoff_windows << (n-1)` windows (capped by
    /// [`RecoveryConfig::backoff_cap`], plus jitter), counting them as
    /// overhead. `0` disables backoff entirely.
    pub backoff_windows: usize,
    /// Cap on the exponential term, in windows, so a long retry chain
    /// cannot stall a search for exponentially many windows.
    pub backoff_cap: usize,
    /// Maximum deterministic jitter added to each backoff, in windows: a
    /// seed-derived value in `0..=jitter_windows` decorrelates retry
    /// storms across concurrent searches. `0` (the default) adds none,
    /// keeping default-config schedules free of any jitter stream.
    pub jitter_windows: usize,
    /// Seed for the jitter stream (a pure function of this seed and the
    /// attempt number — never wall clock or a shared RNG).
    pub jitter_seed: u64,
    /// Outlier guard threshold in posterior standard deviations: an
    /// observation whose Eq. 3 score deviates from the surrogate's
    /// posterior mean by more than this many σ is re-observed before it
    /// may enter the GP history or the store. `None` disables the guard.
    pub outlier_threshold: Option<f64>,
    /// Two scores within this absolute tolerance (or 5% relative) count
    /// as *agreeing*: a flagged observation that reproduces under
    /// re-observation is accepted — the surrogate was wrong, not the
    /// counters.
    pub agree_tol: f64,
    /// Floor on the posterior σ used by the guard, so a near-certain
    /// surrogate cannot flag ordinary measurement noise as an outlier.
    pub sigma_floor: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_windows: 1,
            backoff_cap: 8,
            jitter_windows: 0,
            jitter_seed: 0,
            outlier_threshold: None,
            agree_tol: 0.1,
            sigma_floor: 0.02,
        }
    }
}

impl RecoveryConfig {
    /// The chaos-hardened policy: retries as per default plus the outlier
    /// guard at 5σ — the configuration the `--faults` chaos mode and the
    /// chaos experiments run under.
    #[must_use]
    pub fn hardened() -> Self {
        Self { outlier_threshold: Some(5.0), ..Self::default() }
    }

    /// Whether the outlier guard is active.
    #[must_use]
    pub fn guard_enabled(&self) -> bool {
        self.outlier_threshold.is_some()
    }

    /// Windows of backoff to wait before retry `attempt` (1-based):
    /// `backoff_windows << (attempt-1)` (shift clamped at 63, bits shifted
    /// out dropped), at most `max(backoff_cap, backoff_windows)`, plus
    /// deterministic jitter in `0..=jitter_windows` from a SplitMix64
    /// finalizer over `(jitter_seed, attempt)`. Attempt 0 or a zero base
    /// waits nothing. A pure function of the config and the attempt, so
    /// retry schedules replay byte-identically.
    #[must_use]
    pub fn backoff_for(&self, attempt: usize) -> usize {
        let (base, cap) = (self.backoff_windows as u64, self.backoff_cap as u64);
        let (jitter, attempt) = (self.jitter_windows as u64, attempt as u64);
        if attempt == 0 || base == 0 {
            return 0;
        }
        let exp = (base << (attempt - 1).min(63)).min(cap.max(base));
        if jitter == 0 {
            return exp as usize;
        }
        let mut z = self.jitter_seed ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (exp + (z ^ (z >> 31)) % (jitter + 1)) as usize
    }
}

/// Full CLITE configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CliteConfig {
    /// Bayesian-optimization engine settings (kernel, acquisition ζ,
    /// acquisition-maximizer budget, hyperparameter refresh cadence).
    pub bo: BoConfig,
    /// Expected-improvement termination condition.
    pub termination: Termination,
    /// Dropout-copy policy.
    pub dropout: DropoutPolicy,
    /// Fault-recovery and outlier-guard policy.
    pub recovery: RecoveryConfig,
    /// RNG seed for the controller's own stochastic choices (dropout
    /// exploration, acquisition restarts).
    pub seed: u64,
}

impl Default for CliteConfig {
    fn default() -> Self {
        Self {
            bo: BoConfig::default(),
            termination: Termination::default(),
            dropout: DropoutPolicy::paper_default(),
            recovery: RecoveryConfig::default(),
            seed: 0x000C_117E,
        }
    }
}

impl CliteConfig {
    /// Returns a copy with a different seed (run-to-run variability
    /// studies re-seed everything else identically).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with dropout disabled (ablation).
    #[must_use]
    pub fn without_dropout(mut self) -> Self {
        self.dropout = DropoutPolicy::None;
        self
    }

    /// Returns a copy with a different termination condition.
    #[must_use]
    pub fn with_termination(mut self, termination: Termination) -> Self {
        self.termination = termination;
        self
    }

    /// Returns a copy with different BO settings.
    #[must_use]
    pub fn with_bo(mut self, bo: BoConfig) -> Self {
        self.bo = bo;
        self
    }

    /// Returns a copy with a different fault-recovery policy.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// Returns a copy running the chaos-hardened recovery policy
    /// ([`RecoveryConfig::hardened`]): outlier guard on at 5σ.
    #[must_use]
    pub fn hardened(self) -> Self {
        self.with_recovery(RecoveryConfig::hardened())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CliteConfig::default();
        assert_eq!(c.dropout, DropoutPolicy::BestJob { explore_prob: 0.1 });
        assert!((c.termination.ei_threshold - 0.03).abs() < 1e-12, "job-scaled EI threshold");
    }

    #[test]
    fn builder_methods_compose() {
        let c = CliteConfig::default().with_seed(9).without_dropout();
        assert_eq!(c.seed, 9);
        assert_eq!(c.dropout, DropoutPolicy::None);
    }

    #[test]
    fn default_recovery_keeps_guard_off_but_retries_on() {
        let c = CliteConfig::default();
        assert!(!c.recovery.guard_enabled(), "guard must be opt-in (costs extra windows)");
        assert!(c.recovery.max_retries > 0, "fault retries are always armed");
        let h = CliteConfig::default().hardened();
        assert_eq!(h.recovery.outlier_threshold, Some(5.0));
    }

    #[test]
    fn backoff_grows_exponentially_with_cap_and_no_default_jitter() {
        let r = RecoveryConfig::default();
        assert_eq!(r.backoff_for(0), 0);
        // Attempts 1 and 2 match the old linear schedule (1, 2 windows),
        // so default-config fault paths that never chain three transient
        // faults replay byte-identically to the pre-exponential code.
        assert_eq!(r.backoff_for(1), 1);
        assert_eq!(r.backoff_for(2), 2);
        assert_eq!(r.backoff_for(3), 4);
        assert_eq!(r.backoff_for(4), 8);
        assert_eq!(r.backoff_for(5), 8, "capped at backoff_cap");
        assert_eq!(r.backoff_for(64), 8, "no overflow at absurd attempts");

        let none = RecoveryConfig { backoff_windows: 0, ..RecoveryConfig::default() };
        assert_eq!(none.backoff_for(3), 0, "zero base disables backoff");
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let r =
            RecoveryConfig { jitter_windows: 3, jitter_seed: 0xFEED, ..RecoveryConfig::default() };
        for attempt in 1..=8 {
            let a = r.backoff_for(attempt);
            let b = r.backoff_for(attempt);
            assert_eq!(a, b, "jitter must replay");
            let base = RecoveryConfig::default().backoff_for(attempt);
            assert!((base..=base + 3).contains(&a), "jitter bounded at attempt {attempt}");
        }
        let other = RecoveryConfig { jitter_seed: 0xBEEF, ..r.clone() };
        assert!(
            (1..=8).any(|n| other.backoff_for(n) != r.backoff_for(n)),
            "different seeds should decorrelate some attempt"
        );
    }

    /// The original `RecoveryConfig::backoff_for`, kept verbatim as the
    /// reference the shipped formula must reproduce.
    fn reference_backoff(r: &RecoveryConfig, attempt: usize) -> usize {
        if attempt == 0 || r.backoff_windows == 0 {
            return 0;
        }
        let shift = (attempt - 1).min(usize::BITS as usize - 1) as u32;
        let exp = r
            .backoff_windows
            .checked_shl(shift)
            .unwrap_or(r.backoff_cap)
            .min(r.backoff_cap.max(r.backoff_windows));
        let jitter = if r.jitter_windows == 0 {
            0
        } else {
            let mut z = r.jitter_seed ^ (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize % (r.jitter_windows + 1)
        };
        exp + jitter
    }

    #[test]
    fn capped_backoff_matches_the_reference_formula() {
        // Bases include 0, caps below the base, and bases whose shifts
        // overflow (bits shifted out, and shifts clamped at 63).
        let bases = [0, 1, 3, 7, 1 << 40, 1 << 62, 1 << 63, u64::MAX >> 2];
        let caps = [0, 1, 2, 8, 16, 1000, 1u64 << 50];
        for base in bases {
            for cap in caps {
                for (jitter, seed) in [(0, 0), (0, 0xFEED), (3, 0xFEED), (17, 0xBEEF), (1, 0)] {
                    for attempt in 0..=70usize {
                        let config = RecoveryConfig {
                            backoff_windows: base as usize,
                            backoff_cap: cap as usize,
                            jitter_windows: jitter as usize,
                            jitter_seed: seed,
                            ..RecoveryConfig::default()
                        };
                        assert_eq!(
                            config.backoff_for(attempt),
                            reference_backoff(&config, attempt),
                            "base {base} cap {cap} jitter {jitter} seed {seed} attempt {attempt}"
                        );
                    }
                }
            }
        }
    }
}
