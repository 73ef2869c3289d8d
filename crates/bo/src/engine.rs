//! The BO loop (paper Algorithm 1), decoupled from what the score means.
//!
//! [`BoEngine`] owns the sampled history, the GP surrogate, and the
//! acquisition maximizer. Callers drive it:
//!
//! 1. evaluate the [`bootstrap_samples`](BoEngine::bootstrap_samples) and
//!    [`record`](BoEngine::record) their scores;
//! 2. repeatedly [`suggest`](BoEngine::suggest) → run the system under the
//!    suggested partition → `record` the observed score;
//! 3. stop when the suggestion's expected improvement satisfies the
//!    termination condition (see [`crate::termination`]).
//!
//! Dropout-copy enters through `suggest`'s `frozen` argument: the caller
//! (CLITE) picks which job to freeze and at which allocation; the engine
//! restricts the acquisition search accordingly.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use clite_gp::gp::{GaussianProcess, GpConfig, PredictScratch};
use clite_gp::hyper::{fit_best, HyperGrid};
use clite_gp::kernel::{Kernel, KernelFamily};
use clite_sim::alloc::{JobAllocation, Partition};
use clite_sim::resource::NUM_RESOURCES;
use clite_telemetry::{Event, Phase, Telemetry};

use crate::acquisition::Acquisition;
use crate::bootstrap::bootstrap_partitions;
use crate::optimizer::{
    draw_starts, maximize_acquisition, AcquisitionEval, EvalScratch, OptimizerConfig,
};
use crate::space::SearchSpace;
use crate::BoError;

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BoConfig {
    /// Kernel family for the surrogate (paper: Matérn).
    pub kernel_family: KernelFamily,
    /// Hyperparameter grid scanned when the surrogate is refreshed.
    pub hyper_grid: HyperGrid,
    /// GP observation-noise variance (absorbs the simulator's measurement
    /// noise on scores).
    pub gp_noise: f64,
    /// Acquisition function (paper: EI with ζ = 0.01).
    pub acquisition: Acquisition,
    /// Acquisition-maximizer settings.
    pub optimizer: OptimizerConfig,
    /// Re-run the hyperparameter grid every this many new observations
    /// (between refreshes the previous kernel is reused — hyperparameters
    /// drift slowly, and the surrogate is extended incrementally via a
    /// rank-1 Cholesky update instead of refitted).
    pub hyper_refresh_every: usize,
}

impl Default for BoConfig {
    fn default() -> Self {
        Self {
            kernel_family: KernelFamily::Matern52,
            hyper_grid: HyperGrid::default_unit(),
            gp_noise: 1e-4,
            acquisition: Acquisition::paper_default(),
            optimizer: OptimizerConfig::default(),
            hyper_refresh_every: 5,
        }
    }
}

/// A suggested next configuration with its acquisition diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Suggestion {
    /// The partition to evaluate next.
    pub partition: Partition,
    /// Acquisition value at the suggestion (EI for the default config);
    /// feeds the termination condition.
    pub expected_improvement: f64,
    /// Surrogate posterior mean at the suggestion.
    pub posterior_mean: f64,
    /// Surrogate posterior standard deviation at the suggestion.
    pub posterior_std: f64,
}

/// The engine's acquisition surface: GP posterior fed into the configured
/// acquisition function, with the structural fast paths the hill climb
/// exposes through [`AcquisitionEval::best_neighbor`]. One steepest-ascent
/// step is an exact branch-and-bound over the step's neighbours:
///
/// * **Transfer-incremental distances** — a climb step's neighbours each
///   differ from the step base in exactly two feature coordinates (the
///   donor's and recipient's fraction of the transferred resource), so the
///   step caches the base's squared distances to every training point once
///   and shifts them in O(n) per neighbour instead of recomputing O(n·d).
///   Every neighbour's row goes to one flat buffer.
/// * **Bound gate** — the exact posterior mean is O(n); only the variance
///   needs the O(n²) triangular solve. One covariance sweep over the flat
///   buffer plus a four-rows-at-a-time reduction
///   ([`GaussianProcess::gate_rows`]) yields every neighbour's mean and a
///   cheap upper bound on its posterior std, which bounds the acquisition
///   from above ([`Acquisition::score_upper_bound`]). A neighbour whose
///   optimistic score does not exceed the step's entry value is dropped.
/// * **Bound-ordered resolution** — the gate's survivors are resolved in
///   descending optimistic score (ties by enumeration index), four per
///   blocked multi-RHS solve ([`GaussianProcess::batch_stds`]), and the
///   step stops at the first survivor whose bound, plus a tolerance of
///   `8ε·max(1, best)`, falls below the best exact score so far. A step
///   has about one winner, so most survivors are never solved.
///
/// The step returns the largest exact score among the gate's survivors,
/// ties to the lowest enumeration index — what a running max over the
/// survivors in enumeration order, seeded at the floor, returns. The
/// guarantee is relative to the survivor set, not to every neighbour:
/// computed EI is not monotone in σ at the ulp level (`norm_cdf`'s
/// Abramowitz–Stegun `erf` cancels for z ≲ −6), so a neighbour's bound can
/// read a hair below its exact score. Measured violations stay below
/// 3.3e-16 absolute for scores up to 1, and the stop rule's tolerance
/// covers them (see [`Acquisition::score_upper_bound`]); the entry gate
/// keeps the plain `upper > floor` test, so it can drop a neighbour whose
/// exact EI is below 1e-18 yet above a near-zero floor.
pub struct SurrogateAcq<'a> {
    gp: &'a GaussianProcess,
    space: SearchSpace,
    acquisition: Acquisition,
    best_score: f64,
}

impl<'a> SurrogateAcq<'a> {
    /// The acquisition surface of `gp` over `space`, scoring improvement
    /// over the incumbent value `best_score`.
    #[must_use]
    pub fn new(
        gp: &'a GaussianProcess,
        space: SearchSpace,
        acquisition: Acquisition,
        best_score: f64,
    ) -> Self {
        Self { gp, space, acquisition, best_score }
    }
}

impl AcquisitionEval for SurrogateAcq<'_> {
    fn eval(&self, p: &Partition, scratch: &mut EvalScratch) -> f64 {
        self.space.encode_into(p, &mut scratch.features);
        let (mean, std) = self.gp.predict_std_into(&scratch.features, &mut scratch.gp);
        self.acquisition.score(mean, std, self.best_score)
    }

    fn best_neighbor(
        &self,
        current: &Partition,
        frozen_job: Option<usize>,
        floor: f64,
        scratch: &mut EvalScratch,
    ) -> Option<(Partition, f64)> {
        let EvalScratch {
            features,
            base_scaled,
            base_sq_dists,
            neighbor_sq_dists,
            kstar_flat,
            gated,
            survivors,
            kstar_block,
            block_stds,
            v_flat,
            ..
        } = scratch;
        let kernel = self.gp.kernel();
        self.space.encode_into(current, features);
        self.gp.scaled_sq_dists_into(features, base_scaled, base_sq_dists);

        // Pass 1 — every neighbour's shifted distances, then one covariance
        // sweep for all exact means and σ bounds. Gating against the
        // *entry* floor is what a serial running max does: its best within
        // a step only rises above the floor.
        neighbor_sq_dists.clear();
        current.for_each_neighbor_transfer(frozen_job, |n, transfer| {
            let ri = transfer.resource.index();
            let col_from = transfer.from * NUM_RESOURCES + ri;
            let col_to = transfer.to * NUM_RESOURCES + ri;
            let changes = [
                (
                    col_from,
                    base_scaled[col_from],
                    kernel.scaled_coord(col_from, n.fraction(transfer.from, transfer.resource)),
                ),
                (
                    col_to,
                    base_scaled[col_to],
                    kernel.scaled_coord(col_to, n.fraction(transfer.to, transfer.resource)),
                ),
            ];
            self.gp.append_shifted_sq_dists(base_sq_dists, changes, neighbor_sq_dists);
        });
        self.gp.gate_rows(neighbor_sq_dists, kstar_flat, gated);
        survivors.clear();
        for (i, g) in gated.iter().enumerate() {
            let upper = self.acquisition.score_upper_bound(g.mean, g.std_upper, self.best_score);
            if upper > floor {
                survivors.push((upper, i));
            }
        }
        if survivors.is_empty() {
            return None;
        }
        survivors.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

        // Pass 2 — exact scores, most optimistic first, four per blocked
        // solve, until no remaining bound can reach the best exact score:
        // stop at the first `upper + 8ε·max(1, best) < best`, the
        // tolerance covering the bound's ulp-level violations.
        let n = self.gp.len();
        let mut best: Option<usize> = None;
        let mut best_val = floor;
        let mut next = 0;
        while next < survivors.len() {
            let block = &survivors[next..survivors.len().min(next + 4)];
            let tolerance = 8.0 * f64::EPSILON * best_val.max(1.0);
            let take = block.iter().take_while(|(upper, _)| upper + tolerance >= best_val).count();
            if take == 0 {
                break;
            }
            kstar_block.clear();
            for &(_, i) in &block[..take] {
                kstar_block.extend_from_slice(&kstar_flat[i * n..(i + 1) * n]);
            }
            self.gp.batch_stds(kstar_block, v_flat, block_stds);
            for (&(_, i), &std) in block[..take].iter().zip(block_stds.iter()) {
                let v = self.acquisition.score(gated[i].mean, std, self.best_score);
                if v > best_val || (v == best_val && best.is_some_and(|b| i < b)) {
                    best_val = v;
                    best = Some(i);
                }
            }
            next += take;
        }
        best.map(|i| {
            let n = current
                .nth_neighbor(frozen_job, i)
                .expect("index enumerated by for_each_neighbor_transfer");
            (n, best_val)
        })
    }
}

/// The Bayesian-optimization engine over a partition search space.
#[derive(Debug, Clone)]
pub struct BoEngine {
    space: SearchSpace,
    config: BoConfig,
    history: Vec<(Partition, f64)>,
    visited: HashSet<Partition>,
    rng: StdRng,
    kernel: Option<Kernel>,
    records_since_refresh: usize,
    /// The maintained surrogate between hyper refreshes: kept in sync with
    /// `history` by O(n²) rank-1 extensions in `record`, so `suggest` only
    /// refits from scratch when the hyper grid is re-scanned.
    surrogate: Option<GaussianProcess>,
}

impl BoEngine {
    /// Builds an engine for `space`, seeded deterministically.
    #[must_use]
    pub fn new(space: SearchSpace, config: BoConfig, seed: u64) -> Self {
        Self {
            space,
            config,
            history: Vec::new(),
            visited: HashSet::new(),
            rng: StdRng::seed_from_u64(seed),
            kernel: None,
            records_since_refresh: 0,
            surrogate: None,
        }
    }

    /// The search space of this engine.
    #[must_use]
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The paper's informed bootstrap set for this space.
    ///
    /// # Errors
    ///
    /// Propagates [`BoError::Space`] from extremum construction.
    pub fn bootstrap_samples(&self) -> Result<Vec<Partition>, BoError> {
        bootstrap_partitions(&self.space)
    }

    /// Records one evaluated configuration. When a surrogate is maintained
    /// and the next suggestion will not re-scan the hyper grid anyway, the
    /// surrogate is extended in place by a rank-1 Cholesky update (O(n²),
    /// timed as [`Phase::GpExtend`]) instead of being refitted from
    /// scratch (O(n³)) on the next `suggest`.
    pub fn record(&mut self, partition: Partition, score: f64, telemetry: &Telemetry<'_>) {
        let refresh_next = self.kernel.is_none()
            || self.records_since_refresh + 1 >= self.config.hyper_refresh_every;
        if refresh_next {
            // The next suggest refits from scratch; keeping the stale
            // surrogate would only risk serving it by accident.
            self.surrogate = None;
        } else if let Some(gp) = self.surrogate.take() {
            if gp.len() == self.history.len() {
                let x = self.space.encode(&partition);
                // A failed extension (and the fallback refit inside it)
                // just drops the surrogate; the next suggest refits.
                self.surrogate = telemetry.time(Phase::GpExtend, || gp.extended(x, score)).ok();
            }
        }
        self.visited.insert(partition.clone());
        self.history.push((partition, score));
        self.records_since_refresh += 1;
    }

    /// Seeds the engine with pre-recorded `(partition, score)` samples
    /// before its first suggestion — the warm-start path for re-invoked
    /// searches. Entries are recorded in the order given (callers must
    /// pass a deterministic order for reproducible runs); each marks its
    /// partition visited, so the engine never re-proposes a stored point.
    pub fn warm_start(&mut self, entries: impl IntoIterator<Item = (Partition, f64)>) {
        let telemetry = Telemetry::disabled();
        for (partition, score) in entries {
            self.record(partition, score, &telemetry);
        }
    }

    /// Quarantines `partition`: marks it visited so the engine never
    /// re-proposes it, **without** entering it into the surrogate history.
    /// This is the fault-hardening path for observations rejected by the
    /// controller's outlier guard — a measurement too inconsistent with
    /// the posterior to trust must not train the GP, but re-proposing the
    /// same point would just re-measure the same faulty configuration.
    pub fn quarantine(&mut self, partition: Partition) {
        self.visited.insert(partition);
    }

    /// Number of recorded evaluations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// The recorded history in evaluation order.
    #[must_use]
    pub fn history(&self) -> &[(Partition, f64)] {
        &self.history
    }

    /// Best recorded `(partition, score)` so far.
    #[must_use]
    pub fn best(&self) -> Option<(&Partition, f64)> {
        self.history.iter().max_by(|a, b| a.1.total_cmp(&b.1)).map(|(p, s)| (p, *s))
    }

    /// Runs one iteration of Algorithm 1: refresh the surrogate, maximize
    /// the acquisition (optionally with a frozen dropout row), and return
    /// the next configuration to evaluate. The GP fit and the acquisition
    /// maximization are timed as their Fig. 15b phases, and hyper-grid
    /// refreshes emit [`Event::GpRefit`].
    ///
    /// # Errors
    ///
    /// Returns [`BoError::NoHistory`] before any `record`,
    /// [`BoError::Surrogate`] if the GP cannot be fitted, and
    /// [`BoError::NoCandidate`] if no feasible unsampled candidate exists.
    pub fn suggest(
        &mut self,
        frozen: Option<(usize, JobAllocation)>,
        telemetry: &Telemetry<'_>,
    ) -> Result<Suggestion, BoError> {
        self.ensure_surrogate(telemetry)?;
        let best_score = self.best().map(|(_, s)| s).unwrap_or(0.0);
        let seeds = self.acquisition_seeds();
        let Self { space, config, visited, rng, surrogate, .. } = self;
        let gp = surrogate.as_ref().expect("ensured above");
        let acq = SurrogateAcq::new(gp, *space, config.acquisition, best_score);

        let (partition, ei) = telemetry
            .time(Phase::Acquisition, || {
                maximize_acquisition(space, config.optimizer, acq, &seeds, frozen, visited, rng)
            })?
            .ok_or(BoError::NoCandidate)?;

        let (posterior_mean, posterior_std) = gp.predict_std(&space.encode(&partition));
        Ok(Suggestion { partition, expected_improvement: ei, posterior_mean, posterior_std })
    }

    /// Advances the engine exactly as [`suggest`](BoEngine::suggest) with
    /// the same `frozen` row would, without climbing the acquisition, and
    /// returns `Ok(true)` — provided that suggestion is certain to exist.
    /// A caller that will discard the suggestion anyway (CLITE's repair
    /// moves) then skips its cost, and every later suggestion is bit for
    /// bit what it would have been.
    ///
    /// The acquisition's only side effect on the engine is its draws from
    /// the engine's generator (`optimizer::draw_starts`); this draws the same start
    /// points. It does not fit the surrogate: a fit depends only on the
    /// history, so a later `suggest` fits the same one.
    ///
    /// Certainty: the maximization returns no candidate only if no start
    /// survives the frozen row, or a climb ends on a visited partition
    /// whose every neighbour (frozen row kept) is visited too. So the skip
    /// is taken only when some start survives and no visited partition
    /// with the frozen row is such a dead end. Otherwise this returns
    /// `Ok(false)` with the engine untouched, and the caller must run the
    /// acquisition (whose empty result feeds its unfrozen retry).
    ///
    /// # Errors
    ///
    /// Returns [`BoError::Space`] if a random restart point cannot be
    /// generated, as `suggest` would.
    pub fn skip_suggest(
        &mut self,
        frozen: Option<(usize, JobAllocation)>,
    ) -> Result<bool, BoError> {
        if self.history.is_empty() {
            return Ok(false);
        }
        let mut rng = self.rng.clone();
        let starts = draw_starts(
            &self.space,
            self.config.optimizer,
            &self.acquisition_seeds(),
            frozen,
            &mut rng,
        )?;
        if starts.is_empty() || self.has_dead_end(frozen) {
            return Ok(false);
        }
        self.rng = rng;
        Ok(true)
    }

    /// Warm starts of the acquisition climb: the incumbent best and the
    /// most recent sample.
    fn acquisition_seeds(&self) -> Vec<Partition> {
        let mut seeds: Vec<Partition> = Vec::new();
        if let Some((p, _)) = self.best() {
            seeds.push(p.clone());
        }
        if let Some((p, _)) = self.history.last() {
            if seeds.first() != Some(p) {
                seeds.push(p.clone());
            }
        }
        seeds
    }

    /// Whether some visited partition holding the `frozen` row has every
    /// neighbour that keeps the row visited as well: a climb ending there
    /// has no candidate to offer.
    fn has_dead_end(&self, frozen: Option<(usize, JobAllocation)>) -> bool {
        let frozen_job = frozen.map(|(j, _)| j);
        self.visited.iter().filter(|p| frozen.is_none_or(|(j, row)| *p.job(j) == row)).any(|p| {
            let mut exit = false;
            p.for_each_neighbor(frozen_job, |n| exit = exit || !self.visited.contains(n));
            !exit
        })
    }

    /// Local exploitation ("polish") move: the best unvisited candidate by
    /// posterior mean, from a caller-supplied candidate set (typically
    /// unit-transfer donations around the incumbent). Used when the global
    /// acquisition dries up — a smooth global surrogate can have near-zero
    /// EI everywhere while genuine improvements still hide one transfer
    /// away from the incumbent; sampling those candidates both exploits
    /// them and teaches the surrogate local structure. Returns `Ok(None)`
    /// when every candidate has been visited.
    ///
    /// # Errors
    ///
    /// Returns [`BoError::NoHistory`] before any `record` and
    /// [`BoError::Surrogate`] if the GP cannot be fitted.
    pub fn suggest_among(
        &mut self,
        candidates: &[Partition],
        telemetry: &Telemetry<'_>,
    ) -> Result<Option<Suggestion>, BoError> {
        self.ensure_surrogate(telemetry)?;
        let gp = self.surrogate.as_ref().expect("ensured above");
        let best_score = self.best().map(|(_, s)| s).ok_or(BoError::NoHistory)?;
        let mut features = Vec::new();
        let mut scratch = PredictScratch::default();
        let mut best: Option<(Partition, f64, f64)> = None;
        for n in candidates {
            if self.visited.contains(n) {
                continue;
            }
            self.space.encode_into(n, &mut features);
            let (mean, std) = gp.predict_std_into(&features, &mut scratch);
            if best.as_ref().is_none_or(|(_, m, _)| mean > *m) {
                best = Some((n.clone(), mean, std));
            }
        }
        Ok(best.map(|(partition, posterior_mean, posterior_std)| Suggestion {
            expected_improvement: (posterior_mean - best_score).max(0.0),
            partition,
            posterior_mean,
            posterior_std,
        }))
    }

    /// Takes the *first unvisited* candidate from a priority-ordered list
    /// (highest-priority first), reporting its posterior stats. Used for
    /// counter-guided local moves where the caller's domain knowledge
    /// (e.g. "the weakest job's bandwidth counter is pinned at its share")
    /// ranks moves better than a smooth global surrogate can.
    ///
    /// # Errors
    ///
    /// Returns [`BoError::NoHistory`] before any `record` and
    /// [`BoError::Surrogate`] if the GP cannot be fitted.
    pub fn suggest_ordered(
        &mut self,
        candidates: &[Partition],
        telemetry: &Telemetry<'_>,
    ) -> Result<Option<Suggestion>, BoError> {
        let Some(partition) = candidates.iter().find(|p| !self.visited.contains(*p)) else {
            return Ok(None);
        };
        self.ensure_surrogate(telemetry)?;
        let gp = self.surrogate.as_ref().expect("ensured above");
        let best_score = self.best().map(|(_, s)| s).ok_or(BoError::NoHistory)?;
        let (posterior_mean, posterior_std) = gp.predict_std(&self.space.encode(partition));
        Ok(Some(Suggestion {
            expected_improvement: (posterior_mean - best_score).max(0.0),
            partition: partition.clone(),
            posterior_mean,
            posterior_std,
        }))
    }

    /// Convenience polish over all single-unit-transfer neighbours of the
    /// incumbent best, optionally honouring a frozen row.
    ///
    /// # Errors
    ///
    /// See [`BoEngine::suggest_among`].
    pub fn suggest_polish(
        &mut self,
        frozen: Option<(usize, JobAllocation)>,
        telemetry: &Telemetry<'_>,
    ) -> Result<Option<Suggestion>, BoError> {
        let incumbent = self.best().ok_or(BoError::NoHistory)?.0.clone();
        let frozen_job = match &frozen {
            Some((j, row)) if incumbent.job(*j) == row => Some(*j),
            _ => None,
        };
        let candidates = incumbent.neighbors(frozen_job);
        self.suggest_among(&candidates, telemetry)
    }

    /// Makes `self.surrogate` the GP fitted (or refreshed) on the recorded
    /// history; callers borrow it from there, so no call copies its factor.
    ///
    /// Three paths, cheapest first:
    /// 1. between refreshes, the surrogate maintained by
    ///    [`record`](BoEngine::record)'s rank-1 extensions is
    ///    kept as it is (no linear algebra at all);
    /// 2. if that surrogate was lost (extension failure, deserialized
    ///    state), the history is refitted under the cached kernel
    ///    (one O(n³) factorization, timed as [`Phase::GpFit`]);
    /// 3. on hyper refresh, the full grid is re-scanned over a shared
    ///    pairwise-distance matrix ([`fit_best`]), timed as
    ///    [`Phase::GpFit`] and emitting [`Event::GpRefit`].
    fn ensure_surrogate(&mut self, telemetry: &Telemetry<'_>) -> Result<(), BoError> {
        if self.history.is_empty() {
            return Err(BoError::NoHistory);
        }
        let gp_config = GpConfig { noise_variance: self.config.gp_noise };

        let refresh =
            self.kernel.is_none() || self.records_since_refresh >= self.config.hyper_refresh_every;
        if !refresh {
            if let Some(gp) = &self.surrogate {
                if gp.len() == self.history.len() {
                    return Ok(());
                }
            }
        }

        let xs: Vec<Vec<f64>> = self.history.iter().map(|(p, _)| self.space.encode(p)).collect();
        let ys: Vec<f64> = self.history.iter().map(|(_, s)| *s).collect();

        let fitted = if refresh {
            let template = Kernel::new(self.config.kernel_family, 1.0, 1.0);
            let fitted = telemetry.time(Phase::GpFit, || {
                fit_best(&template, gp_config, &self.config.hyper_grid, &xs, &ys)
            })?;
            self.kernel = Some(fitted.kernel().clone());
            self.records_since_refresh = 0;
            let summary = fitted.fit_summary();
            telemetry.emit(Event::GpRefit {
                observations: summary.observations,
                lengthscale: summary.lengthscale,
                signal_variance: summary.signal_variance,
                log_marginal: summary.log_marginal,
            });
            fitted
        } else {
            let kernel = self.kernel.clone().ok_or(BoError::KernelMissing)?;
            telemetry.time(Phase::GpFit, || GaussianProcess::fit(kernel, gp_config, xs, ys))?
        };
        self.surrogate = Some(fitted);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clite_sim::resource::{ResourceCatalog, ResourceKind};
    use std::sync::LazyLock;

    /// One disabled context shared by every test here.
    static OFF: LazyLock<Telemetry<'static>> = LazyLock::new(Telemetry::disabled);

    fn engine(jobs: usize, seed: u64) -> BoEngine {
        let space = SearchSpace::new(ResourceCatalog::testbed(), jobs).unwrap();
        BoEngine::new(space, BoConfig::default(), seed)
    }

    /// A deterministic synthetic objective with a known optimum: reward
    /// job 0's cores and job 1's ways.
    fn objective(p: &Partition) -> f64 {
        0.6 * p.fraction(0, ResourceKind::Cores) + 0.4 * p.fraction(1, ResourceKind::LlcWays)
    }

    #[test]
    fn suggest_before_record_errors() {
        let mut e = engine(2, 1);
        assert!(matches!(e.suggest(None, &OFF), Err(BoError::NoHistory)));
    }

    #[test]
    fn warm_start_primes_history_and_skips_stored_points() {
        let mut warm = engine(2, 3);
        let seeds: Vec<(Partition, f64)> = engine(2, 3)
            .bootstrap_samples()
            .unwrap()
            .into_iter()
            .map(|p| {
                let y = objective(&p);
                (p, y)
            })
            .collect();
        warm.warm_start(seeds.clone());
        assert_eq!(warm.len(), seeds.len());
        assert_eq!(warm.best().unwrap().1, seeds.iter().map(|s| s.1).fold(f64::MIN, f64::max));

        // A warm engine can suggest immediately, and never re-proposes a
        // stored partition.
        let s = warm.suggest(None, &OFF).unwrap();
        assert!(seeds.iter().all(|(p, _)| *p != s.partition));

        // Warm-started and manually-recorded engines are byte-equivalent.
        let mut cold = engine(2, 3);
        for (p, y) in seeds {
            cold.record(p, y, &OFF);
        }
        let s2 = cold.suggest(None, &OFF).unwrap();
        assert_eq!(s.partition, s2.partition);
    }

    #[test]
    fn engine_improves_over_bootstrap() {
        let mut e = engine(2, 2);
        for p in e.bootstrap_samples().unwrap() {
            let y = objective(&p);
            e.record(p, y, &OFF);
        }
        let bootstrap_best = e.best().unwrap().1;
        for _ in 0..15 {
            let s = e.suggest(None, &OFF).unwrap();
            let y = objective(&s.partition);
            e.record(s.partition, y, &OFF);
        }
        let final_best = e.best().unwrap().1;
        assert!(final_best >= bootstrap_best);
        // Known optimum: job 0 has 9 cores, job 1 has 10 ways
        // => 0.6·0.9 + 0.4·(10/11) ≈ 0.9036. Engine should get close.
        assert!(final_best > 0.85, "final best {final_best}");
    }

    #[test]
    fn suggestions_are_never_repeats() {
        let mut e = engine(2, 3);
        for p in e.bootstrap_samples().unwrap() {
            let y = objective(&p);
            e.record(p, y, &OFF);
        }
        let mut seen: HashSet<Partition> = e.history().iter().map(|(p, _)| p.clone()).collect();
        for _ in 0..10 {
            let s = e.suggest(None, &OFF).unwrap();
            assert!(!seen.contains(&s.partition), "suggested an already-sampled partition");
            seen.insert(s.partition.clone());
            let y = objective(&s.partition);
            e.record(s.partition, y, &OFF);
        }
    }

    #[test]
    fn frozen_row_respected_in_suggestions() {
        let mut e = engine(3, 4);
        for p in e.bootstrap_samples().unwrap() {
            let y = objective(&p);
            e.record(p, y, &OFF);
        }
        let frozen_row = *e.space().equal_share().unwrap().job(2);
        for _ in 0..5 {
            let s = e.suggest(Some((2, frozen_row)), &OFF).unwrap();
            assert_eq!(s.partition.job(2), &frozen_row);
            let y = objective(&s.partition);
            e.record(s.partition, y, &OFF);
        }
    }

    #[test]
    fn ei_diagnostics_are_finite_and_nonnegative() {
        let mut e = engine(2, 5);
        for p in e.bootstrap_samples().unwrap() {
            let y = objective(&p);
            e.record(p, y, &OFF);
        }
        let s = e.suggest(None, &OFF).unwrap();
        assert!(s.expected_improvement.is_finite() && s.expected_improvement >= 0.0);
        assert!(s.posterior_std >= 0.0);
        assert!(s.posterior_mean.is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut e = engine(2, seed);
            for p in e.bootstrap_samples().unwrap() {
                let y = objective(&p);
                e.record(p, y, &OFF);
            }
            let mut trace = Vec::new();
            for _ in 0..5 {
                let s = e.suggest(None, &OFF).unwrap();
                trace.push(s.partition.clone());
                let y = objective(&s.partition);
                e.record(s.partition, y, &OFF);
            }
            trace
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn skip_is_refused_on_a_single_partition_space() {
        let mut e = engine(1, 7);
        for p in e.bootstrap_samples().unwrap() {
            e.record(p, 0.5, &OFF);
        }
        let rng = e.rng.clone();
        assert!(!e.skip_suggest(None).unwrap());
        assert_eq!(e.rng, rng, "a refused skip draws nothing");
        // The acquisition still runs: it draws its starts and finds nothing.
        assert!(matches!(e.suggest(None, &OFF), Err(BoError::NoCandidate)));
        assert_ne!(e.rng, rng);
    }

    #[test]
    fn skip_is_refused_once_a_tiny_frozen_remainder_is_exhausted() {
        // Job 0 frozen at all but two units of each resource (three of
        // the last): the other two jobs can split the remainder two ways.
        let mut e = engine(3, 8);
        let catalog = *e.space().catalog();
        let frozen_row = JobAllocation::from_units([8, 9, 8, 8, 8, 7]);
        let remainder = |net: u32| {
            let rows = vec![
                frozen_row,
                JobAllocation::from_units([1, 1, 1, 1, 1, net]),
                JobAllocation::from_units([1, 1, 1, 1, 1, 3 - net]),
            ];
            Partition::from_rows(catalog, rows).unwrap()
        };
        let frozen = Some((0, frozen_row));
        for p in e.bootstrap_samples().unwrap() {
            let y = objective(&p);
            e.record(p, y, &OFF);
        }

        // One split visited: the other is its exit, so the skip is safe.
        e.record(remainder(1), 0.3, &OFF);
        assert!(e.clone().skip_suggest(frozen).unwrap());
        assert_eq!(e.clone().suggest(frozen, &OFF).unwrap().partition, remainder(2));

        // Both visited: every climb ends on a dead end.
        e.record(remainder(2), 0.4, &OFF);
        let rng = e.rng.clone();
        assert!(!e.skip_suggest(frozen).unwrap());
        assert_eq!(e.rng, rng, "a refused skip draws nothing");
        assert!(matches!(e.suggest(frozen, &OFF), Err(BoError::NoCandidate)));
        assert_ne!(e.rng, rng);

        // A row the other two jobs cannot host leaves no start at all.
        let unhostable = Some((0, JobAllocation::from_units([9, 10, 9, 9, 9, 9])));
        let rng = e.rng.clone();
        assert!(!e.skip_suggest(unhostable).unwrap());
        assert_eq!(e.rng, rng);
        assert!(matches!(e.suggest(unhostable, &OFF), Err(BoError::NoCandidate)));
    }
}
