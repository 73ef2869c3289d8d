//! Constrained acquisition maximization.
//!
//! The paper solves `maximize a(x(j,r))` subject to the per-resource
//! simplex constraints (Eq. 4–6) with constrained SLSQP over a continuous
//! relaxation. The feasible set is really a product of integer simplices,
//! whose natural neighbourhood is the *single-unit transfer* (move one unit
//! of one resource between two jobs). This module maximizes the acquisition
//! directly in that discrete space: steepest-ascent hill climbing from a
//! set of seeds (incumbent-derived plus random restarts), optionally with
//! one job's row frozen (dropout-copy, Sec. 4).

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::Rng;

use clite_gp::gp::{GatedPrediction, PredictScratch};
use clite_sim::alloc::{JobAllocation, Partition};

use crate::space::SearchSpace;

/// Configuration for the hill-climbing acquisition maximizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Number of random restart points added to the provided seeds.
    pub random_restarts: usize,
    /// Maximum steepest-ascent steps per start point.
    pub max_steps: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self { random_restarts: 4, max_steps: 25 }
    }
}

/// Reusable buffers threaded through every acquisition
/// evaluation: the candidate's feature encoding plus the GP prediction
/// scratch. One hill climb evaluates thousands of neighbours; with this
/// scratch the whole climb allocates nothing per candidate.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Feature-encoding buffer (see `SearchSpace::encode_into`).
    pub features: Vec<f64>,
    /// GP prediction buffers.
    pub gp: PredictScratch,
    /// Scaled feature encoding of the current climb step's base partition
    /// (batched evaluators only).
    pub base_scaled: Vec<f64>,
    /// Squared scaled distances from the step base to every training
    /// point (batched evaluators only).
    pub base_sq_dists: Vec<f64>,
    /// Every neighbour's shifted squared distances, one training-size row
    /// per neighbour in enumeration order (batched evaluators only).
    pub neighbor_sq_dists: Vec<f64>,
    /// Every neighbour's cross-covariance row, same layout (batched
    /// evaluators only).
    pub kstar_flat: Vec<f64>,
    /// Every neighbour's exact posterior mean and σ upper bound.
    pub gated: Vec<GatedPrediction>,
    /// `(optimistic score, enumeration index)` of the neighbours the bound
    /// gate kept, in resolution order.
    pub survivors: Vec<(f64, usize)>,
    /// Up to four survivors' cross-covariance rows, gathered for one
    /// blocked variance solve.
    pub kstar_block: Vec<f64>,
    /// Exact posterior standard deviations of the gathered survivors.
    pub block_stds: Vec<f64>,
    /// Batched triangular-solve scratch.
    pub v_flat: Vec<f64>,
    /// Memoized climb steps, keyed by the step's base partition. Multiple
    /// starts converge to the same optima and replay identical neighbour
    /// sweeps; each cache hit skips a full `best_neighbor` pass. Lives as
    /// long as the scratch (one `maximize_acquisition` call), over which
    /// the acquisition surface is fixed.
    pub step_cache: HashMap<Partition, StepOutcome>,
}

/// A memoized [`AcquisitionEval::best_neighbor`] result.
///
/// Caching across differing floors is sound because the result is
/// floor-independent whenever a winner exists: the running max returns the
/// first enumeration-order argmax of the *whole* neighbourhood and its
/// exact value (candidates at or below the floor can never tie a winner,
/// whose value strictly exceeds the floor). A `None` result only certifies
/// "no neighbour above this floor", so it is recorded with the floor it
/// was computed at and replayed only for floors at least as high.
#[derive(Debug, Clone)]
pub enum StepOutcome {
    /// The neighbourhood's first argmax and its value (floor-independent).
    Best(Partition, f64),
    /// No neighbour strictly exceeded the recorded floor.
    NoneAtFloor(f64),
}

/// An acquisition surface a hill climb can evaluate, with an optional
/// whole-step batched fast path.
///
/// The plain entry point is [`AcquisitionEval::eval`]; any
/// `Fn(&Partition, &mut EvalScratch) -> f64` closure implements the
/// trait through it. Evaluators that can exploit the climb's structure
/// (every candidate of a step differs from the step base by one unit
/// transfer, and steepest ascent needs only the step's argmax) override
/// [`AcquisitionEval::best_neighbor`].
pub trait AcquisitionEval {
    /// Exact acquisition value at `p`.
    fn eval(&self, p: &Partition, scratch: &mut EvalScratch) -> f64;

    /// Returns the neighbour of `current` (with `frozen_job` untouched)
    /// whose acquisition value is highest, together with that value — or
    /// `None` if no neighbour's value strictly exceeds `floor`.
    ///
    /// Ties must resolve to the *first* strictly-better neighbour in
    /// [`Partition::for_each_neighbor_transfer`] enumeration order, i.e.
    /// exactly what the default implementation (a running max seeded at
    /// `floor`) produces. Implementations may evaluate candidates lazily
    /// or in bulk as long as the returned pair is identical.
    fn best_neighbor(
        &self,
        current: &Partition,
        frozen_job: Option<usize>,
        floor: f64,
        scratch: &mut EvalScratch,
    ) -> Option<(Partition, f64)> {
        let mut best: Option<Partition> = None;
        let mut best_val = floor;
        current.for_each_neighbor(frozen_job, |n| {
            let v = self.eval(n, scratch);
            if v > best_val {
                best_val = v;
                best = Some(n.clone());
            }
        });
        best.map(|p| (p, best_val))
    }
}

impl<F> AcquisitionEval for F
where
    F: Fn(&Partition, &mut EvalScratch) -> f64,
{
    fn eval(&self, p: &Partition, scratch: &mut EvalScratch) -> f64 {
        self(p, scratch)
    }
}

/// Maximizes `acq` over the feasible partitions of `space`.
///
/// * `seeds` — warm-start points (e.g. the incumbent best); random restarts
///   are added on top.
/// * `frozen` — dropout-copy: `(job, row)` fixes that job's allocation to
///   `row` in every candidate; hill-climbing moves never touch it.
/// * `tabu` — partitions already sampled; they are skipped as *final*
///   answers (their acquisition is typically zero anyway, but observation
///   noise can make re-sampling look attractive).
///
/// Returns `Ok(Some(_))` with the best candidate found and its acquisition
/// value, or `Ok(None)` if every reachable candidate is tabu.
///
/// The randomness (restart points, seed jitter) is consumed from `rng`
/// up front by `draw_starts`; the climbs themselves draw nothing. The
/// starts are climbed one after another in draw order, and the first
/// strictly best candidate wins. The climbs are serial at every pool size:
/// striped over a 2-executor worker pool they made single co-location
/// runs slower (`results/pool/`).
///
/// # Errors
///
/// Returns [`BoError::Space`](crate::BoError::Space) if a random restart
/// point cannot be generated (an internal space inconsistency).
pub fn maximize_acquisition(
    space: &SearchSpace,
    config: OptimizerConfig,
    acq: impl AcquisitionEval,
    seeds: &[Partition],
    frozen: Option<(usize, JobAllocation)>,
    tabu: &HashSet<Partition>,
    rng: &mut StdRng,
) -> Result<Option<(Partition, f64)>, crate::BoError> {
    let frozen_job = frozen.as_ref().map(|(j, _)| *j);
    let starts = draw_starts(space, config, seeds, frozen, rng)?;

    // Each start's candidate is independent of every other start: climb to
    // a local optimum, then (only if it is tabu) fall back to its best
    // non-tabu neighbour so the engine always gets fresh information.
    let per_start = |start: &Partition, scratch: &mut EvalScratch| -> Option<(Partition, f64)> {
        let mut current = start.clone();
        let mut current_val = acq.eval(&current, scratch);
        for _ in 0..config.max_steps {
            let cached: Option<Option<(Partition, f64)>> = match scratch.step_cache.get(&current) {
                Some(StepOutcome::Best(p, v)) => {
                    Some(if *v > current_val { Some((p.clone(), *v)) } else { None })
                }
                Some(StepOutcome::NoneAtFloor(f)) if current_val >= *f => Some(None),
                _ => None,
            };
            let step = match cached {
                Some(step) => step,
                None => {
                    let step = acq.best_neighbor(&current, frozen_job, current_val, scratch);
                    let outcome = match &step {
                        Some((p, v)) => StepOutcome::Best(p.clone(), *v),
                        None => StepOutcome::NoneAtFloor(current_val),
                    };
                    scratch.step_cache.insert(current.clone(), outcome);
                    step
                }
            };
            match step {
                Some((n, v)) => {
                    current = n;
                    current_val = v;
                }
                None => break,
            }
        }

        if !tabu.contains(&current) {
            return Some((current, current_val));
        }
        // The tabu fallback is a once-per-climb corner case, so it takes
        // the exact (unbatched) path.
        let mut alt: Option<(Partition, f64)> = None;
        current.for_each_neighbor(frozen_job, |n| {
            if tabu.contains(n) {
                return;
            }
            let v = acq.eval(n, scratch);
            if alt.as_ref().is_none_or(|(_, av)| v > *av) {
                alt = Some((n.clone(), v));
            }
        });
        alt
    };

    // One scratch, and so one step cache, serves every start: starts that
    // converge on the same optimum replay its stored steps. Cache hits
    // replay stored outcomes, so sharing never changes a climb's result.
    let mut scratch = EvalScratch::default();
    let mut best: Option<(Partition, f64)> = None;
    for start in &starts {
        if let Some((partition, value)) = per_start(start, &mut scratch) {
            if best.as_ref().is_none_or(|(_, bv)| value > *bv) {
                best = Some((partition, value));
            }
        }
    }
    Ok(best)
}

/// Draws the start points of one [`maximize_acquisition`] call: `seeds`,
/// then `config.random_restarts` random partitions, then a jittered copy
/// of each start that wins a coin flip, with the frozen row applied to
/// every start (starts that cannot host it are dropped).
///
/// These are all the draws a maximization takes from `rng`, so calling
/// this alone advances `rng` exactly as the whole maximization would.
///
/// # Errors
///
/// Returns [`BoError::Space`](crate::BoError::Space) if a random restart
/// point cannot be generated.
pub(crate) fn draw_starts(
    space: &SearchSpace,
    config: OptimizerConfig,
    seeds: &[Partition],
    frozen: Option<(usize, JobAllocation)>,
    rng: &mut StdRng,
) -> Result<Vec<Partition>, crate::BoError> {
    let frozen_job = frozen.as_ref().map(|(j, _)| *j);
    let mut starts: Vec<Partition> = Vec::with_capacity(seeds.len() + config.random_restarts);
    starts.extend_from_slice(seeds);
    for _ in 0..config.random_restarts {
        starts.push(space.random(rng)?);
    }
    // Jitter half the seeds with a couple of random transfers so warm
    // starts don't all climb the same hill.
    let mut jittered: Vec<Partition> = Vec::new();
    for p in &starts {
        if rng.gen_bool(0.5) {
            jittered.push(jitter(p, frozen_job, rng));
        }
    }
    starts.extend(jittered);

    // Apply the frozen row up front; skip starts that cannot host it.
    Ok(starts
        .into_iter()
        .filter_map(|start| match &frozen {
            Some((job, row)) => start.with_frozen_row(*job, row).ok(),
            None => Some(start),
        })
        .collect())
}

/// Applies 1–3 random feasible unit transfers to diversify a start point.
/// Each transfer is sampled directly by index ([`Partition::nth_neighbor`])
/// instead of materializing the full neighbour list; the RNG draw sequence
/// (`1..=3`, then one index per move) matches the old materializing
/// implementation, so jittered starts are unchanged.
fn jitter(p: &Partition, frozen_job: Option<usize>, rng: &mut StdRng) -> Partition {
    let mut out = p.clone();
    let moves = rng.gen_range(1..=3);
    for _ in 0..moves {
        let count = out.neighbor_count(frozen_job);
        if count == 0 {
            break;
        }
        let index = rng.gen_range(0..count);
        out = out.nth_neighbor(frozen_job, index).expect("index < neighbor_count");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use clite_sim::resource::{ResourceCatalog, ResourceKind};
    use rand::SeedableRng;

    fn space(jobs: usize) -> SearchSpace {
        SearchSpace::new(ResourceCatalog::testbed(), jobs).unwrap()
    }

    #[test]
    fn finds_obvious_optimum() {
        // Acquisition = job 0's core fraction: optimum gives job 0 all
        // transferable cores.
        let s = space(2);
        let mut rng = StdRng::seed_from_u64(1);
        let (best, val) = maximize_acquisition(
            &s,
            OptimizerConfig::default(),
            |p: &Partition, _: &mut EvalScratch| p.fraction(0, ResourceKind::Cores),
            &[s.equal_share().unwrap()],
            None,
            &HashSet::new(),
            &mut rng,
        )
        .unwrap()
        .unwrap();
        assert_eq!(best.units(0, ResourceKind::Cores), 9);
        assert!((val - 0.9).abs() < 1e-12);
    }

    #[test]
    fn respects_frozen_row() {
        let s = space(3);
        let mut rng = StdRng::seed_from_u64(2);
        let frozen_row = *s.equal_share().unwrap().job(1);
        let (best, _) = maximize_acquisition(
            &s,
            OptimizerConfig::default(),
            |p: &Partition, _: &mut EvalScratch| p.fraction(0, ResourceKind::LlcWays),
            &[s.equal_share().unwrap()],
            Some((1, frozen_row)),
            &HashSet::new(),
            &mut rng,
        )
        .unwrap()
        .unwrap();
        assert_eq!(best.job(1), &frozen_row, "frozen job's row must be untouched");
        // Job 0 still maximized its ways subject to the freeze.
        assert!(
            best.units(0, ResourceKind::LlcWays)
                > s.equal_share().unwrap().units(0, ResourceKind::LlcWays)
        );
    }

    #[test]
    fn avoids_tabu_points() {
        let s = space(2);
        let mut rng = StdRng::seed_from_u64(3);
        // Make the global optimum tabu; the maximizer must return something
        // else.
        let optimum = s.max_for_job(0).unwrap();
        let mut tabu = HashSet::new();
        tabu.insert(optimum.clone());
        let found = maximize_acquisition(
            &s,
            OptimizerConfig::default(),
            |p: &Partition, _: &mut EvalScratch| p.features().iter().take(5).sum::<f64>(),
            &[s.equal_share().unwrap()],
            None,
            &tabu,
            &mut rng,
        );
        let (best, _) = found.unwrap().unwrap();
        assert_ne!(best, optimum);
    }

    #[test]
    fn multimodal_surface_benefits_from_restarts() {
        // Two distant optima; hill climbing from the single seed lands in
        // one, restarts make the search robust to the seed choice.
        let s = space(2);
        let mut rng = StdRng::seed_from_u64(4);
        let target_a = s.max_for_job(0).unwrap().features();
        let target_b = s.max_for_job(1).unwrap().features();
        let acq = |p: &Partition, scratch: &mut EvalScratch| {
            p.features_into(&mut scratch.features);
            let f = &scratch.features;
            let da: f64 = f.iter().zip(&target_a).map(|(x, t)| (x - t).abs()).sum();
            let db: f64 = f.iter().zip(&target_b).map(|(x, t)| (x - t).abs()).sum();
            (-da).exp() + 1.5 * (-db).exp()
        };
        let (best, _) = maximize_acquisition(
            &s,
            OptimizerConfig { random_restarts: 8, max_steps: 40 },
            acq,
            &[s.max_for_job(0).unwrap()],
            None,
            &HashSet::new(),
            &mut rng,
        )
        .unwrap()
        .unwrap();
        // The better optimum (job 1 maxed) should win despite the seed.
        assert_eq!(best, s.max_for_job(1).unwrap());
    }

    /// FNV-1a over the returned partition's units and the value's bits.
    fn digest((partition, value): &(Partition, f64)) -> u64 {
        let units = partition.rows().iter().flat_map(JobAllocation::all_units);
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for word in units.map(u64::from).chain([value.to_bits()]) {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// Digests of the two tests below, recorded before the climbs' pool
    /// fan-out was removed, from its serial (1-slot) path.
    const STARTS_DIGEST: u64 = 0xa40a_66be_fd3b_5c59;
    const TABU_DIGEST: u64 = 0xb284_d411_75ac_3e19;

    /// The result must be the one recorded whatever `CLITE_PAR_THREADS`
    /// says (CI runs this at pool sizes 1, 2 and 4).
    #[test]
    fn multi_start_climbs_match_the_pinned_result() {
        let s = space(3);
        let target = s.max_for_job(1).unwrap().features();
        let acq = |p: &Partition, scratch: &mut EvalScratch| {
            p.features_into(&mut scratch.features);
            let d: f64 = scratch.features.iter().zip(&target).map(|(x, t)| (x - t).abs()).sum();
            (-d).exp()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let found = maximize_acquisition(
            &s,
            OptimizerConfig { random_restarts: 6, max_steps: 30 },
            acq,
            &[s.equal_share().unwrap()],
            None,
            &HashSet::new(),
            &mut rng,
        )
        .unwrap()
        .unwrap();
        assert_eq!(digest(&found), STARTS_DIGEST, "{found:?}");
    }

    #[test]
    fn tabu_climb_endpoint_falls_back_to_the_pinned_result() {
        // Constant acquisition: every climb ends where it starts, and the
        // equal-share seed is tabu — forcing the alt-neighbour path on
        // every start.
        let s = space(2);
        let seed = s.equal_share().unwrap();
        let mut tabu = HashSet::new();
        tabu.insert(seed.clone());
        let mut rng = StdRng::seed_from_u64(12);
        let found = maximize_acquisition(
            &s,
            OptimizerConfig { random_restarts: 2, max_steps: 5 },
            |_: &Partition, _: &mut EvalScratch| 1.0,
            std::slice::from_ref(&seed),
            None,
            &tabu,
            &mut rng,
        )
        .unwrap()
        .unwrap();
        assert_ne!(found.0, seed, "tabu point must not be returned");
        assert_eq!(digest(&found), TABU_DIGEST, "{found:?}");
    }
}
