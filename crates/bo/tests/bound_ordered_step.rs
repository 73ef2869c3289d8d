//! Exactness of the bound-ordered climb step.
//!
//! `SurrogateAcq::best_neighbor` resolves the bound gate's survivors in
//! descending optimistic score and stops once no remaining bound can reach
//! the best exact score. The reference below is the straightforward
//! algorithm it replaces: gate every neighbour against the entry floor in
//! enumeration order, solve every survivor's variance in one batch, and
//! keep the first strictly-better score. Both must return the same
//! partition and the same `f64` bits on every surface: random ones, flat
//! ones where every EI is below 1e-12, and ones with exact ties.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use clite_bo::acquisition::Acquisition;
use clite_bo::engine::SurrogateAcq;
use clite_bo::optimizer::{AcquisitionEval, EvalScratch};
use clite_bo::space::SearchSpace;
use clite_gp::gp::{GaussianProcess, GpConfig};
use clite_gp::kernel::{Kernel, KernelFamily};
use clite_sim::alloc::Partition;
use clite_sim::resource::{ResourceCatalog, NUM_RESOURCES};

/// The acquisition surface of one test case.
struct Surface {
    gp: GaussianProcess,
    space: SearchSpace,
    acquisition: Acquisition,
    best_score: f64,
}

/// What the reference step found: the winner, and how many survivors
/// share the winning exact score.
struct ReferenceStep {
    best: Option<(Partition, f64)>,
    ties: usize,
}

/// One climb step the plain way: every survivor of the entry gate is
/// solved, in enumeration order, and the first strictly-better score wins.
fn reference_step(
    s: &Surface,
    current: &Partition,
    frozen_job: Option<usize>,
    floor: f64,
) -> ReferenceStep {
    let kernel = s.gp.kernel();
    let (mut base_scaled, mut base) = (Vec::new(), Vec::new());
    s.gp.scaled_sq_dists_into(&s.space.encode(current), &mut base_scaled, &mut base);

    let (mut kstar, mut means, mut idxs) = (Vec::new(), Vec::new(), Vec::new());
    let mut idx = 0;
    current.for_each_neighbor_transfer(frozen_job, |n, t| {
        let ri = t.resource.index();
        let (from, to) = (t.from * NUM_RESOURCES + ri, t.to * NUM_RESOURCES + ri);
        let changes = [
            (from, base_scaled[from], kernel.scaled_coord(from, n.fraction(t.from, t.resource))),
            (to, base_scaled[to], kernel.scaled_coord(to, n.fraction(t.to, t.resource))),
        ];
        let mut r2 = Vec::new();
        s.gp.append_shifted_sq_dists(&base, changes, &mut r2);
        let (mut row, mut gated) = (Vec::new(), Vec::new());
        s.gp.gate_rows(&r2, &mut row, &mut gated);
        let upper =
            s.acquisition.score_upper_bound(gated[0].mean, gated[0].std_upper, s.best_score);
        if upper > floor {
            kstar.extend_from_slice(&row);
            means.push(gated[0].mean);
            idxs.push(idx);
        }
        idx += 1;
    });

    let (mut v, mut stds) = (Vec::new(), Vec::new());
    s.gp.batch_stds(&kstar, &mut v, &mut stds);
    let scores: Vec<f64> =
        means.iter().zip(&stds).map(|(&m, &sd)| s.acquisition.score(m, sd, s.best_score)).collect();
    let mut best: Option<usize> = None;
    let mut best_val = floor;
    for (i, &v) in scores.iter().enumerate() {
        if v > best_val {
            best_val = v;
            best = Some(i);
        }
    }
    ReferenceStep {
        best: best.map(|i| (current.nth_neighbor(frozen_job, idxs[i]).unwrap(), best_val)),
        ties: scores.iter().filter(|&&v| best.is_some() && v == best_val).count(),
    }
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Random targets under a moderate kernel.
    Random,
    /// Constant targets under a tiny signal variance: the posterior mean
    /// is the constant exactly and every EI is below 1e-12.
    Flat,
    /// A lengthscale so short that every covariance with a training point
    /// underflows to zero: all unsampled neighbours tie exactly.
    Ties,
    /// EI deep in its tail (z ≲ −6), where the computed score is not
    /// monotone in σ and a bound can read below its exact score.
    Tail,
}

fn surface(jobs: usize, n: usize, shape: Shape, acq: usize, family: usize, seed: u64) -> Surface {
    let space = SearchSpace::new(ResourceCatalog::testbed(), jobs).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> =
        (0..n).map(|_| space.encode(&space.random(&mut rng).unwrap())).collect();
    let ys: Vec<f64> = match shape {
        Shape::Flat => vec![0.5; n],
        Shape::Random | Shape::Ties | Shape::Tail => {
            (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
        }
    };
    let family =
        [KernelFamily::Matern52, KernelFamily::Matern32, KernelFamily::SquaredExponential][family];
    let (variance, lengthscale) = match shape {
        Shape::Random => (rng.gen_range(0.01..1.0), rng.gen_range(0.05..1.0)),
        Shape::Flat => (1e-24, rng.gen_range(0.05..1.0)),
        Shape::Ties => (rng.gen_range(0.01..1.0), 1e-4),
        Shape::Tail => (rng.gen_range(0.001..0.01), rng.gen_range(0.05..1.0)),
    };
    let acquisition = match (shape, acq) {
        // ζ = 0 keeps flat EI positive (σ·φ(0)) instead of exactly zero.
        (Shape::Flat, _) | (_, 0) => Acquisition::ExpectedImprovement { zeta: 0.0 },
        (Shape::Tail, _) => Acquisition::ExpectedImprovement { zeta: 0.6 },
        (_, 1) => Acquisition::paper_default(),
        (_, 2) => Acquisition::ProbabilityOfImprovement { zeta: 0.01 },
        _ => Acquisition::UpperConfidenceBound { beta: 2.0 },
    };
    let best_score = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let gp = GaussianProcess::fit(
        Kernel::new(family, variance, lengthscale),
        GpConfig::default(),
        xs,
        ys,
    )
    .unwrap();
    Surface { gp, space, acquisition, best_score }
}

/// Climbs from a random start with both steps side by side, feeding each
/// step's value forward as the next floor the way the optimizer does, and
/// asserts they agree at every step. `floor_mode` 1 and 2 replace the
/// entry floor with 0 and −∞ on the first step.
fn climb_and_compare(s: &Surface, frozen_job: Option<usize>, floor_mode: usize, seed: u64) {
    let acq = SurrogateAcq::new(&s.gp, s.space, s.acquisition, s.best_score);
    let mut scratch = EvalScratch::default();
    let mut current = s.space.random(&mut StdRng::seed_from_u64(seed ^ 0x5eed)).unwrap();
    let mut floor = match floor_mode {
        0 => acq.eval(&current, &mut scratch),
        1 => 0.0,
        _ => f64::NEG_INFINITY,
    };
    for step in 0..12 {
        let got = acq.best_neighbor(&current, frozen_job, floor, &mut scratch);
        let want = reference_step(s, &current, frozen_job, floor).best;
        assert_eq!(
            got.as_ref().map(|(p, v)| (p, v.to_bits())),
            want.as_ref().map(|(p, v)| (p, v.to_bits())),
            "step {step} from floor {floor}: {:?} vs {:?}",
            got.as_ref().map(|g| g.1),
            want.as_ref().map(|w| w.1),
        );
        match got {
            Some((p, v)) => {
                current = p;
                floor = v;
            }
            None => return,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn bound_ordered_step_matches_solve_everything(
        jobs in 2usize..=5,
        n in 5usize..=60,
        frozen in any::<bool>(),
        shape in 0usize..4,
        acq in 0usize..4,
        family in 0usize..3,
        floor_mode in 0usize..3,
        seed in any::<u64>(),
    ) {
        let shape = [Shape::Random, Shape::Flat, Shape::Ties, Shape::Tail][shape];
        let s = surface(jobs, n, shape, acq, family, seed);
        let frozen_job = frozen.then_some(seed as usize % jobs);
        climb_and_compare(&s, frozen_job, floor_mode, seed);
    }
}

#[test]
fn flat_surfaces_compare_below_1e_12() {
    for seed in 0..8 {
        let s = surface(4, 30, Shape::Flat, 0, 0, seed);
        let acq = SurrogateAcq::new(&s.gp, s.space, s.acquisition, s.best_score);
        let start = s.space.random(&mut StdRng::seed_from_u64(seed)).unwrap();
        let mut scratch = EvalScratch::default();
        let mut max_ei = 0.0_f64;
        start.for_each_neighbor(None, |n| max_ei = max_ei.max(acq.eval(n, &mut scratch)));
        assert!(max_ei > 0.0 && max_ei < 1e-12, "flat EI {max_ei}");
        climb_and_compare(&s, None, 1, seed);
    }
}

#[test]
fn exact_ties_resolve_to_the_lowest_index() {
    for seed in 0..8 {
        let s = surface(3, 20, Shape::Ties, 0, 0, seed);
        let start = s.space.random(&mut StdRng::seed_from_u64(seed)).unwrap();
        let reference = reference_step(&s, &start, None, 0.0);
        assert!(reference.ties > 1, "seed {seed}: no tie to break");
        let acq = SurrogateAcq::new(&s.gp, s.space, s.acquisition, s.best_score);
        let got = acq.best_neighbor(&start, None, 0.0, &mut EvalScratch::default());
        assert_eq!(
            got.map(|(p, v)| (p, v.to_bits())),
            reference.best.map(|(p, v)| (p, v.to_bits()))
        );
    }
}

#[test]
fn tail_surfaces_resolve_bounds_that_read_low() {
    // Deep in EI's tail a bound can read a few ulps below its exact score;
    // from a −∞ floor those neighbours survive the gate, and only the stop
    // rule's tolerance keeps them from being skipped.
    for seed in 0..200 {
        for jobs in [2, 3, 5] {
            let s = surface(jobs, 5 + seed as usize % 50, Shape::Tail, 0, seed as usize % 3, seed);
            climb_and_compare(&s, None, 2, seed);
        }
    }
}
