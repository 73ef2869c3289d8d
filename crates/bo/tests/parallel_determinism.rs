//! End-to-end determinism across pool sizes: a BO run must produce the
//! same `Suggestion` sequence whatever `CLITE_PAR_THREADS` says. The
//! search takes no slot count of its own, so this suite pins each run's
//! digest, and CI re-runs it under `CLITE_PAR_THREADS=1`, `=2` and `=4`.
//! The digests were recorded before the hyper-grid scan's and the
//! climbs' pool fan-outs were removed, from their serial (1-slot) paths.

use clite_bo::engine::{BoConfig, BoEngine, Suggestion};
use clite_bo::space::SearchSpace;
use clite_sim::alloc::Partition;
use clite_sim::resource::{ResourceCatalog, ResourceKind};
use clite_telemetry::Telemetry;

/// Deterministic synthetic objective rewarding an uneven split, so the
/// search has real structure to climb.
fn objective(p: &Partition) -> f64 {
    let jobs = p.job_count();
    let mut v = 0.55 * p.fraction(0, ResourceKind::Cores)
        + 0.30 * p.fraction(jobs - 1, ResourceKind::LlcWays);
    for j in 0..jobs {
        v += 0.05 * p.fraction(j, ResourceKind::MemBandwidth) / jobs as f64;
    }
    v
}

/// Runs bootstrap + `rounds` suggest/record iterations and returns the
/// suggestion trace.
fn run(jobs: usize, seed: u64, rounds: usize) -> Vec<Suggestion> {
    let space = SearchSpace::new(ResourceCatalog::testbed(), jobs).unwrap();
    let mut engine = BoEngine::new(space, BoConfig::default(), seed);
    let telemetry = Telemetry::disabled();
    for p in engine.bootstrap_samples().unwrap() {
        let y = objective(&p);
        engine.record(p, y, &telemetry);
    }
    let mut trace = Vec::with_capacity(rounds);
    for round in 0..rounds {
        // Exercise the frozen-row (dropout-copy) path on some rounds too.
        // (Needs >= 3 jobs: with 2, freezing a row empties the
        // unit-transfer neighborhood.)
        let frozen = if jobs >= 3 && round % 4 == 3 {
            Some((jobs - 1, *engine.space().equal_share().unwrap().job(jobs - 1)))
        } else {
            None
        };
        let s = engine.suggest(frozen, &telemetry).unwrap();
        let y = objective(&s.partition);
        engine.record(s.partition.clone(), y, &telemetry);
        trace.push(s);
    }
    trace
}

/// FNV-1a over every suggestion's partition units and the bits of its
/// expected improvement, posterior mean and posterior standard deviation.
fn digest(trace: &[Suggestion]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut word = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for s in trace {
        for row in s.partition.rows() {
            for units in row.all_units() {
                word(u64::from(units));
            }
        }
        word(s.expected_improvement.to_bits());
        word(s.posterior_mean.to_bits());
        word(s.posterior_std.to_bits());
    }
    hash
}

/// `(jobs, seed, rounds, digest)`. The
/// 13-round runs with `hyper_refresh_every = 5` cross two hyper
/// refreshes, so each trace exercises all three surrogate paths (cached
/// rank-1-extended, cached-kernel refit, grid refresh) plus the climbs,
/// on a small and a paper-sized job mix.
const PINNED: [(usize, u64, usize, u64); 3] = [
    (2, 17, 13, 0x6660_f751_0867_4d7b),
    (3, 17, 13, 0xc607_ac0f_2a66_39e2),
    (2, 99, 6, 0xd472_eb1d_9fbe_b327),
];

#[test]
fn runs_match_the_pinned_traces_at_any_pool_size() {
    for (jobs, seed, rounds, want) in PINNED {
        let trace = run(jobs, seed, rounds);
        assert_eq!(trace.len(), rounds);
        let got = digest(&trace);
        assert_eq!(got, want, "jobs={jobs} seed={seed}: digest {got:#018x}");
    }
}
