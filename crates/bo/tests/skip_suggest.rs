//! `BoEngine::skip_suggest` is exact: on generated histories, skipping a
//! suggestion and then suggesting returns bit for bit what suggesting
//! twice returns, and a refused skip leaves the engine untouched.

use std::sync::LazyLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use clite_bo::engine::{BoConfig, BoEngine, Suggestion};
use clite_bo::space::SearchSpace;
use clite_bo::BoError;
use clite_sim::alloc::{JobAllocation, Partition};
use clite_sim::resource::ResourceCatalog;
use clite_telemetry::Telemetry;

static OFF: LazyLock<Telemetry<'static>> = LazyLock::new(Telemetry::disabled);

/// A suggestion as bits: partition, then EI, posterior mean and std.
type Bits = Result<(Partition, [u64; 3]), String>;

fn bits(result: Result<Suggestion, BoError>) -> Bits {
    result
        .map(|s| {
            let values = [s.expected_improvement, s.posterior_mean, s.posterior_std];
            (s.partition, values.map(f64::to_bits))
        })
        .map_err(|e| format!("{e:?}"))
}

/// A smooth synthetic score with a per-history twist.
fn score(p: &Partition, twist: f64) -> f64 {
    p.features().iter().enumerate().map(|(i, x)| (x * (1.0 + twist * i as f64)).sin()).sum::<f64>()
        / p.features().len() as f64
}

/// Engine with `records` random partitions recorded after the bootstrap.
fn history(jobs: usize, seed: u64, records: usize, twist: f64) -> BoEngine {
    let space = SearchSpace::new(ResourceCatalog::testbed(), jobs).unwrap();
    let mut engine = BoEngine::new(space, BoConfig::default(), seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
    let mut points = engine.bootstrap_samples().unwrap();
    points.extend((0..records).map(|_| space.random(&mut rng).unwrap()));
    for p in points {
        let y = score(&p, twist);
        engine.record(p, y, &OFF);
    }
    engine
}

/// Job `job` frozen at its row in recorded sample `sample % len`, or no
/// frozen row when `job` is out of range.
fn frozen(engine: &BoEngine, (job, sample): (usize, usize)) -> Option<(usize, JobAllocation)> {
    let history = engine.history();
    let p = &history[sample % history.len()].0;
    (job < p.job_count()).then(|| (job, *p.job(job)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn skip_then_suggest_matches_suggest_then_suggest(
        jobs in 2usize..=5,
        seed in any::<u64>(),
        records in 0usize..8,
        twist in 0.0f64..2.0,
        first in (0usize..8, 0usize..16),
        second in (0usize..8, 0usize..16),
    ) {
        let base = history(jobs, seed, records, twist);
        let (first, second) = (frozen(&base, first), frozen(&base, second));

        let mut climbed = base.clone();
        let discarded = climbed.suggest(first, &OFF);
        let after_climb = bits(climbed.suggest(second, &OFF));

        let mut skipped = base.clone();
        if skipped.skip_suggest(first).unwrap() {
            prop_assert!(discarded.is_ok(), "skipped a suggestion that did not exist");
            prop_assert_eq!(bits(skipped.suggest(second, &OFF)), after_climb);
        } else {
            prop_assert_eq!(
                bits(skipped.suggest(second, &OFF)),
                bits(base.clone().suggest(second, &OFF)),
                "a refused skip must leave the engine untouched"
            );
        }
    }
}
