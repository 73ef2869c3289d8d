//! Multi-core scaling benches for the shared worker-pool substrate:
//! end-to-end `suggest()` and the hyper-grid `fit_best` scan at 1/2/4/8
//! pool slots on the 2-job and 5-job mixes. All slot counts produce
//! byte-identical results (see `crates/bo/tests/parallel_determinism.rs`);
//! these benches measure only where the wall-clock goes. Run them with
//! `CLITE_PAR_THREADS` set to the pool size under test.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use clite_bo::engine::{BoConfig, BoEngine};
use clite_bo::space::SearchSpace;
use clite_gp::gp::GpConfig;
use clite_gp::hyper::{fit_best_threaded, HyperGrid};
use clite_gp::kernel::Kernel;
use clite_sim::alloc::Partition;
use clite_sim::prelude::*;
use clite_sim::resource::ResourceKind;
use clite_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic synthetic objective (same family the engine tests climb).
fn objective(p: &Partition) -> f64 {
    let jobs = p.job_count();
    0.6 * p.fraction(0, ResourceKind::Cores) + 0.4 * p.fraction(jobs - 1, ResourceKind::LlcWays)
}

/// An engine holding `n` observations, configured to refresh its hyper
/// grid on *every* suggest: the refresh round carries the largest
/// fan-outs (15 grid fits + the multi-start climbs), so it is the round
/// the substrate parallelizes and the one worth scaling.
fn prepared_engine(jobs: usize, n: usize, threads: usize) -> BoEngine {
    let space = SearchSpace::new(ResourceCatalog::testbed(), jobs).unwrap();
    let config = BoConfig { hyper_refresh_every: 1, ..BoConfig::default() }.with_threads(threads);
    let mut engine = BoEngine::new(space, config, 11);
    let telemetry = Telemetry::disabled();
    for p in engine.bootstrap_samples().unwrap() {
        let y = objective(&p);
        engine.record(p, y, &telemetry);
    }
    while engine.len() < n {
        let s = engine.suggest(None, &telemetry).unwrap();
        let y = objective(&s.partition);
        engine.record(s.partition, y, &telemetry);
    }
    engine
}

/// Random training data shaped like a `jobs`-mix encoding.
fn training_data(n: usize, jobs: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let space = SearchSpace::new(ResourceCatalog::testbed(), jobs).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let xs: Vec<Vec<f64>> =
        (0..n).map(|_| space.encode(&space.random(&mut rng).unwrap())).collect();
    let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>() / x.len() as f64).collect();
    (xs, ys)
}

fn bench_suggest_threads(c: &mut Criterion) {
    let telemetry = Telemetry::disabled();
    for &jobs in &[2usize, 5] {
        for &threads in &[1usize, 2, 4, 8] {
            let engine = prepared_engine(jobs, 60, threads);
            c.bench_function(&format!("suggest_{jobs}jobs_n60_t{threads}"), |b| {
                b.iter_batched(
                    || engine.clone(),
                    |mut e| e.suggest(None, &telemetry).unwrap(),
                    BatchSize::SmallInput,
                )
            });
        }
    }
}

fn bench_fit_best_threads(c: &mut Criterion) {
    let grid = HyperGrid::default_unit();
    let template = Kernel::matern52(1.0, 1.0);
    for &jobs in &[2usize, 5] {
        let (xs, ys) = training_data(60, jobs);
        for &threads in &[1usize, 2, 4, 8] {
            c.bench_function(&format!("fit_best_{jobs}jobs_n60_t{threads}"), |b| {
                b.iter(|| {
                    fit_best_threaded(&template, GpConfig::default(), &grid, &xs, &ys, threads)
                        .unwrap()
                })
            });
        }
    }
}

criterion_group!(benches, bench_suggest_threads, bench_fit_best_threads);
criterion_main!(benches);
