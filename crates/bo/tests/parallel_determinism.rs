//! End-to-end determinism of the parallel fast paths: a BO run with both
//! the threaded hyper-grid scan and the threaded multi-start climbs must
//! produce the byte-identical `Suggestion` sequence as a serial run, for
//! any thread count. This is the contract that lets deployments turn on
//! `BoConfig::with_threads` without re-validating search behaviour.

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
fn run(jobs: usize, seed: u64, config: BoConfig, rounds: usize) -> Vec<Suggestion> {
    let space = SearchSpace::new(ResourceCatalog::testbed(), jobs).unwrap();
    let mut engine = BoEngine::new(space, config, seed);
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

fn assert_traces_identical(serial: &[Suggestion], parallel: &[Suggestion], label: &str) {
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(parallel).enumerate() {
        assert_eq!(a.partition, b.partition, "{label}: partition diverged at round {i}");
        assert_eq!(
            a.expected_improvement.to_bits(),
            b.expected_improvement.to_bits(),
            "{label}: EI diverged at round {i}: {} vs {}",
            a.expected_improvement,
            b.expected_improvement
        );
        assert_eq!(
            a.posterior_mean.to_bits(),
            b.posterior_mean.to_bits(),
            "{label}: posterior mean diverged at round {i}"
        );
        assert_eq!(
            a.posterior_std.to_bits(),
            b.posterior_std.to_bits(),
            "{label}: posterior std diverged at round {i}"
        );
    }
}

/// Full-run byte-identity across thread counts, covering both a small and
/// a paper-sized job mix. The 13 rounds with `hyper_refresh_every = 5`
/// cross two hyper refreshes, so the trace exercises all three surrogate
/// paths (cached rank-1-extended, cached-kernel refit, threaded grid
/// refresh) plus the threaded acquisition climbs.
///
/// Slot counts 1/2/4/8 are the worker counts the CI byte-identity gate
/// pins (it re-runs this suite under `CLITE_PAR_THREADS=1` and `=4`, so
/// the slots × pool-size cross product covers under- and over-committed
/// pools); 16 over-commits any grid/start set.
#[test]
fn threaded_run_is_byte_identical_to_serial() {
    for &jobs in &[2usize, 3] {
        let serial = run(jobs, 17, BoConfig::default(), 13);
        for &threads in &[1usize, 2, 4, 8, 16] {
            let par = run(jobs, 17, BoConfig::default().with_threads(threads), 13);
            assert_traces_identical(&serial, &par, &format!("jobs={jobs} threads={threads}"));
        }
    }
}

/// Degenerate worker counts (0 is clamped to 1; more workers than grid
/// points or starts) must not change anything either.
#[test]
fn degenerate_thread_counts_match_serial() {
    let serial = run(2, 99, BoConfig::default(), 6);
    for &threads in &[0usize, 1, 64] {
        let par = run(2, 99, BoConfig::default().with_threads(threads), 6);
        assert_traces_identical(&serial, &par, &format!("threads={threads}"));
    }
}
