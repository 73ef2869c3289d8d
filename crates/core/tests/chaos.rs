//! Chaos integration tests: the controller and the adaptive runner under
//! injected faults.
//!
//! Three contracts are pinned here:
//!
//! 1. `FaultSpec::none()` is free: a run through a fault-free
//!    [`FaultyTestbed`] is bit-for-bit identical to a run against the bare
//!    server.
//! 2. Under the default chaos spec every run either completes or degrades
//!    to its safe fallback — never panics — and quarantined windows are
//!    counted but never stored.
//! 3. Under transient-only faults (no crash) the adaptive loop still
//!    reaches QoS on every steady segment while spending a bounded number
//!    of extra search windows over the fault-free run.

use clite::adaptive::{run_adaptive, AdaptiveConfig, AdaptiveTrace, Phase};
use clite::config::CliteConfig;
use clite::controller::CliteController;
use clite::{CliteError, ShardPolicy, ShardedStore};
use clite_faults::{FaultSpec, FaultyTestbed};
use clite_sim::prelude::*;
use clite_telemetry::{MemoryRecorder, Telemetry};

fn mix() -> Vec<JobSpec> {
    vec![
        JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
        JobSpec::latency_critical(WorkloadId::ImgDnn, 0.2),
        JobSpec::background(WorkloadId::Streamcluster),
    ]
}

fn server(seed: u64) -> Server {
    Server::new(ResourceCatalog::testbed(), mix(), seed).unwrap()
}

/// Acceptance criterion: with `FaultSpec::none()` every existing path is
/// bit-for-bit unchanged. The decorator must not perturb the inner
/// testbed's RNG, clock, or window accounting.
#[test]
fn rate_zero_controller_run_is_bit_identical_to_bare_run() {
    let controller = CliteController::default();

    let mut bare = server(7);
    let expected = controller.run(&mut bare).unwrap();

    let mut faulty = FaultyTestbed::new(server(7), FaultSpec::none(), 0xDEAD_BEEF);
    let got = controller.run(&mut faulty).unwrap();

    assert_eq!(got.best_partition, expected.best_partition);
    assert_eq!(got.best_score.to_bits(), expected.best_score.to_bits());
    assert_eq!(got.samples, expected.samples);
    assert_eq!(got.converged, expected.converged);
    assert_eq!(got.infeasible_jobs, expected.infeasible_jobs);
    assert_eq!(got.samples_to_qos, expected.samples_to_qos);
    assert_eq!(got.quarantined, 0);
    assert_eq!(faulty.stats().total(), 0, "no faults may fire at rate zero");
}

/// Under the default chaos spec (spikes, drops, stuck windows, enforcement
/// glitches, possible node crash) every seed must either complete the
/// search or abort with the typed `Degraded` error — and when it
/// completes, quarantined windows are counted in `samples_used()` but
/// never appended to the observation store.
#[test]
fn default_chaos_completes_or_degrades_without_panic() {
    let controller = CliteController::new(CliteConfig::default().hardened());
    let mut completed = 0usize;
    let mut degraded = 0usize;

    for seed in 0..8u64 {
        let recorder = MemoryRecorder::new();
        let telemetry = Telemetry::new(&recorder);
        let store = ShardedStore::in_memory(ShardPolicy::with_shards(1));
        let mut faulty = FaultyTestbed::new(server(seed), FaultSpec::default_chaos(), seed);

        match controller.run_with_store(&mut faulty, &store, &telemetry) {
            Ok(outcome) => {
                completed += 1;
                assert_eq!(
                    outcome.samples_used(),
                    outcome.samples.len() + outcome.quarantined,
                    "quarantined windows count toward overhead"
                );
                assert_eq!(
                    recorder.count_kind("sample_quarantined"),
                    outcome.quarantined,
                    "every quarantine must be reported"
                );
                assert_eq!(
                    store.stats().appends as usize,
                    outcome.samples.len(),
                    "quarantined windows must never reach the store"
                );
            }
            Err(CliteError::Degraded { .. }) => {
                degraded += 1;
                assert!(
                    recorder.count_kind("fallback_engaged") >= 1,
                    "a degraded run must have engaged the safe fallback"
                );
            }
            Err(e) => panic!("seed {seed}: chaos run must degrade gracefully, got {e}"),
        }
        if faulty.stats().total() > 0 {
            assert!(
                recorder.count_kind("fault_injected") > 0,
                "seed {seed}: surfaced faults must be reported"
            );
        }
    }
    assert_eq!(completed + degraded, 8);
    assert!(completed >= 1, "some seed must survive the default chaos spec");
}

fn search_windows(trace: &AdaptiveTrace) -> usize {
    trace.points.iter().filter(|p| p.phase == Phase::Search).count()
}

/// Maximal runs of consecutive steady windows.
fn steady_segments(trace: &AdaptiveTrace) -> Vec<Vec<bool>> {
    let mut segments: Vec<Vec<bool>> = Vec::new();
    let mut in_steady = false;
    for p in &trace.points {
        match (p.phase, in_steady) {
            (Phase::Steady, false) => {
                segments.push(vec![p.observation.all_qos_met()]);
                in_steady = true;
            }
            (Phase::Steady, true) => {
                segments.last_mut().unwrap().push(p.observation.all_qos_met());
            }
            (Phase::Search, _) => in_steady = false,
        }
    }
    segments
}

/// Satellite 4: at a nonzero (transient-only) fault rate the adaptive
/// trace still reaches QoS on every steady segment and spends a bounded
/// number of extra search windows over the fault-free run.
#[test]
fn adaptive_survives_transient_faults_with_bounded_extra_windows() {
    let controller = CliteController::new(CliteConfig::default().hardened());
    let duration = 400.0;

    let mut clean = server(10);
    let clean_trace =
        run_adaptive(&controller, &mut clean, duration, AdaptiveConfig::default()).unwrap();
    assert!(clean_trace.degraded.is_none());

    // The default chaos spec minus the node crash: spikes, drops, stuck
    // windows and enforcement glitches keep firing, but the node survives,
    // so the run must too.
    let spec = FaultSpec { crash_prob: 0.0, crash_at_window: None, ..FaultSpec::default_chaos() };
    let mut faulty = FaultyTestbed::new(server(10), spec, 0xFA57);
    let trace =
        run_adaptive(&controller, &mut faulty, duration, AdaptiveConfig::default()).unwrap();

    assert!(trace.degraded.is_none(), "transient-only faults must not degrade the run");
    assert!(faulty.stats().total() > 0, "the spec must actually inject faults");

    // Every invocation's partition still reaches QoS: each settled steady
    // segment (3+ windows — shorter ones are spike-truncated re-invocation
    // stubs) contains at least one fully QoS-met window.
    let segments = steady_segments(&trace);
    assert!(!segments.is_empty());
    for (i, seg) in segments.iter().enumerate() {
        if seg.len() >= 3 {
            assert!(
                seg.iter().any(|&met| met),
                "steady segment {i} ({} windows) never reached QoS",
                seg.len()
            );
        }
    }

    // Bounded overhead: faults cost retries and re-invocations, but not an
    // unbounded amount of search.
    let clean_search = search_windows(&clean_trace);
    let faulty_search = search_windows(&trace);
    assert!(
        faulty_search <= clean_search * 3 + 30,
        "faulty run spent {faulty_search} search windows vs {clean_search} fault-free"
    );

    // And the steady fraction stays comparable to fault-free (spiked
    // windows read as violations, so some loss is expected).
    assert!(
        trace.steady_qos_fraction() >= 0.8 * clean_trace.steady_qos_fraction(),
        "steady QoS fraction {} vs fault-free {}",
        trace.steady_qos_fraction(),
        clean_trace.steady_qos_fraction()
    );
}

/// A deterministic crash mid-monitoring ends the adaptive run with a
/// `degraded` marker rather than an error or a panic, and keeps the trace
/// collected up to the crash.
#[test]
fn adaptive_node_crash_degrades_with_partial_trace() {
    let controller = CliteController::new(CliteConfig::default().hardened());
    // Window 200 lands well past the first search (≈40–60 windows), deep
    // into steady-state monitoring.
    let spec = FaultSpec { crash_at_window: Some(200), ..FaultSpec::none() };
    let mut faulty = FaultyTestbed::new(server(11), spec, 1);
    let trace = run_adaptive(&controller, &mut faulty, 600.0, AdaptiveConfig::default()).unwrap();
    assert!(faulty.crashed());
    let reason = trace.degraded.as_deref().expect("crash must mark the trace degraded");
    assert!(reason.contains("crash"), "degraded reason should name the crash: {reason}");
    assert!(!trace.points.is_empty(), "pre-crash windows must be kept");
}
