//! Steady-state monitoring and re-invocation on load change (paper
//! Fig. 16).
//!
//! After a search converges, CLITE enforces the best partition and
//! "performance for all jobs is periodically monitored. If the observed
//! performance or the job mix changes, CLITE can be reinvoked to determine
//! new optimal resource partition". [`run_adaptive`] implements that loop
//! against a server whose LC loads follow time-varying
//! [`LoadSchedule`](clite_sim::load::LoadSchedule)s: monitor each window,
//! and when QoS breaks for `violation_patience` consecutive windows,
//! re-run the full search.

use serde::Serialize;

use clite_sim::alloc::Partition;
use clite_sim::metrics::Observation;
use clite_sim::testbed::Testbed;
use clite_store::ShardedStore;
use clite_telemetry::{Event, Telemetry};

use crate::controller::{fault_kind, CliteController};
use crate::score::{score_observation, ScoreBreakdown};
use crate::CliteError;

/// Which phase of the adaptive loop a trace point belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Phase {
    /// A window evaluated during a search (bootstrap or BO sample).
    Search,
    /// A steady-state monitoring window under the current best partition.
    Steady,
}

/// One observation window in an adaptive run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdaptivePoint {
    /// Simulated time at the end of the window (seconds).
    pub time_s: f64,
    /// Search or steady-state.
    pub phase: Phase,
    /// Partition enforced for this window.
    pub partition: Partition,
    /// The measurements.
    pub observation: Observation,
    /// Eq. 3 score of the window.
    pub score: ScoreBreakdown,
}

/// Configuration of the adaptive loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AdaptiveConfig {
    /// Consecutive QoS-violating steady windows that trigger re-invocation.
    pub violation_patience: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self { violation_patience: 2 }
    }
}

/// Full trace of an adaptive run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdaptiveTrace {
    /// Every window, in time order.
    pub points: Vec<AdaptivePoint>,
    /// Number of times the search was (re-)invoked, including the first.
    pub invocations: usize,
    /// `Some(reason)` when the run ended early because the node degraded —
    /// a search gave up to its safe fallback, or steady-state monitoring
    /// hit an unrecoverable fault (node crash, or transient faults past
    /// the retry budget). The trace up to that point is still valid; the
    /// fault itself is in the string. `None` for a clean run.
    pub degraded: Option<String>,
}

impl AdaptiveTrace {
    /// Fraction of steady-state windows meeting all QoS targets.
    #[must_use]
    pub fn steady_qos_fraction(&self) -> f64 {
        let steady: Vec<_> = self.points.iter().filter(|p| p.phase == Phase::Steady).collect();
        if steady.is_empty() {
            return 0.0;
        }
        steady.iter().filter(|p| p.observation.all_qos_met()).count() as f64 / steady.len() as f64
    }
}

/// Runs CLITE adaptively on `server` (any [`Testbed`] backend) until
/// simulated time reaches `duration_s`: search → enforce best → monitor →
/// re-invoke on sustained violation.
///
/// # Errors
///
/// Propagates controller errors ([`CliteError`]).
pub fn run_adaptive<T: Testbed>(
    controller: &CliteController,
    server: &mut T,
    duration_s: f64,
    config: AdaptiveConfig,
) -> Result<AdaptiveTrace, CliteError> {
    run_adaptive_inner(controller, server, duration_s, config, None, &Telemetry::disabled())
}

/// [`run_adaptive`] against a persistent observation store: every search
/// invocation looks up warm samples for the current mix signature first
/// and appends its own windows afterwards, so re-invocations on a
/// previously seen load point (this run *or* an earlier process) skip the
/// cold bootstrap.
///
/// # Errors
///
/// Propagates controller errors, including [`CliteError::Store`] if the
/// store's log cannot be written.
pub fn run_adaptive_with_store<T: Testbed>(
    controller: &CliteController,
    server: &mut T,
    duration_s: f64,
    config: AdaptiveConfig,
    store: &ShardedStore,
    telemetry: &Telemetry<'_>,
) -> Result<AdaptiveTrace, CliteError> {
    run_adaptive_inner(controller, server, duration_s, config, Some(store), telemetry)
}

fn run_adaptive_inner<T: Testbed>(
    controller: &CliteController,
    server: &mut T,
    duration_s: f64,
    config: AdaptiveConfig,
    store: Option<&ShardedStore>,
    telemetry: &Telemetry<'_>,
) -> Result<AdaptiveTrace, CliteError> {
    let mut points: Vec<AdaptivePoint> = Vec::new();
    let mut invocations = 0usize;
    let mut degraded: Option<String> = None;
    let max_steady_faults = controller.config().recovery.max_retries;

    'outer: while server.time_s() < duration_s {
        // ── Search phase ─────────────────────────────────────────────────
        invocations += 1;
        let outcome = match store {
            Some(store) => controller.run_with_store(server, store, telemetry),
            None => controller.run_with(server, telemetry),
        };
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e @ CliteError::Degraded { .. }) => {
                // The search gave up and already re-enforced its safe
                // fallback; keep the trace collected so far rather than
                // discarding the whole run.
                degraded = Some(e.to_string());
                break 'outer;
            }
            Err(e) => return Err(e),
        };
        for rec in &outcome.samples {
            points.push(AdaptivePoint {
                time_s: rec.observation.time_s,
                phase: Phase::Search,
                partition: rec.partition.clone(),
                observation: rec.observation.clone(),
                score: rec.score.clone(),
            });
        }
        let best = outcome.best_partition.clone();

        // ── Steady-state monitoring ──────────────────────────────────────
        let mut consecutive_violations = 0usize;
        let mut consecutive_faults = 0usize;
        while server.time_s() < duration_s {
            let observation = match server.try_observe(&best) {
                Ok(observation) => {
                    consecutive_faults = 0;
                    observation
                }
                Err(fault) if fault.is_transient_fault() => {
                    telemetry.emit(Event::FaultInjected {
                        sample: points.len(),
                        fault: fault_kind(&fault).to_owned(),
                    });
                    consecutive_faults += 1;
                    if consecutive_faults > max_steady_faults {
                        degraded = Some(fault.to_string());
                        break 'outer;
                    }
                    // The faulted window already advanced the clock; just
                    // monitor the next one.
                    continue;
                }
                Err(fault) if fault.is_node_crash() => {
                    telemetry.emit(Event::FaultInjected {
                        sample: points.len(),
                        fault: fault_kind(&fault).to_owned(),
                    });
                    degraded = Some(fault.to_string());
                    break 'outer;
                }
                Err(e) => return Err(e.into()),
            };
            let score = score_observation(&observation);
            let met = observation.all_qos_met();
            points.push(AdaptivePoint {
                time_s: observation.time_s,
                phase: Phase::Steady,
                partition: best.clone(),
                observation,
                score,
            });
            if met {
                consecutive_violations = 0;
            } else {
                consecutive_violations += 1;
                if consecutive_violations >= config.violation_patience {
                    break; // re-invoke the search
                }
            }
        }
    }

    Ok(AdaptiveTrace { points, invocations, degraded })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clite_sim::load::LoadSchedule;
    use clite_sim::prelude::*;

    #[test]
    fn static_load_invokes_search_once() {
        let jobs = vec![
            JobSpec::latency_critical(WorkloadId::Memcached, 0.2),
            JobSpec::latency_critical(WorkloadId::ImgDnn, 0.2),
            JobSpec::background(WorkloadId::Fluidanimate),
        ];
        let mut server = Server::new(ResourceCatalog::testbed(), jobs, 10).unwrap();
        let trace = run_adaptive(
            &CliteController::default(),
            &mut server,
            300.0,
            AdaptiveConfig::default(),
        )
        .unwrap();
        assert_eq!(trace.invocations, 1, "constant load must not re-trigger the search");
        assert!(trace.steady_qos_fraction() > 0.9);
    }

    #[test]
    fn load_step_reinvokes_search() {
        // The paper's Fig. 16 scenario: memcached load steps 10% → 30%
        // while img-dnn and masstree stay at 10%.
        let jobs = vec![
            JobSpec::latency_critical_scheduled(
                WorkloadId::Memcached,
                LoadSchedule::Steps(vec![(0.0, 0.10), (220.0, 0.90)]),
            ),
            JobSpec::latency_critical(WorkloadId::ImgDnn, 0.10),
            JobSpec::latency_critical(WorkloadId::Masstree, 0.10),
            JobSpec::background(WorkloadId::Fluidanimate),
        ];
        let mut server = Server::new(ResourceCatalog::testbed(), jobs, 11).unwrap();
        let trace = run_adaptive(
            &CliteController::default(),
            &mut server,
            620.0,
            AdaptiveConfig::default(),
        )
        .unwrap();
        // The 10%→90% memcached step must break QoS under the old partition
        // and force at least one re-invocation.
        assert!(trace.invocations >= 2, "invocations {}", trace.invocations);
        // The run must mostly hold QoS in steady state; the 90% memcached
        // point is near the feasibility boundary, so measurement noise may
        // flip individual windows.
        assert!(
            trace.steady_qos_fraction() > 0.6,
            "steady QoS fraction {}",
            trace.steady_qos_fraction()
        );
        let last_steady: Vec<_> =
            trace.points.iter().rev().filter(|p| p.phase == Phase::Steady).take(10).collect();
        assert!(!last_steady.is_empty());
        let met = last_steady.iter().filter(|p| p.observation.all_qos_met()).count();
        assert!(
            met * 10 >= last_steady.len() * 3,
            "{met}/{} final steady windows met",
            last_steady.len()
        );
    }

    /// Splits a trace into its contiguous search-phase segments: one
    /// segment per invocation, each the number of windows that invocation
    /// spent searching.
    fn search_segments(trace: &AdaptiveTrace) -> Vec<usize> {
        let mut segments = Vec::new();
        let mut in_search = false;
        for p in &trace.points {
            match (p.phase, in_search) {
                (Phase::Search, false) => {
                    segments.push(1);
                    in_search = true;
                }
                (Phase::Search, true) => *segments.last_mut().unwrap() += 1,
                (Phase::Steady, _) => in_search = false,
            }
        }
        segments
    }

    #[test]
    fn warm_reinvocation_on_unchanged_mix_uses_fewer_search_windows() {
        use clite_store::{ShardPolicy, ShardedStore};

        // Complementary load swaps: memcached and img-dnn trade places at
        // t=250 s and trade back at t=500 s. Each swap breaks the partition
        // tuned for the previous phase (the newly loaded job is starved),
        // forcing a re-invocation — and the third invocation runs at
        // exactly the first invocation's load point, so with a store it is
        // an exact warm hit on the first invocation's samples.
        let jobs = vec![
            JobSpec::latency_critical_scheduled(
                WorkloadId::Memcached,
                LoadSchedule::Steps(vec![(0.0, 0.85), (250.0, 0.10), (500.0, 0.85)]),
            ),
            JobSpec::latency_critical_scheduled(
                WorkloadId::ImgDnn,
                LoadSchedule::Steps(vec![(0.0, 0.10), (250.0, 0.85), (500.0, 0.10)]),
            ),
            JobSpec::background(WorkloadId::Fluidanimate),
        ];
        let mut server = Server::new(ResourceCatalog::testbed(), jobs, 21).unwrap();
        let store = ShardedStore::in_memory(ShardPolicy::with_shards(1));
        let trace = run_adaptive_with_store(
            &CliteController::default(),
            &mut server,
            740.0,
            AdaptiveConfig::default(),
            &store,
            &Telemetry::disabled(),
        )
        .unwrap();

        assert!(
            trace.invocations >= 3,
            "load swaps must re-invoke twice, got {}",
            trace.invocations
        );
        let segments = search_segments(&trace);
        assert_eq!(segments.len(), trace.invocations);
        let cold = segments[0];
        let warm = segments[2];
        assert!(warm < cold, "warm re-invocation used {warm} search windows, cold used {cold}");
        assert!(store.stats().hits >= 1, "third invocation must hit the store");
        // Store or not, the trace stays time-ordered.
        for w in trace.points.windows(2) {
            assert!(w[1].time_s >= w[0].time_s);
        }
    }

    #[test]
    fn trace_points_are_time_ordered() {
        let jobs = vec![
            JobSpec::latency_critical(WorkloadId::Xapian, 0.3),
            JobSpec::background(WorkloadId::Canneal),
        ];
        let mut server = Server::new(ResourceCatalog::testbed(), jobs, 12).unwrap();
        let trace = run_adaptive(
            &CliteController::default(),
            &mut server,
            150.0,
            AdaptiveConfig::default(),
        )
        .unwrap();
        for w in trace.points.windows(2) {
            assert!(w[1].time_s >= w[0].time_s);
        }
    }
}
