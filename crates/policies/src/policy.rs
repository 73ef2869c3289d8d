//! The common interface every co-location scheduling policy implements.

use serde::Serialize;

use clite::score::score_value;
use clite_sim::alloc::Partition;
use clite_sim::metrics::Observation;
use clite_sim::testbed::Testbed;
use clite_sim::SimError;
use clite_telemetry::{Event, Phase, Telemetry};

use crate::PolicyError;

/// One evaluated configuration during a policy run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PolicySample {
    /// 0-based sample index.
    pub index: usize,
    /// The partition that was enforced.
    pub partition: Partition,
    /// The observation window's measurements.
    pub observation: Observation,
    /// Eq. 3 score of the window (computed uniformly for every policy so
    /// outcomes are comparable, even for policies that don't use it
    /// internally).
    pub score: f64,
}

/// Outcome of one policy run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PolicyOutcome {
    /// Policy name (paper spelling: "PARTIES", "CLITE", …).
    pub policy: String,
    /// Best-scoring partition found.
    pub best_partition: Partition,
    /// Its score.
    pub best_score: f64,
    /// Every evaluated sample, in order.
    pub samples: Vec<PolicySample>,
    /// Whether the best sample met every LC job's QoS.
    pub qos_met: bool,
    /// 0-based index of the first sample meeting all QoS (`None` if never).
    pub samples_to_qos: Option<usize>,
    /// Whether the policy gave up (concluded the set is not co-locatable).
    pub gave_up: bool,
}

impl PolicyOutcome {
    /// Number of configurations sampled — the paper's Fig. 15a overhead
    /// metric. ORACLE reports its offline ground-truth evaluation count.
    #[must_use]
    pub fn samples_used(&self) -> usize {
        self.samples.len()
    }

    /// The best sample's record.
    #[must_use]
    pub fn best_sample(&self) -> Option<&PolicySample> {
        self.samples.iter().max_by(|a, b| a.score.total_cmp(&b.score))
    }

    /// Mean BG normalized performance at the best sample (`None` if no BG
    /// jobs).
    #[must_use]
    pub fn best_bg_perf(&self) -> Option<f64> {
        self.best_sample().and_then(|s| s.observation.mean_bg_perf())
    }

    /// Mean LC normalized (isolation-relative) performance at the best
    /// sample (`None` if no LC jobs).
    #[must_use]
    pub fn best_lc_perf(&self) -> Option<f64> {
        self.best_sample().and_then(|s| s.observation.mean_lc_perf())
    }
}

/// A co-location scheduling policy: partitions `server`'s resources until
/// its own stopping rule fires, and reports everything it sampled.
///
/// Policies are generic over the [`Testbed`] backend they drive, so the
/// same implementation runs against the noisy simulator, a memoized
/// wrapper, or any future hardware adapter. Online policies bound `T` by
/// plain [`Testbed`]; only ORACLE demands
/// [`OracleTestbed`](clite_sim::testbed::OracleTestbed) (noise-free ground
/// truth), which keeps the privileged channel out of reach of everything
/// that is supposed to learn from measurements.
pub trait Policy<T: Testbed> {
    /// The paper's name for this policy.
    fn name(&self) -> &'static str;

    /// Runs the policy to completion on `server`.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] on simulator or internal failures.
    fn run(&mut self, server: &mut T) -> Result<PolicyOutcome, PolicyError> {
        self.run_with(server, &Telemetry::disabled())
    }

    /// [`run`](Policy::run) with telemetry: policies emit structured
    /// events (QoS violations at minimum) and attribute observe/score time
    /// to the profiling phases. The default-telemetry `run` discards both.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] on simulator or internal failures.
    fn run_with(
        &mut self,
        server: &mut T,
        telemetry: &Telemetry<'_>,
    ) -> Result<PolicyOutcome, PolicyError>;
}

/// Shared helper: observe `partition` on `server`, score it, and append a
/// [`PolicySample`]. Times the observation window and the scoring as their
/// profiling phases and emits one [`Event::QosViolation`] per LC job
/// missing its target. Returns the sample's index.
///
/// # Errors
///
/// Returns the [`SimError`] of a rejected partition or a faulted window
/// (a node crash, a dropped or stuck window); nothing is recorded then.
pub fn observe_and_record<T: Testbed>(
    server: &mut T,
    partition: &Partition,
    samples: &mut Vec<PolicySample>,
    telemetry: &Telemetry<'_>,
) -> Result<usize, SimError> {
    let observation = telemetry.time(Phase::Observe, || server.try_observe(partition))?;
    let score = telemetry.time(Phase::Score, || score_value(&observation));
    let index = samples.len();
    for (job, obs) in observation.jobs.iter().enumerate() {
        if obs.qos_met == Some(false) {
            telemetry.emit(Event::QosViolation {
                sample: index,
                job,
                ratio: obs.qos_slack().unwrap_or(0.0),
            });
        }
    }
    samples.push(PolicySample { index, partition: partition.clone(), observation, score });
    Ok(index)
}

/// Shared helper: assemble a [`PolicyOutcome`] from recorded samples.
///
/// # Panics
///
/// Panics if `samples` is empty (every policy evaluates at least one
/// configuration).
#[must_use]
pub fn outcome_from_samples(
    policy: &str,
    samples: Vec<PolicySample>,
    gave_up: bool,
) -> PolicyOutcome {
    let best = samples
        .iter()
        .max_by(|a, b| a.score.total_cmp(&b.score))
        .expect("policy evaluated at least one configuration");
    let samples_to_qos = samples.iter().position(|s| s.observation.all_qos_met());
    PolicyOutcome {
        policy: policy.to_owned(),
        best_partition: best.partition.clone(),
        best_score: best.score,
        qos_met: best.observation.all_qos_met(),
        samples_to_qos,
        samples,
        gave_up,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clite_sim::prelude::*;

    #[test]
    fn record_and_outcome_roundtrip() {
        let jobs = vec![
            JobSpec::latency_critical(WorkloadId::Memcached, 0.2),
            JobSpec::background(WorkloadId::Swaptions),
        ];
        let mut server = Server::new(ResourceCatalog::testbed(), jobs, 1).unwrap();
        let mut samples = Vec::new();
        let p = Partition::equal_share(server.catalog(), 2).unwrap();
        let q = Partition::max_for_job(server.catalog(), 2, 0).unwrap();
        let none = Telemetry::disabled();
        assert_eq!(observe_and_record(&mut server, &p, &mut samples, &none), Ok(0));
        assert_eq!(observe_and_record(&mut server, &q, &mut samples, &none), Ok(1));
        let outcome = outcome_from_samples("TEST", samples, false);
        assert_eq!(outcome.policy, "TEST");
        assert_eq!(outcome.samples_used(), 2);
        assert!(outcome.best_score >= outcome.samples[0].score.min(outcome.samples[1].score));
        assert!(!outcome.gave_up);
    }
}
