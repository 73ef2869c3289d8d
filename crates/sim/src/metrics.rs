//! Observation records returned by the server.

use serde::{Deserialize, Serialize};

use crate::counters::CounterSample;
use crate::workload::{JobClass, WorkloadId};

/// Per-job measurements from one observation window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobObservation {
    /// Workload identity of the job.
    pub workload: WorkloadId,
    /// LC or BG.
    pub class: JobClass,
    /// Observed 95th-percentile latency in µs (meaningful for LC jobs;
    /// reported for BG jobs as the per-work-item latency for completeness).
    pub latency_p95_us: f64,
    /// Offered load in QPS (LC jobs; 0 for BG jobs).
    pub offered_qps: f64,
    /// Throughput normalized to isolation performance (`Colo-Perf /
    /// Iso-Perf`); for LC jobs this is the capped `QoS-Target / latency`
    /// performance proxy used when no BG jobs are present.
    pub normalized_perf: f64,
    /// Whether the QoS target was met this window (`None` for BG jobs).
    pub qos_met: Option<bool>,
    /// QoS tail-latency target in µs (`None` for BG jobs).
    pub qos_target_us: Option<f64>,
    /// The p95 this job would see at the same offered load running alone
    /// with the whole machine (`None` for BG jobs) — the `Iso-Perf`
    /// reference for LC jobs.
    pub iso_latency_p95_us: Option<f64>,
    /// Synthetic performance counters for the window.
    pub counters: CounterSample,
}

impl JobObservation {
    /// QoS slack as a ratio: `target / latency` (>1 means slack, <1 means
    /// violation). `None` for BG jobs.
    #[must_use]
    pub fn qos_slack(&self) -> Option<f64> {
        self.qos_target_us.map(|t| t / self.latency_p95_us)
    }

    /// Scale (µs) of the memoryless per-query service model implied by
    /// this window: an exponential latency distribution whose p95 equals
    /// the observed `latency_p95_us` (`scale = p95 / ln 20`, see
    /// [`crate::queueing::tail_factor`]). The observed p95 is itself a
    /// deterministic function of the job's interference/IPC state in the
    /// simulator, so two identical windows imply identical per-query
    /// distributions — the property the load harness's determinism
    /// rests on.
    #[must_use]
    pub fn service_scale_us(&self) -> f64 {
        (self.latency_p95_us / crate::queueing::P95_FACTOR).max(f64::MIN_POSITIVE)
    }
}

/// All per-job measurements from one observation window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Simulated wall-clock time at the *end* of the window (seconds).
    pub time_s: f64,
    /// Window length in seconds (the paper's observation period: 2 s).
    pub window_s: f64,
    /// One record per co-located job, in job order.
    pub jobs: Vec<JobObservation>,
}

impl Observation {
    /// Whether every LC job met its QoS target this window.
    #[must_use]
    pub fn all_qos_met(&self) -> bool {
        self.jobs.iter().all(|j| j.qos_met != Some(false))
    }

    /// Number of LC jobs violating QoS this window.
    #[must_use]
    pub fn violations(&self) -> usize {
        self.jobs.iter().filter(|j| j.qos_met == Some(false)).count()
    }

    /// Iterator over LC job observations only.
    pub fn lc_jobs(&self) -> impl Iterator<Item = &JobObservation> {
        self.jobs.iter().filter(|j| j.class == JobClass::LatencyCritical)
    }

    /// Iterator over BG job observations only.
    pub fn bg_jobs(&self) -> impl Iterator<Item = &JobObservation> {
        self.jobs.iter().filter(|j| j.class == JobClass::Background)
    }

    /// Arithmetic mean of BG jobs' normalized performance (`None` if there
    /// are no BG jobs).
    #[must_use]
    pub fn mean_bg_perf(&self) -> Option<f64> {
        mean_perf(self.bg_jobs())
    }

    /// Arithmetic mean of LC jobs' normalized performance (`None` if there
    /// are no LC jobs).
    #[must_use]
    pub fn mean_lc_perf(&self) -> Option<f64> {
        mean_perf(self.lc_jobs())
    }
}

/// Mean normalized performance of `jobs` (`None` when empty), in one pass
/// without collecting: the sum folds the same values in the same order as
/// summing a collected `Vec`, so the bits are the same.
fn mean_perf<'a>(jobs: impl Iterator<Item = &'a JobObservation>) -> Option<f64> {
    let mut count = 0_usize;
    let sum: f64 = jobs
        .map(|j| {
            count += 1;
            j.normalized_perf
        })
        .sum();
    (count > 0).then(|| sum / count as f64)
}
