//! The structured event vocabulary emitted by the controller, the BO
//! engine, the policies, and the cluster scheduler.

use serde::{Deserialize, Serialize};

use crate::profile::Phase;

/// Why a CLITE search run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// Expected improvement fell below the termination threshold.
    EiConverged,
    /// The sampling budget was exhausted.
    BudgetExhausted,
    /// Every feasible job combination was ruled out.
    Infeasible,
}

/// One structured telemetry event.
///
/// Serialized externally tagged (`{"BootstrapSample": {...}}`), one event
/// per line in the JSONL sink. `sample` fields index into the run's
/// sample trace where applicable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A Phase-1 bootstrap configuration was evaluated.
    BootstrapSample {
        /// Index of the sample in the run trace.
        sample: usize,
        /// Eq. 3 score of the observation.
        score: f64,
        /// Whether every LC job met QoS under this partition.
        qos_met: bool,
    },
    /// The dropout policy froze one job's allocation for this iteration.
    DropoutFrozen {
        /// Index of the sample about to be proposed.
        sample: usize,
        /// Index of the frozen job.
        job: usize,
    },
    /// The acquisition maximizer chose the next candidate.
    CandidateChosen {
        /// Index of the sample in the run trace.
        sample: usize,
        /// Expected improvement of the chosen candidate.
        expected_improvement: f64,
    },
    /// GP hyper-parameters were refit over the hyper grid.
    GpRefit {
        /// Number of observations the surrogate was fit on.
        observations: usize,
        /// Selected kernel length-scale.
        lengthscale: f64,
        /// Selected signal variance.
        signal_variance: f64,
        /// Log marginal likelihood at the selected hypers.
        log_marginal: f64,
    },
    /// The run terminated.
    Terminated {
        /// Why the search stopped.
        reason: StopReason,
        /// Total samples evaluated.
        samples: usize,
        /// Best Eq. 3 score reached.
        best_score: f64,
    },
    /// An LC job missed its QoS target in an evaluated sample.
    QosViolation {
        /// Index of the sample in the run trace.
        sample: usize,
        /// Index of the violating job.
        job: usize,
        /// `target / latency` ratio (< 1 means violation).
        ratio: f64,
    },
    /// A job was ruled infeasible and ejected from the co-location.
    InfeasibleJob {
        /// Index of the ejected job.
        job: usize,
    },
    /// The cluster scheduler placed a job on a node.
    Placement {
        /// Node index in the cluster.
        node: usize,
        /// Workload name of the placed job.
        job: String,
    },
    /// The cluster scheduler evicted/removed a job from a node.
    Eviction {
        /// Node index in the cluster.
        node: usize,
        /// Workload name of the removed job.
        job: String,
    },
    /// A profiled search phase completed one timed section.
    PhaseTiming {
        /// Which phase was timed.
        phase: Phase,
        /// Elapsed wall-clock nanoseconds.
        nanos: u64,
    },
    /// An observation was appended to the persistent store.
    StoreAppend {
        /// Eq. 3 score of the stored observation.
        score: f64,
    },
    /// A warm-start lookup found reusable samples for the current mix.
    StoreHit {
        /// Number of warm entries returned.
        entries: usize,
        /// L∞ load distance between the stored and current load vectors.
        load_distance: f64,
        /// True if the stored load vector matches exactly.
        exact: bool,
    },
    /// A warm-start lookup found nothing reusable.
    StoreMiss {
        /// Number of distinct mixes currently indexed by the store.
        mixes: usize,
    },
    /// A search run was primed with stored samples before its first window.
    WarmStarted {
        /// Number of pre-recorded samples fed into the surrogate.
        samples: usize,
        /// True if the warm entries came from an exact load match.
        exact: bool,
    },
    /// The testbed faulted an observation window or an enforcement call.
    FaultInjected {
        /// Index of the sample being attempted when the fault hit.
        sample: usize,
        /// Stable fault-kind label (`window_dropped`, `window_timeout`,
        /// `enforce_fault`, `node_crashed`).
        fault: String,
    },
    /// The controller re-ran an observation after a transient fault or a
    /// flagged outlier.
    ObservationRetried {
        /// Index of the sample being re-observed.
        sample: usize,
        /// Retry attempt number (1-based).
        attempt: usize,
    },
    /// The outlier guard rejected an observation; it never enters the GP
    /// history or the store.
    SampleQuarantined {
        /// Index the sample would have had in the run trace.
        sample: usize,
        /// Eq. 3 score of the rejected observation.
        score: f64,
        /// Posterior mean the surrogate predicted for this partition.
        predicted: f64,
        /// Posterior standard deviation used by the guard.
        sigma: f64,
    },
    /// Retries exhausted: the controller re-enforced its safe fallback
    /// partition and degraded instead of continuing the search.
    FallbackEngaged {
        /// Index of the sample at which the search gave up.
        sample: usize,
        /// True if the fallback is a known QoS-feasible partition (else it
        /// is the equal-share bootstrap partition).
        qos_feasible: bool,
        /// True if re-enforcing the fallback succeeded on the node.
        enforced: bool,
    },
    /// The cluster scheduler evicted a crashed node and re-queued its jobs.
    NodeEvicted {
        /// Node index in the cluster.
        node: usize,
        /// Number of jobs orphaned by the eviction.
        jobs: usize,
    },
    /// The persistent store recovered from corruption while reopening a
    /// log file (torn tail truncated and/or undecodable records skipped).
    StoreRecovered {
        /// Records recovered (decoded and re-validated) from the log.
        records: usize,
        /// Bytes of torn tail dropped by truncation.
        dropped_bytes: u64,
        /// Checksummed frames that decoded to invalid records and were
        /// skipped.
        undecodable: usize,
    },
    /// The fleet service received a job arrival from the trace.
    JobArrived {
        /// Cluster-assigned job id.
        job: u64,
        /// Workload name of the arriving job.
        workload: String,
    },
    /// The fleet service processed a job departure.
    JobDeparted {
        /// Cluster-assigned job id.
        job: u64,
    },
    /// A committed job's offered load changed and its node re-partitioned.
    LoadShift {
        /// Cluster-assigned job id.
        job: u64,
        /// New load as a whole percentage of max QPS.
        load_pct: u32,
    },
    /// The fleet service brought a new node into service.
    NodeOnboarded {
        /// Node index in the cluster.
        node: usize,
    },
    /// The learned placement policy scored a candidate set for one job.
    PlacementScored {
        /// Workload name of the job being placed.
        job: String,
        /// Number of candidates scored.
        candidates: usize,
        /// Best model score among them.
        best_score: f64,
    },
    /// A ranking model was loaded for serving.
    ModelLoaded {
        /// Feature-schema version the model was trained against.
        feature_version: u32,
        /// Training epochs the weights went through.
        epochs: u32,
        /// Final mean pairwise training loss.
        train_loss: f64,
    },
    /// One training epoch over the rollout set completed.
    TrainingEpoch {
        /// Zero-based epoch index.
        epoch: u32,
        /// Mean pairwise loss over the epoch.
        loss: f64,
    },
    /// A fleet event was written to the write-ahead journal before being
    /// applied.
    JournalAppended {
        /// Commit sequence number the record carries.
        seqno: u64,
        /// Encoded payload size in bytes (seqno prefix included).
        bytes: u64,
    },
    /// A fleet checkpoint was atomically written.
    CheckpointWritten {
        /// Journal seqno the checkpoint covers (events `< seqno` are
        /// folded into it).
        seqno: u64,
        /// Checkpoint payload size in bytes.
        bytes: u64,
        /// Wall time of the whole write (snapshot, encode, atomic save),
        /// in nanoseconds. Observability only: no witness reads it.
        nanos: u64,
    },
    /// Recovery loaded a checkpoint (or started cold) and replayed the
    /// journal suffix.
    RecoveryReplayed {
        /// Seqno the loaded checkpoint covered (0 if none was usable).
        checkpoint_seqno: u64,
        /// Journaled events re-applied on top of it.
        replayed: u64,
        /// Wall time of the whole recovery (journal and checkpoint load,
        /// restore, replay), in nanoseconds. Observability only.
        nanos: u64,
    },
    /// Overload protection rejected (shed) a low-priority arrival.
    ArrivalShed {
        /// Cluster-assigned job id the arrival consumed.
        job: u64,
        /// Same-tick backlog depth when the arrival was shed.
        backlog: u64,
    },
}

impl Event {
    /// Stable snake_case kind name, used as the `kind` metric label.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::BootstrapSample { .. } => "bootstrap_sample",
            Event::DropoutFrozen { .. } => "dropout_frozen",
            Event::CandidateChosen { .. } => "candidate_chosen",
            Event::GpRefit { .. } => "gp_refit",
            Event::Terminated { .. } => "terminated",
            Event::QosViolation { .. } => "qos_violation",
            Event::InfeasibleJob { .. } => "infeasible_job",
            Event::Placement { .. } => "placement",
            Event::Eviction { .. } => "eviction",
            Event::PhaseTiming { .. } => "phase_timing",
            Event::StoreAppend { .. } => "store_append",
            Event::StoreHit { .. } => "store_hit",
            Event::StoreMiss { .. } => "store_miss",
            Event::WarmStarted { .. } => "warm_started",
            Event::FaultInjected { .. } => "fault_injected",
            Event::ObservationRetried { .. } => "observation_retried",
            Event::SampleQuarantined { .. } => "sample_quarantined",
            Event::FallbackEngaged { .. } => "fallback_engaged",
            Event::NodeEvicted { .. } => "node_evicted",
            Event::StoreRecovered { .. } => "store_recovered",
            Event::JobArrived { .. } => "job_arrived",
            Event::JobDeparted { .. } => "job_departed",
            Event::LoadShift { .. } => "load_shift",
            Event::NodeOnboarded { .. } => "node_onboarded",
            Event::PlacementScored { .. } => "placement_scored",
            Event::ModelLoaded { .. } => "model_loaded",
            Event::TrainingEpoch { .. } => "training_epoch",
            Event::JournalAppended { .. } => "journal_appended",
            Event::CheckpointWritten { .. } => "checkpoint_written",
            Event::RecoveryReplayed { .. } => "recovery_replayed",
            Event::ArrivalShed { .. } => "arrival_shed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            Event::BootstrapSample { sample: 0, score: 0.41, qos_met: false },
            Event::DropoutFrozen { sample: 9, job: 2 },
            Event::CandidateChosen { sample: 9, expected_improvement: 1.5e-3 },
            Event::GpRefit {
                observations: 12,
                lengthscale: 0.25,
                signal_variance: 0.5,
                log_marginal: -3.75,
            },
            Event::Terminated { reason: StopReason::EiConverged, samples: 23, best_score: 0.81 },
            Event::QosViolation { sample: 3, job: 0, ratio: 0.87 },
            Event::InfeasibleJob { job: 1 },
            Event::Placement { node: 4, job: "memcached".to_owned() },
            Event::Eviction { node: 4, job: "memcached".to_owned() },
            Event::PhaseTiming { phase: Phase::GpFit, nanos: 420_000 },
            Event::StoreAppend { score: 0.73 },
            Event::StoreHit { entries: 6, load_distance: 0.05, exact: false },
            Event::StoreMiss { mixes: 3 },
            Event::WarmStarted { samples: 6, exact: true },
            Event::FaultInjected { sample: 7, fault: "window_dropped".to_owned() },
            Event::ObservationRetried { sample: 7, attempt: 2 },
            Event::SampleQuarantined { sample: 8, score: 0.12, predicted: 0.78, sigma: 0.04 },
            Event::FallbackEngaged { sample: 9, qos_feasible: true, enforced: true },
            Event::NodeEvicted { node: 2, jobs: 3 },
            Event::StoreRecovered { records: 17, dropped_bytes: 42, undecodable: 1 },
            Event::JobArrived { job: 11, workload: "xapian".to_owned() },
            Event::JobDeparted { job: 11 },
            Event::LoadShift { job: 11, load_pct: 45 },
            Event::NodeOnboarded { node: 9 },
            Event::PlacementScored { job: "memcached".to_owned(), candidates: 4, best_score: 0.62 },
            Event::ModelLoaded { feature_version: 1, epochs: 12, train_loss: 0.31 },
            Event::TrainingEpoch { epoch: 3, loss: 0.52 },
            Event::JournalAppended { seqno: 17, bytes: 64 },
            Event::CheckpointWritten { seqno: 16, bytes: 4096, nanos: 1_250_000 },
            Event::RecoveryReplayed { checkpoint_seqno: 16, replayed: 2, nanos: 3_500_000 },
            Event::ArrivalShed { job: 23, backlog: 5 },
        ];
        for event in events {
            let line = serde_json::to_string(&event).unwrap();
            let back: Event = serde_json::from_str(&line).unwrap();
            assert_eq!(event, back, "round-trip failed for {line}");
        }
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(Event::InfeasibleJob { job: 0 }.kind(), "infeasible_job");
        assert_eq!(
            Event::Terminated { reason: StopReason::BudgetExhausted, samples: 1, best_score: 0.0 }
                .kind(),
            "terminated"
        );
    }
}
