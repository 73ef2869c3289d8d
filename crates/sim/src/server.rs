//! The observable co-location server.
//!
//! [`Server`] is the only interface controllers get, mirroring how CLITE,
//! PARTIES, etc. interact with a physical node: **apply a partition, wait
//! one observation window, read the counters**. A window is the paper's
//! 2 seconds of simulated time; applying a changed partition additionally
//! costs the isolation layer's enforcement overhead (see
//! [`crate::isolation`]).
//!
//! The simulator also exposes [`Server::ground_truth`], a noise-free,
//! time-free evaluation of a partition. Only ORACLE (the paper's offline
//! brute-force scheme) and tests are allowed to use it; online policies
//! must go through [`Server::observe`].

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::alloc::Partition;
use crate::counters::CounterSample;
use crate::isolation::{enforce as isolation_enforce, EnforcementReport};
use crate::load::LoadSchedule;
use crate::metrics::{JobObservation, Observation};
use crate::noise::NoiseModel;
use crate::perf::{capacity_qps, isolation_time_us, query_time_us};
use crate::queueing::{tail_factor, tail_latency_us, QosSpec, TailConfig};
use crate::resource::ResourceCatalog;
use crate::resource::ResourceKind;
use crate::workload::{JobClass, WorkloadId, WorkloadProfile};
use crate::SimError;

/// The testbed machine description (paper Table 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// CPU model string.
    pub cpu_model: String,
    /// Number of sockets.
    pub sockets: u32,
    /// Processor speed in GHz.
    pub ghz: f64,
    /// Logical processor cores.
    pub logical_cores: u32,
    /// Physical cores.
    pub physical_cores: u32,
    /// Private L1 size in KB.
    pub l1_kb: u32,
    /// Private L2 size in KB.
    pub l2_kb: u32,
    /// Shared L3 size in KB.
    pub l3_kb: u32,
    /// L3 associativity (ways).
    pub l3_ways: u32,
    /// Memory capacity in GB.
    pub mem_gb: u32,
    /// Operating system string.
    pub os: String,
    /// SSD capacity in GB.
    pub ssd_gb: u32,
    /// HDD capacity in TB.
    pub hdd_tb: u32,
}

impl MachineSpec {
    /// The paper's Intel Xeon Silver 4114 testbed (Table 2).
    #[must_use]
    pub fn xeon_silver_4114() -> Self {
        Self {
            cpu_model: "Intel(R) Xeon(R) Silver 4114".to_owned(),
            sockets: 1,
            ghz: 2.2,
            logical_cores: 20,
            physical_cores: 10,
            l1_kb: 32,
            l2_kb: 1024,
            l3_kb: 14_080,
            l3_ways: 11,
            mem_gb: 46,
            os: "Ubuntu 18.04.1 LTS (4.15.0-36-generic)".to_owned(),
            ssd_gb: 500,
            hdd_tb: 2,
        }
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        Self::xeon_silver_4114()
    }
}

impl fmt::Display for MachineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} socket, {:.1} GHz, {} logical / {} physical cores, L3 {} KB {}-way, {} GB RAM)",
            self.cpu_model,
            self.sockets,
            self.ghz,
            self.logical_cores,
            self.physical_cores,
            self.l3_kb,
            self.l3_ways,
            self.mem_gb
        )
    }
}

/// Specification of one co-located job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Which workload runs.
    pub workload: WorkloadId,
    /// Load schedule (fraction of the workload's maximum load); ignored for
    /// BG jobs, which always run flat out.
    pub load: LoadSchedule,
    /// Optional custom performance profile replacing the named workload's
    /// calibrated constants (see
    /// [`WorkloadProfileBuilder`](crate::workload::WorkloadProfileBuilder)).
    pub profile_override: Option<WorkloadProfile>,
}

impl JobSpec {
    /// A latency-critical job at a constant load fraction.
    #[must_use]
    pub fn latency_critical(workload: WorkloadId, load_frac: f64) -> Self {
        Self { workload, load: LoadSchedule::Constant(load_frac), profile_override: None }
    }

    /// A latency-critical job with a time-varying load schedule.
    #[must_use]
    pub fn latency_critical_scheduled(workload: WorkloadId, load: LoadSchedule) -> Self {
        Self { workload, load, profile_override: None }
    }

    /// A throughput-oriented background job.
    #[must_use]
    pub fn background(workload: WorkloadId) -> Self {
        Self { workload, load: LoadSchedule::Constant(1.0), profile_override: None }
    }

    /// Replaces the named workload's calibrated constants with a custom
    /// profile (the job keeps the name's class and identity for reports).
    #[must_use]
    pub fn with_profile(mut self, profile: WorkloadProfile) -> Self {
        self.profile_override = Some(profile);
        self
    }

    /// The effective performance profile (custom override or the named
    /// workload's calibration).
    #[must_use]
    pub fn profile(&self) -> WorkloadProfile {
        self.profile_override.unwrap_or_else(|| self.workload.profile())
    }

    /// Job class implied by the workload.
    #[must_use]
    pub fn class(&self) -> JobClass {
        self.workload.class()
    }
}

/// Internal per-job runtime state.
#[derive(Debug, Clone)]
struct RunningJob {
    spec: JobSpec,
    profile: WorkloadProfile,
    qos: Option<QosSpec>,
    iso_time_us: f64,
}

/// The simulated co-location server.
#[derive(Debug, Clone)]
pub struct Server {
    catalog: ResourceCatalog,
    machine: MachineSpec,
    jobs: Vec<RunningJob>,
    noise: NoiseModel,
    rng: StdRng,
    interference_coeff: f64,
    tail: TailConfig,
    window_s: f64,
    time_s: f64,
    samples_observed: u64,
    enforcement_overhead_ms: f64,
    current: Partition,
}

impl Server {
    /// Builds a server hosting `jobs` on the default machine, with default
    /// measurement noise, seeded by `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoJobs`] for an empty job list,
    /// [`SimError::TooManyJobs`] if the catalog cannot give every job one
    /// unit of every resource, or [`SimError::InvalidLoad`] for an LC load
    /// fraction outside `(0, 1]` at time zero.
    pub fn new(catalog: ResourceCatalog, jobs: Vec<JobSpec>, seed: u64) -> Result<Self, SimError> {
        Self::with_noise(catalog, jobs, seed, NoiseModel::default_measurement())
    }

    /// Same as [`Server::new`] with an explicit noise model.
    ///
    /// # Errors
    ///
    /// See [`Server::new`].
    pub fn with_noise(
        catalog: ResourceCatalog,
        jobs: Vec<JobSpec>,
        seed: u64,
        noise: NoiseModel,
    ) -> Result<Self, SimError> {
        if jobs.is_empty() {
            return Err(SimError::NoJobs);
        }
        let running: Vec<RunningJob> = jobs
            .into_iter()
            .map(|spec| {
                let profile = spec.profile();
                let qos = match spec.class() {
                    JobClass::LatencyCritical => {
                        let l0 = spec.load.at(0.0);
                        if !(0.0..=1.0).contains(&l0) || l0 == 0.0 {
                            return Err(SimError::InvalidLoad { load: l0 });
                        }
                        Some(QosSpec::derive_from_profile(&profile, &catalog))
                    }
                    JobClass::Background => None,
                };
                let iso_time_us = isolation_time_us(&profile, &catalog);
                Ok(RunningJob { spec, profile, qos, iso_time_us })
            })
            .collect::<Result<_, _>>()?;
        let count = running.len();
        let current = Partition::equal_share(&catalog, count)?;
        Ok(Self {
            catalog,
            machine: MachineSpec::default(),
            jobs: running,
            noise,
            rng: StdRng::seed_from_u64(seed),
            interference_coeff: 0.03,
            tail: TailConfig::default(),
            window_s: 2.0,
            time_s: 0.0,
            samples_observed: 0,
            enforcement_overhead_ms: 0.0,
            current,
        })
    }

    /// The resource catalog of this machine.
    #[must_use]
    pub fn catalog(&self) -> &ResourceCatalog {
        &self.catalog
    }

    /// The machine description (Table 2).
    #[must_use]
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// Number of co-located jobs.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Job specs in job order.
    #[must_use]
    pub fn job_specs(&self) -> Vec<JobSpec> {
        self.jobs.iter().map(|j| j.spec.clone()).collect()
    }

    /// Workload of job `job`.
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    #[must_use]
    pub fn workload(&self, job: usize) -> WorkloadId {
        self.jobs[job].spec.workload
    }

    /// Job class of job `job`.
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    #[must_use]
    pub fn class(&self, job: usize) -> JobClass {
        self.jobs[job].spec.class()
    }

    /// Indices of the latency-critical jobs.
    #[must_use]
    pub fn lc_indices(&self) -> Vec<usize> {
        (0..self.jobs.len()).filter(|&j| self.class(j) == JobClass::LatencyCritical).collect()
    }

    /// Indices of the background jobs.
    #[must_use]
    pub fn bg_indices(&self) -> Vec<usize> {
        (0..self.jobs.len()).filter(|&j| self.class(j) == JobClass::Background).collect()
    }

    /// QoS spec of job `job` (`None` for BG jobs).
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    #[must_use]
    pub fn qos(&self, job: usize) -> Option<QosSpec> {
        self.jobs[job].qos
    }

    /// Current simulated time in seconds.
    #[must_use]
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Number of observation windows run so far — the paper's "number of
    /// configurations sampled" overhead metric (Fig. 15a).
    #[must_use]
    pub fn samples_observed(&self) -> u64 {
        self.samples_observed
    }

    /// Accumulated partition-enforcement overhead in milliseconds.
    #[must_use]
    pub fn enforcement_overhead_ms(&self) -> f64 {
        self.enforcement_overhead_ms
    }

    /// The observation window length in seconds (paper: 2 s).
    #[must_use]
    pub fn window_s(&self) -> f64 {
        self.window_s
    }

    /// The tail-latency configuration (queueing model and QoS quantile).
    #[must_use]
    pub fn tail(&self) -> TailConfig {
        self.tail
    }

    /// Switches the queueing model and/or QoS quantile, re-deriving every
    /// LC job's QoS target so "max load" and targets stay consistent with
    /// the new model.
    pub fn set_tail(&mut self, tail: TailConfig) {
        self.tail = tail;
        for job in &mut self.jobs {
            if job.spec.class() == JobClass::LatencyCritical {
                job.qos = Some(QosSpec::derive_with(&job.profile, &self.catalog, tail));
            }
        }
    }

    /// The currently enforced partition.
    #[must_use]
    pub fn current_partition(&self) -> &Partition {
        &self.current
    }

    /// Replaces an LC job's load schedule with a constant fraction
    /// (dynamic-load experiments change load mid-run this way).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::JobOutOfRange`] or [`SimError::InvalidLoad`].
    pub fn set_load(&mut self, job: usize, load_frac: f64) -> Result<(), SimError> {
        if job >= self.jobs.len() {
            return Err(SimError::JobOutOfRange { job, jobs: self.jobs.len() });
        }
        if !(load_frac > 0.0 && load_frac <= 1.0) {
            return Err(SimError::InvalidLoad { load: load_frac });
        }
        self.jobs[job].spec.load = LoadSchedule::Constant(load_frac);
        Ok(())
    }

    /// Current load fraction of job `job` (1.0 for BG jobs).
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    #[must_use]
    pub fn load(&self, job: usize) -> f64 {
        self.jobs[job].spec.load.at(self.time_s)
    }

    /// Applies `partition` through the isolation layer, making it the
    /// current partition. Simulated time advances by the enforcement
    /// overhead (re-applying the current partition is free).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::JobCountMismatch`] if `partition` does not have
    /// one row per co-located job, or [`SimError::CatalogMismatch`] if it
    /// was built against a different catalog.
    pub fn enforce(&mut self, partition: &Partition) -> Result<(), SimError> {
        if partition.job_count() != self.jobs.len() {
            return Err(SimError::JobCountMismatch {
                expected: self.jobs.len(),
                actual: partition.job_count(),
            });
        }
        if *partition.catalog() != self.catalog {
            return Err(SimError::CatalogMismatch);
        }
        let report: EnforcementReport = isolation_enforce(&self.current, partition);
        self.enforcement_overhead_ms += report.overhead_ms;
        self.time_s += report.overhead_ms / 1000.0;
        self.current = partition.clone();
        Ok(())
    }

    /// Runs one observation window under the currently enforced partition,
    /// returning noisy per-job measurements. Simulated time advances by the
    /// window length and the sample counter increments.
    pub fn observe_window(&mut self) -> Observation {
        let current = self.current.clone();
        let obs = self.measure(&current, true);
        self.time_s += self.window_s;
        self.samples_observed += 1;
        obs
    }

    /// Advances simulated time by one window length without measuring
    /// (used by caching backends that skip a redundant window).
    pub fn advance_window(&mut self) {
        self.time_s += self.window_s;
    }

    /// Applies `partition` through the isolation layer and runs one
    /// observation window, returning noisy per-job measurements. Simulated
    /// time advances by the window length plus the enforcement overhead.
    ///
    /// # Panics
    ///
    /// Panics if `partition` does not have one row per co-located job or
    /// was built against a different catalog (a controller bug, not a
    /// runtime condition).
    pub fn observe(&mut self, partition: &Partition) -> Observation {
        self.enforce(partition).expect("partition rows must match co-located job count");
        self.observe_window()
    }

    /// Noise-free, time-free evaluation of `partition` — the privileged
    /// ground truth used by ORACLE and by tests. Online policies must not
    /// call this.
    ///
    /// # Panics
    ///
    /// Panics if `partition` does not have one row per co-located job.
    #[must_use]
    pub fn ground_truth(&self, partition: &Partition) -> Observation {
        assert_eq!(partition.job_count(), self.jobs.len());
        // Clone-free trick: measurement only needs &self except for noise;
        // use a scratch RNG since noise is disabled.
        let mut scratch = self.clone();
        scratch.noise = NoiseModel::none();
        scratch.measure(partition, false)
    }

    /// Measures all jobs under `partition` at the current time.
    fn measure(&mut self, partition: &Partition, with_noise: bool) -> Observation {
        // Static interference pressure per job: memory intensity × activity.
        let pressures: Vec<f64> = self
            .jobs
            .iter()
            .map(|j| {
                let activity = match j.spec.class() {
                    JobClass::LatencyCritical => j.spec.load.at(self.time_s),
                    JobClass::Background => 1.0,
                };
                j.profile.mem_intensity * activity
            })
            .collect();
        let total_pressure: f64 = pressures.iter().sum();

        let mut records = Vec::with_capacity(self.jobs.len());
        for (i, job) in self.jobs.iter().enumerate() {
            let alloc = partition.job(i);
            let others = total_pressure - pressures[i];
            let interference = 1.0 + self.interference_coeff * others;
            let t_us = query_time_us(&job.profile, alloc, &self.catalog) * interference;
            let cores = alloc.units(ResourceKind::Cores);
            let mu = capacity_qps(t_us, cores);

            let (
                latency_p95_us,
                offered_qps,
                normalized_perf,
                qos_met,
                qos_target_us,
                iso_latency_p95_us,
                util,
            );
            match (job.spec.class(), job.qos) {
                (JobClass::LatencyCritical, Some(spec)) => {
                    let load = job.spec.load.at(self.time_s);
                    let lambda = spec.qps_at_load(load);
                    let mut p95 = tail_latency_us(self.tail, lambda, mu, t_us, cores);
                    if with_noise && !self.noise.is_none() {
                        p95 *= self.noise.latency_factor(&mut self.rng);
                    }
                    let cores_full = self.catalog.units(ResourceKind::Cores);
                    let mu_iso = capacity_qps(job.iso_time_us, cores_full);
                    let iso_p95 =
                        tail_latency_us(self.tail, lambda, mu_iso, job.iso_time_us, cores_full);
                    latency_p95_us = p95;
                    offered_qps = lambda;
                    normalized_perf = (iso_p95 / p95).min(1.0);
                    qos_met = Some(spec.met_by(p95));
                    qos_target_us = Some(spec.target_us);
                    iso_latency_p95_us = Some(iso_p95);
                    util = (lambda / mu).min(1.0);
                }
                _ => {
                    let cores_full = self.catalog.units(ResourceKind::Cores);
                    let mut tput =
                        capacity_qps(t_us, cores) / capacity_qps(job.iso_time_us, cores_full);
                    if with_noise && !self.noise.is_none() {
                        tput *= self.noise.throughput_factor(&mut self.rng);
                    }
                    latency_p95_us = t_us * tail_factor(self.tail.quantile);
                    offered_qps = 0.0;
                    normalized_perf = tput;
                    qos_met = None;
                    qos_target_us = None;
                    iso_latency_p95_us = None;
                    util = 1.0;
                }
            }

            let counters = CounterSample::derive(&job.profile, alloc, &self.catalog, util);
            records.push(JobObservation {
                workload: job.spec.workload,
                class: job.spec.class(),
                latency_p95_us,
                offered_qps,
                normalized_perf,
                qos_met,
                qos_target_us,
                iso_latency_p95_us,
                counters,
            });
        }
        Observation { time_s: self.time_s, window_s: self.window_s, jobs: records }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceKind;

    fn two_job_server(seed: u64) -> Server {
        Server::new(
            ResourceCatalog::testbed(),
            vec![
                JobSpec::latency_critical(WorkloadId::Memcached, 0.5),
                JobSpec::background(WorkloadId::Blackscholes),
            ],
            seed,
        )
        .unwrap()
    }

    #[test]
    fn observe_advances_time_and_counts_samples() {
        let mut s = two_job_server(1);
        let p = Partition::equal_share(s.catalog(), 2).unwrap();
        assert_eq!(s.samples_observed(), 0);
        let before = s.time_s();
        s.observe(&p);
        assert_eq!(s.samples_observed(), 1);
        assert!(s.time_s() >= before + s.window_s());
    }

    #[test]
    fn changing_partition_costs_enforcement() {
        let mut s = two_job_server(2);
        let p = Partition::equal_share(s.catalog(), 2).unwrap();
        s.observe(&p);
        let base = s.enforcement_overhead_ms();
        let q = p.transfer(ResourceKind::Cores, 1, 0, 2).unwrap();
        s.observe(&q);
        assert!(s.enforcement_overhead_ms() > base);
        // Re-applying the same partition is free.
        let now = s.enforcement_overhead_ms();
        s.observe(&q);
        assert_eq!(s.enforcement_overhead_ms(), now);
    }

    #[test]
    fn ground_truth_is_deterministic_and_time_free() {
        let s = two_job_server(3);
        let p = Partition::equal_share(s.catalog(), 2).unwrap();
        let a = s.ground_truth(&p);
        let b = s.ground_truth(&p);
        assert_eq!(a, b);
        assert_eq!(s.samples_observed(), 0);
    }

    #[test]
    fn same_seed_same_observations() {
        let mut a = two_job_server(7);
        let mut b = two_job_server(7);
        let p = Partition::equal_share(a.catalog(), 2).unwrap();
        for _ in 0..5 {
            assert_eq!(a.observe(&p), b.observe(&p));
        }
    }

    #[test]
    fn lc_job_meets_qos_with_generous_allocation_at_low_load() {
        let s = Server::new(
            ResourceCatalog::testbed(),
            vec![
                JobSpec::latency_critical(WorkloadId::Memcached, 0.2),
                JobSpec::background(WorkloadId::Swaptions),
            ],
            5,
        )
        .unwrap();
        let generous = Partition::max_for_job(s.catalog(), 2, 0).unwrap();
        let obs = s.ground_truth(&generous);
        assert_eq!(
            obs.jobs[0].qos_met,
            Some(true),
            "p95 {} target {:?}",
            obs.jobs[0].latency_p95_us,
            obs.jobs[0].qos_target_us
        );
    }

    #[test]
    fn lc_job_violates_qos_when_starved_at_high_load() {
        let s = Server::new(
            ResourceCatalog::testbed(),
            vec![
                JobSpec::latency_critical(WorkloadId::ImgDnn, 0.9),
                JobSpec::background(WorkloadId::Streamcluster),
            ],
            5,
        )
        .unwrap();
        // Give nearly everything to the BG job.
        let starved = Partition::max_for_job(s.catalog(), 2, 1).unwrap();
        let obs = s.ground_truth(&starved);
        assert_eq!(obs.jobs[0].qos_met, Some(false));
        assert_eq!(obs.jobs[1].qos_met, None);
    }

    #[test]
    fn bg_perf_increases_with_allocation() {
        let s = two_job_server(9);
        let small = Partition::max_for_job(s.catalog(), 2, 0).unwrap();
        let big = Partition::max_for_job(s.catalog(), 2, 1).unwrap();
        let perf_small = s.ground_truth(&small).jobs[1].normalized_perf;
        let perf_big = s.ground_truth(&big).jobs[1].normalized_perf;
        assert!(perf_big > perf_small);
    }

    #[test]
    fn set_load_validates() {
        let mut s = two_job_server(11);
        assert!(s.set_load(0, 0.9).is_ok());
        assert!(matches!(s.set_load(0, 0.0), Err(SimError::InvalidLoad { .. })));
        assert!(matches!(s.set_load(9, 0.5), Err(SimError::JobOutOfRange { .. })));
        assert_eq!(s.load(0), 0.9);
    }

    #[test]
    fn empty_job_list_rejected() {
        let err = Server::new(ResourceCatalog::testbed(), vec![], 0).unwrap_err();
        assert!(matches!(err, SimError::NoJobs));
    }

    #[test]
    fn set_tail_rederives_targets() {
        use crate::queueing::{TailConfig, TailModel};
        let mut s = two_job_server(31);
        let p95_target = s.qos(0).unwrap().target_us;
        s.set_tail(TailConfig { model: TailModel::ProcessorSharing, quantile: 0.99 });
        let p99_target = s.qos(0).unwrap().target_us;
        assert!(p99_target > p95_target, "p99 target must exceed p95 target");
        // BG jobs stay QoS-free.
        assert!(s.qos(1).is_none());
        // Erlang-C server still produces coherent observations.
        s.set_tail(TailConfig { model: TailModel::ErlangC, quantile: 0.95 });
        let p = Partition::equal_share(s.catalog(), 2).unwrap();
        let obs = s.ground_truth(&p);
        assert!(obs.jobs[0].latency_p95_us.is_finite());
        assert!(obs.jobs[0].qos_target_us.unwrap() > 0.0);
    }

    #[test]
    fn profile_override_changes_behavior() {
        use crate::workload::WorkloadProfileBuilder;
        // A memcached with 10x the CPU cost per query sustains far less.
        let heavy =
            WorkloadProfileBuilder::from(WorkloadId::Memcached).cpu_time_us(900.0).build().unwrap();
        let plain = Server::new(
            ResourceCatalog::testbed(),
            vec![JobSpec::latency_critical(WorkloadId::Memcached, 0.5)],
            1,
        )
        .unwrap();
        let custom = Server::new(
            ResourceCatalog::testbed(),
            vec![JobSpec::latency_critical(WorkloadId::Memcached, 0.5).with_profile(heavy)],
            1,
        )
        .unwrap();
        assert!(
            custom.qos(0).unwrap().max_qps < 0.5 * plain.qos(0).unwrap().max_qps,
            "heavier queries must reduce the derived max load"
        );
    }

    #[test]
    fn indices_partition_jobs() {
        let s = Server::new(
            ResourceCatalog::testbed(),
            vec![
                JobSpec::latency_critical(WorkloadId::Xapian, 0.3),
                JobSpec::background(WorkloadId::Canneal),
                JobSpec::latency_critical(WorkloadId::Masstree, 0.3),
            ],
            0,
        )
        .unwrap();
        assert_eq!(s.lc_indices(), vec![0, 2]);
        assert_eq!(s.bg_indices(), vec![1]);
        assert!(s.qos(0).is_some());
        assert!(s.qos(1).is_none());
    }
}
