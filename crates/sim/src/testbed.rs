//! The testbed abstraction: what search code is allowed to see.
//!
//! CLITE's controller is defined against an abstract node interface —
//! **apply a partition, wait one observation window, read the counters**
//! (paper §4, Fig. 5) — not against any particular machine. [`Testbed`]
//! captures exactly that contract plus the job metadata every policy needs
//! (classes, QoS specs, catalog, load), so the whole search stack
//! (`clite`, `clite-policies`, `clite-cluster`, `clite-bench`) is generic
//! over the backend. [`crate::server::Server`] is one adapter; this module
//! ships two more:
//!
//! * [`MemoizedTestbed`] — caches observations keyed by
//!   (workloads, load vector, partition), so brute-force sweeps (ORACLE,
//!   the frontier experiments) and steady-state monitoring loops stop
//!   re-simulating identical configurations;
//! * [`TestbedFactory`] / [`ServerFactory`] — deferred construction, used
//!   by the cluster scheduler to build per-node testbeds.
//!
//! Ground truth is privileged: it lives on [`OracleTestbed`], a separate
//! supertrait-extending trait, so code generic over plain [`Testbed`]
//! (every online policy) cannot reach the noise-free evaluation even by
//! accident.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::alloc::Partition;
use crate::metrics::Observation;
use crate::queueing::QosSpec;
use crate::resource::ResourceCatalog;
use crate::server::{JobSpec, Server};
use crate::workload::{JobClass, WorkloadId};
use crate::SimError;

/// The abstract co-location node every search algorithm runs against.
///
/// The mutating core is the paper's observation loop, split in two so
/// backends can intercept each half: [`Testbed::enforce`] applies a
/// partition through the isolation layer, [`Testbed::observe_window`] runs
/// one observation window and reads the (noisy) counters. The provided
/// [`Testbed::try_observe`] composes them, surfacing a mismatched
/// partition or a faulted window as a typed error.
pub trait Testbed {
    /// The resource catalog of this machine.
    fn catalog(&self) -> &ResourceCatalog;

    /// Number of co-located jobs.
    fn job_count(&self) -> usize;

    /// Job specs in job order.
    fn job_specs(&self) -> Vec<JobSpec>;

    /// Workload of job `job`.
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    fn workload(&self, job: usize) -> WorkloadId;

    /// Job class of job `job`.
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    fn class(&self, job: usize) -> JobClass;

    /// QoS spec of job `job` (`None` for BG jobs).
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    fn qos(&self, job: usize) -> Option<QosSpec>;

    /// Current load fraction of job `job` (1.0 for BG jobs).
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    fn load(&self, job: usize) -> f64;

    /// Replaces an LC job's load schedule with a constant fraction.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::JobOutOfRange`] or [`SimError::InvalidLoad`].
    fn set_load(&mut self, job: usize, load_frac: f64) -> Result<(), SimError>;

    /// Current simulated time in seconds.
    fn time_s(&self) -> f64;

    /// The observation window length in seconds (paper: 2 s).
    fn window_s(&self) -> f64;

    /// Number of observation windows run so far — the paper's "number of
    /// configurations sampled" overhead metric (Fig. 15a).
    fn samples_observed(&self) -> u64;

    /// Applies `partition` through the isolation layer, making it current.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::JobCountMismatch`] if `partition` does not have
    /// one row per co-located job, or [`SimError::CatalogMismatch`] if it
    /// was built against a different catalog.
    fn enforce(&mut self, partition: &Partition) -> Result<(), SimError>;

    /// Runs one observation window under the current partition and reads
    /// the counters. Advances simulated time by one window.
    ///
    /// Backends that can fail a window (real hardware, the fault-injection
    /// layer) override [`Testbed::try_observe_window`] instead; this
    /// infallible form is the legacy contract kept for backends whose
    /// windows always produce counters.
    fn observe_window(&mut self) -> Observation;

    /// Fallible form of [`Testbed::observe_window`]: runs one window and
    /// reads the counters, or reports *why* the window produced none.
    /// Time still advances on a faulted window — the window was spent, its
    /// counters just never arrived. The default delegates to the
    /// infallible method; fault-capable backends override this.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] fault variant (dropped window, deadline
    /// timeout, node crash) when the window yields no usable counters.
    fn try_observe_window(&mut self) -> Result<Observation, SimError> {
        Ok(self.observe_window())
    }

    /// Advances simulated time by one window length without measuring.
    fn advance_window(&mut self);

    /// Applies `partition` and runs one observation window, surfacing
    /// every failure as a typed error — the form the hardened controller
    /// hot path uses.
    ///
    /// # Errors
    ///
    /// Propagates [`Testbed::enforce`] rejections and
    /// [`Testbed::try_observe_window`] faults.
    fn try_observe(&mut self, partition: &Partition) -> Result<Observation, SimError> {
        self.enforce(partition)?;
        self.try_observe_window()
    }

    /// Indices of the latency-critical jobs.
    fn lc_indices(&self) -> Vec<usize> {
        (0..self.job_count()).filter(|&j| self.class(j) == JobClass::LatencyCritical).collect()
    }

    /// Indices of the background jobs.
    fn bg_indices(&self) -> Vec<usize> {
        (0..self.job_count()).filter(|&j| self.class(j) == JobClass::Background).collect()
    }
}

/// Privileged extension for offline schemes: noise-free, time-free
/// evaluation of a partition. Kept off [`Testbed`] so code generic over
/// the plain trait (every online policy) cannot reach ground truth.
pub trait OracleTestbed: Testbed {
    /// Noise-free, time-free evaluation of `partition`.
    ///
    /// # Panics
    ///
    /// Panics if `partition` does not have one row per co-located job.
    fn ground_truth(&self, partition: &Partition) -> Observation;
}

impl Testbed for Server {
    fn catalog(&self) -> &ResourceCatalog {
        Server::catalog(self)
    }

    fn job_count(&self) -> usize {
        Server::job_count(self)
    }

    fn job_specs(&self) -> Vec<JobSpec> {
        Server::job_specs(self)
    }

    fn workload(&self, job: usize) -> WorkloadId {
        Server::workload(self, job)
    }

    fn class(&self, job: usize) -> JobClass {
        Server::class(self, job)
    }

    fn qos(&self, job: usize) -> Option<QosSpec> {
        Server::qos(self, job)
    }

    fn load(&self, job: usize) -> f64 {
        Server::load(self, job)
    }

    fn set_load(&mut self, job: usize, load_frac: f64) -> Result<(), SimError> {
        Server::set_load(self, job, load_frac)
    }

    fn time_s(&self) -> f64 {
        Server::time_s(self)
    }

    fn window_s(&self) -> f64 {
        Server::window_s(self)
    }

    fn samples_observed(&self) -> u64 {
        Server::samples_observed(self)
    }

    fn enforce(&mut self, partition: &Partition) -> Result<(), SimError> {
        Server::enforce(self, partition)
    }

    fn observe_window(&mut self) -> Observation {
        Server::observe_window(self)
    }

    fn advance_window(&mut self) {
        Server::advance_window(self);
    }
}

impl OracleTestbed for Server {
    fn ground_truth(&self, partition: &Partition) -> Observation {
        Server::ground_truth(self, partition)
    }
}

/// Cache key: the full configuration a measurement depends on. Loads are
/// keyed bit-exactly so any load change invalidates nothing — it simply
/// maps to a different entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ObsKey {
    workloads: Vec<WorkloadId>,
    load_bits: Vec<u64>,
    partition: Partition,
}

impl ObsKey {
    fn capture<T: Testbed>(inner: &T, partition: &Partition) -> Self {
        let jobs = inner.job_count();
        Self {
            workloads: (0..jobs).map(|j| inner.workload(j)).collect(),
            load_bits: (0..jobs).map(|j| inner.load(j).to_bits()).collect(),
            partition: partition.clone(),
        }
    }

    /// Allocation-free equality check against the inner testbed's current
    /// configuration — the hot path of a cache hit.
    fn matches<T: Testbed>(&self, inner: &T, partition: &Partition) -> bool {
        self.partition == *partition
            && self.workloads.len() == inner.job_count()
            && (0..self.workloads.len()).all(|j| {
                self.workloads[j] == inner.workload(j)
                    && self.load_bits[j] == inner.load(j).to_bits()
            })
    }
}

/// Shared observation store behind [`MemoizedTestbed`]. Noisy window
/// observations and noise-free ground truths are kept in separate maps;
/// hit/miss counters cover both.
#[derive(Debug, Default)]
pub struct ObservationCache {
    observed: HashMap<ObsKey, Observation>,
    truths: HashMap<ObsKey, Observation>,
    hits: u64,
    misses: u64,
}

impl ObservationCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache behind an `Arc<Mutex<_>>`, ready to share across
    /// several [`MemoizedTestbed`] instances (e.g. re-seeded ORACLE runs
    /// over the same job mix).
    #[must_use]
    pub fn shared() -> Arc<Mutex<Self>> {
        Arc::new(Mutex::new(Self::new()))
    }

    /// Cache hits so far (windows and ground truths). Wrappers batch
    /// their fast-path replays and flush them on the next slow-path
    /// access, so this can momentarily lag [`MemoizedTestbed::hits`],
    /// which is always exact for its own wrapper.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far (windows and ground truths).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of distinct configurations stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.observed.len() + self.truths.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.observed.is_empty() && self.truths.is_empty()
    }
}

/// A caching backend: wraps any [`Testbed`] and replays the stored
/// observation when the same (workloads, load vector, partition)
/// configuration is measured again, advancing the inner clock without
/// re-simulating the window.
///
/// **Semantics note.** A hit replays the *original* measurement, so for a
/// noisy inner testbed the measurement noise of a configuration is frozen
/// at its first observation. That is exactly right for ORACLE's noise-free
/// sweeps and harmless for steady-state monitoring loops, but it changes
/// the sampling distribution online policies see — do not share a cache
/// across differently-seeded online runs.
///
/// Jobs whose [`JobSpec::profile_override`] replaces the named workload's
/// calibration are keyed by workload name only; never share a cache
/// between testbeds that give the same name different profiles.
#[derive(Debug)]
pub struct MemoizedTestbed<T: Testbed> {
    inner: T,
    cache: Arc<Mutex<ObservationCache>>,
    /// The partition most recently applied through [`Testbed::enforce`].
    /// `Testbed` deliberately does not expose the backend's current
    /// partition, so the wrapper tracks it itself to build cache keys.
    current: Option<Partition>,
    /// One-entry fast path: the key and observation of the last window
    /// served, compared allocation-free before touching the shared map.
    last: Option<(ObsKey, Observation)>,
    /// Fast-path hits not yet folded into the shared cache's counter:
    /// the replay path skips the cache mutex entirely, so its hits are
    /// batched here and flushed on the next slow-path cache access.
    /// [`Self::hits`] always reports the exact total.
    fast_hits: u64,
    /// Windows served through this wrapper (hits + misses), so
    /// [`Testbed::samples_observed`] keeps counting on hits even though
    /// the inner testbed never ran the window.
    windows: u64,
}

impl<T: Testbed> MemoizedTestbed<T> {
    /// Wraps `inner` with a fresh private cache.
    pub fn new(inner: T) -> Self {
        Self::with_shared_cache(inner, ObservationCache::shared())
    }

    /// Wraps `inner` over an existing (possibly shared) cache.
    pub fn with_shared_cache(inner: T, cache: Arc<Mutex<ObservationCache>>) -> Self {
        let windows = inner.samples_observed();
        Self { inner, cache, current: None, last: None, fast_hits: 0, windows }
    }

    /// Cache hits so far, including this wrapper's not-yet-flushed
    /// fast-path replays.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex is poisoned.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.cache.lock().expect("observation cache lock").hits + self.fast_hits
    }

    /// Cache misses so far.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex is poisoned.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.cache.lock().expect("observation cache lock").misses
    }

    /// The wrapped testbed.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Unwraps back to the inner testbed.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Testbed> Testbed for MemoizedTestbed<T> {
    fn catalog(&self) -> &ResourceCatalog {
        self.inner.catalog()
    }

    fn job_count(&self) -> usize {
        self.inner.job_count()
    }

    fn job_specs(&self) -> Vec<JobSpec> {
        self.inner.job_specs()
    }

    fn workload(&self, job: usize) -> WorkloadId {
        self.inner.workload(job)
    }

    fn class(&self, job: usize) -> JobClass {
        self.inner.class(job)
    }

    fn qos(&self, job: usize) -> Option<QosSpec> {
        self.inner.qos(job)
    }

    fn load(&self, job: usize) -> f64 {
        self.inner.load(job)
    }

    fn set_load(&mut self, job: usize, load_frac: f64) -> Result<(), SimError> {
        self.inner.set_load(job, load_frac)
    }

    fn time_s(&self) -> f64 {
        self.inner.time_s()
    }

    fn window_s(&self) -> f64 {
        self.inner.window_s()
    }

    fn samples_observed(&self) -> u64 {
        self.windows
    }

    fn enforce(&mut self, partition: &Partition) -> Result<(), SimError> {
        self.inner.enforce(partition)?;
        if self.current.as_ref() != Some(partition) {
            self.current = Some(partition.clone());
        }
        Ok(())
    }

    fn observe_window(&mut self) -> Observation {
        self.windows += 1;
        let t0 = self.inner.time_s();
        let window_s = self.inner.window_s();
        // Fast path: same configuration as the last window served by this
        // wrapper — no key allocation, no map lookup.
        let fast = match (&self.current, &self.last) {
            (Some(current), Some((key, obs))) if key.matches(&self.inner, current) => {
                Some(obs.clone())
            }
            _ => None,
        };
        if let Some(mut obs) = fast {
            obs.time_s = t0;
            obs.window_s = window_s;
            self.inner.advance_window();
            self.fast_hits += 1;
            return obs;
        }
        let Some(current) = self.current.clone() else {
            // No partition has passed through this wrapper's `enforce`
            // (the backend is still on its construction-time partition):
            // measure through without caching.
            let mut cache = self.cache.lock().expect("observation cache lock");
            cache.hits += std::mem::take(&mut self.fast_hits);
            cache.misses += 1;
            drop(cache);
            return self.inner.observe_window();
        };
        let key = ObsKey::capture(&self.inner, &current);
        let cached = {
            let mut cache = self.cache.lock().expect("observation cache lock");
            cache.hits += std::mem::take(&mut self.fast_hits);
            let found = cache.observed.get(&key).cloned();
            match found {
                Some(obs) => {
                    cache.hits += 1;
                    Some(obs)
                }
                None => {
                    cache.misses += 1;
                    None
                }
            }
        };
        let obs = match cached {
            Some(mut obs) => {
                obs.time_s = t0;
                obs.window_s = window_s;
                self.inner.advance_window();
                obs
            }
            None => {
                let obs = self.inner.observe_window();
                self.cache
                    .lock()
                    .expect("observation cache lock")
                    .observed
                    .insert(key.clone(), obs.clone());
                obs
            }
        };
        self.last = Some((key, obs.clone()));
        obs
    }

    fn advance_window(&mut self) {
        self.inner.advance_window();
    }
}

impl<T: OracleTestbed> OracleTestbed for MemoizedTestbed<T> {
    fn ground_truth(&self, partition: &Partition) -> Observation {
        let key = ObsKey::capture(&self.inner, partition);
        {
            let mut cache = self.cache.lock().expect("observation cache lock");
            let found = cache.truths.get(&key).cloned();
            if let Some(obs) = found {
                cache.hits += 1;
                return obs;
            }
            cache.misses += 1;
        }
        let obs = self.inner.ground_truth(partition);
        self.cache.lock().expect("observation cache lock").truths.insert(key, obs.clone());
        obs
    }
}

/// Deferred testbed construction: how the cluster scheduler materializes a
/// per-node testbed for an admission search (possibly inside a worker
/// thread, so factories must be shareable by reference).
pub trait TestbedFactory {
    /// The testbed type this factory builds.
    type Output: Testbed;

    /// Builds a testbed hosting `jobs` on a machine with `catalog`,
    /// seeded by `seed`.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when the job set cannot be hosted (empty,
    /// over capacity, invalid load).
    fn build(
        &self,
        catalog: ResourceCatalog,
        jobs: Vec<JobSpec>,
        seed: u64,
    ) -> Result<Self::Output, SimError>;
}

/// The default factory: simulated [`Server`] nodes with default
/// measurement noise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerFactory;

impl TestbedFactory for ServerFactory {
    type Output = Server;

    fn build(
        &self,
        catalog: ResourceCatalog,
        jobs: Vec<JobSpec>,
        seed: u64,
    ) -> Result<Server, SimError> {
        Server::new(catalog, jobs, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceKind;

    fn server(seed: u64) -> Server {
        Server::new(
            ResourceCatalog::testbed(),
            vec![
                JobSpec::latency_critical(WorkloadId::Memcached, 0.4),
                JobSpec::background(WorkloadId::Blackscholes),
            ],
            seed,
        )
        .unwrap()
    }

    fn observe_via_trait<T: Testbed>(t: &mut T, p: &Partition) -> Observation {
        t.try_observe(p).unwrap()
    }

    #[test]
    fn server_implements_testbed() {
        let mut s = server(1);
        let p = Partition::equal_share(Testbed::catalog(&s), 2).unwrap();
        let obs = observe_via_trait(&mut s, &p);
        assert_eq!(obs.jobs.len(), 2);
        assert_eq!(Testbed::samples_observed(&s), 1);
        assert_eq!(Testbed::lc_indices(&s), vec![0]);
        assert_eq!(Testbed::bg_indices(&s), vec![1]);
    }

    #[test]
    fn memoized_replays_identical_observation_and_advances_time() {
        let mut m = MemoizedTestbed::new(server(2));
        let p = Partition::equal_share(m.catalog(), 2).unwrap();
        let first = m.try_observe(&p).unwrap();
        assert_eq!((m.hits(), m.misses()), (0, 1));
        let t1 = m.time_s();
        let second = m.try_observe(&p).unwrap();
        assert_eq!((m.hits(), m.misses()), (1, 1));
        // Same measurements, patched timestamp, clock still moving.
        assert_eq!(first.jobs, second.jobs);
        assert!((second.time_s - t1).abs() < 1e-12);
        assert!(m.time_s() >= t1 + m.window_s());
        assert_eq!(m.samples_observed(), 2);
    }

    #[test]
    fn memoized_misses_on_changed_partition_or_load() {
        let mut m = MemoizedTestbed::new(server(3));
        let p = Partition::equal_share(m.catalog(), 2).unwrap();
        m.try_observe(&p).unwrap();
        let q = p.transfer(ResourceKind::Cores, 1, 0, 2).unwrap();
        m.try_observe(&q).unwrap();
        assert_eq!((m.hits(), m.misses()), (0, 2));
        // Back to the first partition: hit through the shared map even
        // though the one-entry fast path moved on.
        m.try_observe(&p).unwrap();
        assert_eq!((m.hits(), m.misses()), (1, 2));
        // A load change means a different configuration entirely.
        m.set_load(0, 0.7).unwrap();
        m.try_observe(&p).unwrap();
        assert_eq!((m.hits(), m.misses()), (1, 3));
    }

    #[test]
    fn memoized_ground_truth_cached_and_exact() {
        let m = MemoizedTestbed::new(server(4));
        let p = Partition::equal_share(m.catalog(), 2).unwrap();
        let direct = m.inner().ground_truth(&p);
        let a = OracleTestbed::ground_truth(&m, &p);
        let b = OracleTestbed::ground_truth(&m, &p);
        assert_eq!(a, direct);
        assert_eq!(a, b);
        assert_eq!((m.hits(), m.misses()), (1, 1));
    }

    #[test]
    fn shared_cache_spans_wrappers() {
        let cache = ObservationCache::shared();
        let m1 = MemoizedTestbed::with_shared_cache(server(5), Arc::clone(&cache));
        let p = Partition::equal_share(m1.catalog(), 2).unwrap();
        let a = m1.ground_truth(&p);
        // Different seed, same specs/loads: ground truth is noise-free, so
        // the second wrapper may reuse the first one's evaluation.
        let m2 = MemoizedTestbed::with_shared_cache(server(6), Arc::clone(&cache));
        let b = m2.ground_truth(&p);
        assert_eq!(a, b);
        let guard = cache.lock().unwrap();
        assert_eq!((guard.hits(), guard.misses()), (1, 1));
        assert_eq!(guard.len(), 1);
        assert!(!guard.is_empty());
    }

    #[test]
    fn factory_builds_working_server() {
        let f = ServerFactory;
        let t = f
            .build(
                ResourceCatalog::testbed(),
                vec![JobSpec::latency_critical(WorkloadId::Xapian, 0.3)],
                7,
            )
            .unwrap();
        assert_eq!(Testbed::job_count(&t), 1);
        assert!(f.build(ResourceCatalog::testbed(), vec![], 7).is_err());
    }

    #[test]
    fn enforce_rejects_malformed_partitions_via_trait() {
        let mut s = server(8);
        let wrong_rows = Partition::equal_share(Server::catalog(&s), 3).unwrap();
        assert!(matches!(
            Testbed::enforce(&mut s, &wrong_rows),
            Err(SimError::JobCountMismatch { expected: 2, actual: 3 })
        ));
        let other_catalog = ResourceCatalog::coarse();
        let foreign = Partition::equal_share(&other_catalog, 2).unwrap();
        assert!(matches!(Testbed::enforce(&mut s, &foreign), Err(SimError::CatalogMismatch)));
    }
}
