//! A single server in the fleet and its committed job set.

use std::sync::Arc;

use clite::config::CliteConfig;
use clite::controller::CliteController;
use clite::trace::CliteOutcome;
use clite_sim::prelude::*;
use clite_sim::testbed::{ServerFactory, TestbedFactory};
use clite_store::{MixSignature, ShardedStore};
use clite_telemetry::Telemetry;

use crate::wire::{CommittedOutcome, NodeSnapshot};
use crate::ClusterError;

/// A placed job: cluster-wide id plus its spec.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedJob {
    /// Cluster-assigned job id (stable across re-partitionings).
    pub id: u64,
    /// The job's specification.
    pub spec: JobSpec,
}

/// One server of the fleet with its committed jobs and the most recent
/// CLITE outcome for that job set.
///
/// Generic over the [`TestbedFactory`] used to build the per-search
/// testbed; the default [`ServerFactory`] builds the in-process simulator.
#[derive(Debug)]
pub struct Node<F: TestbedFactory = ServerFactory> {
    id: usize,
    catalog: ResourceCatalog,
    seed: u64,
    factory: F,
    /// The committed jobs, shared with every snapshot taken since the
    /// commit that installed them; rebuilt on a commit (admission,
    /// removal, load shift), never mutated while a snapshot holds them.
    jobs: Arc<[PlacedJob]>,
    /// The committed outcome, shared with every snapshot taken since the
    /// commit that installed it; replaced, never mutated.
    last_outcome: Option<Arc<CommittedOutcome>>,
    searches_run: usize,
    samples_spent: u64,
    commits: u64,
    store: Option<Arc<ShardedStore>>,
    alive: bool,
}

impl Node {
    /// Creates an empty node backed by the simulated [`Server`].
    #[must_use]
    pub fn new(id: usize, catalog: ResourceCatalog, seed: u64) -> Self {
        Self::with_factory(id, catalog, seed, ServerFactory)
    }
}

impl<F: TestbedFactory> Node<F> {
    /// Creates an empty node whose admission searches run on testbeds
    /// built by `factory`.
    #[must_use]
    pub fn with_factory(id: usize, catalog: ResourceCatalog, seed: u64, factory: F) -> Self {
        Self {
            id,
            catalog,
            seed,
            factory,
            jobs: Arc::default(),
            last_outcome: None,
            searches_run: 0,
            samples_spent: 0,
            commits: 0,
            store: None,
            alive: true,
        }
    }

    /// Captures the node's restorable state for a fleet checkpoint: the
    /// jobs and the committed outcome (both shared, not copied), and the
    /// seed/commit bookkeeping future search seeds derive from.
    #[must_use]
    pub fn snapshot(&self) -> NodeSnapshot {
        NodeSnapshot {
            id: self.id,
            seed: self.seed,
            alive: self.alive,
            commits: self.commits,
            searches_run: self.searches_run,
            samples_spent: self.samples_spent,
            jobs: Arc::clone(&self.jobs),
            last_outcome: self.last_outcome.clone(),
        }
    }

    /// Rebuilds a node from a checkpoint snapshot. The catalog and factory
    /// are reattached by the caller (they are configuration, not state);
    /// the store handle, if any, is installed via [`Node::set_store`].
    #[must_use]
    pub fn from_snapshot(snap: NodeSnapshot, catalog: ResourceCatalog, factory: F) -> Self {
        Self {
            id: snap.id,
            catalog,
            seed: snap.seed,
            factory,
            jobs: snap.jobs,
            last_outcome: snap.last_outcome,
            searches_run: snap.searches_run,
            samples_spent: snap.samples_spent,
            commits: snap.commits,
            store: None,
            alive: snap.alive,
        }
    }

    /// Attaches a shared observation store: admission probes and
    /// re-partitioning searches warm-start from it, and committed searches
    /// append their samples back (see [`Node::try_admit`]).
    #[must_use]
    pub fn with_store(mut self, store: Arc<ShardedStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Installs (or replaces) the shared observation store in place.
    pub fn set_store(&mut self, store: Arc<ShardedStore>) {
        self.store = Some(store);
    }

    /// Node id within the cluster.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Committed jobs in placement order.
    #[must_use]
    pub fn jobs(&self) -> &[PlacedJob] {
        &self.jobs
    }

    /// Number of committed jobs.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the node can physically host one more job (every resource
    /// needs a spare unit).
    #[must_use]
    pub fn has_capacity_for_one_more(&self) -> bool {
        self.catalog.supports_jobs(self.jobs.len() + 1)
    }

    /// Whether the node is in service. Dead nodes (crashed mid-search and
    /// evicted by the scheduler) never host jobs again.
    #[must_use]
    pub fn alive(&self) -> bool {
        self.alive
    }

    /// Takes the node out of service after a crash: its committed jobs are
    /// drained (the scheduler re-places them elsewhere), its outcome is
    /// discarded, and every future [`Node::try_admit`] returns
    /// `Ok(false)` without searching. Search/sample bookkeeping is frozen,
    /// not reset.
    pub fn mark_dead(&mut self) -> Vec<PlacedJob> {
        self.alive = false;
        self.last_outcome = None;
        std::mem::take(&mut self.jobs).to_vec()
    }

    /// The most recent CLITE outcome for the committed job set (`None`
    /// while the node is empty), without its wall-clock overhead report.
    #[must_use]
    pub fn last_outcome(&self) -> Option<&CliteOutcome> {
        self.last_outcome.as_deref().map(CommittedOutcome::outcome)
    }

    /// Number of CLITE searches this node has been charged for
    /// (admission probes + removals).
    #[must_use]
    pub fn searches_run(&self) -> usize {
        self.searches_run
    }

    /// Total observation windows this node has spent partitioning.
    #[must_use]
    pub fn samples_spent(&self) -> u64 {
        self.samples_spent
    }

    /// Committed state changes (admissions + removals) so far.
    #[must_use]
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Sum of the committed LC jobs' load fractions — a quick headroom
    /// proxy used by placement policies.
    #[must_use]
    pub fn committed_lc_load(&self) -> f64 {
        self.jobs
            .iter()
            .filter(|j| j.spec.class() == JobClass::LatencyCritical)
            .map(|j| j.spec.load.at(0.0))
            .sum()
    }

    /// Builds a live testbed hosting this node's committed jobs with the
    /// last committed partition already enforced — the state a load
    /// harness should drive queries at. Returns `Ok(None)` when the node
    /// has no committed search yet (nothing to load), or is dead.
    ///
    /// # Errors
    ///
    /// Propagates factory failures building the testbed and simulator
    /// failures enforcing the committed partition.
    pub fn loaded_testbed(&self) -> Result<Option<F::Output>, ClusterError> {
        let Some(outcome) = (self.alive).then_some(()).and(self.last_outcome()) else {
            return Ok(None);
        };
        let specs: Vec<JobSpec> = self.jobs.iter().map(|j| j.spec.clone()).collect();
        // Committed state only: the same seed the committing search used,
        // so the testbed reproduces the conditions the partition was
        // chosen under.
        let seed = self.seed.wrapping_add(self.commits);
        let mut testbed = self.factory.build(self.catalog, specs, seed)?;
        testbed.enforce(&outcome.best_partition)?;
        Ok(Some(testbed))
    }

    /// Seed for the next search. A pure function of *committed* state, so
    /// probes that are not committed — however many — never shift the
    /// seeds of later searches, and a replayed event history reproduces
    /// every search bit for bit.
    fn search_seed(&self) -> u64 {
        self.seed.wrapping_add(self.commits + 1)
    }

    /// One admission/re-partition search on the given tentative job set,
    /// warm-started from the shared store when one is attached. Probes
    /// only *read* the store (plus hit/miss accounting); samples are
    /// appended at commit time, so the store holds only committed
    /// searches' samples.
    fn run_search(
        &self,
        specs: Vec<JobSpec>,
        config: &CliteConfig,
        telemetry: &Telemetry<'_>,
    ) -> Result<(CliteOutcome, Option<MixSignature>), ClusterError> {
        let seed = self.search_seed();
        let mut testbed = self.factory.build(self.catalog, specs, seed)?;
        let controller = CliteController::new(config.clone().with_seed(seed));
        match &self.store {
            Some(store) => {
                let signature = MixSignature::capture(&testbed);
                let warm = store.warm_start_with(&signature, telemetry);
                let outcome = match &warm {
                    Some(warm) => controller.run_warmed(&mut testbed, warm, telemetry)?,
                    None => controller.run_with(&mut testbed, telemetry)?,
                };
                Ok((outcome, Some(signature)))
            }
            None => Ok((controller.run_with(&mut testbed, telemetry)?, None)),
        }
    }

    /// Appends a committed search's samples to the shared store.
    /// Best-effort: an unwritable log must not fail a placement the
    /// search already proved feasible, so failures only bump the store's
    /// `append_errors` counter.
    fn store_samples(&self, signature: Option<&MixSignature>, outcome: &CliteOutcome) {
        let (Some(store), Some(signature)) = (&self.store, signature) else {
            return;
        };
        for rec in &outcome.samples {
            let _ = store.append(signature, &rec.partition, &rec.observation, rec.score.value);
        }
    }

    /// Installs `outcome` as the committed outcome, replacing (not
    /// mutating) the shared record snapshots may still hold.
    fn install(&mut self, outcome: CliteOutcome) {
        self.last_outcome = Some(Arc::new(CommittedOutcome::new(outcome)));
    }

    /// Tries to admit `job`: runs a CLITE search on the committed set plus
    /// `job` and commits only if every LC job (old and new) meets QoS. The
    /// admission search's events and phase timings flow through
    /// `telemetry`.
    ///
    /// Every search is charged to the node's bookkeeping
    /// ([`Node::searches_run`], [`Node::samples_spent`]), feasible or not.
    /// On success the job joins the node, the found partition becomes the
    /// committed outcome, and — when a store is attached — the search's
    /// samples are appended (best-effort) for future warm starts; it
    /// returns `Ok(true)`. An infeasible search changes nothing else and
    /// never reaches the store: `Ok(false)`, as for a dead node or one
    /// without physical capacity for one more job (no search runs then).
    ///
    /// # Errors
    ///
    /// Propagates controller/simulator failures. A search that surfaces a
    /// node crash ([`ClusterError::is_node_crash`]) means the *node*
    /// failed, not the search: the scheduler evicts it.
    pub fn try_admit(
        &mut self,
        job: PlacedJob,
        config: &CliteConfig,
        telemetry: &Telemetry<'_>,
    ) -> Result<bool, ClusterError> {
        if !self.alive || !self.catalog.supports_jobs(self.jobs.len() + 1) {
            return Ok(false);
        }
        let mut tentative: Vec<JobSpec> = self.jobs.iter().map(|j| j.spec.clone()).collect();
        tentative.push(job.spec.clone());
        let (outcome, signature) = self.run_search(tentative, config, telemetry)?;
        self.searches_run += 1;
        self.samples_spent += outcome.samples_used() as u64;
        let feasible = outcome.qos_met();
        if feasible {
            self.store_samples(signature.as_ref(), &outcome);
            self.jobs = self.jobs.iter().cloned().chain([job]).collect();
            self.install(outcome);
            self.commits += 1;
        }
        Ok(feasible)
    }

    /// Removes a job by id and re-partitions the remainder.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownJob`] if the id is not on this node;
    /// propagates controller/simulator failures from the re-partitioning
    /// search.
    pub fn remove(
        &mut self,
        job_id: u64,
        config: &CliteConfig,
        telemetry: &Telemetry<'_>,
    ) -> Result<(), ClusterError> {
        let idx = self.job_position(job_id)?;
        let mut jobs = self.jobs.to_vec();
        jobs.remove(idx);
        self.jobs = jobs.into();
        self.commits += 1;
        if self.jobs.is_empty() {
            self.last_outcome = None;
            return Ok(());
        }
        self.repartition(config, telemetry)
    }

    /// Replaces a committed job's load schedule (the fleet's `load_shift`
    /// event) and re-partitions the node under the new load. The change is
    /// a commit — later search seeds shift exactly as they would for an
    /// admission or departure.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownJob`] if the id is not on this node;
    /// propagates controller/simulator failures from the re-partitioning
    /// search.
    pub fn update_load(
        &mut self,
        job_id: u64,
        load: LoadSchedule,
        config: &CliteConfig,
        telemetry: &Telemetry<'_>,
    ) -> Result<(), ClusterError> {
        let idx = self.job_position(job_id)?;
        Arc::make_mut(&mut self.jobs)[idx].spec.load = load;
        self.commits += 1;
        self.repartition(config, telemetry)
    }

    /// Index of committed job `job_id`.
    fn job_position(&self, job_id: u64) -> Result<usize, ClusterError> {
        self.jobs
            .iter()
            .position(|j| j.id == job_id)
            .ok_or(ClusterError::UnknownJob { job: job_id })
    }

    /// Re-partitions the committed job set after a departure or load
    /// change: searches it, stores the samples, charges the search and
    /// installs its outcome.
    fn repartition(
        &mut self,
        config: &CliteConfig,
        telemetry: &Telemetry<'_>,
    ) -> Result<(), ClusterError> {
        let specs: Vec<JobSpec> = self.jobs.iter().map(|j| j.spec.clone()).collect();
        let (outcome, signature) = self.run_search(specs, config, telemetry)?;
        self.store_samples(signature.as_ref(), &outcome);
        self.searches_run += 1;
        self.samples_spent += outcome.samples_used() as u64;
        self.install(outcome);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::LazyLock;

    /// One disabled context shared by every test here.
    static OFF: LazyLock<Telemetry<'static>> = LazyLock::new(Telemetry::disabled);

    fn node() -> Node {
        Node::new(0, ResourceCatalog::testbed(), 1)
    }

    fn lc(workload: WorkloadId, load: f64) -> JobSpec {
        JobSpec::latency_critical(workload, load)
    }

    /// [`Node::try_admit`] under the default CLITE config.
    fn admit(n: &mut Node, id: u64, spec: JobSpec) -> bool {
        n.try_admit(PlacedJob { id, spec }, &CliteConfig::default(), &OFF).unwrap()
    }

    fn remove(n: &mut Node, id: u64) -> Result<(), ClusterError> {
        n.remove(id, &CliteConfig::default(), &OFF)
    }

    #[test]
    fn empty_node_admits_light_job() {
        let mut n = node();
        assert!(admit(&mut n, 1, lc(WorkloadId::Memcached, 0.2)));
        assert_eq!(n.job_count(), 1);
        assert!(n.last_outcome().is_some());
        assert!(n.searches_run() >= 1);
        assert_eq!(n.commits(), 1);
    }

    #[test]
    fn rejects_infeasible_addition_and_stays_unchanged() {
        let mut n = node();
        for (i, w) in [WorkloadId::ImgDnn, WorkloadId::Masstree].iter().enumerate() {
            assert!(admit(&mut n, i as u64, lc(*w, 0.8)));
        }
        let before = n.job_count();
        // A third heavily-loaded job cannot fit.
        assert!(!admit(&mut n, 99, lc(WorkloadId::Specjbb, 0.9)));
        assert_eq!(n.job_count(), before, "rejected job must not linger");
        assert_eq!(n.commits(), 2, "failed probes are not commits");
    }

    #[test]
    fn uncommitted_probes_never_shift_the_next_search() {
        // Search seeds derive from commits, not probes: a node that paid
        // for a failed probe searches its next admission exactly as a
        // twin that never probed.
        let (mut a, mut b) = (node(), node());
        for n in [&mut a, &mut b] {
            for (i, w) in [WorkloadId::ImgDnn, WorkloadId::Masstree].iter().enumerate() {
                assert!(admit(n, i as u64, lc(*w, 0.8)));
            }
        }
        assert!(!admit(&mut a, 99, lc(WorkloadId::Specjbb, 0.9)));
        assert_eq!(a.searches_run(), b.searches_run() + 1, "the failed probe was charged");
        for n in [&mut a, &mut b] {
            assert!(admit(n, 3, JobSpec::background(WorkloadId::Swaptions)));
        }
        let (a, b) = (a.last_outcome().unwrap(), b.last_outcome().unwrap());
        assert_eq!(a.best_partition, b.best_partition);
        assert_eq!(a.samples_used(), b.samples_used());
    }

    #[test]
    fn loaded_testbed_reflects_committed_partition() {
        let mut n = node();
        assert!(n.loaded_testbed().unwrap().is_none(), "empty node has nothing to load");
        assert!(admit(&mut n, 1, lc(WorkloadId::Memcached, 0.3)));
        let testbed = n.loaded_testbed().unwrap().expect("committed node builds a testbed");
        assert_eq!(testbed.job_count(), 1);
        assert_eq!(testbed.workload(0), WorkloadId::Memcached);
        // Same committed state → identical testbed, ready for a load run.
        let again = n.loaded_testbed().unwrap().unwrap();
        assert_eq!(again.job_count(), testbed.job_count());
    }

    #[test]
    fn remove_unknown_job_errors() {
        let mut n = node();
        assert!(matches!(remove(&mut n, 42), Err(ClusterError::UnknownJob { job: 42 })));
    }

    #[test]
    fn remove_repartitions_remainder() {
        let mut n = node();
        for (i, w) in [WorkloadId::Memcached, WorkloadId::Xapian].iter().enumerate() {
            assert!(admit(&mut n, i as u64, lc(*w, 0.2)));
        }
        remove(&mut n, 0).unwrap();
        assert_eq!(n.job_count(), 1);
        assert_eq!(n.jobs()[0].id, 1);
        assert!(n.last_outcome().unwrap().qos_met());
        remove(&mut n, 1).unwrap();
        assert!(n.last_outcome().is_none());
    }

    #[test]
    fn store_backed_node_warm_starts_repeat_mixes() {
        use clite_store::{ShardPolicy, ShardedStore};

        let store = ShardedStore::in_memory(ShardPolicy::with_shards(1));
        let mut n = node().with_store(store.clone());
        let base = lc(WorkloadId::Memcached, 0.3);
        let spec = lc(WorkloadId::Xapian, 0.3);

        // Two cold admissions (1-job mix, then 2-job mix); each commit
        // appends its samples to the store.
        assert!(admit(&mut n, 1, base));
        let after_first = n.samples_spent();
        assert!(admit(&mut n, 2, spec.clone()));
        let cold_two_job = n.samples_spent() - after_first;
        assert_eq!(store.stats().misses, 2, "both cold probes miss");
        assert!(store.stats().appends > 0);

        // Departure + identical re-admission probes the same 2-job mix:
        // the probe warm-starts from the committed samples and spends
        // strictly fewer windows than the cold 2-job search did.
        remove(&mut n, 2).unwrap();
        let before_warm = n.samples_spent();
        assert!(admit(&mut n, 3, spec));
        let warm_two_job = n.samples_spent() - before_warm;
        assert!(store.stats().hits >= 1);
        assert!(
            warm_two_job < cold_two_job,
            "warm re-admission spent {warm_two_job} windows, cold spent {cold_two_job}"
        );
    }

    /// The checkpoint bytes of a fleet holding only `snap`.
    fn checkpoint_bytes(snap: &NodeSnapshot) -> Vec<u8> {
        use crate::wire::{encode_checkpoint, FleetCheckpoint, SchedulerSnapshot};
        encode_checkpoint(&FleetCheckpoint {
            seqno: 0,
            clock_now: 0,
            counters: crate::fleet::FleetCounters::default(),
            placements: Vec::new(),
            scheduler: SchedulerSnapshot {
                next_job_id: 0,
                rejected: 0,
                replaced: 0,
                base_seed: 0,
                nodes: vec![snap.clone()],
            },
        })
    }

    #[test]
    fn snapshots_share_the_job_list_and_keep_their_bytes_across_commits() {
        let mut n = node();
        assert!(admit(&mut n, 1, lc(WorkloadId::Memcached, 0.2)));
        assert!(admit(&mut n, 2, lc(WorkloadId::Xapian, 0.2)));
        let first = n.snapshot();
        assert!(Arc::ptr_eq(&first.jobs, &n.jobs), "a snapshot shares the node's jobs");
        assert!(Arc::ptr_eq(&n.snapshot().jobs, &first.jobs), "and so does the next one");
        let first_bytes = checkpoint_bytes(&first);

        // Each kind of commit on the live node leaves every earlier
        // snapshot's bytes as they were, and moves the node's own.
        type Commit = fn(&mut Node);
        let commits: [(&str, Commit); 3] = [
            ("load shift", |n| {
                let load = LoadSchedule::Constant(0.3);
                n.update_load(1, load, &CliteConfig::default(), &OFF).unwrap();
            }),
            ("admission", |n| assert!(admit(n, 3, lc(WorkloadId::Memcached, 0.1)))),
            ("removal", |n| remove(n, 2).unwrap()),
        ];
        for (kind, commit) in commits {
            let before = n.snapshot();
            let before_bytes = checkpoint_bytes(&before);
            commit(&mut n);
            assert_eq!(checkpoint_bytes(&before), before_bytes, "{kind} changed a snapshot");
            assert_eq!(checkpoint_bytes(&first), first_bytes, "{kind} changed the first snapshot");
            assert!(!Arc::ptr_eq(&before.jobs, &n.jobs), "{kind} wrote through a shared list");
            assert_ne!(checkpoint_bytes(&n.snapshot()), before_bytes, "{kind} committed nothing");
        }
        assert_eq!(n.jobs().iter().map(|j| j.id).collect::<Vec<_>>(), [1, 3]);
    }

    #[test]
    fn committed_lc_load_sums_lc_only() {
        let mut n = node();
        admit(&mut n, 1, lc(WorkloadId::Memcached, 0.3));
        admit(&mut n, 2, JobSpec::background(WorkloadId::Swaptions));
        assert!((n.committed_lc_load() - 0.3).abs() < 1e-12);
    }
}
