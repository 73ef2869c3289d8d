//! Cluster-level admission control.

use std::collections::HashMap;
use std::sync::Arc;

use clite::config::CliteConfig;
use clite_bo::termination::Termination;
use clite_sim::prelude::*;
use clite_sim::testbed::{ServerFactory, TestbedFactory};
use clite_store::ShardedStore;
use clite_telemetry::{Event, Telemetry};

use crate::node::{Node, PlacedJob};
use crate::placement::PlacementPolicy;
use crate::stats::ClusterStats;
use crate::wire::SchedulerSnapshot;
use crate::ClusterError;

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Node try-order policy.
    pub placement: PlacementPolicy,
    /// CLITE configuration used for admission searches. The default uses
    /// a tighter iteration cap than a standalone run: admission needs a
    /// feasibility answer quickly, and the committed partition keeps
    /// being refined by later searches anyway.
    pub clite: CliteConfig,
    /// Most candidate nodes probed per admission (`None` = all). At fleet
    /// size, probing every candidate makes each admission O(fleet)
    /// searches; the placement policy's ordering makes the first few
    /// candidates the likely winners, so a small cap loses little.
    pub probe_limit: Option<usize>,
    /// Per-admission deadline budget in observation windows: once the
    /// windows recorded against candidates for *this* admission reach the
    /// budget, the remaining candidates are not probed (the arrival is
    /// rejected if none was feasible yet). Checked before each candidate.
    /// `None` disables the deadline.
    pub deadline_samples: Option<u64>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            placement: PlacementPolicy::default(),
            clite: CliteConfig::default()
                .with_termination(Termination { max_iterations: 30, ..Termination::default() }),
            probe_limit: None,
            deadline_samples: None,
        }
    }
}

/// Where a job ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Cluster-assigned job id.
    pub job_id: u64,
    /// Node hosting the job.
    pub node: usize,
}

/// The fleet scheduler: submits jobs to nodes, testing QoS feasibility
/// with a per-node CLITE search before committing.
///
/// Generic over the [`TestbedFactory`] its nodes probe with.
#[derive(Debug)]
pub struct ClusterScheduler<F: TestbedFactory = ServerFactory> {
    nodes: Vec<Node<F>>,
    config: SchedulerConfig,
    next_job_id: u64,
    rejected: u64,
    /// Orphaned jobs successfully re-homed after their node crashed.
    replaced: u64,
    /// Builder for onboarded nodes ([`ClusterScheduler::add_nodes`]).
    factory: F,
    /// Base seed; node `i` searches from `base_seed + 1000·i`.
    base_seed: u64,
    /// Store handle handed to onboarded nodes.
    store: Option<Arc<ShardedStore>>,
    /// job id → node id for O(1) departures and load shifts.
    job_index: HashMap<u64, usize>,
    /// Fleet statistics maintained incrementally: every probe, commit,
    /// eviction, or load change refreshes exactly the touched node's
    /// snapshot, so [`ClusterScheduler::stats`] never walks the fleet.
    /// `incremental_stats_match_collect` pins it to the from-scratch
    /// [`ClusterStats::collect`].
    stats: ClusterStats,
}

impl ClusterScheduler {
    /// Builds a cluster of `nodes` identical testbed servers.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::EmptyCluster`] for zero nodes.
    pub fn new(nodes: usize, config: SchedulerConfig, seed: u64) -> Result<Self, ClusterError> {
        Self::with_factory(nodes, config, seed, ServerFactory)
    }
}

impl<F: TestbedFactory> ClusterScheduler<F> {
    /// Builds a cluster of `nodes` identical machines whose admission
    /// searches run on testbeds built by `factory`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::EmptyCluster`] for zero nodes.
    pub fn with_factory(
        nodes: usize,
        config: SchedulerConfig,
        seed: u64,
        factory: F,
    ) -> Result<Self, ClusterError>
    where
        F: Clone,
    {
        if nodes == 0 {
            return Err(ClusterError::EmptyCluster);
        }
        let nodes: Vec<Node<F>> = (0..nodes)
            .map(|i| {
                Node::with_factory(
                    i,
                    ResourceCatalog::testbed(),
                    seed.wrapping_add(1000 * i as u64),
                    factory.clone(),
                )
            })
            .collect();
        let stats = ClusterStats::collect(&nodes, 0);
        Ok(Self {
            nodes,
            config,
            next_job_id: 0,
            rejected: 0,
            replaced: 0,
            factory,
            base_seed: seed,
            store: None,
            job_index: HashMap::new(),
            stats,
        })
    }

    /// Attaches one shared observation store to every node in the fleet:
    /// admission probes and re-partitioning searches warm-start
    /// from the pooled samples, and committed searches append back to it.
    /// Lookups depend only on per-mix bucket content, so every shard count
    /// places an identical fleet.
    #[must_use]
    pub fn with_store(mut self, store: Arc<ShardedStore>) -> Self {
        for node in &mut self.nodes {
            node.set_store(Arc::clone(&store));
        }
        self.store = Some(store);
        self
    }

    /// The fleet.
    #[must_use]
    pub fn nodes(&self) -> &[Node<F>] {
        &self.nodes
    }

    /// The scheduler configuration in force.
    #[must_use]
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Brings `count` new (empty) nodes into service, returning their
    /// ids. Onboarded nodes get the same per-id seed schedule as founding
    /// nodes — a fleet grown to `N` is byte-identical to one built at `N`
    /// — and share the fleet's observation store.
    pub fn add_nodes(&mut self, count: usize) -> Vec<usize>
    where
        F: Clone,
    {
        let start = self.nodes.len();
        for i in start..start + count {
            let mut node = Node::with_factory(
                i,
                ResourceCatalog::testbed(),
                self.base_seed.wrapping_add(1000 * i as u64),
                self.factory.clone(),
            );
            if let Some(store) = &self.store {
                node.set_store(store.clone());
            }
            self.stats.add_node(&node);
            self.nodes.push(node);
        }
        (start..start + count).collect()
    }

    /// Jobs rejected so far (no node could host them with QoS intact).
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Orphaned jobs successfully re-placed onto surviving nodes after
    /// their original node crashed.
    #[must_use]
    pub fn replaced(&self) -> u64 {
        self.replaced
    }

    /// Submits a job: tries nodes in the placement policy's order and
    /// commits to the first where a CLITE search finds a QoS-feasible
    /// partition. Returns the placement, or `None` if every node rejected
    /// the job (the caller would queue or scale out). A successful commit
    /// emits [`Event::Placement`], and the admission searches' events and
    /// phase timings flow through `telemetry`.
    ///
    /// # Errors
    ///
    /// Propagates controller/simulator failures.
    pub fn submit(
        &mut self,
        spec: JobSpec,
        telemetry: &Telemetry<'_>,
    ) -> Result<Option<Placement>, ClusterError> {
        let job_id = self.next_job_id;
        self.next_job_id += 1;
        let placement = self.admit_job(PlacedJob { id: job_id, spec }, telemetry)?;
        if placement.is_none() {
            self.note_rejected();
        }
        Ok(placement)
    }

    /// Counts one rejection in both the counter and the cached stats.
    fn note_rejected(&mut self) {
        self.rejected += 1;
        self.stats.rejected = self.rejected;
    }

    /// Consumes a job id for a shed arrival without probing any node.
    /// Shedding must keep the "arrival `k` has id `k`" invariant — later
    /// departures and load shifts reference ids positionally — so a shed
    /// arrival burns its id exactly as a rejected one would.
    pub fn note_shed(&mut self) -> u64 {
        let job_id = self.next_job_id;
        self.next_job_id += 1;
        job_id
    }

    /// Total observation windows charged across the fleet, from the
    /// incrementally maintained statistics (no node is touched).
    #[must_use]
    pub fn total_samples_spent(&self) -> u64 {
        self.stats.nodes.iter().map(|n| n.samples_spent).sum()
    }

    /// Captures the scheduler's restorable state (id counters plus every
    /// node) for a fleet checkpoint.
    #[must_use]
    pub fn snapshot(&self) -> SchedulerSnapshot {
        SchedulerSnapshot {
            next_job_id: self.next_job_id,
            rejected: self.rejected,
            replaced: self.replaced,
            base_seed: self.base_seed,
            nodes: self.nodes.iter().map(Node::snapshot).collect(),
        }
    }

    /// Rebuilds a scheduler from a checkpoint snapshot. The job index and
    /// cluster statistics are re-derived from the restored nodes; the
    /// store handle, when given, is reattached to every node (recovered
    /// byte-identity is only guaranteed storeless — a warm store changes
    /// future searches, exactly as it would on a never-crashed run that
    /// pre-warmed it differently).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::EmptyCluster`] for a snapshot with no nodes.
    pub fn restore(
        snap: SchedulerSnapshot,
        config: SchedulerConfig,
        factory: F,
        store: Option<Arc<ShardedStore>>,
    ) -> Result<Self, ClusterError>
    where
        F: Clone,
    {
        if snap.nodes.is_empty() {
            return Err(ClusterError::EmptyCluster);
        }
        let mut nodes: Vec<Node<F>> = snap
            .nodes
            .into_iter()
            .map(|n| Node::from_snapshot(n, ResourceCatalog::testbed(), factory.clone()))
            .collect();
        if let Some(handle) = &store {
            for node in &mut nodes {
                node.set_store(handle.clone());
            }
        }
        let mut job_index = HashMap::new();
        for node in &nodes {
            for job in node.jobs() {
                job_index.insert(job.id, node.id());
            }
        }
        let stats = ClusterStats::collect(&nodes, snap.rejected);
        Ok(Self {
            nodes,
            config,
            next_job_id: snap.next_job_id,
            rejected: snap.rejected,
            replaced: snap.replaced,
            factory,
            base_seed: snap.base_seed,
            store,
            job_index,
            stats,
        })
    }

    /// One admission attempt, shared by fresh submissions and the
    /// re-placement of jobs orphaned by a node crash. Any nodes that crash
    /// while being probed are evicted and their committed jobs re-placed
    /// (recursively — each crash permanently removes one node, so the
    /// recursion is bounded by the fleet size) before the result is
    /// reported. An orphan no surviving node can host counts as rejected.
    fn admit_job(
        &mut self,
        job: PlacedJob,
        telemetry: &Telemetry<'_>,
    ) -> Result<Option<Placement>, ClusterError> {
        let job_id = job.id;
        let workload = job.spec.workload.name().to_owned();
        let candidates = self.config.placement.candidate_order(&self.nodes, &job.spec, &self.stats);
        if let Some((scored, best_score)) = candidates.scored {
            telemetry.emit(Event::PlacementScored {
                job: workload.clone(),
                candidates: scored,
                best_score,
            });
        }
        let mut order: Vec<usize> =
            candidates.order.into_iter().filter(|&i| self.nodes[i].alive()).collect();
        if let Some(limit) = self.config.probe_limit {
            order.truncate(limit.max(1));
        }
        let (winner, orphans) = self.admit_scan(&order, &job, telemetry)?;
        if let Some(node_id) = winner {
            self.job_index.insert(job_id, node_id);
        }
        self.rehome(orphans, telemetry)?;
        Ok(winner.map(|node_id| {
            telemetry.emit(Event::Placement { node: node_id, job: workload });
            Placement { job_id, node: node_id }
        }))
    }

    /// Re-places jobs orphaned by a node crash, counting each as replaced
    /// or rejected.
    fn rehome(
        &mut self,
        orphans: Vec<PlacedJob>,
        telemetry: &Telemetry<'_>,
    ) -> Result<(), ClusterError> {
        for orphan in orphans {
            if self.admit_job(orphan, telemetry)?.is_none() {
                self.note_rejected();
            } else {
                self.replaced += 1;
            }
        }
        Ok(())
    }

    /// Evicts a crashed node: takes it out of service, drains its
    /// committed jobs for re-placement, and reports the eviction.
    fn evict_node(&mut self, node_id: usize, telemetry: &Telemetry<'_>) -> Vec<PlacedJob> {
        let orphans = self.nodes[node_id].mark_dead();
        for orphan in &orphans {
            self.job_index.remove(&orphan.id);
        }
        self.stats.refresh_node(&self.nodes[node_id]);
        telemetry.emit(Event::NodeEvicted { node: node_id, jobs: orphans.len() });
        orphans
    }

    /// Walks the candidates in placement order, probing each one with
    /// [`Node::try_admit`] until one admits the job. A probe that surfaces
    /// a node crash evicts that node (its drained jobs are returned for
    /// re-placement) and the scan continues. The per-admission deadline
    /// budget is checked *before* each candidate: once the windows this
    /// admission's probes spent (each read as the change in
    /// [`Node::samples_spent`]) reach it, the rest are skipped. Every
    /// probe shares the caller's `telemetry`, so the probes' phase timings
    /// reach its report.
    fn admit_scan(
        &mut self,
        order: &[usize],
        job: &PlacedJob,
        telemetry: &Telemetry<'_>,
    ) -> Result<(Option<usize>, Vec<PlacedJob>), ClusterError> {
        let mut orphans = Vec::new();
        let mut spent: u64 = 0;
        for &node_id in order {
            if self.config.deadline_samples.is_some_and(|budget| spent >= budget) {
                break;
            }
            let node = &mut self.nodes[node_id];
            let before = node.samples_spent();
            match node.try_admit(job.clone(), &self.config.clite, telemetry) {
                Ok(admitted) => {
                    spent += node.samples_spent() - before;
                    self.stats.refresh_node(node);
                    if admitted {
                        return Ok((Some(node_id), orphans));
                    }
                }
                Err(e) if e.is_node_crash() => {
                    orphans.extend(self.evict_node(node_id, telemetry));
                }
                Err(e) => return Err(e),
            }
        }
        Ok((None, orphans))
    }

    /// Removes a placed job (departure) and re-partitions its node. The
    /// departure emits [`Event::Eviction`] before the node re-partitions.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownJob`] if no node hosts `job_id`.
    pub fn remove(&mut self, job_id: u64, telemetry: &Telemetry<'_>) -> Result<(), ClusterError> {
        let Some(&node_id) = self.job_index.get(&job_id) else {
            return Err(ClusterError::UnknownJob { job: job_id });
        };
        self.job_index.remove(&job_id);
        let node = &mut self.nodes[node_id];
        let job = node.jobs().iter().find(|j| j.id == job_id).expect("job index is current");
        telemetry
            .emit(Event::Eviction { node: node.id(), job: job.spec.workload.name().to_owned() });
        let result = node.remove(job_id, &self.config.clite, telemetry);
        self.settle_repartition(node_id, result, telemetry)
    }

    /// Changes a placed job's load schedule (the fleet's `load_shift`
    /// event) and re-partitions its node under the new load. A node that
    /// crashes while re-partitioning is evicted and its jobs (including
    /// the one whose load changed) re-placed, exactly like a crash during
    /// a departure.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownJob`] if no node hosts `job_id`;
    /// propagates controller/simulator failures.
    pub fn update_load(
        &mut self,
        job_id: u64,
        load: LoadSchedule,
        telemetry: &Telemetry<'_>,
    ) -> Result<(), ClusterError> {
        let Some(&node_id) = self.job_index.get(&job_id) else {
            return Err(ClusterError::UnknownJob { job: job_id });
        };
        let result = self.nodes[node_id].update_load(job_id, load, &self.config.clite, telemetry);
        self.settle_repartition(node_id, result, telemetry)
    }

    /// Books a node's re-partition after a departure or load change. A
    /// node that died while re-partitioning is evicted and its surviving
    /// jobs re-homed.
    fn settle_repartition(
        &mut self,
        node_id: usize,
        result: Result<(), ClusterError>,
        telemetry: &Telemetry<'_>,
    ) -> Result<(), ClusterError> {
        match result {
            Ok(()) => {
                self.stats.refresh_node(&self.nodes[node_id]);
                Ok(())
            }
            Err(e) if e.is_node_crash() => {
                let orphans = self.evict_node(node_id, telemetry);
                self.rehome(orphans, telemetry)
            }
            Err(e) => Err(e),
        }
    }

    /// Current fleet statistics — the incrementally maintained snapshot,
    /// cloned without touching any node. O(fleet) only in the copy of the
    /// per-node vector, never in recomputation.
    #[must_use]
    pub fn stats(&self) -> ClusterStats {
        self.stats.clone()
    }

    /// Borrows the incrementally maintained statistics without cloning.
    #[must_use]
    pub fn stats_ref(&self) -> &ClusterStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::LazyLock;

    /// One disabled context shared by every test here.
    static OFF: LazyLock<Telemetry<'static>> = LazyLock::new(Telemetry::disabled);

    fn scheduler(nodes: usize, policy: PlacementPolicy) -> ClusterScheduler {
        ClusterScheduler::new(
            nodes,
            SchedulerConfig { placement: policy, ..SchedulerConfig::default() },
            99,
        )
        .unwrap()
    }

    #[test]
    fn zero_nodes_rejected() {
        assert!(matches!(
            ClusterScheduler::new(0, SchedulerConfig::default(), 0),
            Err(ClusterError::EmptyCluster)
        ));
    }

    #[test]
    fn light_jobs_all_placed() {
        let mut c = scheduler(2, PlacementPolicy::LeastLoaded);
        for w in [WorkloadId::Memcached, WorkloadId::ImgDnn, WorkloadId::Xapian] {
            let placed = c.submit(JobSpec::latency_critical(w, 0.2), &OFF).unwrap();
            assert!(placed.is_some());
        }
        assert_eq!(c.rejected(), 0);
        let total: usize = c.nodes().iter().map(Node::job_count).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn least_loaded_spreads_most_loaded_packs() {
        let mut spread = scheduler(2, PlacementPolicy::LeastLoaded);
        let mut pack = scheduler(2, PlacementPolicy::MostLoaded);
        for _ in 0..2 {
            spread.submit(JobSpec::latency_critical(WorkloadId::Memcached, 0.3), &OFF).unwrap();
            pack.submit(JobSpec::latency_critical(WorkloadId::Memcached, 0.3), &OFF).unwrap();
        }
        let spread_counts: Vec<usize> = spread.nodes().iter().map(Node::job_count).collect();
        let pack_counts: Vec<usize> = pack.nodes().iter().map(Node::job_count).collect();
        assert_eq!(spread_counts, vec![1, 1], "least-loaded spreads");
        assert_eq!(pack_counts, vec![2, 0], "most-loaded packs");
    }

    #[test]
    fn overload_spills_to_other_nodes_then_rejects() {
        let mut c = scheduler(2, PlacementPolicy::MostLoaded);
        let mut placements = Vec::new();
        // Heavy LC jobs: each node fits roughly one or two of these.
        for i in 0..6 {
            let w = [WorkloadId::Masstree, WorkloadId::ImgDnn][i % 2];
            if let Some(p) = c.submit(JobSpec::latency_critical(w, 0.8), &OFF).unwrap() {
                placements.push(p);
            }
        }
        assert!(c.rejected() > 0, "a 2-node cluster cannot host six 80% LC jobs");
        assert!(!placements.is_empty(), "but some must be placed");
        // Every committed node still meets QoS.
        for n in c.nodes() {
            if let Some(o) = n.last_outcome() {
                assert!(o.qos_met(), "node {} committed a QoS-violating set", n.id());
            }
        }
    }

    #[test]
    fn departures_free_capacity() {
        let mut c = scheduler(1, PlacementPolicy::FirstFit);
        let a =
            c.submit(JobSpec::latency_critical(WorkloadId::Masstree, 0.8), &OFF).unwrap().unwrap();
        let b = c.submit(JobSpec::latency_critical(WorkloadId::ImgDnn, 0.8), &OFF).unwrap();
        assert!(b.is_some());
        // A third heavy job is rejected...
        let rejected = c.submit(JobSpec::latency_critical(WorkloadId::Specjbb, 0.9), &OFF).unwrap();
        assert!(rejected.is_none());
        // ...until a departure frees the node.
        c.remove(a.job_id, &OFF).unwrap();
        let retry = c.submit(JobSpec::latency_critical(WorkloadId::Specjbb, 0.8), &OFF).unwrap();
        assert!(retry.is_some(), "departure must free capacity");
    }

    #[test]
    fn deadline_budget_caps_probing() {
        // Saturate a small fleet so the probe job below runs a real — and
        // infeasible — search on every candidate it reaches. Without a
        // deadline the scan pays for a search per candidate; with a
        // 1-window budget it stops after the first search finishes.
        let build = |deadline: Option<u64>| {
            let mut c = ClusterScheduler::new(
                3,
                SchedulerConfig {
                    placement: PlacementPolicy::FirstFit,
                    deadline_samples: deadline,
                    ..SchedulerConfig::default()
                },
                99,
            )
            .unwrap();
            for i in 0..9 {
                let w = [WorkloadId::Masstree, WorkloadId::ImgDnn][i % 2];
                let _ = c.submit(JobSpec::latency_critical(w, 0.8), &OFF).unwrap();
            }
            c
        };
        let probe = |c: &mut ClusterScheduler| {
            let before = c.total_samples_spent();
            let placed =
                c.submit(JobSpec::latency_critical(WorkloadId::Specjbb, 0.9), &OFF).unwrap();
            assert!(placed.is_none(), "the saturated fleet must reject the probe job");
            c.total_samples_spent() - before
        };

        let full_scan = probe(&mut build(None));
        let capped = probe(&mut build(Some(1)));
        assert!(capped > 0, "the first candidate's search is still paid for");
        assert!(
            capped < full_scan,
            "deadline must stop the scan after one search: capped {capped}, full {full_scan}"
        );
    }

    #[test]
    fn remove_unknown_job_errors() {
        let mut c = scheduler(1, PlacementPolicy::FirstFit);
        assert!(matches!(c.remove(7, &OFF), Err(ClusterError::UnknownJob { job: 7 })));
    }

    #[test]
    fn placements_and_evictions_emit_events() {
        use clite_telemetry::MemoryRecorder;

        let sink = MemoryRecorder::new();
        let telemetry = Telemetry::new(&sink);
        let mut c = scheduler(1, PlacementPolicy::FirstFit);
        let placed = c
            .submit(JobSpec::latency_critical(WorkloadId::Memcached, 0.2), &telemetry)
            .unwrap()
            .unwrap();
        assert_eq!(sink.count_kind("placement"), 1);
        // The admission search's own events flow through the same sink.
        assert!(sink.count_kind("bootstrap_sample") > 0);
        c.remove(placed.job_id, &telemetry).unwrap();
        assert_eq!(sink.count_kind("eviction"), 1);
    }
}
