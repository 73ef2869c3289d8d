//! Fleet-level accounting.

use serde::Serialize;

use clite_sim::testbed::TestbedFactory;
use clite_sim::workload::JobClass;

use crate::node::Node;

/// Per-node snapshot inside a [`ClusterStats`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NodeStats {
    /// Node id.
    pub node: usize,
    /// Jobs committed to this node.
    pub jobs: usize,
    /// Latency-critical jobs among them.
    pub lc_jobs: usize,
    /// Sum of committed LC load fractions.
    pub lc_load: f64,
    /// Mean BG throughput (isolation-relative) at the committed partition
    /// (`None` for empty nodes or nodes without BG jobs).
    pub bg_perf: Option<f64>,
    /// Whether the committed partition meets every QoS target.
    pub qos_met: bool,
    /// Observation windows spent partitioning so far.
    pub samples_spent: u64,
    /// Whether the node is still in service (crashed nodes are evicted
    /// and stay dead).
    pub alive: bool,
}

/// Aggregate fleet statistics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterStats {
    /// Per-node snapshots in id order.
    pub nodes: Vec<NodeStats>,
    /// Jobs placed across the fleet.
    pub placed: usize,
    /// Jobs rejected by admission control.
    pub rejected: u64,
    /// Live nodes hosting no jobs (whole machines freed — the
    /// consolidation win the paper's introduction motivates). Dead nodes
    /// are not counted: an evicted machine is not a freed one.
    pub empty_nodes: usize,
    /// Nodes evicted after crashing mid-search.
    pub dead_nodes: usize,
}

impl NodeStats {
    /// Snapshots one node's current committed state.
    #[must_use]
    pub fn capture<F: TestbedFactory>(n: &Node<F>) -> Self {
        let best = n.last_outcome().map(|o| {
            o.samples
                .iter()
                .max_by(|a, b| a.score.value.total_cmp(&b.score.value))
                .expect("outcomes have samples")
        });
        NodeStats {
            node: n.id(),
            jobs: n.job_count(),
            lc_jobs: n
                .jobs()
                .iter()
                .filter(|j| j.spec.class() == JobClass::LatencyCritical)
                .count(),
            lc_load: n.committed_lc_load(),
            bg_perf: best.and_then(|s| s.observation.mean_bg_perf()),
            qos_met: n.last_outcome().is_none_or(|o| o.qos_met()),
            samples_spent: n.samples_spent(),
            alive: n.alive(),
        }
    }

    fn is_empty_live(&self) -> bool {
        self.alive && self.jobs == 0
    }
}

impl ClusterStats {
    /// Collects statistics from the fleet by visiting every node.
    ///
    /// This is the from-scratch reference. The scheduler maintains the
    /// same value *incrementally* — one [`ClusterStats::refresh_node`]
    /// per touched node — so `stats()` stays O(1) per event instead of
    /// O(fleet); `incremental_stats_match_collect` in the scheduler tests
    /// pins the two to byte equality.
    #[must_use]
    pub fn collect<F: TestbedFactory>(nodes: &[Node<F>], rejected: u64) -> Self {
        let node_stats: Vec<NodeStats> = nodes.iter().map(NodeStats::capture).collect();
        Self {
            placed: node_stats.iter().map(|n| n.jobs).sum(),
            empty_nodes: node_stats.iter().filter(|n| n.is_empty_live()).count(),
            dead_nodes: node_stats.iter().filter(|n| !n.alive).count(),
            nodes: node_stats,
            rejected,
        }
    }

    /// Appends a snapshot for a newly onboarded node (ids must arrive in
    /// order: node `k` is entry `k`).
    pub fn add_node<F: TestbedFactory>(&mut self, node: &Node<F>) {
        debug_assert_eq!(node.id(), self.nodes.len(), "nodes onboard in id order");
        let stats = NodeStats::capture(node);
        self.placed += stats.jobs;
        if stats.is_empty_live() {
            self.empty_nodes += 1;
        }
        if !stats.alive {
            self.dead_nodes += 1;
        }
        self.nodes.push(stats);
    }

    /// Re-snapshots one node after a commit, eviction, load change, or
    /// charged probe, adjusting the aggregates by the delta. O(1) in the
    /// fleet size.
    pub fn refresh_node<F: TestbedFactory>(&mut self, node: &Node<F>) {
        let new = NodeStats::capture(node);
        let slot =
            self.nodes.get_mut(node.id()).expect("refreshed node was onboarded before its events");
        debug_assert_eq!(slot.node, new.node, "node ids index the stats vector");
        let old = std::mem::replace(slot, new);
        let new = &self.nodes[node.id()];
        self.placed = self.placed - old.jobs + new.jobs;
        match (old.is_empty_live(), new.is_empty_live()) {
            (false, true) => self.empty_nodes += 1,
            (true, false) => self.empty_nodes -= 1,
            _ => {}
        }
        match (old.alive, new.alive) {
            (true, false) => self.dead_nodes += 1,
            (false, true) => self.dead_nodes -= 1,
            _ => {}
        }
    }

    /// Fraction of submitted jobs that were placed.
    #[must_use]
    pub fn admission_rate(&self) -> f64 {
        let submitted = self.placed as u64 + self.rejected;
        if submitted == 0 {
            1.0
        } else {
            self.placed as f64 / submitted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::placement::PlacementPolicy;
    use crate::scheduler::{ClusterScheduler, SchedulerConfig};
    use clite_sim::prelude::*;
    use clite_telemetry::Telemetry;

    #[test]
    fn stats_reflect_fleet_state() {
        let mut c = ClusterScheduler::new(
            3,
            SchedulerConfig { placement: PlacementPolicy::MostLoaded, ..Default::default() },
            5,
        )
        .unwrap();
        let telemetry = Telemetry::disabled();
        c.submit(JobSpec::latency_critical(WorkloadId::Memcached, 0.3), &telemetry).unwrap();
        c.submit(JobSpec::background(WorkloadId::Swaptions), &telemetry).unwrap();
        let stats = c.stats();
        assert_eq!(stats.placed, 2);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.empty_nodes, 2, "bin-packing keeps two machines free");
        assert!((stats.admission_rate() - 1.0).abs() < 1e-12);
        let busy = &stats.nodes[0];
        assert_eq!(busy.jobs, 2);
        assert_eq!(busy.lc_jobs, 1);
        assert!(busy.qos_met);
        assert!(busy.bg_perf.is_some());
        assert!(busy.samples_spent > 0);
    }
}
