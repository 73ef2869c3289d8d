//! Node-ordering policies for admission.

use std::sync::Arc;

use clite_learn::RankingModel;
use clite_sim::prelude::JobSpec;
use clite_sim::testbed::TestbedFactory;

use crate::learned;
use crate::node::Node;
use crate::stats::ClusterStats;

/// In which order candidate nodes are tried for a new job.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum PlacementPolicy {
    /// Nodes in id order; the first feasible node wins. Minimizes search
    /// work, tends to pack low-id nodes.
    FirstFit,
    /// Least committed LC load first: spreads latency-critical pressure
    /// evenly across the fleet, maximizing per-node headroom.
    #[default]
    LeastLoaded,
    /// Most committed LC load (that still has physical capacity) first:
    /// bin-packing — consolidates jobs onto few nodes, freeing whole
    /// machines, which is the utilization win the paper's introduction
    /// argues for.
    MostLoaded,
    /// Trained ranking: score every candidate with a `clite-learn` model
    /// over (job, node, fleet) features and try the best-scoring node
    /// first. The all-zero model ties every score, and the tie-break
    /// (least committed LC load, then node id) reproduces the
    /// [`LeastLoaded`](PlacementPolicy::LeastLoaded) heuristic exactly —
    /// so a missing or corrupt model file degrades, never fails.
    Learned {
        /// The trained model; shared so cloning the policy (and the
        /// scheduler config holding it) stays cheap.
        model: Arc<RankingModel>,
    },
}

/// A resolved candidate ordering plus the learned scorer's summary (for
/// the `placement_scored` telemetry event) when a model produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateOrder {
    /// Candidate node ids, best first.
    pub order: Vec<usize>,
    /// `(candidates scored, best model score)` — `None` for heuristics.
    pub scored: Option<(usize, f64)>,
}

impl PlacementPolicy {
    /// Short name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::FirstFit => "first-fit",
            PlacementPolicy::LeastLoaded => "least-loaded",
            PlacementPolicy::MostLoaded => "most-loaded",
            PlacementPolicy::Learned { .. } => "learned",
        }
    }

    /// Candidate node ids in try-order, excluding nodes without physical
    /// capacity for one more job. Heuristic policies ignore `job` and
    /// `stats`; [`Learned`](PlacementPolicy::Learned) feeds both into its
    /// feature vectors.
    #[must_use]
    pub fn candidate_order<F: TestbedFactory>(
        &self,
        nodes: &[Node<F>],
        job: &JobSpec,
        stats: &ClusterStats,
    ) -> CandidateOrder {
        let capacity = nodes.iter().filter(|n| n.has_capacity_for_one_more()).map(Node::id);
        if let PlacementPolicy::Learned { model } = self {
            // Scored straight off the capacity filter, with no candidate
            // list in between.
            let ranked = learned::ranked(model, job, nodes, capacity, stats);
            let scored = ranked.first().map(|&(_, best)| (ranked.len(), best));
            return CandidateOrder {
                order: ranked.into_iter().map(|(id, _)| id).collect(),
                scored,
            };
        }
        let mut ids: Vec<usize> = capacity.collect();
        match self {
            PlacementPolicy::FirstFit | PlacementPolicy::Learned { .. } => {}
            PlacementPolicy::LeastLoaded => {
                ids.sort_by(|&a, &b| {
                    nodes[a].committed_lc_load().total_cmp(&nodes[b].committed_lc_load())
                });
            }
            PlacementPolicy::MostLoaded => {
                ids.sort_by(|&a, &b| {
                    nodes[b].committed_lc_load().total_cmp(&nodes[a].committed_lc_load())
                });
            }
        }
        CandidateOrder { order: ids, scored: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clite::config::CliteConfig;
    use clite_sim::prelude::*;
    use clite_telemetry::Telemetry;

    use crate::node::PlacedJob;

    /// Admits `spec` as job `id` under the default CLITE config.
    fn admit(node: &mut Node, id: u64, spec: JobSpec) -> bool {
        let job = PlacedJob { id, spec };
        node.try_admit(job, &CliteConfig::default(), &Telemetry::disabled()).unwrap()
    }

    fn fleet() -> Vec<Node> {
        let mut nodes: Vec<Node> =
            (0..3).map(|i| Node::new(i, ResourceCatalog::testbed(), i as u64)).collect();
        // Put one 40% job on node 1, two on node 2.
        admit(&mut nodes[1], 1, JobSpec::latency_critical(WorkloadId::Memcached, 0.4));
        admit(&mut nodes[2], 2, JobSpec::latency_critical(WorkloadId::Memcached, 0.4));
        admit(&mut nodes[2], 3, JobSpec::latency_critical(WorkloadId::Xapian, 0.4));
        nodes
    }

    fn order<F: TestbedFactory>(policy: &PlacementPolicy, nodes: &[Node<F>]) -> Vec<usize> {
        let stats = ClusterStats::collect(nodes, 0);
        let job = JobSpec::latency_critical(WorkloadId::Memcached, 0.3);
        policy.candidate_order(nodes, &job, &stats).order
    }

    #[test]
    fn orderings_differ_as_documented() {
        let nodes = fleet();
        assert_eq!(order(&PlacementPolicy::FirstFit, &nodes), vec![0, 1, 2]);
        assert_eq!(order(&PlacementPolicy::LeastLoaded, &nodes), vec![0, 1, 2]);
        assert_eq!(order(&PlacementPolicy::MostLoaded, &nodes), vec![2, 1, 0]);
    }

    #[test]
    fn full_nodes_are_excluded() {
        // A node hosting 10 jobs (cores exhausted) cannot take an 11th.
        let mut nodes = vec![Node::new(0, ResourceCatalog::testbed(), 0)];
        for i in 0..10 {
            let admitted = admit(&mut nodes[0], i, JobSpec::background(WorkloadId::Swaptions));
            assert!(admitted, "BG jobs are always feasible");
        }
        assert!(order(&PlacementPolicy::FirstFit, &nodes).is_empty());
    }

    #[test]
    fn zero_model_matches_least_loaded() {
        // The graceful-degradation regression: a Learned policy holding
        // the all-zero model must reproduce the heuristic fallback order
        // exactly (every score ties; the tie-break is least-loaded).
        let nodes = fleet();
        let learned =
            PlacementPolicy::Learned { model: Arc::new(clite_learn::RankingModel::zeroed()) };
        let stats = ClusterStats::collect(&nodes, 0);
        for spec in [
            JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
            JobSpec::latency_critical(WorkloadId::ImgDnn, 0.7),
            JobSpec::background(WorkloadId::Swaptions),
        ] {
            let fallback = learned.candidate_order(&nodes, &spec, &stats);
            let heuristic = PlacementPolicy::LeastLoaded.candidate_order(&nodes, &spec, &stats);
            assert_eq!(fallback.order, heuristic.order, "zero model must degrade to heuristic");
            let (count, best) = fallback.scored.expect("learned policies report scores");
            assert_eq!(count, 3);
            assert_eq!(best, 0.0, "the zero model scores everything zero");
        }
    }

    #[test]
    fn trained_weights_can_reorder_candidates() {
        // A model that rewards committed LC load (feature 3) must invert
        // the least-loaded preference — i.e. the weights actually steer
        // the order.
        let nodes = fleet();
        let mut model = clite_learn::RankingModel::zeroed();
        model.weights[3] = 1.0;
        let policy = PlacementPolicy::Learned { model: Arc::new(model) };
        let stats = ClusterStats::collect(&nodes, 0);
        let job = JobSpec::latency_critical(WorkloadId::Memcached, 0.3);
        assert_eq!(policy.candidate_order(&nodes, &job, &stats).order, vec![2, 1, 0]);
    }
}
