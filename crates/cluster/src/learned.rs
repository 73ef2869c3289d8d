//! Serving-side bridge into `clite-learn`: converts committed cluster
//! state into the learn crate's plain feature inputs and ranks candidate
//! nodes with a trained model.
//!
//! The conversion is the only place the feature schema touches cluster
//! types, and it must mirror what the trainer synthesizes
//! (`clite_learn::train`): LC jobs contribute their scheduled load at
//! `t = 0`, BG jobs count as a full load unit in the mix-signature
//! coordinates, and the headroom surrogate reads the node's last committed
//! search trace.

use clite_learn::{extract, FleetInput, Headroom, JobInput, NodeInput, RankingModel};
use clite_sim::prelude::*;
use clite_sim::testbed::TestbedFactory;
use clite_sim::workload::JobClass;

use crate::node::Node;
use crate::stats::ClusterStats;

/// A job's contribution to the mix-signature load coordinates, matching
/// the trainer's convention: LC load fraction at `t = 0`, BG = 1.0.
fn signature_load(spec: &JobSpec) -> f64 {
    match spec.class() {
        JobClass::LatencyCritical => spec.load.at(0.0),
        JobClass::Background => 1.0,
    }
}

/// The incoming job as the extractor sees it.
fn job_input(spec: &JobSpec) -> JobInput {
    let lc = spec.class() == JobClass::LatencyCritical;
    JobInput {
        latency_critical: lc,
        load: if lc { spec.load.at(0.0) } else { 0.0 },
        qos_target_us: if lc {
            QosSpec::derive(spec.workload, &ResourceCatalog::testbed()).target_us
        } else {
            0.0
        },
    }
}

/// One candidate node's committed state as the extractor sees it, for a
/// given incoming job.
fn node_input<F: TestbedFactory>(node: &Node<F>, spec: &JobSpec) -> NodeInput {
    let committed_loads: Vec<f64> = node.jobs().iter().map(|j| signature_load(&j.spec)).collect();
    let (mix_mean, mix_max) =
        clite_learn::features::mix_load_pcts(&committed_loads, signature_load(spec));
    // The node's last committed search trace feeds the GP headroom
    // surrogate: (normalized sample index, Eq. 3 score).
    let headroom = node.last_outcome().map_or_else(Headroom::prior, |o| {
        let n = o.samples.len();
        let trace: Vec<(f64, f64)> = o
            .samples
            .iter()
            .enumerate()
            .map(|(i, s)| (i as f64 / (n - 1).max(1) as f64, s.score.value))
            .collect();
        clite_learn::headroom::predict(&trace)
    });
    NodeInput {
        jobs: node.job_count(),
        lc_jobs: node.jobs().iter().filter(|j| j.spec.class() == JobClass::LatencyCritical).count(),
        lc_load: node.committed_lc_load(),
        bg_perf: node.last_outcome().and_then(|o| {
            o.samples
                .iter()
                .max_by(|a, b| a.score.value.total_cmp(&b.score.value))
                .and_then(|s| s.observation.mean_bg_perf())
        }),
        qos_met: node.last_outcome().is_none_or(|o| o.qos_met()),
        mix_mean_load_pct: mix_mean,
        mix_max_load_pct: mix_max,
        headroom,
    }
}

/// Fleet-wide aggregates from the scheduler's incremental statistics.
fn fleet_input(stats: &ClusterStats) -> FleetInput {
    let alive: Vec<_> = stats.nodes.iter().filter(|n| n.alive).collect();
    let mean_lc_load = if alive.is_empty() {
        0.0
    } else {
        alive.iter().map(|n| n.lc_load).sum::<f64>() / alive.len() as f64
    };
    FleetInput { alive_nodes: alive.len(), mean_lc_load, admission_rate: stats.admission_rate() }
}

/// Scores `candidates` (already capacity-filtered node ids) for `spec`
/// and returns them ranked best-first: model score descending, then least
/// committed LC load, then node id. The zero model ties every score, so
/// the tie-break alone reproduces the stable least-loaded heuristic order
/// — graceful degradation, pinned by `zero_model_matches_least_loaded`.
pub fn rank<F: TestbedFactory>(
    model: &RankingModel,
    spec: &JobSpec,
    nodes: &[Node<F>],
    candidates: &[usize],
    stats: &ClusterStats,
) -> Vec<(usize, f64)> {
    let job = job_input(spec);
    let fleet = fleet_input(stats);
    let mut scored: Vec<(usize, f64, f64)> = candidates
        .iter()
        .map(|&id| {
            let node = node_input(&nodes[id], spec);
            let features = extract(&job, &node, &fleet);
            (id, model.score(&features), node.lc_load)
        })
        .collect();
    scored.sort_by(|&(a, sa, la), &(b, sb, lb)| {
        sb.total_cmp(&sa).then_with(|| la.total_cmp(&lb)).then_with(|| a.cmp(&b))
    });
    scored.into_iter().map(|(id, score, _)| (id, score)).collect()
}
