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

use clite::trace::SampleRecord;
use clite_learn::features::mix_load_pcts;
use clite_learn::headroom::{predict, MEMO_CAP};
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
/// given incoming job. Allocates nothing for traces up to
/// [`MEMO_CAP`] samples.
fn node_input<F: TestbedFactory>(node: &Node<F>, spec: &JobSpec) -> NodeInput {
    // One pass over the committed jobs: the LC count and load ride along
    // with the signature loads the mix percentages fold. `f64: Sum` folds
    // from −0.0, so starting there keeps `lc_load` bit-identical to
    // `Node::committed_lc_load`, empty nodes included.
    let (mut lc_jobs, mut lc_load) = (0, -0.0);
    let (mix_mean, mix_max) = mix_load_pcts(
        node.jobs().iter().map(|j| {
            let load = signature_load(&j.spec);
            if j.spec.class() == JobClass::LatencyCritical {
                lc_jobs += 1;
                lc_load += load;
            }
            load
        }),
        signature_load(spec),
    );
    let outcome = node.last_outcome();
    NodeInput {
        jobs: node.job_count(),
        lc_jobs,
        lc_load,
        bg_perf: outcome.and_then(|o| {
            o.samples
                .iter()
                .max_by(|a, b| a.score.value.total_cmp(&b.score.value))
                .and_then(|s| s.observation.mean_bg_perf())
        }),
        qos_met: outcome.is_none_or(|o| o.qos_met()),
        mix_mean_load_pct: mix_mean,
        mix_max_load_pct: mix_max,
        headroom: outcome.map_or_else(Headroom::prior, |o| trace_headroom(&o.samples)),
    }
}

/// The GP headroom surrogate over a node's last committed search trace:
/// (normalized sample index, Eq. 3 score). A trace of up to [`MEMO_CAP`]
/// samples is laid out in a stack buffer; a longer one, which
/// [`predict`] fits from scratch anyway, is collected.
fn trace_headroom(samples: &[SampleRecord]) -> Headroom {
    let n = samples.len();
    let points =
        samples.iter().enumerate().map(|(i, s)| (i as f64 / (n - 1).max(1) as f64, s.score.value));
    if n <= MEMO_CAP {
        let mut trace = [(0.0, 0.0); MEMO_CAP];
        for (slot, point) in trace.iter_mut().zip(points) {
            *slot = point;
        }
        predict(&trace[..n])
    } else {
        predict(&points.collect::<Vec<_>>())
    }
}

/// Fleet-wide aggregates from the scheduler's incremental statistics.
fn fleet_input(stats: &ClusterStats) -> FleetInput {
    let mut alive_nodes = 0;
    let lc_load: f64 = stats
        .nodes
        .iter()
        .filter(|n| n.alive)
        .map(|n| {
            alive_nodes += 1;
            n.lc_load
        })
        .sum();
    let mean_lc_load = if alive_nodes == 0 { 0.0 } else { lc_load / alive_nodes as f64 };
    FleetInput { alive_nodes, mean_lc_load, admission_rate: stats.admission_rate() }
}

/// Scores `candidates` (already capacity-filtered node ids) for `spec`
/// and returns them ranked best-first: model score descending, then least
/// committed LC load, then node id. The zero model ties every score, and
/// the tie-break alone reproduces the stable least-loaded heuristic order
/// — graceful degradation, pinned by `zero_model_matches_least_loaded`.
pub fn rank<F: TestbedFactory>(
    model: &RankingModel,
    spec: &JobSpec,
    nodes: &[Node<F>],
    candidates: &[usize],
    stats: &ClusterStats,
) -> Vec<(usize, f64)> {
    ranked(model, spec, nodes, candidates.iter().copied(), stats)
        .into_iter()
        .map(|(id, score, _)| (id, score))
        .collect()
}

/// [`rank`] straight off any candidate iterator, each entry keeping the
/// committed LC load it was tie-broken on: `(id, score, lc_load)`. The
/// one `Vec` an arrival allocates to rank its candidates.
pub(crate) fn ranked<F: TestbedFactory>(
    model: &RankingModel,
    spec: &JobSpec,
    nodes: &[Node<F>],
    candidates: impl Iterator<Item = usize>,
    stats: &ClusterStats,
) -> Vec<(usize, f64, f64)> {
    let job = job_input(spec);
    let fleet = fleet_input(stats);
    let mut scored: Vec<(usize, f64, f64)> = candidates
        .map(|id| {
            let node = node_input(&nodes[id], spec);
            let features = extract(&job, &node, &fleet);
            (id, model.score(&features), node.lc_load)
        })
        .collect();
    // Node ids are unique and end the comparator, so the order is total
    // and an unstable sort returns what a stable one would.
    scored.sort_unstable_by(|&(a, sa, la), &(b, sb, lb)| {
        sb.total_cmp(&sa).then_with(|| la.total_cmp(&lb)).then_with(|| a.cmp(&b))
    });
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use clite::config::CliteConfig;
    use clite_telemetry::Telemetry;

    use crate::node::PlacedJob;

    #[test]
    fn one_pass_node_input_matches_the_node_accessors() {
        let mut busy = Node::new(1, ResourceCatalog::testbed(), 1);
        let telemetry = Telemetry::disabled();
        for (id, spec) in [
            JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
            JobSpec::background(WorkloadId::Swaptions),
            JobSpec::latency_critical(WorkloadId::Xapian, 0.45),
        ]
        .into_iter()
        .enumerate()
        {
            let job = PlacedJob { id: id as u64, spec };
            busy.try_admit(job, &CliteConfig::default(), &telemetry).unwrap();
        }
        let spec = JobSpec::latency_critical(WorkloadId::ImgDnn, 0.2);
        for node in [Node::new(0, ResourceCatalog::testbed(), 0), busy] {
            let input = node_input(&node, &spec);
            // Bits, not values: the empty sum is −0.0, and the ranking's
            // tie-break (`total_cmp`) tells it from +0.0.
            assert_eq!(input.lc_load.to_bits(), node.committed_lc_load().to_bits());
            let lc = node.jobs().iter().filter(|j| j.spec.class() == JobClass::LatencyCritical);
            assert_eq!(input.lc_jobs, lc.count());
            let loads: Vec<f64> = node.jobs().iter().map(|j| signature_load(&j.spec)).collect();
            let (mean, max) = mix_load_pcts(loads, signature_load(&spec));
            assert_eq!((input.mix_mean_load_pct, input.mix_max_load_pct), (mean, max));
        }
    }
}
