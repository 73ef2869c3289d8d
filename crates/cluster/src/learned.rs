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
/// given incoming job. Its headroom trace is laid out in `trace`, the one
/// buffer an arrival's candidates share.
fn node_input<F: TestbedFactory>(
    node: &Node<F>,
    spec: &JobSpec,
    trace: &mut Vec<(f64, f64)>,
) -> NodeInput {
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
    let (bg_perf, headroom) = match outcome {
        Some(o) => {
            let best = trace_and_best(&o.samples, trace);
            (best.and_then(|s| s.observation.mean_bg_perf()), predict(trace))
        }
        None => (None, Headroom::prior()),
    };
    NodeInput {
        jobs: node.job_count(),
        lc_jobs,
        lc_load,
        bg_perf,
        qos_met: outcome.is_none_or(|o| o.qos_met()),
        mix_mean_load_pct: mix_mean,
        mix_max_load_pct: mix_max,
        headroom,
    }
}

/// One walk over a node's last committed search trace: lays out the
/// headroom surrogate's points (normalized sample index, Eq. 3 score) in
/// `trace` and returns the best sample, the last of equal maxima under
/// `f64::total_cmp` — the one `Iterator::max_by` picks.
fn trace_and_best<'a>(
    samples: &'a [SampleRecord],
    trace: &mut Vec<(f64, f64)>,
) -> Option<&'a SampleRecord> {
    let last = samples.len().saturating_sub(1).max(1) as f64;
    let mut best: Option<(u64, &SampleRecord)> = None;
    trace.clear();
    trace.extend(samples.iter().enumerate().map(|(i, s)| {
        let key = total_order_key(s.score.value);
        if best.is_none_or(|(top, _)| key >= top) {
            best = Some((key, s));
        }
        (i as f64 / last, s.score.value)
    }));
    best.map(|(_, s)| s)
}

/// `x`'s place in the `f64::total_cmp` order as an unsigned integer:
/// `total_order_key(a).cmp(&total_order_key(b)) == a.total_cmp(&b)`.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    // Negative values (sign set) flip every bit, the rest only the sign.
    bits ^ ((((bits as i64) >> 63) as u64) | 1 << 63)
}

/// The `f64` whose [`total_order_key`] is `key`, every bit restored.
fn from_total_order_key(key: u64) -> f64 {
    // Keys of negative values have the top bit clear.
    f64::from_bits(key ^ ((((!key as i64) >> 63) as u64) | 1 << 63))
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
}

/// [`rank`] straight off any candidate iterator. An arrival allocates
/// the key list, this `Vec` and one headroom-trace buffer, which every
/// candidate's trace reuses.
pub(crate) fn ranked<F: TestbedFactory>(
    model: &RankingModel,
    spec: &JobSpec,
    nodes: &[Node<F>],
    candidates: impl Iterator<Item = usize>,
    stats: &ClusterStats,
) -> Vec<(usize, f64)> {
    let job = job_input(spec);
    let fleet = fleet_input(stats);
    let mut trace = Vec::with_capacity(MEMO_CAP);
    // Sort keys, not floats: score descending, then load ascending, both
    // in `total_cmp` order, then id. Node ids are unique and end the key,
    // so the order is total and an unstable sort returns what a stable
    // one would.
    let mut keyed: Vec<(u64, u64, usize)> = candidates
        .map(|id| {
            let node = node_input(&nodes[id], spec, &mut trace);
            let features = extract(&job, &node, &fleet);
            (!total_order_key(model.score(&features)), total_order_key(node.lc_load), id)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(score, _, id)| (id, from_total_order_key(!score))).collect()
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
            let input = node_input(&node, &spec, &mut Vec::new());
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

    /// The ranking before the one-pass walk, kept as the reference the
    /// new code must equal bit for bit: `max_by` for the best sample, a
    /// separate walk into a per-candidate stack trace, and a sort on a
    /// float comparator.
    mod before {
        use super::super::{fleet_input, job_input, signature_load};
        use clite::trace::SampleRecord;
        use clite_learn::features::mix_load_pcts;
        use clite_learn::headroom::{predict, MEMO_CAP};
        use clite_learn::{extract, Headroom, NodeInput, RankingModel};
        use clite_sim::prelude::*;
        use clite_sim::workload::JobClass;

        use crate::node::Node;
        use crate::stats::ClusterStats;

        pub(super) fn node_input(node: &Node, spec: &JobSpec) -> NodeInput {
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

        fn trace_headroom(samples: &[SampleRecord]) -> Headroom {
            let n = samples.len();
            let points = samples
                .iter()
                .enumerate()
                .map(|(i, s)| (i as f64 / (n - 1).max(1) as f64, s.score.value));
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

        pub(super) fn ranked(
            model: &RankingModel,
            spec: &JobSpec,
            nodes: &[Node],
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
            scored.sort_unstable_by(|&(a, sa, la), &(b, sb, lb)| {
                sb.total_cmp(&sa).then_with(|| la.total_cmp(&lb)).then_with(|| a.cmp(&b))
            });
            scored
        }
    }

    mod generated {
        use std::sync::Arc;

        use clite::score::{ScoreBreakdown, ScoreMode};
        use clite::trace::{CliteOutcome, SampleRecord};
        use clite_learn::headroom::MEMO_CAP;
        use clite_learn::RankingModel;
        use clite_sim::counters::CounterSample;
        use clite_sim::metrics::JobObservation;
        use clite_sim::prelude::*;
        use clite_sim::testbed::ServerFactory;
        use clite_sim::workload::JobClass;
        use rand::rngs::StdRng;
        use rand::Rng;

        use crate::node::{Node, PlacedJob};
        use crate::stats::ClusterStats;
        use crate::wire::{CommittedOutcome, NodeSnapshot};

        /// A NaN with the sign bit set: first in `total_cmp` order, where
        /// the positive NaN is last.
        fn negative_nan() -> f64 {
            -f64::NAN
        }

        /// Sample scores: ±NaN, ±∞, ±0.0 and repeated values, so best
        /// samples tie and the trace takes both headroom paths.
        fn score(rng: &mut StdRng) -> f64 {
            const FIXED: [f64; 8] =
                [0.0, -0.0, 0.5, 0.75, 1.0, f64::INFINITY, -f64::INFINITY, 0.25];
            match rng.gen_range(0..16) {
                0 => f64::NAN,
                1 => negative_nan(),
                i @ 2..=9 => FIXED[i - 2],
                _ => rng.gen(),
            }
        }

        fn observation(bg_perf: Option<f64>) -> Observation {
            Observation {
                time_s: 0.0,
                window_s: 2.0,
                jobs: bg_perf
                    .map(|perf| JobObservation {
                        workload: WorkloadId::Blackscholes,
                        class: JobClass::Background,
                        latency_p95_us: 100.0,
                        offered_qps: 0.0,
                        normalized_perf: perf,
                        qos_met: None,
                        qos_target_us: None,
                        iso_latency_p95_us: None,
                        counters: CounterSample {
                            cpu_utilization: 0.5,
                            llc_hit_rate: 0.5,
                            mem_bw_used_frac: 0.2,
                            ipc_proxy: 0.8,
                            capacity_pressure: 0.0,
                            disk_bw_used_frac: 0.0,
                            net_bw_used_frac: 0.0,
                        },
                    })
                    .into_iter()
                    .collect(),
            }
        }

        /// A committed outcome whose trace length runs from one sample (a
        /// committed search has at least one) past [`MEMO_CAP`]; every
        /// sample carries its own BG performance, so picking the wrong one
        /// of tied best samples shows.
        fn outcome(rng: &mut StdRng, partition: &Partition) -> CliteOutcome {
            let len = match rng.gen_range(0..12) {
                0 | 1 => 1,
                2..=5 => 3,
                6 => 2,
                7 => MEMO_CAP,
                8 => MEMO_CAP + 1 + rng.gen_range(0..8),
                _ => rng.gen_range(4..40),
            };
            let with_bg = rng.gen_bool(0.8);
            let samples = (0..len)
                .map(|index| {
                    let perf = with_bg.then(|| rng.gen::<f64>());
                    SampleRecord {
                        index,
                        bootstrap: index < 2,
                        partition: partition.clone(),
                        observation: observation(perf),
                        score: ScoreBreakdown {
                            value: score(rng),
                            mode: ScoreMode::QosMet,
                            lc_ratios: vec![],
                            bg_ratios: perf.into_iter().collect(),
                        },
                        expected_improvement: None,
                        frozen_job: None,
                    }
                })
                .collect();
            CliteOutcome {
                best_partition: partition.clone(),
                best_score: rng.gen(),
                samples,
                converged: rng.gen(),
                infeasible_jobs: if rng.gen_bool(0.1) { vec![0] } else { vec![] },
                samples_to_qos: None,
                quarantined: 0,
                overhead: None,
            }
        }

        /// LC loads include both zeros: an LC job at `+0.0` makes a node's
        /// committed load `+0.0`, while an empty or BG-only node sums to
        /// `−0.0`, and `total_cmp` orders the two.
        fn spec(rng: &mut StdRng) -> JobSpec {
            const LOADS: [f64; 4] = [0.0, -0.0, 0.3, 0.45];
            if rng.gen_bool(0.3) {
                JobSpec::background(WorkloadId::BACKGROUND[rng.gen_range(0..6)])
            } else {
                let load = if rng.gen_bool(0.7) { LOADS[rng.gen_range(0..4)] } else { rng.gen() };
                JobSpec::latency_critical(WorkloadId::LATENCY_CRITICAL[rng.gen_range(0..5)], load)
            }
        }

        pub(super) fn fleet(rng: &mut StdRng) -> (Vec<Node>, ClusterStats) {
            let catalog = ResourceCatalog::testbed();
            let partition = Partition::equal_share(&catalog, 2).unwrap();
            let nodes: Vec<Node> = (0..rng.gen_range(1..16))
                .map(|id| {
                    let jobs: Arc<[PlacedJob]> = (0..rng.gen_range(0..4))
                        .map(|j| PlacedJob { id: (id * 8 + j) as u64, spec: spec(rng) })
                        .collect();
                    let last_outcome = rng
                        .gen_bool(0.85)
                        .then(|| Arc::new(CommittedOutcome::new(outcome(rng, &partition))));
                    let snap = NodeSnapshot {
                        id,
                        seed: id as u64,
                        alive: rng.gen_bool(0.9),
                        commits: 1,
                        searches_run: 1,
                        samples_spent: 0,
                        jobs,
                        last_outcome,
                    };
                    Node::from_snapshot(snap, catalog, ServerFactory)
                })
                .collect();
            let stats = ClusterStats::collect(&nodes, rng.gen_range(0..5));
            (nodes, stats)
        }

        pub(super) fn arrival(rng: &mut StdRng) -> JobSpec {
            spec(rng)
        }

        /// The zero model (every score ties), random weights, and weights
        /// with infinities, whose `∞ · 0` products give NaN scores of
        /// either sign.
        pub(super) fn models(rng: &mut StdRng) -> Vec<RankingModel> {
            let mut random = RankingModel::zeroed();
            for w in &mut random.weights {
                *w = rng.gen_range(-2.0..2.0);
            }
            let mut infinite = random.clone();
            for w in infinite.weights.iter_mut().step_by(3) {
                *w = if rng.gen() { f64::INFINITY } else { -f64::INFINITY };
            }
            vec![RankingModel::zeroed(), random, infinite]
        }

        /// A random subset of the fleet's ids, in random order.
        pub(super) fn candidates(rng: &mut StdRng, nodes: usize) -> Vec<usize> {
            let mut ids: Vec<usize> = (0..nodes).filter(|_| rng.gen_bool(0.8)).collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.gen_range(0..=i));
            }
            ids
        }
    }

    /// What callers observe of a ranking: the ids in order and each
    /// score's bits.
    fn bits(ranked: impl IntoIterator<Item = (usize, f64)>) -> Vec<(usize, u64)> {
        ranked.into_iter().map(|(id, score)| (id, score.to_bits())).collect()
    }

    #[test]
    fn one_pass_ranking_matches_the_reference_on_generated_fleets() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(24);
        let mut trace = Vec::new();
        for case in 0..300 {
            let (nodes, stats) = generated::fleet(&mut rng);
            let spec = generated::arrival(&mut rng);
            for node in &nodes {
                // `Debug` prints each `f64` in its shortest round-trip form:
                // equal strings mean equal bits (NaN payloads aside).
                let got = format!("{:?}", node_input(node, &spec, &mut trace));
                let want = format!("{:?}", before::node_input(node, &spec));
                assert_eq!(got, want, "case {case}, node {}", node.id());
            }
            let ids = generated::candidates(&mut rng, nodes.len());
            for model in generated::models(&mut rng) {
                let got = ranked(&model, &spec, &nodes, ids.iter().copied(), &stats);
                let want = before::ranked(&model, &spec, &nodes, ids.iter().copied(), &stats);
                let want = want.into_iter().map(|(id, score, _)| (id, score));
                assert_eq!(bits(got), bits(want), "case {case}, weights {:?}", model.weights);
            }
        }
    }

    #[test]
    fn total_order_keys_order_like_total_cmp_and_round_trip() {
        let values = [
            -f64::NAN,
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in values {
            assert_eq!(from_total_order_key(total_order_key(a)).to_bits(), a.to_bits(), "{a}");
            for b in values {
                assert_eq!(total_order_key(a).cmp(&total_order_key(b)), a.total_cmp(&b), "{a} {b}");
            }
        }
    }
}
