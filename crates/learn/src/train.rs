//! Deterministic seeded training over oracle-fenced simulator rollouts.
//!
//! ## Rollouts
//!
//! Each *group* is one admission decision: an incoming job and a set of
//! synthetic candidate nodes (each with its own committed mix). The
//! group's feature vectors come from the same extractor serving uses
//! ([`crate::features::extract`]); its **labels** come from post-placement
//! ground truth — the mix plus the incoming job is evaluated on a
//! [`Server`] through its oracle-side `ground_truth` reading (the same
//! fence `clite_sim::testbed::OracleTestbed` draws) over a fixed set of
//! partitions, yielding the QoS-safe window fraction, the windows-to-QoS
//! delay, and a would-migrate indicator. Ground truth crosses the fence
//! *only* here, at training time; the serving path scores features alone.
//!
//! ## Objective
//!
//! Pairwise logistic ranking (RankNet-style): for candidates `a`, `b` in
//! one group with `label(a) > label(b)`, minimize
//! `ln(1 + exp(-(s_a - s_b)))` over the linear scores. The bias cancels
//! in every pair, so the model is weights-only.
//!
//! ## Parallel byte-identity
//!
//! Rollout generation and per-batch gradients fan out over the shared
//! [`clite_par`] pool via `map_indexed` — per-item work is a pure
//! function of the item, results merge in item order, and the gradient
//! fold plus the weight update run sequentially on the caller. The fitted
//! weights are therefore bit-identical at any `CLITE_PAR_THREADS` worker
//! count (pinned by `tests/determinism.rs` and the CI pool-size loop).

use clite_sim::prelude::*;
use clite_telemetry::{Event, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::features::{
    extract, mix_load_pcts, FeatureVector, FleetInput, JobInput, NodeInput, FEATURE_DIM,
    FEATURE_VERSION,
};
use crate::headroom;
use crate::model::RankingModel;

/// Training hyper-parameters. All deterministic knobs: the same config
/// always yields the same model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Rollout groups (admission decisions) generated.
    pub groups: usize,
    /// Candidate nodes per group.
    pub candidates: usize,
    /// Ground-truth partitions evaluated per candidate label.
    pub label_windows: usize,
    /// Passes over the rollout set.
    pub epochs: u32,
    /// Groups per weight update.
    pub batch: usize,
    /// SGD step size.
    pub learning_rate: f64,
    /// Seed for rollout generation and epoch shuffles.
    pub seed: u64,
}

impl TrainConfig {
    /// Smoke-scale defaults: seconds of wall clock, enough signal for the
    /// A/B experiment and the CI training run.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        Self {
            groups: 24,
            candidates: 4,
            label_windows: 6,
            epochs: 12,
            batch: 8,
            learning_rate: 0.5,
            seed,
        }
    }
}

/// One rollout group: per-candidate features and oracle labels.
struct Group {
    features: Vec<FeatureVector>,
    labels: Vec<f64>,
}

/// Mixes a group index into the config seed (SplitMix64 constant), so
/// groups draw independent deterministic streams.
fn group_seed(seed: u64, group: usize) -> u64 {
    seed ^ (group as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A bounded `[0, 1]` goodness proxy for one observed window, shaped like
/// the Eq. 3 score: above 0.5 only when every LC job met QoS, scaled by
/// mean normalized performance.
fn window_proxy(obs: &Observation) -> f64 {
    let perfs: Vec<f64> = obs.jobs.iter().map(|j| j.normalized_perf.clamp(0.0, 1.0)).collect();
    let mean_perf =
        if perfs.is_empty() { 0.0 } else { perfs.iter().sum::<f64>() / perfs.len() as f64 };
    if obs.all_qos_met() {
        0.5 + 0.5 * mean_perf
    } else {
        0.5 * mean_perf
    }
}

/// Evaluates `windows` ground-truth partitions on `server`: equal-share
/// first, then seeded random partitions. Returns the per-window proxy
/// scores and QoS verdicts, in evaluation order.
fn ground_truth_windows(
    server: &Server,
    windows: usize,
    rng: &mut StdRng,
) -> (Vec<f64>, Vec<bool>) {
    let catalog = *server.catalog();
    let jobs = server.job_count();
    let mut proxies = Vec::with_capacity(windows);
    let mut safe = Vec::with_capacity(windows);
    for w in 0..windows {
        let partition = if w == 0 {
            Partition::equal_share(&catalog, jobs).expect("catalog fits its own job count")
        } else {
            Partition::random(&catalog, jobs, rng).expect("catalog fits its own job count")
        };
        // THE ORACLE FENCE: ground truth is read here, at training time,
        // and nowhere on the serving path.
        let obs = server.ground_truth(&partition);
        proxies.push(window_proxy(&obs));
        safe.push(obs.all_qos_met());
    }
    (proxies, safe)
}

/// Builds one candidate's committed mix: a deterministic handful of LC/BG
/// jobs keyed off the group and candidate indices.
fn candidate_mix(group: usize, candidate: usize, rng: &mut StdRng) -> Vec<JobSpec> {
    let count = (group + candidate) % 3; // 0, 1, or 2 committed jobs
    (0..count)
        .map(|k| {
            if (candidate + k).is_multiple_of(2) {
                let w = WorkloadId::LATENCY_CRITICAL[(group + candidate + k) % 5];
                JobSpec::latency_critical(w, rng.gen_range(0.15..0.45))
            } else {
                JobSpec::background(WorkloadId::BACKGROUND[(group + candidate + k) % 6])
            }
        })
        .collect()
}

/// Generates one rollout group: the incoming job, `candidates` synthetic
/// nodes, their feature vectors, and their oracle labels.
fn build_group(config: &TrainConfig, group: usize) -> Group {
    let mut rng = StdRng::seed_from_u64(group_seed(config.seed, group));
    let catalog = ResourceCatalog::testbed();

    // The incoming job: mostly LC at a varied load, sometimes BG, so the
    // model sees both classes.
    let incoming = if group % 5 == 4 {
        JobSpec::background(WorkloadId::BACKGROUND[group % 6])
    } else {
        let w = WorkloadId::LATENCY_CRITICAL[group % 5];
        JobSpec::latency_critical(w, rng.gen_range(0.2..0.7))
    };
    let incoming_load = match incoming.class() {
        JobClass::LatencyCritical => incoming.load.at(0.0),
        JobClass::Background => 0.0,
    };
    let job_input = JobInput {
        latency_critical: incoming.class() == JobClass::LatencyCritical,
        load: incoming_load,
        qos_target_us: match incoming.class() {
            JobClass::LatencyCritical => QosSpec::derive(incoming.workload, &catalog).target_us,
            JobClass::Background => 0.0,
        },
    };

    let mixes: Vec<Vec<JobSpec>> =
        (0..config.candidates).map(|c| candidate_mix(group, c, &mut rng)).collect();
    let mean_lc_load = mixes
        .iter()
        .map(|m| {
            m.iter()
                .filter(|j| j.class() == JobClass::LatencyCritical)
                .map(|j| j.load.at(0.0))
                .sum::<f64>()
        })
        .sum::<f64>()
        / config.candidates.max(1) as f64;
    let fleet_input =
        FleetInput { alive_nodes: config.candidates, mean_lc_load, admission_rate: 1.0 };

    let mut features = Vec::with_capacity(config.candidates);
    let mut labels = Vec::with_capacity(config.candidates);
    for (c, mix) in mixes.iter().enumerate() {
        let lc_loads: Vec<f64> = mix
            .iter()
            .filter(|j| j.class() == JobClass::LatencyCritical)
            .map(|j| j.load.at(0.0))
            .collect();
        let committed_loads = mix.iter().map(|j| match j.class() {
            JobClass::LatencyCritical => j.load.at(0.0),
            JobClass::Background => 1.0,
        });
        let (mix_mean, mix_max) = mix_load_pcts(committed_loads, incoming_load);

        // Pre-placement node state: observe the committed mix (if any)
        // through ground truth to synthesize what the node's incremental
        // stats would report, plus a headroom trace for the surrogate.
        let node_seed = group_seed(config.seed, group).wrapping_add(1 + c as u64);
        let (qos_met, bg_perf, head) = if mix.is_empty() {
            (true, None, headroom::Headroom::prior())
        } else {
            let server =
                Server::new(catalog, mix.clone(), node_seed).expect("synthetic mix fits catalog");
            let mut trace_rng = StdRng::seed_from_u64(node_seed ^ 0xA5A5_A5A5_A5A5_A5A5);
            let (proxies, safe) = ground_truth_windows(&server, 4, &mut trace_rng);
            let trace: Vec<(f64, f64)> = proxies
                .iter()
                .enumerate()
                .map(|(i, &y)| (i as f64 / (proxies.len() - 1).max(1) as f64, y))
                .collect();
            let bg_perf = if mix.iter().any(|j| j.class() == JobClass::Background) {
                server
                    .ground_truth(&Partition::equal_share(&catalog, mix.len()).unwrap())
                    .mean_bg_perf()
            } else {
                None
            };
            (safe.iter().any(|&s| s), bg_perf, headroom::predict(&trace))
        };
        let node_input = NodeInput {
            jobs: mix.len(),
            lc_jobs: mix.iter().filter(|j| j.class() == JobClass::LatencyCritical).count(),
            lc_load: lc_loads.iter().sum(),
            bg_perf,
            qos_met,
            mix_mean_load_pct: mix_mean,
            mix_max_load_pct: mix_max,
            headroom: head,
        };
        features.push(extract(&job_input, &node_input, &fleet_input));

        // Post-placement label, behind the oracle fence: QoS-safe window
        // fraction, windows-to-QoS delay, and a would-migrate penalty.
        let mut placed: Vec<JobSpec> = mix.clone();
        placed.push(incoming.clone());
        let server = Server::new(catalog, placed, node_seed.wrapping_add(7))
            .expect("synthetic mix fits catalog");
        let mut label_rng = StdRng::seed_from_u64(node_seed ^ 0x5A5A_5A5A_5A5A_5A5A);
        let (_, safe) = ground_truth_windows(&server, config.label_windows, &mut label_rng);
        let windows = safe.len().max(1) as f64;
        let qos_safe_frac = safe.iter().filter(|&&s| s).count() as f64 / windows;
        let to_qos = safe.iter().position(|&s| s).map_or(1.0, |i| i as f64 / windows);
        let migration = if safe.iter().any(|&s| s) { 0.0 } else { 1.0 };
        labels.push(qos_safe_frac - 0.3 * to_qos - 0.2 * migration);
    }
    Group { features, labels }
}

/// Stable `ln(1 + exp(-s))`.
fn log1p_exp_neg(s: f64) -> f64 {
    (-s).max(0.0) + (-s.abs()).exp().ln_1p()
}

/// Full pairwise gradient and loss for one group under the current
/// weights. Pure in `(weights, group)` — the unit of parallel fan-out.
fn group_gradient(weights: &[f64], group: &Group) -> (Vec<f64>, f64, u64) {
    let mut grad = vec![0.0; FEATURE_DIM];
    let mut loss = 0.0;
    let mut pairs = 0u64;
    for i in 0..group.labels.len() {
        for j in 0..group.labels.len() {
            if i == j || group.labels[i] <= group.labels[j] + 1e-9 {
                continue;
            }
            // labels[i] > labels[j]: candidate i should outscore j.
            let delta: Vec<f64> = group.features[i]
                .iter()
                .zip(group.features[j].iter())
                .map(|(a, b)| a - b)
                .collect();
            let s: f64 = weights.iter().zip(&delta).map(|(w, d)| w * d).sum();
            let p = 1.0 / (1.0 + (-s).exp());
            loss += log1p_exp_neg(s);
            for (g, d) in grad.iter_mut().zip(&delta) {
                *g -= (1.0 - p) * d;
            }
            pairs += 1;
        }
    }
    (grad, loss, pairs)
}

/// Deterministic Fisher–Yates shuffle driven by its own seeded stream.
fn shuffle(order: &mut [usize], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
}

/// Trains a ranking model on the shared worker pool (one slot per pool
/// worker). Same config ⇒ bit-identical weights at any pool size.
#[must_use]
pub fn train(config: &TrainConfig, telemetry: &Telemetry<'_>) -> RankingModel {
    train_with_slots(config, clite_par::WorkerPool::global().size(), telemetry)
}

/// [`train`] with an explicit pool-slot count — the determinism tests
/// compare `slots = 1` (fully inline) against the pooled run.
#[must_use]
pub fn train_with_slots(
    config: &TrainConfig,
    slots: usize,
    telemetry: &Telemetry<'_>,
) -> RankingModel {
    let pool = clite_par::WorkerPool::global();
    let group_ids: Vec<usize> = (0..config.groups).collect();
    // Rollout generation: independent per group, merged in group order —
    // the worker count never reaches the data.
    let groups: Vec<Group> =
        clite_par::map_indexed(pool, slots, &group_ids, || (), |(), _, &g| build_group(config, g));

    let mut weights = vec![0.0; FEATURE_DIM];
    let mut last_epoch_loss = 0.0;
    for epoch in 0..config.epochs {
        let mut order: Vec<usize> = (0..groups.len()).collect();
        shuffle(&mut order, config.seed.wrapping_add(u64::from(epoch).wrapping_mul(0x9E37)));
        let mut epoch_loss = 0.0;
        let mut epoch_pairs = 0u64;
        for batch in order.chunks(config.batch.max(1)) {
            // Per-group gradients in parallel; the fold and the update
            // stay sequential on the caller, in batch order.
            let parts: Vec<(Vec<f64>, f64, u64)> = clite_par::map_indexed(
                pool,
                slots,
                batch,
                || (),
                |(), _, &g| group_gradient(&weights, &groups[g]),
            );
            let mut grad = vec![0.0; FEATURE_DIM];
            let mut pairs = 0u64;
            for (g, l, p) in parts {
                for (acc, x) in grad.iter_mut().zip(&g) {
                    *acc += x;
                }
                epoch_loss += l;
                pairs += p;
            }
            if pairs == 0 {
                continue;
            }
            epoch_pairs += pairs;
            let step = config.learning_rate / pairs as f64;
            for (w, g) in weights.iter_mut().zip(&grad) {
                *w -= step * g;
            }
        }
        last_epoch_loss = if epoch_pairs == 0 { 0.0 } else { epoch_loss / epoch_pairs as f64 };
        telemetry.emit(Event::TrainingEpoch { epoch, loss: last_epoch_loss });
    }
    RankingModel {
        feature_version: FEATURE_VERSION,
        weights,
        epochs: config.epochs,
        train_loss: last_epoch_loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TrainConfig {
        TrainConfig {
            groups: 6,
            candidates: 3,
            label_windows: 3,
            epochs: 3,
            ..TrainConfig::smoke(9)
        }
    }

    #[test]
    fn training_is_deterministic_under_one_config() {
        let t = Telemetry::disabled();
        let a = train_with_slots(&tiny(), 1, &t);
        let b = train_with_slots(&tiny(), 1, &t);
        assert_eq!(a, b);
        for (x, y) in a.weights.iter().zip(&b.weights) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn training_reduces_pairwise_loss_below_untrained_level() {
        let t = Telemetry::disabled();
        let model = train(&TrainConfig::smoke(42), &t);
        assert!(!model.is_zero(), "training must move the weights");
        assert!(
            model.train_loss < std::f64::consts::LN_2,
            "final loss {} should beat the coin-flip level",
            model.train_loss
        );
    }

    #[test]
    fn training_emits_epoch_telemetry() {
        use clite_telemetry::MemoryRecorder;
        let sink = MemoryRecorder::new();
        let t = Telemetry::new(&sink);
        let config = tiny();
        let _ = train_with_slots(&config, 1, &t);
        assert_eq!(sink.count_kind("training_epoch"), config.epochs as usize);
    }

    #[test]
    fn rollout_groups_are_pure_functions_of_their_index() {
        let config = tiny();
        let a = build_group(&config, 2);
        let b = build_group(&config, 2);
        assert_eq!(a.features, b.features);
        assert_eq!(a.labels, b.labels);
        let c = build_group(&config, 3);
        assert_ne!(a.labels, c.labels, "different groups draw different rollouts");
    }
}
