//! Fleet-scale determinism: for a fixed trace and seed the event loop's
//! placements, counters, and statistics must be byte-identical across
//! serial vs threaded admission, across store shard counts, and across
//! repeated runs — at a fleet size (≥256 nodes) where a naive
//! parallelization or shard-dependent lookup would actually diverge, with
//! and without injected node crashes.

use std::sync::Arc;

use clite_cluster::fleet::{FleetConfig, FleetCounters, FleetRun, FleetService};
use clite_cluster::learned;
use clite_cluster::node::Node;
use clite_cluster::scheduler::AdmissionMode;
use clite_cluster::stats::ClusterStats;
use clite_cluster::trace::{generate, TraceConfig};
use clite_cluster::wire::CommittedOutcome;
use clite_faults::{FaultSpec, FaultyFactory};
use clite_sim::prelude::*;
use clite_sim::testbed::{ServerFactory, TestbedFactory};
use clite_store::log::fnv1a64;
use clite_store::{ShardPolicy, ShardedStore};
use clite_telemetry::Telemetry;

const NODES: usize = 256;
const SEED: u64 = 42;

/// A mixed trace that grows the fleet past 256 nodes while jobs arrive,
/// depart, and shift load.
fn fleet_trace() -> Vec<clite_cluster::event::TimedEvent> {
    generate(
        &TraceConfig {
            events: 48,
            arrival_weight: 6,
            departure_weight: 2,
            load_shift_weight: 2,
            onboard_every: Some(16),
            onboard_nodes: 8,
        },
        SEED,
    )
}

/// Mean-field config: epoch template every 8 ticks, at most 4 probes per
/// admission — the fleet-scale operating point (probing all 256+ nodes per
/// arrival would be quadratic and is exactly what the epoch policy
/// avoids).
fn config(mode: AdmissionMode) -> FleetConfig {
    let mut config = FleetConfig::mean_field(8, 4);
    config.scheduler.admission = mode;
    config
}

fn run<F: TestbedFactory + Sync + Clone>(
    mode: AdmissionMode,
    store: Option<Arc<ShardedStore>>,
    factory: F,
) -> FleetRun {
    let mut fleet = FleetService::with_factory(NODES, config(mode), SEED, factory).expect("fleet");
    if let Some(store) = store {
        fleet = fleet.with_store(store);
    }
    fleet.run(&fleet_trace(), &Telemetry::disabled()).expect("trace runs")
}

/// A deterministic non-zero ranking model.
fn learned_model() -> clite_learn::RankingModel {
    let mut model = clite_learn::RankingModel::zeroed();
    for (i, w) in model.weights.iter_mut().enumerate() {
        *w = (i as f64 - 6.0) * 0.05;
    }
    model.epochs = 1;
    model
}

/// Like [`config`] but serving a trained (non-zero) placement model.
fn learned_config(mode: AdmissionMode) -> FleetConfig {
    let mut config = FleetConfig::mean_field_learned(8, 4, Arc::new(learned_model()));
    config.scheduler.admission = mode;
    config
}

#[test]
fn learned_fleet_is_byte_identical_across_admission_modes() {
    // The acceptance criterion for the learned policy: the model-ordered
    // fleet keeps the serial ≡ threaded contract at scale, epoch solves
    // and all.
    let mut serial_fleet =
        FleetService::new(NODES, learned_config(AdmissionMode::Serial), SEED).expect("fleet");
    let serial = serial_fleet.run(&fleet_trace(), &Telemetry::disabled()).expect("trace runs");
    let mut threaded_fleet =
        FleetService::new(NODES, learned_config(AdmissionMode::Threaded), SEED).expect("fleet");
    let threaded = threaded_fleet.run(&fleet_trace(), &Telemetry::disabled()).expect("trace runs");
    assert_eq!(serial.placements, threaded.placements, "learned placements diverged");
    assert_eq!(serial.counters, threaded.counters, "learned counters diverged");
    assert_eq!(serial.stats, threaded.stats, "learned statistics diverged");
    assert!(serial.counters.epoch_solves >= 2, "epoch loop must keep solving for gauges");
    assert!(
        matches!(
            serial_fleet.scheduler().config().placement,
            clite_cluster::placement::PlacementPolicy::Learned { .. }
        ),
        "epoch solves must never overwrite the learned policy"
    );
}

#[test]
fn serial_and_threaded_fleets_are_byte_identical_at_256_nodes() {
    let serial = run(AdmissionMode::Serial, None, ServerFactory);
    let threaded = run(AdmissionMode::Threaded, None, ServerFactory);
    assert_eq!(serial.placements, threaded.placements, "placements diverged");
    assert_eq!(serial.counters, threaded.counters, "counters diverged");
    assert_eq!(serial.stats, threaded.stats, "statistics diverged");

    // The fixture must exercise the paths where divergence would show.
    assert!(serial.counters.arrivals >= 20, "trace must be arrival-heavy");
    assert!(serial.counters.departures + serial.counters.load_shifts > 0, "trace must churn");
    assert!(serial.counters.nodes_onboarded > 0, "trace must onboard nodes");
    assert!(serial.counters.epoch_solves >= 2, "epoch policy must re-solve");
    assert_eq!(serial.stats.nodes.len(), NODES + serial.counters.nodes_onboarded as usize);
}

#[test]
fn shard_count_does_not_change_fleet_outcomes() {
    // A one-shard store is one lock: the single-lock reference.
    let single = ShardedStore::in_memory(ShardPolicy::with_shards(1));
    let reference = run(AdmissionMode::Serial, Some(single), ServerFactory);
    for shards in [1usize, 4, 16] {
        let store = ShardedStore::in_memory(ShardPolicy::with_shards(shards));
        let got = run(AdmissionMode::Serial, Some(Arc::clone(&store)), ServerFactory);
        assert_eq!(got, reference, "{shards}-shard fleet diverged from the single-lock store");
        assert!(store.stats().appends > 0, "committed searches must reach the store");
    }
}

/// Serial over a one-shard (single-lock) store vs threaded over an
/// 8-shard store — every layer swapped at once — must stay
/// byte-identical; returns the serial run.
fn assert_threaded_sharded_matches_serial_single_lock<F: TestbedFactory + Sync + Clone>(
    factory: F,
) -> FleetRun {
    let single = ShardedStore::in_memory(ShardPolicy::with_shards(1));
    let serial = run(AdmissionMode::Serial, Some(single), factory.clone());
    let sharded = ShardedStore::in_memory(ShardPolicy::with_shards(8));
    let threaded = run(AdmissionMode::Threaded, Some(sharded), factory);
    assert_eq!(serial, threaded);
    serial
}

#[test]
fn threaded_sharded_fleet_matches_serial_single_lock() {
    assert_threaded_sharded_matches_serial_single_lock(ServerFactory);
    // Probes die mid-search often enough that nodes are evicted and their
    // jobs re-placed: eviction order must not depend on admission mode or
    // shard routing either.
    let crashes = FaultSpec { crash_prob: 0.35, crash_window_max: 20, ..FaultSpec::none() };
    let crashed = assert_threaded_sharded_matches_serial_single_lock(FaultyFactory::new(
        ServerFactory,
        crashes,
    ));
    assert!(crashed.stats.dead_nodes > 0, "the crash plan must actually kill nodes");
}

#[test]
fn incremental_stats_match_from_scratch_recompute() {
    // The fleet reads ClusterStats every epoch; it is maintained
    // incrementally on commit/evict/remove/load-shift. Pin it against the
    // O(fleet) from-scratch recompute after a full churn trace.
    let mut fleet = FleetService::new(8, config(AdmissionMode::Serial), SEED).expect("fleet");
    fleet.run(&fleet_trace(), &Telemetry::disabled()).expect("trace runs");
    let scheduler = fleet.scheduler();
    let recomputed = ClusterStats::collect(scheduler.nodes(), scheduler.rejected());
    assert_eq!(fleet.stats(), recomputed, "incremental stats drifted from recompute");
    assert!(recomputed.placed > 0, "fixture must commit jobs for the check to bite");
}

#[test]
fn fleet_runs_are_self_deterministic() {
    let a = run(AdmissionMode::Threaded, None, ServerFactory);
    let b = run(AdmissionMode::Threaded, None, ServerFactory);
    assert_eq!(a, b);
}

/// The learned 64-node run below, recorded before the headroom design
/// memo: placements, counters, and a digest of every node's ranking on
/// the final state. A ranking change must reproduce them exactly.
const LEARNED_64_PLACEMENTS: [usize; 24] =
    [0, 0, 1, 1, 2, 3, 3, 0, 4, 5, 5, 4, 6, 6, 0, 6, 3, 3, 0, 7, 8, 8, 8, 2];
const LEARNED_64_RANKING_DIGEST: u64 = 0xa876_3ed8_ab4c_8e2c;

#[test]
fn learned_placements_match_the_pinned_record() {
    // Regenerate: print `run.placements`, `run.counters` and `digest`.
    let mut fleet =
        FleetService::new(64, learned_config(AdmissionMode::Serial), SEED).expect("fleet");
    let run = fleet.run(&fleet_trace(), &Telemetry::disabled()).expect("trace runs");
    let pinned: Vec<Option<usize>> = LEARNED_64_PLACEMENTS.iter().copied().map(Some).collect();
    assert_eq!(run.placements, pinned, "learned ranking changed the placements");
    assert_eq!(
        run.counters,
        FleetCounters {
            arrivals: 24,
            placed: 24,
            departures: 9,
            load_shifts: 12,
            stale_events: 0,
            nodes_onboarded: 24,
            epoch_solves: 7,
            replacements: 0,
            arrivals_shed: 0,
        },
        "learned ranking changed the counters"
    );

    // Scores carry every headroom bit, so the digest also pins rankings
    // the placements above happen not to depend on.
    let scheduler = fleet.scheduler();
    let candidates: Vec<usize> = (0..scheduler.nodes().len()).collect();
    let model = learned_model();
    let mut bytes = Vec::new();
    for spec in [
        JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
        JobSpec::latency_critical(WorkloadId::ImgDnn, 0.6),
        JobSpec::background(WorkloadId::Streamcluster),
    ] {
        let ranked =
            learned::rank(&model, &spec, scheduler.nodes(), &candidates, scheduler.stats_ref());
        for (id, score) in ranked {
            bytes.extend((id as u64).to_le_bytes());
            bytes.extend(score.to_bits().to_le_bytes());
        }
    }
    let digest = fnv1a64(&bytes);
    assert_eq!(digest, LEARNED_64_RANKING_DIGEST, "learned ranking changed: {digest:#x}");
}

/// `learned::rank` as it was built before the allocation-free rewrite:
/// every input collected into a `Vec`, the trace included, and a stable
/// sort. The reference for traces the memo does not cover.
fn vec_path_rank(
    model: &clite_learn::RankingModel,
    spec: &JobSpec,
    nodes: &[Node],
    candidates: &[usize],
    stats: &ClusterStats,
) -> Vec<(usize, f64)> {
    let signature_load = |s: &JobSpec| match s.class() {
        JobClass::LatencyCritical => s.load.at(0.0),
        JobClass::Background => 1.0,
    };
    let lc = spec.class() == JobClass::LatencyCritical;
    let job = clite_learn::JobInput {
        latency_critical: lc,
        load: if lc { spec.load.at(0.0) } else { 0.0 },
        qos_target_us: if lc {
            QosSpec::derive(spec.workload, &ResourceCatalog::testbed()).target_us
        } else {
            0.0
        },
    };
    let alive: Vec<_> = stats.nodes.iter().filter(|n| n.alive).collect();
    let fleet = clite_learn::FleetInput {
        alive_nodes: alive.len(),
        mean_lc_load: alive.iter().map(|n| n.lc_load).sum::<f64>() / alive.len() as f64,
        admission_rate: stats.admission_rate(),
    };
    let mut scored: Vec<(usize, f64, f64)> = candidates
        .iter()
        .map(|&id| {
            let node = &nodes[id];
            let loads: Vec<f64> = node.jobs().iter().map(|j| signature_load(&j.spec)).collect();
            let (mix_mean, mix_max) =
                clite_learn::features::mix_load_pcts(loads, signature_load(spec));
            let headroom = node.last_outcome().map_or_else(clite_learn::Headroom::prior, |o| {
                let n = o.samples.len();
                let trace: Vec<(f64, f64)> = o
                    .samples
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i as f64 / (n - 1).max(1) as f64, s.score.value))
                    .collect();
                clite_learn::headroom::predict(&trace)
            });
            let input = clite_learn::NodeInput {
                jobs: node.job_count(),
                lc_jobs: node
                    .jobs()
                    .iter()
                    .filter(|j| j.spec.class() == JobClass::LatencyCritical)
                    .count(),
                lc_load: node.committed_lc_load(),
                bg_perf: node.last_outcome().and_then(|o| {
                    o.samples
                        .iter()
                        .max_by(|a, b| a.score.value.total_cmp(&b.score.value))
                        .and_then(|s| {
                            let perfs: Vec<f64> =
                                s.observation.bg_jobs().map(|j| j.normalized_perf).collect();
                            (!perfs.is_empty())
                                .then(|| perfs.iter().sum::<f64>() / perfs.len() as f64)
                        })
                }),
                qos_met: node.last_outcome().is_none_or(|o| o.qos_met()),
                mix_mean_load_pct: mix_mean,
                mix_max_load_pct: mix_max,
                headroom,
            };
            let features = clite_learn::extract(&job, &input, &fleet);
            (id, model.score(&features), input.lc_load)
        })
        .collect();
    scored.sort_by(|&(a, sa, la), &(b, sb, lb)| {
        sb.total_cmp(&sa).then_with(|| la.total_cmp(&lb)).then_with(|| a.cmp(&b))
    });
    scored.into_iter().map(|(id, score, _)| (id, score)).collect()
}

#[test]
fn ranking_past_the_headroom_memo_cap_matches_the_vec_path() {
    let mut fleet =
        FleetService::new(64, learned_config(AdmissionMode::Serial), SEED).expect("fleet");
    fleet.run(&fleet_trace(), &Telemetry::disabled()).expect("trace runs");
    let mut nodes: Vec<Node> = fleet
        .scheduler()
        .nodes()
        .iter()
        .map(|n| Node::from_snapshot(n.snapshot(), ResourceCatalog::testbed(), ServerFactory))
        .collect();

    // Stretch one node's committed trace past the memo cap: its samples
    // cycled, each score nudged so the trace is not flat.
    let long = clite_learn::headroom::MEMO_CAP + 9;
    let id = nodes.iter().position(|n| n.last_outcome().is_some()).expect("a committed node");
    let mut snap = nodes[id].snapshot();
    let mut outcome = nodes[id].last_outcome().expect("committed").clone();
    outcome.samples = (0..long)
        .map(|i| {
            let mut sample = outcome.samples[i % outcome.samples.len()].clone();
            sample.index = i;
            sample.score.value = (sample.score.value + 0.003 * (i % 7) as f64).min(1.0);
            sample
        })
        .collect();
    snap.last_outcome = Some(Arc::new(CommittedOutcome::new(outcome)));
    nodes[id] = Node::from_snapshot(snap, ResourceCatalog::testbed(), ServerFactory);
    assert_eq!(nodes[id].last_outcome().expect("stretched").samples.len(), long);

    let stats = ClusterStats::collect(&nodes, 0);
    let candidates: Vec<usize> = (0..nodes.len()).collect();
    let model = learned_model();
    for spec in [
        JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
        JobSpec::latency_critical(WorkloadId::ImgDnn, 0.6),
        JobSpec::background(WorkloadId::Streamcluster),
    ] {
        let ranked = learned::rank(&model, &spec, &nodes, &candidates, &stats);
        let reference = vec_path_rank(&model, &spec, &nodes, &candidates, &stats);
        let bits =
            |r: &[(usize, f64)]| r.iter().map(|&(id, s)| (id, s.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&ranked), bits(&reference), "{spec:?}");
    }
}
