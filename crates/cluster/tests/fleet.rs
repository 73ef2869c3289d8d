//! Fleet-scale determinism: for a fixed trace and seed the event loop's
//! placements, counters, and statistics must be byte-identical across
//! serial vs threaded admission, across store shard counts, and across
//! repeated runs — at a fleet size (≥256 nodes) where a naive
//! parallelization or shard-dependent lookup would actually diverge, with
//! and without injected node crashes.

use std::sync::Arc;

use clite_cluster::fleet::{FleetConfig, FleetCounters, FleetRun, FleetService};
use clite_cluster::learned;
use clite_cluster::scheduler::AdmissionMode;
use clite_cluster::stats::ClusterStats;
use clite_cluster::trace::{generate, TraceConfig};
use clite_faults::{FaultSpec, FaultyFactory};
use clite_sim::prelude::*;
use clite_sim::testbed::{ServerFactory, TestbedFactory};
use clite_store::log::fnv1a64;
use clite_store::{ObservationStore, ShardPolicy, ShardedStore, StoreHandle};
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
    store: Option<StoreHandle>,
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
    let single: StoreHandle = ObservationStore::in_memory().into_shared().into();
    let reference = run(AdmissionMode::Serial, Some(single), ServerFactory);
    for shards in [1usize, 4, 16] {
        let store: Arc<ShardedStore> = ShardedStore::in_memory(ShardPolicy::with_shards(shards));
        let got = run(AdmissionMode::Serial, Some(store.clone().into()), ServerFactory);
        assert_eq!(got, reference, "{shards}-shard fleet diverged from the single-lock store");
        assert!(store.stats().appends > 0, "committed searches must reach the store");
    }
}

/// Serial over one mutex-guarded store vs threaded over an 8-shard store
/// — every layer swapped at once — must stay byte-identical; returns the
/// serial run.
fn assert_threaded_sharded_matches_serial_single_lock<F: TestbedFactory + Sync + Clone>(
    factory: F,
) -> FleetRun {
    let single: StoreHandle = ObservationStore::in_memory().into_shared().into();
    let serial = run(AdmissionMode::Serial, Some(single), factory.clone());
    let sharded: Arc<ShardedStore> = ShardedStore::in_memory(ShardPolicy::with_shards(8));
    let threaded = run(AdmissionMode::Threaded, Some(sharded.into()), factory);
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
