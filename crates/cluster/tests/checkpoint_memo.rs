//! Memo coherence of checkpointed outcomes: a node's committed outcome
//! is one shared, immutable record whose checkpoint bytes are encoded
//! once. On generated traces with every kind of event — arrivals,
//! departures, load shifts, onboarding, and injected crashes whose nodes
//! are marked dead and whose jobs are re-placed — a checkpoint taken
//! after every event (every checkpoint boundary included) must round-trip, decode to the live nodes'
//! outcomes, encode to the same bytes as freshly built records with
//! empty memos, and share (not copy) each outcome with its node.

use std::sync::Arc;

use clite_bo::termination::Termination;
use clite_cluster::event::FleetEvent;
use clite_cluster::fleet::{EventOutcome, FleetConfig, FleetService};
use clite_cluster::trace::{generate, TraceConfig};
use clite_cluster::wire::{
    decode_checkpoint, encode_checkpoint, CommittedOutcome, FleetCheckpoint,
};
use clite_faults::{FaultSpec, FaultyFactory};
use clite_sim::testbed::ServerFactory;
use clite_telemetry::Telemetry;

fn trace_config() -> TraceConfig {
    TraceConfig {
        events: 40,
        arrival_weight: 5,
        departure_weight: 2,
        load_shift_weight: 2,
        onboard_every: Some(13),
        onboard_nodes: 2,
    }
}

/// A mean-field fleet with short searches: outcomes still carry their
/// samples, and the test stays quick in debug builds.
fn fleet_config() -> FleetConfig {
    let mut config = FleetConfig::mean_field(4, 3);
    config.scheduler.clite = config
        .scheduler
        .clite
        .with_termination(Termination { max_iterations: 10, ..Termination::default() });
    config
}

/// Crashes frequent enough that a few nodes die on every trace.
fn faults() -> FaultSpec {
    FaultSpec { crash_prob: 0.25, crash_window_max: 20, ..FaultSpec::none() }
}

/// The same checkpoint with every outcome rebuilt as a fresh record:
/// equal by value, sharing nothing, memos empty.
fn fresh_copy(c: &FleetCheckpoint) -> FleetCheckpoint {
    let mut copy = c.clone();
    for node in &mut copy.scheduler.nodes {
        node.last_outcome = node
            .last_outcome
            .as_ref()
            .map(|o| Arc::new(CommittedOutcome::new(o.outcome().clone())));
    }
    copy
}

/// Runs a generated trace, checkpointing after every event: a memo
/// filled by one checkpoint meets every later commit, removal, load
/// shift and crash.
fn check_trace(seed: u64) {
    let trace = generate(&trace_config(), seed);
    let kinds = |pred: fn(&FleetEvent) -> bool| trace.iter().filter(|e| pred(&e.event)).count();
    assert!(kinds(|e| matches!(e, FleetEvent::Departure { .. })) > 0, "seed {seed}");
    assert!(kinds(|e| matches!(e, FleetEvent::LoadShift { .. })) > 0, "seed {seed}");
    assert!(kinds(|e| matches!(e, FleetEvent::Onboard { .. })) > 0, "seed {seed}");

    let factory = FaultyFactory::new(ServerFactory, faults());
    let mut service = FleetService::with_factory(6, fleet_config(), seed, factory).expect("fleet");
    let mut placements = Vec::new();
    let mut previous: Option<FleetCheckpoint> = None;
    let mut checked = 0;
    for (index, event) in trace.iter().enumerate() {
        match service.handle(event, &Telemetry::disabled()).expect("event") {
            EventOutcome::Placed(p) => placements.push(Some(p.node)),
            EventOutcome::Rejected { .. } | EventOutcome::Shed { .. } => placements.push(None),
            _ => {}
        }
        let applied = index as u64 + 1;
        let ckpt = service.checkpoint(applied, &placements);
        let bytes = encode_checkpoint(&ckpt);
        let decoded = decode_checkpoint(&bytes).expect("checkpoint decodes");
        assert_eq!(decoded, ckpt, "seed {seed}, event {applied}: round trip");
        assert_eq!(
            encode_checkpoint(&fresh_copy(&ckpt)),
            bytes,
            "seed {seed}, event {applied}: memoized bytes match a fresh encoding"
        );

        let nodes = service.scheduler().nodes();
        assert_eq!(decoded.scheduler.nodes.len(), nodes.len());
        for ((snap, back), node) in
            ckpt.scheduler.nodes.iter().zip(&decoded.scheduler.nodes).zip(nodes)
        {
            let live = node.last_outcome();
            assert_eq!(back.last_outcome.as_deref().map(CommittedOutcome::outcome), live);
            // Shared, not copied: the snapshot points at the node's
            // own record.
            assert_eq!(snap.last_outcome.is_some(), live.is_some());
            if let (Some(shared), Some(live)) = (&snap.last_outcome, live) {
                assert!(std::ptr::eq(shared.outcome(), live), "node {} copied", node.id());
            }
        }
        // A node with no commit since the last checkpoint hands out
        // the same record again.
        if let Some(prev) = &previous {
            for (a, b) in prev.scheduler.nodes.iter().zip(&ckpt.scheduler.nodes) {
                if let (true, Some(x), Some(y)) =
                    (a.commits == b.commits, &a.last_outcome, &b.last_outcome)
                {
                    assert!(Arc::ptr_eq(x, y), "seed {seed}: node {} re-built", a.id);
                }
            }
        }
        previous = Some(ckpt);
        checked += 1;
    }
    assert_eq!(checked, trace.len(), "seed {seed}");

    // The trace exercised crashes: dead nodes hold no outcome, and
    // their jobs were re-placed elsewhere.
    let last = previous.expect("at least one checkpoint");
    let dead: Vec<_> = last.scheduler.nodes.iter().filter(|n| !n.alive).collect();
    assert!(!dead.is_empty(), "seed {seed}: no node crashed");
    assert!(dead.iter().all(|n| n.last_outcome.is_none() && n.jobs.is_empty()));
    assert!(last.counters.replacements > 0, "seed {seed}: no orphan re-placed");
}

#[test]
fn checkpoints_share_memoized_outcomes_seed_3() {
    check_trace(3);
}

#[test]
fn checkpoints_share_memoized_outcomes_seed_17() {
    check_trace(17);
}

#[test]
fn checkpoints_share_memoized_outcomes_seed_42() {
    check_trace(42);
}
