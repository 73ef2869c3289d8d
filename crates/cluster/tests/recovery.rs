//! Durable-recovery identity at fleet scale: kill the durable fleet after
//! the k-th event — at both WAL boundaries — for **every** k in the trace,
//! recover from checkpoint + journal suffix, finish the trace, and demand
//! the [`FleetRun`] witness be byte-identical to a never-crashed run. Also
//! pins the overload path: shedding decisions survive kill/recover because
//! the disposition and backlog ride in the journal, and the deadline
//! budget bounds every protected admission under a burst.

use std::path::PathBuf;

use clite_cluster::event::{FleetEvent, TimedEvent};
use clite_cluster::fleet::{
    backlog_at, EventOutcome, FleetConfig, FleetRun, FleetService, OverloadConfig,
};
use clite_cluster::recovery::{CrashPlan, CrashPoint, DurableConfig, DurableFleet, DurableOutcome};
use clite_cluster::scheduler::AdmissionMode;
use clite_cluster::trace::{generate, TraceConfig};
use clite_sim::testbed::ServerFactory;
use clite_telemetry::Telemetry;

const NODES: usize = 64;
const SEED: u64 = 42;

fn recovery_trace() -> Vec<TimedEvent> {
    generate(
        &TraceConfig {
            events: 14,
            arrival_weight: 6,
            departure_weight: 2,
            load_shift_weight: 2,
            onboard_every: Some(6),
            onboard_nodes: 4,
        },
        SEED,
    )
}

fn config(mode: AdmissionMode) -> FleetConfig {
    let mut config = FleetConfig::mean_field(4, 3);
    config.scheduler.admission = mode;
    config
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clite-recovery-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An arrival-heavy trace of `events` events all landing on the same
/// tick, so the backlog trigger sees every later event as queue depth.
fn burst(events: usize) -> Vec<TimedEvent> {
    generate(
        &TraceConfig {
            events,
            arrival_weight: 8,
            departure_weight: 1,
            load_shift_weight: 1,
            onboard_every: None,
            onboard_nodes: 0,
        },
        SEED,
    )
    .into_iter()
    .map(|e| TimedEvent::new(1, e.event))
    .collect()
}

fn baseline(mode: AdmissionMode, trace: &[TimedEvent]) -> FleetRun {
    let mut service = FleetService::new(NODES, config(mode), SEED).expect("fleet");
    service.run(trace, &Telemetry::disabled()).expect("baseline runs")
}

/// The tentpole gate: kill at every event boundary (both crash points),
/// recover, finish, compare — byte-identical every time, at 64 nodes,
/// with checkpoints cutting the replay suffix mid-sweep.
#[test]
fn kill_at_every_event_recovers_byte_identically() {
    let trace = recovery_trace();
    let want = baseline(AdmissionMode::Serial, &trace);
    let durable = DurableConfig { checkpoint_every: 4 };
    let dir = tempdir("sweep");
    let mut from_checkpoint = 0;
    for k in 0..trace.len() as u64 {
        for point in [CrashPoint::Journaled, CrashPoint::Applied] {
            let mut fleet = DurableFleet::create(
                NODES,
                config(AdmissionMode::Serial),
                SEED,
                ServerFactory,
                &dir,
                durable,
            )
            .expect("create");
            let plan = CrashPlan { after_event: k, point };
            let outcome =
                fleet.run(&trace, Some(&plan), &Telemetry::disabled()).expect("run to kill");
            assert!(matches!(outcome, DurableOutcome::Killed { .. }), "plan at k={k} must fire");
            drop(fleet);

            let mut recovered = DurableFleet::recover(
                NODES,
                config(AdmissionMode::Serial),
                SEED,
                ServerFactory,
                &dir,
                durable,
                None,
                &Telemetry::disabled(),
            )
            .expect("recover");
            let info = recovered.recovery_info().expect("recovered fleets carry info");
            from_checkpoint += usize::from(info.checkpoint_seqno > 0);
            let DurableOutcome::Completed(got) =
                recovered.run(&trace, None, &Telemetry::disabled()).expect("finish")
            else {
                panic!("no crash plan on the resumed run");
            };
            assert_eq!(got, want, "witness diverged after kill at k={k} ({point:?})");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(from_checkpoint > 0, "the sweep must exercise checkpoint restores, not only replay");
}

/// Serial and threaded admission recover to the same witness: the WAL
/// layer sits above the admission modes and must not perturb their
/// byte-identity contract.
#[test]
fn recovered_threaded_fleet_matches_serial() {
    let trace = recovery_trace();
    let want = baseline(AdmissionMode::Serial, &trace);
    let durable = DurableConfig { checkpoint_every: 4 };
    let dir = tempdir("threaded");
    let mut fleet = DurableFleet::create(
        NODES,
        config(AdmissionMode::Threaded),
        SEED,
        ServerFactory,
        &dir,
        durable,
    )
    .expect("create");
    let plan = CrashPlan { after_event: 7, point: CrashPoint::Journaled };
    fleet.run(&trace, Some(&plan), &Telemetry::disabled()).expect("run to kill");
    drop(fleet);
    let mut recovered = DurableFleet::recover(
        NODES,
        config(AdmissionMode::Threaded),
        SEED,
        ServerFactory,
        &dir,
        durable,
        None,
        &Telemetry::disabled(),
    )
    .expect("recover");
    let DurableOutcome::Completed(got) =
        recovered.run(&trace, None, &Telemetry::disabled()).expect("finish")
    else {
        panic!("must complete");
    };
    assert_eq!(got, want, "threaded recovery diverged from the serial baseline");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Overload shedding under a bursty trace survives kill/recover: the
/// journal carries each arrival's disposition and backlog, so the
/// recovered run sheds the same arrivals and the journal accounts for
/// every one of them.
#[test]
fn shedding_decisions_survive_recovery_and_are_journaled() {
    // The backlog trigger fires for background arrivals while LC arrivals
    // always probe; the arrival-heavy burst reliably contains BG arrivals.
    let burst = burst(20);
    let mut shedding_config = config(AdmissionMode::Serial);
    shedding_config.overload =
        OverloadConfig { shed_backlog: Some(4), shed_window_debt: None, debt_horizon: 8 };

    let want = {
        let mut service = FleetService::new(NODES, shedding_config.clone(), SEED).expect("fleet");
        service.run(&burst, &Telemetry::disabled()).expect("baseline")
    };
    assert!(want.counters.arrivals_shed > 0, "fixture must actually shed");
    assert_eq!(
        want.placements.len() as u64,
        want.counters.arrivals,
        "shed arrivals still hold a witness slot"
    );

    let durable = DurableConfig { checkpoint_every: 3 };
    let dir = tempdir("shed");
    let mut fleet =
        DurableFleet::create(NODES, shedding_config.clone(), SEED, ServerFactory, &dir, durable)
            .expect("create");
    let plan = CrashPlan { after_event: 5, point: CrashPoint::Applied };
    fleet.run(&burst, Some(&plan), &Telemetry::disabled()).expect("run to kill");
    drop(fleet);
    let mut recovered = DurableFleet::recover(
        NODES,
        shedding_config,
        SEED,
        ServerFactory,
        &dir,
        durable,
        None,
        &Telemetry::disabled(),
    )
    .expect("recover");
    let DurableOutcome::Completed(got) =
        recovered.run(&burst, None, &Telemetry::disabled()).expect("finish")
    else {
        panic!("must complete");
    };
    assert_eq!(got, want, "shedding run diverged across kill/recover");
    let journaled = DurableFleet::<ServerFactory>::journaled_sheds(&dir).expect("audit");
    assert_eq!(
        journaled, want.counters.arrivals_shed,
        "every shed arrival must be accounted in the journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Streams `trace` event by event at its same-tick backlog over a 4-node
/// fleet, returning each arrival's sample cost and whether it was shed,
/// plus the service's shed counter.
fn arrival_costs(config: FleetConfig, trace: &[TimedEvent]) -> (Vec<(u64, bool)>, u64) {
    let mut service = FleetService::new(4, config, SEED).expect("fleet");
    let mut costs = Vec::new();
    for (index, timed) in trace.iter().enumerate() {
        let before = service.scheduler().total_samples_spent();
        let outcome = service
            .handle_with_backlog(timed, backlog_at(trace, index), &Telemetry::disabled())
            .expect("event applies");
        if matches!(timed.event, FleetEvent::Arrival { .. }) {
            let spent = service.scheduler().total_samples_spent() - before;
            costs.push((spent, matches!(outcome, EventOutcome::Shed { .. })));
        }
    }
    (costs, service.counters().arrivals_shed)
}

/// A same-tick burst saturates a 4-node fleet, so late arrivals would scan
/// several candidates whose searches all come back infeasible — the scans
/// the deadline budget exists to stop — and the backlog trigger sheds
/// background arrivals before they probe at all.
#[test]
fn deadline_bounds_every_protected_admission_under_a_burst() {
    let trace = burst(24);
    // Below one search's typical cost, so admission stops scanning once
    // its first search has finished.
    let deadline = 4;
    let mut protected = config(AdmissionMode::Serial);
    protected.overload =
        OverloadConfig { shed_backlog: Some(4), shed_window_debt: None, debt_horizon: 8 };
    protected.scheduler.deadline_samples = Some(deadline);
    // The deadline is checked before each candidate, so one in-flight
    // search may finish past it. This bound is not a structural worst
    // case: a search spends its bootstrap, up to `max_iterations` BO
    // samples and up to three confirmation windows, and when confirmation
    // demotes the incumbent it runs a second BO pass and confirmation
    // (plus any quarantined windows). In the 3-node fixture below one such
    // resumed search spends 72 windows: 6 bootstrap, 2 × 30 BO and 2 × 3
    // confirmation, none quarantined. On this trace no search resumes —
    // the costliest spends 38 (5 + 30 + 3) — so the bound holds with room,
    // and a change that makes a search here resume would show up as a
    // failure.
    let bound = deadline + 2 * protected.scheduler.clite.termination.max_iterations as u64;

    let (costs, shed) = arrival_costs(protected, &trace);
    for &(cost, was_shed) in &costs {
        assert!(cost <= bound, "an admission blew the deadline budget (bound {bound}): {costs:?}");
        assert!(!was_shed || cost == 0, "a shed arrival must cost no samples: {costs:?}");
    }
    assert!(shed > 0, "the burst must actually trigger shedding");
    assert_eq!(costs.iter().filter(|&&(_, was_shed)| was_shed).count() as u64, shed);

    let (_, control_shed) = arrival_costs(config(AdmissionMode::Serial), &trace);
    assert_eq!(control_shed, 0, "the trace must not shed without overload settings");
}

/// Runs `trace` over a 3-node fleet with the backlog trigger armed and
/// the given deadline, returning the run witness and the probes charged
/// to the nodes.
fn shedding_run(
    mode: AdmissionMode,
    deadline: Option<u64>,
    trace: &[TimedEvent],
) -> (FleetRun, usize) {
    let mut config = config(mode);
    config.overload =
        OverloadConfig { shed_backlog: Some(6), shed_window_debt: None, debt_horizon: 8 };
    config.scheduler.deadline_samples = deadline;
    let mut service = FleetService::new(3, config, SEED).expect("fleet");
    let run = service.run(trace, &Telemetry::disabled()).expect("trace runs");
    let probes = service.scheduler().nodes().iter().map(|n| n.searches_run()).sum();
    (run, probes)
}

/// The deadline must bind while shedding is on: in a 16-event burst over
/// 3 nodes, the last arrival's first candidate comes back infeasible.
/// Without a deadline the scan goes on and places it on a second node;
/// with a 4-window budget it stops after that one search and the arrival
/// is rejected. Both admission modes stop at the same point (without a
/// deadline they are byte-identical, so one unbounded run serves both).
#[test]
fn deadline_stops_a_scan_early_while_shedding() {
    let trace = burst(16);
    let (free, free_probes) = shedding_run(AdmissionMode::Serial, None, &trace);
    let mut witnesses = Vec::new();
    for mode in [AdmissionMode::Serial, AdmissionMode::Threaded] {
        let (bounded, bounded_probes) = shedding_run(mode, Some(4), &trace);
        assert!(bounded.counters.arrivals_shed > 0, "{mode:?}: the burst must shed");
        assert_eq!(bounded.counters.arrivals_shed, free.counters.arrivals_shed);
        assert!(
            bounded_probes < free_probes,
            "{mode:?}: the deadline must cut a scan short ({bounded_probes} vs {free_probes} probes)"
        );
        assert_ne!(bounded.placements, free.placements, "{mode:?}: placements must differ");
        assert!(bounded.stats.rejected > free.stats.rejected, "{mode:?}: the cut scan rejects");
        witnesses.push(bounded);
    }
    assert_eq!(witnesses[0], witnesses[1], "serial and threaded must stop at the same point");
}
