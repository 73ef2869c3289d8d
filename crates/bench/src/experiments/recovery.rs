//! `recovery` — durable fleet recovery and overload shedding (extension).
//!
//! Three hard gates, all committed to `results/BENCH_pr10.json`:
//!
//! 1. **Kill sweep → replay identity**: a durable fleet is killed after
//!    the k-th event — at both WAL boundaries (right after the journal
//!    append, and right after the apply) — for *every* k in the trace,
//!    recovered from the newest checkpoint plus the journal suffix, and
//!    run to completion. The recovered [`FleetRun`] witness must be
//!    byte-identical to a never-crashed run at every kill point. The
//!    guarantee is storeless (the observation store is a performance
//!    cache, not part of the witness), so the sweep runs without one.
//! 2. **Serial ≡ threaded across recovery**: a threaded-admission fleet
//!    killed and recovered must land on the serial baseline's witness.
//! 3. **Overload protection**: under a same-tick arrival burst over a
//!    saturated fleet, the backlog trigger sheds background arrivals
//!    (zero probe cost) and the per-admission deadline budget stops the
//!    candidate scan once its sample allowance is spent. Every protected
//!    admission — p99 included — must stay under the structural bound
//!    `deadline + 2 x max_iterations` (the budget is checked between
//!    candidates, so one in-flight search may finish past it), and every
//!    shed arrival must be accounted in the journal (`journaled_sheds`
//!    equals the counter). The unprotected control run is reported
//!    alongside for contrast.

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
use serde::Serialize;

use crate::export::save_json;
use crate::render::Table;
use crate::{ExpOptions, Report};

/// Default artifact destination, overridable via `$CLITE_RECOVERY_REPORT`.
const BENCH_ARTIFACT: &str = "results/BENCH_pr10.json";

/// The committed benchmark artifact.
#[derive(Debug, Serialize)]
struct RecoveryBench {
    version: u32,
    seed: u64,
    kill_sweep: KillSweep,
    threaded: ThreadedGate,
    overload: OverloadGate,
}

/// The kill-at-every-k replay-identity sweep.
#[derive(Debug, Serialize)]
struct KillSweep {
    nodes: usize,
    events: usize,
    checkpoint_every: u64,
    /// Kill points exercised: every seqno × both crash boundaries.
    kill_points: usize,
    /// Recoveries that restored from a checkpoint (vs full replay).
    from_checkpoint: usize,
    /// Largest journal suffix any recovery replayed.
    max_replayed: u64,
    all_identical: bool,
}

/// The threaded-admission recovery gate.
#[derive(Debug, Serialize)]
struct ThreadedGate {
    kill_after: u64,
    byte_identical: bool,
}

/// The overload-protection gate.
#[derive(Debug, Serialize)]
struct OverloadGate {
    burst_events: usize,
    shed_backlog_trigger: u64,
    /// Per-admission sample allowance (`deadline_samples`).
    deadline_samples: u64,
    /// The gated bound: p99 of the protected run must stay under this.
    p99_bound: u64,
    arrivals: u64,
    arrivals_shed: u64,
    /// p99 of per-admission sample cost with protections on.
    p99_samples_protected: u64,
    /// p99 of per-admission sample cost on the unprotected control run.
    p99_samples_unprotected: u64,
    /// Shed dispositions found in the journal (must equal the counter).
    journaled_sheds: u64,
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("clite-recovery-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fleet_config(mode: AdmissionMode) -> FleetConfig {
    let mut config = FleetConfig::mean_field(4, 3);
    config.scheduler.admission = mode;
    config
}

fn baseline(nodes: usize, config: FleetConfig, seed: u64, trace: &[TimedEvent]) -> FleetRun {
    let mut service = FleetService::new(nodes, config, seed).expect("non-empty fleet");
    service.run(trace, &Telemetry::disabled()).expect("baseline run healthy")
}

/// Kills a durable fleet per `plan`, recovers it from `dir`, and finishes
/// the trace. Returns the completed witness and the replayed-suffix
/// length (`None` replay length means recovery restored no checkpoint).
fn kill_and_recover(
    nodes: usize,
    config: &FleetConfig,
    seed: u64,
    trace: &[TimedEvent],
    dir: &std::path::Path,
    durable: DurableConfig,
    plan: &CrashPlan,
) -> (FleetRun, u64, bool) {
    let mut fleet = DurableFleet::create(nodes, config.clone(), seed, ServerFactory, dir, durable)
        .expect("durable fleet opens");
    let outcome =
        fleet.run(trace, Some(plan), &Telemetry::disabled()).expect("run to the kill point");
    assert!(matches!(outcome, DurableOutcome::Killed { .. }), "crash plan must fire");
    drop(fleet);

    let mut recovered = DurableFleet::recover(
        nodes,
        config.clone(),
        seed,
        ServerFactory,
        dir,
        durable,
        None,
        &Telemetry::disabled(),
    )
    .expect("recovery succeeds");
    let info = recovered.recovery_info().expect("recovered fleets carry info");
    let DurableOutcome::Completed(run) =
        recovered.run(trace, None, &Telemetry::disabled()).expect("resumed run completes")
    else {
        panic!("resumed run has no crash plan");
    };
    (run, info.replayed, info.checkpoint_seqno > 0)
}

/// Gate 1: the kill sweep.
fn kill_sweep(opts: &ExpOptions) -> (KillSweep, String) {
    let nodes = if opts.quick { 32 } else { 64 };
    let events = if opts.quick { 10 } else { 16 };
    let durable = DurableConfig { checkpoint_every: 4 };
    let trace = generate(&TraceConfig { events, ..TraceConfig::default() }, opts.seed);
    let want = baseline(nodes, fleet_config(AdmissionMode::Serial), opts.seed, &trace);
    let dir = scratch_dir("sweep");

    let mut from_checkpoint = 0usize;
    let mut max_replayed = 0u64;
    let mut kill_points = 0usize;
    for k in 0..trace.len() as u64 {
        for point in [CrashPoint::Journaled, CrashPoint::Applied] {
            let plan = CrashPlan { after_event: k, point };
            let (got, replayed, had_checkpoint) = kill_and_recover(
                nodes,
                &fleet_config(AdmissionMode::Serial),
                opts.seed,
                &trace,
                &dir,
                durable,
                &plan,
            );
            assert_eq!(got, want, "recovered witness diverged at kill point k={k} ({point:?})");
            kill_points += 1;
            from_checkpoint += usize::from(had_checkpoint);
            max_replayed = max_replayed.max(replayed);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(from_checkpoint > 0, "the sweep must exercise checkpoint restores, not only replay");

    let sweep = KillSweep {
        nodes,
        events: trace.len(),
        checkpoint_every: durable.checkpoint_every,
        kill_points,
        from_checkpoint,
        max_replayed,
        all_identical: true,
    };
    let body = format!(
        "kill sweep: {} kill points ({} events x 2 crash boundaries) over {nodes} nodes,\n\
         checkpoint every {} events: {} recoveries restored a checkpoint, longest\n\
         journal suffix replayed {} events — every recovered witness byte-identical\n\
         to the never-crashed run.\n",
        sweep.kill_points,
        sweep.events,
        sweep.checkpoint_every,
        sweep.from_checkpoint,
        sweep.max_replayed,
    );
    (sweep, body)
}

/// Gate 2: threaded admission recovers onto the serial witness.
fn threaded_gate(opts: &ExpOptions) -> (ThreadedGate, String) {
    let nodes = if opts.quick { 32 } else { 64 };
    let events = if opts.quick { 10 } else { 16 };
    let durable = DurableConfig { checkpoint_every: 4 };
    let trace = generate(&TraceConfig { events, ..TraceConfig::default() }, opts.seed);
    let want = baseline(nodes, fleet_config(AdmissionMode::Serial), opts.seed, &trace);
    let kill_after = (trace.len() / 2) as u64;
    let dir = scratch_dir("threaded");
    let plan = CrashPlan { after_event: kill_after, point: CrashPoint::Journaled };
    let (got, _, _) = kill_and_recover(
        nodes,
        &fleet_config(AdmissionMode::Threaded),
        opts.seed,
        &trace,
        &dir,
        durable,
        &plan,
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(got, want, "threaded recovery diverged from the serial baseline");
    let body = format!(
        "threaded admission killed at event {kill_after} and recovered: witness matches\n\
         the serial never-crashed baseline byte-for-byte.\n"
    );
    (ThreadedGate { kill_after, byte_identical: true }, body)
}

/// A same-tick arrival burst: the backlog trigger sees every later event
/// in the tick as queue depth.
fn burst_trace(opts: &ExpOptions) -> Vec<TimedEvent> {
    let events = if opts.quick { 24 } else { 48 };
    generate(
        &TraceConfig {
            events,
            arrival_weight: 8,
            departure_weight: 1,
            load_shift_weight: 1,
            onboard_every: None,
            onboard_nodes: 0,
        },
        opts.seed,
    )
    .into_iter()
    .map(|e| TimedEvent::new(1, e.event))
    .collect()
}

/// Streams `trace` event-by-event, recording the sample cost of each
/// arrival (shed arrivals cost zero — that is the point).
fn admission_costs(
    nodes: usize,
    config: FleetConfig,
    seed: u64,
    trace: &[TimedEvent],
) -> (Vec<u64>, u64) {
    let mut service = FleetService::new(nodes, config, seed).expect("non-empty fleet");
    let mut costs = Vec::new();
    for (index, timed) in trace.iter().enumerate() {
        let before = service.scheduler().total_samples_spent();
        let outcome = service
            .handle_with_backlog(timed, backlog_at(trace, index), &Telemetry::disabled())
            .expect("event applies");
        if matches!(timed.event, FleetEvent::Arrival { .. }) {
            let spent = service.scheduler().total_samples_spent().saturating_sub(before);
            debug_assert!(!matches!(outcome, EventOutcome::Shed { .. }) || spent == 0);
            costs.push(spent);
        }
    }
    (costs, service.counters().arrivals_shed)
}

/// p99 over a deterministic cost series (nearest-rank).
fn p99(costs: &[u64]) -> u64 {
    let mut sorted = costs.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * 99).div_ceil(100);
    sorted[rank.saturating_sub(1)]
}

/// Gate 3: overload protection bounds admission cost and is fully
/// journaled.
fn overload_gate(opts: &ExpOptions) -> (OverloadGate, String) {
    // A deliberately small fleet: the burst saturates it, so late
    // arrivals scan several candidates whose searches all come back
    // infeasible — exactly the scans the deadline budget exists to stop.
    let nodes = if opts.quick { 4 } else { 6 };
    let shed_backlog = 4u64;
    // Aggressive deadline: below one search's typical cost, so admission
    // stops scanning once its first search has finished.
    let deadline = 4u64;
    let trace = burst_trace(opts);

    let mut shed_config = fleet_config(AdmissionMode::Serial);
    shed_config.overload = OverloadConfig {
        shed_backlog: Some(shed_backlog),
        shed_window_debt: None,
        debt_horizon: 8,
    };
    shed_config.scheduler.deadline_samples = Some(deadline);
    // The deadline is checked before each candidate, so one in-flight
    // search may finish past it. A single search is capped at
    // `max_iterations` plus a bootstrap phase no longer than that, so
    // `deadline + 2 x max_iterations` is a structural worst case, not a
    // tuned constant.
    let bound = deadline + 2 * shed_config.scheduler.clite.termination.max_iterations as u64;
    let (shed_costs, shed_count) = admission_costs(nodes, shed_config.clone(), opts.seed, &trace);
    let (unshed_costs, none_shed) =
        admission_costs(nodes, fleet_config(AdmissionMode::Serial), opts.seed, &trace);
    assert_eq!(none_shed, 0, "the control run must not shed");
    assert!(shed_count > 0, "the burst must actually trigger shedding");
    let p99_shed = p99(&shed_costs);
    let p99_unshed = p99(&unshed_costs);
    assert!(
        shed_costs.iter().all(|&c| c <= bound),
        "no protected admission may blow through the deadline budget \
         (bound {bound}, costs {shed_costs:?})"
    );

    // Journal accounting: a durable run of the same shedding config must
    // record every shed disposition.
    let dir = scratch_dir("overload");
    let mut fleet = DurableFleet::create(
        nodes,
        shed_config,
        opts.seed,
        ServerFactory,
        &dir,
        DurableConfig { checkpoint_every: 8 },
    )
    .expect("durable fleet opens");
    let DurableOutcome::Completed(run) =
        fleet.run(&trace, None, &Telemetry::disabled()).expect("durable burst completes")
    else {
        panic!("no crash plan");
    };
    drop(fleet);
    let journaled =
        DurableFleet::<ServerFactory>::journaled_sheds(&dir).expect("journal audit reads");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(run.counters.arrivals_shed, shed_count, "durable run must shed identically");
    assert_eq!(journaled, shed_count, "every shed arrival must carry a journaled disposition");

    let gate = OverloadGate {
        burst_events: trace.len(),
        shed_backlog_trigger: shed_backlog,
        deadline_samples: deadline,
        p99_bound: bound,
        arrivals: shed_costs.len() as u64,
        arrivals_shed: shed_count,
        p99_samples_protected: p99_shed,
        p99_samples_unprotected: p99_unshed,
        journaled_sheds: journaled,
    };
    let mut t = Table::new(vec!["run", "arrivals", "shed", "p99 samples/admission"]);
    t.row(vec![
        "protected".into(),
        gate.arrivals.to_string(),
        gate.arrivals_shed.to_string(),
        gate.p99_samples_protected.to_string(),
    ]);
    t.row(vec![
        "unprotected".into(),
        gate.arrivals.to_string(),
        "0".into(),
        gate.p99_samples_unprotected.to_string(),
    ]);
    let body = format!(
        "overload: {} same-tick burst events over {nodes} nodes, backlog trigger {},\n\
         deadline budget {} samples (gated bound {}):\n\n{}\n\
         Reading: background arrivals shed under backlog cost zero probe samples and\n\
         the deadline budget stops probing once spent, so the admission-cost tail\n\
         stays under the bound; {} shed dispositions all accounted in the\n\
         write-ahead journal.\n",
        gate.burst_events,
        gate.shed_backlog_trigger,
        gate.deadline_samples,
        gate.p99_bound,
        t.render(),
        gate.journaled_sheds,
    );
    (gate, body)
}

/// The artifact destination: `$CLITE_RECOVERY_REPORT` or the default path.
#[must_use]
pub fn report_path() -> PathBuf {
    std::env::var_os("CLITE_RECOVERY_REPORT")
        .map_or_else(|| PathBuf::from(BENCH_ARTIFACT), PathBuf::from)
}

/// Experiment entry point.
///
/// # Panics
///
/// Panics if any recovered witness diverges from the never-crashed
/// baseline, if shedding fails to bound the admission-cost tail, or if
/// the journal loses a shed disposition — these are the acceptance
/// gates, not soft metrics.
#[must_use]
pub fn run(opts: &ExpOptions) -> Report {
    let (sweep, mut body) = kill_sweep(opts);
    let (threaded, threaded_body) = threaded_gate(opts);
    body.push('\n');
    body.push_str(&threaded_body);
    let (overload, overload_body) = overload_gate(opts);
    body.push('\n');
    body.push_str(&overload_body);

    let bench =
        RecoveryBench { version: 1, seed: opts.seed, kill_sweep: sweep, threaded, overload };
    let path = report_path();
    match save_json(&path, &bench) {
        Ok(()) => body.push_str(&format!("\nbenchmark artifact written to {}\n", path.display())),
        Err(e) => {
            body.push_str(&format!("\nWARNING: cannot write {}: {e}\n", path.display()));
        }
    }
    body.push_str("\nrecovery: PASS (replay identity at every kill point; shed tail bounded)\n");
    Report {
        id: "recovery",
        title: "Durable fleet recovery: kill sweep, replay identity, overload shedding (extension)"
            .into(),
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_nearest_rank() {
        assert_eq!(p99(&[]), 0);
        assert_eq!(p99(&[7]), 7);
        let costs: Vec<u64> = (1..=100).collect();
        assert_eq!(p99(&costs), 99);
    }

    #[test]
    fn burst_traces_are_single_tick() {
        let opts = ExpOptions { quick: true, ..ExpOptions::default() };
        let trace = burst_trace(&opts);
        assert!(trace.iter().all(|e| e.at == 1));
        assert!(trace.iter().any(|e| matches!(e.event, FleetEvent::Arrival { .. })));
    }
}
