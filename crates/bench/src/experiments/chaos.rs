//! Extension experiment: chaos mode — how gracefully does CLITE degrade
//! under injected testbed faults?
//!
//! The paper assumes clean counters and live nodes; real warehouse
//! hardware delivers neither. Part A sweeps the fault rate (spikes,
//! dropped/stuck windows, enforcement faults — crashes disabled so every
//! run can finish) over the hardened controller and reports the QoS-safe
//! fraction and the extra observation windows the retries/quarantines
//! cost. Part B kills nodes mid-search in a small fleet and reports the
//! evictions that follow.

use clite_cluster::placement::PlacementPolicy;
use clite_cluster::scheduler::{ClusterScheduler, SchedulerConfig};
use clite_faults::{FaultSpec, FaultyFactory};
use clite_sim::prelude::*;

use crate::mixes::fig7_mix;
use crate::render::{pct, Table};
use crate::runner::{ambient_telemetry, final_eval, run_clite_chaos};
use crate::{ExpOptions, Report};

/// One fault-rate sweep point, aggregated over the seed set.
struct SweepPoint {
    scale: f64,
    completed: usize,
    degraded: usize,
    qos_safe: usize,
    runs: usize,
    mean_windows: f64,
    faults: u64,
    quarantined: usize,
}

/// Runs `runs` chaos searches at `scale` times the default fault rates
/// (crashes disabled so the search can always finish or degrade on its
/// own terms) and aggregates QoS safety and window spend.
fn sweep_point(scale: f64, runs: usize, base_seed: u64) -> SweepPoint {
    let spec = FaultSpec {
        crash_prob: 0.0,
        crash_at_window: None,
        ..FaultSpec::default_chaos().scaled(scale)
    };
    let mix = fig7_mix(0.3, 0.2, 0.2);
    let (mut completed, mut degraded, mut qos_safe) = (0usize, 0usize, 0usize);
    let (mut windows, mut faults, mut quarantined) = (0usize, 0u64, 0usize);
    for i in 0..runs {
        let seed = base_seed.wrapping_add(i as u64);
        let chaos = run_clite_chaos(&mix, seed, &spec, None, &ambient_telemetry());
        faults += chaos.faults.total();
        quarantined += chaos.quarantined;
        match (&chaos.outcome, &chaos.fallback) {
            (Some(outcome), _) => {
                completed += 1;
                windows += outcome.samples_used() + chaos.quarantined;
                if final_eval(&mix, outcome, seed).all_qos_met() {
                    qos_safe += 1;
                }
            }
            (None, Some((fallback, _))) => {
                degraded += 1;
                // A degraded run still enforces its fallback; it is
                // QoS-safe iff that partition holds every target.
                if mix.server(seed).ground_truth(fallback).all_qos_met() {
                    qos_safe += 1;
                }
            }
            (None, None) => unreachable!("chaos run produced neither outcome nor fallback"),
        }
    }
    let mean_windows = if completed == 0 { f64::NAN } else { windows as f64 / completed as f64 };
    SweepPoint { scale, completed, degraded, qos_safe, runs, mean_windows, faults, quarantined }
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if a submission fails under node crashes, or if the default
/// fault rate drops the QoS-safe fraction below 90% of the fault-free one
/// (the acceptance bar; a harness regression, not chance — every fault
/// stream here is seeded).
#[must_use]
pub fn run(opts: &ExpOptions) -> Report {
    let runs = if opts.quick { 3 } else { 8 };
    let scales = [0.0, 0.5, 1.0, 2.0];

    let points: Vec<SweepPoint> = scales.iter().map(|&s| sweep_point(s, runs, opts.seed)).collect();
    let clean = &points[0];
    let mut t = Table::new(vec![
        "fault scale",
        "completed",
        "degraded",
        "QoS-safe",
        "mean windows",
        "extra windows",
        "faults",
        "quarantined",
    ]);
    for p in &points {
        t.row(vec![
            format!("{:.1}x", p.scale),
            format!("{}/{}", p.completed, p.runs),
            p.degraded.to_string(),
            format!("{}/{}", p.qos_safe, p.runs),
            format!("{:.1}", p.mean_windows),
            format!("{:+.1}", p.mean_windows - clean.mean_windows),
            p.faults.to_string(),
            p.quarantined.to_string(),
        ]);
    }
    let default_point = &points[2];
    let safe_ratio = if clean.qos_safe == 0 {
        1.0
    } else {
        default_point.qos_safe as f64 / clean.qos_safe as f64
    };
    assert!(
        safe_ratio >= 0.9,
        "QoS-safe fraction at the default fault rate fell to {safe_ratio:.2} of fault-free"
    );
    let mut body = format!(
        "Part A — fault-rate sweep: {runs} hardened CLITE searches per point on\n\
         memcached:30 + masstree:20 + img-dnn:20 (crashes disabled; scale 1.0 =\n\
         5% spikes, 2% drops, 1% stuck, 2% enforce faults per window)\n\n{}\n\
         QoS-safe fraction at 1.0x is {} of fault-free (acceptance bar: >= 0.90).\n\
         Reading: spikes are caught by the 5-sigma outlier guard and re-observed;\n\
         repeatable \"outliers\" are kept (the surrogate was wrong, not the counter),\n\
         unrepeatable ones quarantined — charged to the window budget but never\n\
         entering the surrogate or the store. Drops/stuck windows retry with\n\
         window-counted backoff, so the price of chaos is extra windows, not\n\
         QoS regressions.\n",
        t.render(),
        pct(safe_ratio),
    );

    // Part B: node crashes in a fleet. Crash streams are pure functions of
    // (node id, commit count), so the same seed evicts the same nodes.
    let spec = FaultSpec { crash_prob: 0.5, crash_window_max: 20, ..FaultSpec::none() };
    let stream = [
        JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
        JobSpec::latency_critical(WorkloadId::ImgDnn, 0.4),
        JobSpec::background(WorkloadId::Streamcluster),
        JobSpec::latency_critical(WorkloadId::Masstree, 0.5),
        JobSpec::latency_critical(WorkloadId::Xapian, 0.3),
        JobSpec::background(WorkloadId::Blackscholes),
    ];
    let config =
        SchedulerConfig { placement: PlacementPolicy::LeastLoaded, ..SchedulerConfig::default() };
    let factory = FaultyFactory::new(ServerFactory, spec);
    let mut cluster =
        ClusterScheduler::with_factory(3, config, opts.seed, factory).expect("3-node cluster");
    let telemetry = ambient_telemetry();
    for job in stream.iter().cloned() {
        cluster.submit(job, &telemetry).expect("submission survives crashes");
    }
    let fleet = cluster.stats();
    body.push_str(&format!(
        "\nPart B — node crashes under admission: {} jobs onto 3 nodes, every\n\
         testbed crash-prone (p=0.5, windows 1..=20). Fleet after the stream:\n\
         {} placed, {} rejected, {} node(s) evicted. Fault streams are seeded\n\
         by committed state, so the same seed evicts the same nodes on every\n\
         run.\n",
        stream.len(),
        fleet.placed,
        fleet.rejected,
        fleet.dead_nodes,
    ));
    Report {
        id: "chaos",
        title: "Chaos mode: degradation under injected faults (extension)".into(),
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_report_covers_sweep_and_crashes() {
        let r = run(&ExpOptions { quick: true, seed: 9, ..ExpOptions::default() });
        assert!(r.body.contains("fault scale") || r.body.contains("fault-rate"));
        assert!(r.body.contains("QoS-safe"));
        assert!(r.body.contains("evicted"));
    }
}
