//! `placement` — learned vs heuristic candidate ordering A/B (extension).
//!
//! Trains the `clite-learn` pairwise ranking model on deterministic
//! simulator rollouts, then runs the same crash-chaos fleet trace twice at
//! every scale point: once with the least-loaded heuristic ordering, once
//! with the trained model ordering. The table records, per scale point
//! and arm: the QoS-safe fraction of alive nodes, the admission rate,
//! observation windows spent, and orphan re-placements.
//!
//! The gate: the learned arm must match or beat the heuristic's QoS-safe
//! fraction at every scale point and never lose more than 2 percentage
//! points of admission rate. The report ends in a `placement: PASS`/`FAIL`
//! marker line (the CI gate greps for it), or `placement: INCONCLUSIVE`
//! when the crash plan killed no heuristic node: then the A/B compared
//! the arms without the chaos it is meant to test them under.

use std::sync::Arc;

use clite_cluster::fleet::{FleetConfig, FleetService};
use clite_cluster::trace::{generate, TraceConfig};
use clite_faults::{FaultSpec, FaultyFactory};
use clite_learn::{RankingModel, TrainConfig};

use crate::render::{pct, Table};
use crate::runner::ambient_telemetry;
use crate::{ExpOptions, Report};

/// Admission-rate slack the learned arm is allowed (2 percentage points):
/// a model that keeps every node QoS-safe by rejecting work wholesale
/// would be a degenerate win.
const ADMISSION_SLACK: f64 = 0.02;

/// One arm (policy) at one scale point.
#[derive(Debug, Clone)]
struct ArmMetrics {
    /// Fraction of alive nodes whose committed jobs all meet QoS.
    qos_safe_frac: f64,
    admission_rate: f64,
    /// Observation windows spent across the fleet (probe + commit cost).
    windows_spent: u64,
    /// Orphaned jobs successfully re-homed after node crashes.
    replacements: u64,
    dead_nodes: usize,
}

/// The crash plan: probes die mid-search often enough that nodes are
/// evicted and orphans re-home at every scale.
fn crash_spec() -> FaultSpec {
    FaultSpec { crash_prob: 0.35, crash_window_max: 20, ..FaultSpec::none() }
}

/// Runs one trace through one fleet arm and distills the metrics the
/// gate compares.
fn measure_arm(
    nodes: usize,
    events: usize,
    seed: u64,
    model: Option<&Arc<RankingModel>>,
) -> ArmMetrics {
    let config = match model {
        Some(m) => FleetConfig::mean_field_learned(0, 4, Arc::clone(m)),
        None => FleetConfig::mean_field(0, 4),
    };
    let factory = FaultyFactory::new(clite_sim::testbed::ServerFactory, crash_spec());
    let mut fleet =
        FleetService::with_factory(nodes, config, seed, factory).expect("non-empty fleet");
    let trace = generate(&TraceConfig { events, ..TraceConfig::default() }, seed);
    let run = fleet.run(&trace, &ambient_telemetry()).expect("fleet loop healthy");
    let stats = &run.stats;
    let alive = stats.nodes.iter().filter(|n| n.alive).count();
    let qos_safe = stats.nodes.iter().filter(|n| n.alive && n.qos_met).count();
    ArmMetrics {
        qos_safe_frac: qos_safe as f64 / alive.max(1) as f64,
        admission_rate: stats.admission_rate(),
        windows_spent: stats.nodes.iter().map(|n| n.samples_spent).sum(),
        replacements: run.counters.replacements,
        dead_nodes: stats.dead_nodes,
    }
}

/// One scale point passes when the learned arm matches or beats the
/// heuristic's QoS-safe fraction and stays within the admission slack.
fn point_passes(heuristic: &ArmMetrics, learned: &ArmMetrics) -> bool {
    learned.qos_safe_frac >= heuristic.qos_safe_frac - 1e-12
        && learned.admission_rate >= heuristic.admission_rate - ADMISSION_SLACK
}

/// The verdict over every scale point's `(heuristic, learned)` metrics:
/// `PASS` when every point passes, `FAIL` when one does not, and
/// `INCONCLUSIVE` when no heuristic node died at any point.
fn verdict(points: &[(ArmMetrics, ArmMetrics)]) -> &'static str {
    if !points.iter().any(|(heuristic, _)| heuristic.dead_nodes > 0) {
        "INCONCLUSIVE (the crash plan killed no heuristic node)"
    } else if points.iter().all(|(heuristic, learned)| point_passes(heuristic, learned)) {
        "PASS"
    } else {
        "FAIL"
    }
}

/// Experiment entry point.
///
/// # Panics
///
/// Panics on internal scheduler failures.
#[must_use]
pub fn run(opts: &ExpOptions) -> Report {
    let train_config = TrainConfig::smoke(opts.seed);
    let model = clite_learn::train(&train_config, &ambient_telemetry());
    let mut body = format!(
        "trained ranking model: {} rollout groups x {} candidates, {} epochs,\n\
         final pairwise loss {:.4} (untrained level {:.4})\n\n",
        train_config.groups,
        train_config.candidates,
        train_config.epochs,
        model.train_loss,
        std::f64::consts::LN_2,
    );
    let model = Arc::new(model);

    let node_counts: &[usize] = if opts.quick { &[32, 64, 128] } else { &[32, 64, 128, 256] };
    let events = if opts.quick { 40 } else { 96 };
    let mut t = Table::new(vec![
        "nodes",
        "arm",
        "QoS-safe",
        "admission",
        "windows",
        "re-placed",
        "dead",
        "point",
    ]);
    let mut points = Vec::with_capacity(node_counts.len());
    for &nodes in node_counts {
        let heuristic = measure_arm(nodes, events, opts.seed, None);
        let learned = measure_arm(nodes, events, opts.seed, Some(&model));
        let point_pass = point_passes(&heuristic, &learned);
        for (arm, m) in [("heuristic", &heuristic), ("learned", &learned)] {
            t.row(vec![
                nodes.to_string(),
                arm.to_owned(),
                pct(m.qos_safe_frac),
                pct(m.admission_rate),
                m.windows_spent.to_string(),
                m.replacements.to_string(),
                m.dead_nodes.to_string(),
                if arm == "learned" {
                    if point_pass { "ok" } else { "REGRESSED" }.to_owned()
                } else {
                    "-".to_owned()
                },
            ]);
        }
        points.push((heuristic, learned));
    }
    body.push_str(&format!(
        "A/B under crash chaos (prob {}), {events} events/trace:\n\n{}\n\
         Gate: learned must match or beat the heuristic QoS-safe fraction and\n\
         stay within {:.0} pp of its admission rate at every scale point.\n",
        crash_spec().crash_prob,
        t.render(),
        ADMISSION_SLACK * 100.0
    ));
    body.push_str(&format!("\nplacement: {}\n", verdict(&points)));
    Report {
        id: "placement",
        title: "Learned vs heuristic candidate ordering A/B (extension)".into(),
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_compares_qos_and_admission() {
        let base = ArmMetrics {
            qos_safe_frac: 0.9,
            admission_rate: 0.8,
            windows_spent: 100,
            replacements: 2,
            dead_nodes: 1,
        };
        let better = ArmMetrics { qos_safe_frac: 0.95, admission_rate: 0.79, ..base.clone() };
        assert!(point_passes(&base, &better), "within slack, better QoS");
        let equal = ArmMetrics { qos_safe_frac: 0.9, admission_rate: 0.8, ..base.clone() };
        assert!(point_passes(&base, &equal), "exact match passes");
        let worse_qos = ArmMetrics { qos_safe_frac: 0.89, admission_rate: 0.9, ..base.clone() };
        assert!(!point_passes(&base, &worse_qos), "QoS regression fails");
        let starved = ArmMetrics { qos_safe_frac: 1.0, admission_rate: 0.7, ..base.clone() };
        assert!(!point_passes(&base, &starved), "admission collapse fails");
    }

    #[test]
    fn verdict_needs_a_dead_heuristic_node() {
        let arm = |qos_safe_frac, dead_nodes| ArmMetrics {
            qos_safe_frac,
            admission_rate: 0.8,
            windows_spent: 100,
            replacements: 0,
            dead_nodes,
        };
        let (ok, regressed) = ((arm(0.9, 1), arm(0.9, 0)), (arm(0.9, 1), arm(0.5, 0)));
        assert_eq!(verdict(&[(arm(0.9, 0), arm(0.9, 3)), ok.clone()]), "PASS", "one dead node");
        assert_eq!(verdict(&[ok, regressed]), "FAIL");
        let inconclusive = "INCONCLUSIVE (the crash plan killed no heuristic node)";
        assert_eq!(verdict(&[(arm(0.9, 0), arm(0.9, 2))]), inconclusive, "learned deaths alone");
        assert_eq!(verdict(&[(arm(0.9, 0), arm(0.5, 0))]), inconclusive, "even when regressed");
        assert_eq!(verdict(&[]), inconclusive);
    }
}
