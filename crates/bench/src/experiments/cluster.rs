//! Extension experiment: warehouse-scale placement on top of CLITE.
//!
//! The paper's introduction argues co-location exists to raise datacenter
//! utilization; its ejection rule presumes a cluster scheduler above the
//! node controller. This experiment streams a fixed arrival sequence onto
//! a small fleet under each placement policy and reports admission rate,
//! freed machines, and the partitioning work spent.

use clite_cluster::placement::PlacementPolicy;
use clite_cluster::scheduler::{ClusterScheduler, SchedulerConfig};
use clite_sim::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::render::{pct, Table};
use crate::runner::ambient_telemetry;
use crate::{ExpOptions, Report};

/// A deterministic arrival sequence: two LC jobs per BG job, loads 10–60%.
fn arrivals(n: usize, seed: u64) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if i % 3 == 2 {
                JobSpec::background(WorkloadId::BACKGROUND[rng.gen_range(0..6)])
            } else {
                let w = WorkloadId::LATENCY_CRITICAL[rng.gen_range(0..5)];
                JobSpec::latency_critical(w, f64::from(rng.gen_range(1..=6)) * 0.1)
            }
        })
        .collect()
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics on internal scheduler failures (harness bug).
#[must_use]
pub fn run(opts: &ExpOptions) -> Report {
    let (nodes, jobs) = if opts.quick { (3, 10) } else { (4, 16) };
    let stream = arrivals(jobs, opts.seed);

    let mut t = Table::new(vec![
        "placement",
        "placed",
        "rejected",
        "admission",
        "empty nodes",
        "QoS nodes ok",
        "samples spent",
    ]);
    for policy in
        [PlacementPolicy::FirstFit, PlacementPolicy::LeastLoaded, PlacementPolicy::MostLoaded]
    {
        let mut cluster = ClusterScheduler::new(
            nodes,
            SchedulerConfig { placement: policy.clone(), ..SchedulerConfig::default() },
            opts.seed,
        )
        .expect("non-empty cluster");
        let telemetry = ambient_telemetry();
        for spec in stream.clone() {
            cluster.submit(spec, &telemetry).expect("scheduler healthy");
        }
        let stats = cluster.stats();
        let qos_ok = stats.nodes.iter().filter(|n| n.qos_met).count();
        let samples: u64 = stats.nodes.iter().map(|n| n.samples_spent).sum();
        t.row(vec![
            policy.name().to_owned(),
            stats.placed.to_string(),
            stats.rejected.to_string(),
            pct(stats.admission_rate()),
            stats.empty_nodes.to_string(),
            format!("{qos_ok}/{nodes}"),
            samples.to_string(),
        ]);
    }
    let mut body =
        format!("{jobs} arrivals onto {nodes} nodes (admission = CLITE feasibility)\n\n");
    body.push_str(&t.render());
    body.push_str(
        "\nReading: bin-packing (most-loaded) frees whole machines at equal\n\
         admission; every committed node holds all of its QoS targets because\n\
         admission *is* a CLITE feasibility proof.\n",
    );

    Report { id: "cluster", title: "Fleet placement on CLITE admission (extension)".into(), body }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_stream_is_deterministic() {
        assert_eq!(arrivals(8, 3), arrivals(8, 3));
        assert_ne!(arrivals(8, 3), arrivals(8, 4));
    }

    #[test]
    fn report_covers_all_policies() {
        let r = run(&ExpOptions { quick: true, seed: 6, ..ExpOptions::default() });
        for name in ["first-fit", "least-loaded", "most-loaded"] {
            assert!(r.body.contains(name));
        }
    }
}
