//! Warehouse-scale placement: a stream of LC and BG jobs arrives at a
//! small fleet; the cluster scheduler admits each one onto the first node
//! where a CLITE search finds a QoS-feasible partition, and rejects jobs
//! no node can host — the "schedule elsewhere" rule the paper's ejection
//! logic presumes.
//!
//! ```text
//! cargo run --release --example datacenter [-- <nodes>]
//! ```

use clite_repro::cluster::placement::PlacementPolicy;
use clite_repro::cluster::scheduler::{ClusterScheduler, SchedulerConfig};
use clite_repro::sim::prelude::*;
use clite_repro::telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nodes: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(3);
    let mut rng = StdRng::seed_from_u64(2026);

    for policy in [PlacementPolicy::LeastLoaded, PlacementPolicy::MostLoaded] {
        let mut cluster = ClusterScheduler::new(
            nodes,
            SchedulerConfig { placement: policy.clone(), ..SchedulerConfig::default() },
            7,
        )?;

        // An arrival stream: 12 jobs, two-thirds latency-critical at
        // random loads, one-third batch.
        let mut arrivals = Vec::new();
        for i in 0..12 {
            if i % 3 == 2 {
                let w = WorkloadId::BACKGROUND[rng.gen_range(0..6)];
                arrivals.push(JobSpec::background(w));
            } else {
                let w = WorkloadId::LATENCY_CRITICAL[rng.gen_range(0..5)];
                let load = f64::from(rng.gen_range(1..=6)) * 0.1;
                arrivals.push(JobSpec::latency_critical(w, load));
            }
        }

        let telemetry = Telemetry::disabled();
        for spec in arrivals {
            let name = spec.workload.name();
            let load = spec.load.at(0.0);
            match cluster.submit(spec, &telemetry)? {
                Some(p) => println!(
                    "[{:<12}] {:<13} load {:>3.0}% -> node {}",
                    policy.name(),
                    name,
                    load * 100.0,
                    p.node
                ),
                None => println!(
                    "[{:<12}] {:<13} load {:>3.0}% -> REJECTED (no QoS-feasible node)",
                    policy.name(),
                    name,
                    load * 100.0
                ),
            }
        }

        let stats = cluster.stats();
        println!(
            "\n[{}] placed {} / rejected {} (admission {:.0}%), empty nodes: {}",
            policy.name(),
            stats.placed,
            stats.rejected,
            100.0 * stats.admission_rate(),
            stats.empty_nodes
        );
        for n in &stats.nodes {
            println!(
                "  node {}: {} jobs ({} LC, ΣLC load {:.0}%), QoS {}, BG perf {}",
                n.node,
                n.jobs,
                n.lc_jobs,
                n.lc_load * 100.0,
                if n.qos_met { "met" } else { "VIOLATED" },
                n.bg_perf.map_or("-".to_owned(), |p| format!("{:.0}%", p * 100.0)),
            );
        }
        println!();
    }
    Ok(())
}
