//! A node crash in the middle of a baseline policy's search is a typed
//! error, never a panic: every window goes through `Testbed::try_observe`,
//! and the fault reaches the caller as `PolicyError::Sim`.

use clite_faults::{FaultSpec, FaultyTestbed};
use clite_policies::genetic::Genetic;
use clite_policies::heracles::{Heracles, HeraclesConfig};
use clite_policies::parties::Parties;
use clite_policies::policy::Policy;
use clite_policies::random_plus::RandomPlus;
use clite_policies::PolicyError;
use clite_sim::prelude::*;

/// A mix whose first LC job (the one Heracles protects) misses QoS for
/// several windows, so every policy runs past the crash window (the
/// third window: Heracles alone would take 8 on a healthy node).
fn crashing_node(seed: u64) -> FaultyTestbed<Server> {
    let jobs = vec![
        JobSpec::latency_critical(WorkloadId::Masstree, 0.9),
        JobSpec::latency_critical(WorkloadId::Memcached, 0.5),
        JobSpec::background(WorkloadId::Streamcluster),
        JobSpec::background(WorkloadId::Fluidanimate),
    ];
    let server = Server::new(ResourceCatalog::testbed(), jobs, seed).unwrap();
    let spec = FaultSpec { crash_at_window: Some(2), ..FaultSpec::none() };
    FaultyTestbed::new(server, spec, seed)
}

#[test]
fn every_baseline_policy_returns_the_crash_as_an_error() {
    let policies: Vec<Box<dyn Policy<FaultyTestbed<Server>>>> = vec![
        Box::new(Heracles::new(HeraclesConfig::default())),
        Box::new(Parties::default()),
        Box::new(RandomPlus::default()),
        Box::new(Genetic::default()),
    ];
    for mut policy in policies {
        let mut node = crashing_node(7);
        match policy.run(&mut node) {
            Err(PolicyError::Sim(e)) => {
                assert!(e.is_node_crash(), "{}: expected a node crash, got {e}", policy.name());
            }
            other => panic!("{}: expected a node-crash error, got {other:?}", policy.name()),
        }
        assert!(node.crashed(), "{}: the crash window was never reached", policy.name());
    }
}
