//! GENETIC — genetic-algorithm-inspired search (paper Sec. 5.1).
//!
//! "GENETIC starts by sampling multiple configurations. It selects the two
//! with the highest objective function values and generates new
//! configurations by combining the resource allocations of the two
//! configurations in different forms ('cross-over'). Then, the generated
//! combinations are tweaked using random changes ('mutation') such as
//! increasing one type of resource allocation of one job by one unit and
//! decreasing allocation of another job by one unit. After sampling a
//! pre-set number of configurations, GENETIC chooses the configuration
//! with the highest objective function value."
//!
//! Crossover operates on whole resource *columns* (each child takes each
//! resource's full allocation vector from one parent), which preserves the
//! per-resource simplex constraint by construction; mutation is 1–3 random
//! unit transfers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use clite_sim::alloc::{JobAllocation, Partition};
use clite_sim::resource::{ResourceKind, NUM_RESOURCES};
use clite_sim::testbed::Testbed;

use clite_telemetry::Telemetry;

use crate::policy::{
    observe_and_record, outcome_from_samples, Policy, PolicyOutcome, PolicySample,
};
use crate::PolicyError;

/// Configuration for the GENETIC baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneticConfig {
    /// Initial population size (random partitions plus the equal split).
    pub population: usize,
    /// Children generated per generation.
    pub children_per_generation: usize,
    /// Total sample budget (pre-set, per the paper higher than CLITE's
    /// typical sample count).
    pub budget: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        Self { population: 12, children_per_generation: 4, budget: 80, seed: 0x6E6E }
    }
}

/// The GENETIC policy.
#[derive(Debug, Clone)]
pub struct Genetic {
    config: GeneticConfig,
}

impl Genetic {
    /// Builds GENETIC with an explicit configuration.
    #[must_use]
    pub fn new(config: GeneticConfig) -> Self {
        Self { config }
    }

    /// Returns a copy re-seeded for variability studies.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }
}

impl Default for Genetic {
    fn default() -> Self {
        Self::new(GeneticConfig::default())
    }
}

impl<T: Testbed> Policy<T> for Genetic {
    fn name(&self) -> &'static str {
        "GENETIC"
    }

    fn run_with(
        &mut self,
        server: &mut T,
        telemetry: &Telemetry<'_>,
    ) -> Result<PolicyOutcome, PolicyError> {
        let jobs = server.job_count();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut samples: Vec<PolicySample> = Vec::new();

        // Initial population: equal share + random partitions.
        let mut scored: Vec<(Partition, f64)> = Vec::new();
        let equal = Partition::equal_share(server.catalog(), jobs)?;
        let idx = observe_and_record(server, &equal, &mut samples, telemetry)?;
        scored.push((equal, samples[idx].score));
        while scored.len() < self.config.population && samples.len() < self.config.budget {
            let p = Partition::random(server.catalog(), jobs, &mut rng)?;
            let idx = observe_and_record(server, &p, &mut samples, telemetry)?;
            scored.push((p, samples[idx].score));
        }

        // The paper's GENETIC selects the two best of the *initial*
        // sampling as parents, then spends the rest of the budget on their
        // crossed-over, mutated combinations (a single-generation scheme --
        // it does not re-select parents from the children).
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        let parent_a = scored[0].0.clone();
        let parent_b = scored.get(1).map_or_else(|| scored[0].0.clone(), |p| p.0.clone());
        while samples.len() < self.config.budget {
            let child = mutate(&crossover(&parent_a, &parent_b, &mut rng), &mut rng);
            observe_and_record(server, &child, &mut samples, telemetry)?;
        }
        Ok(outcome_from_samples(Policy::<T>::name(self), samples, false))
    }
}

/// Column-wise crossover: each resource's whole allocation vector comes
/// from one parent, preserving the simplex constraint.
fn crossover(a: &Partition, b: &Partition, rng: &mut StdRng) -> Partition {
    let jobs = a.job_count();
    let mut rows: Vec<[u32; NUM_RESOURCES]> = (0..jobs).map(|j| a.job(j).all_units()).collect();
    for r in ResourceKind::ALL {
        if rng.gen_bool(0.5) {
            for (j, row) in rows.iter_mut().enumerate() {
                row[r.index()] = b.units(j, r);
            }
        }
    }
    let rows = rows.into_iter().map(JobAllocation::from_units).collect();
    Partition::from_rows(*a.catalog(), rows).expect("column crossover preserves feasibility")
}

/// Mutation: 1–3 random single-unit transfers.
fn mutate(p: &Partition, rng: &mut StdRng) -> Partition {
    let mut out = p.clone();
    for _ in 0..rng.gen_range(1..=3) {
        let neighbors = out.neighbors(None);
        if neighbors.is_empty() {
            break;
        }
        out = neighbors[rng.gen_range(0..neighbors.len())].clone();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use clite_sim::prelude::*;

    #[test]
    fn respects_budget_exactly() {
        let jobs = vec![
            JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
            JobSpec::latency_critical(WorkloadId::ImgDnn, 0.3),
            JobSpec::background(WorkloadId::Streamcluster),
        ];
        let mut s = Server::new(ResourceCatalog::testbed(), jobs, 1).unwrap();
        let outcome = Genetic::default().run(&mut s).unwrap();
        assert_eq!(outcome.samples_used(), 80);
    }

    #[test]
    fn crossover_children_are_feasible() {
        let catalog = ResourceCatalog::testbed();
        let mut rng = StdRng::seed_from_u64(1);
        let a = Partition::random(&catalog, 3, &mut rng).unwrap();
        let b = Partition::random(&catalog, 3, &mut rng).unwrap();
        for _ in 0..50 {
            // from_rows inside crossover validates feasibility; just
            // exercise many random column mixes.
            let c = crossover(&a, &b, &mut rng);
            let m = mutate(&c, &mut rng);
            assert_eq!(m.job_count(), 3);
        }
    }

    #[test]
    fn finds_reasonable_configuration_on_easy_mix() {
        let jobs = vec![
            JobSpec::latency_critical(WorkloadId::Memcached, 0.2),
            JobSpec::background(WorkloadId::Blackscholes),
        ];
        let mut s = Server::new(ResourceCatalog::testbed(), jobs, 2).unwrap();
        let outcome = Genetic::default().run(&mut s).unwrap();
        assert!(outcome.qos_met, "easy mix should be satisfiable, best {}", outcome.best_score);
    }
}
