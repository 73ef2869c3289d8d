//! RAND+ — random-plus search (paper Sec. 5.1).
//!
//! "RAND+ stochastically selects a configuration to sample from a set of
//! all possible configurations using a uniform distribution. To avoid
//! sampling similar configuration multiple times, it selectively discards
//! a new sample if the Euclidean distance between the selected
//! configuration and existing ones are smaller than a threshold." It
//! collects a pre-set number of samples (chosen higher than CLITE's
//! average, per Fig. 15a) and keeps the best.

use rand::rngs::StdRng;
use rand::SeedableRng;

use clite_sim::alloc::Partition;
use clite_sim::testbed::Testbed;

use clite_telemetry::Telemetry;

use crate::policy::{
    observe_and_record, outcome_from_samples, Policy, PolicyOutcome, PolicySample,
};
use crate::PolicyError;

/// Configuration for RAND+.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomPlusConfig {
    /// Pre-set number of configurations to sample.
    pub budget: usize,
    /// Minimum Euclidean distance (in normalized feature space) to every
    /// previously sampled configuration.
    pub min_distance: f64,
    /// Rejection attempts per sample before accepting a close one anyway.
    pub max_rejects: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomPlusConfig {
    fn default() -> Self {
        Self { budget: 80, min_distance: 0.15, max_rejects: 25, seed: 0x5241_4E44 }
    }
}

/// The RAND+ policy.
#[derive(Debug, Clone)]
pub struct RandomPlus {
    config: RandomPlusConfig,
}

impl RandomPlus {
    /// Builds RAND+ with an explicit configuration.
    #[must_use]
    pub fn new(config: RandomPlusConfig) -> Self {
        Self { config }
    }

    /// Returns a copy re-seeded for variability studies.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }
}

impl Default for RandomPlus {
    fn default() -> Self {
        Self::new(RandomPlusConfig::default())
    }
}

impl<T: Testbed> Policy<T> for RandomPlus {
    fn name(&self) -> &'static str {
        "RAND+"
    }

    fn run_with(
        &mut self,
        server: &mut T,
        telemetry: &Telemetry<'_>,
    ) -> Result<PolicyOutcome, PolicyError> {
        let jobs = server.job_count();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut samples: Vec<PolicySample> = Vec::new();
        let mut kept: Vec<Partition> = Vec::new();

        while samples.len() < self.config.budget {
            let mut candidate = Partition::random(server.catalog(), jobs, &mut rng)?;
            for _ in 0..self.config.max_rejects {
                let too_close =
                    kept.iter().any(|p| p.distance(&candidate) < self.config.min_distance);
                if !too_close {
                    break;
                }
                candidate = Partition::random(server.catalog(), jobs, &mut rng)?;
            }
            observe_and_record(server, &candidate, &mut samples, telemetry)?;
            kept.push(candidate);
        }
        Ok(outcome_from_samples(Policy::<T>::name(self), samples, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clite_sim::prelude::*;

    #[test]
    fn collects_exactly_budget_samples() {
        let jobs = vec![
            JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
            JobSpec::background(WorkloadId::Canneal),
        ];
        let mut s = Server::new(ResourceCatalog::testbed(), jobs, 1).unwrap();
        let mut policy =
            RandomPlus::new(RandomPlusConfig { budget: 20, ..RandomPlusConfig::default() });
        let outcome = policy.run(&mut s).unwrap();
        assert_eq!(outcome.samples_used(), 20);
        assert!(!outcome.gave_up);
    }

    #[test]
    fn samples_are_spread_out() {
        let jobs = vec![
            JobSpec::latency_critical(WorkloadId::Xapian, 0.3),
            JobSpec::background(WorkloadId::Freqmine),
        ];
        let mut s = Server::new(ResourceCatalog::testbed(), jobs, 2).unwrap();
        let outcome = RandomPlus::default().run(&mut s).unwrap();
        // Average pairwise distance must comfortably exceed the filter
        // threshold: the filter did its job.
        let parts: Vec<&Partition> = outcome.samples.iter().map(|s| &s.partition).collect();
        let mut total = 0.0;
        let mut count = 0;
        for i in 0..parts.len() {
            for j in (i + 1)..parts.len() {
                total += parts[i].distance(parts[j]);
                count += 1;
            }
        }
        assert!(total / f64::from(count as u32) > 0.15);
    }

    #[test]
    fn different_seeds_different_samples() {
        let jobs = vec![
            JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
            JobSpec::background(WorkloadId::Swaptions),
        ];
        let mut s1 = Server::new(ResourceCatalog::testbed(), jobs.clone(), 1).unwrap();
        let mut s2 = Server::new(ResourceCatalog::testbed(), jobs, 1).unwrap();
        let a = RandomPlus::default().with_seed(1).run(&mut s1).unwrap();
        let b = RandomPlus::default().with_seed(2).run(&mut s2).unwrap();
        assert_ne!(a.samples[0].partition, b.samples[0].partition);
    }
}
