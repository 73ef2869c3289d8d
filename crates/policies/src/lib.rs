//! # clite-policies — competing co-location scheduling policies
//!
//! The CLITE paper (Sec. 5.1) compares against four schemes plus an
//! offline upper bound; this crate implements all of them behind one
//! [`policy::Policy`] trait so every experiment drives them identically:
//!
//! * [`parties::Parties`] — the PARTIES finite-state-machine baseline
//!   (ASPLOS 2019): one-resource-at-a-time incremental upsizing/downsizing
//!   with trial-and-error, stopping as soon as QoS is met (it never
//!   optimizes BG performance) or giving up after cycling without
//!   progress;
//! * [`heracles::Heracles`] — protects a *single* LC job (the first), all
//!   other jobs served best-effort: the scheme's documented limitation to
//!   1-LC co-locations;
//! * [`random_plus::RandomPlus`] — RAND+: uniform random configurations
//!   with a minimum-Euclidean-distance filter, fixed sample budget;
//! * [`genetic::Genetic`] — GENETIC: population crossover on resource
//!   columns plus unit-transfer mutations, fixed sample budget;
//! * [`oracle::Oracle`] — ORACLE: offline brute-force/exhaustive search;
//!   here it is granted privileged access to the simulator's noise-free
//!   ground truth (the paper samples "thousands of configurations"
//!   offline; the role is identical — an upper bound no online policy can
//!   beat);
//! * [`clite_policy::ClitePolicy`] — the CLITE controller adapted to the
//!   same trait.
//!
//! ## Example
//!
//! ```
//! use clite_policies::policy::Policy;
//! use clite_policies::parties::Parties;
//! use clite_sim::prelude::*;
//!
//! let jobs = vec![
//!     JobSpec::latency_critical(WorkloadId::Memcached, 0.2),
//!     JobSpec::background(WorkloadId::Swaptions),
//! ];
//! let mut server = Server::new(ResourceCatalog::testbed(), jobs, 3)?;
//! let outcome = Parties::default().run(&mut server)?;
//! assert!(outcome.samples_used() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clite_policy;
pub mod genetic;
pub mod heracles;
pub mod oracle;
pub mod parties;
pub mod policy;
pub mod random_plus;

mod error;

pub use error::PolicyError;
