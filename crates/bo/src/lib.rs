//! # clite-bo — Bayesian optimization over resource partitions
//!
//! The engine behind CLITE's search (paper Sec. 3–4), generic over what the
//! objective means: callers record `(partition, score)` pairs and ask for
//! the next partition to try. The crate provides:
//!
//! * [`space::SearchSpace`] — the feasible set of allocation matrices for a
//!   catalog and job count, and its encoding into the GP's feature space;
//! * [`acquisition`] — Expected Improvement with the paper's ζ exploration
//!   factor (Eq. 2), plus Probability of Improvement and UCB for the
//!   acquisition ablation;
//! * [`bootstrap`] — the paper's informed initial samples: one
//!   equal-division partition plus one "max allocation" extremum per job
//!   (`N_jobs + 1` samples, matching Sec. 5.2's "number of initial samples
//!   is chosen to the number of colocated jobs + 1");
//! * [`optimizer`] — constrained acquisition maximization by steepest-
//!   ascent over single-unit-transfer moves with random restarts (the
//!   discrete counterpart of the paper's constrained SLSQP, solving Eq. 4
//!   under Eq. 5–6), with optional frozen rows for dropout-copy;
//! * [`termination`] — the expected-improvement-drop termination condition,
//!   scaled by the number of co-located jobs;
//! * [`engine::BoEngine`] — Algorithm 1: update surrogate → compute
//!   acquisition → pick next sample.
//!
//! ## Example
//!
//! ```
//! use clite_bo::engine::{BoConfig, BoEngine};
//! use clite_bo::space::SearchSpace;
//! use clite_sim::prelude::*;
//! use clite_telemetry::Telemetry;
//!
//! let space = SearchSpace::new(ResourceCatalog::testbed(), 2)?;
//! let mut engine = BoEngine::new(space, BoConfig::default(), 7);
//!
//! // Objective: favor job 0 hoarding cores (a stand-in for a real score).
//! let objective = |p: &Partition| p.fraction(0, ResourceKind::Cores);
//!
//! let telemetry = Telemetry::disabled();
//! for p in engine.bootstrap_samples()? {
//!     let y = objective(&p);
//!     engine.record(p, y, &telemetry);
//! }
//! for _ in 0..10 {
//!     let s = engine.suggest(None, &telemetry)?;
//!     let y = objective(&s.partition);
//!     engine.record(s.partition, y, &telemetry);
//! }
//! let (best, _) = engine.best().expect("history is non-empty");
//! assert!(best.units(0, ResourceKind::Cores) >= 8);
//! # Ok::<(), clite_bo::BoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acquisition;
pub mod bootstrap;
pub mod engine;
pub mod optimizer;
pub mod space;
pub mod termination;

mod error;

pub use error::BoError;
