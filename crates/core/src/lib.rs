//! # clite — the CLITE controller (HPCA 2020)
//!
//! CLITE co-locates multiple latency-critical (LC) jobs with multiple
//! throughput-oriented background (BG) jobs on one server by partitioning
//! its shared resources (cores, LLC ways, memory bandwidth, memory
//! capacity, disk bandwidth) with Bayesian Optimization, pursuing two
//! objectives simultaneously:
//!
//! 1. **meet every LC job's QoS tail-latency target**, and
//! 2. **maximize the performance of every BG job** (or of the LC jobs past
//!    their targets, when no BG jobs are co-located).
//!
//! This crate wires the pieces together:
//!
//! * [`score`] — the paper's two-mode normalized score function (Eq. 3);
//! * [`config::CliteConfig`] — ζ, termination threshold, dropout policy,
//!   sample budget, all with the paper's defaults;
//! * [`controller::CliteController`] — bootstrap → BO search loop with
//!   dropout-copy → EI-based termination, plus infeasible-job ejection;
//! * [`adaptive`] — steady-state monitoring and re-invocation on load
//!   change (the paper's Fig. 16 behaviour);
//! * [`trace`] — per-sample records the experiment harness consumes.
//!
//! ## Example
//!
//! ```
//! use clite::config::CliteConfig;
//! use clite::controller::CliteController;
//! use clite_sim::prelude::*;
//!
//! let jobs = vec![
//!     JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
//!     JobSpec::latency_critical(WorkloadId::ImgDnn, 0.2),
//!     JobSpec::background(WorkloadId::Streamcluster),
//! ];
//! let mut server = Server::new(ResourceCatalog::testbed(), jobs, 1)?;
//! let controller = CliteController::new(CliteConfig::default());
//! let outcome = controller.run(&mut server)?;
//! assert!(outcome.best_score > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod config;
pub mod controller;
pub mod score;
pub mod trace;

mod error;

pub use error::CliteError;

// Store types appear in controller signatures; re-export them so callers
// don't need a direct clite-store dependency for the common path.
pub use clite_store::{MixSignature, ShardPolicy, ShardedStore, StorePolicy, WarmStart};
