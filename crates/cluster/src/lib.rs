//! # clite-cluster — warehouse-scale placement on top of CLITE
//!
//! The paper's motivation is datacenter-level: "the key to improving data
//! center utilization and operational efficiency is co-locating
//! latency-critical jobs with throughput-oriented background jobs", and
//! its ejection rule ("these jobs can be immediately scheduled elsewhere")
//! presumes a cluster scheduler above the per-node controller. This crate
//! is that layer, built entirely on the reproduction's public APIs:
//!
//! * [`node::Node`] — one server plus its committed job set and the last
//!   CLITE outcome for it;
//! * [`placement::PlacementPolicy`] — the order in which candidate nodes
//!   are tried (first-fit, least-loaded, most-loaded/bin-packing, or a
//!   trained `clite-learn` ranking model bridged through [`learned`]);
//! * [`scheduler::ClusterScheduler`] — admission control: tentatively add
//!   the job to a candidate node, run a budget-capped CLITE search, commit
//!   if every LC job still meets QoS (keeping the found partition), and
//!   fall through to the next node otherwise — the cluster-level analogue
//!   of the paper's "schedule elsewhere" rule;
//! * [`stats::ClusterStats`] — utilization and QoS accounting across the
//!   fleet.
//!
//! This layer is an *extension* of the paper (its evaluation stops at one
//! node); it exists to exercise the controller the way a warehouse-scale
//! deployment would and is documented as such in `DESIGN.md`.
//!
//! ## Example
//!
//! ```
//! use clite_cluster::placement::PlacementPolicy;
//! use clite_cluster::scheduler::{ClusterScheduler, SchedulerConfig};
//! use clite_sim::prelude::*;
//! use clite_telemetry::Telemetry;
//!
//! let mut cluster = ClusterScheduler::new(2, SchedulerConfig::default(), 7)?;
//! let job = JobSpec::latency_critical(WorkloadId::Memcached, 0.3);
//! let placed = cluster.submit(job, &Telemetry::disabled())?;
//! assert!(placed.is_some(), "an empty cluster must admit a 30% memcached");
//! # Ok::<(), clite_cluster::ClusterError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod fleet;
pub mod learned;
pub mod node;
pub mod placement;
pub mod recovery;
pub mod scheduler;
pub mod stats;
pub mod trace;
pub mod wire;

mod error;

pub use error::ClusterError;
