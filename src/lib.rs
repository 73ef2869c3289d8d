//! # clite-repro — facade crate
//!
//! Reproduction of **CLITE: Efficient and QoS-Aware Co-location of Multiple
//! Latency-Critical Jobs for Warehouse Scale Computers** (Patel & Tiwari,
//! HPCA 2020) as a Rust workspace. This crate re-exports the workspace's
//! member crates so examples and integration tests can use one import root:
//!
//! * [`par`] — the shared deterministic worker pool;
//! * [`sim`] — the simulated co-location server substrate;
//! * [`gp`] — Gaussian-process regression;
//! * [`bo`] — the Bayesian-optimization engine;
//! * [`core`] — the CLITE controller (score function, search loop,
//!   adaptation);
//! * [`policies`] — PARTIES, Heracles, RAND+, GENETIC, ORACLE baselines;
//! * [`cluster`] — warehouse-scale placement built on the controller;
//! * [`learn`] — trained placement scoring for fleet admission;
//! * [`telemetry`] — the event bus and the phase-timing context every
//!   instrumented entry point takes.
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! full system inventory.

pub use clite as core;
pub use clite_bench as bench;
pub use clite_bo as bo;
pub use clite_cluster as cluster;
pub use clite_gp as gp;
pub use clite_learn as learn;
pub use clite_par as par;
pub use clite_policies as policies;
pub use clite_sim as sim;
pub use clite_telemetry as telemetry;
