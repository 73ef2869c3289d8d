//! Trained placement scoring for fleet admission.
//!
//! CLITE's cluster layer orders candidate nodes with fixed heuristics
//! (first-fit, least-loaded, bin-packing). This crate
//! learns that ordering instead: a deterministic [feature
//! extractor](features) turns per-(job, candidate-node) state into a
//! fixed, versioned vector; a pure-Rust [pairwise ranking model](model)
//! scores it; a seeded [trainer](train()) fits the weights against rollouts
//! generated in the simulator, with labels read **only** through the
//! [`clite_sim::testbed::OracleTestbed::ground_truth`] fence — serving
//! code never sees ground truth, exactly like the controller itself.
//!
//! ## Determinism contract
//!
//! Everything here is a pure function of its inputs and a seed:
//!
//! - feature extraction is total (no NaN/inf escapes, every component in
//!   `[0, 1]`) and byte-stable;
//! - training parallelizes over the shared [`clite_par`] pool with
//!   item-order merges and sequential weight updates, so the fitted
//!   weights are bit-identical at any `CLITE_PAR_THREADS` worker count;
//! - the [`codec`] round-trips models through a checksummed,
//!   versioned file format (the `clite-store` framing idiom) and degrades
//!   a missing or corrupt file to the all-zero model, whose score ties on
//!   every candidate — the caller's tie-break reproduces the heuristic
//!   order, so a bad model file can never fail admission.

pub mod codec;
pub mod features;
pub mod headroom;
pub mod model;
pub mod train;

pub use codec::{decode, encode, load, load_or_zeroed, save, ModelError};
pub use features::{
    extract, FeatureVector, FleetInput, JobInput, NodeInput, FEATURE_DIM, FEATURE_VERSION,
};
pub use headroom::Headroom;
pub use model::RankingModel;
pub use train::{train, train_with_slots, TrainConfig};
