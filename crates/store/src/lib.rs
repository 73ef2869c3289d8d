//! clite-store: a crash-safe observation store with warm-start lookup.
//!
//! CLITE's adaptivity story (paper §V) is "re-invoke the search when load
//! or mix changes" — but every re-invocation pays the full cold bootstrap
//! plus BO search, discarding observations already bought with 2-second
//! windows. This crate gives the controller memory that survives a
//! process:
//!
//! * an **append-only, checksummed log** of `(mix signature, partition,
//!   observation, score)` records ([`log`], [`codec`]) whose recovery path
//!   keeps the longest valid prefix of a torn or bit-flipped file and
//!   never panics;
//! * an **in-memory index** keyed by [`MixSignature`] — workloads, QoS
//!   targets, catalog, and quantized per-job load — with a load-distance
//!   reuse policy and per-mix best-K eviction ([`store`]);
//! * one **front end**, [`ShardedStore`], that splits the index and log
//!   across independently locked shards (`<path>.shard<i>` on disk) and
//!   compacts a shard's log when an append leaves it mostly garbage
//!   ([`shard`]);
//! * a **[`WarmStart`] API** that hands stored samples back to the search
//!   so a re-invocation on a seen (or nearby-load) mix primes its
//!   surrogate instead of bootstrapping from scratch.
//!
//! Everything the store decides — eviction order, nearest-bucket
//! selection, warm-entry ordering — is a pure function of record content:
//! no wall-clock timestamps, no RNG, no hash-iteration order. Warm-started
//! searches therefore stay byte-deterministic.

pub mod blob;
pub mod codec;
pub mod journal;
pub mod log;
pub mod shard;
pub mod signature;
pub mod store;

pub use blob::BlobRead;
pub use codec::DecodeError;
pub use journal::{EventJournal, JournalRecord, JournalRecovery};
pub use shard::{ShardPolicy, ShardedStore, StoreHandle};
pub use signature::{JobSignature, MixKey, MixSignature};
pub use store::{ObservationStore, StorePolicy, StoreStats, WarmEntry, WarmStart};

use clite_sim::alloc::Partition;
use clite_sim::metrics::Observation;

/// One logged sample: which problem, which configuration, what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRecord {
    /// Identity of the co-location problem the sample belongs to.
    pub signature: MixSignature,
    /// The partition that was enforced.
    pub partition: Partition,
    /// The observation window measured under it.
    pub observation: Observation,
    /// The Eq. 3 score the controller assigned to the observation.
    pub score: f64,
}

/// Errors from the store's durable layer.
///
/// Kept `Clone + PartialEq` (unlike `std::io::Error`) so it can ride
/// inside `CliteError` and test assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// Which operation (`"open"`, `"append"`, `"rename"`, ...).
        op: &'static str,
        /// The underlying error's message; an `open` failure leads with
        /// the path it could not open.
        message: String,
    },
    /// A sharded store already exists at the path with a different shard
    /// count; keys would route to the wrong shard files.
    ShardCount {
        /// Shards of the store on disk.
        existing: usize,
        /// Shards the open asked for.
        requested: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, message } => {
                write!(f, "{op} failed: {message}")
            }
            StoreError::ShardCount { existing, requested } => {
                write!(f, "the store on disk has {existing} shards, but {requested} were requested")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Shorthand for store-layer results.
pub type StoreResult<T> = Result<T, StoreError>;
