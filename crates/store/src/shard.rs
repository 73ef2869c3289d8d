//! The observation store's one front end: per-shard locks and inline
//! compaction.
//!
//! Every caller — the controller, the adaptive loop, the `colocate` and
//! `experiments` `--store` paths, and the fleet — holds an
//! `Arc<ShardedStore>`. It splits the store into `N` independent
//! [`ObservationStore`]s, each behind its own lock. Each signature is
//! routed by [`MixSignature::shard_hash`] — a stable FNV-1a hash of the
//! mix *key* (catalog, workloads, classes, QoS; load excluded), so every
//! load point of one mix lands on the same shard and nearby-load reuse
//! never crosses a shard boundary.
//!
//! Because the underlying index is keyed by mix key and buckets never
//! interact, **every lookup and eviction decision is a pure function of
//! the records previously appended for that key** — which shard holds the
//! key is unobservable. That is the shard-count invariance contract:
//! 1, 4, or 16 shards produce byte-identical warm starts and fleet
//! outcomes for the same append history (pinned by
//! `tests/shard_invariance.rs`).
//!
//! Concurrency model: CLITE samples one configuration per observation
//! window and searches one mix at a time, so store traffic is sequential
//! — warm starts and appends run on the fleet's or the controller's
//! thread. Each shard is one [`Mutex`] around an [`ObservationStore`],
//! which counts its own hits and misses. An append that leaves its
//! shard's log at [`COMPACTION_MIN_LOG_RECORDS`] frames or more with a
//! [`ObservationStore::garbage_ratio`] above [`COMPACTION_GARBAGE_RATIO`]
//! compacts that shard before returning: a tmp+rename rewrite, so a crash
//! leaves the old or the new log intact (see
//! [`ObservationStore::compact`]). Compaction is best-effort: a failed
//! rewrite leaves the old log, the append's result stands, and the next
//! append past the threshold retries.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use clite_sim::alloc::Partition;
use clite_sim::metrics::Observation;
use clite_telemetry::Telemetry;

use crate::signature::MixSignature;
use crate::store::{ObservationStore, StorePolicy, StoreStats, WarmStart};
use crate::{StoreError, StoreResult};

/// Garbage fraction of a shard's log above which an append compacts it
/// (see [`ObservationStore::garbage_ratio`]).
pub const COMPACTION_GARBAGE_RATIO: f64 = 0.5;

/// Logs with fewer frames than this are never compacted — rewriting a
/// tiny file buys nothing.
pub const COMPACTION_MIN_LOG_RECORDS: u64 = 128;

/// Tunables for the sharded front-end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPolicy {
    /// Number of independent shards (≥ 1).
    pub shards: usize,
    /// Per-shard store policy (reuse distance, eviction).
    pub store: StorePolicy,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        Self { shards: 8, store: StorePolicy::default() }
    }
}

impl ShardPolicy {
    /// A policy with `shards` shards and defaults elsewhere.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        Self { shards: shards.max(1), ..Self::default() }
    }

    /// The default policy at the shard count of the store already at
    /// `path` (the default count when there is none yet): for callers
    /// that take no shard count of their own, so they open a store made
    /// at any count instead of refusing it.
    #[must_use]
    pub fn for_path(path: impl AsRef<Path>) -> Self {
        existing_shards(path.as_ref()).map_or_else(Self::default, Self::with_shards)
    }
}

/// A store split across independently locked shards.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Mutex<ObservationStore>>,
}

impl ShardedStore {
    /// Opens (or creates) a sharded store rooted at `path`: shard `i`
    /// lives in `<path>.shard<i>`. A shard whose reopen had to discard a
    /// torn or corrupt tail emits its own recovery event.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ShardCount`], creating no file, when a store
    /// with a different shard count already exists at `path`: keys route
    /// by `shard_hash % shards`, so a changed count would look for them in
    /// the wrong files. Returns [`StoreError::Io`] on filesystem failures.
    /// Torn or corrupt shard tails are recovered, not errors (see
    /// [`ObservationStore::open`]).
    pub fn open(
        path: impl AsRef<Path>,
        policy: ShardPolicy,
        telemetry: &Telemetry<'_>,
    ) -> StoreResult<Arc<Self>> {
        let (path, requested) = (path.as_ref(), policy.shards.max(1));
        if let Some(existing) = existing_shards(path) {
            if existing != requested {
                return Err(StoreError::ShardCount { existing, requested });
            }
        }
        let shards = (0..requested)
            .map(|i| {
                ObservationStore::open(shard_path(path, i), policy.store, telemetry).map(Mutex::new)
            })
            .collect::<StoreResult<_>>()?;
        Ok(Arc::new(Self { shards }))
    }

    /// A sharded store with no backing files (it never compacts: there is
    /// no log).
    #[must_use]
    pub fn in_memory(policy: ShardPolicy) -> Arc<Self> {
        let shards = (0..policy.shards.max(1))
            .map(|_| Mutex::new(ObservationStore::in_memory(policy.store)))
            .collect();
        Arc::new(Self { shards })
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard `signature` routes to.
    #[must_use]
    pub fn shard_for(&self, signature: &MixSignature) -> usize {
        (signature.shard_hash() % self.shards.len() as u64) as usize
    }

    /// Locks shard `idx`. A poisoned lock is taken over: a panic inside
    /// an append can leave a counter short, never an index that lookups
    /// cannot read.
    fn lock(&self, idx: usize) -> MutexGuard<'_, ObservationStore> {
        self.shards[idx].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Warm-start lookup on the owning shard.
    ///
    /// Results are byte-identical to a single [`ObservationStore`] holding
    /// the same records, and to any other shard count.
    #[must_use]
    pub fn warm_start(&self, signature: &MixSignature) -> Option<WarmStart> {
        self.warm_start_with(signature, &Telemetry::disabled())
    }

    /// [`ShardedStore::warm_start`] with telemetry: a `StoreHit` or
    /// `StoreMiss` event (miss events report the owning shard's mix
    /// count).
    pub fn warm_start_with(
        &self,
        signature: &MixSignature,
        telemetry: &Telemetry<'_>,
    ) -> Option<WarmStart> {
        self.lock(self.shard_for(signature)).warm_start(signature, telemetry)
    }

    /// Appends one sample to the owning shard, compacting the shard if its
    /// log crossed the garbage threshold.
    ///
    /// # Errors
    ///
    /// Returns [`crate::StoreError::Io`] if the shard's log write fails;
    /// the shard index is left unchanged in that case.
    pub fn append(
        &self,
        signature: &MixSignature,
        partition: &Partition,
        observation: &Observation,
        score: f64,
    ) -> StoreResult<()> {
        self.append_with(signature, partition, observation, score, &Telemetry::disabled())
    }

    /// [`ShardedStore::append`] with telemetry.
    ///
    /// # Errors
    ///
    /// Returns [`crate::StoreError::Io`] if the shard's log write fails.
    /// A failed compaction is not an error (see the module doc).
    pub fn append_with(
        &self,
        signature: &MixSignature,
        partition: &Partition,
        observation: &Observation,
        score: f64,
        telemetry: &Telemetry<'_>,
    ) -> StoreResult<()> {
        let mut store = self.lock(self.shard_for(signature));
        store.append(signature, partition, observation, score, telemetry)?;
        if store.log_records() >= COMPACTION_MIN_LOG_RECORDS
            && store.garbage_ratio() > COMPACTION_GARBAGE_RATIO
        {
            // Best-effort: a failed rewrite leaves the old log intact, and
            // the next append past the threshold retries.
            let _ = store.compact();
        }
        Ok(())
    }

    /// Compacts every shard unconditionally.
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::StoreError::Io`] hit.
    pub fn compact_all(&self) -> StoreResult<()> {
        (0..self.shards.len()).try_for_each(|idx| self.lock(idx).compact())
    }

    /// Aggregate counters across all shards.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for idx in 0..self.shards.len() {
            let stats = self.lock(idx).stats();
            total.appends += stats.appends;
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.evictions += stats.evictions;
            total.recovered_records += stats.recovered_records;
            total.dropped_bytes += stats.dropped_bytes;
            total.undecodable_records += stats.undecodable_records;
            total.append_errors += stats.append_errors;
            total.compactions += stats.compactions;
        }
        total
    }

    /// Records retained across all shard indexes.
    #[must_use]
    pub fn record_count(&self) -> usize {
        (0..self.shards.len()).map(|idx| self.lock(idx).record_count()).sum()
    }

    /// Distinct mixes indexed across all shards.
    #[must_use]
    pub fn mix_count(&self) -> usize {
        (0..self.shards.len()).map(|idx| self.lock(idx).mix_count()).sum()
    }
}

/// Shard `i`'s file: `<path>.shard<i>`.
fn shard_path(path: &Path, i: usize) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".shard{i}"));
    PathBuf::from(os)
}

/// The shard count of the store already at `path`: one more than the
/// highest `i` with a `<path>.shard<i>` file, or `None` when there is no
/// such file (or the directory cannot be listed, which the open that
/// follows reports).
fn existing_shards(path: &Path) -> Option<usize> {
    let prefix = format!("{}.shard", path.file_name()?.to_str()?);
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name();
            let index = name.to_str()?.strip_prefix(&prefix)?;
            // `shard<i>` exactly as `shard_path` writes it: no `.tmp`
            // side files, no leading zeros.
            let i: usize = index.parse().ok()?;
            (i.to_string() == index).then_some(i + 1)
        })
        .max()
}

/// The store handle nodes, schedulers and fleets hold. An alias, not a
/// type of its own: `layerbench` names it, and
/// `StoreHandle::from(Arc::clone(&store))` still compiles through the
/// reflexive `From`.
pub type StoreHandle = Arc<ShardedStore>;
