//! The observation store's one front end: per-shard locks, a read fast
//! path, and background compaction.
//!
//! Every caller — the controller, the adaptive loop, the `colocate` and
//! `experiments` `--store` paths, and the fleet — holds an
//! `Arc<ShardedStore>`. It splits the store into `N` independent
//! [`ObservationStore`]s, each behind its own lock, so a probe's
//! warm-start lookup never waits behind an append to another mix. Each
//! signature is routed by [`MixSignature::shard_hash`] — a stable FNV-1a
//! hash of the mix *key* (catalog, workloads, classes, QoS; load
//! excluded), so every load point of one mix lands on the same shard and
//! nearby-load reuse never crosses a shard boundary.
//!
//! Because the underlying index is keyed by mix key and buckets never
//! interact, **every lookup and eviction decision is a pure function of
//! the records previously appended for that key** — which shard holds the
//! key is unobservable. That is the shard-count invariance contract:
//! 1, 4, or 16 shards produce byte-identical warm starts and fleet
//! outcomes for the same append history (pinned by
//! `tests/shard_invariance.rs`).
//!
//! Concurrency model:
//! * reads take `RwLock::try_read` first (many concurrent probes share the
//!   lock); a blocked attempt bumps the shard's `lock_waits` atomic and
//!   falls back to a blocking read, so contention is measured, never
//!   hidden;
//! * hit/miss/lock-wait counters live *outside* the lock as per-shard
//!   atomics — the read path never needs `&mut ObservationStore`
//!   (it calls [`ObservationStore::peek`]);
//! * appends take the write lock, and afterwards check the shard's
//!   [`ObservationStore::garbage_ratio`]; past the policy threshold the
//!   shard index is queued to a detached background compactor thread that
//!   rewrites the log tmp+rename (crash leaves old or new log intact —
//!   same discipline as [`ObservationStore::compact`]).
//!
//! The compactor holds only a [`Weak`] reference: dropping the last
//! [`ShardedStore`] handle closes the work channel and the thread exits on
//! its own — no `Drop`-time join, no shutdown deadlock.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError, Weak};

use clite_sim::alloc::Partition;
use clite_sim::metrics::Observation;
use clite_telemetry::{Event, Telemetry};

use crate::signature::MixSignature;
use crate::store::{ObservationStore, StorePolicy, StoreStats, WarmStart};
use crate::StoreResult;

/// Tunables for the sharded front-end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPolicy {
    /// Number of independent shards (≥ 1).
    pub shards: usize,
    /// Per-shard store policy (reuse distance, eviction).
    pub store: StorePolicy,
    /// Garbage fraction of a shard's log above which compaction is
    /// scheduled (see [`ObservationStore::garbage_ratio`]).
    pub compaction_garbage_ratio: f64,
    /// Logs smaller than this many frames are never compacted — rewriting
    /// a tiny file buys nothing.
    pub compaction_min_log_records: u64,
    /// Run compactions on the background thread. When `false`, callers
    /// compact explicitly via [`ShardedStore::compact_pending`] /
    /// [`ShardedStore::compact_all`] (deterministic tests, shutdown).
    pub background_compaction: bool,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        Self {
            shards: 8,
            store: StorePolicy::default(),
            compaction_garbage_ratio: 0.5,
            compaction_min_log_records: 128,
            background_compaction: true,
        }
    }
}

impl ShardPolicy {
    /// A policy with `shards` shards and defaults elsewhere.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        Self { shards: shards.max(1), ..Self::default() }
    }
}

/// One shard: the store behind a read/write lock plus contention counters
/// kept outside it.
#[derive(Debug)]
struct Shard {
    store: RwLock<ObservationStore>,
    hits: AtomicU64,
    misses: AtomicU64,
    lock_waits: AtomicU64,
    /// Set while a compaction for this shard is queued or running, so the
    /// append path schedules each shard at most once at a time. With no
    /// worker to take the job (background compaction disabled, an
    /// in-memory store, or a worker that is exiting) the flag stays set,
    /// and [`ShardedStore::compact_pending`] picks the shard up.
    compaction_queued: AtomicBool,
}

impl Shard {
    fn new(store: ObservationStore) -> Self {
        Self {
            store: RwLock::new(store),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            lock_waits: AtomicU64::new(0),
            compaction_queued: AtomicBool::new(false),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, ObservationStore> {
        match self.store.try_read() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.lock_waits.fetch_add(1, Ordering::Relaxed);
                self.store.read().unwrap_or_else(std::sync::PoisonError::into_inner)
            }
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        }
    }

    fn write(&self) -> RwLockWriteGuard<'_, ObservationStore> {
        match self.store.try_write() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.lock_waits.fetch_add(1, Ordering::Relaxed);
                self.store.write().unwrap_or_else(std::sync::PoisonError::into_inner)
            }
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        }
    }
}

/// A store split across independently locked shards.
///
/// Always handled through `Arc` (the constructors return `Arc<Self>`) so
/// the background compactor can hold a [`Weak`] reference.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Shard>,
    policy: ShardPolicy,
    /// Work queue to the background compactor; `None` when background
    /// compaction is disabled or the store is in-memory.
    compactor: Mutex<Option<mpsc::Sender<usize>>>,
}

impl ShardedStore {
    /// Opens (or creates) a sharded store rooted at `path`: shard `i`
    /// lives in `<path>.shard<i>`. Spawns the background compactor when
    /// the policy asks for one. A shard whose reopen had to discard a
    /// torn or corrupt tail emits its own recovery event.
    ///
    /// # Errors
    ///
    /// Returns [`crate::StoreError::Io`] on filesystem failures. Torn or
    /// corrupt shard tails are recovered, not errors (see
    /// [`ObservationStore::open`]).
    pub fn open(
        path: impl AsRef<Path>,
        policy: ShardPolicy,
        telemetry: &Telemetry<'_>,
    ) -> StoreResult<Arc<Self>> {
        let policy = ShardPolicy { shards: policy.shards.max(1), ..policy };
        let path = path.as_ref();
        let mut shards = Vec::with_capacity(policy.shards);
        for i in 0..policy.shards {
            let store = ObservationStore::open(shard_path(path, i), policy.store, telemetry)?;
            shards.push(Shard::new(store));
        }
        let store = Arc::new(Self { shards, policy, compactor: Mutex::new(None) });
        if policy.background_compaction {
            Self::spawn_compactor(&store);
        }
        Ok(store)
    }

    /// A sharded store with no backing files (background compaction is
    /// moot: in-memory stores have no log).
    #[must_use]
    pub fn in_memory(policy: ShardPolicy) -> Arc<Self> {
        let policy = ShardPolicy { shards: policy.shards.max(1), ..policy };
        let shards = (0..policy.shards)
            .map(|_| Shard::new(ObservationStore::in_memory(policy.store)))
            .collect();
        Arc::new(Self { shards, policy, compactor: Mutex::new(None) })
    }

    /// The front-end policy in force.
    #[must_use]
    pub fn policy(&self) -> ShardPolicy {
        self.policy
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

    /// Warm-start lookup on the owning shard's read fast path.
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
        let shard = &self.shards[self.shard_for(signature)];
        let guard = shard.read();
        let found = guard.peek(signature);
        let mixes = guard.mix_count();
        drop(guard);
        match &found {
            Some(warm) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                telemetry.emit(Event::StoreHit {
                    entries: warm.entries.len(),
                    load_distance: warm.load_distance,
                    exact: warm.exact,
                });
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                telemetry.emit(Event::StoreMiss { mixes });
            }
        }
        found
    }

    /// Appends one sample to the owning shard, scheduling a background
    /// compaction if the shard's log crossed the garbage threshold.
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
    pub fn append_with(
        &self,
        signature: &MixSignature,
        partition: &Partition,
        observation: &Observation,
        score: f64,
        telemetry: &Telemetry<'_>,
    ) -> StoreResult<()> {
        let idx = self.shard_for(signature);
        let shard = &self.shards[idx];
        let mut guard = shard.write();
        let result = guard.append(signature, partition, observation, score, telemetry);
        let wants_compaction = result.is_ok() && self.wants_compaction(&guard);
        drop(guard);
        if wants_compaction {
            self.schedule_compaction(idx);
        }
        result
    }

    fn wants_compaction(&self, store: &ObservationStore) -> bool {
        store.log_records() >= self.policy.compaction_min_log_records
            && store.garbage_ratio() > self.policy.compaction_garbage_ratio
    }

    fn schedule_compaction(&self, idx: usize) {
        let shard = &self.shards[idx];
        if shard.compaction_queued.swap(true, Ordering::AcqRel) {
            return; // already queued or running
        }
        if let Some(tx) = &*self.compactor.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            let _ = tx.send(idx);
        }
    }

    /// Compacts every shard whose compaction is pending (queued but not
    /// yet run). Synchronous; for deterministic tests and shutdown.
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::StoreError::Io`] hit; remaining shards
    /// keep their pending flag.
    pub fn compact_pending(&self) -> StoreResult<()> {
        for idx in 0..self.shards.len() {
            if self.shards[idx].compaction_queued.load(Ordering::Acquire) {
                self.compact_shard(idx)?;
            }
        }
        Ok(())
    }

    /// Compacts every shard unconditionally. Synchronous.
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::StoreError::Io`] hit.
    pub fn compact_all(&self) -> StoreResult<()> {
        for idx in 0..self.shards.len() {
            self.compact_shard(idx)?;
        }
        Ok(())
    }

    /// Compacts one shard (tmp write + rename) and clears its pending
    /// flag. The flag clears even on error so a later append can
    /// re-schedule.
    fn compact_shard(&self, idx: usize) -> StoreResult<()> {
        let shard = &self.shards[idx];
        let result = shard.write().compact();
        shard.compaction_queued.store(false, Ordering::Release);
        result
    }

    /// Per-shard counters: the shard store's own stats with the
    /// front-end's atomic hit/miss/lock-wait counters overlaid.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<StoreStats> {
        self.shards
            .iter()
            .map(|shard| {
                let mut stats =
                    shard.store.read().unwrap_or_else(std::sync::PoisonError::into_inner).stats();
                stats.hits += shard.hits.load(Ordering::Relaxed);
                stats.misses += shard.misses.load(Ordering::Relaxed);
                stats.lock_waits += shard.lock_waits.load(Ordering::Relaxed);
                stats
            })
            .collect()
    }

    /// Aggregate counters across all shards.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for stats in self.shard_stats() {
            total.appends += stats.appends;
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.evictions += stats.evictions;
            total.recovered_records += stats.recovered_records;
            total.dropped_bytes += stats.dropped_bytes;
            total.undecodable_records += stats.undecodable_records;
            total.append_errors += stats.append_errors;
            total.lock_waits += stats.lock_waits;
            total.compactions += stats.compactions;
        }
        total
    }

    /// Records retained across all shard indexes.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.store.read().unwrap_or_else(std::sync::PoisonError::into_inner).record_count()
            })
            .sum()
    }

    /// Distinct mixes indexed across all shards.
    #[must_use]
    pub fn mix_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.store.read().unwrap_or_else(std::sync::PoisonError::into_inner).mix_count())
            .sum()
    }

    /// Exports per-shard occupancy and contention counters as gauge
    /// families on `registry` (`clite_store_shard_*{shard="i"}`), so
    /// shard-count tuning is measurable from the metrics endpoint.
    pub fn export_metrics(&self, registry: &clite_telemetry::MetricsRegistry) {
        for (i, stats) in self.shard_stats().iter().enumerate() {
            let label = i.to_string();
            let labels: &[(&str, &str)] = &[("shard", label.as_str())];
            registry.set_gauge("clite_store_shard_hits", labels, stats.hits as f64);
            registry.set_gauge("clite_store_shard_misses", labels, stats.misses as f64);
            registry.set_gauge("clite_store_shard_lock_waits", labels, stats.lock_waits as f64);
            registry.set_gauge("clite_store_shard_appends", labels, stats.appends as f64);
            registry.set_gauge("clite_store_shard_evictions", labels, stats.evictions as f64);
            registry.set_gauge("clite_store_shard_compactions", labels, stats.compactions as f64);
        }
    }

    fn spawn_compactor(this: &Arc<Self>) {
        let (tx, rx) = mpsc::channel::<usize>();
        *this.compactor.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(tx);
        let weak: Weak<Self> = Arc::downgrade(this);
        // Detached on purpose: the worker owns no Arc between jobs, so
        // dropping the last ShardedStore handle closes the channel and the
        // loop ends. Joining in Drop could deadlock if the worker briefly
        // holds the last Arc itself.
        let spawned = std::thread::Builder::new()
            .name("clite-store-compactor".into())
            .spawn(move || {
                while let Ok(idx) = rx.recv() {
                    let Some(store) = weak.upgrade() else { break };
                    // Best-effort: an I/O failure leaves the old log (the
                    // rewrite is tmp+rename) and clears the pending flag so
                    // a later append can retry.
                    let _ = store.compact_shard(idx);
                }
            })
            .is_ok();
        if !spawned {
            *this.compactor.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
        }
    }
}

/// Shard `i`'s file: `<path>.shard<i>`.
fn shard_path(path: &Path, i: usize) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".shard{i}"));
    std::path::PathBuf::from(os)
}

/// The store handle nodes, schedulers and fleets hold. An alias, not a
/// type of its own: `layerbench` names it, and
/// `StoreHandle::from(Arc::clone(&store))` still compiles through the
/// reflexive `From`.
pub type StoreHandle = Arc<ShardedStore>;
