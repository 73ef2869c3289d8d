//! The observation store: durable log + in-memory index + warm-start
//! lookup. It is the per-shard engine behind [`crate::ShardedStore`],
//! the one front end every caller uses.
//!
//! Appends go to the crash-safe log (see [`crate::log`]) and into an index
//! keyed by [`MixKey`] — catalog, workloads, classes, QoS targets — with a
//! second level keyed by the quantized load vector. Lookups return the
//! bucket at the exact load point if present, otherwise the nearest bucket
//! within the policy's load-distance budget. Every choice the store makes
//! (eviction order, nearest-bucket tie-breaks, warm-entry order) is
//! determined by record *content*, never by wall-clock time, RNG, or hash
//! iteration order, so a warm-started search is byte-reproducible.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use clite_sim::alloc::Partition;
use clite_sim::metrics::Observation;
use clite_telemetry::{Event, Telemetry};

use crate::codec::{decode_record, encode_record};
use crate::log::{LogFile, Recovery};
use crate::signature::{load_vector_distance, MixKey, MixSignature};
use crate::{StoreRecord, StoreResult};

/// Tunables for reuse distance and eviction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorePolicy {
    /// Largest L∞ load-vector gap (as a load fraction) at which stored
    /// samples are still offered for warm starts.
    pub max_load_distance: f64,
    /// Most warm entries returned by one lookup.
    pub max_warm_entries: usize,
    /// Most records retained per (mix, load-vector) bucket; the
    /// lowest-scoring beyond this are evicted.
    pub entries_per_mix: usize,
}

impl Default for StorePolicy {
    fn default() -> Self {
        Self { max_load_distance: 0.10, max_warm_entries: 8, entries_per_mix: 16 }
    }
}

/// Counters describing everything the store has done since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended this session.
    pub appends: u64,
    /// Warm-start lookups that returned entries (counted by
    /// [`crate::ShardedStore`]; a bare [`ObservationStore`] only peeks).
    pub hits: u64,
    /// Warm-start lookups that returned nothing.
    pub misses: u64,
    /// Records dropped by per-bucket eviction this session.
    pub evictions: u64,
    /// Intact records recovered from the log at open.
    pub recovered_records: u64,
    /// Bytes of torn/corrupt tail discarded at open.
    pub dropped_bytes: u64,
    /// Frames that passed the log's integrity checks at open but no
    /// longer decoded as records (e.g. written by a newer codec); skipped,
    /// not fatal.
    pub undecodable_records: u64,
    /// Append attempts that failed at the I/O layer (cluster best-effort
    /// appends count here instead of failing the search).
    pub append_errors: u64,
    /// Lock acquisitions that found a shard busy and had to wait (bumped
    /// by [`crate::ShardedStore`]). Contention-tuning signal only: never
    /// part of any determinism contract.
    pub lock_waits: u64,
    /// Log compactions completed (manual or background).
    pub compactions: u64,
}

/// One stored sample offered to a warm start.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmEntry {
    /// The partition that was evaluated.
    pub partition: Partition,
    /// What one observation window measured under it.
    pub observation: Observation,
    /// The Eq. 3 score the controller assigned.
    pub score: f64,
}

/// The result of a warm-start lookup: prior samples plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    /// Stored samples, best score first (ties broken by partition bytes).
    pub entries: Vec<WarmEntry>,
    /// L∞ load distance from the stored bucket to the querying mix.
    pub load_distance: f64,
    /// True if the stored bucket is at the querying load exactly.
    pub exact: bool,
}

impl WarmStart {
    /// Whether any warm entry met every LC job's QoS target.
    #[must_use]
    pub fn any_qos_met(&self) -> bool {
        self.entries.iter().any(|e| e.observation.all_qos_met())
    }
}

/// A retained record: what the index keeps per append.
#[derive(Debug, Clone)]
struct Retained {
    seq: u64,
    record: StoreRecord,
}

/// The observation store: a crash-safe log with a warm-start index.
#[derive(Debug)]
pub struct ObservationStore {
    path: Option<PathBuf>,
    log: Option<LogFile>,
    /// mix key → quantized load vector → retained records.
    index: HashMap<MixKey, HashMap<Vec<u32>, Vec<Retained>>>,
    policy: StorePolicy,
    stats: StoreStats,
    next_seq: u64,
    /// Frames currently in the durable log (retained + evicted garbage);
    /// 0 for in-memory stores. Compaction resets this to the retained
    /// count.
    log_records: u64,
    /// Records currently retained in the index (incremental mirror of
    /// [`ObservationStore::record_count`]).
    retained_records: u64,
}

impl ObservationStore {
    /// Opens (or creates) the store at `path`. When reopen-time recovery
    /// had to discard anything — a torn/corrupt tail, a bad header, or
    /// frames that framed correctly but no longer decode — an
    /// [`Event::StoreRecovered`] is emitted instead of truncating
    /// silently. The same counts are surfaced in
    /// [`ObservationStore::stats`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::StoreError::Io`] on filesystem failures. A torn or
    /// bit-flipped tail is not an error: the valid prefix is recovered.
    pub fn open(
        path: impl AsRef<Path>,
        policy: StorePolicy,
        telemetry: &Telemetry<'_>,
    ) -> StoreResult<Self> {
        let path = path.as_ref().to_path_buf();
        let (log, recovery) = LogFile::open(&path)?;
        let mut store = Self { path: Some(path), log: Some(log), ..Self::in_memory(policy) };
        store.load_recovery(&recovery);
        let damaged = store.stats.dropped_bytes > 0
            || store.stats.undecodable_records > 0
            || recovery.header_rewritten;
        if damaged {
            telemetry.emit(Event::StoreRecovered {
                records: usize::try_from(store.stats.recovered_records).unwrap_or(usize::MAX),
                dropped_bytes: store.stats.dropped_bytes,
                undecodable: usize::try_from(store.stats.undecodable_records).unwrap_or(usize::MAX),
            });
        }
        Ok(store)
    }

    /// A store with no backing file: an in-memory shard, or a test's plain
    /// reference store.
    #[must_use]
    pub fn in_memory(policy: StorePolicy) -> Self {
        Self {
            path: None,
            log: None,
            index: HashMap::new(),
            policy,
            stats: StoreStats::default(),
            next_seq: 0,
            log_records: 0,
            retained_records: 0,
        }
    }

    fn load_recovery(&mut self, recovery: &Recovery) {
        self.stats.dropped_bytes = recovery.dropped_bytes;
        for payload in &recovery.payloads {
            // A payload that framed correctly but no longer decodes (e.g.
            // written by a newer codec) is skipped, not fatal.
            if let Ok(record) = decode_record(payload) {
                self.stats.recovered_records += 1;
                self.log_records += 1;
                self.index_record(record);
            } else {
                self.stats.undecodable_records += 1;
                self.log_records += 1;
            }
        }
    }

    /// The reuse/eviction policy in force.
    #[must_use]
    pub fn policy(&self) -> StorePolicy {
        self.policy
    }

    /// Session counters (appends, hits, recovery results, ...).
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Number of distinct mixes currently indexed.
    #[must_use]
    pub fn mix_count(&self) -> usize {
        self.index.len()
    }

    /// Number of records currently retained in the index (post-eviction).
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.index.values().flat_map(HashMap::values).map(Vec::len).sum()
    }

    /// Frames currently in the durable log, including evicted garbage not
    /// yet compacted away. Always 0 for in-memory stores.
    #[must_use]
    pub fn log_records(&self) -> u64 {
        self.log_records
    }

    /// Fraction of the durable log occupied by garbage — frames whose
    /// records have since been evicted from the index (or never decoded).
    /// The sharded front-end triggers background compaction when this
    /// crosses its threshold. 0.0 for in-memory or empty logs.
    #[must_use]
    pub fn garbage_ratio(&self) -> f64 {
        if self.log_records == 0 {
            return 0.0;
        }
        let retained = self.retained_records.min(self.log_records);
        1.0 - retained as f64 / self.log_records as f64
    }

    /// Appends one sample, updating the log and the index.
    ///
    /// # Errors
    ///
    /// Returns [`crate::StoreError::Io`] if the log write fails; the index
    /// is left unchanged in that case.
    pub fn append(
        &mut self,
        signature: &MixSignature,
        partition: &Partition,
        observation: &Observation,
        score: f64,
        telemetry: &Telemetry<'_>,
    ) -> StoreResult<()> {
        let record = StoreRecord {
            signature: signature.clone(),
            partition: partition.clone(),
            observation: observation.clone(),
            score,
        };
        if let Some(log) = &mut self.log {
            let payload = encode_record(&record);
            if let Err(e) = log.append(&payload) {
                self.stats.append_errors += 1;
                return Err(e);
            }
            self.log_records += 1;
        }
        self.stats.appends += 1;
        self.index_record(record);
        telemetry.emit(Event::StoreAppend { score });
        Ok(())
    }

    fn index_record(&mut self, record: StoreRecord) {
        let key = record.signature.key();
        let loads = record.signature.loads();
        let seq = self.next_seq;
        self.next_seq += 1;
        let bucket = self.index.entry(key).or_default().entry(loads).or_default();
        bucket.push(Retained { seq, record });
        let evicted = evict(bucket, self.policy.entries_per_mix) as u64;
        self.stats.evictions += evicted;
        self.retained_records += 1;
        self.retained_records -= evicted;
    }

    /// Looks up warm-start samples for `signature`.
    ///
    /// Returns the exact-load bucket if present, otherwise the nearest
    /// bucket within [`StorePolicy::max_load_distance`] (ties broken by
    /// the lexicographically smallest load vector), or `None` on a miss.
    /// Read-only: hit/miss counting and events belong to
    /// [`crate::ShardedStore::warm_start_with`], which calls this under a
    /// shared read lock.
    #[must_use]
    pub fn peek(&self, signature: &MixSignature) -> Option<WarmStart> {
        let buckets = self.index.get(&signature.key())?;
        let query = signature.loads();

        // Nearest bucket by (distance, load vector) — both content-derived,
        // so the choice is independent of hash iteration order.
        let (loads, bucket) = buckets
            .iter()
            .map(|(loads, bucket)| (load_vector_distance(loads, &query), loads, bucket))
            .filter(|(d, _, _)| *d <= self.policy.max_load_distance)
            .min_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.1.cmp(b.1))
            })
            .map(|(_, loads, bucket)| (loads, bucket))?;
        if bucket.is_empty() {
            return None;
        }

        let load_distance = load_vector_distance(loads, &query);
        let mut ranked: Vec<&Retained> = bucket.iter().collect();
        ranked.sort_by(|a, b| rank(&a.record, &b.record));
        let entries = ranked
            .into_iter()
            .take(self.policy.max_warm_entries)
            .map(|r| WarmEntry {
                partition: r.record.partition.clone(),
                observation: r.record.observation.clone(),
                score: r.record.score,
            })
            .collect();
        Some(WarmStart { entries, load_distance, exact: load_distance == 0.0 })
    }

    /// Rewrites the log keeping only currently retained records, in their
    /// original append order. A crash mid-compaction leaves either the old
    /// or the new log intact.
    ///
    /// # Errors
    ///
    /// Returns [`crate::StoreError::Io`] on filesystem failures; the
    /// in-memory index is valid either way.
    pub fn compact(&mut self) -> StoreResult<()> {
        let Some(path) = self.path.clone() else {
            return Ok(());
        };
        let mut retained: Vec<&Retained> =
            self.index.values().flat_map(HashMap::values).flatten().collect();
        retained.sort_by_key(|r| r.seq);
        let payloads: Vec<Vec<u8>> = retained.iter().map(|r| encode_record(&r.record)).collect();
        self.log = Some(LogFile::rewrite(&path, &payloads)?);
        self.log_records = payloads.len() as u64;
        self.stats.compactions += 1;
        Ok(())
    }
}

/// Best-first ordering for retained records: higher score first, ties by
/// partition unit rows (content-determined, so stable across runs).
fn rank(a: &StoreRecord, b: &StoreRecord) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| partition_units(&a.partition).cmp(&partition_units(&b.partition)))
}

fn partition_units(p: &Partition) -> Vec<u32> {
    p.rows().iter().flat_map(|r| r.all_units()).collect()
}

/// Dedupes identical partitions (keeping the higher score) and trims the
/// bucket to its best `keep` records. Returns how many were dropped.
fn evict(bucket: &mut Vec<Retained>, keep: usize) -> usize {
    let before = bucket.len();
    bucket.sort_by(|a, b| rank(&a.record, &b.record));
    let mut seen: Vec<Vec<u32>> = Vec::with_capacity(bucket.len());
    bucket.retain(|r| {
        let units = partition_units(&r.record.partition);
        if seen.contains(&units) {
            false
        } else {
            seen.push(units);
            true
        }
    });
    bucket.truncate(keep);
    before - bucket.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{ShardPolicy, ShardedStore};
    use clite_sim::prelude::*;
    use clite_sim::testbed::Testbed;
    use clite_telemetry::MemoryRecorder;
    use std::sync::LazyLock;

    /// One disabled context shared by every test here.
    static OFF: LazyLock<Telemetry<'static>> = LazyLock::new(Telemetry::disabled);

    fn server(load: f64) -> Server {
        let jobs = vec![
            JobSpec::latency_critical(WorkloadId::Memcached, load),
            JobSpec::background(WorkloadId::Swaptions),
        ];
        Server::new(ResourceCatalog::testbed(), jobs, 11).unwrap()
    }

    fn sample(server: &mut Server, partition: &Partition) -> (MixSignature, Observation) {
        let obs = server.observe(partition);
        (MixSignature::capture(server), obs)
    }

    /// One shard: the front end that counts hits and misses.
    fn counted() -> std::sync::Arc<ShardedStore> {
        ShardedStore::in_memory(ShardPolicy::with_shards(1))
    }

    #[test]
    fn exact_hit_returns_best_first() {
        let store = counted();
        let mut s = server(0.5);
        let cat = *Testbed::catalog(&s);
        let p1 = Partition::equal_share(&cat, 2).unwrap();
        let p2 = Partition::max_for_job(&cat, 2, 0).unwrap();
        let (sig, o1) = sample(&mut s, &p1);
        let (_, o2) = sample(&mut s, &p2);
        store.append(&sig, &p1, &o1, 0.3).unwrap();
        store.append(&sig, &p2, &o2, 0.9).unwrap();

        let warm = store.warm_start(&sig).expect("exact hit");
        assert!(warm.exact);
        assert_eq!(warm.load_distance, 0.0);
        assert_eq!(warm.entries.len(), 2);
        assert_eq!(warm.entries[0].score, 0.9);
        assert_eq!(warm.entries[0].partition, p2);
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn nearby_load_hits_distant_load_misses() {
        let store = counted();
        let mut s = server(0.50);
        let cat = *Testbed::catalog(&s);
        let p = Partition::equal_share(&cat, 2).unwrap();
        let (sig, obs) = sample(&mut s, &p);
        store.append(&sig, &p, &obs, 0.5).unwrap();

        let near = MixSignature::capture(&server(0.55));
        let warm = store.warm_start(&near).expect("within 10% budget");
        assert!(!warm.exact);
        assert!((warm.load_distance - 0.05).abs() < 1e-12);

        let far = MixSignature::capture(&server(0.90));
        assert!(store.warm_start(&far).is_none());
        assert_eq!(
            store.stats(),
            StoreStats { appends: 1, hits: 1, misses: 1, ..Default::default() }
        );
    }

    #[test]
    fn different_mix_never_hits() {
        let mut store = ObservationStore::in_memory(StorePolicy::default());
        let mut s = server(0.5);
        let cat = *Testbed::catalog(&s);
        let p = Partition::equal_share(&cat, 2).unwrap();
        let (sig, obs) = sample(&mut s, &p);
        store.append(&sig, &p, &obs, 0.5, &OFF).unwrap();

        let jobs = vec![
            JobSpec::latency_critical(WorkloadId::Xapian, 0.5),
            JobSpec::background(WorkloadId::Swaptions),
        ];
        let other = Server::new(ResourceCatalog::testbed(), jobs, 11).unwrap();
        assert!(store.peek(&MixSignature::capture(&other)).is_none());
    }

    #[test]
    fn eviction_keeps_best_and_dedupes() {
        let policy = StorePolicy { entries_per_mix: 3, ..StorePolicy::default() };
        let mut store = ObservationStore::in_memory(policy);
        let mut s = server(0.5);
        let cat = *Testbed::catalog(&s);
        let p = Partition::equal_share(&cat, 2).unwrap();
        let (sig, obs) = sample(&mut s, &p);

        // Same partition at rising scores: dedupe keeps only the best.
        for k in 0..5 {
            store.append(&sig, &p, &obs, 0.1 * f64::from(k), &OFF).unwrap();
        }
        assert_eq!(store.record_count(), 1);
        let warm = store.peek(&sig).unwrap();
        assert_eq!(warm.entries[0].score, 0.4);

        // Distinct partitions: best `entries_per_mix` retained.
        for j in 0..2 {
            let pj = Partition::max_for_job(&cat, 2, j).unwrap();
            let (_, oj) = sample(&mut s, &pj);
            let score = 0.6 + f64::from(u32::try_from(j).unwrap());
            store.append(&sig, &pj, &oj, score, &OFF).unwrap();
        }
        assert_eq!(store.record_count(), 3);
        assert!(store.stats().evictions >= 4);
    }

    #[test]
    fn warm_entries_capped_by_policy() {
        let policy = StorePolicy { max_warm_entries: 1, ..StorePolicy::default() };
        let mut store = ObservationStore::in_memory(policy);
        let mut s = server(0.5);
        let cat = *Testbed::catalog(&s);
        let p1 = Partition::equal_share(&cat, 2).unwrap();
        let p2 = Partition::max_for_job(&cat, 2, 0).unwrap();
        let (sig, o1) = sample(&mut s, &p1);
        let (_, o2) = sample(&mut s, &p2);
        store.append(&sig, &p1, &o1, 0.2, &OFF).unwrap();
        store.append(&sig, &p2, &o2, 0.8, &OFF).unwrap();
        let warm = store.peek(&sig).unwrap();
        assert_eq!(warm.entries.len(), 1);
        assert_eq!(warm.entries[0].score, 0.8);
    }

    #[test]
    fn lookup_emits_hit_and_miss_events() {
        let sink = MemoryRecorder::new();
        let telemetry = Telemetry::new(&sink);
        let store = counted();
        let mut s = server(0.5);
        let cat = *Testbed::catalog(&s);
        let p = Partition::equal_share(&cat, 2).unwrap();
        let (sig, obs) = sample(&mut s, &p);
        assert!(store.warm_start_with(&sig, &telemetry).is_none());
        store.append_with(&sig, &p, &obs, 0.5, &telemetry).unwrap();
        assert!(store.warm_start_with(&sig, &telemetry).is_some());
        assert_eq!(sink.count_kind("store_miss"), 1);
        assert_eq!(sink.count_kind("store_append"), 1);
        assert_eq!(sink.count_kind("store_hit"), 1);
    }

    #[test]
    fn persists_across_reopen_and_compacts() {
        let dir = std::env::temp_dir().join(format!("clite-store-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("obs.log");

        let mut s = server(0.5);
        let cat = *Testbed::catalog(&s);
        let p = Partition::equal_share(&cat, 2).unwrap();
        let (sig, obs) = sample(&mut s, &p);
        {
            let policy = StorePolicy { entries_per_mix: 1, ..StorePolicy::default() };
            let mut store = ObservationStore::open(&path, policy, &OFF).unwrap();
            store.append(&sig, &p, &obs, 0.3, &OFF).unwrap();
            let p2 = Partition::max_for_job(&cat, 2, 0).unwrap();
            let (_, o2) = sample(&mut s, &p2);
            store.append(&sig, &p2, &o2, 0.7, &OFF).unwrap();
            store.compact().unwrap();
        }

        let store = ObservationStore::open(&path, StorePolicy::default(), &OFF).unwrap();
        assert_eq!(store.stats().recovered_records, 1, "compaction kept only the best");
        assert_eq!(store.stats().dropped_bytes, 0);
        let warm = store.peek(&sig).expect("recovered hit");
        assert_eq!(warm.entries[0].score, 0.7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_recovery_emits_store_recovered_event() {
        use std::io::Write;

        let dir = std::env::temp_dir().join(format!("clite-store-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("obs.log");

        let mut s = server(0.5);
        let cat = *Testbed::catalog(&s);
        let p = Partition::equal_share(&cat, 2).unwrap();
        let (sig, obs) = sample(&mut s, &p);
        {
            let mut store = ObservationStore::open(&path, StorePolicy::default(), &OFF).unwrap();
            store.append(&sig, &p, &obs, 0.4, &OFF).unwrap();
        }
        // Tear the log: half a frame of garbage at the tail.
        {
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xFF; 13]).unwrap();
        }

        let sink = MemoryRecorder::new();
        let telemetry = Telemetry::new(&sink);
        let store = ObservationStore::open(&path, StorePolicy::default(), &telemetry).unwrap();
        assert_eq!(store.stats().recovered_records, 1, "valid prefix survives");
        assert!(store.stats().dropped_bytes > 0, "torn tail must be counted");
        assert_eq!(sink.count_kind("store_recovered"), 1, "damage must be reported, not silent");
        assert!(store.peek(&sig).is_some());

        // A clean log reports nothing.
        {
            let mut clean = ObservationStore::open(&path, StorePolicy::default(), &OFF).unwrap();
            clean.append(&sig, &p, &obs, 0.5, &OFF).unwrap();
            clean.compact().unwrap();
        }
        let quiet = MemoryRecorder::new();
        let t2 = Telemetry::new(&quiet);
        let reopened = ObservationStore::open(&path, StorePolicy::default(), &t2).unwrap();
        assert_eq!(reopened.stats().dropped_bytes, 0);
        assert_eq!(quiet.count_kind("store_recovered"), 0, "clean reopen stays silent");
        std::fs::remove_dir_all(&dir).ok();
    }
}
