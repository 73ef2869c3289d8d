//! Shard-count invariance and compaction crash-safety.
//!
//! The sharded front-end routes by mix key and its per-key buckets never
//! interact, so 1, 4, or 16 shards (and a plain `ObservationStore`) must produce
//! byte-identical warm starts for the same append history. Compaction
//! rewrites each shard's log tmp+rename; a crash between the tmp write
//! and the rename must leave the original log fully recoverable.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use clite_sim::prelude::*;
use clite_store::shard::COMPACTION_MIN_LOG_RECORDS;
use clite_store::{
    MixSignature, ObservationStore, ShardPolicy, ShardedStore, StorePolicy, WarmStart,
};
use clite_telemetry::Telemetry;

/// An alternating LC/BG mix of `jobs` co-located jobs.
fn specs(jobs: usize, load: f64) -> Vec<JobSpec> {
    (0..jobs)
        .map(|i| {
            if i % 2 == 0 {
                JobSpec::latency_critical(WorkloadId::LATENCY_CRITICAL[i % 5], load)
            } else {
                JobSpec::background(WorkloadId::BACKGROUND[i % 6])
            }
        })
        .collect()
}

/// One sample: `(signature, partition, observation, score)`.
type Sample = (MixSignature, Partition, Observation, f64);

/// A deterministic corpus of samples spanning several distinct mixes (so
/// multiple shards are populated), several loads per mix (so nearby-load
/// reuse is exercised), and several partitions per signature (so
/// per-bucket eviction and dedupe run).
fn corpus(seed: u64) -> Vec<Sample> {
    let catalog = ResourceCatalog::testbed();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut samples = Vec::new();
    for jobs in [2usize, 3, 4] {
        for load_step in 1..=4u32 {
            let load = f64::from(load_step) * 0.15;
            let mut server = Server::new(catalog, specs(jobs, load), seed ^ jobs as u64).unwrap();
            let signature = MixSignature::capture(&server);
            for _ in 0..3 {
                let partition = Partition::random(&catalog, jobs, &mut rng).unwrap();
                let observation = server.observe(&partition);
                let score = rng.gen_range(-1.0..1.0);
                samples.push((signature.clone(), partition, observation, score));
            }
        }
    }
    samples
}

/// Every lookup the invariance tests compare: one exact probe per stored
/// signature plus a nearby-load probe per mix size.
fn probes(samples: &[Sample]) -> Vec<MixSignature> {
    let catalog = ResourceCatalog::testbed();
    let mut probes: Vec<MixSignature> = Vec::new();
    for (sig, ..) in samples {
        if !probes.contains(sig) {
            probes.push(sig.clone());
        }
    }
    for jobs in [2usize, 3, 4] {
        // 0.17 sits within the default 10% reuse distance of the stored
        // 0.15 point — a nearby (non-exact) hit on every store shape.
        let server = Server::new(catalog, specs(jobs, 0.17), 1).unwrap();
        probes.push(MixSignature::capture(&server));
    }
    probes
}

#[test]
fn shard_counts_are_byte_identical_to_the_plain_store() {
    let samples = corpus(42);
    let probes = probes(&samples);

    let mut plain = ObservationStore::in_memory(StorePolicy::default());
    for (sig, p, o, score) in &samples {
        plain.append(sig, p, o, *score, &Telemetry::disabled()).unwrap();
    }
    let reference: Vec<Option<WarmStart>> = probes.iter().map(|sig| plain.peek(sig)).collect();
    assert!(
        reference.iter().any(|w| matches!(w, Some(w) if w.exact))
            && reference.iter().any(|w| matches!(w, Some(w) if !w.exact)),
        "probe set must exercise both exact and nearby-load hits"
    );

    for shards in [1usize, 4, 16] {
        let store = ShardedStore::in_memory(ShardPolicy::with_shards(shards));
        for (sig, p, o, score) in &samples {
            store.append(sig, p, o, *score).unwrap();
        }
        let got: Vec<Option<WarmStart>> = probes.iter().map(|sig| store.warm_start(sig)).collect();
        assert_eq!(got, reference, "{shards}-shard warm starts diverged from the plain store");
        assert_eq!(store.record_count(), plain.record_count(), "{shards}-shard record count");
        assert_eq!(store.mix_count(), plain.mix_count(), "{shards}-shard mix count");
        let stats = store.stats();
        assert_eq!(stats.appends, plain.stats().appends, "{shards}-shard appends");
        assert_eq!(stats.evictions, plain.stats().evictions, "{shards}-shard evictions");
    }
}

#[test]
fn shard_routing_ignores_load() {
    // All load points of one mix must share a shard, or nearby-load reuse
    // would silently stop working for some shard counts.
    let catalog = ResourceCatalog::testbed();
    let store = ShardedStore::in_memory(ShardPolicy::with_shards(16));
    let at = |load: f64| {
        let server = Server::new(catalog, specs(2, load), 3).unwrap();
        store.shard_for(&MixSignature::capture(&server))
    };
    let home = at(0.1);
    for step in 2..=9u32 {
        assert_eq!(at(f64::from(step) * 0.1), home, "load changed the shard route");
    }
}

#[test]
fn multiple_shards_are_actually_populated() {
    // Guard for the invariance test itself: if every mix hashed to one
    // shard, shard-count invariance would be vacuous.
    let store = ShardedStore::in_memory(ShardPolicy::with_shards(4));
    let samples = corpus(42);
    let mut used = std::collections::HashSet::new();
    for (sig, ..) in &samples {
        used.insert(store.shard_for(sig));
    }
    assert!(used.len() >= 2, "corpus must spread across shards, got {used:?}");
}

/// Appends `n` rising-score samples of one 2-job mix through the sharded
/// store: dedupe retains only the best per partition, so the log gathers
/// garbage while the index stays small.
fn append_rising(store: &ShardedStore, n: u32) -> MixSignature {
    let catalog = ResourceCatalog::testbed();
    let mut server = Server::new(catalog, specs(2, 0.5), 7).unwrap();
    let signature = MixSignature::capture(&server);
    let partition = Partition::equal_share(&catalog, 2).unwrap();
    let observation = server.observe(&partition);
    for k in 0..n {
        store.append(&signature, &partition, &observation, 0.01 * f64::from(k)).unwrap();
    }
    signature
}

/// Opens the sharded store at `path` without telemetry.
fn open(
    path: &std::path::Path,
    policy: ShardPolicy,
) -> clite_store::StoreResult<Arc<ShardedStore>> {
    ShardedStore::open(path, policy, &Telemetry::disabled())
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("clite-shard-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn killed_compaction_keeps_the_original_log_intact() {
    let dir = temp_dir("crash");
    let path = dir.join("obs.log");
    let policy = ShardPolicy::with_shards(2);

    let (signature, reference) = {
        let store = open(&path, policy).unwrap();
        let signature = append_rising(&store, 12);
        (signature.clone(), store.warm_start(&signature))
    };
    assert!(reference.is_some(), "seeded store must hit");

    // Simulate a compaction killed between the tmp write and the rename:
    // the rewrite target `<shardfile>.tmp` exists (here: torn partial
    // garbage), the real log was never touched.
    let shard_file = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".shard0");
        std::path::PathBuf::from(os)
    };
    let tmp_file = {
        let mut os = shard_file.as_os_str().to_os_string();
        os.push(".tmp");
        std::path::PathBuf::from(os)
    };
    // At least one shard file must exist (single mix → single shard used).
    let live_shard = if shard_file.exists() {
        shard_file
    } else {
        let mut os = path.as_os_str().to_os_string();
        os.push(".shard1");
        std::path::PathBuf::from(os)
    };
    let original = std::fs::read(&live_shard).unwrap();
    std::fs::write(&tmp_file, b"CLITEOBS\x01\x00torn-partial-compaction").unwrap();

    // Reopen after the "crash": every record of the original log is the
    // longest valid prefix; the stale tmp is inert.
    let store = open(&path, policy).unwrap();
    assert_eq!(store.warm_start(&signature), reference, "crash lost committed records");
    let stats = store.stats();
    assert_eq!(stats.dropped_bytes, 0, "original logs must be fully valid");
    assert_eq!(std::fs::read(&live_shard).unwrap(), original, "reopen must not rewrite the log");

    // A real compaction now shrinks the log to the retained records and
    // replaces the stale tmp as a side effect of the tmp+rename cycle.
    store.compact_all().unwrap();
    assert_eq!(store.stats().compactions, 2, "compact_all touches every shard");
    drop(store);
    let reopened = open(&path, policy).unwrap();
    assert_eq!(reopened.warm_start(&signature), reference, "compaction changed lookup results");
    assert_eq!(
        reopened.stats().recovered_records as usize,
        reopened.record_count(),
        "compacted log holds exactly the retained records"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_shard_tail_recovers_longest_valid_prefix() {
    let dir = temp_dir("torn");
    let path = dir.join("obs.log");
    let policy = ShardPolicy {
        shards: 2,
        // Keep everything: each append is a distinct retained record.
        store: StorePolicy { entries_per_mix: 64, ..StorePolicy::default() },
    };

    let catalog = ResourceCatalog::testbed();
    let mut rng = StdRng::seed_from_u64(9);
    let signature = {
        let store = open(&path, policy).unwrap();
        let mut server = Server::new(catalog, specs(2, 0.4), 9).unwrap();
        let signature = MixSignature::capture(&server);
        for k in 0..6 {
            let partition = Partition::random(&catalog, 2, &mut rng).unwrap();
            let observation = server.observe(&partition);
            store.append(&signature, &partition, &observation, 0.1 * f64::from(k)).unwrap();
        }
        signature
    };

    // Tear the populated shard's tail mid-frame.
    let shard_files: Vec<std::path::PathBuf> = (0..2)
        .map(|i| {
            let mut os = path.as_os_str().to_os_string();
            os.push(format!(".shard{i}"));
            std::path::PathBuf::from(os)
        })
        .collect();
    let live = shard_files
        .iter()
        .max_by_key(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .unwrap();
    let bytes = std::fs::read(live).unwrap();
    std::fs::write(live, &bytes[..bytes.len() - 7]).unwrap();

    let store = open(&path, policy).unwrap();
    let stats = store.stats();
    assert!(stats.dropped_bytes > 0, "torn tail must be detected");
    assert_eq!(stats.recovered_records, 5, "longest valid prefix is all but the torn frame");
    let warm = store.warm_start(&signature).expect("prefix records still hit");
    assert_eq!(warm.entries.len(), 5);

    std::fs::remove_dir_all(&dir).ok();
}

/// Shard `i`'s file under `path`.
fn shard_file(path: &std::path::Path, i: usize) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".shard{i}"));
    std::path::PathBuf::from(os)
}

#[test]
fn garbage_threshold_compacts_at_the_crossing_append() {
    let dir = temp_dir("gc");
    let path = dir.join("obs.log");
    let policy = ShardPolicy::with_shards(2);

    // One retained record, so every append past the second leaves the
    // log over half garbage: only the frame floor holds compaction back.
    let store = open(&path, policy).unwrap();
    let below = u32::try_from(COMPACTION_MIN_LOG_RECORDS).unwrap() - 1;
    let signature = append_rising(&store, below);
    assert_eq!(store.stats().compactions, 0, "a log below the frame floor never compacts");
    append_rising(&store, 1);
    assert_eq!(store.stats().compactions, 1, "the append that crosses the threshold compacts");
    drop(store);

    // The compacted shard reopens with just the retained record.
    let store = open(&path, policy).unwrap();
    assert_eq!(store.stats().recovered_records, 1);
    assert!(store.warm_start(&signature).is_some());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inline_compaction_is_exact_and_deterministic() {
    let dir = temp_dir("inline");
    let policy = ShardPolicy::with_shards(2);
    let floor = COMPACTION_MIN_LOG_RECORDS;
    // Compactions land at append 128 (log 128 → 1 frame) and at append
    // 128 + 127 (log back at 128 → 1), leaving 300 − 255 + 1 frames.
    let appends = 300u32;
    let paths = [dir.join("a.log"), dir.join("b.log")];
    for path in &paths {
        let store = open(path, policy).unwrap();
        let signature = append_rising(&store, appends);
        assert_eq!(store.stats().compactions, 2, "one compaction per crossing");
        let warm = store.warm_start(&signature).expect("compacted shard still hits");
        assert_eq!(warm.entries[0].score, 0.01 * f64::from(appends - 1), "best score survives");
    }
    let frames = u64::from(appends) - (2 * floor - 1) + 1;

    let reopened = open(&paths[0], policy).unwrap();
    assert_eq!(reopened.stats().recovered_records, frames, "exact frames after the last rewrite");
    assert_eq!(reopened.record_count(), 1, "dedupe retains the single best sample");
    drop(reopened);

    // The same appends write the same bytes: compaction is part of the
    // append, not a timing-dependent side job.
    for i in 0..policy.shards {
        assert_eq!(
            std::fs::read(shard_file(&paths[0], i)).unwrap(),
            std::fs::read(shard_file(&paths[1], i)).unwrap(),
            "shard {i} files differ"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reopening_with_a_different_shard_count_is_refused() {
    let dir = temp_dir("count");
    let path = dir.join("obs.log");
    let samples = corpus(42);
    {
        let store = open(&path, ShardPolicy::with_shards(8)).unwrap();
        for (sig, p, o, score) in &samples {
            store.append(sig, p, o, *score).unwrap();
        }
    }
    let listing = || {
        let mut names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        names.sort();
        names
    };
    let before = listing();

    for shards in [4usize, 16] {
        let err = open(&path, ShardPolicy::with_shards(shards)).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("8 shards") && message.contains(&format!("{shards} were requested")),
            "{message}"
        );
        assert_eq!(listing(), before, "a refused open must create no file");
    }

    // The original count still opens, and every mix still hits.
    let store = open(&path, ShardPolicy::with_shards(8)).unwrap();
    assert_eq!(store.stats().recovered_records, samples.len() as u64);
    for (sig, ..) in &samples {
        assert!(store.warm_start(sig).is_some(), "a stored mix must hit at its own shard count");
    }

    std::fs::remove_dir_all(&dir).ok();
}
