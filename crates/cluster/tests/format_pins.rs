//! On-disk byte pins: the four framed files — the observation log, the
//! fleet journal, the fleet checkpoint and the placement model — must
//! keep exactly the bytes they had when these constants were recorded.
//! A codec or framing refactor that changes any byte on disk fails here,
//! even if it still round-trips its own output.
//!
//! To regenerate the constants (only for a deliberate format change that
//! also bumps a version): run `cargo test -p clite-cluster --test
//! format_pins -- --nocapture` and copy the printed `(len, fnv)` pairs.

use std::path::{Path, PathBuf};

use clite_cluster::fleet::FleetConfig;
use clite_cluster::recovery::{DurableConfig, DurableFleet, DurableOutcome};
use clite_cluster::trace::{generate, TraceConfig};
use clite_learn::features::{FEATURE_DIM, FEATURE_VERSION};
use clite_learn::RankingModel;
use clite_sim::prelude::*;
use clite_sim::testbed::{ServerFactory, Testbed};
use clite_store::codec::encode_record;
use clite_store::log::{fnv1a64, LogFile};
use clite_store::{MixSignature, StoreRecord};
use clite_telemetry::Telemetry;

const FLEET_CKPT: (usize, u64) = (11_808, 0x7304_4b7a_d3f0_ef23);
const FLEET_JOURNAL: (usize, u64) = (1_623, 0xe84e_2ba5_55af_46c9);
const MODEL_FILE: (usize, u64) = (164, 0xceef_0f12_a9b0_5224);
const STORE_LOG: (usize, u64) = (1_380, 0xb7ea_91bd_02cd_b754);
const STORE_LOG_COMPACTED: (usize, u64) = (704, 0x1ae4_d9d3_c8ec_d436);

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clite-format-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// `(length, fnv1a64)` of the file at `path`, printed for regeneration.
fn pin(path: &Path) -> (usize, u64) {
    let bytes = std::fs::read(path).expect("pinned file exists");
    let got = (bytes.len(), fnv1a64(&bytes));
    println!("{}: ({}, {:#018x})", path.display(), got.0, got.1);
    got
}

#[test]
fn durable_fleet_journal_and_checkpoint_bytes_are_pinned() {
    let trace = generate(
        &TraceConfig {
            events: 30,
            arrival_weight: 6,
            departure_weight: 2,
            load_shift_weight: 2,
            onboard_every: Some(6),
            onboard_nodes: 4,
        },
        42,
    );
    let dir = tempdir("fleet");
    let mut fleet = DurableFleet::create(
        32,
        FleetConfig::mean_field(4, 3),
        42,
        ServerFactory,
        &dir,
        DurableConfig { checkpoint_every: 7 },
    )
    .expect("create");
    let outcome = fleet.run(&trace, None, &Telemetry::disabled()).expect("run");
    assert!(matches!(outcome, DurableOutcome::Completed(_)));
    drop(fleet);
    assert_eq!(pin(&dir.join("fleet.ckpt")), FLEET_CKPT, "checkpoint bytes changed");
    assert_eq!(pin(&dir.join("fleet.journal")), FLEET_JOURNAL, "journal bytes changed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn model_file_bytes_are_pinned() {
    let model = RankingModel {
        feature_version: FEATURE_VERSION,
        weights: (0..FEATURE_DIM).map(|i| i as f64 * 0.37 - 1.0).collect(),
        epochs: 9,
        train_loss: 0.25,
    };
    let dir = tempdir("model");
    let path = dir.join("placement.model");
    clite_learn::save(&path, &model).expect("save");
    assert_eq!(pin(&path), MODEL_FILE, "model file bytes changed");
    let _ = std::fs::remove_dir_all(&dir);
}

fn record(seed: u64, jobs: usize) -> StoreRecord {
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|i| {
            if i % 2 == 0 {
                JobSpec::latency_critical(WorkloadId::LATENCY_CRITICAL[i % 5], 0.3)
            } else {
                JobSpec::background(WorkloadId::BACKGROUND[i % 6])
            }
        })
        .collect();
    let mut server = Server::new(ResourceCatalog::testbed(), specs, seed).expect("server");
    let partition = Partition::equal_share(Testbed::catalog(&server), jobs).expect("partition");
    let observation = Testbed::observe(&mut server, &partition);
    let signature = MixSignature::capture(&server);
    StoreRecord { signature, partition, observation, score: 0.125 * seed as f64 }
}

#[test]
fn store_log_bytes_are_pinned() {
    let dir = tempdir("store");
    let path = dir.join("obs.log");
    let payloads: Vec<Vec<u8>> =
        (1..=4).map(|s| encode_record(&record(s, 1 + s as usize % 3))).collect();
    {
        let (mut log, recovery) = LogFile::open(&path).expect("open");
        assert!(recovery.payloads.is_empty());
        for p in &payloads {
            log.append(p).expect("append");
        }
    }
    assert_eq!(pin(&path), STORE_LOG, "store log bytes changed");
    drop(LogFile::rewrite(&path, &payloads[1..3]).expect("compact"));
    assert_eq!(pin(&path), STORE_LOG_COMPACTED, "compacted store log bytes changed");
    let _ = std::fs::remove_dir_all(&dir);
}
