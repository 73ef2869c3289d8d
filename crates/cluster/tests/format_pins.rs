//! On-disk byte pins: the four framed files — the observation log, the
//! fleet journal, the fleet checkpoint and the placement model — must
//! keep exactly the bytes they had when these constants were recorded.
//! A codec or framing refactor that changes any byte on disk fails here,
//! even if it still round-trips its own output.
//!
//! Each file has two pins. The `*_V2` pin is the file as written, with
//! xxHash64 frames. The unsuffixed pin is the same file re-framed as v1
//! (every frame rewritten with the `"CSBO"` magic and FNV-1a by
//! [`reframe_v1`]); it was recorded before frames moved to xxHash64, so
//! matching it proves the headers and payloads did not change. The v1
//! re-framings are then read back through today's code and must give the
//! same state as the files as written.
//!
//! To regenerate the constants (only for a deliberate format change): run
//! `cargo test -p clite-cluster --test format_pins -- --nocapture` and
//! copy the printed `(len, fnv)` pairs. A payload or header change moves
//! both pins of a file and should bump that file's version; a frame
//! change moves only the `*_V2` pins. The v1 pins change only with a
//! payload or header change.

use std::path::{Path, PathBuf};

use clite_cluster::event::TimedEvent;
use clite_cluster::fleet::{FleetConfig, FleetRun};
use clite_cluster::recovery::{DurableConfig, DurableFleet, DurableOutcome};
use clite_cluster::trace::{generate, TraceConfig};
use clite_cluster::wire::encode_checkpoint;
use clite_learn::features::{FEATURE_DIM, FEATURE_VERSION};
use clite_learn::RankingModel;
use clite_sim::prelude::*;
use clite_sim::testbed::{ServerFactory, Testbed};
use clite_store::codec::encode_record;
use clite_store::log::{fnv1a64, read_frame, xxh64, LogFile, HEADER_LEN, REC_MAGIC_V1};
use clite_store::{MixSignature, StoreRecord};
use clite_telemetry::Telemetry;

const FLEET_CKPT: (usize, u64) = (11_808, 0x7304_4b7a_d3f0_ef23);
const FLEET_JOURNAL: (usize, u64) = (1_623, 0xe84e_2ba5_55af_46c9);
const MODEL_FILE: (usize, u64) = (164, 0xceef_0f12_a9b0_5224);
const STORE_LOG: (usize, u64) = (1_380, 0xb7ea_91bd_02cd_b754);
const STORE_LOG_COMPACTED: (usize, u64) = (704, 0x1ae4_d9d3_c8ec_d436);

const FLEET_CKPT_V2: (usize, u64) = (11_808, 0x0b55_f627_bda6_e8c2);
const FLEET_JOURNAL_V2: (usize, u64) = (1_623, 0xe53a_c604_c411_7f24);
const MODEL_FILE_V2: (usize, u64) = (164, 0x2c02_4695_3a9a_bb5a);
const STORE_LOG_V2: (usize, u64) = (1_380, 0x0384_9c83_7d4e_b57e);
const STORE_LOG_COMPACTED_V2: (usize, u64) = (704, 0x70d7_47a2_45a0_1bb2);

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clite-format-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The framed file image `bytes` with every frame rewritten as a v1
/// frame: the `"CSBO"` magic, the same length and an FNV-1a checksum.
/// The header and payloads are copied as they are.
fn reframe_v1(bytes: &[u8]) -> Vec<u8> {
    let (head, mut rest) = bytes.split_at(HEADER_LEN as usize);
    let mut out = head.to_vec();
    while !rest.is_empty() {
        let (payload, len) = read_frame(rest).expect("every frame as written is intact");
        out.extend_from_slice(&REC_MAGIC_V1.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        out.extend_from_slice(payload);
        rest = &rest[len..];
    }
    out
}

/// `(length, fnv1a64)` of `bytes`, printed under `label` for regeneration.
fn digest(label: &str, bytes: &[u8]) -> (usize, u64) {
    let got = (bytes.len(), fnv1a64(bytes));
    println!("{label}: ({}, {:#018x})", got.0, got.1);
    got
}

/// Pins the file at `path` — `(v1 re-framing, as written)` — and writes
/// its v1 re-framing to `v1_path`.
fn pin(path: &Path, v1_path: &Path) -> ((usize, u64), (usize, u64)) {
    let bytes = std::fs::read(path).expect("pinned file exists");
    let v1 = reframe_v1(&bytes);
    std::fs::write(v1_path, &v1).expect("v1 re-framing written");
    (digest(&format!("{} (v1)", path.display()), &v1), digest(&path.display().to_string(), &bytes))
}

/// A durable fleet of `nodes` run over an `events`-long trace with a
/// checkpoint every 7 events; the pinned one is 32 nodes and 30 events.
fn durable_fleet(dir: &Path, nodes: usize, events: usize) -> (Vec<TimedEvent>, FleetRun) {
    let trace = generate(
        &TraceConfig {
            events,
            arrival_weight: 6,
            departure_weight: 2,
            load_shift_weight: 2,
            onboard_every: Some(6),
            onboard_nodes: 4,
        },
        42,
    );
    let mut fleet = DurableFleet::create(
        nodes,
        FleetConfig::mean_field(4, 3),
        42,
        ServerFactory,
        dir,
        DurableConfig { checkpoint_every: 7 },
    )
    .expect("create");
    let DurableOutcome::Completed(run) =
        fleet.run(&trace, None, &Telemetry::disabled()).expect("run")
    else {
        panic!("no crash plan, so the run completes");
    };
    (trace, run)
}

#[test]
fn durable_fleet_journal_and_checkpoint_bytes_are_pinned() {
    let dir = tempdir("fleet");
    let v1_dir = tempdir("fleet-v1");
    let (trace, run) = durable_fleet(&dir, 32, 30);
    let (ckpt_v1, ckpt) = pin(&dir.join("fleet.ckpt"), &v1_dir.join("fleet.ckpt"));
    let (journal_v1, journal) = pin(&dir.join("fleet.journal"), &v1_dir.join("fleet.journal"));
    assert_eq!(ckpt_v1, FLEET_CKPT, "checkpoint payload bytes changed");
    assert_eq!(journal_v1, FLEET_JOURNAL, "journal payload bytes changed");
    assert_eq!(ckpt, FLEET_CKPT_V2, "checkpoint bytes changed");
    assert_eq!(journal, FLEET_JOURNAL_V2, "journal bytes changed");

    // The v1 files recover to the same state as the files as written:
    // the same checkpoint (so it read as valid), the same replay, and
    // the same fleet.
    let recover = |dir: &Path| {
        let mut fleet = DurableFleet::recover(
            32,
            FleetConfig::mean_field(4, 3),
            42,
            ServerFactory,
            dir,
            DurableConfig { checkpoint_every: 7 },
            None,
            &Telemetry::disabled(),
        )
        .expect("recover");
        let info = fleet.recovery_info().expect("recovered");
        let outcome = fleet.run(&trace, None, &Telemetry::disabled()).expect("nothing left to run");
        let DurableOutcome::Completed(run) = outcome else { panic!("no crash plan") };
        let state =
            encode_checkpoint(&fleet.service().checkpoint(fleet.applied(), &run.placements));
        (info, run, state)
    };
    let (info, from_v2, state) = recover(&dir);
    assert_eq!((info.checkpoint_seqno, info.replayed, info.journal_damaged), (28, 2, false));
    assert_eq!(from_v2, run);
    assert_eq!(recover(&v1_dir), (info, from_v2, state), "v1 files recover to the same state");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&v1_dir);
}

#[test]
fn every_bit_flip_of_a_checkpoint_payload_changes_its_checksum() {
    // A small fleet: the test hashes the whole payload once per bit.
    let dir = tempdir("flip");
    durable_fleet(&dir, 4, 8);
    let bytes = std::fs::read(dir.join("fleet.ckpt")).expect("checkpoint written");
    let (payload, _) = read_frame(&bytes[HEADER_LEN as usize..]).expect("intact frame");
    let sum = xxh64(payload);
    let mut flipped = payload.to_vec();
    for bit in 0..8 * flipped.len() {
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(xxh64(&flipped), sum, "flip of bit {bit} of {} bytes", payload.len());
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
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
    let v1_path = dir.join("placement.model.v1");
    clite_learn::save(&path, &model).expect("save");
    let (v1, v2) = pin(&path, &v1_path);
    assert_eq!(v1, MODEL_FILE, "model payload bytes changed");
    assert_eq!(v2, MODEL_FILE_V2, "model file bytes changed");
    assert_eq!(clite_learn::load(&v1_path).expect("v1 model loads"), model);
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
    let observation = server.observe(&partition);
    let signature = MixSignature::capture(&server);
    StoreRecord { signature, partition, observation, score: 0.125 * seed as f64 }
}

#[test]
fn store_log_bytes_are_pinned() {
    let dir = tempdir("store");
    let path = dir.join("obs.log");
    let v1_path = dir.join("obs.log.v1");
    let payloads: Vec<Vec<u8>> =
        (1..=4).map(|s| encode_record(&record(s, 1 + s as usize % 3))).collect();
    {
        let (mut log, recovery) = LogFile::open(&path).expect("open");
        assert!(recovery.payloads.is_empty());
        for p in &payloads {
            log.append(p).expect("append");
        }
    }
    let reads_back = |path: &Path, want: &[Vec<u8>]| {
        let (_, recovery) = LogFile::open(path).expect("reopen");
        assert_eq!(recovery.payloads, want, "{}", path.display());
        assert_eq!(recovery.dropped_bytes, 0, "{}", path.display());
    };
    let (v1, v2) = pin(&path, &v1_path);
    assert_eq!(v1, STORE_LOG, "store log payload bytes changed");
    assert_eq!(v2, STORE_LOG_V2, "store log bytes changed");
    reads_back(&v1_path, &payloads);
    drop(LogFile::rewrite(&path, &payloads[1..3]).expect("compact"));
    let (v1, v2) = pin(&path, &v1_path);
    assert_eq!(v1, STORE_LOG_COMPACTED, "compacted store log payload bytes changed");
    assert_eq!(v2, STORE_LOG_COMPACTED_V2, "compacted store log bytes changed");
    reads_back(&v1_path, &payloads[1..3]);
    let _ = std::fs::remove_dir_all(&dir);
}
