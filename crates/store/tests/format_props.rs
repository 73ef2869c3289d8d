//! Property tests for the store record format: encode/decode round-trips
//! for arbitrary observations, and corruption recovery — the log is
//! truncated at every byte offset and hit with random bit flips, and
//! reopening must recover the valid prefix without ever panicking.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use clite_sim::prelude::*;
use clite_store::codec::{decode_record, encode_record};
use clite_store::log;
use clite_store::{MixSignature, ObservationStore, StorePolicy, StoreRecord};
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

/// A record with a genuinely arbitrary observation: random mix size, load,
/// catalog, partition, and seed-driven simulator noise.
fn arb_record(seed: u64, jobs: usize, load: f64) -> StoreRecord {
    let catalog = ResourceCatalog::testbed();
    let mut server = Server::new(catalog, specs(jobs, load), seed).unwrap();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
    let partition = Partition::random(&catalog, jobs, &mut rng).unwrap();
    let observation = server.observe(&partition);
    let signature = MixSignature::capture(&server);
    let score = rng.gen_range(-1.0..1.0);
    StoreRecord { signature, partition, observation, score }
}

fn log_image(records: &[StoreRecord]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(log::FILE_MAGIC);
    bytes.extend_from_slice(&log::FORMAT_VERSION.to_le_bytes());
    for r in records {
        log::put_frame(&mut bytes, &encode_record(r)).unwrap();
    }
    bytes
}

/// Opens the log at `path` with the default policy and no telemetry.
fn open(path: &std::path::Path) -> clite_store::StoreResult<ObservationStore> {
    ObservationStore::open(path, StorePolicy::default(), &Telemetry::disabled())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary observations survive the codec byte-exactly.
    #[test]
    fn encode_decode_round_trips(seed: u64, jobs in 1usize..=5, load in 0.05f64..1.0) {
        let record = arb_record(seed, jobs, load);
        let payload = encode_record(&record);
        let back = decode_record(&payload).expect("own encoding must decode");
        prop_assert_eq!(back, record);
    }

    /// Truncating the log at EVERY byte offset, the scan recovers exactly
    /// the records whose frames fit in the prefix — and never panics.
    #[test]
    fn truncation_at_every_offset_recovers_valid_prefix(seed: u64, jobs in 1usize..=3) {
        let records: Vec<StoreRecord> =
            (0..3).map(|k| arb_record(seed.wrapping_add(k), jobs, 0.4)).collect();
        let img = log_image(&records);

        // Frame boundaries: prefix lengths at which exactly k records fit.
        let mut boundaries = vec![log::HEADER_LEN as usize];
        for k in 1..=records.len() {
            boundaries.push(log_image(&records[..k]).len());
        }

        for cut in 0..img.len() {
            let rec = log::scan(&img[..cut]);
            let expect = boundaries.iter().filter(|&&b| b <= cut).count().saturating_sub(1);
            if cut < log::HEADER_LEN as usize {
                prop_assert!(rec.header_rewritten, "cut {} inside header", cut);
            } else {
                prop_assert_eq!(rec.payloads.len(), expect, "cut at {}", cut);
                prop_assert_eq!(rec.valid_len as usize, boundaries[expect]);
                for (p, r) in rec.payloads.iter().zip(&records) {
                    prop_assert_eq!(&decode_record(p).unwrap(), r);
                }
            }
        }
    }

    /// Random bit flips anywhere in the file: reopening through the real
    /// filesystem path recovers a prefix of the original records — intact,
    /// in order, and without panicking — and the truncated file accepts
    /// further appends.
    #[test]
    fn bit_flips_recover_cleanly(seed: u64, jobs in 1usize..=3, flips in 1usize..=4) {
        let records: Vec<StoreRecord> =
            (0..3).map(|k| arb_record(seed.wrapping_add(k), jobs, 0.4)).collect();
        let mut img = log_image(&records);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF11B);
        for _ in 0..flips {
            let at = rng.gen_range(0..img.len());
            let bit = rng.gen_range(0..8u32);
            img[at] ^= 1 << bit;
        }

        let dir = std::env::temp_dir()
            .join(format!("clite-store-props-{}-{seed:x}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flipped.log");
        std::fs::write(&path, &img).unwrap();

        let store = open(&path).expect("open never fails on corruption");
        let recovered = store.stats().recovered_records as usize;
        prop_assert!(recovered <= records.len());
        drop(store);

        // The recovered file must itself be a clean log: reopen sees the
        // same records and no further dropped bytes.
        let store2 = open(&path).unwrap();
        prop_assert_eq!(store2.stats().recovered_records as usize, recovered);
        prop_assert_eq!(store2.stats().dropped_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Deterministic (non-property) exhaustive truncation through the real
/// `ObservationStore::open` path: every prefix of a three-record log file
/// opens without panicking and yields a decodable prefix of the records.
#[test]
fn open_survives_truncation_at_every_offset() {
    let records: Vec<StoreRecord> = (0..3).map(|k| arb_record(90 + k, 2, 0.5)).collect();
    let img = log_image(&records);
    let dir = std::env::temp_dir().join(format!("clite-store-trunc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("prefix.log");

    for cut in 0..=img.len() {
        std::fs::write(&path, &img[..cut]).unwrap();
        let store = open(&path).unwrap();
        let n = store.stats().recovered_records as usize;
        assert!(n <= records.len(), "cut at {cut}");
        if cut == img.len() {
            assert_eq!(n, records.len());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
