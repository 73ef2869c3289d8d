//! Property tests for the fleet wire codecs: `decode_checkpoint` (at
//! either payload version) and `decode_journal_entry` are total over
//! arbitrary bytes, reject every
//! truncation of a real encoding, and are canonical — whenever mutated
//! bytes still decode, re-encoding the result gives back exactly those
//! bytes, so no two byte strings decode to the same state.

use std::sync::OnceLock;

use proptest::prelude::*;

use clite_cluster::event::{FleetEvent, TimedEvent};
use clite_cluster::fleet::{FleetConfig, FleetService};
use clite_cluster::trace::{generate, TraceConfig};
use clite_cluster::wire::{
    decode_checkpoint, decode_journal_entry, encode_checkpoint, encode_journal_entry, CKPT_VERSION,
};
use clite_sim::load::LoadSchedule;
use clite_sim::server::JobSpec;
use clite_sim::workload::WorkloadId;
use clite_telemetry::Telemetry;

/// A real checkpoint: a small fleet after a mixed trace, with committed
/// search outcomes on its nodes.
fn checkpoint() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let trace = generate(
            &TraceConfig {
                events: 8,
                arrival_weight: 6,
                departure_weight: 2,
                load_shift_weight: 2,
                onboard_every: Some(4),
                onboard_nodes: 1,
            },
            7,
        );
        let mut service = FleetService::new(3, FleetConfig::mean_field(4, 3), 7).expect("fleet");
        let run = service.run(&trace, &Telemetry::disabled()).expect("run");
        let ckpt = service.checkpoint(trace.len() as u64, &run.placements);
        assert!(ckpt.scheduler.nodes.iter().any(|n| n.last_outcome.is_some()), "outcomes held");
        encode_checkpoint(&ckpt)
    })
}

/// Real journal entries: a generated trace plus every load-schedule
/// shape and a profile override, under both dispositions.
fn journal_entries() -> &'static [Vec<u8>] {
    static ENTRIES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        let config = TraceConfig {
            events: 12,
            arrival_weight: 4,
            departure_weight: 2,
            load_shift_weight: 2,
            onboard_every: Some(5),
            onboard_nodes: 2,
        };
        let mut events = generate(&config, 11);
        let mut custom = JobSpec::latency_critical(WorkloadId::ImgDnn, 0.5);
        custom.profile_override = Some(WorkloadId::ImgDnn.profile());
        let loads = [
            LoadSchedule::Constant(0.3),
            LoadSchedule::Steps(vec![(0.0, 0.1), (5.0, 0.5)]),
            LoadSchedule::Ramp { from: 0.1, to: 0.6, duration_s: 30.0 },
            LoadSchedule::Diurnal { base: 0.4, amplitude: 0.2, period_s: 60.0 },
            LoadSchedule::Trace(vec![(0.0, 0.2), (1.0, 0.4), (2.0, 0.3)]),
        ];
        events.push(TimedEvent::new(20, FleetEvent::Arrival { spec: custom }));
        for (i, load) in loads.into_iter().enumerate() {
            events.push(TimedEvent::new(21 + i as u64, FleetEvent::LoadShift { job: 2, load }));
        }
        events
            .iter()
            .enumerate()
            .map(|(i, e)| encode_journal_entry(i % 3 == 0, i as u64 % 5, e))
            .collect()
    })
}

fn checkpoint_is_canonical(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(c) = decode_checkpoint(bytes, CKPT_VERSION) {
        prop_assert!(encode_checkpoint(&c) == bytes, "decoded checkpoint re-encodes differently");
    }
    Ok(())
}

fn entry_is_canonical(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(e) = decode_journal_entry(bytes) {
        let again = encode_journal_entry(e.shed, e.backlog, &e.event);
        prop_assert!(again == bytes, "decoded journal entry re-encodes differently");
    }
    Ok(())
}

#[test]
fn fixtures_round_trip() {
    let c = decode_checkpoint(checkpoint(), CKPT_VERSION).expect("own checkpoint decodes");
    assert_eq!(encode_checkpoint(&c), checkpoint());
    for bytes in journal_entries() {
        let e = decode_journal_entry(bytes).expect("own entry decodes");
        assert_eq!(&encode_journal_entry(e.shed, e.backlog, &e.event), bytes);
    }
}

#[test]
fn every_truncation_is_rejected() {
    let bytes = checkpoint();
    for cut in 0..bytes.len() {
        assert!(
            decode_checkpoint(&bytes[..cut], CKPT_VERSION).is_err(),
            "checkpoint cut at {cut} decoded"
        );
    }
    for bytes in journal_entries() {
        for cut in 0..bytes.len() {
            assert!(decode_journal_entry(&bytes[..cut]).is_err(), "entry cut at {cut} decoded");
        }
    }
}

/// Every single-byte flip of every fixture (low bit, high bit, whole
/// byte) either fails to decode or decodes canonically.
#[test]
fn every_single_byte_flip_is_rejected_or_canonical() {
    for mask in [0x01u8, 0x80, 0xFF] {
        let mut bytes = checkpoint().to_vec();
        for at in 0..bytes.len() {
            bytes[at] ^= mask;
            checkpoint_is_canonical(&bytes)
                .unwrap_or_else(|e| panic!("flip {mask:#x} at {at}: {e}"));
            bytes[at] ^= mask;
        }
        for entry in journal_entries() {
            let mut bytes = entry.clone();
            for at in 0..bytes.len() {
                bytes[at] ^= mask;
                entry_is_canonical(&bytes)
                    .unwrap_or_else(|e| panic!("flip {mask:#x} at {at}: {e}"));
                bytes[at] ^= mask;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic either decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = decode_checkpoint(&bytes, CKPT_VERSION);
        let _ = decode_checkpoint(&bytes, 1);
        let _ = decode_journal_entry(&bytes);
    }

    /// Arbitrary bytes spliced onto a real prefix (so decoding gets deep
    /// before it meets garbage) never panic either.
    #[test]
    fn garbage_after_a_real_prefix_never_panics(
        cut: usize,
        pick: usize,
        tail in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let ckpt = checkpoint();
        let mut bytes = ckpt[..cut % ckpt.len()].to_vec();
        bytes.extend_from_slice(&tail);
        let _ = decode_checkpoint(&bytes, CKPT_VERSION);
        let _ = decode_checkpoint(&bytes, 1);
        let entry = &journal_entries()[pick % journal_entries().len()];
        let mut bytes = entry[..cut % entry.len()].to_vec();
        bytes.extend_from_slice(&tail);
        let _ = decode_journal_entry(&bytes);
    }

    /// Several random byte overwrites at once: whatever still decodes
    /// re-encodes to exactly the mutated bytes.
    #[test]
    fn mutated_bytes_decode_canonically_or_not_at_all(
        pick: usize,
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..5),
    ) {
        let mut bytes = checkpoint().to_vec();
        for &(at, v) in &edits {
            let len = bytes.len();
            bytes[at % len] = v;
        }
        checkpoint_is_canonical(&bytes)?;
        let mut bytes = journal_entries()[pick % journal_entries().len()].clone();
        for &(at, v) in &edits {
            let len = bytes.len();
            bytes[at % len] = v;
        }
        entry_is_canonical(&bytes)?;
    }
}
