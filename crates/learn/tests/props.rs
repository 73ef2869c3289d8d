//! Property tests pinning the serving-side contracts the fleet trusts:
//!
//! 1. **Feature extraction is deterministic and total** — any input
//!    snapshot (including NaN/inf smuggled into every float field) maps to
//!    the same finite `[0, 1]` vector every time.
//! 2. **Score ordering is permutation-invariant** — shuffling the order
//!    candidates are presented in never changes which candidate ranks
//!    where, because scoring is a pure per-candidate function.
//! 3. **Codec round-trip** — any finite model survives
//!    encode → decode bit-exactly, and any single-byte corruption of the
//!    payload region is detected.

use proptest::prelude::*;

use clite_learn::{decode, encode, extract, Headroom, RankingModel};
use clite_learn::{FleetInput, JobInput, NodeInput, FEATURE_DIM, FEATURE_VERSION};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn extraction_is_total_and_normalized(
        lc: bool,
        qos_met: bool,
        jobs in 0usize..32,
        lc_jobs in 0usize..32,
        mean_pct in 0u32..200,
        max_pct in 0u32..200,
        alive in 0usize..512,
        // Raw f64 bit patterns: hits NaN, ±inf, subnormals, and ordinary
        // values alike. [0]=job load, [1]=qos target, [2]=lc_load,
        // [3]=bg_perf, [4]=headroom mean, [5]=headroom sigma,
        // [6]=fleet mean load, [7]=admission rate.
        bits in prop::collection::vec(any::<u64>(), 8usize),
    ) {
        let j = JobInput {
            latency_critical: lc,
            load: f64::from_bits(bits[0]),
            qos_target_us: f64::from_bits(bits[1]),
        };
        let n = NodeInput {
            jobs,
            lc_jobs,
            lc_load: f64::from_bits(bits[2]),
            bg_perf: if bits[3] % 2 == 0 { None } else { Some(f64::from_bits(bits[3])) },
            qos_met,
            mix_mean_load_pct: mean_pct,
            mix_max_load_pct: max_pct,
            headroom: Headroom {
                predicted: f64::from_bits(bits[4]),
                sigma: f64::from_bits(bits[5]),
            },
        };
        let fleet = FleetInput {
            alive_nodes: alive,
            mean_lc_load: f64::from_bits(bits[6]),
            admission_rate: f64::from_bits(bits[7]),
        };
        let a = extract(&j, &n, &fleet);
        let b = extract(&j, &n, &fleet);
        prop_assert_eq!(a, b, "extraction must be deterministic");
        for (i, v) in a.iter().enumerate() {
            prop_assert!(v.is_finite(), "feature {} must be finite, got {}", i, v);
            prop_assert!((0.0..=1.0).contains(v), "feature {} out of range: {}", i, v);
        }
    }

    #[test]
    fn score_ordering_is_invariant_under_candidate_permutation(
        weight_cents in prop::collection::vec(-400i32..400, FEATURE_DIM),
        feature_cents in prop::collection::vec(0i32..101, 4 * FEATURE_DIM),
        rot in 0usize..4,
    ) {
        let model = RankingModel {
            feature_version: FEATURE_VERSION,
            weights: weight_cents.iter().map(|&c| f64::from(c) / 100.0).collect(),
            epochs: 1,
            train_loss: 0.5,
        };
        let candidates: Vec<[f64; FEATURE_DIM]> = (0..4)
            .map(|c| {
                let mut v = [0.0; FEATURE_DIM];
                for (i, x) in v.iter_mut().enumerate() {
                    *x = f64::from(feature_cents[c * FEATURE_DIM + i]) / 100.0;
                }
                v
            })
            .collect();
        // Rank by (score desc, original index asc) from two presentation
        // orders: identity and a rotation. The pure per-candidate scorer
        // plus the index tie-break makes the result order-independent.
        let scores: Vec<f64> = candidates.iter().map(|f| model.score(f)).collect();
        let rank = |order: &[usize]| -> Vec<usize> {
            let mut idx: Vec<usize> = order.to_vec();
            idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
            idx
        };
        let identity: Vec<usize> = (0..4).collect();
        let rotated: Vec<usize> = (0..4).map(|i| (i + rot) % 4).collect();
        prop_assert_eq!(rank(&identity), rank(&rotated));
    }

    #[test]
    fn codec_round_trips_any_finite_model(
        weight_cents in prop::collection::vec(-10_000i32..10_000, FEATURE_DIM),
        epochs in 0u32..1000,
        loss_cents in 0i32..100_000,
    ) {
        let model = RankingModel {
            feature_version: FEATURE_VERSION,
            weights: weight_cents.iter().map(|&c| f64::from(c) / 128.0).collect(),
            epochs,
            train_loss: f64::from(loss_cents) / 1000.0,
        };
        let bytes = encode(&model).unwrap();
        let back = decode(&bytes);
        prop_assert_eq!(back.as_ref(), Some(&model));

        // Flip one payload byte: the frame checksum must catch it.
        let mut corrupt = bytes.clone();
        let pos = 12 + 16 + (epochs as usize % (corrupt.len() - 28));
        corrupt[pos] ^= 0x01;
        prop_assert!(decode(&corrupt).is_none(), "single-byte flip at {} accepted", pos);
    }
}
