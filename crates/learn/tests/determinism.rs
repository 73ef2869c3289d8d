//! Pins the training-determinism acceptance criterion: the same seed
//! yields bit-identical weights at any worker-slot count (and therefore at
//! any `CLITE_PAR_THREADS`, which only sizes the global pool — the slot
//! count is the only parallelism knob that reaches `map_indexed`).

use clite_learn::{train_with_slots, RankingModel, TrainConfig};
use clite_telemetry::Telemetry;

fn config() -> TrainConfig {
    TrainConfig { groups: 10, candidates: 3, label_windows: 4, epochs: 4, ..TrainConfig::smoke(42) }
}

fn weights_bits(model: &RankingModel) -> Vec<u64> {
    model.weights.iter().map(|w| w.to_bits()).collect()
}

#[test]
fn training_is_bit_identical_across_slot_counts() {
    let t = Telemetry::disabled();
    let serial = train_with_slots(&config(), 1, &t);
    for slots in [2, 3, 4, 8] {
        let pooled = train_with_slots(&config(), slots, &t);
        assert_eq!(
            weights_bits(&serial),
            weights_bits(&pooled),
            "slots={slots} diverged from serial training"
        );
        assert_eq!(serial, pooled);
    }
}

#[test]
fn different_seeds_train_different_models() {
    let t = Telemetry::disabled();
    let a = train_with_slots(&config(), 1, &t);
    let b = train_with_slots(&TrainConfig { seed: 43, ..config() }, 1, &t);
    assert_ne!(weights_bits(&a), weights_bits(&b), "seed must reach the rollouts");
}

#[test]
fn trained_model_survives_codec_round_trip_bit_exactly() {
    let t = Telemetry::disabled();
    let model = train_with_slots(&config(), 4, &t);
    let back = clite_learn::decode(&clite_learn::encode(&model).unwrap()).expect("round trip");
    assert_eq!(weights_bits(&model), weights_bits(&back));
}
