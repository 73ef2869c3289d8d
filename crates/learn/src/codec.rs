//! Checksummed, versioned model files.
//!
//! A model file is a [`clite_store::blob`] with magic `CLITELRN`: the
//! shared 12-byte header and exactly one checksummed frame (layout in
//! [`clite_store::log`]). This module only owns the payload, a fixed
//! little-endian record written with the store codec: feature version,
//! weight dimension, epoch count, a reserved word, the final training
//! loss, then the weights. [`decode`] is a total function — any byte
//! sequence maps to `Some(model)` or `None`, never a panic — and rejects
//! a model whose feature schema no longer matches
//! [`FEATURE_DIM`]/[`FEATURE_VERSION`]: stale weights degrade to the
//! zero model rather than scoring a schema they were never trained on.

use std::io::Write;
use std::path::Path;

use clite_store::blob;
use clite_store::codec::{put_f64, put_u32, DecodeError, Reader};
use clite_store::log::tmp_path;

use crate::features::{FEATURE_DIM, FEATURE_VERSION};
use crate::model::RankingModel;

/// File magic: identifies a clite-learn model file.
pub const MODEL_MAGIC: &[u8; 8] = b"CLITELRN";
/// Current container format version.
pub const MODEL_FORMAT_VERSION: u32 = 1;

/// Why a model failed to load.
#[derive(Debug)]
pub enum ModelError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The bytes did not decode to a model under the current schema
    /// (bad magic, torn frame, checksum mismatch, or version/dimension
    /// drift).
    Corrupt,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Io(e) => write!(f, "model file unreadable: {e}"),
            ModelError::Corrupt => f.write_str("model file corrupt or schema-incompatible"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<std::io::Error> for ModelError {
    fn from(e: std::io::Error) -> Self {
        ModelError::Io(e)
    }
}

/// Serializes a model to its on-disk byte form.
///
/// # Errors
///
/// Returns [`ModelError::Io`] for a model too large for one frame (over
/// two million weights), which could never be read back.
pub fn encode(model: &RankingModel) -> Result<Vec<u8>, ModelError> {
    let mut payload = Vec::with_capacity(24 + 8 * model.weights.len());
    put_u32(&mut payload, model.feature_version);
    put_u32(&mut payload, model.weights.len() as u32);
    put_u32(&mut payload, model.epochs);
    put_u32(&mut payload, 0); // reserved
    put_f64(&mut payload, model.train_loss);
    for &w in &model.weights {
        put_f64(&mut payload, w);
    }
    blob::encode(MODEL_MAGIC, MODEL_FORMAT_VERSION, &payload)
        .map_err(|e| ModelError::Io(std::io::Error::other(e)))
}

/// Decodes a model from a full file image. Total: returns `None` for any
/// malformed, truncated, bit-flipped, or schema-incompatible input.
#[must_use]
pub fn decode(bytes: &[u8]) -> Option<RankingModel> {
    let payload = blob::decode(bytes, MODEL_MAGIC, MODEL_FORMAT_VERSION).ok()?;
    decode_payload(payload).ok()
}

/// Decodes the fixed-layout payload, enforcing the feature schema.
fn decode_payload(payload: &[u8]) -> Result<RankingModel, DecodeError> {
    let mut r = Reader::new(payload);
    let feature_version = r.u32("feature version")?;
    let dim = r.u32("weight dimension")?;
    let epochs = r.u32("epochs")?;
    r.u32("reserved word")?;
    let train_loss = r.f64("train loss")?;
    if feature_version != FEATURE_VERSION || dim as usize != FEATURE_DIM {
        return Err(r.fail("current feature schema"));
    }
    let weights = (0..FEATURE_DIM).map(|_| r.f64("weight")).collect::<Result<Vec<_>, _>>()?;
    if !r.done() || weights.iter().any(|w| !w.is_finite()) || !train_loss.is_finite() {
        return Err(r.fail("finite weights, then end of payload"));
    }
    Ok(RankingModel { feature_version, weights, epochs, train_loss })
}

/// Writes `model` to `path` atomically: the bytes go to
/// [`tmp_path`]`(path)` and are fsynced before the rename, so a crash or
/// power loss mid-save never leaves a torn model where a valid one
/// stood. (The model is the only framed file that fsyncs: it is written
/// once per training run, not on the scheduling path.)
///
/// # Errors
///
/// Returns [`ModelError::Io`] on filesystem failures or an unframeable
/// model (see [`encode`]).
pub fn save(path: &Path, model: &RankingModel) -> Result<(), ModelError> {
    let tmp = tmp_path(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&encode(model)?)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Loads a model from `path`.
///
/// # Errors
///
/// Returns [`ModelError::Io`] if the file cannot be read and
/// [`ModelError::Corrupt`] if its bytes do not decode under the current
/// schema.
pub fn load(path: &Path) -> Result<RankingModel, ModelError> {
    let bytes = std::fs::read(path)?;
    decode(&bytes).ok_or(ModelError::Corrupt)
}

/// Loads a model, degrading gracefully: a missing, unreadable, corrupt,
/// or schema-stale file yields the zero model (heuristic-fallback order)
/// plus the error explaining why. This is the serving entry point — a bad
/// model file must never fail admission.
#[must_use]
pub fn load_or_zeroed(path: &Path) -> (RankingModel, Option<ModelError>) {
    match load(path) {
        Ok(model) => (model, None),
        Err(e) => (RankingModel::zeroed(), Some(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clite_store::log::{FRAME_PROLOGUE_LEN, HEADER_LEN};

    fn sample_model() -> RankingModel {
        RankingModel {
            feature_version: FEATURE_VERSION,
            weights: (0..FEATURE_DIM).map(|i| (i as f64 - 3.0) * 0.125).collect(),
            epochs: 12,
            train_loss: 0.314,
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let model = sample_model();
        let decoded = decode(&encode(&model).unwrap()).expect("round trip");
        assert_eq!(model, decoded);
        for (a, b) in model.weights.iter().zip(&decoded.weights) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn decode_is_total_on_corrupt_inputs() {
        let good = encode(&sample_model()).unwrap();
        assert!(decode(&[]).is_none());
        assert!(decode(b"CLITELRN").is_none(), "header only");
        assert!(decode(&good[..good.len() - 1]).is_none(), "torn tail");
        assert!(decode(&good[..HEADER_LEN as usize + 3]).is_none(), "torn prologue");
        let mut flipped = good.clone();
        let mid = HEADER_LEN as usize + FRAME_PROLOGUE_LEN + 10;
        flipped[mid] ^= 0x40;
        assert!(decode(&flipped).is_none(), "bit flip fails the checksum");
        let mut wrong_magic = good.clone();
        wrong_magic[0] ^= 0xff;
        assert!(decode(&wrong_magic).is_none());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_none(), "trailing garbage rejected");
        // A clite-store log is not a model file.
        assert!(decode(b"CLITESTO\x01\x00\x00\x00").is_none());
    }

    #[test]
    fn schema_drift_is_rejected() {
        let mut model = sample_model();
        model.feature_version = FEATURE_VERSION + 1;
        assert!(decode(&encode(&model).unwrap()).is_none(), "future feature version");
        let mut short = sample_model();
        short.weights.pop();
        assert!(decode(&encode(&short).unwrap()).is_none(), "dimension mismatch");
        let mut nan = sample_model();
        nan.weights[0] = f64::NAN;
        assert!(decode(&encode(&nan).unwrap()).is_none(), "non-finite weights rejected");
    }

    #[test]
    fn save_load_round_trips_and_degrades() {
        let dir = std::env::temp_dir().join(format!("clite-learn-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.clite");
        let model = sample_model();
        save(&path, &model).unwrap();
        assert_eq!(load(&path).unwrap(), model);

        // Corrupt the file on disk: load_or_zeroed degrades to zero.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (fallback, err) = load_or_zeroed(&path);
        assert!(fallback.is_zero());
        assert!(matches!(err, Some(ModelError::Corrupt)));

        // Missing file: same degradation, io error reported.
        let (fallback, err) = load_or_zeroed(&dir.join("absent.clite"));
        assert!(fallback.is_zero());
        assert!(matches!(err, Some(ModelError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_leaves_an_unrelated_tmp_sibling_untouched() {
        let dir = std::env::temp_dir().join(format!("clite-learn-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let unrelated = dir.join("x.tmp");
        std::fs::write(&unrelated, b"not a model").unwrap();
        let path = dir.join("x.model");
        save(&path, &sample_model()).unwrap();
        assert_eq!(load(&path).unwrap(), sample_model());
        assert_eq!(std::fs::read(&unrelated).unwrap(), b"not a model", "x.tmp was clobbered");
        assert!(!tmp_path(&path).exists(), "the temp file is renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }
}
