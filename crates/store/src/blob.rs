//! Atomic checksummed single-blob files: the checkpoint and model codec.
//!
//! A blob file is a [`crate::log::header`] followed by exactly one frame
//! ([`crate::log::put_frame`]) — the record log's layout with one record.
//! [`save`] streams it through [`crate::log::write_atomic`], so a crash
//! leaves either the old blob or the new one — never a mix — and [`read`]
//! treats *any* malformed byte as "no usable blob" rather than an error,
//! because a checkpoint that fails its checksum must degrade to
//! full-journal replay, not abort recovery.

use std::path::Path;

use crate::log::{
    frame_prologue, header, put_frame, read_frame, write_atomic, FRAME_PROLOGUE_LEN, HEADER_LEN,
};
use crate::{StoreError, StoreResult};

/// What reading a blob file found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobRead {
    /// No file at the path (a fresh start, not damage).
    Missing,
    /// A file exists but its magic, version, framing, or checksum is
    /// wrong; callers should fall back as if the blob were absent.
    Corrupt {
        /// What check failed.
        reason: &'static str,
    },
    /// The intact payload.
    Valid(Vec<u8>),
}

/// The whole file image of a blob holding `payload`, built with one copy
/// of the payload into a buffer sized once.
///
/// # Errors
///
/// Returns [`StoreError::Io`] (op `"frame"`) for a payload too long to
/// frame (see [`put_frame`]).
pub fn encode(magic: &[u8; 8], version: u32, payload: &[u8]) -> StoreResult<Vec<u8>> {
    let mut bytes = Vec::with_capacity(HEADER_LEN as usize + FRAME_PROLOGUE_LEN + payload.len());
    bytes.extend_from_slice(&header(magic, version));
    put_frame(&mut bytes, payload)?;
    Ok(bytes)
}

/// The payload of a whole blob file image, checking magic, version,
/// framing and checksum. Total: never panics on any input.
///
/// # Errors
///
/// Names the failed check; bytes after the single frame are corruption.
pub fn decode<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
) -> Result<&'a [u8], &'static str> {
    let rest = bytes.strip_prefix(&header(magic, version)).ok_or("bad header")?;
    let (payload, len) = read_frame(rest)?;
    if len != rest.len() {
        return Err("trailing bytes");
    }
    Ok(payload)
}

/// Atomically writes `payload` as a checksummed blob at `path`: the
/// 28-byte header and frame prologue, then the caller's payload straight
/// from its slice — the bytes [`encode`] would build, without building
/// a second image of the payload.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failures, or for a payload
/// too long to frame — then nothing is written and the old blob stays.
pub fn save(path: &Path, magic: &[u8; 8], version: u32, payload: &[u8]) -> StoreResult<()> {
    const H: usize = HEADER_LEN as usize;
    let mut prefix = [0; H + FRAME_PROLOGUE_LEN];
    prefix[H..].copy_from_slice(&frame_prologue(payload)?);
    prefix[..H].copy_from_slice(&header(magic, version));
    write_atomic(path, &[&prefix, payload])
}

/// Reads the blob at `path` through [`decode`]. Total on content:
/// corruption maps to [`BlobRead::Corrupt`], never a panic or an error.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failures other than the file
/// simply not existing (which is [`BlobRead::Missing`]).
pub fn read(path: &Path, magic: &[u8; 8], version: u32) -> StoreResult<BlobRead> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BlobRead::Missing),
        Err(e) => return Err(StoreError::Io { op: "read blob", message: e.to_string() }),
    };
    Ok(match decode(&bytes, magic, version) {
        Ok(payload) => BlobRead::Valid(payload.to_vec()),
        Err(reason) => BlobRead::Corrupt { reason },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"CLITETST";

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("clite-blob-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_and_overwrites_atomically() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("state.ckpt");
        assert_eq!(read(&path, MAGIC, 1).unwrap(), BlobRead::Missing);
        save(&path, MAGIC, 1, b"first").unwrap();
        assert_eq!(read(&path, MAGIC, 1).unwrap(), BlobRead::Valid(b"first".to_vec()));
        save(&path, MAGIC, 1, b"second, longer payload").unwrap();
        assert_eq!(
            read(&path, MAGIC, 1).unwrap(),
            BlobRead::Valid(b"second, longer payload".to_vec())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_at_every_offset_reads_as_corrupt_or_missing_prefix() {
        let dir = tmp_dir("flip");
        let path = dir.join("state.ckpt");
        save(&path, MAGIC, 1, b"payload under test").unwrap();
        let img = std::fs::read(&path).unwrap();
        for at in 0..img.len() {
            let mut bad = img.clone();
            bad[at] ^= 0x40;
            if let Ok(p) = decode(&bad, MAGIC, 1) {
                panic!("flip at {at} still read valid: {p:?}");
            }
        }
        // Truncation at every offset is equally non-fatal.
        for cut in 0..img.len() {
            assert!(decode(&img[..cut], MAGIC, 1).is_err(), "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_magic_or_version_is_corrupt() {
        let dir = tmp_dir("magic");
        let path = dir.join("state.ckpt");
        save(&path, MAGIC, 1, b"x").unwrap();
        assert!(matches!(read(&path, b"CLITEOTH", 1).unwrap(), BlobRead::Corrupt { .. }));
        assert!(matches!(read(&path, MAGIC, 2).unwrap(), BlobRead::Corrupt { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saved_files_equal_the_encoded_image() {
        // `save` streams the payload after a prefix; the bytes on disk must
        // be exactly what `encode` builds in memory, at any payload size.
        let dir = tmp_dir("stream");
        let path = dir.join("state.ckpt");
        let large: Vec<u8> =
            (0..300_017u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        for payload in [&b""[..], b"x", &large] {
            save(&path, MAGIC, 3, payload).unwrap();
            let on_disk = std::fs::read(&path).unwrap();
            assert!(on_disk == encode(MAGIC, 3, payload).unwrap(), "{} bytes", payload.len());
            assert_eq!(decode(&on_disk, MAGIC, 3), Ok(payload));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversize_save_fails_and_leaves_the_old_blob_readable() {
        let dir = tmp_dir("oversize");
        let path = dir.join("state.ckpt");
        save(&path, MAGIC, 1, b"old").unwrap();
        let oversize = vec![0u8; crate::log::MAX_PAYLOAD_LEN as usize + 1];
        let err = save(&path, MAGIC, 1, &oversize).unwrap_err();
        assert!(matches!(err, StoreError::Io { op: "frame", .. }), "{err}");
        assert_eq!(read(&path, MAGIC, 1).unwrap(), BlobRead::Valid(b"old".to_vec()));
        assert!(!crate::log::tmp_path(&path).exists(), "no temp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
