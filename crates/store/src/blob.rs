//! Checksummed single-blob files: the checkpoint and model codec.
//!
//! A blob file is a [`crate::log::header`] followed by exactly one frame
//! ([`crate::log::put_frame`]) — the record log's layout with one record.
//! [`read`] treats *any* malformed byte as "no usable blob" rather than
//! an error, because a checkpoint that fails its checksum must degrade
//! to full-journal replay, not abort recovery.
//!
//! [`save`] writes the whole image once, in place over the file at its
//! path. There is no temp file and no rename: overwriting an existing
//! file keeps its blocks, where a rename over it frees them (and costs far
//! more than the write on ext4). So a process killed during [`save`]
//! leaves a torn file, which [`read`] reports as corrupt: a blob file
//! alone is not crash-safe. The fleet checkpoint gets that guarantee one
//! level up, by alternating between two blob files and recovering from
//! the newer valid one (`clite_cluster::recovery`). The write is not
//! fsynced (see [`crate::log`]'s durability note).

use std::fs::OpenOptions;
use std::io::Write;
use std::ops::RangeInclusive;
use std::path::Path;

use crate::log::{frame_prologue, header, put_frame, read_frame, FRAME_PROLOGUE_LEN, HEADER_LEN};
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
    /// The intact payload and the format version its header names.
    Valid {
        /// The header's version, one of those [`read`] accepted.
        version: u32,
        /// The payload.
        payload: Vec<u8>,
    },
}

/// The whole file image of a blob holding `payload`, built with one copy
/// of the payload into a buffer sized once.
///
/// # Errors
///
/// Returns [`StoreError::Io`] (op `"frame"`) for a payload too long to
/// frame (see [`put_frame`]).
pub fn encode(magic: &[u8; 8], version: u32, payload: &[u8]) -> StoreResult<Vec<u8>> {
    let mut bytes = Vec::with_capacity(PREFIX_LEN + payload.len());
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
    decode_any(bytes, magic, version..=version).map(|(_, payload)| payload)
}

/// [`decode`] accepting any header version in `versions`: the version the
/// header names and the payload.
///
/// # Errors
///
/// As [`decode`]; a version outside `versions` is a bad header.
fn decode_any<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    versions: RangeInclusive<u32>,
) -> Result<(u32, &'a [u8]), &'static str> {
    let (head, rest) = bytes.split_at_checked(HEADER_LEN as usize).ok_or("bad header")?;
    let version = u32::from_le_bytes(head[8..].try_into().expect("4 bytes"));
    if !versions.contains(&version) || head != header(magic, version) {
        return Err("bad header");
    }
    let (payload, len) = read_frame(rest)?;
    if len != rest.len() {
        return Err("trailing bytes");
    }
    Ok((version, payload))
}

/// Bytes before the payload: the file header and the frame prologue.
const PREFIX_LEN: usize = HEADER_LEN as usize + FRAME_PROLOGUE_LEN;

/// Writes `payload` as a checksummed blob at `path`: the 28-byte header
/// and frame prologue, then the caller's payload straight from its slice
/// — the bytes [`encode`] would build, without building a second image
/// of the payload. The image goes in place over the file, once; a crash
/// during the write tears it (see the module docs).
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failures, or for a payload
/// too long to frame — then nothing is written and the old blob stays.
pub fn save(path: &Path, magic: &[u8; 8], version: u32, payload: &[u8]) -> StoreResult<()> {
    const H: usize = HEADER_LEN as usize;
    let mut prefix = [0; PREFIX_LEN];
    prefix[H..].copy_from_slice(&frame_prologue(payload)?);
    prefix[..H].copy_from_slice(&header(magic, version));
    write_in_place(path, &[&prefix, payload])
}

/// Overwrites the file at `path` (created if missing, never truncated
/// first) with the concatenation of `parts`, then cuts off whatever of
/// the old file lay past the new end.
fn write_in_place(path: &Path, parts: &[&[u8]]) -> StoreResult<()> {
    let write = || {
        let mut file = OpenOptions::new().write(true).create(true).truncate(false).open(path)?;
        let old_len = file.metadata()?.len();
        parts.iter().try_for_each(|part| file.write_all(part))?;
        let len = parts.iter().map(|part| part.len() as u64).sum();
        if old_len > len {
            file.set_len(len)?;
        }
        Ok(())
    };
    write().map_err(|e: std::io::Error| StoreError::Io { op: "write blob", message: e.to_string() })
}

/// Makes the blob at `path` unreadable, in place: the header and frame
/// prologue of an existing file are zeroed, so it reads as
/// [`BlobRead::Corrupt`] until the next [`save`], which then overwrites
/// blocks already on disk. A missing file stays missing.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failures.
pub fn invalidate(path: &Path) -> StoreResult<()> {
    let zero = || OpenOptions::new().write(true).open(path)?.write_all(&[0; PREFIX_LEN]);
    match zero() {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(StoreError::Io { op: "invalidate blob", message: e.to_string() }),
    }
}

/// Reads the blob at `path` through [`decode`], accepting any header
/// version in `versions`. Total on content: corruption maps to
/// [`BlobRead::Corrupt`], never a panic or an error.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failures other than the file
/// simply not existing (which is [`BlobRead::Missing`]).
pub fn read(path: &Path, magic: &[u8; 8], versions: RangeInclusive<u32>) -> StoreResult<BlobRead> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BlobRead::Missing),
        Err(e) => return Err(StoreError::Io { op: "read blob", message: e.to_string() }),
    };
    Ok(match decode_any(&bytes, magic, versions) {
        Ok((version, payload)) => BlobRead::Valid { version, payload: payload.to_vec() },
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

    fn valid(version: u32, payload: &[u8]) -> BlobRead {
        BlobRead::Valid { version, payload: payload.to_vec() }
    }

    #[test]
    fn round_trips_and_overwrites_in_place() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("state.ckpt");
        assert_eq!(read(&path, MAGIC, 1..=1).unwrap(), BlobRead::Missing);
        save(&path, MAGIC, 1, b"first").unwrap();
        assert_eq!(read(&path, MAGIC, 1..=1).unwrap(), valid(1, b"first"));
        save(&path, MAGIC, 1, b"second, longer payload").unwrap();
        assert_eq!(read(&path, MAGIC, 1..=1).unwrap(), valid(1, b"second, longer payload"));
        save(&path, MAGIC, 1, b"short").unwrap();
        assert_eq!(read(&path, MAGIC, 1..=1).unwrap(), valid(1, b"short"), "old tail cut off");
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
        save(&path, MAGIC, 2, b"x").unwrap();
        assert!(matches!(read(&path, b"CLITEOTH", 2..=2).unwrap(), BlobRead::Corrupt { .. }));
        assert!(matches!(read(&path, MAGIC, 3..=3).unwrap(), BlobRead::Corrupt { .. }));
        assert!(matches!(read(&path, MAGIC, 0..=1).unwrap(), BlobRead::Corrupt { .. }));
        assert_eq!(read(&path, MAGIC, 1..=3).unwrap(), valid(2, b"x"), "any listed version");
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
        assert_eq!(read(&path, MAGIC, 1..=1).unwrap(), valid(1, b"old"));
        assert!(!crate::log::tmp_path(&path).exists(), "no temp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_kill_at_every_offset_of_a_save_reads_old_new_or_corrupt() {
        // The one in-place write, cut at every offset before the old tail
        // is cut off: the file never reads as a payload it was not given.
        let dir = tmp_dir("torn");
        let path = dir.join("state.ckpt");
        let old_payload = &b"the old payload, of middling length"[..];
        let old = encode(MAGIC, 1, old_payload).unwrap();
        for new_payload in [&b"new, short"[..], b"the new payload, a good deal longer than the old"]
        {
            let new = encode(MAGIC, 1, new_payload).unwrap();
            for cut in 0..=new.len() {
                let mut torn = new[..cut].to_vec();
                torn.extend_from_slice(old.get(cut..).unwrap_or_default());
                std::fs::write(&path, &torn).unwrap();
                let got = read(&path, MAGIC, 1..=1).unwrap();
                assert!(
                    got == valid(1, old_payload)
                        || got == valid(1, new_payload)
                        || matches!(got, BlobRead::Corrupt { .. }),
                    "cut {cut}: {got:?}"
                );
                if let BlobRead::Valid { payload, .. } = &got {
                    assert!(torn == encode(MAGIC, 1, payload).unwrap(), "cut {cut}: a whole image");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_invalidated_blob_reads_corrupt_until_the_next_save() {
        let dir = tmp_dir("invalidate");
        let path = dir.join("state.ckpt");
        invalidate(&path).unwrap();
        assert_eq!(read(&path, MAGIC, 1..=1).unwrap(), BlobRead::Missing, "nothing to invalidate");
        assert!(!path.exists(), "invalidate creates nothing");
        save(&path, MAGIC, 1, b"a previous run's state").unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        invalidate(&path).unwrap();
        assert!(matches!(read(&path, MAGIC, 1..=1).unwrap(), BlobRead::Corrupt { .. }));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len, "invalidated in place");
        save(&path, MAGIC, 1, b"this run").unwrap();
        assert_eq!(read(&path, MAGIC, 1..=1).unwrap(), valid(1, b"this run"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
