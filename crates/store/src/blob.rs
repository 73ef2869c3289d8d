//! Checksummed single-blob files: the checkpoint and model codec.
//!
//! A blob file is a [`crate::log::header`] followed by exactly one frame
//! ([`crate::log::put_frame`]) — the record log's layout with one record.
//! [`read`] treats *any* malformed byte as "no usable blob" rather than
//! an error, because a checkpoint that fails its checksum must degrade
//! to full-journal replay, not abort recovery.
//!
//! [`save`] writes in place, twice: first the whole image over the side
//! copy at [`side_path`], then over `path` itself. There is no temp file
//! and no rename: overwriting an existing file keeps its blocks, where a
//! rename over it frees them (and costs far more than the write on ext4).
//! A process killed at any point leaves one complete copy, old or new:
//!
//! - killed during the side write, `path` still holds the old blob;
//! - killed during the `path` write, the side copy holds the new one.
//!
//! [`read`] returns `path` when it is valid, else the side copy when that
//! is valid — after first rewriting `path` from it, so the next save's
//! side write never tears the only valid copy. Neither write is fsynced
//! (see [`crate::log`]'s durability note).

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

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
    let rest = bytes.strip_prefix(&header(magic, version)).ok_or("bad header")?;
    let (payload, len) = read_frame(rest)?;
    if len != rest.len() {
        return Err("trailing bytes");
    }
    Ok(payload)
}

/// Bytes before the payload: the file header and the frame prologue.
const PREFIX_LEN: usize = HEADER_LEN as usize + FRAME_PROLOGUE_LEN;

/// The side copy [`save`] writes before `path`: `.side` appended to the
/// full file name (never `.tmp`, which [`crate::log::tmp_path`] owns).
#[must_use]
pub fn side_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".side");
    PathBuf::from(os)
}

/// Writes `payload` as a checksummed blob at `path`: the 28-byte header
/// and frame prologue, then the caller's payload straight from its slice
/// — the bytes [`encode`] would build, without building a second image
/// of the payload. The image goes in place over [`side_path`] first and
/// over `path` second, so a crash leaves a complete old or new copy (see
/// the module docs).
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
    write_in_place(&side_path(path), &[&prefix, payload])?;
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

/// Makes the blob at `path` and its side copy unreadable, in place: the
/// header and frame prologue of each existing file are zeroed, so both
/// read as [`BlobRead::Corrupt`] until the next [`save`], which then
/// overwrites blocks already on disk. Missing files stay missing.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failures.
pub fn invalidate(path: &Path) -> StoreResult<()> {
    for copy in [side_path(path), path.to_path_buf()] {
        let zero = || OpenOptions::new().write(true).open(&copy)?.write_all(&[0; PREFIX_LEN]);
        match zero() {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(StoreError::Io { op: "invalidate blob", message: e.to_string() }),
        }
    }
    Ok(())
}

/// The bytes of the file at `path`, or `None` when there is no file.
fn read_image(path: &Path) -> StoreResult<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(StoreError::Io { op: "read blob", message: e.to_string() }),
    }
}

/// Reads the blob at `path` through [`decode`], falling back to the side
/// copy [`save`] writes first. A valid side copy behind an invalid `path`
/// is written back over `path` before it is returned. Total on content:
/// corruption maps to [`BlobRead::Corrupt`], never a panic or an error.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failures other than the file
/// simply not existing (which is [`BlobRead::Missing`]), including a
/// failed rewrite of `path`.
pub fn read(path: &Path, magic: &[u8; 8], version: u32) -> StoreResult<BlobRead> {
    let main = match read_image(path)? {
        None => BlobRead::Missing,
        Some(bytes) => match decode(&bytes, magic, version) {
            Ok(payload) => return Ok(BlobRead::Valid(payload.to_vec())),
            Err(reason) => BlobRead::Corrupt { reason },
        },
    };
    if let Some(side) = read_image(&side_path(path))? {
        if let Ok(payload) = decode(&side, magic, version) {
            write_in_place(path, &[&side])?;
            return Ok(BlobRead::Valid(payload.to_vec()));
        }
    }
    Ok(main)
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

    /// `new[..cut]` written over `old` in place, before any `set_len`.
    fn torn(new: &[u8], old: &[u8], cut: usize) -> Vec<u8> {
        let mut bytes = new[..cut].to_vec();
        bytes.extend_from_slice(old.get(cut..).unwrap_or_default());
        bytes
    }

    #[test]
    fn a_kill_at_every_offset_of_either_write_reads_the_old_or_the_new_blob() {
        let dir = tmp_dir("torn");
        let path = dir.join("state.ckpt");
        let side = side_path(&path);
        let old_payload = &b"the old payload, of middling length"[..];
        for new_payload in [&b"new, short"[..], b"the new payload, a good deal longer than the old"]
        {
            let old = encode(MAGIC, 1, old_payload).unwrap();
            let new = encode(MAGIC, 1, new_payload).unwrap();
            let old_or_new = |got: BlobRead, what: &str| {
                assert!(
                    got == BlobRead::Valid(old_payload.to_vec())
                        || got == BlobRead::Valid(new_payload.to_vec()),
                    "{what}: {got:?}"
                );
                got
            };
            for cut in 0..=new.len() {
                // Killed during the side write: `path` still holds the old
                // image, the side file a new prefix over the old one.
                std::fs::write(&path, &old).unwrap();
                std::fs::write(&side, torn(&new, &old, cut)).unwrap();
                let got = old_or_new(read(&path, MAGIC, 1).unwrap(), &format!("side cut {cut}"));
                assert_eq!(got, BlobRead::Valid(old_payload.to_vec()), "side cut {cut}");
                assert_eq!(std::fs::read(&path).unwrap(), old, "a valid path is left alone");

                // Killed during the `path` write: the side copy is complete.
                std::fs::write(&path, torn(&new, &old, cut)).unwrap();
                std::fs::write(&side, &new).unwrap();
                let got = old_or_new(read(&path, MAGIC, 1).unwrap(), &format!("main cut {cut}"));
                if got == BlobRead::Valid(new_payload.to_vec()) {
                    assert_eq!(std::fs::read(&path).unwrap(), new, "main cut {cut}: repaired");
                }
            }
            // After a clean save, both copies hold exactly the new image.
            std::fs::write(&path, &old).unwrap();
            std::fs::write(&side, &old).unwrap();
            save(&path, MAGIC, 1, new_payload).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), new);
            assert_eq!(std::fs::read(&side).unwrap(), new);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_valid_side_copy_behind_a_missing_path_is_read_and_restored() {
        let dir = tmp_dir("side-only");
        let path = dir.join("state.ckpt");
        save(&path, MAGIC, 1, b"payload").unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(read(&path, MAGIC, 1).unwrap(), BlobRead::Valid(b"payload".to_vec()));
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(side_path(&path)).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_invalidated_pair_reads_corrupt_until_the_next_save() {
        let dir = tmp_dir("invalidate");
        let path = dir.join("state.ckpt");
        invalidate(&path).unwrap();
        assert_eq!(read(&path, MAGIC, 1).unwrap(), BlobRead::Missing, "nothing to invalidate");
        assert!(!path.exists() && !side_path(&path).exists(), "invalidate creates nothing");
        save(&path, MAGIC, 1, b"a previous run's state").unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        invalidate(&path).unwrap();
        assert!(matches!(read(&path, MAGIC, 1).unwrap(), BlobRead::Corrupt { .. }));
        for copy in [path.clone(), side_path(&path)] {
            assert_eq!(std::fs::metadata(&copy).unwrap().len(), len, "invalidated in place");
        }
        save(&path, MAGIC, 1, b"this run").unwrap();
        assert_eq!(read(&path, MAGIC, 1).unwrap(), BlobRead::Valid(b"this run".to_vec()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
