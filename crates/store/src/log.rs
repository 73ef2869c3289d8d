//! The framed-file format: one header, one frame, one atomic writer.
//!
//! Every durable file in the workspace — the observation log, the fleet
//! journal, the fleet checkpoint and the placement model — is a 12-byte
//! header followed by frames:
//!
//! ```text
//! [ magic: 8 bytes ][ version: u32 LE ]         file header, 12 bytes
//! [ REC_MAGIC: u32 LE ][ len: u32 LE ]
//! [ fnv1a64(payload): u64 LE ][ payload ]       one frame
//! ...
//! ```
//!
//! The record log (`CLITESTO`) and the journal are any number of frames;
//! a blob ([`crate::blob`]: checkpoint, model) is exactly one. This
//! module is the only code that knows the layout: [`header`] and
//! [`put_frame`] write it, [`read_frame`] checks it, and [`write_atomic`]
//! replaces a whole file through its [`tmp_path`] sibling.
//!
//! A crash can leave a log with a torn final frame (short header, short
//! payload, or a payload whose checksum no longer matches). Recovery scans
//! frames from the front and keeps the longest prefix of intact records;
//! everything from the first bad byte on is truncated away, so the next
//! append lands on a clean frame boundary. A file whose *header* is bad is
//! treated as empty and rewritten. Nothing in this module panics on any
//! input byte sequence.
//!
//! Durability: appends and rewrites hand their bytes to the OS with one
//! `write_all` and no fsync, so they survive a process crash but are not
//! claimed to survive power loss.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::{StoreError, StoreResult};

/// File magic: identifies a clite-store log.
pub const FILE_MAGIC: &[u8; 8] = b"CLITESTO";
/// Current format version (header + payload layout).
pub const FORMAT_VERSION: u32 = 1;
/// Per-record frame magic (guards against mid-file seeks landing on data).
pub const REC_MAGIC: u32 = 0x4F42_5343; // "CSBO"
/// Header length in bytes.
pub const HEADER_LEN: u64 = 12;
/// Frame prologue length: magic + len + checksum.
pub const FRAME_PROLOGUE_LEN: usize = 16;
/// Longest payload accepted; larger length prefixes are corruption.
pub const MAX_PAYLOAD_LEN: u32 = 1 << 24;

/// FNV-1a 64-bit hash of `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The file header: `magic` then `version` little-endian.
#[must_use]
pub fn header(magic: &[u8; 8], version: u32) -> [u8; HEADER_LEN as usize] {
    let mut out = [0; HEADER_LEN as usize];
    out[..8].copy_from_slice(magic);
    out[8..].copy_from_slice(&version.to_le_bytes());
    out
}

/// Appends `payload`, framed, to `out`: the one frame writer.
///
/// # Errors
///
/// Returns [`StoreError::Io`] (op `"frame"`) for a payload longer than
/// [`MAX_PAYLOAD_LEN`], leaving `out` unchanged: [`read_frame`] rejects
/// such a frame, so writing it would save a file that reads back corrupt.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) -> StoreResult<()> {
    if payload.len() > MAX_PAYLOAD_LEN as usize {
        return Err(StoreError::Io {
            op: "frame",
            message: format!(
                "payload of {} bytes exceeds the {MAX_PAYLOAD_LEN}-byte frame limit",
                payload.len()
            ),
        });
    }
    out.reserve(FRAME_PROLOGUE_LEN + payload.len());
    out.extend_from_slice(&REC_MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Reads the frame at the start of `bytes`: its payload and the frame's
/// whole length (prologue + payload), or what check failed.
///
/// # Errors
///
/// Names the failed check: a short prologue, a bad frame magic, a length
/// above [`MAX_PAYLOAD_LEN`], a short payload, or a checksum mismatch.
pub fn read_frame(bytes: &[u8]) -> Result<(&[u8], usize), &'static str> {
    let (prologue, rest) =
        bytes.split_first_chunk::<FRAME_PROLOGUE_LEN>().ok_or("truncated frame prologue")?;
    let word = |at: usize| u32::from_le_bytes(prologue[at..at + 4].try_into().expect("4 bytes"));
    if word(0) != REC_MAGIC {
        return Err("bad frame magic");
    }
    if word(4) > MAX_PAYLOAD_LEN {
        return Err("absurd length");
    }
    let payload = rest.get(..word(4) as usize).ok_or("truncated payload")?;
    if fnv1a64(payload) != u64::from_le_bytes(prologue[8..].try_into().expect("8 bytes")) {
        return Err("checksum mismatch");
    }
    Ok((payload, FRAME_PROLOGUE_LEN + payload.len()))
}

/// The temp sibling [`write_atomic`] writes before its rename: `.tmp`
/// appended to the full file name, not swapped in for the extension, so
/// `obs.log.shard0` and `obs.log.shard1` never share a temp file and a
/// save never clobbers an unrelated `<stem>.tmp`.
#[must_use]
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Replaces the file at `path` with `bytes`: written to [`tmp_path`],
/// then renamed over `path`, so a crash leaves either the old file or the
/// new one — never a mix. No fsync (see the module docs).
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failures.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> StoreResult<()> {
    let tmp = tmp_path(path);
    std::fs::write(&tmp, bytes).map_err(|e| io_err("write tmp", &e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename", &e))
}

/// What a recovery scan found in an existing log file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Payloads of every intact record, in append order.
    pub payloads: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (where the next append goes).
    pub valid_len: u64,
    /// Bytes past the valid prefix that were discarded.
    pub dropped_bytes: u64,
    /// True if the file header itself was missing or corrupt.
    pub header_rewritten: bool,
}

/// Scans `bytes` (a full file image) and returns the valid prefix.
///
/// Total function: any input maps to a `Recovery`, never a panic.
#[must_use]
pub fn scan(bytes: &[u8]) -> Recovery {
    let total = bytes.len() as u64;
    let Some(mut rest) = bytes.strip_prefix(&header(FILE_MAGIC, FORMAT_VERSION)) else {
        return Recovery {
            payloads: Vec::new(),
            valid_len: 0,
            dropped_bytes: total,
            header_rewritten: true,
        };
    };
    let mut payloads = Vec::new();
    while let Ok((payload, len)) = read_frame(rest) {
        payloads.push(payload.to_vec());
        rest = &rest[len..];
    }
    let valid_len = total - rest.len() as u64;
    Recovery { payloads, valid_len, dropped_bytes: total - valid_len, header_rewritten: false }
}

/// An open log file positioned for appends.
#[derive(Debug)]
pub struct LogFile {
    file: File,
}

fn io_err(op: &'static str, e: &std::io::Error) -> StoreError {
    StoreError::Io { op, message: e.to_string() }
}

impl LogFile {
    /// Opens (or creates) the log at `path`, recovering the valid prefix.
    ///
    /// The file is truncated to the valid prefix so later appends extend
    /// intact data; a corrupt header resets the file to an empty log.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failures. Corruption is
    /// not an error — it is reported through [`Recovery`].
    pub fn open(path: &Path) -> StoreResult<(Self, Recovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err("open", &e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(|e| io_err("read", &e))?;

        let recovery = scan(&bytes);
        if recovery.header_rewritten {
            file.set_len(0).map_err(|e| io_err("truncate", &e))?;
            file.seek(SeekFrom::Start(0)).map_err(|e| io_err("seek", &e))?;
            file.write_all(&header(FILE_MAGIC, FORMAT_VERSION))
                .map_err(|e| io_err("write header", &e))?;
        } else if recovery.dropped_bytes > 0 {
            file.set_len(recovery.valid_len).map_err(|e| io_err("truncate", &e))?;
        }
        file.seek(SeekFrom::End(0)).map_err(|e| io_err("seek", &e))?;
        Ok((Self { file }, recovery))
    }

    /// Appends one framed payload (handed to the OS, not fsynced).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the payload is too long to frame
    /// (nothing is written) or the write fails; the frame is written with
    /// a single `write_all` so a crash mid-append tears at most the final
    /// frame, which the next open recovers past.
    pub fn append(&mut self, payload: &[u8]) -> StoreResult<()> {
        let mut bytes = Vec::new();
        put_frame(&mut bytes, payload)?;
        self.file.write_all(&bytes).map_err(|e| io_err("append", &e))
    }

    /// Atomically replaces the log contents with `payloads` (compaction)
    /// through [`write_atomic`], then reopens it for appends.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failures or a payload too
    /// long to frame (the file is then left as it was).
    pub fn rewrite(path: &Path, payloads: &[Vec<u8>]) -> StoreResult<Self> {
        let framed: usize = payloads.iter().map(|p| FRAME_PROLOGUE_LEN + p.len()).sum();
        let mut bytes = Vec::with_capacity(HEADER_LEN as usize + framed);
        bytes.extend_from_slice(&header(FILE_MAGIC, FORMAT_VERSION));
        for p in payloads {
            put_frame(&mut bytes, p)?;
        }
        write_atomic(path, &bytes)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("reopen", &e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err("seek", &e))?;
        Ok(Self { file })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = header(FILE_MAGIC, FORMAT_VERSION).to_vec();
        for p in payloads {
            put_frame(&mut bytes, p).unwrap();
        }
        bytes
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn scan_reads_all_intact_records() {
        let img = image(&[b"one", b"two", b"three"]);
        let rec = scan(&img);
        assert_eq!(rec.payloads, vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]);
        assert_eq!(rec.valid_len, img.len() as u64);
        assert_eq!(rec.dropped_bytes, 0);
        assert!(!rec.header_rewritten);
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let full = image(&[b"alpha", b"beta"]);
        let keep = image(&[b"alpha"]).len();
        for cut in keep..full.len() {
            let rec = scan(&full[..cut]);
            assert_eq!(rec.payloads, vec![b"alpha".to_vec()], "cut at {cut}");
            assert_eq!(rec.valid_len, keep as u64);
        }
    }

    #[test]
    fn scan_rejects_bad_header() {
        let mut img = image(&[b"x"]);
        img[0] = b'X';
        let rec = scan(&img);
        assert!(rec.header_rewritten);
        assert_eq!(rec.valid_len, 0);
        assert!(rec.payloads.is_empty());
    }

    #[test]
    fn scan_stops_at_checksum_mismatch() {
        let mut img = image(&[b"alpha", b"beta"]);
        let last = img.len() - 1;
        img[last] ^= 0xFF; // corrupt beta's final payload byte
        let rec = scan(&img);
        assert_eq!(rec.payloads, vec![b"alpha".to_vec()]);
        assert!(rec.dropped_bytes > 0);
    }

    #[test]
    fn scan_rejects_absurd_length_prefix() {
        let mut img = image(&[]);
        img.extend_from_slice(&REC_MAGIC.to_le_bytes());
        img.extend_from_slice(&u32::MAX.to_le_bytes());
        img.extend_from_slice(&[0u8; 8]);
        let rec = scan(&img);
        assert!(rec.payloads.is_empty());
        assert_eq!(rec.valid_len, HEADER_LEN);
    }

    #[test]
    fn read_frame_names_each_failed_check() {
        let mut good = Vec::new();
        put_frame(&mut good, b"payload").unwrap();
        assert_eq!(read_frame(&good), Ok((&b"payload"[..], good.len())));
        assert_eq!(read_frame(&good[..15]), Err("truncated frame prologue"));
        assert_eq!(read_frame(&good[..good.len() - 1]), Err("truncated payload"));
        let flip = |at: usize, mask: u8| {
            let mut bad = good.clone();
            bad[at] ^= mask;
            read_frame(&bad).err()
        };
        assert_eq!(flip(0, 0x01), Some("bad frame magic"));
        assert_eq!(flip(7, 0x80), Some("absurd length"));
        assert_eq!(flip(good.len() - 1, 0x01), Some("checksum mismatch"));
    }

    #[test]
    fn tmp_path_appends_to_the_full_file_name() {
        assert_eq!(tmp_path(Path::new("d/obs.log.shard0")), PathBuf::from("d/obs.log.shard0.tmp"));
        assert_eq!(tmp_path(Path::new("placement.model")), PathBuf::from("placement.model.tmp"));
    }

    #[test]
    fn open_truncates_torn_tail_and_appends_cleanly() {
        let dir = std::env::temp_dir().join(format!("clite-store-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.log");
        let mut img = image(&[b"alpha", b"beta"]);
        img.truncate(img.len() - 2);
        std::fs::write(&path, &img).unwrap();

        let (mut log, rec) = LogFile::open(&path).unwrap();
        assert_eq!(rec.payloads, vec![b"alpha".to_vec()]);
        log.append(b"gamma").unwrap();
        drop(log);

        let (_, rec2) = LogFile::open(&path).unwrap();
        assert_eq!(rec2.payloads, vec![b"alpha".to_vec(), b"gamma".to_vec()]);
        assert_eq!(rec2.dropped_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_frame_refuses_what_read_frame_rejects() {
        let at_limit = vec![7u8; MAX_PAYLOAD_LEN as usize];
        let mut out = b"kept".to_vec();
        put_frame(&mut out, &at_limit).unwrap();
        assert_eq!(read_frame(&out[4..]).map(|(p, _)| p.len()), Ok(at_limit.len()));

        let mut out = b"kept".to_vec();
        let err = put_frame(&mut out, &vec![7u8; MAX_PAYLOAD_LEN as usize + 1]).unwrap_err();
        assert!(matches!(err, StoreError::Io { op: "frame", .. }), "{err}");
        assert_eq!(out, b"kept", "a refused frame writes nothing");
    }

    #[test]
    fn oversize_append_keeps_earlier_records_and_the_log_appendable() {
        let dir = std::env::temp_dir().join(format!("clite-store-oversize-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("oversize.log");
        let (mut log, _) = LogFile::open(&path).unwrap();
        log.append(b"alpha").unwrap();
        let err = log.append(&vec![0u8; MAX_PAYLOAD_LEN as usize + 1]).unwrap_err();
        assert!(matches!(err, StoreError::Io { op: "frame", .. }), "{err}");
        log.append(b"beta").unwrap();
        drop(log);

        let (_, rec) = LogFile::open(&path).unwrap();
        assert_eq!(rec.payloads, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(rec.dropped_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
