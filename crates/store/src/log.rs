//! The framed-file format: one header, one frame, one atomic writer.
//!
//! Every durable file in the workspace — the observation log, the fleet
//! journal, the fleet checkpoint and the placement model — is a 12-byte
//! header followed by frames:
//!
//! ```text
//! [ magic: 8 bytes ][ version: u32 LE ]         file header, 12 bytes
//! [ frame magic: u32 LE ][ len: u32 LE ]
//! [ checksum(payload): u64 LE ][ payload ]      one frame
//! ...
//! ```
//!
//! The frame magic names the checksum. [`REC_MAGIC`] (`"CSB2"`) frames
//! carry [`xxh64`] of the payload, and every frame written today is one.
//! [`REC_MAGIC_V1`] (`"CSBO"`) frames carry [`fnv1a64`]: they are still
//! read, so files written before the switch need no migration and a v1
//! log that takes v2 appends stays valid. An older reader stops at the
//! first v2 frame with "bad frame magic" — it drops the tail as torn,
//! never misreads it. The file header's version describes the payload
//! codec, not the frame, and did not change.
//!
//! The record log (`CLITESTO`) and the journal are any number of frames;
//! a blob ([`crate::blob`]: checkpoint, model) is exactly one. This
//! module is the only code that knows the layout: [`header`] and
//! `frame_prologue` (through [`put_frame`], or beside a payload the
//! caller writes itself) write it, [`read_frame`] checks it, and
//! [`write_atomic`] replaces a whole log (compaction) through its
//! [`tmp_path`] sibling. Blobs are written in place instead (see
//! [`crate::blob`]).
//!
//! A crash can leave a log with a torn final frame (short header, short
//! payload, or a payload whose checksum no longer matches). Recovery scans
//! frames from the front and keeps the longest prefix of intact records;
//! everything from the first bad byte on is truncated away, so the next
//! append lands on a clean frame boundary. A file whose *header* is bad is
//! treated as empty and rewritten. Nothing in this module panics on any
//! input byte sequence.
//!
//! Durability: appends, rewrites and blob saves hand their bytes to the
//! OS with no fsync, so they survive a process crash but are not claimed
//! to survive power loss.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::{StoreError, StoreResult};

/// File magic: identifies a clite-store log.
pub const FILE_MAGIC: &[u8; 8] = b"CLITESTO";
/// Current format version (header + payload layout).
pub const FORMAT_VERSION: u32 = 1;
/// Frame magic of the frames [`put_frame`] writes: an [`xxh64`] checksum
/// follows (and the magic guards against mid-file seeks landing on data).
pub const REC_MAGIC: u32 = 0x3242_5343; // "CSB2"
/// Frame magic of v1 frames, still read: an [`fnv1a64`] checksum follows.
pub const REC_MAGIC_V1: u32 = 0x4F42_5343; // "CSBO"
/// Header length in bytes.
pub const HEADER_LEN: u64 = 12;
/// Frame prologue length: magic + len + checksum.
pub const FRAME_PROLOGUE_LEN: usize = 16;
/// Longest payload accepted; larger length prefixes are corruption.
pub const MAX_PAYLOAD_LEN: u32 = 1 << 24;

/// FNV-1a 64-bit hash of `bytes`: the checksum of [`REC_MAGIC_V1`]
/// frames, and the stable hash behind store keys
/// ([`crate::MixSignature::shard_hash`]).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// xxHash64's primes, PRIME64_1 to PRIME64_5 in its specification.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// The little-endian `u64` at byte `at` of a 32-byte stripe.
#[inline]
fn lane(stripe: &[u8; 32], at: usize) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(&stripe[at..at + 8]);
    u64::from_le_bytes(word)
}

/// xxHash64 of `bytes` with seed 0: the checksum of [`REC_MAGIC`] frames.
///
/// Four scalar accumulators consume 32-byte stripes, each loading its
/// lane at a fixed offset of a `[u8; 32]` chunk, so the stripe loop has
/// no bounds checks and the four multiply chains are independent. Keep
/// that shape: a loop that mapped over a lane array and sliced each lane
/// with `try_into` hashed about 2 GB/s as the benchmark builds it
/// (150–180 µs over a 328 KB checkpoint on a 2-vCPU x86-64 VM), where
/// this one takes about 40 µs.
#[must_use]
pub fn xxh64(bytes: &[u8]) -> u64 {
    let (stripes, mut tail) = bytes.as_chunks::<32>();
    let mut acc = if stripes.is_empty() {
        P5
    } else {
        let (mut v1, mut v2, mut v3, mut v4) = (P1.wrapping_add(P2), P2, 0, P1.wrapping_neg());
        for stripe in stripes {
            v1 = xxh_round(v1, lane(stripe, 0));
            v2 = xxh_round(v2, lane(stripe, 8));
            v3 = xxh_round(v3, lane(stripe, 16));
            v4 = xxh_round(v4, lane(stripe, 24));
        }
        let acc = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        [v1, v2, v3, v4].into_iter().fold(acc, xxh_merge)
    };
    acc = acc.wrapping_add(bytes.len() as u64);
    while let Some((word, rest)) = tail.split_first_chunk::<8>() {
        acc = (acc ^ xxh_round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
        tail = rest;
    }
    if let Some((word, rest)) = tail.split_first_chunk::<4>() {
        acc = (acc ^ u64::from(u32::from_le_bytes(*word)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = rest;
    }
    for &b in tail {
        acc = (acc ^ u64::from(b).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(P2);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(P3);
    acc ^ (acc >> 32)
}

/// The file header: `magic` then `version` little-endian.
#[must_use]
pub fn header(magic: &[u8; 8], version: u32) -> [u8; HEADER_LEN as usize] {
    let mut out = [0; HEADER_LEN as usize];
    out[..8].copy_from_slice(magic);
    out[8..].copy_from_slice(&version.to_le_bytes());
    out
}

/// The prologue of `payload`'s frame: the one frame writer, for callers
/// that write the payload after it themselves. It writes only
/// [`REC_MAGIC`] frames.
///
/// # Errors
///
/// Returns [`StoreError::Io`] (op `"frame"`) for a payload longer than
/// [`MAX_PAYLOAD_LEN`]: [`read_frame`] rejects such a frame, so writing
/// it would save a file that reads back corrupt.
pub(crate) fn frame_prologue(payload: &[u8]) -> StoreResult<[u8; FRAME_PROLOGUE_LEN]> {
    if payload.len() > MAX_PAYLOAD_LEN as usize {
        return Err(StoreError::Io {
            op: "frame",
            message: format!(
                "payload of {} bytes exceeds the {MAX_PAYLOAD_LEN}-byte frame limit",
                payload.len()
            ),
        });
    }
    let mut out = [0; FRAME_PROLOGUE_LEN];
    out[..4].copy_from_slice(&REC_MAGIC.to_le_bytes());
    out[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    out[8..].copy_from_slice(&xxh64(payload).to_le_bytes());
    Ok(out)
}

/// Appends `payload`, framed, to `out`: its prologue, then the payload.
/// It writes only [`REC_MAGIC`] frames.
///
/// # Errors
///
/// Returns [`StoreError::Io`] (op `"frame"`) for a payload longer than
/// [`MAX_PAYLOAD_LEN`], leaving `out` unchanged: [`read_frame`] rejects
/// such a frame, so writing it would save a file that reads back corrupt.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) -> StoreResult<()> {
    let prologue = frame_prologue(payload)?;
    out.reserve(FRAME_PROLOGUE_LEN + payload.len());
    out.extend_from_slice(&prologue);
    out.extend_from_slice(payload);
    Ok(())
}

/// Reads the frame at the start of `bytes`: its payload and the frame's
/// whole length (prologue + payload), or what check failed.
///
/// # Errors
///
/// Names the failed check: a short prologue, a frame magic that is
/// neither [`REC_MAGIC`] nor [`REC_MAGIC_V1`], a length above
/// [`MAX_PAYLOAD_LEN`], a short payload, or a mismatch of the checksum
/// the magic names.
pub fn read_frame(bytes: &[u8]) -> Result<(&[u8], usize), &'static str> {
    let (prologue, rest) =
        bytes.split_first_chunk::<FRAME_PROLOGUE_LEN>().ok_or("truncated frame prologue")?;
    let word = |at: usize| u32::from_le_bytes(prologue[at..at + 4].try_into().expect("4 bytes"));
    let checksum: fn(&[u8]) -> u64 = match word(0) {
        REC_MAGIC => xxh64,
        REC_MAGIC_V1 => fnv1a64,
        _ => return Err("bad frame magic"),
    };
    if word(4) > MAX_PAYLOAD_LEN {
        return Err("absurd length");
    }
    let payload = rest.get(..word(4) as usize).ok_or("truncated payload")?;
    if checksum(payload) != u64::from_le_bytes(prologue[8..].try_into().expect("8 bytes")) {
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
/// then renamed over `path`, so a crash leaves either the old file or
/// the new one — never a mix. No fsync (see the module docs).
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
    /// Returns [`StoreError::Io`] on filesystem failures; an `open`
    /// failure names `path`. Corruption is not an error — it is reported
    /// through [`Recovery`].
    pub fn open(path: &Path) -> StoreResult<(Self, Recovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StoreError::Io {
                op: "open",
                message: format!("{}: {e}", path.display()),
            })?;
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

    /// A v1 frame: [`REC_MAGIC_V1`] and the FNV-1a checksum.
    fn put_frame_v1(out: &mut Vec<u8>, payload: &[u8]) {
        out.extend_from_slice(&REC_MAGIC_V1.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }

    /// xxHash64 transcribed statement by statement from the
    /// specification (doc/xxhash_spec.md in the xxHash repository), with
    /// a seed: the reference [`xxh64`] is checked against.
    fn xxh64_spec(input: &[u8], seed: u64) -> u64 {
        fn read64(input: &[u8], at: usize) -> u64 {
            let mut v = 0u64;
            for k in (0..8).rev() {
                v = (v << 8) | u64::from(input[at + k]);
            }
            v
        }
        fn round(acc: u64, lane: u64) -> u64 {
            let acc = acc.wrapping_add(lane.wrapping_mul(P2));
            let acc = acc.rotate_left(31);
            acc.wrapping_mul(P1)
        }
        fn merge_accumulator(acc: u64, acc_n: u64) -> u64 {
            let acc = acc ^ round(0, acc_n);
            acc.wrapping_mul(P1).wrapping_add(P4)
        }
        let len = input.len();
        let mut p = 0;
        // Step 1 and 2: initialize and process stripes.
        let mut acc = if len < 32 {
            seed.wrapping_add(P5)
        } else {
            let mut acc1 = seed.wrapping_add(P1).wrapping_add(P2);
            let mut acc2 = seed.wrapping_add(P2);
            let mut acc3 = seed;
            let mut acc4 = seed.wrapping_sub(P1);
            while p + 32 <= len {
                acc1 = round(acc1, read64(input, p));
                acc2 = round(acc2, read64(input, p + 8));
                acc3 = round(acc3, read64(input, p + 16));
                acc4 = round(acc4, read64(input, p + 24));
                p += 32;
            }
            // Step 3: accumulator convergence.
            let mut acc = acc1
                .rotate_left(1)
                .wrapping_add(acc2.rotate_left(7))
                .wrapping_add(acc3.rotate_left(12))
                .wrapping_add(acc4.rotate_left(18));
            acc = merge_accumulator(acc, acc1);
            acc = merge_accumulator(acc, acc2);
            acc = merge_accumulator(acc, acc3);
            merge_accumulator(acc, acc4)
        };
        // Step 4: add the input length.
        acc = acc.wrapping_add(len as u64);
        // Step 5: consume the remaining input.
        while len - p >= 8 {
            acc ^= round(0, read64(input, p));
            acc = acc.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            p += 8;
        }
        if len - p >= 4 {
            let lane = (0..4).rev().fold(0u64, |v, k| (v << 8) | u64::from(input[p + k]));
            acc ^= lane.wrapping_mul(P1);
            acc = acc.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            p += 4;
        }
        while p < len {
            acc ^= u64::from(input[p]).wrapping_mul(P5);
            acc = acc.rotate_left(11).wrapping_mul(P1);
            p += 1;
        }
        // Step 6: final mix (avalanche).
        acc ^= acc >> 33;
        acc = acc.wrapping_mul(P2);
        acc ^= acc >> 29;
        acc = acc.wrapping_mul(P3);
        acc ^= acc >> 32;
        acc
    }

    #[test]
    fn xxh64_matches_published_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition"), 0xFBCE_A83C_8A37_8BF1);
        for v in [&b""[..], b"a", b"abc", b"Nobody inspects the spammish repetition"] {
            assert_eq!(xxh64_spec(v, 0), xxh64(v), "the transcription agrees on {v:?}");
        }
    }

    #[test]
    fn xxh64_matches_the_spec_at_every_length_and_tail() {
        // Lengths 0..=256 cover every stripe count up to 8 with every
        // 8-byte/4-byte/1-byte tail combination.
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let mut bytes = vec![0u8; 256];
        for round in 0..4 {
            rng.fill_bytes(&mut bytes);
            for len in 0..=bytes.len() {
                let input = &bytes[..len];
                assert_eq!(xxh64(input), xxh64_spec(input, 0), "round {round}, len {len}");
            }
        }
    }

    #[test]
    fn xxh64_matches_the_spec_on_a_checkpoint_sized_buffer_from_every_alignment() {
        // The stripe loop reads fixed-size chunks: every start offset
        // within a stripe must hash as the byte-wise transcription does.
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut bytes = vec![0u8; 300 * 1024 + 64];
        rng.fill_bytes(&mut bytes);
        for start in 0..32 {
            let input = &bytes[start..start + 300 * 1024 + start % 5];
            assert_eq!(xxh64(input), xxh64_spec(input, 0), "start {start}");
        }
        // Short inputs at an odd address: every length up to 8 stripes.
        for len in 0..=256 {
            let input = &bytes[1..1 + len];
            assert_eq!(xxh64(input), xxh64_spec(input, 0), "odd start, len {len}");
        }
    }

    #[test]
    fn both_frame_versions_read_and_name_a_checksum_mismatch() {
        let mut v1 = Vec::new();
        put_frame_v1(&mut v1, b"payload");
        let mut v2 = Vec::new();
        put_frame(&mut v2, b"payload").unwrap();
        assert_eq!(v2[..4], *b"CSB2");
        assert_eq!(v1[..4], *b"CSBO");
        assert_eq!(v2[8..16], xxh64(b"payload").to_le_bytes());
        for frame in [&v1, &v2] {
            assert_eq!(read_frame(frame), Ok((&b"payload"[..], frame.len())));
            let mut bad = frame.clone();
            *bad.last_mut().unwrap() ^= 0x01;
            assert_eq!(read_frame(&bad), Err("checksum mismatch"));
            let mut bad = frame.clone();
            bad[8] ^= 0x01; // the stored checksum itself
            assert_eq!(read_frame(&bad), Err("checksum mismatch"));
        }
        // A magic names its own checksum, never the other one.
        let mut swapped = v1.clone();
        swapped[..4].copy_from_slice(&REC_MAGIC.to_le_bytes());
        assert_eq!(read_frame(&swapped), Err("checksum mismatch"));
        let mut swapped = v2.clone();
        swapped[..4].copy_from_slice(&REC_MAGIC_V1.to_le_bytes());
        assert_eq!(read_frame(&swapped), Err("checksum mismatch"));
    }

    #[test]
    fn a_v1_log_takes_v2_appends_and_stays_valid() {
        let dir = std::env::temp_dir().join(format!("clite-store-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.log");
        let mut img = header(FILE_MAGIC, FORMAT_VERSION).to_vec();
        put_frame_v1(&mut img, b"alpha");
        put_frame_v1(&mut img, b"beta");
        std::fs::write(&path, &img).unwrap();

        let (mut log, rec) = LogFile::open(&path).unwrap();
        assert_eq!(rec.payloads, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(rec.dropped_bytes, 0);
        log.append(b"gamma").unwrap();
        drop(log);

        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[..img.len()], img[..], "the v1 frames are left as they were");
        let (_, rec) = LogFile::open(&path).unwrap();
        assert_eq!(rec.payloads, vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()]);
        assert_eq!(rec.dropped_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
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
