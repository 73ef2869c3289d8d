//! Write-ahead fleet event journal: seqno-framed records over the
//! CLITESTO log protocol.
//!
//! The fleet service logs every event it is about to apply — as an opaque
//! payload prefixed with its commit sequence number — *before* mutating
//! scheduler state, so a crash at any instruction boundary loses at most
//! the event being journaled. Recovery reuses [`crate::log::scan`]'s
//! torn-tail protocol (longest valid prefix, never panics) and layers a
//! contiguity check on top: records must carry seqnos `0, 1, 2, …` with
//! no gaps, and anything after the first gap or undecodable record is
//! discarded and truncated away so the file on disk is always canonical.
//!
//! The journal does not know what a fleet event *is* — the event codec
//! lives with the fleet types in `clite-cluster`. This keeps the
//! dependency arrow pointing the right way (cluster → store) while the
//! durability protocol stays next to the log format it reuses.

use std::path::Path;

use crate::log::LogFile;
use crate::{StoreError, StoreResult};

/// Seqno prefix length inside each journal payload.
const SEQNO_LEN: usize = 8;

/// One recovered journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Commit sequence number (0-based, contiguous).
    pub seqno: u64,
    /// The event bytes as handed to [`EventJournal::append`].
    pub payload: Vec<u8>,
}

/// What opening an existing journal recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecovery {
    /// Every intact, seqno-contiguous record, in commit order.
    pub records: Vec<JournalRecord>,
    /// Bytes past the framing-valid prefix that the log layer dropped.
    pub dropped_bytes: u64,
    /// Framing-valid records discarded by the contiguity check (short
    /// payload, or a seqno gap — both mean the tail is not trustworthy).
    pub dropped_records: u64,
    /// True if the file header itself was missing or corrupt.
    pub header_rewritten: bool,
}

impl JournalRecovery {
    /// Whether recovery had to discard anything.
    #[must_use]
    pub fn damaged(&self) -> bool {
        self.dropped_bytes > 0 || self.dropped_records > 0 || self.header_rewritten
    }
}

/// An open write-ahead journal positioned for appends.
#[derive(Debug)]
pub struct EventJournal {
    log: LogFile,
    next_seqno: u64,
}

impl EventJournal {
    /// Opens (or creates) the journal at `path`, recovering the longest
    /// contiguous prefix of intact records.
    ///
    /// A torn tail, bit-flipped frame, or seqno gap is not an error: the
    /// valid prefix is kept, the damage reported in [`JournalRecovery`],
    /// and the file rewritten to exactly that prefix (tmp + rename) so a
    /// reopen sees a clean log.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failures only.
    pub fn open(path: &Path) -> StoreResult<(Self, JournalRecovery)> {
        let (log, rec) = LogFile::open(path)?;
        let mut records = Vec::with_capacity(rec.payloads.len());
        for (i, payload) in rec.payloads.iter().enumerate() {
            match payload.split_first_chunk::<SEQNO_LEN>() {
                Some((seqno, body)) if u64::from_le_bytes(*seqno) == i as u64 => {
                    records.push(JournalRecord { seqno: i as u64, payload: body.to_vec() });
                }
                _ => break,
            }
        }
        let dropped_records = (rec.payloads.len() - records.len()) as u64;
        let log = if dropped_records > 0 {
            // A framing-valid record with a bad seqno would survive the
            // log layer's own truncation; rewrite the file down to the
            // contiguous prefix so the damage cannot resurface.
            let keep: Vec<Vec<u8>> = rec.payloads[..records.len()].to_vec();
            LogFile::rewrite(path, &keep)?
        } else {
            log
        };
        let recovery = JournalRecovery {
            dropped_bytes: rec.dropped_bytes,
            dropped_records,
            header_rewritten: rec.header_rewritten,
            records,
        };
        let next_seqno = recovery.records.len() as u64;
        Ok((Self { log, next_seqno }, recovery))
    }

    /// The seqno the next [`EventJournal::append`] must carry.
    #[must_use]
    pub fn next_seqno(&self) -> u64 {
        self.next_seqno
    }

    /// Appends one event payload under `seqno` through
    /// [`LogFile::append`]: handed to the OS, not fsynced, so it survives
    /// a process crash but is not claimed to survive power loss.
    ///
    /// The frame is written with a single `write_all`, so a crash
    /// mid-append tears at most this record — which the next open drops.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the write fails, or
    /// [`StoreError::Io`] with op `"journal seqno"` if `seqno` is not the
    /// next expected value (a caller bug, surfaced rather than silently
    /// corrupting the contiguity invariant).
    pub fn append(&mut self, seqno: u64, payload: &[u8]) -> StoreResult<()> {
        if seqno != self.next_seqno {
            return Err(StoreError::Io {
                op: "journal seqno",
                message: format!("expected seqno {}, got {seqno}", self.next_seqno),
            });
        }
        let mut buf = Vec::with_capacity(SEQNO_LEN + payload.len());
        buf.extend_from_slice(&seqno.to_le_bytes());
        buf.extend_from_slice(payload);
        self.log.append(&buf)?;
        self.next_seqno += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("clite-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_recover_round_trip() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("fleet.journal");
        {
            let (mut j, rec) = EventJournal::open(&path).unwrap();
            assert!(rec.records.is_empty());
            j.append(0, b"alpha").unwrap();
            j.append(1, b"beta").unwrap();
            assert_eq!(j.next_seqno(), 2);
        }
        let (j, rec) = EventJournal::open(&path).unwrap();
        assert_eq!(j.next_seqno(), 2);
        assert!(!rec.damaged());
        assert_eq!(
            rec.records,
            vec![
                JournalRecord { seqno: 0, payload: b"alpha".to_vec() },
                JournalRecord { seqno: 1, payload: b"beta".to_vec() },
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_out_of_order_appends() {
        let dir = tmp_dir("order");
        let (mut j, _) = EventJournal::open(&dir.join("fleet.journal")).unwrap();
        assert!(j.append(3, b"skip").is_err());
        j.append(0, b"ok").unwrap();
        assert!(j.append(0, b"replay").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_keeps_valid_prefix() {
        let dir = tmp_dir("torn");
        let path = dir.join("fleet.journal");
        {
            let (mut j, _) = EventJournal::open(&path).unwrap();
            j.append(0, b"alpha").unwrap();
            j.append(1, b"beta").unwrap();
        }
        let img = std::fs::read(&path).unwrap();
        std::fs::write(&path, &img[..img.len() - 3]).unwrap();
        let (mut j, rec) = EventJournal::open(&path).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].payload, b"alpha");
        assert!(rec.dropped_bytes > 0);
        // The journal accepts the re-append of the lost record.
        j.append(1, b"beta again").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seqno_gap_truncates_and_rewrites() {
        let dir = tmp_dir("gap");
        let path = dir.join("fleet.journal");
        // Hand-build a log whose second record skips seqno 1.
        let mut img = log::header(log::FILE_MAGIC, log::FORMAT_VERSION).to_vec();
        for (seqno, body) in [(0u64, b"alpha".as_slice()), (2, b"gamma")] {
            let mut p = seqno.to_le_bytes().to_vec();
            p.extend_from_slice(body);
            log::put_frame(&mut img, &p).unwrap();
        }
        std::fs::write(&path, &img).unwrap();

        let (_, rec) = EventJournal::open(&path).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.dropped_records, 1);
        // The rewrite leaves a canonical file: reopening sees no damage.
        let (j, rec2) = EventJournal::open(&path).unwrap();
        assert!(!rec2.damaged());
        assert_eq!(rec2.records.len(), 1);
        assert_eq!(j.next_seqno(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_payload_is_dropped_not_panicked() {
        let dir = tmp_dir("short");
        let path = dir.join("fleet.journal");
        let mut img = log::header(log::FILE_MAGIC, log::FORMAT_VERSION).to_vec();
        log::put_frame(&mut img, b"abc").unwrap(); // < 8 bytes: no seqno
        std::fs::write(&path, &img).unwrap();
        let (j, rec) = EventJournal::open(&path).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.dropped_records, 1);
        assert_eq!(j.next_seqno(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversize_append_is_refused_and_the_seqno_stays_free() {
        let dir = tmp_dir("oversize");
        let path = dir.join("fleet.journal");
        {
            let (mut j, _) = EventJournal::open(&path).unwrap();
            j.append(0, b"alpha").unwrap();
            let err = j.append(1, &vec![0u8; log::MAX_PAYLOAD_LEN as usize]).unwrap_err();
            assert!(matches!(err, StoreError::Io { op: "frame", .. }), "{err}");
            assert_eq!(j.next_seqno(), 1);
            j.append(1, b"beta").unwrap();
        }
        let (_, rec) = EventJournal::open(&path).unwrap();
        assert!(!rec.damaged());
        let payloads: Vec<&[u8]> = rec.records.iter().map(|r| r.payload.as_slice()).collect();
        assert_eq!(payloads, [b"alpha".as_slice(), b"beta"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
