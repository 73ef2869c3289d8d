//! Binary encoding of store records.
//!
//! Hand-rolled little-endian framing instead of JSON: the payload must be
//! byte-deterministic (the same record always encodes to the same bytes,
//! so checksums and golden files are stable), must round-trip `f64`s
//! bit-exactly (including values JSON printers mangle), and is scanned
//! byte-by-byte during crash recovery, where a typed decoder that *returns*
//! errors — never panics and never reads past its slice — is the whole
//! safety argument.
//!
//! Layout is versioned by the log header (see [`crate::log`]); this module
//! implements payload version 1. Its integers are fixed-width. The
//! varint writers ([`put_varint`], [`put_varint_seq`]) serve denser
//! downstream payloads (the fleet checkpoint's payload v3); no store
//! record uses them.

use clite_sim::alloc::{JobAllocation, Partition};
use clite_sim::counters::CounterSample;
use clite_sim::metrics::{JobObservation, Observation};
use clite_sim::resource::{ResourceCatalog, ResourceKind, NUM_RESOURCES};
use clite_sim::workload::{JobClass, WorkloadId};

use crate::signature::{JobSignature, MixSignature};
use crate::StoreRecord;

/// Decode failure: what went wrong and where in the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset within the payload at which decoding failed.
    pub offset: usize,
    /// What the decoder expected there.
    pub expected: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt record payload at byte {}: expected {}", self.offset, self.expected)
    }
}

impl std::error::Error for DecodeError {}

/// Jobs per record above which a payload is rejected as corrupt (a length
/// prefix this large can only come from flipped bits).
pub const MAX_JOBS: usize = 1024;

// ── primitive writers ────────────────────────────────────────────────────
//
// The writers and `Reader` are public: downstream codecs (the fleet
// checkpoint in `clite-cluster`) reuse the exact same wire idiom rather
// than inventing a second framing dialect. The primitive writers are
// `#[inline]` so those codecs' thousands of calls per checkpoint inline
// across the crate boundary instead of each paying a call.

/// Appends one byte.
#[inline]
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a `u32` in little-endian byte order.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian byte order.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its little-endian bit pattern (bit-exact round
/// trip, unlike any decimal printing).
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as canonical unsigned LEB128: seven bits a byte, the low
/// group first, the high bit set on every byte but the last. Values below
/// 128 take one byte and `u64::MAX` takes ten.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Appends a flag as one byte: `0` or `1`.
#[inline]
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, u8::from(v));
}

/// Appends an optional value as a presence flag plus, when present, the
/// value written by `put`.
pub fn put_opt<T>(buf: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    put_bool(buf, v.is_some());
    if let Some(x) = v {
        put(buf, x);
    }
}

/// Appends a sequence as a `u32` count plus each item written by `put`.
pub fn put_seq<T>(buf: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(buf, items.len() as u32);
    for x in items {
        put(buf, x);
    }
}

/// Appends a sequence as a [`put_varint`] count plus each item written by
/// `put`.
pub fn put_varint_seq<T>(buf: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_varint(buf, items.len() as u64);
    for x in items {
        put(buf, x);
    }
}

// ── primitive readers ────────────────────────────────────────────────────

/// A bounds-checked little-endian reader over one payload slice.
///
/// Every accessor returns a [`DecodeError`] naming the offset and the
/// expectation instead of panicking or reading past the slice — the whole
/// crash-recovery safety argument in one type.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// A decode error at the current position.
    #[must_use]
    pub fn fail(&self, expected: &'static str) -> DecodeError {
        DecodeError { offset: self.pos, expected }
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize, expected: &'static str) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.fail(expected))?;
        if end > self.buf.len() {
            return Err(self.fail(expected));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] at end of input.
    pub fn u8(&mut self, expected: &'static str) -> Result<u8, DecodeError> {
        Ok(self.bytes(1, expected)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if fewer than 4 bytes remain.
    pub fn u32(&mut self, expected: &'static str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.bytes(4, expected)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if fewer than 8 bytes remain.
    pub fn u64(&mut self, expected: &'static str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.bytes(8, expected)?.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if fewer than 8 bytes remain.
    pub fn f64(&mut self, expected: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.bytes(8, expected)?.try_into().expect("8 bytes")))
    }

    /// Reads a value written by [`put_varint`]. Only the canonical form is
    /// accepted, so every value has exactly one encoding.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] at end of input, on an overlong encoding (a
    /// last byte of zero after the first), or on bits past the 64th.
    pub fn varint(&mut self, expected: &'static str) -> Result<u64, DecodeError> {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8(expected)?;
            // The tenth byte holds bit 63 alone and ends the value.
            if shift == 63 && byte > 1 {
                break;
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    break;
                }
                return Ok(v);
            }
        }
        Err(self.fail(expected))
    }

    /// Reads a flag written by [`put_bool`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] at end of input or on a byte other than
    /// `0` or `1`.
    pub fn bool(&mut self, expected: &'static str) -> Result<bool, DecodeError> {
        match self.u8(expected)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.fail(expected)),
        }
    }

    /// Reads an optional value written by [`put_opt`], decoding a present
    /// value with `read`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on a malformed presence flag or whatever
    /// `read` rejects.
    pub fn opt<T>(
        &mut self,
        expected: &'static str,
        read: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        Ok(if self.bool(expected)? { Some(read(self)?) } else { None })
    }

    /// Reads a sequence written by [`put_seq`], decoding each item with
    /// `read`. A count above `max` can only come from flipped bits and is
    /// rejected before anything is allocated for it.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on a count above `max`, short input, or
    /// whatever `read` rejects.
    pub fn seq<T>(
        &mut self,
        max: usize,
        expected: &'static str,
        read: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.u32(expected)?;
        self.items(u64::from(n), max, expected, read)
    }

    /// Reads a sequence written by [`put_varint_seq`], like [`Reader::seq`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on a malformed or over-`max` count, short
    /// input, or whatever `read` rejects.
    pub fn varint_seq<T>(
        &mut self,
        max: usize,
        expected: &'static str,
        read: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.varint(expected)?;
        self.items(n, max, expected, read)
    }

    /// The `n` items after a sequence count, rejecting `n` above `max`
    /// before anything is allocated for them.
    fn items<T>(
        &mut self,
        n: u64,
        max: usize,
        expected: &'static str,
        mut read: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = usize::try_from(n).ok().filter(|&n| n <= max).ok_or_else(|| self.fail(expected))?;
        let mut items = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            items.push(read(self)?);
        }
        Ok(items)
    }

    /// True once the whole slice has been consumed (decoders require this
    /// so trailing garbage is rejected, not silently ignored).
    #[must_use]
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ── domain types ─────────────────────────────────────────────────────────

/// The stable wire code of a workload (its index in [`WorkloadId::ALL`]).
#[must_use]
pub fn workload_code(w: WorkloadId) -> u8 {
    WorkloadId::ALL.iter().position(|&x| x == w).expect("workload in ALL") as u8
}

/// Reads a workload code back.
///
/// # Errors
///
/// Returns [`DecodeError`] on an out-of-range code.
pub fn workload_from_code(r: &mut Reader<'_>) -> Result<WorkloadId, DecodeError> {
    let code = r.u8("workload code")?;
    WorkloadId::ALL.get(code as usize).copied().ok_or_else(|| r.fail("workload code"))
}

fn class_code(c: JobClass) -> u8 {
    match c {
        JobClass::LatencyCritical => 0,
        JobClass::Background => 1,
    }
}

fn class_from_code(r: &mut Reader<'_>) -> Result<JobClass, DecodeError> {
    match r.u8("job class code")? {
        0 => Ok(JobClass::LatencyCritical),
        1 => Ok(JobClass::Background),
        _ => Err(r.fail("job class code")),
    }
}

fn put_counters(buf: &mut Vec<u8>, c: &CounterSample) {
    put_f64(buf, c.cpu_utilization);
    put_f64(buf, c.llc_hit_rate);
    put_f64(buf, c.mem_bw_used_frac);
    put_f64(buf, c.ipc_proxy);
    put_f64(buf, c.capacity_pressure);
    put_f64(buf, c.disk_bw_used_frac);
    put_f64(buf, c.net_bw_used_frac);
}

fn read_counters(r: &mut Reader<'_>) -> Result<CounterSample, DecodeError> {
    Ok(CounterSample {
        cpu_utilization: r.f64("counters")?,
        llc_hit_rate: r.f64("counters")?,
        mem_bw_used_frac: r.f64("counters")?,
        ipc_proxy: r.f64("counters")?,
        capacity_pressure: r.f64("counters")?,
        disk_bw_used_frac: r.f64("counters")?,
        net_bw_used_frac: r.f64("counters")?,
    })
}

/// Encodes partition rows (units only; the catalog travels separately).
pub fn put_partition_rows(buf: &mut Vec<u8>, partition: &Partition) {
    put_seq(buf, partition.rows(), |buf, row| {
        for u in row.all_units() {
            put_u32(buf, u);
        }
    });
}

/// Reads partition rows back under `catalog`, validating feasibility.
///
/// # Errors
///
/// Returns [`DecodeError`] on short input, an absurd row count, or rows
/// that do not form a feasible partition of `catalog`.
pub fn read_partition_rows(
    r: &mut Reader<'_>,
    catalog: ResourceCatalog,
) -> Result<Partition, DecodeError> {
    let rows = jobs(r, "partition row count", |r| {
        let mut units = [0u32; NUM_RESOURCES];
        for u in &mut units {
            *u = r.u32("partition units")?;
        }
        Ok(JobAllocation::from_units(units))
    })?;
    partition_from_rows(r, catalog, rows)
}

/// Decoded `rows` as a partition of `catalog`. Every unit count must be
/// within the catalog's first, so that no bytes, however damaged, can
/// overflow the `u32` column sums [`Partition::from_rows`] checks.
///
/// # Errors
///
/// Returns [`DecodeError`] when the rows do not form a feasible partition
/// of `catalog`.
pub fn partition_from_rows(
    r: &Reader<'_>,
    catalog: ResourceCatalog,
    rows: Vec<JobAllocation>,
) -> Result<Partition, DecodeError> {
    let within =
        |row: &JobAllocation| ResourceKind::ALL.iter().all(|&k| row.units(k) <= catalog.units(k));
    if !rows.iter().all(within) {
        return Err(r.fail("feasible partition rows"));
    }
    Partition::from_rows(catalog, rows).map_err(|_| r.fail("feasible partition rows"))
}

/// Encodes one observation window (times, then per-job records).
pub fn put_observation(buf: &mut Vec<u8>, observation: &Observation) {
    put_f64(buf, observation.time_s);
    put_f64(buf, observation.window_s);
    put_seq(buf, &observation.jobs, put_job_observation);
}

/// Encodes one job's record of an observation window: the per-job body
/// of [`put_observation`].
pub fn put_job_observation(buf: &mut Vec<u8>, j: &JobObservation) {
    put_u8(buf, workload_code(j.workload));
    put_u8(buf, class_code(j.class));
    put_f64(buf, j.latency_p95_us);
    put_f64(buf, j.offered_qps);
    put_f64(buf, j.normalized_perf);
    put_u8(
        buf,
        match j.qos_met {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        },
    );
    put_opt(buf, j.qos_target_us, put_f64);
    put_opt(buf, j.iso_latency_p95_us, put_f64);
    put_counters(buf, &j.counters);
}

/// Reads one observation window back.
///
/// # Errors
///
/// Returns [`DecodeError`] on any malformed byte.
pub fn read_observation(r: &mut Reader<'_>) -> Result<Observation, DecodeError> {
    let time_s = r.f64("observation time")?;
    let window_s = r.f64("observation window")?;
    let jobs = jobs(r, "observation job count", read_job_observation)?;
    Ok(Observation { time_s, window_s, jobs })
}

/// Reads one job's record written by [`put_job_observation`].
///
/// # Errors
///
/// Returns [`DecodeError`] on any malformed byte.
pub fn read_job_observation(r: &mut Reader<'_>) -> Result<JobObservation, DecodeError> {
    Ok(JobObservation {
        workload: workload_from_code(r)?,
        class: class_from_code(r)?,
        latency_p95_us: r.f64("latency")?,
        offered_qps: r.f64("offered qps")?,
        normalized_perf: r.f64("normalized perf")?,
        qos_met: match r.u8("qos met flag")? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            _ => return Err(r.fail("qos met flag")),
        },
        qos_target_us: r.opt("qos target", |r| r.f64("qos target"))?,
        iso_latency_p95_us: r.opt("iso latency", |r| r.f64("iso latency"))?,
        counters: read_counters(r)?,
    })
}

/// A per-job sequence: at least one and at most [`MAX_JOBS`] items.
fn jobs<T>(
    r: &mut Reader<'_>,
    expected: &'static str,
    read: impl FnMut(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let items = r.seq(MAX_JOBS, expected, read)?;
    if items.is_empty() {
        return Err(r.fail(expected));
    }
    Ok(items)
}

/// Encodes one record into the payload byte form framed by the log.
#[must_use]
pub fn encode_record(record: &StoreRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);

    // Signature: catalog units, then one entry per job.
    for u in record.signature.catalog {
        put_u32(&mut buf, u);
    }
    put_seq(&mut buf, &record.signature.jobs, |buf, j| {
        put_u8(buf, workload_code(j.workload));
        put_u8(buf, class_code(j.class));
        put_u64(buf, j.qos_decius);
        put_u32(buf, j.load_pct);
    });

    // Partition rows (the catalog is the signature's), then observation.
    put_partition_rows(&mut buf, &record.partition);
    put_observation(&mut buf, &record.observation);

    put_f64(&mut buf, record.score);
    buf
}

/// Decodes one payload back into a record, validating every structural
/// invariant (workload codes, partition feasibility, exact length).
///
/// # Errors
///
/// Returns [`DecodeError`] on any malformed byte; never panics and never
/// reads out of bounds, whatever the input.
pub fn decode_record(payload: &[u8]) -> Result<StoreRecord, DecodeError> {
    let mut r = Reader::new(payload);

    let mut catalog = [0u32; NUM_RESOURCES];
    for u in &mut catalog {
        *u = r.u32("catalog units")?;
    }
    let jobs = jobs(&mut r, "signature job count", |r| {
        Ok(JobSignature {
            workload: workload_from_code(r)?,
            class: class_from_code(r)?,
            qos_decius: r.u64("qos target")?,
            load_pct: r.u32("load percent")?,
        })
    })?;
    let signature = MixSignature { catalog, jobs };

    let cat = ResourceCatalog::new(catalog).map_err(|_| r.fail("valid catalog"))?;
    let partition = read_partition_rows(&mut r, cat)?;
    let observation = read_observation(&mut r)?;

    let score = r.f64("score")?;
    if !r.done() {
        return Err(r.fail("end of payload"));
    }
    Ok(StoreRecord { signature, partition, observation, score })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::MixSignature;
    use clite_sim::prelude::*;
    use clite_sim::testbed::Testbed;

    fn sample_record() -> StoreRecord {
        let jobs = vec![
            JobSpec::latency_critical(WorkloadId::Memcached, 0.4),
            JobSpec::background(WorkloadId::Blackscholes),
        ];
        let mut server = Server::new(ResourceCatalog::testbed(), jobs, 1).unwrap();
        let partition = Partition::equal_share(Testbed::catalog(&server), 2).unwrap();
        let observation = server.observe(&partition);
        let signature = MixSignature::capture(&server);
        StoreRecord { signature, partition, observation, score: 0.625 }
    }

    #[test]
    fn round_trips_a_real_record() {
        let rec = sample_record();
        let payload = encode_record(&rec);
        let back = decode_record(&payload).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn encoding_is_deterministic() {
        let rec = sample_record();
        assert_eq!(encode_record(&rec), encode_record(&rec));
    }

    #[test]
    fn truncated_payload_errors_cleanly() {
        let payload = encode_record(&sample_record());
        for cut in 0..payload.len() {
            assert!(decode_record(&payload[..cut]).is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn flags_optionals_and_sequences_round_trip_and_stay_strict() {
        let mut buf = Vec::new();
        put_bool(&mut buf, true);
        put_opt(&mut buf, Some(7u64), put_u64);
        put_opt(&mut buf, None::<u64>, put_u64);
        put_seq(&mut buf, &[1.5f64, -2.0], |buf, &x| put_f64(buf, x));
        let mut r = Reader::new(&buf);
        assert!(r.bool("flag").unwrap());
        assert_eq!(r.opt("some", |r| r.u64("some")).unwrap(), Some(7));
        assert_eq!(r.opt("none", |r| r.u64("none")).unwrap(), None);
        assert_eq!(r.seq(2, "seq", |r| r.f64("seq")).unwrap(), vec![1.5, -2.0]);
        assert!(r.done());

        assert!(Reader::new(&[2]).bool("flag").is_err(), "a flag is 0 or 1");
        assert!(Reader::new(&[2, 0]).opt("opt", |r| r.u8("x")).is_err());
        let over = u32::MAX.to_le_bytes();
        let err = Reader::new(&over).seq(2, "seq count", |r| r.u8("x")).unwrap_err();
        assert_eq!((err.offset, err.expected), (4, "seq count"), "over-cap count rejected");
    }

    #[test]
    fn varints_are_canonical_leb128() {
        let values =
            [0, 1, 127, 128, 300, 16_383, 16_384, u64::from(u32::MAX), u64::MAX - 1, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            let start = buf.len();
            put_varint(&mut buf, v);
            let len = buf.len() - start;
            assert_eq!(len, (64 - v.leading_zeros() as usize).div_ceil(7).max(1), "{v}");
        }
        assert_eq!(buf[..4], [0, 1, 0x7f, 0x80], "low group first, high bit continues");
        let mut r = Reader::new(&buf);
        for &v in &values {
            assert_eq!(r.varint("v").unwrap(), v);
        }
        assert!(r.done());
        // Every truncation of a multi-byte value fails, and so does every
        // non-canonical spelling: a zero last byte after the first, or bits
        // past the 64th.
        let mut max = Vec::new();
        put_varint(&mut max, u64::MAX);
        for cut in 0..max.len() {
            assert!(Reader::new(&max[..cut]).varint("v").is_err(), "cut at {cut}");
        }
        for bad in [
            &[0x80, 0x00][..],
            &[0x81, 0x80, 0x00],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
        ] {
            assert!(Reader::new(bad).varint("v").is_err(), "{bad:x?}");
        }
        let mut seq = Vec::new();
        put_varint_seq(&mut seq, &[5u8, 6], |buf, &x| put_u8(buf, x));
        assert_eq!(seq, [2, 5, 6]);
        assert_eq!(Reader::new(&seq).varint_seq(2, "seq", |r| r.u8("x")).unwrap(), [5, 6]);
        let err = Reader::new(&seq).varint_seq(1, "seq count", |r| r.u8("x")).unwrap_err();
        assert_eq!((err.offset, err.expected), (1, "seq count"), "over-cap count rejected");
    }

    #[test]
    fn unit_counts_that_would_wrap_the_column_sums_are_rejected() {
        // Each column sums to the catalog's count plus 2^32: summed in
        // `u32` it would overflow (a panic in a debug build) or wrap to a
        // match.
        let catalog = ResourceCatalog::testbed();
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        for u in [u32::MAX; NUM_RESOURCES] {
            put_u32(&mut buf, u);
        }
        for kind in ResourceKind::ALL {
            put_u32(&mut buf, catalog.units(kind) + 1);
        }
        let err = read_partition_rows(&mut Reader::new(&buf), catalog).unwrap_err();
        assert_eq!(err.expected, "feasible partition rows");
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut payload = encode_record(&sample_record());
        payload.push(0);
        assert!(decode_record(&payload).is_err());
    }

    #[test]
    fn bad_workload_code_rejected() {
        let rec = sample_record();
        let mut payload = encode_record(&rec);
        // First job's workload code sits right after the 6 catalog u32s
        // and the u32 job count.
        let off = NUM_RESOURCES * 4 + 4;
        payload[off] = 200;
        assert!(decode_record(&payload).is_err());
    }
}
