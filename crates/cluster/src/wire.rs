//! Wire codecs for durable fleet state: journal entries and checkpoints.
//!
//! Written in the `clite-store` codec dialect (bounds-checked
//! little-endian [`Reader`], flags, presence-flagged optionals,
//! count-prefixed sequences, workload codes) so the fleet's durability
//! layer speaks the same dialect as the observation log instead of
//! inventing a second framing. Journal entries and checkpoint payloads v1
//! and v2 write their integers fixed-width, as the log does; checkpoint
//! payload v3 writes every count, id, index and counter as a canonical
//! LEB128 varint and keeps floats and node seeds fixed-width. Two payload
//! families live here:
//!
//! * **Journal entries** — one per [`TimedEvent`], written ahead of the
//!   mutation they describe (see [`crate::recovery::DurableFleet`]). An
//!   entry carries the pre-decided *disposition* (applied vs shed) and the
//!   arrival-burst backlog the decision was made under, so replay re-derives
//!   the exact same admission sequence without the original trace.
//! * **Checkpoints** — a full [`FleetCheckpoint`] snapshot of the service,
//!   scheduler, and every node, written as a [`clite_store::blob`] into
//!   whichever of two copies does not hold the newest one (see
//!   [`crate::recovery`]). Recovery loads the newest valid checkpoint and
//!   replays the journal suffix; a corrupt checkpoint degrades to a full
//!   replay, never an abort. A node's committed outcome — most of a
//!   checkpoint's bytes — is a shared, immutable [`CommittedOutcome`]
//!   that encodes itself once, so a checkpoint copies bytes instead of
//!   re-encoding nodes that have not changed since the last one.
//!
//! Every decoder is total and strict: it returns a [`DecodeError`] naming
//! the offset and expectation, never panics, never reads past its slice,
//! and accepts only canonical bytes — whatever it decodes re-encodes to
//! exactly the bytes it read. These bytes are read exactly when something
//! already went wrong.

use std::sync::{Arc, OnceLock};

use clite::score::{ScoreBreakdown, ScoreMode};
use clite::trace::{CliteOutcome, SampleRecord};
use clite_sim::alloc::{JobAllocation, Partition};
use clite_sim::load::LoadSchedule;
use clite_sim::metrics::Observation;
use clite_sim::resource::{ResourceCatalog, NUM_RESOURCES};
use clite_sim::server::JobSpec;
use clite_sim::workload::WorkloadProfile;
use clite_store::codec::{
    partition_from_rows, put_bool, put_f64, put_job_observation, put_opt, put_seq, put_u64, put_u8,
    put_varint, put_varint_seq, read_job_observation, read_observation, read_partition_rows,
    workload_code, workload_from_code, DecodeError, Reader, MAX_JOBS,
};

use crate::event::{FleetEvent, TimedEvent};
use crate::fleet::FleetCounters;
use crate::node::PlacedJob;

/// Checkpoint blob magic (8 bytes, mirrors the `CLITESTO` log magic).
pub const CKPT_MAGIC: &[u8; 8] = b"CLITECKP";
/// Checkpoint payload format version written today: version 2's fields
/// with varint integers. Version 2 wrote them fixed-width; version 1 also
/// carried a mean-field template (its solved epoch and target load), an
/// epoch-solve counter and a window-debt queue. [`decode_checkpoint`]
/// still reads both.
pub const CKPT_VERSION: u32 = 3;

/// Sequence lengths above which a payload is rejected as corrupt (a
/// count this large can only come from flipped bits).
const MAX_VEC: usize = 1 << 20;

/// How a payload writes its integers (counts, ids, indices, counters):
/// fixed-width little-endian in journal entries and checkpoint payloads
/// v1 and v2, canonical LEB128 varints in checkpoint payload v3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ints {
    Fixed,
    Varint,
}

impl Ints {
    /// The integer form of checkpoint payload `version` (1 to
    /// [`CKPT_VERSION`]).
    fn of_checkpoint(version: u32, r: &Reader<'_>) -> Result<Self, DecodeError> {
        match version {
            1 | 2 => Ok(Self::Fixed),
            3 => Ok(Self::Varint),
            _ => Err(r.fail("checkpoint version")),
        }
    }

    #[inline]
    fn put_seq<T>(self, buf: &mut Vec<u8>, items: &[T], put: impl FnMut(&mut Vec<u8>, &T)) {
        match self {
            Self::Fixed => put_seq(buf, items, put),
            Self::Varint => put_varint_seq(buf, items, put),
        }
    }

    fn u64(self, r: &mut Reader<'_>, expected: &'static str) -> Result<u64, DecodeError> {
        match self {
            Self::Fixed => r.u64(expected),
            Self::Varint => r.varint(expected),
        }
    }

    fn usize(self, r: &mut Reader<'_>, expected: &'static str) -> Result<usize, DecodeError> {
        usize::try_from(self.u64(r, expected)?).map_err(|_| r.fail(expected))
    }

    fn seq<T>(
        self,
        r: &mut Reader<'_>,
        max: usize,
        expected: &'static str,
        read: impl FnMut(&mut Reader<'_>) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        match self {
            Self::Fixed => r.seq(max, expected, read),
            Self::Varint => r.varint_seq(max, expected, read),
        }
    }
}

/// Appends a count, id or index as payload v3 writes it.
#[inline]
fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_varint(buf, v as u64);
}

// ── journal entries ──────────────────────────────────────────────────────

/// One recovered journal entry: the event, the disposition decided before
/// it was applied, and the arrival backlog that decision saw.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// `true` when the admission path shed this arrival instead of
    /// probing nodes (low-priority arrival under overload).
    pub shed: bool,
    /// Same-tick arrival backlog at decision time (events still queued
    /// behind this one with the same timestamp).
    pub backlog: u64,
    /// The event itself.
    pub event: TimedEvent,
}

/// Encodes one journal entry (disposition, backlog, event).
#[must_use]
pub fn encode_journal_entry(shed: bool, backlog: u64, event: &TimedEvent) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_bool(&mut buf, shed);
    put_u64(&mut buf, backlog);
    put_event(&mut buf, event);
    buf
}

/// Decodes one journal entry.
///
/// # Errors
///
/// Returns [`DecodeError`] on any malformed byte; trailing garbage is
/// rejected.
pub fn decode_journal_entry(payload: &[u8]) -> Result<JournalEntry, DecodeError> {
    let mut r = Reader::new(payload);
    let shed = r.bool("disposition")?;
    let backlog = r.u64("backlog")?;
    let event = read_event(&mut r)?;
    if !r.done() {
        return Err(r.fail("end of journal entry"));
    }
    Ok(JournalEntry { shed, backlog, event })
}

// ── events ───────────────────────────────────────────────────────────────

fn put_event(buf: &mut Vec<u8>, event: &TimedEvent) {
    put_u64(buf, event.at);
    match &event.event {
        FleetEvent::Arrival { spec } => {
            put_u8(buf, 0);
            put_job_spec(buf, spec, Ints::Fixed);
        }
        FleetEvent::Departure { job } => {
            put_u8(buf, 1);
            put_u64(buf, *job);
        }
        FleetEvent::LoadShift { job, load } => {
            put_u8(buf, 2);
            put_u64(buf, *job);
            put_load(buf, load, Ints::Fixed);
        }
        FleetEvent::Onboard { nodes } => {
            put_u8(buf, 3);
            put_u64(buf, *nodes as u64);
        }
    }
}

fn read_event(r: &mut Reader<'_>) -> Result<TimedEvent, DecodeError> {
    let at = r.u64("event tick")?;
    let fixed = Ints::Fixed;
    let event = match r.u8("event tag")? {
        0 => FleetEvent::Arrival { spec: read_job_spec(r, fixed)? },
        1 => FleetEvent::Departure { job: r.u64("job id")? },
        2 => FleetEvent::LoadShift { job: r.u64("job id")?, load: read_load(r, fixed)? },
        3 => FleetEvent::Onboard { nodes: fixed.usize(r, "onboard count")? },
        _ => return Err(r.fail("event tag")),
    };
    Ok(TimedEvent::new(at, event))
}

fn put_load(buf: &mut Vec<u8>, load: &LoadSchedule, ints: Ints) {
    let put_pairs = |buf: &mut Vec<u8>, pairs: &[(f64, f64)]| {
        ints.put_seq(buf, pairs, |buf, &(a, b)| {
            put_f64(buf, a);
            put_f64(buf, b);
        });
    };
    match load {
        LoadSchedule::Constant(l) => {
            put_u8(buf, 0);
            put_f64(buf, *l);
        }
        LoadSchedule::Steps(phases) => {
            put_u8(buf, 1);
            put_pairs(buf, phases);
        }
        LoadSchedule::Ramp { from, to, duration_s } => {
            put_u8(buf, 2);
            put_f64(buf, *from);
            put_f64(buf, *to);
            put_f64(buf, *duration_s);
        }
        LoadSchedule::Diurnal { base, amplitude, period_s } => {
            put_u8(buf, 3);
            put_f64(buf, *base);
            put_f64(buf, *amplitude);
            put_f64(buf, *period_s);
        }
        LoadSchedule::Trace(points) => {
            put_u8(buf, 4);
            put_pairs(buf, points);
        }
    }
}

fn read_load(r: &mut Reader<'_>, ints: Ints) -> Result<LoadSchedule, DecodeError> {
    let pairs = |r: &mut Reader<'_>| {
        ints.seq(r, MAX_VEC, "pair count", |r| Ok((r.f64("pair")?, r.f64("pair")?)))
    };
    Ok(match r.u8("load tag")? {
        0 => LoadSchedule::Constant(r.f64("load")?),
        1 => LoadSchedule::Steps(pairs(r)?),
        2 => LoadSchedule::Ramp {
            from: r.f64("ramp")?,
            to: r.f64("ramp")?,
            duration_s: r.f64("ramp")?,
        },
        3 => LoadSchedule::Diurnal {
            base: r.f64("diurnal")?,
            amplitude: r.f64("diurnal")?,
            period_s: r.f64("diurnal")?,
        },
        4 => LoadSchedule::Trace(pairs(r)?),
        _ => return Err(r.fail("load tag")),
    })
}

fn put_job_spec(buf: &mut Vec<u8>, spec: &JobSpec, ints: Ints) {
    put_u8(buf, workload_code(spec.workload));
    put_load(buf, &spec.load, ints);
    put_opt(buf, spec.profile_override.as_ref(), put_profile);
}

fn read_job_spec(r: &mut Reader<'_>, ints: Ints) -> Result<JobSpec, DecodeError> {
    Ok(JobSpec {
        workload: workload_from_code(r)?,
        load: read_load(r, ints)?,
        profile_override: r.opt("profile presence", read_profile)?,
    })
}

fn put_profile(buf: &mut Vec<u8>, p: &WorkloadProfile) {
    put_u8(buf, workload_code(p.id));
    for v in [
        p.cpu_time_us,
        p.parallel_frac,
        p.mem_time_us,
        p.disk_time_us,
        p.hit_max,
        p.ways_sat,
        p.working_set_frac,
        p.thrash_exp,
        p.mem_intensity,
        p.disk_intensity,
        p.net_time_us,
        p.net_intensity,
    ] {
        put_f64(buf, v);
    }
}

fn read_profile(r: &mut Reader<'_>) -> Result<WorkloadProfile, DecodeError> {
    Ok(WorkloadProfile {
        id: workload_from_code(r)?,
        cpu_time_us: r.f64("profile")?,
        parallel_frac: r.f64("profile")?,
        mem_time_us: r.f64("profile")?,
        disk_time_us: r.f64("profile")?,
        hit_max: r.f64("profile")?,
        ways_sat: r.f64("profile")?,
        working_set_frac: r.f64("profile")?,
        thrash_exp: r.f64("profile")?,
        mem_intensity: r.f64("profile")?,
        disk_intensity: r.f64("profile")?,
        net_time_us: r.f64("profile")?,
        net_intensity: r.f64("profile")?,
    })
}

// ── controller outcomes ──────────────────────────────────────────────────
//
// Outcomes are encoded only in payload v3 (the writers below) and decoded
// in every version (the readers take the payload's [`Ints`]).

/// Partition rows as payload v3 writes them: a varint row count, then
/// each row's units as varints. The store log keeps its fixed-width form
/// ([`clite_store::codec::put_partition_rows`]).
fn put_partition(buf: &mut Vec<u8>, partition: &Partition) {
    put_varint_seq(buf, partition.rows(), |buf, row| {
        for u in row.all_units() {
            put_varint(buf, u64::from(u));
        }
    });
}

/// Reads partition rows under `catalog`, validating feasibility.
fn read_partition(
    r: &mut Reader<'_>,
    catalog: ResourceCatalog,
    ints: Ints,
) -> Result<Partition, DecodeError> {
    if ints == Ints::Fixed {
        return read_partition_rows(r, catalog);
    }
    let rows = r.varint_seq(MAX_JOBS, "partition row count", |r| {
        let mut units = [0u32; NUM_RESOURCES];
        for u in &mut units {
            *u = u32::try_from(r.varint("partition units")?)
                .map_err(|_| r.fail("partition units"))?;
        }
        Ok(JobAllocation::from_units(units))
    })?;
    partition_from_rows(r, catalog, rows)
}

/// An observation window as payload v3 writes it: the store log's layout
/// ([`clite_store::codec::put_observation`]) with a varint job count.
fn put_observation(buf: &mut Vec<u8>, observation: &Observation) {
    put_f64(buf, observation.time_s);
    put_f64(buf, observation.window_s);
    put_varint_seq(buf, &observation.jobs, put_job_observation);
}

fn read_observation_as(r: &mut Reader<'_>, ints: Ints) -> Result<Observation, DecodeError> {
    if ints == Ints::Fixed {
        return read_observation(r);
    }
    let time_s = r.f64("observation time")?;
    let window_s = r.f64("observation window")?;
    let jobs = r.varint_seq(MAX_JOBS, "observation job count", read_job_observation)?;
    if jobs.is_empty() {
        return Err(r.fail("observation job count"));
    }
    Ok(Observation { time_s, window_s, jobs })
}

fn put_score(buf: &mut Vec<u8>, s: &ScoreBreakdown) {
    put_f64(buf, s.value);
    put_bool(buf, s.mode == ScoreMode::QosMet);
    for ratios in [&s.lc_ratios, &s.bg_ratios] {
        put_varint_seq(buf, ratios, |buf, &x| put_f64(buf, x));
    }
}

fn read_score(r: &mut Reader<'_>, ints: Ints) -> Result<ScoreBreakdown, DecodeError> {
    let ratios = |r: &mut Reader<'_>| ints.seq(r, MAX_VEC, "f64 vec", |r| r.f64("f64 vec"));
    Ok(ScoreBreakdown {
        value: r.f64("score value")?,
        mode: if r.bool("score mode")? { ScoreMode::QosMet } else { ScoreMode::QosViolated },
        lc_ratios: ratios(r)?,
        bg_ratios: ratios(r)?,
    })
}

fn put_sample(buf: &mut Vec<u8>, s: &SampleRecord) {
    put_usize(buf, s.index);
    put_bool(buf, s.bootstrap);
    put_partition(buf, &s.partition);
    put_observation(buf, &s.observation);
    put_score(buf, &s.score);
    put_opt(buf, s.expected_improvement, put_f64);
    put_opt(buf, s.frozen_job, put_usize);
}

fn read_sample(
    r: &mut Reader<'_>,
    catalog: ResourceCatalog,
    ints: Ints,
) -> Result<SampleRecord, DecodeError> {
    Ok(SampleRecord {
        index: ints.usize(r, "sample index")?,
        bootstrap: r.bool("bootstrap flag")?,
        partition: read_partition(r, catalog, ints)?,
        observation: read_observation_as(r, ints)?,
        score: read_score(r, ints)?,
        expected_improvement: r.opt("expected improvement", |r| r.f64("expected improvement"))?,
        frozen_job: r.opt("frozen presence", |r| ints.usize(r, "frozen job"))?,
    })
}

/// Encodes a [`CliteOutcome`] minus its overhead report.
///
/// Wall-clock phase timings are observability, not scheduler state: no
/// byte-identity witness reads them, and serializing nanoseconds would
/// make checkpoints nondeterministic. [`CommittedOutcome`] drops the
/// report at commit, so live and restored outcomes both carry
/// `overhead: None`.
fn put_outcome(buf: &mut Vec<u8>, o: &CliteOutcome) {
    put_partition(buf, &o.best_partition);
    put_f64(buf, o.best_score);
    put_varint_seq(buf, &o.samples, put_sample);
    put_bool(buf, o.converged);
    put_varint_seq(buf, &o.infeasible_jobs, |buf, &j| put_usize(buf, j));
    put_opt(buf, o.samples_to_qos, put_usize);
    put_usize(buf, o.quarantined);
}

fn read_outcome(
    r: &mut Reader<'_>,
    catalog: ResourceCatalog,
    ints: Ints,
) -> Result<CliteOutcome, DecodeError> {
    Ok(CliteOutcome {
        best_partition: read_partition(r, catalog, ints)?,
        best_score: r.f64("best score")?,
        samples: ints.seq(r, MAX_VEC, "sample count", |r| read_sample(r, catalog, ints))?,
        converged: r.bool("converged flag")?,
        infeasible_jobs: ints
            .seq(r, MAX_VEC, "infeasible count", |r| ints.usize(r, "infeasible job"))?,
        samples_to_qos: r.opt("qos presence", |r| ints.usize(r, "samples to qos"))?,
        quarantined: ints.usize(r, "quarantined")?,
        overhead: None,
    })
}

// ── snapshots ────────────────────────────────────────────────────────────

/// A node's committed search outcome as the node and its checkpoints
/// hold it: the [`CliteOutcome`] minus its wall-clock overhead report,
/// plus its checkpoint bytes, encoded on first use and kept.
///
/// A record is immutable once built — a commit installs a new one — so
/// the node and every [`NodeSnapshot`] of it share one `Arc` and the
/// memoized bytes can never go stale.
pub struct CommittedOutcome {
    outcome: CliteOutcome,
    wire: OnceLock<Vec<u8>>,
}

impl CommittedOutcome {
    /// Wraps a search outcome, dropping its overhead report.
    #[must_use]
    pub fn new(mut outcome: CliteOutcome) -> Self {
        outcome.overhead = None;
        Self { outcome, wire: OnceLock::new() }
    }

    /// The committed outcome (`overhead` is always `None`).
    #[must_use]
    pub fn outcome(&self) -> &CliteOutcome {
        &self.outcome
    }

    /// The outcome's checkpoint encoding, computed once.
    fn wire_bytes(&self) -> &[u8] {
        self.wire.get_or_init(|| {
            let mut buf = Vec::new();
            put_outcome(&mut buf, &self.outcome);
            buf
        })
    }
}

/// Records are equal when their outcomes are: the memo is a cache.
impl PartialEq for CommittedOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.outcome == other.outcome
    }
}

impl std::fmt::Debug for CommittedOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommittedOutcome").field("outcome", &self.outcome).finish_non_exhaustive()
    }
}

/// Restorable state of one node: everything future admissions and the
/// statistics witness depend on. The testbed factory, catalog, and store
/// handle are reattached by the restoring scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSnapshot {
    /// Node id within the cluster.
    pub id: usize,
    /// The node's search-seed base.
    pub seed: u64,
    /// Whether the node is in service.
    pub alive: bool,
    /// Committed state changes so far (drives the next search seed).
    pub commits: u64,
    /// Searches charged to the node.
    pub searches_run: usize,
    /// Observation windows spent.
    pub samples_spent: u64,
    /// Committed jobs in placement order, shared with the node.
    pub jobs: Arc<[PlacedJob]>,
    /// The committed outcome, if any, shared with the node.
    pub last_outcome: Option<Arc<CommittedOutcome>>,
}

/// Restorable state of the scheduler: its id counters plus every node.
/// The job index and cluster statistics are re-derived on restore.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerSnapshot {
    /// Next job id to assign.
    pub next_job_id: u64,
    /// Jobs rejected so far.
    pub rejected: u64,
    /// Orphans successfully re-homed.
    pub replaced: u64,
    /// Base seed (node `i` searches from `base_seed + 1000·i`).
    pub base_seed: u64,
    /// Every node, founding and onboarded, in id order.
    pub nodes: Vec<NodeSnapshot>,
}

/// A full checkpoint of the durable fleet at a journal boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCheckpoint {
    /// Events applied when the checkpoint was taken; recovery replays the
    /// journal suffix starting at this seqno.
    pub seqno: u64,
    /// Clock tick at checkpoint time.
    pub clock_now: u64,
    /// Fleet counters (the `replacements` field stores the scheduler's
    /// live count; `epoch_solves` is not encoded and reads 0).
    pub counters: FleetCounters,
    /// Per-arrival placements so far (the byte-identity witness prefix).
    pub placements: Vec<Option<usize>>,
    /// The scheduler and its nodes.
    pub scheduler: SchedulerSnapshot,
}

/// Encodes a checkpoint payload of format [`CKPT_VERSION`] (wrap in
/// [`clite_store::blob::save`] with [`CKPT_MAGIC`]/[`CKPT_VERSION`] for the
/// durable file). Each outcome's bytes come from its [`CommittedOutcome`]
/// memo.
#[must_use]
pub fn encode_checkpoint(c: &FleetCheckpoint) -> Vec<u8> {
    // Size the buffer once: the memoized outcomes exactly (encoding any
    // not yet memoized), everything else by a per-item bound.
    let nodes = &c.scheduler.nodes;
    let outcomes: usize =
        nodes.iter().filter_map(|n| n.last_outcome.as_ref()).map(|o| o.wire_bytes().len()).sum();
    let jobs: usize = nodes.iter().map(|n| n.jobs.len()).sum();
    let mut buf = Vec::with_capacity(
        256 + 11 * c.placements.len() + 64 * nodes.len() + 128 * jobs + outcomes,
    );
    put_varint(&mut buf, c.seqno);
    put_varint(&mut buf, c.clock_now);
    let k = &c.counters;
    for v in [
        k.arrivals,
        k.placed,
        k.departures,
        k.load_shifts,
        k.stale_events,
        k.nodes_onboarded,
        k.replacements,
        k.arrivals_shed,
    ] {
        put_varint(&mut buf, v);
    }
    put_varint_seq(&mut buf, &c.placements, |buf, &p| put_opt(buf, p, put_usize));
    let s = &c.scheduler;
    put_varint(&mut buf, s.next_job_id);
    put_varint(&mut buf, s.rejected);
    put_varint(&mut buf, s.replaced);
    put_u64(&mut buf, s.base_seed);
    put_varint_seq(&mut buf, &s.nodes, |buf, n| {
        put_usize(buf, n.id);
        put_u64(buf, n.seed);
        put_bool(buf, n.alive);
        put_varint(buf, n.commits);
        put_usize(buf, n.searches_run);
        put_varint(buf, n.samples_spent);
        put_varint_seq(buf, &n.jobs, |buf, job| {
            put_varint(buf, job.id);
            put_job_spec(buf, &job.spec, Ints::Varint);
        });
        put_opt(buf, n.last_outcome.as_ref(), |buf, o| buf.extend_from_slice(o.wire_bytes()));
    });
    buf
}

/// The seqno a checkpoint payload of format `version` covers, read
/// without decoding the rest: recovery compares its two copies by it and
/// decodes only the one it starts from.
///
/// # Errors
///
/// Returns [`DecodeError`] on an unknown version or a malformed seqno.
pub fn checkpoint_seqno(payload: &[u8], version: u32) -> Result<u64, DecodeError> {
    let mut r = Reader::new(payload);
    Ints::of_checkpoint(version, &r)?.u64(&mut r, "ckpt seqno")
}

/// Decodes a checkpoint payload of format `version` (1 to
/// [`CKPT_VERSION`]). Version 2 differs from version 3 only in its
/// fixed-width integers. A version 1 payload's template, epoch-solve
/// counter and window-debt queue are read and discarded, so it decodes
/// to the checkpoint its later equivalents hold.
///
/// # Errors
///
/// Returns [`DecodeError`] on any malformed byte or an unknown version;
/// trailing garbage is rejected. Callers treat a decode failure as "no
/// usable checkpoint" and fall back to a full journal replay.
pub fn decode_checkpoint(payload: &[u8], version: u32) -> Result<FleetCheckpoint, DecodeError> {
    let catalog = ResourceCatalog::testbed();
    let mut r = Reader::new(payload);
    let ints = Ints::of_checkpoint(version, &r)?;
    let v1 = version == 1;
    let seqno = ints.u64(&mut r, "ckpt seqno")?;
    let clock_now = ints.u64(&mut r, "clock")?;
    if v1 {
        r.opt("solved epoch", |r| r.u64("solved epoch"))?;
        r.opt("target pct", |r| r.u64("target pct"))?;
    }
    let mut counters = FleetCounters {
        arrivals: ints.u64(&mut r, "counters")?,
        placed: ints.u64(&mut r, "counters")?,
        departures: ints.u64(&mut r, "counters")?,
        load_shifts: ints.u64(&mut r, "counters")?,
        stale_events: ints.u64(&mut r, "counters")?,
        nodes_onboarded: ints.u64(&mut r, "counters")?,
        ..FleetCounters::default()
    };
    if v1 {
        r.u64("counters")?;
    }
    counters.replacements = ints.u64(&mut r, "counters")?;
    counters.arrivals_shed = ints.u64(&mut r, "counters")?;
    let placements = ints.seq(&mut r, MAX_VEC, "placement count", |r| {
        r.opt("placement", |r| ints.usize(r, "placement"))
    })?;
    if v1 {
        r.seq(MAX_VEC, "debt count", |r| r.u64("debt"))?;
    }
    let scheduler = SchedulerSnapshot {
        next_job_id: ints.u64(&mut r, "next job id")?,
        rejected: ints.u64(&mut r, "rejected")?,
        replaced: ints.u64(&mut r, "replaced")?,
        base_seed: r.u64("base seed")?,
        nodes: ints.seq(&mut r, MAX_VEC, "node count", |r| {
            Ok(NodeSnapshot {
                id: ints.usize(r, "node id")?,
                seed: r.u64("node seed")?,
                alive: r.bool("alive flag")?,
                commits: ints.u64(r, "commits")?,
                searches_run: ints.usize(r, "searches run")?,
                samples_spent: ints.u64(r, "samples spent")?,
                jobs: ints
                    .seq(r, MAX_VEC, "job count", |r| {
                        Ok(PlacedJob { id: ints.u64(r, "job id")?, spec: read_job_spec(r, ints)? })
                    })?
                    .into(),
                last_outcome: r.opt("outcome presence", |r| {
                    Ok(Arc::new(CommittedOutcome::new(read_outcome(r, catalog, ints)?)))
                })?,
            })
        })?,
    };
    if !r.done() {
        return Err(r.fail("end of checkpoint"));
    }
    Ok(FleetCheckpoint { seqno, clock_now, counters, placements, scheduler })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clite_sim::workload::WorkloadId;

    fn sample_events() -> Vec<TimedEvent> {
        vec![
            TimedEvent::new(
                1,
                FleetEvent::Arrival { spec: JobSpec::latency_critical(WorkloadId::Memcached, 0.3) },
            ),
            TimedEvent::new(
                2,
                FleetEvent::Arrival {
                    spec: JobSpec::latency_critical_scheduled(
                        WorkloadId::Xapian,
                        LoadSchedule::Diurnal { base: 0.4, amplitude: 0.2, period_s: 60.0 },
                    ),
                },
            ),
            TimedEvent::new(3, FleetEvent::Departure { job: 7 }),
            TimedEvent::new(
                4,
                FleetEvent::LoadShift {
                    job: 1,
                    load: LoadSchedule::Steps(vec![(0.0, 0.1), (5.0, 0.5)]),
                },
            ),
            TimedEvent::new(5, FleetEvent::Onboard { nodes: 3 }),
        ]
    }

    #[test]
    fn journal_entries_round_trip() {
        for (i, event) in sample_events().iter().enumerate() {
            let shed = i % 2 == 0;
            let bytes = encode_journal_entry(shed, i as u64, event);
            let entry = decode_journal_entry(&bytes).unwrap();
            assert_eq!(entry.shed, shed);
            assert_eq!(entry.backlog, i as u64);
            assert_eq!(&entry.event, event);
        }
    }

    #[test]
    fn journal_entry_rejects_truncation_at_every_offset() {
        let bytes = encode_journal_entry(false, 2, &sample_events()[1]);
        for cut in 0..bytes.len() {
            assert!(
                decode_journal_entry(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        assert!(decode_journal_entry(&bytes).is_ok());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(decode_journal_entry(&trailing).is_err(), "trailing garbage rejected");
    }

    #[test]
    fn checkpoint_round_trips() {
        let ckpt = sample_checkpoint();
        let bytes = encode_checkpoint(&ckpt);
        assert_eq!(decode_checkpoint(&bytes, CKPT_VERSION).unwrap(), ckpt);
        for cut in 0..bytes.len() {
            assert!(decode_checkpoint(&bytes[..cut], CKPT_VERSION).is_err(), "truncation at {cut}");
        }
        assert_eq!(decode_checkpoint(&bytes, 4).unwrap_err().expected, "checkpoint version");
        assert_eq!(decode_checkpoint(&bytes, 0).unwrap_err().expected, "checkpoint version");
        assert_eq!(checkpoint_seqno(&bytes, CKPT_VERSION), Ok(9));
        assert!(checkpoint_seqno(&bytes, 4).is_err());
    }

    /// `sample_checkpoint()` as payload v2 wrote it: v3's fields with
    /// every integer fixed-width.
    fn sample_v2() -> Vec<u8> {
        let c = sample_checkpoint();
        let mut v2 = Vec::new();
        let k = &c.counters;
        for v in [c.seqno, c.clock_now, k.arrivals, k.placed, k.departures, k.load_shifts] {
            put_u64(&mut v2, v);
        }
        for v in [k.stale_events, k.nodes_onboarded, k.replacements, k.arrivals_shed] {
            put_u64(&mut v2, v);
        }
        put_seq(&mut v2, &c.placements, |buf, &p| put_opt(buf, p, |buf, p| put_u64(buf, p as u64)));
        let s = &c.scheduler;
        for v in [s.next_job_id, s.rejected, s.replaced, s.base_seed] {
            put_u64(&mut v2, v);
        }
        put_seq(&mut v2, &s.nodes, |buf, n| {
            put_u64(buf, n.id as u64);
            put_u64(buf, n.seed);
            put_bool(buf, n.alive);
            for v in [n.commits, n.searches_run as u64, n.samples_spent] {
                put_u64(buf, v);
            }
            put_seq(buf, &n.jobs, |buf, job| {
                put_u64(buf, job.id);
                put_job_spec(buf, &job.spec, Ints::Fixed);
            });
            assert!(n.last_outcome.is_none(), "the sample holds no outcome");
            put_bool(buf, false);
        });
        v2
    }

    #[test]
    fn versions_1_and_2_decode_to_the_version_3_state() {
        let ckpt = sample_checkpoint();
        let v2 = sample_v2();
        assert!(encode_checkpoint(&ckpt).len() < v2.len() / 2, "varints halve this payload");
        assert_eq!(decode_checkpoint(&v2, 2).unwrap(), ckpt);
        assert_eq!(checkpoint_seqno(&v2, 2), Ok(9));
        assert!(decode_checkpoint(&v2, CKPT_VERSION).is_err(), "v2 bytes are not v3");
        // The v1 layout is v2's with four fields more: a solved epoch and
        // a template target after the clock, an epoch-solve counter after
        // `nodes_onboarded`, and a debt queue after the placements.
        let (head, rest) = v2.split_at(16 + 6 * 8);
        let (tail_counters, rest) = rest.split_at(2 * 8);
        let (placements, scheduler) = rest.split_at(4 + 9 + 1 + 9);
        let mut v1 = head[..16].to_vec();
        put_opt(&mut v1, Some(2), put_u64);
        put_opt(&mut v1, Some(40), put_u64);
        v1.extend_from_slice(&head[16..]);
        put_u64(&mut v1, 7);
        v1.extend_from_slice(tail_counters);
        v1.extend_from_slice(placements);
        put_seq(&mut v1, &[12u64, 7], |buf, &d| put_u64(buf, d));
        v1.extend_from_slice(scheduler);
        assert_eq!(decode_checkpoint(&v1, 1).unwrap(), ckpt);
        for (version, bytes) in [(1, &v1), (2, &v2)] {
            for cut in 0..bytes.len() {
                assert!(decode_checkpoint(&bytes[..cut], version).is_err(), "v{version} cut {cut}");
            }
        }
    }

    fn sample_checkpoint() -> FleetCheckpoint {
        FleetCheckpoint {
            seqno: 9,
            clock_now: 17,
            counters: FleetCounters {
                arrivals: 5,
                placed: 4,
                arrivals_shed: 1,
                ..Default::default()
            },
            placements: vec![Some(0), None, Some(3)],
            scheduler: SchedulerSnapshot {
                next_job_id: 5,
                rejected: 1,
                replaced: 0,
                base_seed: 42,
                nodes: vec![NodeSnapshot {
                    id: 0,
                    seed: 42,
                    alive: true,
                    commits: 3,
                    searches_run: 4,
                    samples_spent: 61,
                    jobs: Arc::new([PlacedJob {
                        id: 2,
                        spec: JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
                    }]),
                    last_outcome: None,
                }],
            },
        }
    }
}
