//! Wire codecs for durable fleet state: journal entries and checkpoints.
//!
//! Written in the `clite-store` codec dialect (bounds-checked
//! little-endian [`Reader`], flags, presence-flagged optionals,
//! count-prefixed sequences, workload codes) so the fleet's durability
//! layer speaks the same dialect as the observation log instead of
//! inventing a second framing. Two payload families live here:
//!
//! * **Journal entries** — one per [`TimedEvent`], written ahead of the
//!   mutation they describe (see [`crate::recovery::DurableFleet`]). An
//!   entry carries the pre-decided *disposition* (applied vs shed) and the
//!   arrival-burst backlog the decision was made under, so replay re-derives
//!   the exact same admission sequence without the original trace.
//! * **Checkpoints** — a full [`FleetCheckpoint`] snapshot of the service,
//!   scheduler, and every node, written crash-safely (side copy first)
//!   via [`clite_store::blob`]. Recovery loads the newest valid checkpoint and
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
use clite_sim::load::LoadSchedule;
use clite_sim::resource::ResourceCatalog;
use clite_sim::server::JobSpec;
use clite_sim::workload::WorkloadProfile;
use clite_store::codec::{
    put_bool, put_f64, put_observation, put_opt, put_partition_rows, put_seq, put_u64, put_u8,
    read_observation, read_partition_rows, workload_code, workload_from_code, DecodeError, Reader,
};

use crate::event::{FleetEvent, TimedEvent};
use crate::fleet::FleetCounters;
use crate::node::PlacedJob;

/// Checkpoint blob magic (8 bytes, mirrors the `CLITESTO` log magic).
pub const CKPT_MAGIC: &[u8; 8] = b"CLITECKP";
/// Checkpoint payload format version written today. Version 1 also
/// carried a mean-field template (its solved epoch and target load), an
/// epoch-solve counter and a window-debt queue; [`decode_checkpoint`]
/// still reads it and discards those fields.
pub const CKPT_VERSION: u32 = 2;

/// Sequence lengths above which a payload is rejected as corrupt (a
/// count this large can only come from flipped bits).
const MAX_VEC: usize = 1 << 20;

fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

fn read_usize(r: &mut Reader<'_>, expected: &'static str) -> Result<usize, DecodeError> {
    usize::try_from(r.u64(expected)?).map_err(|_| r.fail(expected))
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
            put_job_spec(buf, spec);
        }
        FleetEvent::Departure { job } => {
            put_u8(buf, 1);
            put_u64(buf, *job);
        }
        FleetEvent::LoadShift { job, load } => {
            put_u8(buf, 2);
            put_u64(buf, *job);
            put_load(buf, load);
        }
        FleetEvent::Onboard { nodes } => {
            put_u8(buf, 3);
            put_usize(buf, *nodes);
        }
    }
}

fn read_event(r: &mut Reader<'_>) -> Result<TimedEvent, DecodeError> {
    let at = r.u64("event tick")?;
    let event = match r.u8("event tag")? {
        0 => FleetEvent::Arrival { spec: read_job_spec(r)? },
        1 => FleetEvent::Departure { job: r.u64("job id")? },
        2 => FleetEvent::LoadShift { job: r.u64("job id")?, load: read_load(r)? },
        3 => FleetEvent::Onboard { nodes: read_usize(r, "onboard count")? },
        _ => return Err(r.fail("event tag")),
    };
    Ok(TimedEvent::new(at, event))
}

fn put_load(buf: &mut Vec<u8>, load: &LoadSchedule) {
    let put_pairs = |buf: &mut Vec<u8>, pairs: &[(f64, f64)]| {
        put_seq(buf, pairs, |buf, &(a, b)| {
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

fn read_load(r: &mut Reader<'_>) -> Result<LoadSchedule, DecodeError> {
    let pairs =
        |r: &mut Reader<'_>| r.seq(MAX_VEC, "pair count", |r| Ok((r.f64("pair")?, r.f64("pair")?)));
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

fn put_job_spec(buf: &mut Vec<u8>, spec: &JobSpec) {
    put_u8(buf, workload_code(spec.workload));
    put_load(buf, &spec.load);
    put_opt(buf, spec.profile_override.as_ref(), put_profile);
}

fn read_job_spec(r: &mut Reader<'_>) -> Result<JobSpec, DecodeError> {
    Ok(JobSpec {
        workload: workload_from_code(r)?,
        load: read_load(r)?,
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

fn put_score(buf: &mut Vec<u8>, s: &ScoreBreakdown) {
    put_f64(buf, s.value);
    put_bool(buf, s.mode == ScoreMode::QosMet);
    for ratios in [&s.lc_ratios, &s.bg_ratios] {
        put_seq(buf, ratios, |buf, &x| put_f64(buf, x));
    }
}

fn read_score(r: &mut Reader<'_>) -> Result<ScoreBreakdown, DecodeError> {
    let ratios = |r: &mut Reader<'_>| r.seq(MAX_VEC, "f64 vec", |r| r.f64("f64 vec"));
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
    put_partition_rows(buf, &s.partition);
    put_observation(buf, &s.observation);
    put_score(buf, &s.score);
    put_opt(buf, s.expected_improvement, put_f64);
    put_opt(buf, s.frozen_job, put_usize);
}

fn read_sample(r: &mut Reader<'_>, catalog: ResourceCatalog) -> Result<SampleRecord, DecodeError> {
    Ok(SampleRecord {
        index: read_usize(r, "sample index")?,
        bootstrap: r.bool("bootstrap flag")?,
        partition: read_partition_rows(r, catalog)?,
        observation: read_observation(r)?,
        score: read_score(r)?,
        expected_improvement: r.opt("expected improvement", |r| r.f64("expected improvement"))?,
        frozen_job: r.opt("frozen presence", |r| read_usize(r, "frozen job"))?,
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
    put_partition_rows(buf, &o.best_partition);
    put_f64(buf, o.best_score);
    put_seq(buf, &o.samples, put_sample);
    put_bool(buf, o.converged);
    put_seq(buf, &o.infeasible_jobs, |buf, &j| put_usize(buf, j));
    put_opt(buf, o.samples_to_qos, put_usize);
    put_usize(buf, o.quarantined);
}

fn read_outcome(r: &mut Reader<'_>, catalog: ResourceCatalog) -> Result<CliteOutcome, DecodeError> {
    Ok(CliteOutcome {
        best_partition: read_partition_rows(r, catalog)?,
        best_score: r.f64("best score")?,
        samples: r.seq(MAX_VEC, "sample count", |r| read_sample(r, catalog))?,
        converged: r.bool("converged flag")?,
        infeasible_jobs: r.seq(MAX_VEC, "infeasible count", |r| read_usize(r, "infeasible job"))?,
        samples_to_qos: r.opt("qos presence", |r| read_usize(r, "samples to qos"))?,
        quarantined: read_usize(r, "quarantined")?,
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

/// Encodes a checkpoint payload (wrap in [`clite_store::blob::save`] with
/// [`CKPT_MAGIC`]/[`CKPT_VERSION`] for the durable file). Each outcome's
/// bytes come from its [`CommittedOutcome`] memo.
#[must_use]
pub fn encode_checkpoint(c: &FleetCheckpoint) -> Vec<u8> {
    // Size the buffer once: the memoized outcomes exactly (encoding any
    // not yet memoized), everything else by a per-item bound.
    let nodes = &c.scheduler.nodes;
    let outcomes: usize =
        nodes.iter().filter_map(|n| n.last_outcome.as_ref()).map(|o| o.wire_bytes().len()).sum();
    let jobs: usize = nodes.iter().map(|n| n.jobs.len()).sum();
    let mut buf =
        Vec::with_capacity(256 + 9 * c.placements.len() + 64 * nodes.len() + 128 * jobs + outcomes);
    put_u64(&mut buf, c.seqno);
    put_u64(&mut buf, c.clock_now);
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
        put_u64(&mut buf, v);
    }
    put_seq(&mut buf, &c.placements, |buf, &p| put_opt(buf, p, put_usize));
    let s = &c.scheduler;
    put_u64(&mut buf, s.next_job_id);
    put_u64(&mut buf, s.rejected);
    put_u64(&mut buf, s.replaced);
    put_u64(&mut buf, s.base_seed);
    put_seq(&mut buf, &s.nodes, |buf, n| {
        put_usize(buf, n.id);
        put_u64(buf, n.seed);
        put_bool(buf, n.alive);
        put_u64(buf, n.commits);
        put_usize(buf, n.searches_run);
        put_u64(buf, n.samples_spent);
        put_seq(buf, &n.jobs, |buf, job| {
            put_u64(buf, job.id);
            put_job_spec(buf, &job.spec);
        });
        put_opt(buf, n.last_outcome.as_ref(), |buf, o| buf.extend_from_slice(o.wire_bytes()));
    });
    buf
}

/// Decodes a checkpoint payload of format `version` (1 or
/// [`CKPT_VERSION`]). A version 1 payload's template, epoch-solve counter
/// and window-debt queue are read and discarded, so it decodes to the
/// checkpoint its version 2 equivalent holds.
///
/// # Errors
///
/// Returns [`DecodeError`] on any malformed byte or an unknown version;
/// trailing garbage is rejected. Callers treat a decode failure as "no
/// usable checkpoint" and fall back to a full journal replay.
pub fn decode_checkpoint(payload: &[u8], version: u32) -> Result<FleetCheckpoint, DecodeError> {
    let catalog = ResourceCatalog::testbed();
    let mut r = Reader::new(payload);
    if !(1..=CKPT_VERSION).contains(&version) {
        return Err(r.fail("checkpoint version"));
    }
    let v1 = version == 1;
    let seqno = r.u64("ckpt seqno")?;
    let clock_now = r.u64("clock")?;
    if v1 {
        r.opt("solved epoch", |r| r.u64("solved epoch"))?;
        r.opt("target pct", |r| r.u64("target pct"))?;
    }
    let mut counters = FleetCounters {
        arrivals: r.u64("counters")?,
        placed: r.u64("counters")?,
        departures: r.u64("counters")?,
        load_shifts: r.u64("counters")?,
        stale_events: r.u64("counters")?,
        nodes_onboarded: r.u64("counters")?,
        ..FleetCounters::default()
    };
    if v1 {
        r.u64("counters")?;
    }
    counters.replacements = r.u64("counters")?;
    counters.arrivals_shed = r.u64("counters")?;
    let placements =
        r.seq(MAX_VEC, "placement count", |r| r.opt("placement", |r| read_usize(r, "placement")))?;
    if v1 {
        r.seq(MAX_VEC, "debt count", |r| r.u64("debt"))?;
    }
    let scheduler = SchedulerSnapshot {
        next_job_id: r.u64("next job id")?,
        rejected: r.u64("rejected")?,
        replaced: r.u64("replaced")?,
        base_seed: r.u64("base seed")?,
        nodes: r.seq(MAX_VEC, "node count", |r| {
            Ok(NodeSnapshot {
                id: read_usize(r, "node id")?,
                seed: r.u64("node seed")?,
                alive: r.bool("alive flag")?,
                commits: r.u64("commits")?,
                searches_run: read_usize(r, "searches run")?,
                samples_spent: r.u64("samples spent")?,
                jobs: r
                    .seq(MAX_VEC, "job count", |r| {
                        Ok(PlacedJob { id: r.u64("job id")?, spec: read_job_spec(r)? })
                    })?
                    .into(),
                last_outcome: r.opt("outcome presence", |r| {
                    Ok(Arc::new(CommittedOutcome::new(read_outcome(r, catalog)?)))
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
        assert_eq!(decode_checkpoint(&bytes, 3).unwrap_err().expected, "checkpoint version");
        assert_eq!(decode_checkpoint(&bytes, 0).unwrap_err().expected, "checkpoint version");
    }

    #[test]
    fn version_1_payload_decodes_to_its_version_2_state() {
        // The v1 layout is v2's with four fields more: a solved epoch and
        // a template target after the clock, an epoch-solve counter after
        // `nodes_onboarded`, and a debt queue after the placements.
        let ckpt = sample_checkpoint();
        let v2 = encode_checkpoint(&ckpt);
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
        for cut in 0..v1.len() {
            assert!(decode_checkpoint(&v1[..cut], 1).is_err(), "truncation at {cut}");
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
