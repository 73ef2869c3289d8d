//! Durable fleet recovery: write-ahead journal and checkpoint/restore.
//!
//! [`DurableFleet`] wraps a [`FleetService`] with the WAL discipline the
//! store's log already proved out: every event is framed, checksummed, and
//! written to the **event journal** *before* it mutates scheduler state,
//! and every `checkpoint_every` applied events the whole service is
//! snapshotted to a **checkpoint** blob ([`blob::save`]), written once,
//! in place. Neither write is fsynced: both survive a process crash, not
//! a power loss (DESIGN.md §8, "Durability, exactly").
//!
//! The checkpoint is crash-safe because there are two copies of it,
//! `fleet.ckpt` and `fleet.ckpt.side` ([`CheckpointCopy`]), and each write
//! goes to the copy that does *not* hold the newest checkpoint; a fresh
//! fleet writes `fleet.ckpt` first. A kill during a write tears only that
//! copy, and the other still holds the previous checkpoint, so recovery
//! replays at most `2 × checkpoint_every` journal records. Recovery reads
//! both copies, takes the valid one with the higher seqno that is not
//! ahead of the journal, and decodes only that one ([`RecoveryInfo`]
//! says which copy it used and why it passed over the other). Directories
//! written when every save wrote both copies hold the same checkpoint
//! twice, and recover from `fleet.ckpt`.
//!
//! Recovery is then mechanical: load the newest usable checkpoint (with
//! none usable, start from an empty fleet), replay the journal suffix
//! through the exact same event-handling code, and continue. Because every input to
//! the scheduler is deterministic — probe seeds are pure functions of
//! committed state, shedding decisions are journaled with the backlog they
//! saw — the recovered run's [`FleetRun`] witness is **byte-identical** to
//! a never-crashed run at any kill point. `crates/cluster/tests/recovery.rs`
//! proves this with a kill-at-every-k sweep.
//!
//! The identity claim holds for storeless fleets (or fleets recovered with
//! a store warmed to the same content): a shared observation store is
//! deliberately *not* checkpointed — it is a performance cache whose loss
//! costs windows, not correctness — so recovering with a fresh store can
//! legitimately spend different window counts. See DESIGN.md §15.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use clite_sim::testbed::{ServerFactory, TestbedFactory};
use clite_store::{blob, BlobRead, EventJournal, ShardedStore, StoreError};
use clite_telemetry::{Event, Telemetry};

use crate::event::TimedEvent;
use crate::fleet::{backlog_at, EventOutcome, FleetConfig, FleetRun, FleetService};
use crate::wire::{
    checkpoint_seqno, decode_checkpoint, decode_journal_entry, encode_checkpoint,
    encode_journal_entry, FleetCheckpoint, CKPT_MAGIC, CKPT_VERSION,
};
use crate::ClusterError;

pub use clite_faults::{CrashPlan, CrashPoint};

/// Durability policy for a [`DurableFleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableConfig {
    /// Write a checkpoint every this many applied events (`0` = journal
    /// only, recovery replays from the start).
    pub checkpoint_every: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        Self { checkpoint_every: 8 }
    }
}

/// How a [`DurableFleet::run`] ended.
#[derive(Debug, Clone, PartialEq)]
pub enum DurableOutcome {
    /// The trace ran to completion.
    Completed(FleetRun),
    /// The injected [`CrashPlan`] fired; the process "died" with this many
    /// events applied (the journal may be one record ahead).
    Killed {
        /// Events applied before the kill.
        applied: u64,
    },
}

/// One of the two checkpoint files a [`DurableFleet`] alternates between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointCopy {
    /// `fleet.ckpt`, the copy a fresh fleet writes first.
    Main,
    /// `fleet.ckpt.side`.
    Side,
}

impl CheckpointCopy {
    /// Both copies, in the order [`RecoveryInfo::copies`] lists them.
    pub const BOTH: [Self; 2] = [Self::Main, Self::Side];

    /// The copy's file name in the fleet directory.
    #[must_use]
    pub fn file_name(self) -> &'static str {
        match self {
            Self::Main => "fleet.ckpt",
            Self::Side => "fleet.ckpt.side",
        }
    }

    /// The other copy.
    #[must_use]
    pub fn other(self) -> Self {
        match self {
            Self::Main => Self::Side,
            Self::Side => Self::Main,
        }
    }
}

/// What recovery made of one checkpoint copy: used, or passed over and
/// why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyStatus {
    /// Recovery started from this copy's checkpoint.
    Used,
    /// No file.
    Missing,
    /// The file fails a blob check (magic, version, framing, checksum),
    /// or its checksummed payload does not decode.
    Corrupt {
        /// What check failed.
        reason: &'static str,
    },
    /// A valid checkpoint past the end of the (possibly truncated)
    /// journal: starting from it would skip events recovery cannot
    /// replay.
    AheadOfJournal {
        /// The checkpoint's seqno.
        seqno: u64,
    },
    /// A valid checkpoint no newer than the one used (in a directory
    /// whose every save wrote both copies, the same one).
    Older {
        /// The checkpoint's seqno.
        seqno: u64,
    },
}

impl std::fmt::Display for CopyStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Used => write!(f, "used"),
            Self::Missing => write!(f, "missing"),
            Self::Corrupt { reason } => write!(f, "corrupt ({reason})"),
            Self::AheadOfJournal { seqno } => write!(f, "ahead of the journal (seq {seqno})"),
            Self::Older { seqno } => write!(f, "not newer (seq {seqno})"),
        }
    }
}

/// What recovery found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Seqno of the checkpoint recovery started from (0 = none usable).
    pub checkpoint_seqno: u64,
    /// Journal records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Whether the journal had a torn tail or other damage that recovery
    /// truncated away.
    pub journal_damaged: bool,
    /// What recovery made of each checkpoint copy, in
    /// [`CheckpointCopy::BOTH`] order.
    pub copies: [CopyStatus; 2],
}

impl RecoveryInfo {
    /// The copy recovery started from, or `None` after a full replay.
    #[must_use]
    pub fn copy(&self) -> Option<CheckpointCopy> {
        CheckpointCopy::BOTH.into_iter().find(|&c| self.status(c) == CopyStatus::Used)
    }

    /// What recovery made of `copy`.
    #[must_use]
    pub fn status(&self, copy: CheckpointCopy) -> CopyStatus {
        self.copies[copy as usize]
    }

    /// Why each copy not used was passed over, as `file: status` lines.
    #[must_use]
    pub fn passed_over(&self) -> Vec<String> {
        CheckpointCopy::BOTH
            .into_iter()
            .filter(|&c| self.status(c) != CopyStatus::Used)
            .map(|c| format!("{}: {}", c.file_name(), self.status(c)))
            .collect()
    }
}

/// A checksummed checkpoint copy not ahead of the journal.
struct Candidate {
    copy: CheckpointCopy,
    version: u32,
    seqno: u64,
    payload: Vec<u8>,
}

/// Reads both checkpoint copies in `dir` and decodes the newest usable
/// one: valid, not ahead of a journal of `records` records, and
/// decodable. On a tie `fleet.ckpt` wins. Returns that checkpoint and
/// what became of each copy.
fn load_checkpoint(
    dir: &Path,
    records: u64,
) -> Result<(Option<FleetCheckpoint>, [CopyStatus; 2]), ClusterError> {
    let mut copies = [CopyStatus::Missing; 2];
    let mut candidates = Vec::with_capacity(2);
    for copy in CheckpointCopy::BOTH {
        copies[copy as usize] =
            match blob::read(&dir.join(copy.file_name()), CKPT_MAGIC, 1..=CKPT_VERSION)? {
                BlobRead::Missing => CopyStatus::Missing,
                BlobRead::Corrupt { reason } => CopyStatus::Corrupt { reason },
                BlobRead::Valid { version, payload } => match checkpoint_seqno(&payload, version) {
                    Err(e) => CopyStatus::Corrupt { reason: e.expected },
                    Ok(seqno) if seqno > records => CopyStatus::AheadOfJournal { seqno },
                    Ok(seqno) => {
                        candidates.push(Candidate { copy, version, seqno, payload });
                        continue;
                    }
                },
            };
    }
    // Stable: `fleet.ckpt` stays first among equal seqnos.
    candidates.sort_by_key(|c| std::cmp::Reverse(c.seqno));
    let mut loaded = None;
    for c in candidates {
        copies[c.copy as usize] = if loaded.is_some() {
            CopyStatus::Older { seqno: c.seqno }
        } else {
            match decode_checkpoint(&c.payload, c.version) {
                Ok(checkpoint) => {
                    loaded = Some(checkpoint);
                    CopyStatus::Used
                }
                Err(e) => CopyStatus::Corrupt { reason: e.expected },
            }
        };
    }
    Ok((loaded, copies))
}

fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn io_err(op: &'static str, e: &std::io::Error) -> ClusterError {
    ClusterError::Store(StoreError::Io { op, message: e.to_string() })
}

/// A fleet service with a write-ahead event journal and periodic
/// checkpoints, recoverable to a byte-identical state after a crash at
/// any point.
#[derive(Debug)]
pub struct DurableFleet<F: TestbedFactory = ServerFactory> {
    service: FleetService<F>,
    journal: EventJournal,
    /// The checkpoint copies' paths, in [`CheckpointCopy::BOTH`] order.
    checkpoint_paths: [PathBuf; 2],
    /// The copy the next checkpoint overwrites: never the one holding
    /// the newest checkpoint.
    next_copy: CheckpointCopy,
    durable: DurableConfig,
    /// Events applied to the service so far (equals the next trace index
    /// to process; the journal's next seqno may be one ahead after a
    /// journaled-but-unapplied crash).
    applied: u64,
    placements: Vec<Option<usize>>,
    recovery: Option<RecoveryInfo>,
}

fn journal_path(dir: &Path) -> PathBuf {
    dir.join("fleet.journal")
}

fn checkpoint_paths(dir: &Path) -> [PathBuf; 2] {
    CheckpointCopy::BOTH.map(|copy| dir.join(copy.file_name()))
}

impl<F: TestbedFactory + Clone> DurableFleet<F> {
    /// Creates a fresh durable fleet in `dir`, removing any journal left
    /// by a previous run and invalidating both its checkpoint copies in
    /// place ([`blob::invalidate`]), so neither can be recovered from.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::EmptyCluster`] for zero nodes and
    /// [`ClusterError::Store`] for filesystem failures.
    pub fn create(
        nodes: usize,
        config: FleetConfig,
        seed: u64,
        factory: F,
        dir: &Path,
        durable: DurableConfig,
    ) -> Result<Self, ClusterError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create journal dir", &e))?;
        match std::fs::remove_file(journal_path(dir)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("truncate journal dir", &e)),
        }
        let checkpoint_paths = checkpoint_paths(dir);
        for path in &checkpoint_paths {
            blob::invalidate(path)?;
        }
        let (journal, _) = EventJournal::open(&journal_path(dir))?;
        let service = FleetService::with_factory(nodes, config, seed, factory)?;
        Ok(Self {
            service,
            journal,
            checkpoint_paths,
            next_copy: CheckpointCopy::Main,
            durable,
            applied: 0,
            placements: Vec::new(),
            recovery: None,
        })
    }

    /// Recovers a durable fleet from `dir`: the newest usable checkpoint
    /// copy plus the journal suffix, replayed through the normal
    /// event-handling code with the journaled backlog values. With no
    /// usable copy (missing, corrupt, or ahead of the journal) recovery
    /// degrades to a full-journal replay from a fresh `nodes`/`seed`
    /// fleet; it never aborts. The next checkpoint overwrites the copy
    /// recovery did not start from.
    ///
    /// `store`, when given, is attached to the recovered scheduler — see
    /// the module docs for why the byte-identity guarantee is storeless.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Store`] for filesystem failures or a
    /// checksummed-but-undecodable journal record, and propagates replay
    /// failures.
    #[allow(clippy::too_many_arguments)]
    pub fn recover(
        nodes: usize,
        config: FleetConfig,
        seed: u64,
        factory: F,
        dir: &Path,
        durable: DurableConfig,
        store: Option<Arc<ShardedStore>>,
        telemetry: &Telemetry<'_>,
    ) -> Result<Self, ClusterError> {
        let start = Instant::now();
        let (journal, journal_rec) = EventJournal::open(&journal_path(dir))?;
        let (checkpoint, copies) = load_checkpoint(dir, journal_rec.records.len() as u64)?;
        let (service, placements, checkpoint_seqno) = match checkpoint {
            Some(ckpt) => {
                let seqno = ckpt.seqno;
                let (service, placements) =
                    FleetService::restore(ckpt, config, factory, store.clone())?;
                (service, placements, seqno)
            }
            None => {
                let mut service = FleetService::with_factory(nodes, config, seed, factory)?;
                if let Some(handle) = store.clone() {
                    service = service.with_store(handle);
                }
                (service, Vec::new(), 0)
            }
        };
        let mut fleet = Self {
            service,
            journal,
            checkpoint_paths: checkpoint_paths(dir),
            next_copy: CheckpointCopy::Main,
            durable,
            applied: checkpoint_seqno,
            placements,
            recovery: None,
        };
        let mut replayed = 0u64;
        for record in journal_rec.records.iter().skip(checkpoint_seqno as usize) {
            let entry = decode_journal_entry(&record.payload).map_err(|e| {
                ClusterError::Store(StoreError::Io {
                    op: "decode journal entry",
                    message: e.to_string(),
                })
            })?;
            // Replay is silent: the original run already emitted these
            // events' telemetry.
            let outcome = fleet.service.handle_with_backlog(
                &entry.event,
                entry.backlog,
                &Telemetry::disabled(),
            )?;
            fleet.push_placement(&outcome);
            fleet.applied += 1;
            replayed += 1;
        }
        let info = RecoveryInfo {
            checkpoint_seqno,
            replayed,
            journal_damaged: journal_rec.damaged(),
            copies,
        };
        // Never overwrite the copy recovery started from.
        fleet.next_copy = info.copy().map_or(CheckpointCopy::Main, CheckpointCopy::other);
        telemetry.emit(Event::RecoveryReplayed {
            checkpoint_seqno,
            replayed,
            nanos: elapsed_nanos(start),
            copy: info.copy().map(|c| c.file_name().to_owned()),
            passed_over: info.passed_over(),
        });
        fleet.recovery = Some(info);
        Ok(fleet)
    }

    /// Attaches an observation store to every node (see the module docs:
    /// the byte-identity guarantee is storeless).
    #[must_use]
    pub fn with_store(mut self, store: Arc<ShardedStore>) -> Self {
        self.service = self.service.with_store(store);
        self
    }

    /// The wrapped service.
    #[must_use]
    pub fn service(&self) -> &FleetService<F> {
        &self.service
    }

    /// Events applied so far.
    #[must_use]
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// What recovery found, when this fleet was built by
    /// [`DurableFleet::recover`].
    #[must_use]
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.recovery
    }

    /// Shed arrivals accounted in the journal so far: records whose
    /// pre-apply disposition byte says "shed". The recovery tests audit
    /// this against the service counter.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Store`] on an undecodable record.
    pub fn journaled_sheds(dir: &Path) -> Result<u64, ClusterError> {
        let (_, recovered) = EventJournal::open(&journal_path(dir))?;
        let mut sheds = 0;
        for record in &recovered.records {
            let entry = decode_journal_entry(&record.payload).map_err(|e| {
                ClusterError::Store(StoreError::Io {
                    op: "decode journal entry",
                    message: e.to_string(),
                })
            })?;
            sheds += u64::from(entry.shed);
        }
        Ok(sheds)
    }

    fn push_placement(&mut self, outcome: &EventOutcome) {
        match outcome {
            EventOutcome::Placed(p) => self.placements.push(Some(p.node)),
            EventOutcome::Rejected { .. } | EventOutcome::Shed { .. } => {
                self.placements.push(None);
            }
            _ => {}
        }
    }

    /// Writes a checkpoint over the copy not holding the newest one, then
    /// points the next write at the other copy.
    fn write_checkpoint(&mut self, telemetry: &Telemetry<'_>) -> Result<(), ClusterError> {
        let start = Instant::now();
        let checkpoint = self.service.checkpoint(self.applied, &self.placements);
        let payload = encode_checkpoint(&checkpoint);
        let path = &self.checkpoint_paths[self.next_copy as usize];
        blob::save(path, CKPT_MAGIC, CKPT_VERSION, &payload)?;
        self.next_copy = self.next_copy.other();
        // Freeing the snapshot is part of the write.
        drop(checkpoint);
        telemetry.emit(Event::CheckpointWritten {
            seqno: self.applied,
            bytes: payload.len() as u64,
            nanos: elapsed_nanos(start),
        });
        Ok(())
    }

    /// Runs the trace from wherever this fleet stands (`applied` events
    /// in), journaling each event ahead of applying it and checkpointing
    /// on the configured cadence. An injected [`CrashPlan`] simulates a
    /// process kill at an exact WAL boundary — after the journal append
    /// ([`CrashPoint::Journaled`]) or after the apply
    /// ([`CrashPoint::Applied`]) — by returning [`DurableOutcome::Killed`]
    /// with all in-memory state abandoned, exactly as a real kill would.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Store`] for journal/checkpoint IO failures
    /// and propagates non-crash scheduler failures.
    pub fn run(
        &mut self,
        trace: &[TimedEvent],
        crash: Option<&CrashPlan>,
        telemetry: &Telemetry<'_>,
    ) -> Result<DurableOutcome, ClusterError> {
        for (index, event) in trace.iter().enumerate().skip(self.applied as usize) {
            let seqno = index as u64;
            let backlog = backlog_at(trace, index);
            let shed = self.service.would_shed(&event.event, backlog);
            let payload = encode_journal_entry(shed, backlog, event);
            self.journal.append(seqno, &payload)?;
            telemetry.emit(Event::JournalAppended { seqno, bytes: payload.len() as u64 });
            if crash.is_some_and(|c| c.fires(seqno, CrashPoint::Journaled)) {
                return Ok(DurableOutcome::Killed { applied: self.applied });
            }
            let outcome = self.service.handle_with_backlog(event, backlog, telemetry)?;
            debug_assert_eq!(
                matches!(outcome, EventOutcome::Shed { .. }),
                shed,
                "journaled disposition must match the applied one"
            );
            self.push_placement(&outcome);
            self.applied += 1;
            if crash.is_some_and(|c| c.fires(seqno, CrashPoint::Applied)) {
                return Ok(DurableOutcome::Killed { applied: self.applied });
            }
            if self.durable.checkpoint_every > 0
                && self.applied.is_multiple_of(self.durable.checkpoint_every)
            {
                self.write_checkpoint(telemetry)?;
            }
        }
        Ok(DurableOutcome::Completed(FleetRun {
            placements: self.placements.clone(),
            counters: self.service.counters(),
            stats: self.service.stats(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{generate, TraceConfig};
    use clite_telemetry::MemoryRecorder;
    use CrashPoint::Applied;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("clite-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_trace() -> Vec<TimedEvent> {
        generate(
            &TraceConfig {
                events: 10,
                arrival_weight: 5,
                departure_weight: 2,
                load_shift_weight: 1,
                ..TraceConfig::default()
            },
            7,
        )
    }

    fn config() -> FleetConfig {
        FleetConfig::mean_field(4, 2)
    }

    #[test]
    fn durable_run_matches_plain_service() {
        let dir = tempdir("plain");
        let trace = small_trace();
        let mut durable =
            DurableFleet::create(3, config(), 42, ServerFactory, &dir, DurableConfig::default())
                .unwrap();
        let DurableOutcome::Completed(durable_run) =
            durable.run(&trace, None, &Telemetry::disabled()).unwrap()
        else {
            panic!("no crash plan, must complete");
        };
        let mut plain = FleetService::new(3, config(), 42).unwrap();
        let plain_run = plain.run(&trace, &Telemetry::disabled()).unwrap();
        assert_eq!(durable_run, plain_run, "journaling must not perturb the run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_then_recover_is_byte_identical() {
        let trace = small_trace();
        let baseline = {
            let mut service = FleetService::new(3, config(), 42).unwrap();
            service.run(&trace, &Telemetry::disabled()).unwrap()
        };
        for point in [CrashPoint::Journaled, CrashPoint::Applied] {
            let dir = tempdir(match point {
                CrashPoint::Journaled => "kill-j",
                CrashPoint::Applied => "kill-a",
            });
            let mut fleet = DurableFleet::create(
                3,
                config(),
                42,
                ServerFactory,
                &dir,
                DurableConfig { checkpoint_every: 3 },
            )
            .unwrap();
            let plan = CrashPlan { after_event: 4, point };
            let killed = fleet.run(&trace, Some(&plan), &Telemetry::disabled()).unwrap();
            assert!(matches!(killed, DurableOutcome::Killed { .. }));
            drop(fleet);

            let sink = MemoryRecorder::new();
            let telemetry = Telemetry::new(&sink);
            let mut recovered = DurableFleet::recover(
                3,
                config(),
                42,
                ServerFactory,
                &dir,
                DurableConfig { checkpoint_every: 3 },
                None,
                &telemetry,
            )
            .unwrap();
            assert_eq!(sink.count_kind("recovery_replayed"), 1);
            let DurableOutcome::Completed(run) =
                recovered.run(&trace, None, &Telemetry::disabled()).unwrap()
            else {
                panic!("second run has no crash plan");
            };
            assert_eq!(run, baseline, "recovered run diverged at {point:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupt_checkpoint_degrades_to_full_replay() {
        let dir = tempdir("corrupt-ckpt");
        let trace = small_trace();
        let baseline = {
            let mut service = FleetService::new(3, config(), 42).unwrap();
            service.run(&trace, &Telemetry::disabled()).unwrap()
        };
        let mut fleet = DurableFleet::create(
            3,
            config(),
            42,
            ServerFactory,
            &dir,
            DurableConfig { checkpoint_every: 2 },
        )
        .unwrap();
        let plan = CrashPlan { after_event: 6, point: CrashPoint::Applied };
        fleet.run(&trace, Some(&plan), &Telemetry::disabled()).unwrap();
        drop(fleet);
        // Smash both checkpoint copies: recovery must fall back to
        // replaying the whole journal, not abort.
        std::fs::write(dir.join("fleet.ckpt"), b"garbage").unwrap();
        std::fs::write(dir.join("fleet.ckpt.side"), b"garbage").unwrap();
        let mut recovered = DurableFleet::recover(
            3,
            config(),
            42,
            ServerFactory,
            &dir,
            DurableConfig { checkpoint_every: 2 },
            None,
            &Telemetry::disabled(),
        )
        .unwrap();
        let info = recovered.recovery_info().unwrap();
        assert_eq!(info.checkpoint_seqno, 0, "corrupt checkpoint → full replay");
        assert_eq!(info.replayed, 7, "all journaled events replayed");
        assert_eq!(info.copy(), None);
        assert_eq!(info.copies, [CopyStatus::Corrupt { reason: "bad header" }; 2]);
        let DurableOutcome::Completed(run) =
            recovered.run(&trace, None, &Telemetry::disabled()).unwrap()
        else {
            panic!("must complete");
        };
        assert_eq!(run, baseline);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_main_checkpoint_recovers_from_the_side_copy() {
        let dir = tempdir("torn-ckpt");
        let trace = small_trace();
        let baseline = {
            let mut service = FleetService::new(3, config(), 42).unwrap();
            service.run(&trace, &Telemetry::disabled()).unwrap()
        };
        let durable = DurableConfig { checkpoint_every: 2 };
        let mut fleet =
            DurableFleet::create(3, config(), 42, ServerFactory, &dir, durable).unwrap();
        let plan = CrashPlan { after_event: 6, point: CrashPoint::Applied };
        fleet.run(&trace, Some(&plan), &Telemetry::disabled()).unwrap();
        drop(fleet);
        // Checkpoints 2, 4 and 6 went to fleet.ckpt, fleet.ckpt.side and
        // fleet.ckpt. Tear the newest: recovery must start from the side
        // copy's seqno 4 and replay events 4, 5 and 6.
        std::fs::write(dir.join("fleet.ckpt"), b"garbage").unwrap();
        let mut recovered = DurableFleet::recover(
            3,
            config(),
            42,
            ServerFactory,
            &dir,
            durable,
            None,
            &Telemetry::disabled(),
        )
        .unwrap();
        let info = recovered.recovery_info().unwrap();
        assert_eq!(info.checkpoint_seqno, 4, "recovered from the side copy");
        assert_eq!(info.replayed, 3, "the events after the side copy's checkpoint replayed");
        assert_eq!(info.copy(), Some(CheckpointCopy::Side));
        assert_eq!(info.status(CheckpointCopy::Main), CopyStatus::Corrupt { reason: "bad header" });
        let DurableOutcome::Completed(run) =
            recovered.run(&trace, None, &Telemetry::disabled()).unwrap()
        else {
            panic!("must complete");
        };
        assert_eq!(run, baseline);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A kill during a checkpoint write, at every offset of the write:
    /// the torn copy is passed over and recovery starts from the other
    /// copy's checkpoint, unless the write completed; either way the run
    /// ends byte-identical to one never killed.
    #[test]
    fn a_kill_at_every_offset_of_a_checkpoint_write_recovers_from_the_other_copy() {
        let trace = small_trace();
        let baseline = {
            let mut service = FleetService::new(3, config(), 42).unwrap();
            service.run(&trace, &Telemetry::disabled()).unwrap()
        };
        let every_event = DurableConfig { checkpoint_every: 1 };
        let run_to = |tag: &str, plan: Option<CrashPlan>| {
            let dir = tempdir(tag);
            let mut fleet =
                DurableFleet::create(3, config(), 42, ServerFactory, &dir, every_event).unwrap();
            fleet.run(&trace, plan.as_ref(), &Telemetry::disabled()).unwrap();
            dir
        };
        // Killed after applying event 8: checkpoint 8 is in fleet.ckpt.side
        // and 7 in fleet.ckpt, which checkpoint 9 was about to overwrite.
        let killed = run_to("torn-write", Some(CrashPlan { after_event: 8, point: Applied }));
        let read = |dir: &Path, name: &str| std::fs::read(dir.join(name)).unwrap();
        let (journal, old, side) = (
            read(&killed, "fleet.journal"),
            read(&killed, "fleet.ckpt"),
            read(&killed, "fleet.ckpt.side"),
        );
        let finished = run_to("torn-write-new", None);
        let new = read(&finished, "fleet.ckpt");
        let _ = std::fs::remove_dir_all(&finished);
        assert_ne!(new, old);

        // Every fourth offset of the 28-byte header and frame prologue,
        // then a dozen through the payload, and the last two.
        let payload_step = new.len() / 12;
        let cuts = (0..=28).step_by(4).chain((29..new.len()).step_by(payload_step));
        let cuts = cuts.chain([new.len() - 1, new.len()]);
        for cut in cuts {
            let mut torn = new[..cut].to_vec();
            torn.extend_from_slice(old.get(cut..).unwrap_or_default());
            std::fs::write(killed.join("fleet.journal"), &journal).unwrap();
            std::fs::write(killed.join("fleet.ckpt.side"), &side).unwrap();
            std::fs::write(killed.join("fleet.ckpt"), &torn).unwrap();
            let mut recovered = DurableFleet::recover(
                3,
                config(),
                42,
                ServerFactory,
                &killed,
                every_event,
                None,
                &Telemetry::disabled(),
            )
            .unwrap();
            let info = recovered.recovery_info().unwrap();
            let want = if torn == new {
                (9, 0, Some(CheckpointCopy::Main))
            } else {
                (8, 1, Some(CheckpointCopy::Side))
            };
            assert_eq!((info.checkpoint_seqno, info.replayed, info.copy()), want, "cut {cut}");
            let DurableOutcome::Completed(run) =
                recovered.run(&trace, None, &Telemetry::disabled()).unwrap()
            else {
                panic!("no crash plan");
            };
            assert_eq!(run, baseline, "cut {cut}");
        }
        let _ = std::fs::remove_dir_all(&killed);
    }

    #[test]
    fn checkpoints_alternate_between_the_copies() {
        let dir = tempdir("alternate");
        let trace = small_trace();
        let every_three = DurableConfig { checkpoint_every: 3 };
        let seqno = |name: &str| {
            let read = blob::read(&dir.join(name), CKPT_MAGIC, CKPT_VERSION..=CKPT_VERSION);
            let BlobRead::Valid { payload, .. } = read.unwrap() else { panic!("{name} valid") };
            checkpoint_seqno(&payload, CKPT_VERSION).unwrap()
        };
        let mut fleet =
            DurableFleet::create(3, config(), 42, ServerFactory, &dir, every_three).unwrap();
        let plan = CrashPlan { after_event: 4, point: Applied };
        fleet.run(&trace, Some(&plan), &Telemetry::disabled()).unwrap();
        drop(fleet);
        // A fresh fleet writes fleet.ckpt first; the side copy is untouched.
        assert_eq!(seqno("fleet.ckpt"), 3);
        assert!(!dir.join("fleet.ckpt.side").exists());
        let mut recovered = DurableFleet::recover(
            3,
            config(),
            42,
            ServerFactory,
            &dir,
            every_three,
            None,
            &Telemetry::disabled(),
        )
        .unwrap();
        let info = recovered.recovery_info().unwrap();
        assert_eq!(info.copies, [CopyStatus::Used, CopyStatus::Missing]);
        assert_eq!(info.passed_over(), ["fleet.ckpt.side: missing"]);
        // After recovering from fleet.ckpt, the next write goes to the side
        // copy, and the one after back to fleet.ckpt.
        let plan = CrashPlan { after_event: 6, point: Applied };
        recovered.run(&trace, Some(&plan), &Telemetry::disabled()).unwrap();
        assert_eq!((seqno("fleet.ckpt"), seqno("fleet.ckpt.side")), (3, 6));
        drop(recovered);
        let sink = MemoryRecorder::new();
        let mut recovered = DurableFleet::recover(
            3,
            config(),
            42,
            ServerFactory,
            &dir,
            every_three,
            None,
            &Telemetry::new(&sink),
        )
        .unwrap();
        let info = recovered.recovery_info().unwrap();
        assert_eq!((info.checkpoint_seqno, info.replayed), (6, 1));
        assert_eq!(info.copies, [CopyStatus::Older { seqno: 3 }, CopyStatus::Used]);
        let [Event::RecoveryReplayed { copy, passed_over, .. }] = &sink.events()[..] else {
            panic!("one recovery event");
        };
        assert_eq!(copy.as_deref(), Some("fleet.ckpt.side"));
        assert_eq!(passed_over, &["fleet.ckpt: not newer (seq 3)"]);
        recovered.run(&trace, None, &Telemetry::disabled()).unwrap();
        assert_eq!((seqno("fleet.ckpt"), seqno("fleet.ckpt.side")), (9, 6));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_ahead_of_the_journal_is_passed_over() {
        let dir = tempdir("ahead");
        let trace = small_trace();
        let every_two = DurableConfig { checkpoint_every: 2 };
        let mut fleet =
            DurableFleet::create(3, config(), 42, ServerFactory, &dir, every_two).unwrap();
        let plan = CrashPlan { after_event: 6, point: Applied };
        fleet.run(&trace, Some(&plan), &Telemetry::disabled()).unwrap();
        drop(fleet);
        // Rewrite the journal with its first five records: fleet.ckpt's
        // seqno 6 is now ahead of it, and the side copy's seqno 4 is not.
        let (_, records) = EventJournal::open(&journal_path(&dir)).unwrap();
        std::fs::remove_file(journal_path(&dir)).unwrap();
        let (mut journal, _) = EventJournal::open(&journal_path(&dir)).unwrap();
        for record in &records.records[..5] {
            journal.append(record.seqno, &record.payload).unwrap();
        }
        drop(journal);
        let recovered = DurableFleet::recover(
            3,
            config(),
            42,
            ServerFactory,
            &dir,
            every_two,
            None,
            &Telemetry::disabled(),
        )
        .unwrap();
        let info = recovered.recovery_info().unwrap();
        assert_eq!((info.checkpoint_seqno, info.replayed), (4, 1));
        assert_eq!(info.copies, [CopyStatus::AheadOfJournal { seqno: 6 }, CopyStatus::Used]);
        assert_eq!(info.passed_over(), ["fleet.ckpt: ahead of the journal (seq 6)"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_invalidates_a_previous_runs_checkpoint_pair() {
        let dir = tempdir("stale-ckpt");
        let trace = small_trace();
        let recover = |durable| {
            DurableFleet::recover(
                3,
                config(),
                42,
                ServerFactory,
                &dir,
                durable,
                None,
                &Telemetry::disabled(),
            )
            .unwrap()
        };
        // A previous run leaves a valid checkpoint pair at seqno 10.
        let every_two = DurableConfig { checkpoint_every: 2 };
        let mut previous =
            DurableFleet::create(3, config(), 42, ServerFactory, &dir, every_two).unwrap();
        previous.run(&trace, None, &Telemetry::disabled()).unwrap();
        drop(previous);
        assert_eq!(recover(every_two).recovery_info().unwrap().checkpoint_seqno, 10);

        let journal_only = DurableConfig { checkpoint_every: 0 };
        let fresh =
            DurableFleet::create(3, config(), 42, ServerFactory, &dir, journal_only).unwrap();
        drop(fresh);
        assert_eq!(recover(journal_only).recovery_info().unwrap().checkpoint_seqno, 0);

        // Once this run has journaled as many events, the stale seqno-10
        // checkpoint would pass the journal-length check if either copy
        // were still readable.
        let mut fresh =
            DurableFleet::create(3, config(), 42, ServerFactory, &dir, journal_only).unwrap();
        fresh.run(&trace, None, &Telemetry::disabled()).unwrap();
        drop(fresh);
        let info = recover(journal_only).recovery_info().unwrap();
        assert_eq!((info.checkpoint_seqno, info.replayed), (0, 10));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
