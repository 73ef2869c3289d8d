//! Durable fleet recovery: write-ahead journal and checkpoint/restore.
//!
//! [`DurableFleet`] wraps a [`FleetService`] with the WAL discipline the
//! store's log already proved out: every event is framed, checksummed, and
//! written to the **event journal** *before* it mutates scheduler state,
//! and every `checkpoint_every` applied events the whole service is
//! snapshotted to a **checkpoint** blob, written in place to a side copy
//! and then to the checkpoint itself, so a crash leaves one complete
//! copy ([`blob::save`]). Neither write is fsynced: both survive a
//! process crash, not a power loss (DESIGN.md §8, "Durability,
//! exactly"). Recovery is
//! then mechanical: load the newest valid checkpoint (a corrupt or missing
//! one degrades to an empty fleet), replay the journal suffix through the
//! exact same event-handling code, and continue. Because every input to
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
    decode_checkpoint, decode_journal_entry, encode_checkpoint, encode_journal_entry, CKPT_MAGIC,
    CKPT_VERSION,
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
    checkpoint_path: PathBuf,
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

fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("fleet.ckpt")
}

impl<F: TestbedFactory + Clone> DurableFleet<F> {
    /// Creates a fresh durable fleet in `dir`, removing any journal left
    /// by a previous run and invalidating its checkpoint pair in place
    /// ([`blob::invalidate`]), so neither copy can be recovered from.
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
        blob::invalidate(&checkpoint_path(dir))?;
        let (journal, _) = EventJournal::open(&journal_path(dir))?;
        let service = FleetService::with_factory(nodes, config, seed, factory)?;
        Ok(Self {
            service,
            journal,
            checkpoint_path: checkpoint_path(dir),
            durable,
            applied: 0,
            placements: Vec::new(),
            recovery: None,
        })
    }

    /// Recovers a durable fleet from `dir`: newest valid checkpoint plus
    /// the journal suffix, replayed through the normal event-handling
    /// code with the journaled backlog values. A missing or corrupt
    /// checkpoint degrades to a full-journal replay from a fresh
    /// `nodes`/`seed` fleet; it never aborts recovery.
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
        let ckpt_path = checkpoint_path(dir);
        // The newest payload version first: a blob written by older code
        // reads as corrupt under a newer version's header.
        let mut checkpoint = None;
        for version in (1..=CKPT_VERSION).rev() {
            if let BlobRead::Valid(bytes) = blob::read(&ckpt_path, CKPT_MAGIC, version)? {
                checkpoint = decode_checkpoint(&bytes, version).ok();
                break;
            }
        }
        // A checkpoint ahead of the (possibly truncated) journal would
        // skip events recovery cannot replay; fall back to full replay.
        let checkpoint = checkpoint.filter(|c| (c.seqno as usize) <= journal_rec.records.len());
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
            checkpoint_path: ckpt_path,
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
        telemetry.emit(Event::RecoveryReplayed {
            checkpoint_seqno,
            replayed,
            nanos: elapsed_nanos(start),
        });
        fleet.recovery = Some(RecoveryInfo {
            checkpoint_seqno,
            replayed,
            journal_damaged: journal_rec.damaged(),
        });
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

    fn write_checkpoint(&self, telemetry: &Telemetry<'_>) -> Result<(), ClusterError> {
        let start = Instant::now();
        let checkpoint = self.service.checkpoint(self.applied, &self.placements);
        let payload = encode_checkpoint(&checkpoint);
        blob::save(&self.checkpoint_path, CKPT_MAGIC, CKPT_VERSION, &payload)?;
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
        std::fs::write(blob::side_path(&dir.join("fleet.ckpt")), b"garbage").unwrap();
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
        // A kill during the checkpoint's own write leaves it torn; the
        // side copy written just before it is complete.
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
        assert_eq!(info.checkpoint_seqno, 6, "recovered from the side copy");
        assert_eq!(info.replayed, 1, "only the event after the checkpoint replayed");
        let DurableOutcome::Completed(run) =
            recovered.run(&trace, None, &Telemetry::disabled()).unwrap()
        else {
            panic!("must complete");
        };
        assert_eq!(run, baseline);
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
