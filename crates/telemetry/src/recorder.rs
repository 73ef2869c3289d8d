//! Event sinks: the [`Recorder`] trait, the zero-cost [`NoopRecorder`],
//! the [`JsonlRecorder`] file sink, and the in-memory [`MemoryRecorder`]
//! used by tests.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::event::Event;
use crate::metrics::MetricsRegistry;

/// A sink for structured telemetry events.
///
/// Implementations must never panic or otherwise fail the run: telemetry
/// is observational, so sinks swallow their own I/O errors (counting
/// drops where they can).
///
/// Recorders are `Send + Sync` so one sink can be shared across threads;
/// the standard sinks already serialize internally through mutexes.
pub trait Recorder: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &Event);
}

/// The default sink: discards everything.
///
/// `record` is an empty inlinable body, so instrumented code paths cost
/// nothing beyond constructing the event argument.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn record(&self, _event: &Event) {}
}

/// Folds an event into the standard metric families (`clite_*`).
pub fn apply_event(metrics: &MetricsRegistry, event: &Event) {
    metrics.inc_counter("clite_events_total", &[("kind", event.kind())], 1);
    match event {
        Event::BootstrapSample { score, .. } => {
            metrics.observe("clite_score", &[], *score);
        }
        Event::DropoutFrozen { .. } => {
            metrics.inc_counter("clite_dropout_freezes_total", &[], 1);
        }
        Event::CandidateChosen { expected_improvement, .. } => {
            metrics.observe("clite_ei", &[], *expected_improvement);
        }
        Event::GpRefit { log_marginal, .. } => {
            metrics.inc_counter("clite_gp_refits_total", &[], 1);
            metrics.set_gauge("clite_gp_log_marginal", &[], *log_marginal);
        }
        Event::Terminated { samples, best_score, .. } => {
            metrics.inc_counter("clite_runs_total", &[], 1);
            metrics.set_gauge("clite_best_score", &[], *best_score);
            metrics.set_gauge("clite_samples_last_run", &[], *samples as f64);
        }
        Event::QosViolation { .. } => {
            metrics.inc_counter("clite_qos_violations_total", &[], 1);
        }
        Event::InfeasibleJob { .. } => {
            metrics.inc_counter("clite_infeasible_jobs_total", &[], 1);
        }
        Event::Placement { .. } => {
            metrics.inc_counter("clite_placements_total", &[], 1);
        }
        Event::Eviction { .. } => {
            metrics.inc_counter("clite_evictions_total", &[], 1);
        }
        Event::PhaseTiming { phase, nanos } => {
            metrics.observe("clite_phase_seconds", &[("phase", phase.name())], *nanos as f64 / 1e9);
        }
        Event::StoreAppend { score } => {
            metrics.inc_counter("clite_store_appends_total", &[], 1);
            metrics.observe("clite_store_score", &[], *score);
        }
        Event::StoreHit { entries, .. } => {
            metrics.inc_counter("clite_store_hits_total", &[], 1);
            metrics.observe("clite_store_hit_entries", &[], *entries as f64);
        }
        Event::StoreMiss { .. } => {
            metrics.inc_counter("clite_store_misses_total", &[], 1);
        }
        Event::WarmStarted { samples, .. } => {
            metrics.inc_counter("clite_warm_starts_total", &[], 1);
            metrics.set_gauge("clite_warm_start_samples", &[], *samples as f64);
        }
        Event::FaultInjected { fault, .. } => {
            metrics.inc_counter("clite_faults_total", &[("fault", fault)], 1);
        }
        Event::ObservationRetried { attempt, .. } => {
            metrics.inc_counter("clite_observation_retries_total", &[], 1);
            metrics.observe("clite_observation_retry_attempt", &[], *attempt as f64);
        }
        Event::SampleQuarantined { sigma, score, predicted, .. } => {
            metrics.inc_counter("clite_quarantined_samples_total", &[], 1);
            metrics.observe(
                "clite_quarantine_deviation_sigma",
                &[],
                (score - predicted).abs() / sigma.max(f64::EPSILON),
            );
        }
        Event::FallbackEngaged { qos_feasible, .. } => {
            metrics.inc_counter("clite_fallbacks_total", &[], 1);
            metrics.set_gauge(
                "clite_fallback_qos_feasible",
                &[],
                if *qos_feasible { 1.0 } else { 0.0 },
            );
        }
        Event::NodeEvicted { jobs, .. } => {
            metrics.inc_counter("clite_node_evictions_total", &[], 1);
            metrics.observe("clite_node_eviction_orphans", &[], *jobs as f64);
        }
        Event::StoreRecovered { records, dropped_bytes, undecodable } => {
            metrics.inc_counter("clite_store_recoveries_total", &[], 1);
            metrics.set_gauge("clite_store_recovered_records", &[], *records as f64);
            metrics.set_gauge("clite_store_dropped_bytes", &[], *dropped_bytes as f64);
            metrics.set_gauge("clite_store_undecodable_records", &[], *undecodable as f64);
        }
        Event::JobArrived { .. } => {
            metrics.inc_counter("clite_fleet_arrivals_total", &[], 1);
        }
        Event::JobDeparted { .. } => {
            metrics.inc_counter("clite_fleet_departures_total", &[], 1);
        }
        Event::LoadShift { load_pct, .. } => {
            metrics.inc_counter("clite_fleet_load_shifts_total", &[], 1);
            metrics.observe("clite_fleet_shifted_load_pct", &[], f64::from(*load_pct));
        }
        Event::NodeOnboarded { .. } => {
            metrics.inc_counter("clite_fleet_nodes_onboarded_total", &[], 1);
        }
        Event::PlacementScored { candidates, best_score, .. } => {
            metrics.inc_counter("clite_placements_scored_total", &[], 1);
            metrics.observe("clite_placement_candidates", &[], *candidates as f64);
            metrics.observe("clite_placement_best_score", &[], *best_score);
        }
        Event::ModelLoaded { feature_version, epochs, train_loss } => {
            metrics.inc_counter("clite_models_loaded_total", &[], 1);
            metrics.set_gauge("clite_model_feature_version", &[], f64::from(*feature_version));
            metrics.set_gauge("clite_model_epochs", &[], f64::from(*epochs));
            metrics.set_gauge("clite_model_train_loss", &[], *train_loss);
        }
        Event::TrainingEpoch { epoch, loss } => {
            metrics.inc_counter("clite_training_epochs_total", &[], 1);
            metrics.set_gauge("clite_training_epoch", &[], f64::from(*epoch));
            metrics.set_gauge("clite_training_loss", &[], *loss);
        }
        Event::JournalAppended { seqno, bytes } => {
            metrics.inc_counter("clite_fleet_journal_appends_total", &[], 1);
            metrics.set_gauge("clite_fleet_journal_seqno", &[], *seqno as f64);
            metrics.observe("clite_fleet_journal_record_bytes", &[], *bytes as f64);
        }
        Event::CheckpointWritten { seqno, bytes, nanos } => {
            metrics.inc_counter("clite_fleet_checkpoints_total", &[], 1);
            metrics.set_gauge("clite_fleet_checkpoint_seqno", &[], *seqno as f64);
            metrics.observe("clite_fleet_checkpoint_bytes", &[], *bytes as f64);
            metrics.observe("clite_fleet_checkpoint_seconds", &[], *nanos as f64 * 1e-9);
        }
        Event::RecoveryReplayed { checkpoint_seqno, replayed, nanos } => {
            metrics.inc_counter("clite_fleet_recoveries_total", &[], 1);
            metrics.set_gauge(
                "clite_fleet_recovery_checkpoint_seqno",
                &[],
                *checkpoint_seqno as f64,
            );
            metrics.set_gauge("clite_fleet_recovery_replayed", &[], *replayed as f64);
            metrics.observe("clite_fleet_recovery_seconds", &[], *nanos as f64 * 1e-9);
        }
        Event::ArrivalShed { backlog, .. } => {
            metrics.inc_counter("clite_fleet_shed_arrivals_total", &[], 1);
            metrics.set_gauge("clite_fleet_shed_backlog", &[], *backlog as f64);
        }
    }
}

/// Events buffered between the periodic flush points of a
/// [`JsonlRecorder`] (overridable via
/// [`with_flush_every`](JsonlRecorder::with_flush_every)).
const DEFAULT_FLUSH_EVERY: usize = 512;

/// The writer half of a [`JsonlRecorder`] plus its flush-point counter;
/// both live under one mutex so the pending count can never race the
/// writes it describes.
struct Sink {
    writer: Box<dyn Write + Send>,
    pending: usize,
}

/// A sink that appends one JSON document per event to a writer and keeps
/// the standard metric families up to date.
///
/// Hot-path discipline: each event is serialized to a single owned line
/// (newline included) and handed to the writer with one `write_all`
/// call, and the writer is only flushed at explicit flush points — every
/// 512 events (the default batch), on [`flush`](JsonlRecorder::flush),
/// and on drop. [`create`](JsonlRecorder::create) additionally wraps the
/// file in a [`BufWriter`] so even the per-line writes coalesce into
/// page-sized syscalls; `benches/recorder.rs` measures the difference.
pub struct JsonlRecorder {
    sink: Mutex<Sink>,
    flush_every: usize,
    metrics: MetricsRegistry,
}

impl JsonlRecorder {
    /// Creates (truncating) the JSONL file at `path`, buffered.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::from_writer(BufWriter::new(file)))
    }

    /// Wraps an arbitrary writer (used by tests with `Vec<u8>` sinks).
    /// The caller chooses the buffering; `from_writer` adds none, so an
    /// unbuffered `File` here is the worst case the recorder bench
    /// compares [`create`](JsonlRecorder::create) against.
    pub fn from_writer(writer: impl Write + Send + 'static) -> Self {
        Self {
            sink: Mutex::new(Sink { writer: Box::new(writer), pending: 0 }),
            flush_every: DEFAULT_FLUSH_EVERY,
            metrics: MetricsRegistry::new(),
        }
    }

    /// Overrides the flush interval: the writer is flushed after every
    /// `events` recorded events (clamped to at least 1). Smaller values
    /// tighten the crash-loss window at the cost of more syscalls.
    #[must_use]
    pub fn with_flush_every(mut self, events: usize) -> Self {
        self.flush_every = events.max(1);
        self
    }

    /// The metrics derived from every event recorded so far.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Flushes the underlying writer and resets the flush-point counter.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on failure.
    pub fn flush(&self) -> io::Result<()> {
        let mut sink = self.sink.lock().expect("jsonl writer lock");
        sink.pending = 0;
        sink.writer.flush()
    }
}

impl Drop for JsonlRecorder {
    /// Best-effort flush so buffered events reach disk even when callers
    /// forget to call [`JsonlRecorder::flush`]. Errors (including a
    /// poisoned writer lock) are swallowed: telemetry must never turn a
    /// clean exit into a panic.
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            let _ = sink.writer.flush();
        }
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, event: &Event) {
        apply_event(&self.metrics, event);
        let mut line = match serde_json::to_string(event) {
            Ok(line) => line,
            Err(_) => {
                self.metrics.inc_counter("clite_telemetry_dropped_total", &[], 1);
                return;
            }
        };
        line.push('\n');
        let mut sink = self.sink.lock().expect("jsonl writer lock");
        if sink.writer.write_all(line.as_bytes()).is_err() {
            self.metrics.inc_counter("clite_telemetry_dropped_total", &[], 1);
            return;
        }
        sink.pending += 1;
        if sink.pending >= self.flush_every {
            sink.pending = 0;
            if sink.writer.flush().is_err() {
                self.metrics.inc_counter("clite_telemetry_dropped_total", &[], 1);
            }
        }
    }
}

/// A sink that retains every event in memory; for tests and inspection.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    events: Mutex<Vec<Event>>,
}

impl MemoryRecorder {
    /// An empty in-memory sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of every event recorded so far.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory recorder lock").clone()
    }

    /// Number of recorded events whose kind name is `kind`.
    #[must_use]
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events
            .lock()
            .expect("memory recorder lock")
            .iter()
            .filter(|e| e.kind() == kind)
            .count()
    }
}

impl Recorder for MemoryRecorder {
    fn record(&self, event: &Event) {
        self.events.lock().expect("memory recorder lock").push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StopReason;

    #[test]
    fn jsonl_recorder_writes_one_line_per_event_and_derives_metrics() {
        let recorder = JsonlRecorder::from_writer(SharedBuf::default());
        recorder.record(&Event::BootstrapSample { sample: 0, score: 0.3, qos_met: false });
        recorder.record(&Event::CandidateChosen { sample: 1, expected_improvement: 0.01 });
        recorder.record(&Event::Terminated {
            reason: StopReason::EiConverged,
            samples: 2,
            best_score: 0.6,
        });
        assert_eq!(
            recorder.metrics().counter_value("clite_events_total", &[("kind", "terminated")]),
            Some(1)
        );
        assert_eq!(recorder.metrics().gauge_value("clite_best_score", &[]), Some(0.6));
    }

    #[test]
    fn checkpoint_and_recovery_times_land_in_seconds_histograms() {
        let recorder = JsonlRecorder::from_writer(SharedBuf::default());
        recorder.record(&Event::CheckpointWritten { seqno: 8, bytes: 4096, nanos: 1_500_000 });
        recorder.record(&Event::RecoveryReplayed {
            checkpoint_seqno: 8,
            replayed: 3,
            nanos: 2_000_000_000,
        });
        let seconds = |name| recorder.metrics().histogram_snapshot(name, &[]).map(|h| h.sum);
        assert_eq!(seconds("clite_fleet_checkpoint_seconds"), Some(1.5e-3));
        assert_eq!(seconds("clite_fleet_recovery_seconds"), Some(2.0));
    }

    #[test]
    fn jsonl_lines_parse_back_into_events() {
        let buf = SharedBuf::default();
        let recorder = JsonlRecorder::from_writer(buf.clone());
        let sent = vec![
            Event::Placement { node: 0, job: "xapian".to_owned() },
            Event::Eviction { node: 0, job: "xapian".to_owned() },
        ];
        for e in &sent {
            recorder.record(e);
        }
        recorder.flush().unwrap();
        let text = buf.contents();
        let parsed: Vec<Event> = text.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
        assert_eq!(parsed, sent);
    }

    #[test]
    fn jsonl_recorder_flushes_on_drop() {
        let dir = std::env::temp_dir().join(format!("clite-telemetry-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        {
            // `create` wraps the file in a BufWriter, so without the Drop
            // flush these small events would still be sitting in the
            // buffer when the recorder goes out of scope.
            let recorder = JsonlRecorder::create(&path).unwrap();
            recorder.record(&Event::StoreHit { entries: 4, load_distance: 0.0, exact: true });
            recorder.record(&Event::WarmStarted { samples: 4, exact: true });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: Vec<Event> = text.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
        assert_eq!(
            parsed,
            vec![
                Event::StoreHit { entries: 4, load_distance: 0.0, exact: true },
                Event::WarmStarted { samples: 4, exact: true },
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_points_fire_every_n_events() {
        // With a BufWriter between the recorder and the shared buffer,
        // lines only become visible when a flush point fires.
        let buf = SharedBuf::default();
        let recorder = JsonlRecorder::from_writer(BufWriter::new(buf.clone())).with_flush_every(3);
        recorder.record(&Event::InfeasibleJob { job: 0 });
        recorder.record(&Event::InfeasibleJob { job: 1 });
        assert_eq!(buf.contents().lines().count(), 0, "no flush point crossed yet");
        recorder.record(&Event::InfeasibleJob { job: 2 });
        assert_eq!(buf.contents().lines().count(), 3, "third event flushed the batch");
        recorder.record(&Event::InfeasibleJob { job: 3 });
        assert_eq!(buf.contents().lines().count(), 3, "next batch buffers again");
        recorder.flush().unwrap();
        assert_eq!(buf.contents().lines().count(), 4);
    }

    #[test]
    fn memory_recorder_counts_kinds() {
        let recorder = MemoryRecorder::new();
        recorder.record(&Event::InfeasibleJob { job: 3 });
        recorder.record(&Event::InfeasibleJob { job: 4 });
        assert_eq!(recorder.count_kind("infeasible_job"), 2);
        assert_eq!(recorder.events().len(), 2);
    }

    /// A clonable in-memory writer for asserting on JSONL output.
    #[derive(Debug, Default, Clone)]
    struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
}
