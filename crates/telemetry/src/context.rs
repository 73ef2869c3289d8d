//! The per-run telemetry context threaded through the controller, the BO
//! engine, the policies, and the scheduler: one handle bundling an event
//! sink with the phase stopwatch.

use crate::event::Event;
use crate::profile::{OverheadReport, Phase, PhaseTimer};
use crate::recorder::{NoopRecorder, Recorder};

static NOOP: NoopRecorder = NoopRecorder;

/// A borrowed event sink plus the run's phase stopwatch.
///
/// Instrumented code takes `&Telemetry`. The phase timer keeps atomic
/// totals, so timing needs no `&mut` plumbing and the context is `Sync`:
/// it can be handed to pool slots, and their spans land in the caller's
/// [`report`](Telemetry::report).
/// Spans measure first and book the elapsed time after the closure
/// returns, so nested `time` calls (e.g. a GP fit inside an engine step)
/// are safe. Nested and concurrent spans both count in full, so the
/// report's phase totals can exceed wall time.
pub struct Telemetry<'a> {
    recorder: &'a dyn Recorder,
    timer: PhaseTimer,
}

impl<'a> Telemetry<'a> {
    /// A context forwarding events to `recorder`.
    #[must_use]
    pub fn new(recorder: &'a dyn Recorder) -> Self {
        Self { recorder, timer: PhaseTimer::new() }
    }

    /// A context that discards events; the default for uninstrumented
    /// entry points.
    #[must_use]
    pub fn disabled() -> Telemetry<'static> {
        Telemetry::new(&NOOP)
    }

    /// Emits one event to the sink.
    pub fn emit(&self, event: Event) {
        self.recorder.record(&event);
    }

    /// The underlying sink (for forwarding to sub-components).
    #[must_use]
    pub fn recorder(&self) -> &'a dyn Recorder {
        self.recorder
    }

    /// Runs `f`, attributing its wall-clock time to `phase` and emitting
    /// a [`Event::PhaseTiming`] span event.
    pub fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = std::time::Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.timer.add(phase, elapsed);
        self.recorder.record(&Event::PhaseTiming {
            phase,
            nanos: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        });
        out
    }

    /// The run's profiling summary so far.
    #[must_use]
    pub fn report(&self) -> OverheadReport {
        self.timer.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::MemoryRecorder;

    #[test]
    fn spans_emit_events_and_accumulate() {
        let sink = MemoryRecorder::new();
        let telemetry = Telemetry::new(&sink);
        let v = telemetry.time(Phase::Observe, || 41) + 1;
        assert_eq!(v, 42);
        telemetry.time(Phase::Observe, || ());
        assert_eq!(sink.count_kind("phase_timing"), 2);
        let report = telemetry.report();
        assert_eq!(report.phase(Phase::Observe).count, 2);
        assert_eq!(report.phase(Phase::GpFit).count, 0);
    }

    /// Compile-time check: one context can be shared across threads.
    const _: fn() = || {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Telemetry<'static>>();
    };

    #[test]
    fn nested_spans_do_not_panic() {
        let telemetry = Telemetry::disabled();
        let out = telemetry.time(Phase::Acquisition, || telemetry.time(Phase::GpFit, || 2) + 1);
        assert_eq!(out, 3);
        assert_eq!(telemetry.report().phase(Phase::GpFit).count, 1);
    }
}
