//! Span-style stopwatch profiling for the search phases the paper's
//! Fig. 15b breaks down: GP fit, acquisition maximization, sample
//! observation, and scoring.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// A profiled search phase (the Fig. 15b cost components).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Fitting the GP surrogate (hyper-grid refreshes: full refits).
    GpFit,
    /// Extending the GP surrogate by one observation between refreshes
    /// (rank-1 Cholesky update — the O(n²) incremental path).
    GpExtend,
    /// Maximizing the acquisition function over candidates.
    Acquisition,
    /// Evaluating a partition on the server/simulator.
    Observe,
    /// Computing the Eq. 3 score from an observation.
    Score,
    /// Firing simulated queries and recording their latencies (the load
    /// harness's hot loop; not part of the search itself).
    LoadGen,
    /// Merging per-thread histograms and building percentile/CCDF
    /// reports after a load run.
    LoadReport,
}

impl Phase {
    /// All phases, in report order: the search phases first (the paper's
    /// Fig. 15b components), then the load-harness phases so one report
    /// separates search overhead from load-generation time.
    pub const ALL: [Phase; 7] = [
        Phase::GpFit,
        Phase::GpExtend,
        Phase::Acquisition,
        Phase::Observe,
        Phase::Score,
        Phase::LoadGen,
        Phase::LoadReport,
    ];

    /// Stable snake_case name, used as the `phase` metric label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::GpFit => "gp_fit",
            Phase::GpExtend => "gp_extend",
            Phase::Acquisition => "acquisition",
            Phase::Observe => "observe",
            Phase::Score => "score",
            Phase::LoadGen => "load_gen",
            Phase::LoadReport => "load_report",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::GpFit => 0,
            Phase::GpExtend => 1,
            Phase::Acquisition => 2,
            Phase::Observe => 3,
            Phase::Score => 4,
            Phase::LoadGen => 5,
            Phase::LoadReport => 6,
        }
    }
}

/// Accumulated cost of one phase across a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseCost {
    /// Which phase.
    pub phase: Phase,
    /// Total wall-clock seconds spent in the phase.
    pub total_seconds: f64,
    /// Number of timed sections.
    pub count: u64,
}

/// Per-run profiling summary: phase totals against the run's wall-clock
/// search time (the shape of the paper's Fig. 15b bars).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadReport {
    /// Cost of each phase, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseCost>,
    /// Wall-clock seconds of the whole search run.
    pub wall_seconds: f64,
    /// Fraction of wall time covered by the profiled phases. Nested spans
    /// can push it above 1.
    pub coverage: f64,
}

impl OverheadReport {
    /// Total profiled seconds across all phases.
    #[must_use]
    pub fn profiled_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.total_seconds).sum()
    }

    /// Cost entry for `phase`.
    #[must_use]
    pub fn phase(&self, phase: Phase) -> &PhaseCost {
        &self.phases[phase.index()]
    }
}

/// Accumulating stopwatch over the search phases.
///
/// Totals and counts are per-phase atomics, so one timer can be shared by
/// concurrent spans.
/// `Relaxed` suffices: each add is independent, and readers only need the
/// sums once the spans that produced them have been joined.
#[derive(Debug)]
pub struct PhaseTimer {
    nanos: [AtomicU64; Phase::ALL.len()],
    counts: [AtomicU64; Phase::ALL.len()],
    started: Instant,
}

impl Default for PhaseTimer {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseTimer {
    /// A fresh timer; wall-clock measurement starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            started: Instant::now(),
        }
    }

    /// Adds an already-measured span to `phase`.
    pub fn add(&self, phase: Phase, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.nanos[phase.index()].fetch_add(nanos, Ordering::Relaxed);
        self.counts[phase.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Runs `f`, attributing its wall-clock time to `phase`.
    pub fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(phase, start.elapsed());
        out
    }

    /// Total accumulated time in `phase`.
    #[must_use]
    pub fn total(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.nanos[phase.index()].load(Ordering::Relaxed))
    }

    /// Finalizes the report against wall time since construction.
    #[must_use]
    pub fn report(&self) -> OverheadReport {
        let wall = self.started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        let phases: Vec<PhaseCost> = Phase::ALL
            .iter()
            .map(|&phase| PhaseCost {
                phase,
                total_seconds: self.total(phase).as_secs_f64(),
                count: self.counts[phase.index()].load(Ordering::Relaxed),
            })
            .collect();
        let profiled: f64 = phases.iter().map(|p| p.total_seconds).sum();
        OverheadReport { phases, wall_seconds: wall, coverage: profiled / wall }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_accumulates_per_phase() {
        let t = PhaseTimer::new();
        let v = t.time(Phase::GpFit, || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        t.add(Phase::GpFit, Duration::from_millis(1));
        t.add(Phase::Score, Duration::from_micros(10));
        assert!(t.total(Phase::GpFit) >= Duration::from_millis(3));
        let report = t.report();
        assert_eq!(report.phase(Phase::GpFit).count, 2);
        assert_eq!(report.phase(Phase::Score).count, 1);
        assert_eq!(report.phase(Phase::Observe).count, 0);
        // Synthetic `add`s can exceed wall time; coverage just has to be
        // consistent with the totals.
        assert!(report.coverage > 0.0);
        assert!((report.profiled_seconds() / report.wall_seconds - report.coverage).abs() < 1e-12);
    }

    #[test]
    fn coverage_bounded_when_only_timing_real_spans() {
        let t = PhaseTimer::new();
        for _ in 0..3 {
            t.time(Phase::Observe, || std::thread::sleep(Duration::from_millis(1)));
        }
        let report = t.report();
        assert!(report.coverage > 0.0 && report.coverage <= 1.0 + 1e-9, "{}", report.coverage);
    }

    #[test]
    fn report_round_trips_through_json() {
        let t = PhaseTimer::new();
        t.add(Phase::Acquisition, Duration::from_millis(5));
        let report = t.report();
        let text = serde_json::to_string(&report).unwrap();
        let back: OverheadReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report, back);
    }
}
