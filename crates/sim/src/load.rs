//! Load schedules for latency-critical jobs.
//!
//! Most experiments hold each LC job at a constant fraction of its maximum
//! load; the paper's Fig. 16 steps memcached's load from 10% to 30% over
//! time to show CLITE re-converging. [`LoadSchedule`] captures both, plus a
//! ramp and a diurnal pattern for extended studies.

use serde::{Deserialize, Serialize};

/// A time-varying load fraction (of the workload's maximum load).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoadSchedule {
    /// Constant load fraction.
    Constant(f64),
    /// Steps through `(start_time_s, load)` phases; the active phase is the
    /// last one whose start time is ≤ the query time. Phases must be sorted
    /// by start time.
    Steps(Vec<(f64, f64)>),
    /// Linear ramp from `from` to `to` over `duration_s`, then constant.
    Ramp {
        /// Initial load fraction.
        from: f64,
        /// Final load fraction.
        to: f64,
        /// Ramp duration in seconds.
        duration_s: f64,
    },
    /// Sinusoidal diurnal pattern: `base + amplitude · sin(2πt/period)`,
    /// clamped to `[0.01, 1.0]`.
    Diurnal {
        /// Mean load fraction.
        base: f64,
        /// Peak deviation from the mean.
        amplitude: f64,
        /// Period in seconds.
        period_s: f64,
    },
    /// Replays a recorded trace of `(time_s, load)` points (sorted by
    /// time) with linear interpolation between points; constant before the
    /// first and after the last.
    Trace(Vec<(f64, f64)>),
}

impl LoadSchedule {
    /// Load fraction at time `t_s` (seconds).
    #[must_use]
    pub fn at(&self, t_s: f64) -> f64 {
        match self {
            LoadSchedule::Constant(l) => *l,
            LoadSchedule::Steps(phases) => {
                let mut load = phases.first().map_or(0.0, |&(_, l)| l);
                for &(start, l) in phases {
                    if t_s >= start {
                        load = l;
                    } else {
                        break;
                    }
                }
                load
            }
            LoadSchedule::Ramp { from, to, duration_s } => {
                if t_s >= *duration_s {
                    *to
                } else {
                    from + (to - from) * (t_s / duration_s)
                }
            }
            LoadSchedule::Diurnal { base, amplitude, period_s } => {
                let v = base + amplitude * (std::f64::consts::TAU * t_s / period_s).sin();
                v.clamp(0.01, 1.0)
            }
            LoadSchedule::Trace(points) => {
                let Some(first) = points.first() else { return 0.0 };
                if t_s <= first.0 {
                    return first.1;
                }
                let last = points.last().expect("non-empty after first()");
                if t_s >= last.0 {
                    return last.1;
                }
                let idx = points.partition_point(|&(t, _)| t <= t_s);
                let (t0, l0) = points[idx - 1];
                let (t1, l1) = points[idx];
                if t1 <= t0 {
                    l0
                } else {
                    l0 + (l1 - l0) * (t_s - t0) / (t1 - t0)
                }
            }
        }
    }

    /// Whether the load changes over time at all.
    #[must_use]
    pub fn is_dynamic(&self) -> bool {
        match self {
            LoadSchedule::Constant(_) => false,
            LoadSchedule::Steps(phases) => phases.len() > 1,
            LoadSchedule::Ramp { from, to, .. } => from != to,
            LoadSchedule::Diurnal { amplitude, .. } => *amplitude != 0.0,
            LoadSchedule::Trace(points) => points.windows(2).any(|w| w[0].1 != w[1].1),
        }
    }
}

impl Default for LoadSchedule {
    fn default() -> Self {
        LoadSchedule::Constant(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = LoadSchedule::Constant(0.4);
        assert_eq!(s.at(0.0), 0.4);
        assert_eq!(s.at(1e6), 0.4);
        assert!(!s.is_dynamic());
    }

    #[test]
    fn steps_pick_latest_phase() {
        let s = LoadSchedule::Steps(vec![(0.0, 0.10), (60.0, 0.20), (120.0, 0.30)]);
        assert_eq!(s.at(0.0), 0.10);
        assert_eq!(s.at(59.9), 0.10);
        assert_eq!(s.at(60.0), 0.20);
        assert_eq!(s.at(120.0), 0.30);
        assert!(s.is_dynamic());
    }

    #[test]
    fn ramp_interpolates() {
        let s = LoadSchedule::Ramp { from: 0.2, to: 0.8, duration_s: 10.0 };
        assert_eq!(s.at(0.0), 0.2);
        assert!((s.at(5.0) - 0.5).abs() < 1e-12);
        assert_eq!(s.at(100.0), 0.8);
    }

    #[test]
    fn trace_interpolates_and_clamps_ends() {
        let s = LoadSchedule::Trace(vec![(10.0, 0.2), (20.0, 0.6), (40.0, 0.4)]);
        assert_eq!(s.at(0.0), 0.2, "constant before first point");
        assert_eq!(s.at(10.0), 0.2);
        assert!((s.at(15.0) - 0.4).abs() < 1e-12, "midpoint interpolation");
        assert!((s.at(30.0) - 0.5).abs() < 1e-12);
        assert_eq!(s.at(100.0), 0.4, "constant after last point");
        assert!(s.is_dynamic());
        assert!(!LoadSchedule::Trace(vec![(0.0, 0.3), (50.0, 0.3)]).is_dynamic());
        assert_eq!(LoadSchedule::Trace(vec![]).at(5.0), 0.0);
    }

    #[test]
    fn diurnal_clamped() {
        let s = LoadSchedule::Diurnal { base: 0.9, amplitude: 0.5, period_s: 100.0 };
        for i in 0..200 {
            let l = s.at(f64::from(i));
            assert!((0.01..=1.0).contains(&l));
        }
    }
}
