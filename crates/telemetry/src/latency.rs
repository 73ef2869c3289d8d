//! Per-query latency accounting: a log-bucketed HDR-style histogram with
//! bounded relative quantile error, and the per-job [`TailTracker`] the
//! load harness reports p50/p90/p99/p99.9 and tail CCDFs from.
//!
//! # Bucket math
//!
//! Values below `2^SUB_BITS` (= 32) land in one bucket each and are
//! recorded **exactly**. Above that, each power-of-two range `[2^k,
//! 2^(k+1))` is split into `2^SUB_BITS` equal sub-buckets, so a bucket's
//! width is at most `low / 2^SUB_BITS` of its lower bound and any quantile
//! read back from the histogram overestimates the true sample by at most
//! [`LatencyHistogram::RELATIVE_ERROR`] (1/32 ≈ 3.1%). Counts are exact;
//! only the value within a bucket is quantized.
//!
//! The histogram is deliberately lock-free *by construction* rather than
//! by atomics: each worker thread records into its own private histogram
//! and the harness merges them in worker-index order. `merge` is an
//! element-wise add, hence associative and commutative, so the merged
//! result is byte-identical between serial and threaded runs.

use serde::{Deserialize, Serialize};

/// Sub-bucket resolution: each log2 range splits into `2^SUB_BITS`
/// buckets.
const SUB_BITS: u32 = 5;
/// Sub-buckets per log2 range (and the linear-exact threshold).
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total bucket count: one linear group (indices `0..32`) plus one group
/// of 32 sub-buckets per log2 range `[2^k, 2^(k+1))` for `k` in
/// `SUB_BITS..=63`.
const BUCKET_COUNT: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS as usize;

/// The quantile grid reported in summaries and CCDF exports.
const CCDF_QUANTILES: [f64; 8] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.995, 0.999, 0.9999];

/// A mergeable log-bucketed latency histogram over `u64` values
/// (microseconds, by convention in this workspace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Upper bound on the relative error of any quantile estimate:
    /// bucket widths never exceed `1/32` of their lower bound.
    pub const RELATIVE_ERROR: f64 = 1.0 / SUB_BUCKETS as f64;

    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self { counts: vec![0; BUCKET_COUNT], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Bucket index for `value`: identity below [`SUB_BUCKETS`], then
    /// log2 group × sub-bucket above.
    fn index(value: u64) -> usize {
        if value < SUB_BUCKETS {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let shift = exp - SUB_BITS;
        let group = (shift + 1) as usize;
        group * SUB_BUCKETS as usize + ((value >> shift) - SUB_BUCKETS) as usize
    }

    /// Upper bound of bucket `index` (the quantile representative).
    fn bound(index: usize) -> u64 {
        let group = index as u64 / SUB_BUCKETS;
        let sub = index as u64 % SUB_BUCKETS;
        if group == 0 {
            return sub;
        }
        let shift = group - 1;
        let high = (u128::from(SUB_BUCKETS + sub + 1) << shift) - 1;
        u64::try_from(high).unwrap_or(u64::MAX)
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value` at once (used by the metrics
    /// export and by weighted replays).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::index(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Element-wise merge of `other` into `self`. Associative and
    /// commutative, so per-thread histograms can be folded in any order
    /// with identical results.
    pub fn merge(&mut self, other: &Self) {
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` (clamped to `[0, 1]`): the upper bound of
    /// the bucket holding the `ceil(q·count)`-th smallest sample, clamped
    /// to the recorded maximum. Overestimates the true sample by at most
    /// [`Self::RELATIVE_ERROR`]; returns 0 when empty.
    #[must_use]
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bound(idx).min(self.max);
            }
        }
        self.max
    }

    /// Tail-CCDF points `(value, P(X > value))` on the standard quantile
    /// grid (p50 … p99.99), deduplicated on value. Fractions decrease
    /// monotonically; an empty histogram yields no points.
    #[must_use]
    pub fn ccdf_points(&self) -> Vec<CcdfPoint> {
        let mut points: Vec<CcdfPoint> = Vec::new();
        if self.is_empty() {
            return points;
        }
        for &q in &CCDF_QUANTILES {
            let value = self.value_at_quantile(q);
            let fraction = 1.0 - q;
            match points.last_mut() {
                Some(last) if last.latency_us == value => last.fraction = fraction,
                _ => points.push(CcdfPoint { latency_us: value, fraction }),
            }
        }
        points
    }
}

/// One point of a tail CCDF: the fraction of queries slower than
/// `latency_us`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CcdfPoint {
    /// Latency threshold (µs).
    pub latency_us: u64,
    /// Fraction of samples strictly above the threshold's quantile.
    pub fraction: f64,
}

/// Per-job tail-latency tracker: a [`LatencyHistogram`] plus QoS-target
/// violation accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TailTracker {
    hist: LatencyHistogram,
    qos_target_us: Option<f64>,
    violations: u64,
}

impl TailTracker {
    /// A tracker for a job with the given QoS target (µs), or `None` for
    /// best-effort jobs.
    #[must_use]
    pub fn new(qos_target_us: Option<f64>) -> Self {
        Self { hist: LatencyHistogram::new(), qos_target_us, violations: 0 }
    }

    /// Records one query latency (µs, rounded to the histogram's integer
    /// domain) and counts it as a violation when it exceeds the QoS
    /// target.
    pub fn record(&mut self, latency_us: f64) {
        let value = latency_us.max(0.0).round() as u64;
        self.hist.record(value);
        if let Some(target) = self.qos_target_us {
            if latency_us > target {
                self.violations += 1;
            }
        }
    }

    /// Merges another tracker for the same job (same QoS target).
    pub fn merge(&mut self, other: &Self) {
        debug_assert_eq!(self.qos_target_us, other.qos_target_us, "merging different jobs");
        self.hist.merge(&other.hist);
        self.violations += other.violations;
    }

    /// The underlying histogram.
    #[must_use]
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.hist
    }

    /// Number of recorded queries.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Fraction of queries over the QoS target (0 for best-effort jobs
    /// or empty trackers).
    #[must_use]
    pub fn violation_fraction(&self) -> f64 {
        if self.hist.is_empty() {
            0.0
        } else {
            self.violations as f64 / self.hist.count() as f64
        }
    }

    /// The percentile/CCDF summary reported per job.
    #[must_use]
    pub fn summary(&self) -> TailSummary {
        TailSummary {
            count: self.hist.count(),
            p50_us: self.hist.value_at_quantile(0.50),
            p90_us: self.hist.value_at_quantile(0.90),
            p99_us: self.hist.value_at_quantile(0.99),
            p999_us: self.hist.value_at_quantile(0.999),
            mean_us: self.hist.mean(),
            max_us: self.hist.max(),
            qos_target_us: self.qos_target_us,
            violation_fraction: self.violation_fraction(),
            ccdf: self.hist.ccdf_points(),
        }
    }
}

/// Serializable per-job tail summary (the report-pipeline payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TailSummary {
    /// Number of queries.
    pub count: u64,
    /// Median latency (µs).
    pub p50_us: u64,
    /// 90th-percentile latency (µs).
    pub p90_us: u64,
    /// 99th-percentile latency (µs).
    pub p99_us: u64,
    /// 99.9th-percentile latency (µs).
    pub p999_us: u64,
    /// Mean latency (µs).
    pub mean_us: f64,
    /// Largest observed latency (µs).
    pub max_us: u64,
    /// QoS target (µs), when the job has one.
    pub qos_target_us: Option<f64>,
    /// Fraction of queries over the QoS target.
    pub violation_fraction: f64,
    /// Tail CCDF points on the standard quantile grid.
    pub ccdf: Vec<CcdfPoint>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        for v in 0..32u64 {
            let q = (v + 1) as f64 / 32.0;
            assert_eq!(h.value_at_quantile(q), v, "quantile {q}");
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn bucket_bounds_are_monotone_and_cover_u64() {
        let mut prev = None;
        for idx in 0..BUCKET_COUNT {
            let b = LatencyHistogram::bound(idx);
            if let Some(p) = prev {
                assert!(b > p, "bound({idx}) = {b} not above {p}");
            }
            prev = Some(b);
        }
        assert_eq!(LatencyHistogram::index(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(LatencyHistogram::bound(BUCKET_COUNT - 1), u64::MAX);
        // Every value's bucket upper bound is >= the value and within the
        // relative-error budget.
        for v in [0u64, 1, 31, 32, 33, 1000, 12_345, 1 << 20, (1 << 40) + 7] {
            let b = LatencyHistogram::bound(LatencyHistogram::index(v));
            assert!(b >= v, "bound {b} below value {v}");
            assert!(
                (b - v) as f64 <= (v as f64) * LatencyHistogram::RELATIVE_ERROR,
                "value {v} bound {b} exceeds error budget"
            );
        }
    }

    #[test]
    fn quantiles_track_an_exponential_sample() {
        // Inverse-CDF sampling of an exponential with scale 1000 µs on a
        // uniform grid: the p99 must come out near scale · ln(100).
        let mut h = LatencyHistogram::new();
        let n = 100_000u64;
        for i in 0..n {
            let u = (i as f64 + 0.5) / n as f64;
            h.record((-(1.0 - u).ln() * 1000.0).round() as u64);
        }
        let p99 = h.value_at_quantile(0.99) as f64;
        let exact = 1000.0 * 100f64.ln();
        assert!(
            (p99 - exact).abs() <= exact * (LatencyHistogram::RELATIVE_ERROR + 0.01),
            "p99 {p99} vs exact {exact}"
        );
        assert!(h.value_at_quantile(0.5) < h.value_at_quantile(0.999));
    }

    #[test]
    fn merge_matches_single_histogram() {
        let mut all = LatencyHistogram::new();
        let mut parts = vec![LatencyHistogram::new(), LatencyHistogram::new()];
        for v in [3u64, 77, 501, 12_000, 12_001, 9_999_999] {
            all.record(v);
            parts[(v % 2) as usize].record(v);
        }
        let mut merged = LatencyHistogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, all);
    }

    #[test]
    fn ccdf_is_monotone_decreasing() {
        let mut h = LatencyHistogram::new();
        for i in 0..10_000u64 {
            h.record(i * 3 + 7);
        }
        let points = h.ccdf_points();
        assert!(!points.is_empty());
        assert!(points.windows(2).all(|w| w[0].latency_us < w[1].latency_us));
        assert!(points.windows(2).all(|w| w[0].fraction > w[1].fraction));
    }

    #[test]
    fn tracker_counts_violations_and_summarizes() {
        let mut t = TailTracker::new(Some(500.0));
        for l in [100.0, 200.0, 450.0, 600.0, 9_000.0] {
            t.record(l);
        }
        assert_eq!(t.count(), 5);
        assert!((t.violation_fraction() - 0.4).abs() < 1e-12);
        let s = t.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.qos_target_us, Some(500.0));
        assert!(s.p50_us >= 200 && s.p50_us <= 460, "{}", s.p50_us);
        assert!(s.max_us >= 9_000);
        assert!(!s.ccdf.is_empty());
    }

    #[test]
    fn tracker_summary_round_trips_through_json() {
        let mut t = TailTracker::new(None);
        for l in [10.0, 20.0, 30.0] {
            t.record(l);
        }
        let s = t.summary();
        let text = serde_json::to_string(&s).unwrap();
        let back: TailSummary = serde_json::from_str(&text).unwrap();
        assert_eq!(s, back);
    }
}
