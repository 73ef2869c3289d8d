//! A small metrics registry: counters, gauges, and log-bucketed
//! histograms, exportable as Prometheus text exposition.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Histogram bucket upper bounds: powers of two from 2⁻³⁰ (~1 ns when
/// observing seconds) to 2³⁰, every third power. Log-spaced buckets keep
/// resolution proportional to magnitude across the nine decades the
/// search telemetry spans (EI values, phase durations, scores).
fn bucket_bounds() -> impl Iterator<Item = f64> {
    (-30i32..=30).step_by(3).map(|k| 2f64.powi(k))
}

const BUCKETS: usize = 21;

/// A log-bucketed histogram with cumulative export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; parallel to the log-spaced
    /// bucket bounds (powers of two from 2^-30 to 2^30, step 2^3),
    /// with one extra overflow bucket at the end.
    pub counts: Vec<u64>,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

#[derive(Debug, Clone, Default)]
struct Histogram {
    counts: [u64; BUCKETS + 1],
    count: u64,
    sum: f64,
}

impl Histogram {
    fn observe(&mut self, value: f64) {
        self.observe_n(value, 1);
    }

    fn observe_n(&mut self, value: f64, n: u64) {
        let idx = bucket_bounds().position(|bound| value <= bound).unwrap_or(BUCKETS);
        self.counts[idx] += n;
        self.count += n;
        self.sum += value * n as f64;
    }
}

/// A metric identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

impl Key {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect();
        labels.sort();
        Self { name: name.to_owned(), labels }
    }

    /// Renders `name{k="v",…}` (or bare `name` without labels) with an
    /// optional suffix spliced onto the name (`_bucket`, `_sum`, …).
    fn render(&self, suffix: &str, extra_label: Option<(&str, &str)>) -> String {
        let mut out = format!("{}{}", self.name, suffix);
        let mut pairs: Vec<(String, String)> = self.labels.clone();
        if let Some((k, v)) = extra_label {
            pairs.push((k.to_owned(), v.to_owned()));
        }
        if !pairs.is_empty() {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{k}=\"{v}\"");
            }
            out.push('}');
        }
        out
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Histogram>,
}

/// Thread-safe registry of counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn inc_counter(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let mut inner = self.inner.lock().expect("metrics lock");
        *inner.counters.entry(Key::new(name, labels)).or_insert(0) += delta;
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let mut inner = self.inner.lock().expect("metrics lock");
        inner.gauges.insert(Key::new(name, labels), value);
    }

    /// Records one observation into a log-bucketed histogram.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let mut inner = self.inner.lock().expect("metrics lock");
        inner.histograms.entry(Key::new(name, labels)).or_default().observe(value);
    }

    /// Current value of a counter, if it exists.
    #[must_use]
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let inner = self.inner.lock().expect("metrics lock");
        inner.counters.get(&Key::new(name, labels)).copied()
    }

    /// Current value of a gauge, if it exists.
    #[must_use]
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let inner = self.inner.lock().expect("metrics lock");
        inner.gauges.get(&Key::new(name, labels)).copied()
    }

    /// Snapshot of a histogram, if it exists.
    #[must_use]
    pub fn histogram_snapshot(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSnapshot> {
        let inner = self.inner.lock().expect("metrics lock");
        inner.histograms.get(&Key::new(name, labels)).map(|h| HistogramSnapshot {
            counts: h.counts.to_vec(),
            count: h.count,
            sum: h.sum,
        })
    }

    /// Renders the registry in Prometheus text exposition format:
    /// `# TYPE` headers, cumulative `_bucket{le=…}` series, and `_sum` /
    /// `_count` per histogram.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("metrics lock");
        let mut out = String::new();

        let mut last_type_header = String::new();
        let mut type_header = |out: &mut String, name: &str, kind: &str| {
            let header = format!("# TYPE {name} {kind}\n");
            if header != last_type_header {
                out.push_str(&header);
                last_type_header = header;
            }
        };

        for (key, value) in &inner.counters {
            type_header(&mut out, &key.name, "counter");
            let _ = writeln!(out, "{} {}", key.render("", None), value);
        }
        for (key, value) in &inner.gauges {
            type_header(&mut out, &key.name, "gauge");
            let _ = writeln!(out, "{} {}", key.render("", None), value);
        }
        for (key, hist) in &inner.histograms {
            type_header(&mut out, &key.name, "histogram");
            let mut cumulative = 0u64;
            for (bound, count) in bucket_bounds().zip(hist.counts.iter()) {
                cumulative += count;
                let le = format!("{bound:e}");
                let _ =
                    writeln!(out, "{} {}", key.render("_bucket", Some(("le", &le))), cumulative);
            }
            let _ = writeln!(out, "{} {}", key.render("_bucket", Some(("le", "+Inf"))), hist.count);
            let _ = writeln!(out, "{} {}", key.render("_sum", None), hist.sum);
            let _ = writeln!(out, "{} {}", key.render("_count", None), hist.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let m = MetricsRegistry::new();
        m.inc_counter("clite_events_total", &[("kind", "placement")], 1);
        m.inc_counter("clite_events_total", &[("kind", "placement")], 2);
        m.inc_counter("clite_events_total", &[("kind", "eviction")], 5);
        assert_eq!(m.counter_value("clite_events_total", &[("kind", "placement")]), Some(3));
        assert_eq!(m.counter_value("clite_events_total", &[("kind", "eviction")]), Some(5));
        assert_eq!(m.counter_value("clite_events_total", &[]), None);
    }

    #[test]
    fn gauges_overwrite() {
        let m = MetricsRegistry::new();
        m.set_gauge("clite_best_score", &[], 0.4);
        m.set_gauge("clite_best_score", &[], 0.9);
        assert_eq!(m.gauge_value("clite_best_score", &[]), Some(0.9));
    }

    #[test]
    fn histogram_buckets_are_log_spaced_and_cumulative() {
        let m = MetricsRegistry::new();
        // One tiny, one mid, one huge observation.
        m.observe("clite_ei", &[], 1e-8);
        m.observe("clite_ei", &[], 0.5);
        m.observe("clite_ei", &[], 1e12);
        let snap = m.histogram_snapshot("clite_ei", &[]).unwrap();
        assert_eq!(snap.count, 3);
        assert!((snap.sum - (1e-8 + 0.5 + 1e12)).abs() < 1.0);
        // The overflow bucket holds exactly the out-of-range observation.
        assert_eq!(*snap.counts.last().unwrap(), 1);
        assert_eq!(snap.counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let m = MetricsRegistry::new();
        m.inc_counter("clite_events_total", &[("kind", "gp_refit")], 4);
        m.set_gauge("clite_best_score", &[], 0.75);
        m.observe("clite_phase_seconds", &[("phase", "gp_fit")], 0.002);
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE clite_events_total counter\n"), "{text}");
        assert!(text.contains("clite_events_total{kind=\"gp_refit\"} 4\n"), "{text}");
        assert!(text.contains("# TYPE clite_best_score gauge\n"), "{text}");
        assert!(text.contains("clite_best_score 0.75\n"), "{text}");
        assert!(text.contains("# TYPE clite_phase_seconds histogram\n"), "{text}");
        assert!(text.contains("le=\"+Inf\"} 1\n"), "{text}");
        assert!(text.contains("clite_phase_seconds_count{phase=\"gp_fit\"} 1\n"), "{text}");
        // Bucket series are cumulative: every later bucket ≥ earlier.
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("clite_phase_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
    }
}
