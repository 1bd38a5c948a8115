//! Label-keyed counters, gauges and fixed-bucket histograms.
//!
//! Metric names are `&'static str` (they are part of the code, not data);
//! label pairs distinguish instances (`server="3"`, `action="move_in"`).
//! Histograms use a fixed log-spaced bucket layout tuned for simulated
//! durations in milliseconds (1 ms – 10 min), so percentile queries are
//! O(buckets) and fully deterministic.

use std::collections::BTreeMap;

/// Identity of one metric instance: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, e.g. `met_actions_total`.
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &'static str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }

    /// Renders the key in Prometheus-like form:
    /// `name{label="value",...}`.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self.labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// Bucket upper bounds (inclusive) for duration histograms, in ms.
pub const BUCKET_BOUNDS_MS: [f64; 18] = [
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0,
    30_000.0, 60_000.0, 120_000.0, 300_000.0, 600_000.0,
];

#[derive(Debug, Clone)]
struct Histogram {
    /// One count per bound, plus a final overflow bucket.
    counts: [u64; BUCKET_BOUNDS_MS.len() + 1],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            counts: [0; BUCKET_BOUNDS_MS.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, value: f64) {
        let idx = BUCKET_BOUNDS_MS
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(BUCKET_BOUNDS_MS.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Upper-bound percentile estimate: the smallest bucket bound such
    /// that at least `q` of the observations are ≤ it. Observations in
    /// the overflow bucket report the true maximum.
    fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Some(if idx < BUCKET_BOUNDS_MS.len() {
                    BUCKET_BOUNDS_MS[idx].min(self.max)
                } else {
                    self.max
                });
            }
        }
        Some(self.max)
    }

    fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.percentile(0.50).unwrap_or(0.0),
            p95: self.percentile(0.95).unwrap_or(0.0),
            p99: self.percentile(0.99).unwrap_or(0.0),
        }
    }
}

/// Point-in-time digest of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Median (bucket-bound estimate).
    pub p50: f64,
    /// 95th percentile (bucket-bound estimate).
    pub p95: f64,
    /// 99th percentile (bucket-bound estimate).
    pub p99: f64,
}

impl HistogramSummary {
    /// Mean observation, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The metric store. All maps are ordered so snapshots render stably.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to a counter, creating it at zero first if needed.
    pub fn counter_add(&mut self, name: &'static str, labels: &[(&str, &str)], n: u64) {
        *self.counters.entry(MetricKey::new(name, labels)).or_insert(0) += n;
    }

    /// Sets a gauge to `value`.
    pub fn gauge_set(&mut self, name: &'static str, labels: &[(&str, &str)], value: f64) {
        self.gauges.insert(MetricKey::new(name, labels), value);
    }

    /// Records one histogram observation.
    pub fn observe(&mut self, name: &'static str, labels: &[(&str, &str)], value: f64) {
        self.histograms
            .entry(MetricKey::new(name, labels))
            .or_insert_with(Histogram::new)
            .observe(value);
    }

    /// One labelled counter's value (0 when absent).
    pub fn counter(&self, name: &'static str, labels: &[(&str, &str)]) -> u64 {
        self.counters.get(&MetricKey::new(name, labels)).copied().unwrap_or(0)
    }

    /// A counter summed over every label set sharing `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.iter().filter(|(k, _)| k.name == name).map(|(_, v)| v).sum()
    }

    /// One labelled gauge's value.
    pub fn gauge(&self, name: &'static str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&MetricKey::new(name, labels)).copied()
    }

    /// One labelled histogram's digest.
    pub fn histogram(
        &self,
        name: &'static str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSummary> {
        self.histograms.get(&MetricKey::new(name, labels)).map(Histogram::summary)
    }

    /// Applies every update buffered in `buf`, in buffer order, so the
    /// registry contents are identical to what the same updates applied
    /// inline would produce.
    pub fn merge(&mut self, buf: &MetricsBuffer) {
        for (key, op) in &buf.ops {
            match op {
                BufferedOp::CounterAdd(n) => {
                    *self.counters.entry(key.clone()).or_insert(0) += n;
                }
                BufferedOp::GaugeSet(v) => {
                    self.gauges.insert(key.clone(), *v);
                }
                BufferedOp::Observe(v) => {
                    self.histograms.entry(key.clone()).or_insert_with(Histogram::new).observe(*v);
                }
            }
        }
    }

    /// A copy of every metric, sorted by key.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: self.histograms.iter().map(|(k, h)| (k.clone(), h.summary())).collect(),
        }
    }
}

/// One update queued in a [`MetricsBuffer`].
#[derive(Debug, Clone, PartialEq)]
enum BufferedOp {
    CounterAdd(u64),
    GaugeSet(f64),
    Observe(f64),
}

/// A private, lock-free staging area for metric updates.
///
/// The simulator records a tick's per-server metrics into one buffer and
/// flushes it under a single registry lock ([`MetricsRegistry::merge`] /
/// `Telemetry::flush_buffer`) instead of taking the lock per gauge. Updates
/// are replayed in recording order, so a flushed buffer is
/// indistinguishable from the same calls made directly against the
/// registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsBuffer {
    ops: Vec<(MetricKey, BufferedOp)>,
}

impl MetricsBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        MetricsBuffer::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of buffered updates.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Drops all buffered updates, keeping the allocation, so one buffer
    /// can be refilled every tick.
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// Buffers a counter increment.
    pub fn counter_add(&mut self, name: &'static str, labels: &[(&str, &str)], n: u64) {
        self.ops.push((MetricKey::new(name, labels), BufferedOp::CounterAdd(n)));
    }

    /// Buffers a gauge write.
    pub fn gauge_set(&mut self, name: &'static str, labels: &[(&str, &str)], value: f64) {
        self.ops.push((MetricKey::new(name, labels), BufferedOp::GaugeSet(value)));
    }

    /// Buffers a histogram observation.
    pub fn observe(&mut self, name: &'static str, labels: &[(&str, &str)], value: f64) {
        self.ops.push((MetricKey::new(name, labels), BufferedOp::Observe(value)));
    }
}

/// Sorted point-in-time copy of a registry, for reports.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All counters, sorted by key.
    pub counters: Vec<(MetricKey, u64)>,
    /// All gauges, sorted by key.
    pub gauges: Vec<(MetricKey, f64)>,
    /// All histogram digests, sorted by key.
    pub histograms: Vec<(MetricKey, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// A counter summed over every label set sharing `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.iter().filter(|(k, _)| k.name == name).map(|(_, v)| v).sum()
    }

    /// Finds a histogram digest by metric name (first label set wins).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|(k, _)| k.name == name).map(|(_, h)| h)
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters and gauges as-is, histograms as summaries
    /// with `quantile` labels plus `_sum`/`_count` series. Output is fully
    /// ordered (snapshots are key-sorted), so two renders of equal
    /// snapshots are byte-identical — scrapeable *and* diffable.
    pub fn render_prometheus(&self) -> String {
        fn type_line(out: &mut String, last: &mut Option<String>, name: &str, kind: &str) {
            if last.as_deref() != Some(name) {
                out.push_str("# TYPE ");
                out.push_str(name);
                out.push(' ');
                out.push_str(kind);
                out.push('\n');
                *last = Some(name.to_string());
            }
        }
        let mut out = String::new();
        let mut last: Option<String> = None;
        for (key, value) in &self.counters {
            type_line(&mut out, &mut last, &key.name, "counter");
            write_series(&mut out, &key.name, "", &key.labels, &[], &value.to_string());
        }
        last = None;
        for (key, value) in &self.gauges {
            type_line(&mut out, &mut last, &key.name, "gauge");
            write_series(&mut out, &key.name, "", &key.labels, &[], &fmt_f64(*value));
        }
        last = None;
        for (key, h) in &self.histograms {
            type_line(&mut out, &mut last, &key.name, "summary");
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                write_series(&mut out, &key.name, "", &key.labels, &[("quantile", q)], &fmt_f64(v));
            }
            write_series(&mut out, &key.name, "_sum", &key.labels, &[], &fmt_f64(h.sum));
            write_series(&mut out, &key.name, "_count", &key.labels, &[], &h.count.to_string());
        }
        out
    }
}

/// Formats an `f64` the way Prometheus expects (shortest round-trip
/// representation; Rust's `Display` already provides it).
fn fmt_f64(v: f64) -> String {
    if v.is_infinite() {
        return if v > 0.0 { "+Inf".to_string() } else { "-Inf".to_string() };
    }
    format!("{v}")
}

/// Appends one exposition line: `name[suffix]{labels,extras} value`.
fn write_series(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(String, String)],
    extras: &[(&str, &str)],
    value: &str,
) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() || !extras.is_empty() {
        out.push('{');
        let mut first = true;
        for (k, v) in
            labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).chain(extras.iter().copied())
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            for c in v.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate_per_label_and_total() {
        let mut r = MetricsRegistry::new();
        r.counter_add("actions", &[("kind", "move")], 2);
        r.counter_add("actions", &[("kind", "move")], 3);
        r.counter_add("actions", &[("kind", "compact")], 1);
        // Label order must not matter for identity.
        r.counter_add("multi", &[("a", "1"), ("b", "2")], 1);
        r.counter_add("multi", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.counter("actions", &[("kind", "move")]), 5);
        assert_eq!(r.counter("actions", &[("kind", "compact")]), 1);
        assert_eq!(r.counter("actions", &[("kind", "absent")]), 0);
        assert_eq!(r.counter_total("actions"), 6);
        assert_eq!(r.counter("multi", &[("a", "1"), ("b", "2")]), 2);
    }

    #[test]
    fn histogram_percentiles_track_bucket_bounds() {
        let mut r = MetricsRegistry::new();
        // 100 observations: 1..=100 ms.
        for v in 1..=100 {
            r.observe("lat", &[], v as f64);
        }
        let h = r.histogram("lat", &[]).unwrap();
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        // Rank 50 lands in the (25, 50] bucket → bound 50.
        assert_eq!(h.p50, 50.0);
        // Rank 95 lands in the (50, 100] bucket → bound 100.
        assert_eq!(h.p95, 100.0);
        assert_eq!(h.p99, 100.0);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_overflow_and_singleton() {
        let mut r = MetricsRegistry::new();
        r.observe("big", &[], 10_000_000.0); // beyond the last bound
        let h = r.histogram("big", &[]).unwrap();
        assert_eq!(h.p50, 10_000_000.0);
        assert_eq!(h.p99, 10_000_000.0);

        let mut r = MetricsRegistry::new();
        r.observe("one", &[], 3.0);
        let h = r.histogram("one", &[]).unwrap();
        // Single observation: every percentile is capped at the max.
        assert_eq!(h.p50, 3.0);
        assert_eq!(h.p99, 3.0);
    }

    #[test]
    fn empty_histogram_is_absent() {
        let r = MetricsRegistry::new();
        assert!(r.histogram("nope", &[]).is_none());
        assert!(r.gauge("nope", &[]).is_none());
    }

    #[test]
    fn merged_buffers_match_direct_updates() {
        // Direct path.
        let mut direct = MetricsRegistry::new();
        direct.counter_add("hits", &[("server", "1")], 4);
        direct.counter_add("hits", &[("server", "2")], 6);
        direct.gauge_set("warmth", &[("server", "1")], 0.5);
        direct.gauge_set("warmth", &[("server", "2")], 0.9);
        direct.observe("lat", &[], 12.0);
        direct.observe("lat", &[], 80.0);

        // Buffered path: two buffers merged in order.
        let mut first = MetricsBuffer::new();
        first.counter_add("hits", &[("server", "1")], 4);
        first.gauge_set("warmth", &[("server", "1")], 0.5);
        first.observe("lat", &[], 12.0);
        let mut second = MetricsBuffer::new();
        second.counter_add("hits", &[("server", "2")], 6);
        second.gauge_set("warmth", &[("server", "2")], 0.9);
        second.observe("lat", &[], 80.0);
        assert_eq!(first.len(), 3);
        assert!(!second.is_empty());

        let mut merged = MetricsRegistry::new();
        merged.merge(&first);
        merged.merge(&second);

        let a = direct.snapshot();
        let b = merged.snapshot();
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.gauges, b.gauges);
        assert_eq!(a.histograms.len(), b.histograms.len());
        for ((ka, ha), (kb, hb)) in a.histograms.iter().zip(b.histograms.iter()) {
            assert_eq!(ka, kb);
            assert_eq!(ha, hb);
        }
    }

    #[test]
    fn gauge_merge_keeps_last_write() {
        let mut buf = MetricsBuffer::new();
        buf.gauge_set("g", &[], 1.0);
        buf.gauge_set("g", &[], 2.0);
        let mut r = MetricsRegistry::new();
        r.merge(&buf);
        assert_eq!(r.gauge("g", &[]), Some(2.0));
    }

    #[test]
    fn empty_histogram_summary_is_all_zero() {
        // The registry never exposes an empty histogram (absent instead),
        // but the summary itself must stay well-defined: zeros, not NaN
        // or the ±infinity sentinels `min`/`max` start from.
        let h = Histogram::new().summary();
        assert_eq!(h.count, 0);
        assert_eq!(h.sum, 0.0);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 0.0);
        assert_eq!(h.p50, 0.0);
        assert_eq!(h.p95, 0.0);
        assert_eq!(h.p99, 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_percentiles_all_report_that_sample() {
        let mut r = MetricsRegistry::new();
        // 7.0 falls in the (5, 10] bucket; the bound estimate (10) must be
        // capped at the observed max.
        r.observe("one", &[], 7.0);
        let h = r.histogram("one", &[]).unwrap();
        assert_eq!((h.min, h.max), (7.0, 7.0));
        assert_eq!(h.p50, 7.0);
        assert_eq!(h.p95, 7.0);
        assert_eq!(h.p99, 7.0);
    }

    #[test]
    fn all_equal_samples_collapse_every_percentile() {
        let mut r = MetricsRegistry::new();
        for _ in 0..1_000 {
            r.observe("flat", &[], 42.0);
        }
        let h = r.histogram("flat", &[]).unwrap();
        assert_eq!(h.count, 1_000);
        // All observations share one bucket (25, 50]; the bound estimate
        // (50) is capped at the max, so every percentile is exactly 42.
        assert_eq!(h.p50, 42.0);
        assert_eq!(h.p95, 42.0);
        assert_eq!(h.p99, 42.0);
        assert!((h.mean() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn prometheus_rendering_escapes_and_orders() {
        let mut r = MetricsRegistry::new();
        r.counter_add("actions_total", &[("kind", "a\"b\\c\nd")], 3);
        r.gauge_set("warmth", &[("server", "1")], 0.25);
        r.observe("span_ms", &[("span", "tick")], 2.0);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE actions_total counter\n"));
        assert!(text.contains("actions_total{kind=\"a\\\"b\\\\c\\nd\"} 3\n"));
        assert!(text.contains("# TYPE warmth gauge\nwarmth{server=\"1\"} 0.25\n"));
        assert!(text.contains("# TYPE span_ms summary\n"));
        assert!(text.contains("span_ms{span=\"tick\",quantile=\"0.5\"} 2\n"));
        assert!(text.contains("span_ms_sum{span=\"tick\"} 2\n"));
        assert!(text.contains("span_ms_count{span=\"tick\"} 1\n"));
        // A second render of an equal snapshot is byte-identical.
        assert_eq!(text, r.snapshot().render_prometheus());
    }

    #[test]
    fn render_is_prometheus_like() {
        let key = MetricKey::new("hits", &[("server", "3"), ("cache", "block")]);
        assert_eq!(key.render(), "hits{cache=\"block\",server=\"3\"}");
        assert_eq!(MetricKey::new("plain", &[]).render(), "plain");
    }
}
