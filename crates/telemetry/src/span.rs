//! Wall-clock span profiler and flight recorder.
//!
//! Everything else in this crate measures *simulated* time; this module
//! measures where *wall-clock* time goes — per phase of a simulation tick,
//! per store operation, per thread — which sim-clock counters cannot show.
//!
//! * [`span`] / [`span_labeled`] / [`Telemetry::span`](crate::Telemetry::span)
//!   open a [`SpanGuard`] that records its start/end wall-clock
//!   timestamps, thread id and parent span when dropped.
//! * Records land in per-thread buffers (one buffer per OS thread,
//!   registered on first use); recording never contends with other
//!   threads — only [`drain`] briefly locks each buffer.
//! * [`chrome_trace`] serializes records as Chrome trace-event JSON
//!   (loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev));
//!   [`aggregate`] reduces them to per-phase statistics (count, total and
//!   self wall ms, exact p50/p95/p99); [`export_to_registry`] mirrors the
//!   aggregate into a [`Telemetry`](crate::Telemetry) registry as
//!   `profile_span_ms` histograms.
//!
//! # Trace invisibility
//!
//! Profiling is **off by default** and gated behind `MET_PROFILE` /
//! `MET_SPANS` (or [`set_enabled`]). The disabled path is a single relaxed
//! atomic load per call site — no allocation, no clock read, no lock.
//! Spans never write to the sim clock, any RNG stream, or the telemetry
//! event/metric pipeline (only an explicit [`export_to_registry`] call
//! does), so enabling profiling leaves JSONL traces, registry contents and
//! simulation results byte-identical: the `trace_determinism` tests hold
//! with profiling on or off.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span (phase) name, e.g. `solver.evaluate`.
    pub name: &'static str,
    /// Label pairs attached at creation, e.g. `("phase", "flush")`.
    pub labels: Vec<(&'static str, String)>,
    /// Start, microseconds since the profiler epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Small stable id of the recording OS thread (0 = first recorder).
    pub thread: u64,
    /// Unique span id.
    pub id: u64,
    /// Enclosing span at creation time, if any.
    pub parent: Option<u64>,
}

// Enabled state: UNINIT resolves from the environment on first query, so
// binaries honor MET_PROFILE/MET_SPANS without an init call; set_enabled
// overrides either way.
const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;
static STATE: AtomicU8 = AtomicU8::new(UNINIT);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

/// A per-thread record buffer. Pushes lock the thread's own mutex, which
/// is uncontended except while a concurrent [`drain`]/[`clear`] briefly
/// holds it — recording threads never wait on each other.
struct ThreadBuffer {
    thread: u64,
    records: Mutex<Vec<SpanRecord>>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuffer>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuffer>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static BUFFER: RefCell<Option<Arc<ThreadBuffer>>> = const { RefCell::new(None) };
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Whether span recording is on. The first query resolves the
/// `MET_PROFILE` / `MET_SPANS` environment knobs (via
/// [`simcore::config::env_config`]); [`set_enabled`] overrides at runtime.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = simcore::config::env_config().profile;
    let want = if on { ON } else { OFF };
    // Racing initializers compute the same value; a concurrent
    // set_enabled wins via the re-load.
    let _ = STATE.compare_exchange(UNINIT, want, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == ON
}

/// Turns span recording on or off for the whole process (overrides the
/// environment knobs).
pub fn set_enabled(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

fn with_buffer(f: impl FnOnce(&ThreadBuffer)) {
    BUFFER.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuffer {
                thread: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
                records: Mutex::new(Vec::new()),
            });
            registry().lock().unwrap().push(buf.clone());
            buf
        });
        f(buf);
    });
}

/// An open span; records itself into the current thread's buffer on drop.
/// Guards from a disabled profiler are inert.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
    id: u64,
    parent: Option<u64>,
    start: Instant,
}

impl SpanGuard {
    #[inline]
    fn inert() -> Self {
        SpanGuard { active: None }
    }

    /// This span's id (`None` for an inert guard).
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else { return };
        let end = Instant::now();
        let start_us =
            active.start.checked_duration_since(epoch()).unwrap_or_default().as_micros() as u64;
        let dur_us =
            end.checked_duration_since(active.start).unwrap_or_default().as_micros() as u64;
        CURRENT.with(|c| c.set(active.parent));
        with_buffer(|buf| {
            buf.records.lock().unwrap().push(SpanRecord {
                name: active.name,
                labels: active.labels,
                start_us,
                dur_us,
                thread: buf.thread,
                id: active.id,
                parent: active.parent,
            });
        });
    }
}

fn begin(name: &'static str, labels: Vec<(&'static str, String)>) -> SpanGuard {
    // The epoch must exist before the first start timestamp is taken.
    let _ = epoch();
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(Some(id)));
    SpanGuard { active: Some(ActiveSpan { name, labels, id, parent, start: Instant::now() }) }
}

/// Opens an unlabelled span parented on the thread's current span.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    begin(name, Vec::new())
}

/// Opens a labelled span. Callers on hot paths should gate any label
/// formatting on [`enabled`]; this function only allocates when recording.
#[inline]
pub fn span_labeled(name: &'static str, labels: &[(&'static str, &str)]) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    begin(name, labels.iter().map(|(k, v)| (*k, v.to_string())).collect())
}

/// Takes every recorded span out of every thread buffer, ordered by start
/// time (ties by span id).
pub fn drain() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for buf in registry().lock().unwrap().iter() {
        out.append(&mut buf.records.lock().unwrap());
    }
    out.sort_by_key(|r| (r.start_us, r.id));
    out
}

/// Discards every recorded span.
pub fn clear() {
    for buf in registry().lock().unwrap().iter() {
        buf.records.lock().unwrap().clear();
    }
}

// ---- export: Chrome trace-event JSON ----------------------------------

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Serializes `records` as Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` object form): one complete (`"ph": "X"`) event
/// per span, timestamps/durations in microseconds, one `tid` per recording
/// thread. Load the output in `chrome://tracing` or Perfetto.
pub fn chrome_trace(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(128 * records.len() + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        json_escape_into(&mut out, r.name);
        out.push_str("\",\"cat\":\"met\",\"ph\":\"X\",\"pid\":1,\"tid\":");
        out.push_str(&r.thread.to_string());
        out.push_str(",\"ts\":");
        out.push_str(&r.start_us.to_string());
        out.push_str(",\"dur\":");
        out.push_str(&r.dur_us.to_string());
        out.push_str(",\"args\":{\"id\":");
        out.push_str(&r.id.to_string());
        if let Some(p) = r.parent {
            out.push_str(",\"parent\":");
            out.push_str(&p.to_string());
        }
        for (k, v) in &r.labels {
            out.push_str(",\"");
            json_escape_into(&mut out, k);
            out.push_str("\":\"");
            json_escape_into(&mut out, v);
            out.push('"');
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

// ---- export: per-phase aggregation ------------------------------------

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Span (phase) name.
    pub name: &'static str,
    /// Number of spans recorded under the name.
    pub count: u64,
    /// Total wall milliseconds (sum of durations; nested spans count
    /// toward every enclosing span's total).
    pub total_ms: f64,
    /// Self wall milliseconds: total minus the time attributed to direct
    /// child spans.
    pub self_ms: f64,
    /// Exact median duration (ms).
    pub p50_ms: f64,
    /// Exact 95th-percentile duration (ms).
    pub p95_ms: f64,
    /// Exact 99th-percentile duration (ms).
    pub p99_ms: f64,
}

fn exact_percentile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1] as f64 / 1_000.0
}

/// Reduces records to per-name statistics, ordered by self time
/// (descending; ties by name). Percentiles are exact (computed from the
/// full duration list, not bucket bounds).
pub fn aggregate(records: &[SpanRecord]) -> Vec<SpanStats> {
    use std::collections::BTreeMap;
    // Wall time attributed to direct children, per parent span id.
    let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        if let Some(p) = r.parent {
            *child_us.entry(p).or_insert(0) += r.dur_us;
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64, Vec<u64>)> = BTreeMap::new();
    for r in records {
        let e = by_name.entry(r.name).or_insert((0, 0, 0, Vec::new()));
        e.0 += 1;
        e.1 += r.dur_us;
        e.2 += r.dur_us.saturating_sub(child_us.get(&r.id).copied().unwrap_or(0));
        e.3.push(r.dur_us);
    }
    let mut out: Vec<SpanStats> = by_name
        .into_iter()
        .map(|(name, (count, total_us, self_us, mut durs))| {
            durs.sort_unstable();
            SpanStats {
                name,
                count,
                total_ms: total_us as f64 / 1_000.0,
                self_ms: self_us as f64 / 1_000.0,
                p50_ms: exact_percentile(&durs, 0.50),
                p95_ms: exact_percentile(&durs, 0.95),
                p99_ms: exact_percentile(&durs, 0.99),
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.self_ms.partial_cmp(&a.self_ms).expect("durations are finite").then(a.name.cmp(b.name))
    });
    out
}

/// Mirrors the per-phase aggregate into `telemetry`'s metrics registry:
/// every span duration observes into a `profile_span_ms{span=...}`
/// histogram, self time lands in a `profile_span_self_ms` gauge and span
/// counts in a `profile_spans_total` counter. Only this explicit call
/// moves profiling data into a registry — recording alone never does.
pub fn export_to_registry(telemetry: &crate::Telemetry, records: &[SpanRecord]) {
    for r in records {
        telemetry.observe("profile_span_ms", &[("span", r.name)], r.dur_us as f64 / 1_000.0);
    }
    for s in aggregate(records) {
        telemetry.gauge_set("profile_span_self_ms", &[("span", s.name)], s.self_ms);
        telemetry.counter_add("profile_spans_total", &[("span", s.name)], s.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share process-global profiler state; serialize them.
    pub(super) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _l = lock();
        set_enabled(false);
        clear();
        {
            let g = span("phase.a");
            assert!(g.id().is_none());
            let _inner = span_labeled("phase.b", &[("k", "v")]);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn nesting_records_parent_links() {
        let _l = lock();
        set_enabled(true);
        clear();
        {
            let outer = span("outer");
            let outer_id = outer.id().unwrap();
            {
                let inner = span("inner");
                assert_eq!(
                    drained_parent_of(inner.id().unwrap(), outer_id),
                    None,
                    "inner not recorded until dropped"
                );
            }
            drop(outer);
        }
        set_enabled(false);
        let records = drain();
        assert_eq!(records.len(), 2);
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        let inner = records.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.dur_us <= outer.dur_us);
    }

    // Helper: nothing is recorded until drop, so this just documents the
    // invariant without draining mid-test.
    fn drained_parent_of(_id: u64, _parent: u64) -> Option<u64> {
        None
    }

    #[test]
    fn aggregate_computes_self_time_and_exact_percentiles() {
        let rec = |name: &'static str, id, parent, start_us, dur_us| SpanRecord {
            name,
            labels: Vec::new(),
            start_us,
            dur_us,
            thread: 0,
            id,
            parent,
        };
        let records = vec![
            rec("tick", 1, None, 0, 10_000),
            rec("solve", 2, Some(1), 1_000, 6_000),
            rec("solve", 3, Some(1), 8_000, 2_000),
            rec("eval", 4, Some(2), 2_000, 1_000),
        ];
        let stats = aggregate(&records);
        let get = |n: &str| stats.iter().find(|s| s.name == n).unwrap().clone();
        let tick = get("tick");
        assert_eq!(tick.count, 1);
        assert!((tick.total_ms - 10.0).abs() < 1e-9);
        // 10 ms minus the two direct solve children (8 ms).
        assert!((tick.self_ms - 2.0).abs() < 1e-9);
        let solve = get("solve");
        assert_eq!(solve.count, 2);
        assert!((solve.total_ms - 8.0).abs() < 1e-9);
        // 8 ms minus the eval child (1 ms).
        assert!((solve.self_ms - 7.0).abs() < 1e-9);
        assert!((solve.p50_ms - 2.0).abs() < 1e-9, "exact median of [2,6] is 2");
        assert!((solve.p99_ms - 6.0).abs() < 1e-9);
        // Ordered by self time: solve (7) > eval follows tick (2) > eval (1).
        assert_eq!(stats[0].name, "solve");
        assert_eq!(stats.last().unwrap().name, "eval");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_required_fields() {
        let records = vec![SpanRecord {
            name: "phase.\"x\"",
            labels: vec![("server", "3".to_string())],
            start_us: 5,
            dur_us: 7,
            thread: 2,
            id: 9,
            parent: Some(4),
        }];
        let json = chrome_trace(&records);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v["traceEvents"].as_array().expect("traceEvents array");
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e["ph"].as_str(), Some("X"));
        assert_eq!(e["ts"].as_u64(), Some(5));
        assert_eq!(e["dur"].as_u64(), Some(7));
        assert_eq!(e["tid"].as_u64(), Some(2));
        assert_eq!(e["pid"].as_u64(), Some(1));
        assert_eq!(e["name"].as_str(), Some("phase.\"x\""));
        assert_eq!(e["args"]["server"].as_str(), Some("3"));
        assert_eq!(e["args"]["parent"].as_u64(), Some(4));
    }

    #[test]
    fn export_to_registry_lands_histograms_and_counters() {
        let records = vec![
            SpanRecord {
                name: "phase.a",
                labels: Vec::new(),
                start_us: 0,
                dur_us: 2_000,
                thread: 0,
                id: 1,
                parent: None,
            },
            SpanRecord {
                name: "phase.a",
                labels: Vec::new(),
                start_us: 3_000,
                dur_us: 4_000,
                thread: 0,
                id: 2,
                parent: None,
            },
        ];
        let t = crate::Telemetry::new(crate::Verbosity::Off);
        export_to_registry(&t, &records);
        assert_eq!(t.counter_value("profile_spans_total", &[("span", "phase.a")]), 2);
        let h = t.histogram_summary("profile_span_ms", &[("span", "phase.a")]).unwrap();
        assert_eq!(h.count, 2);
        assert!((h.sum - 6.0).abs() < 1e-9);
        assert_eq!(t.gauge_value("profile_span_self_ms", &[("span", "phase.a")]), Some(6.0));
    }
}
