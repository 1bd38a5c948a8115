//! Span-profiler correctness across OS threads: every thread records into
//! its own buffer under its own thread id, nesting follows each thread's
//! own open span, and [`span::drain`] collects them all.

use std::sync::Mutex;
use telemetry::span;

/// Span tests share the process-global profiler; serialize them.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn spans_on_distinct_os_threads_get_distinct_thread_ids() {
    let _l = lock();
    span::set_enabled(true);
    span::clear();
    let phase_id;
    {
        let phase = span::span("solver.fanout");
        phase_id = phase.id().unwrap();
        std::thread::scope(|s| {
            for server in ["100", "200"] {
                s.spawn(move || {
                    let _g = span::span_labeled("solver.evaluate", &[("server", server)]);
                });
            }
        });
        let _local = span::span_labeled("solver.evaluate", &[("server", "0")]);
    }
    span::set_enabled(false);
    let records = span::drain();
    let evals: Vec<_> = records.iter().filter(|r| r.name == "solver.evaluate").collect();
    assert_eq!(evals.len(), 3);
    let coordinator = records.iter().find(|r| r.name == "solver.fanout").unwrap().thread;
    let mut threads: Vec<u64> = evals.iter().map(|r| r.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    assert_eq!(threads.len(), 3, "each OS thread gets its own id, got {threads:?}");
    for eval in &evals {
        if eval.labels[0].1 == "0" {
            assert_eq!(eval.thread, coordinator);
            assert_eq!(eval.parent, Some(phase_id), "nests under the thread's open span");
        } else {
            assert_ne!(eval.thread, coordinator, "spawned spans record their own thread id");
            assert_eq!(eval.parent, None, "a fresh thread has no open span");
        }
    }
}

#[test]
fn telemetry_handle_span_sugar_records_through_the_global_profiler() {
    let _l = lock();
    span::set_enabled(true);
    span::clear();
    // Even a *disabled* telemetry handle profiles: the span gate is the
    // process-global MET_PROFILE state, not the handle.
    let t = telemetry::Telemetry::disabled();
    {
        let _g = t.span("met.decide", &[("stage", "classify")]);
    }
    span::set_enabled(false);
    let records = span::drain();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].name, "met.decide");
    assert_eq!(records[0].labels, vec![("stage", "classify".to_string())]);
}

#[test]
fn disabled_profiler_is_a_no_op_even_across_threads() {
    let _l = lock();
    span::set_enabled(false);
    span::clear();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let _outer = span::span("noop");
                let _inner = span::span_labeled("noop.inner", &[("k", "v")]);
            });
        }
    });
    assert!(span::drain().is_empty());
}

#[test]
fn chrome_trace_from_a_multi_thread_run_is_loadable() {
    let _l = lock();
    span::set_enabled(true);
    span::clear();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let _tick = span::span("sim.tick");
                for _ in 0..4 {
                    let _g = span::span("solver.evaluate");
                }
            });
        }
    });
    span::set_enabled(false);
    let records = span::drain();
    assert_eq!(records.len(), 10);
    let json = span::chrome_trace(&records);
    let v: serde_json::Value =
        serde_json::from_str(&json).expect("chrome trace must be valid JSON");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    assert_eq!(events.len(), records.len());
    let mut ids = std::collections::BTreeSet::new();
    let mut tids = std::collections::BTreeSet::new();
    for e in events {
        assert_eq!(e["ph"].as_str(), Some("X"), "complete events");
        // Fractional microseconds (nanosecond resolution).
        assert!(e["ts"].as_f64().is_some_and(|ts| ts >= 0.0));
        assert!(e["dur"].as_f64().is_some_and(|dur| dur >= 0.0));
        assert!(e["pid"].as_u64().is_some());
        tids.insert(e["tid"].as_u64().expect("tid"));
        assert!(e["name"].as_str().is_some());
        ids.insert(e["args"]["id"].as_u64().unwrap());
    }
    assert_eq!(tids.len(), 2, "one tid per recording thread");
    // Parent references resolve within the trace.
    for e in events {
        if let Some(p) = e["args"].get("parent").and_then(|p| p.as_u64()) {
            assert!(ids.contains(&p), "dangling parent id {p}");
        }
    }
}
