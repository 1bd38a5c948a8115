//! Trace-content and trace-invisibility checks on the simulator.
//!
//! The trace is the full debug-level event stream serialized as JSONL; the
//! layout is the `Debug` rendering of the final cluster snapshot, whose
//! `f64` fields print shortest-round-trip — any bit difference anywhere in
//! the run shows up as a string difference here.

use met_bench::trace::{
    traced_chaos, traced_chaos_with_plan, traced_fig4, traced_latency, TracedRun,
};
use simcore::{FaultPlan, FaultSpec, ScheduledFault, SimTime};

fn assert_identical(name: &str, a: &TracedRun, b: &TracedRun) {
    assert!(!a.trace.is_empty(), "{name}: the run produced no events");
    assert_eq!(a.trace, b.trace, "{name}: telemetry trace diverged");
    assert_eq!(a.layout, b.layout, "{name}: final partition layout diverged");
}

#[test]
fn fig4_trace_is_unchanged_by_profiling() {
    // The span profiler is wall-clock and must be trace-invisible: arming
    // it changes nothing in the JSONL trace or the final layout. (Spans
    // never touch telemetry sinks; the drained records are discarded.)
    let baseline = traced_fig4(1_000, 4);
    telemetry::span::set_enabled(true);
    let profiled = traced_fig4(1_000, 4);
    telemetry::span::set_enabled(false);
    let spans = telemetry::span::drain();
    assert!(!spans.is_empty(), "profiled runs must actually record spans");
    assert_identical("fig4 profiled", &baseline, &profiled);
}

#[test]
fn chaos_trace_is_unchanged_by_profiling() {
    // Same invisibility claim under faults: crashes, provision failures
    // and the healer's re-homing all run with spans armed.
    let baseline = traced_chaos(1_000, 6);
    telemetry::span::set_enabled(true);
    let profiled = traced_chaos(1_000, 6);
    telemetry::span::set_enabled(false);
    let _ = telemetry::span::drain();
    assert_identical("chaos profiled", &baseline, &profiled);
}

#[test]
fn disk_faults_surface_in_the_trace() {
    // WAL backlog accounting, replay outage extension and the disk-fault
    // injector (torn write, fsync failure, bit-rot) must leave their
    // telemetry in the trace.
    let mut faults: Vec<ScheduledFault> = FaultPlan::reference().faults().to_vec();
    faults.push(ScheduledFault {
        at: SimTime::from_secs(360),
        spec: FaultSpec::TornWrite { bytes: 512 },
    });
    faults.push(ScheduledFault { at: SimTime::from_secs(400), spec: FaultSpec::FsyncFail });
    faults
        .push(ScheduledFault { at: SimTime::from_secs(440), spec: FaultSpec::BitRot { block: 3 } });
    let run = traced_chaos_with_plan(1_000, 10, &FaultPlan::new(faults));
    assert!(
        run.trace.contains("corruption_detected"),
        "the bit-rot fault must surface in the trace"
    );
    assert!(
        run.trace.contains("recovery_started"),
        "re-homing a crashed server's partitions must start a WAL replay"
    );
}

#[test]
fn latency_trace_replays_identically() {
    // 10 minutes of the SLO-gated overload run covers the gate's first
    // scale-out, so the queueing model's per-server p99s (appended to the
    // trace by `traced_latency`) are exercised across a fleet change.
    let a = traced_latency(1_000, 10);
    let b = traced_latency(1_000, 10);
    assert!(a.trace.contains(" hist "), "the latency digest must be attached to the trace");
    assert_identical("latency", &a, &b);
}
