//! Fully traced experiment runs for the determinism checks.
//!
//! Each helper runs one experiment with a debug-level telemetry ring and
//! reduces it to two strings: the serialized event stream and the final
//! cluster layout. `f64`'s shortest-round-trip formatting means any bit
//! difference anywhere in the run shows up as a string difference, so two
//! runs that must agree (profiling on vs off, this commit vs its parent)
//! are compared with plain `==`.

use cluster::ClusterSnapshot;
use simcore::FaultPlan;
use telemetry::{Telemetry, Verbosity};

/// A traced experiment run reduced to the two artifacts the determinism
/// checks compare.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Every telemetry event as JSONL (one event per line).
    pub trace: String,
    /// `Debug` rendering of the final [`ClusterSnapshot`].
    pub layout: String,
}

fn ring() -> Telemetry {
    Telemetry::with_ring(Verbosity::Debug, 1 << 16)
}

fn trace_string(telemetry: &Telemetry) -> String {
    telemetry.events().iter().map(|e| e.to_json_line()).collect::<Vec<_>>().join("\n")
}

fn traced(telemetry: &Telemetry, snapshot: &ClusterSnapshot) -> TracedRun {
    TracedRun { trace: trace_string(telemetry), layout: format!("{snapshot:?}") }
}

/// The Fig-4 MeT curve, fully traced.
pub fn traced_fig4(seed: u64, minutes: u64) -> TracedRun {
    let telemetry = ring();
    let (_, _, snapshot) = crate::fig4::run_met_curve_traced(seed, minutes, telemetry.clone());
    traced(&telemetry, &snapshot)
}

/// The chaos run (reference fault plan), fully traced.
pub fn traced_chaos(seed: u64, minutes: u64) -> TracedRun {
    traced_chaos_with_plan(seed, minutes, &FaultPlan::reference())
}

/// The chaos run under an arbitrary fault plan, fully traced. The
/// disk-fault check drives this with torn writes, fsync failures and
/// bit-rot on top of the reference chaos schedule.
pub fn traced_chaos_with_plan(seed: u64, minutes: u64, plan: &FaultPlan) -> TracedRun {
    let telemetry = ring();
    let (_, snapshot) =
        crate::chaos::run_chaos_curve_snapshot(seed, minutes, plan, telemetry.clone());
    traced(&telemetry, &snapshot)
}

/// The SLO-gated latency run, fully traced. The trace additionally carries
/// the latency digest (per-server and per-profile p99 histograms plus the
/// final per-server p99 gauges), so a change in the queueing model itself —
/// not just in the decision stream — shows up in the trace.
pub fn traced_latency(seed: u64, minutes: u64) -> TracedRun {
    let telemetry = ring();
    let run =
        crate::latency::run_slo(seed, minutes, Some(crate::latency::SLO_P99_MS), telemetry.clone());
    let trace = format!(
        "{}\n===\n{}",
        trace_string(&telemetry),
        crate::latency::latency_digest_string(&telemetry, &run)
    );
    TracedRun { trace, layout: format!("{:?}", run.snapshot) }
}
