//! The `exp-profile` harness: wall-clock phase attribution for the fig4
//! run.
//!
//! One leg arms the span profiler ([`telemetry::span`]), runs the fig4 MeT
//! curve, and drains the recorded spans; the per-phase aggregate says
//! where the wall time went. Sim results are unaffected by profiling (the
//! spans are trace-invisible by construction; `trace_determinism` pins
//! this), so the profiled leg simulates exactly the cluster `exp-fig4`
//! does.

use simcore::config::EnvConfig;
use std::path::PathBuf;
use std::time::Instant;
use telemetry::span::{self as wallspan, SpanRecord, SpanStats};

/// Configuration for one `exp-profile` run.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Scenario seed (the one `exp-fig4` runs).
    pub seed: u64,
    /// Simulated minutes (`MET_PROFILE_MINUTES`, default 4).
    pub minutes: u64,
    /// Artifact directory (`MET_PROFILE_OUT`, default `results/profile`).
    pub out_dir: PathBuf,
}

impl ProfileConfig {
    /// Reads the knobs from a parsed environment.
    pub fn from_env(cfg: &EnvConfig) -> Self {
        ProfileConfig {
            seed: 1_000,
            minutes: cfg.profile_minutes.unwrap_or(4),
            out_dir: cfg.profile_out.clone().unwrap_or_else(|| PathBuf::from("results/profile")),
        }
    }
}

/// One profiled fig4 run.
#[derive(Debug)]
pub struct ProfileLeg {
    /// End-to-end wall seconds for the leg.
    pub wall_s: f64,
    /// Simulated ticks executed.
    pub ticks: u64,
    /// Every span the leg recorded, in start order.
    pub records: Vec<SpanRecord>,
    /// Per-phase aggregate, ordered by self time.
    pub stats: Vec<SpanStats>,
}

impl ProfileLeg {
    /// Simulated ticks per wall second.
    pub fn ticks_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ticks as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Runs the profiled fig4 leg. Arms the profiler for the duration of the
/// run and disarms it before returning.
pub fn run_leg(cfg: &ProfileConfig) -> ProfileLeg {
    wallspan::clear();
    wallspan::set_enabled(true);
    let start = Instant::now();
    let _ =
        crate::fig4::run_met_curve_traced(cfg.seed, cfg.minutes, telemetry::Telemetry::disabled());
    let wall_s = start.elapsed().as_secs_f64();
    wallspan::set_enabled(false);
    let records = wallspan::drain();
    let stats = wallspan::aggregate(&records);
    // The scenario runner executes (minutes + 2) * 60 ticks (2 ramp
    // minutes before the controller window).
    ProfileLeg { wall_s, ticks: (cfg.minutes + 2) * 60, records, stats }
}

/// Renders the attribution table: per phase, its span count, total and
/// self wall ms, its share of the leg's wall time and its per-span p50 and
/// p99, in the order of `stats` (self time, descending).
pub fn render_table(stats: &[SpanStats], wall_s: f64) -> String {
    let wall_ms = (wall_s * 1e3).max(1e-9);
    let mut out = format!(
        "{:<22} {:>8} {:>10} {:>10} {:>7} {:>9} {:>9}\n",
        "phase", "count", "total ms", "self ms", "self %", "p50 ms", "p99 ms"
    );
    for s in stats {
        out.push_str(&format!(
            "{:<22} {:>8} {:>10.1} {:>10.1} {:>6.1}% {:>9.3} {:>9.3}\n",
            s.name,
            s.count,
            s.total_ms,
            s.self_ms,
            100.0 * s.self_ms / wall_ms,
            s.p50_ms,
            s.p99_ms,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(name: &'static str, self_ms: f64) -> SpanStats {
        SpanStats {
            name,
            count: 1,
            total_ms: self_ms,
            self_ms,
            p50_ms: self_ms,
            p95_ms: self_ms,
            p99_ms: self_ms,
        }
    }

    #[test]
    fn table_renders_every_row_in_order() {
        let table = render_table(&[stats("b", 2.0), stats("a", 1.0)], 0.01);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("phase"));
        assert!(lines[1].starts_with("b "), "rows keep the self-time order: {table}");
        assert!(lines[1].contains("20.0%"), "2 ms of a 10 ms leg: {table}");
        assert!(!table.contains("speedup") && !table.contains("efficiency"));
    }

    #[test]
    fn profiled_leg_runs_and_records_the_tick_pipeline() {
        // A tiny end-to-end leg: one simulated minute.
        let cfg = ProfileConfig { seed: 1_000, minutes: 1, out_dir: PathBuf::from("unused") };
        let leg = run_leg(&cfg);
        assert_eq!(leg.ticks, 180);
        assert!(leg.wall_s > 0.0);
        let names: Vec<&str> = leg.stats.iter().map(|s| s.name).collect();
        for expected in ["sim.tick", "sim.solver", "solver.fanout", "solver.evaluate", "met.tick"] {
            assert!(names.contains(&expected), "missing phase {expected} in {names:?}");
        }
        assert!(
            leg.stats.windows(2).all(|w| w[0].self_ms >= w[1].self_ms),
            "phases are ordered by self time"
        );
        // Profiler is disarmed on return (concurrent tests in this binary
        // may still drop in-flight spans, so only the gate is asserted).
        assert!(!wallspan::enabled());
    }
}
