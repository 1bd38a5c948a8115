//! `paper-regen`: wall time to regenerate Figure 4, checked against a
//! golden summary, plus the simulator and controller layers measured from
//! a drive loop over the same scenario.

use crate::latency::Recorder;
use crate::{Args, Outcome};
use met_bench::fig4::{self, Fig4Result};
use met_bench::scenario::{ycsb_scenario, FIG1_SERVERS};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Simulated minutes per curve. Figure 4's summary averages the last 10
/// minutes of a `minutes + 2` run and needs MeT's reconfiguration window
/// (minutes 2–8) inside it, so 8 is the shortest horizon that keeps every
/// summary number defined.
pub const MINUTES: u64 = 8;

/// The Figure 4 seed every regeneration uses: the one `exp-fig4` runs.
/// The benchmark's `--seed` does not move it, so every run regenerates
/// the same figure and is checked against the same golden summary.
pub const FIG4_SEED: u64 = 1_000;

/// How many times a run builds the starting cluster to time set-up.
const SETUP_REPS: usize = 25;

const GOLDEN: &str = include_str!("../golden/fig4.txt");

fn fnv(h: &mut u64, bits: u64) {
    for b in bits.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// The summary line a regeneration is compared on, bit for bit: every
/// float as its IEEE-754 bits, the three curves as one FNV-1a digest.
pub fn summary(r: &Fig4Result) -> String {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (name, curve) in &r.curves {
        for b in name.bytes() {
            fnv(&mut digest, u64::from(b));
        }
        for (t, v) in curve {
            fnv(&mut digest, t.to_bits());
            fnv(&mut digest, v.to_bits());
        }
    }
    let crossover = r
        .met_overtakes_homog_at_min
        .map_or("none".to_string(), |m| format!("{:016x}", m.to_bits()));
    format!(
        "seed={FIG4_SEED} minutes={MINUTES} reconfigurations={} floor={:016x} met_steady={:016x} \
         het_steady={:016x} homog_steady={:016x} crossover={crossover} curves={digest:016x}",
        r.reconfigurations,
        r.met_reconfig_floor.to_bits(),
        r.met_steady.to_bits(),
        r.het_steady.to_bits(),
        r.homog_steady.to_bits(),
    )
}

fn golden_line() -> &'static str {
    GOLDEN
        .lines()
        .find(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(str::trim)
        .expect("golden/fig4.txt holds a summary line")
}

fn golden_reconfigurations() -> u64 {
    golden_line()
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("reconfigurations="))
        .and_then(|v| v.parse().ok())
        .expect("golden summary names its reconfiguration count")
}

/// Prints the golden file for the current program.
pub fn record_golden() {
    let r = fig4::run(FIG4_SEED, MINUTES);
    println!("# Figure 4 summary at seed {FIG4_SEED}, {MINUTES} simulated minutes per curve.");
    println!(
        "# reconfigurations={} floor={:.3} met_steady={:.3} het_steady={:.3} homog_steady={:.3} crossover={:?}",
        r.reconfigurations,
        r.met_reconfig_floor,
        r.met_steady,
        r.het_steady,
        r.homog_steady,
        r.met_overtakes_homog_at_min
    );
    println!("{}", summary(&r));
}

/// One timed regeneration; `Err` carries the mismatching summary.
fn regenerate() -> (Duration, Result<(), String>) {
    let t0 = Instant::now();
    let r = fig4::run(FIG4_SEED, MINUTES);
    let dt = t0.elapsed();
    let got = summary(&r);
    (dt, if got == golden_line() { Ok(()) } else { Err(got) })
}

fn check(outcome: &mut Outcome, result: Result<(), String>) {
    outcome.attempted += 1;
    if let Err(got) = result {
        eprintln!(
            "paper-regen: summary differs from golden\n  got    {got}\n  golden {}",
            golden_line()
        );
        outcome.failed += 1;
    }
}

/// Builds the starting cluster Figure 4's MeT curve runs on.
fn starting_cluster() -> met_bench::scenario::YcsbScenario {
    let mut scenario = ycsb_scenario(FIG4_SEED);
    baselines::build_random_homogeneous(&mut scenario.sim, FIG1_SERVERS);
    scenario.start_clients();
    scenario
}

pub fn paper_regen(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if args.trace {
        traced(&mut out);
        return out;
    }
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(starting_cluster());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.is_empty() || start.elapsed() < args.seconds {
        let (dt, result) = regenerate();
        check(&mut out, result);
        times.push(dt.as_secs_f64());
    }
    let total: f64 = times.iter().sum();
    let slowest = times.iter().cloned().fold(0.0, f64::max);
    let regen_s = crate::median(times.clone());
    out.metric("ops_per_s", times.len() as f64 / total, "1/s");
    out.metric("p50_us", regen_s * 1e6, "us");
    out.metric("p99_us", slowest * 1e6, "us");
    out.metric("setup_s", crate::median(setup), "s");
    out.detail("regen_s", regen_s, "s");
    out.detail("regenerations", times.len() as f64, "count");
    out
}

fn traced(out: &mut Outcome) {
    let mut layer: BTreeMap<String, f64> = BTreeMap::new();

    // Tracing overhead: the same regeneration with the span profiler off,
    // then on. Both must match the golden summary.
    let (untraced, result) = regenerate();
    check(out, result);
    telemetry::span::clear();
    telemetry::span::set_enabled(true);
    let (traced, result) = regenerate();
    telemetry::span::set_enabled(false);
    check(out, result);
    let records = telemetry::span::drain();
    layer.insert("regen.default_threads_s".into(), untraced.as_secs_f64());
    layer.insert("trace.overhead_frac".into(), traced.as_secs_f64() / untraced.as_secs_f64() - 1.0);
    crate::add_span_self_ms(&mut layer, &records);

    // The simulator and the controller, tick by tick, over the MeT curve's
    // scenario: fig4's first curve, driven through the public API.
    let mut scenario = starting_cluster();
    let mut met = met::Met::with_telemetry(
        met::MetConfig { allow_scaling: false, ..met::MetConfig::default() },
        hstore::StoreConfig::default_homogeneous(),
        telemetry::Telemetry::disabled(),
    );
    let ticks = (MINUTES + 2) * 60;
    let mut step = Recorder::with_capacity(ticks as usize);
    let mut tick = Recorder::with_capacity(ticks as usize);
    let t0 = Instant::now();
    for i in 0..ticks {
        let s0 = Instant::now();
        scenario.sim.step();
        let s1 = Instant::now();
        step.record(s1 - s0);
        if i >= 120 {
            met.tick(&mut scenario.sim);
            tick.record(s1.elapsed());
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    out.attempted += 1;
    if met.reconfigurations() != golden_reconfigurations() {
        eprintln!(
            "paper-regen: drive loop made {} reconfigurations, golden {}",
            met.reconfigurations(),
            golden_reconfigurations()
        );
        out.failed += 1;
    }
    let step = step.sort();
    let tick = tick.sort();
    layer.insert("sim.step_ms".into(), step.total_ns() as f64 / 1e6 / step.len() as f64);
    layer.insert("met.tick_ms".into(), tick.total_ns() as f64 / 1e6 / tick.len() as f64);
    layer.insert("sim.ticks_per_s".into(), ticks as f64 / wall);
    layer.insert("sim.threads".into(), simcore::par::met_threads() as f64);

    let t0 = Instant::now();
    std::hint::black_box(met_bench::fig1::manual_homog_best_placement(FIG4_SEED));
    layer.insert("search.ms".into(), t0.elapsed().as_secs_f64() * 1e3);
    crate::emit_per_layer(out, layer);
}
