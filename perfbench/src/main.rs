//! The repository's benchmark: the served data path (YCSB-shaped client →
//! `FunctionalCluster` routing → `Region` → `CfStore`) and the wall time to
//! regenerate Figure 4, with per-layer numbers from a separate traced run.
//!
//! ```text
//! perfbench --workload <read-cached|rw-uncached|paper-regen> --seed <n>
//!           --seconds <s> --trace <0|1> [--record-golden]
//! ```
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) report the per-layer metrics. The last stdout line is one
//! JSON object `{correct, attempted, failed, metrics}`; the line before it
//! is the run's record (host fingerprint plus the per-operation-type
//! breakdown). Every answer is checked: a wrong one is a failed op and
//! the process exits 1.

mod host;
mod latency;
mod regen;
mod store;

use std::fmt::Write as _;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub record_golden: bool,
}

/// One named figure with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose answers were checked: set-up and warm-up reads
    /// and writes as well as the measured ones.
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// The contract metrics (end-to-end or per-layer, by mode).
    pub metrics: Vec<Metric>,
    /// Supporting figures printed in the run record only.
    pub detail: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.detail.push(Metric { name: name.into(), value, unit });
    }
}

/// Every per-layer metric with its unit, in report order. A traced run of
/// any workload reports all of them; a layer the workload never enters
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("route.get_ns", "ns"),
    ("store.get_ns_p50", "ns"),
    ("store.get_ns_p99", "ns"),
    ("store.put_ns_p50", "ns"),
    ("store.scan_ns_p50", "ns"),
    ("read.scaling_2v1", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("get.blocks_per_op", "blocks/op"),
    ("get.misses_per_op", "blocks/op"),
    ("get.memstore_frac", "ratio"),
    ("scan.blocks_per_row", "blocks/row"),
    ("maint.calls", "count"),
    ("maint.busy_ms", "ms"),
    ("maint.call_p99_us", "us"),
    ("maint.max_ms", "ms"),
    ("maint.stall_ms", "ms"),
    ("store.bytes", "B"),
    ("space_amp", "ratio"),
    ("sim.step_ms", "ms"),
    ("met.tick_ms", "ms"),
    ("sim.ticks_per_s", "1/s"),
    ("search.ms", "ms"),
    ("sim.threads", "count"),
    ("regen.default_threads_s", "s"),
    ("span.sim.tick.self_ms", "ms"),
    ("span.sim.solver.self_ms", "ms"),
    ("span.solver.fanout.self_ms", "ms"),
    ("span.solver.evaluate.self_ms", "ms"),
    ("span.sim.latency.self_ms", "ms"),
    ("span.latency.evaluate.self_ms", "ms"),
    ("span.sim.integrate.self_ms", "ms"),
    ("span.sim.locality.self_ms", "ms"),
    ("span.dfs.locality_batch.self_ms", "ms"),
    ("span.sim.compaction.plan.self_ms", "ms"),
    ("span.sim.warmth.self_ms", "ms"),
    ("span.met.tick.self_ms", "ms"),
    ("span.met.decide.self_ms", "ms"),
    ("span.met.actuator.self_ms", "ms"),
    ("span.hstore.flush.self_ms", "ms"),
    ("span.hstore.compact.self_ms", "ms"),
    ("span.hstore.scan.self_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Moves `values` into `out.metrics` in [`PER_LAYER`] order, 0 for every
/// layer the workload did not measure.
pub fn emit_per_layer(out: &mut Outcome, mut values: std::collections::BTreeMap<String, f64>) {
    for (name, unit) in PER_LAYER {
        out.metric(name, values.remove(*name).unwrap_or(0.0), unit);
    }
    assert!(values.is_empty(), "unlisted per-layer metrics: {:?}", values.keys());
}

/// Adds every span the span profiler recorded under a listed name.
pub fn add_span_self_ms(
    values: &mut std::collections::BTreeMap<String, f64>,
    records: &[telemetry::span::SpanRecord],
) {
    for s in telemetry::span::aggregate(records) {
        let key = format!("span.{}.self_ms", s.name);
        if PER_LAYER.iter().any(|(n, _)| *n == key) {
            values.insert(key, s.self_ms);
        }
    }
}

/// The median; the mean of the middle two for an even count.
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record_golden = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-golden" {
            record_golden = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
        record_golden,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    // `Display` for f64 prints the shortest decimal that round-trips,
    // never in exponent form: every measured digit survives.
    format!("{v}")
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "paper-regen" && !args.trace {
        // The gated regeneration runs the simulator on one thread: at the
        // default thread count its coordinator waits on the other vCPU at
        // every tick phase, and on a shared 2-vCPU host that made the
        // run-to-run spread of the wall time wider than any usable bound.
        // The traced run keeps the default and reports that wall time as
        // `regen.default_threads_s`. Set before anything reads the
        // program's parse-once environment.
        std::env::set_var("MET_THREADS", "1");
    }
    let host = host::Host::detect();
    let mut out = match args.workload.as_str() {
        "read-cached" => store::read_cached(&args),
        "rw-uncached" => store::rw_uncached(&args),
        "paper-regen" => {
            if args.record_golden {
                regen::record_golden();
                return;
            }
            regen::paper_regen(&args)
        }
        w => {
            eprintln!("perfbench: unknown workload {w}");
            std::process::exit(2);
        }
    };
    if !args.trace {
        out.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    }
    for m in out.metrics.iter().chain(&out.detail) {
        eprintln!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"cgroup_cpu_max\": {}, \
         \"sim_threads\": {}, \"commit\": {}}}, \"detail\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds.as_secs_f64()),
        args.trace,
        host.nproc,
        json_str(&host.cpu_model),
        json_str(&host.cpu_max),
        host.sim_threads,
        json_str(&host.commit),
        metrics_json(&out.detail),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics_json(&out.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
