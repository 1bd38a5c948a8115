//! `exp-profile` — where the wall time of a fig4 run goes.
//!
//! Runs the fig4 MeT curve once with the span profiler armed, then:
//!
//! * writes the Chrome trace-event JSON (`fig4.trace.json`, loadable in
//!   chrome://tracing or Perfetto),
//! * writes the aggregated span registry in Prometheus text format
//!   (`spans.prom`),
//! * prints per-phase self wall ms, sorted by self time.
//!
//! Knobs (via [`simcore::config::EnvConfig`]; see the README's knob
//! table): `MET_PROFILE_MINUTES`, `MET_PROFILE_OUT`.

use met_bench::profile::{self, ProfileConfig};
use telemetry::span as wallspan;

fn main() {
    let cfg = ProfileConfig::from_env(simcore::config::env_config());
    eprintln!("exp-profile: fig4 seed {} for {} simulated minutes...", cfg.seed, cfg.minutes);
    let leg = profile::run_leg(&cfg);
    eprintln!("exp-profile:   {:.2}s wall, {} spans", leg.wall_s, leg.records.len());

    let write = |name: &str, body: String| {
        let path = cfg.out_dir.join(name);
        if let Err(e) =
            std::fs::create_dir_all(&cfg.out_dir).and_then(|_| std::fs::write(&path, body))
        {
            eprintln!("exp-profile: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("exp-profile: wrote {}", path.display());
    };
    write("fig4.trace.json", wallspan::chrome_trace(&leg.records));
    // Mirror the aggregate into a registry and expose it in Prometheus
    // text format next to the trace.
    let registry = telemetry::Telemetry::new(telemetry::Verbosity::Off);
    wallspan::export_to_registry(&registry, &leg.records);
    registry.gauge_set("profile_wall_seconds", &[], leg.wall_s);
    write("spans.prom", registry.render_prometheus());

    println!(
        "fig4 wall-clock phase attribution ({} simulated minutes, {} ticks, {:.2}s wall, {:.0} ticks/s)",
        cfg.minutes,
        leg.ticks,
        leg.wall_s,
        leg.ticks_per_sec()
    );
    println!();
    print!("{}", profile::render_table(&leg.stats, leg.wall_s));
}
