//! Figure 1 — manual strategies: per-workload and total throughput under
//! Random-Homogeneous, Manual-Homogeneous and Manual-Heterogeneous.
//!
//! Five runs (seeds) per strategy; each run is 2 minutes of ramp-up plus
//! 30 minutes measured (§3.2). Bars report the CDF percentiles of Fig. 1
//! (5th/25th/50th/75th/90th) over the five runs.

use crate::scenario::{ycsb_scenario, FIG1_SERVERS};
use baselines::manual::MANUAL_SEARCH_CANDIDATES;
use cluster::PartitionId;
use hstore::StoreConfig;
use simcore::stats::PercentileSummary;
use simcore::{SimRng, SimTime};
use std::collections::BTreeMap;

/// The three §3.3 strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Out-of-the-box HBase placement, homogeneous nodes.
    RandomHomogeneous,
    /// Request-balanced manual placement, homogeneous nodes.
    ManualHomogeneous,
    /// Pattern-grouped placement on Table-1-profiled nodes.
    ManualHeterogeneous,
}

impl Strategy {
    /// All strategies, figure order.
    pub const ALL: [Strategy; 3] =
        [Strategy::RandomHomogeneous, Strategy::ManualHomogeneous, Strategy::ManualHeterogeneous];

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::RandomHomogeneous => "Random-Homogeneous",
            Strategy::ManualHomogeneous => "Manual-Homogeneous",
            Strategy::ManualHeterogeneous => "Manual-Heterogeneous",
        }
    }
}

/// One run's mean steady-state throughput per workload (ops/s) plus total.
#[derive(Debug, Clone)]
pub struct RunThroughput {
    /// Workload name → mean ops/s over the measurement window.
    pub per_workload: BTreeMap<String, f64>,
    /// Sum across workloads.
    pub total: f64,
}

/// Executes one run of one strategy (a thin wrapper over the unified
/// [`ScenarioSpec`](crate::ScenarioSpec) runner).
pub fn run_once(strategy: Strategy, seed: u64, measured_minutes: u64) -> RunThroughput {
    let run =
        crate::ScenarioSpec::new(crate::ScenarioStrategy::Manual(strategy), seed, measured_minutes)
            .run();
    let ramp = SimTime::from_mins(2);
    let end = SimTime::from_mins(2 + measured_minutes);
    let mut per_workload = BTreeMap::new();
    let mut total = 0.0;
    for (name, series) in &run.group_series {
        let mean = series.mean_between(ramp, end).unwrap_or(0.0);
        total += mean;
        per_workload.insert(name.clone(), mean);
    }
    RunThroughput { per_workload, total }
}

/// Applies an explicit placement onto freshly built homogeneous servers.
pub(crate) fn apply_placement(
    scenario: &mut crate::scenario::YcsbScenario,
    placement: &[Vec<PartitionId>],
) {
    let cfg = StoreConfig::default_homogeneous();
    let servers: Vec<_> =
        (0..placement.len()).map(|_| scenario.sim.add_server_immediate(cfg.clone())).collect();
    for (node, parts) in placement.iter().enumerate() {
        for p in parts {
            scenario.sim.assign_partition(*p, servers[node]).expect("fresh server");
        }
    }
}

/// The §3.3 Manual-Homogeneous search: the paper tried 15 balanced
/// distributions and kept the one with the best *measured* throughput. We
/// do the same: each candidate is a load-balanced (shuffled-LPT) placement,
/// evaluated with a short measurement run; the winner is returned.
///
/// The candidates' trial runs are independent simulations, so they fan out
/// over `MET_THREADS` workers ([`simcore::par::map`]). The winner is picked
/// by a strict `>` fold in candidate order (the first of equals wins), so
/// it is the same at any worker count.
///
/// Partition ids are deterministic per seed, so a placement found in a
/// scratch run applies verbatim to the real run.
pub fn manual_homog_best_placement(seed: u64) -> Vec<Vec<PartitionId>> {
    let candidates: Vec<u64> = (0..MANUAL_SEARCH_CANDIDATES as u64).collect();
    let trials = simcore::par::map(simcore::par::met_threads(), &candidates, |&candidate| {
        let mut scenario = ycsb_scenario(seed);
        let parts = scenario.loaded_partitions();
        let mut rng = SimRng::new(seed).derive("manual-homog-search").derive_idx(candidate);
        let placement = baselines::search_balanced_placement(&parts, FIG1_SERVERS, &mut rng);
        apply_placement(&mut scenario, &placement);
        scenario.start_clients();
        // 5 measured minutes per candidate (the administrator's trial run).
        scenario.sim.run_ticks(5 * 60);
        let total = scenario
            .sim
            .total_series()
            .mean_between(SimTime::from_mins(3), SimTime::from_mins(5))
            .unwrap_or(0.0);
        (total, placement)
    });
    let mut best: Option<(f64, Vec<Vec<PartitionId>>)> = None;
    for (total, placement) in trials {
        if best.as_ref().map(|(b, _)| total > *b).unwrap_or(true) {
            best = Some((total, placement));
        }
    }
    best.expect("at least one candidate").1
}

/// The full figure: per strategy, per workload (and "Total"), the five
/// Fig. 1 percentile bars over `runs` seeds.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// strategy → series name ("A".."F", "Total") → percentile bars
    /// [p5, p25, p50, p75, p90] in ops/s.
    pub bars: BTreeMap<&'static str, BTreeMap<String, [f64; 5]>>,
    /// strategy → mean total throughput.
    pub mean_total: BTreeMap<&'static str, f64>,
}

/// Runs the whole Figure 1 experiment.
///
/// The `(strategy, seed)` runs are independent simulations, so they fan
/// out over `MET_THREADS` workers ([`simcore::par::map`]); results come
/// back in `(strategy, seed)` order and are combined in that order, so the
/// report is identical at any worker count.
pub fn run(runs: u64, measured_minutes: u64) -> Fig1Result {
    let jobs: Vec<(Strategy, u64)> = Strategy::ALL
        .iter()
        .flat_map(|&strategy| (0..runs).map(move |seed| (strategy, 1_000 + seed)))
        .collect();
    let results = simcore::par::map(simcore::par::met_threads(), &jobs, |&(strategy, seed)| {
        run_once(strategy, seed, measured_minutes)
    });
    let mut results = results.into_iter();
    let mut bars = BTreeMap::new();
    let mut mean_total = BTreeMap::new();
    for strategy in Strategy::ALL {
        let mut summaries: BTreeMap<String, PercentileSummary> = BTreeMap::new();
        for run in results.by_ref().take(runs as usize) {
            for (name, v) in &run.per_workload {
                summaries.entry(name.clone()).or_default().push(*v);
            }
            summaries.entry("Total".into()).or_default().push(run.total);
        }
        let strat_bars: BTreeMap<String, [f64; 5]> = summaries
            .iter()
            .map(|(name, s)| (name.clone(), s.fig1_bars().expect("runs > 0")))
            .collect();
        mean_total.insert(strategy.label(), summaries["Total"].mean().expect("runs > 0"));
        bars.insert(strategy.label(), strat_bars);
    }
    Fig1Result { bars, mean_total }
}
