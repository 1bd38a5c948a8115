//! Replay determinism of the tick engine under randomized topology
//! schedules.
//!
//! A random schedule of grow / shrink / crash-replace / run-ticks
//! operations is played twice against clusters built from the same seed;
//! the two runs must give byte-identical JSONL telemetry traces,
//! throughput series and final snapshots. Any hash-order, wall-clock or
//! RNG-draw-order leak in provisioning, decommissioning, crash handling or
//! the tick phases shows up as a diff. The test runs in the dev profile, so
//! it also exercises the engine with overflow checks and debug assertions
//! on.

use cluster::{
    ClientGroup, ClusterSnapshot, CostParams, ElasticCluster, OpMix, PartitionId, PartitionSpec,
    SimCluster,
};
use hstore::StoreConfig;
use proptest::prelude::*;

/// One step of a topology schedule. Indices are taken modulo the current
/// online-server count so any u8 is valid regardless of fleet history.
#[derive(Debug, Clone)]
enum TopoOp {
    /// Provision a fresh server (immediate: no boot delay).
    Grow,
    /// Decommission the i-th online server (partitions hand off first;
    /// errors — e.g. re-replication pressure — are tolerated).
    Shrink(u8),
    /// Crash the i-th online server, then provision a replacement — the
    /// §6.2 crash-replace flow; the healer re-homes the dead server's
    /// partitions over the following ticks.
    CrashReplace(u8),
    /// Advance the simulation 1–3 ticks.
    Run(u8),
}

fn op_strategy() -> impl Strategy<Value = TopoOp> {
    prop_oneof![
        Just(TopoOp::Grow),
        any::<u8>().prop_map(TopoOp::Shrink),
        any::<u8>().prop_map(TopoOp::CrashReplace),
        // Duplicated arm: ticks between topology changes let the solver,
        // healer, and compaction drain actually run on the new fleet.
        (1u8..4).prop_map(TopoOp::Run),
        (1u8..4).prop_map(TopoOp::Run),
    ]
}

fn build(seed: u64) -> (SimCluster, telemetry::Telemetry) {
    let telemetry = telemetry::Telemetry::with_ring(telemetry::Verbosity::Debug, 1 << 15);
    let mut sim = SimCluster::new(CostParams::default(), seed);
    sim.set_telemetry(telemetry.clone());
    for _ in 0..3 {
        sim.add_server_immediate(StoreConfig::default_homogeneous());
    }
    let parts: Vec<PartitionId> = (0..6)
        .map(|_| {
            sim.create_partition(PartitionSpec {
                table: "prop".into(),
                size_bytes: 1.0e9,
                record_bytes: 1_000.0,
                hot_set_fraction: 0.4,
                hot_ops_fraction: 0.5,
            })
        })
        .collect();
    sim.random_balance_unassigned();
    let w = 1.0 / parts.len() as f64;
    sim.add_group(ClientGroup::with_common_weights(
        "prop",
        45.0,
        0.5,
        None,
        OpMix::new(0.45, 0.45, 0.10),
        parts.iter().map(|p| (*p, w)).collect(),
        1.0,
        0.0,
    ));
    (sim, telemetry)
}

fn trace_of(telemetry: &telemetry::Telemetry) -> String {
    telemetry.events().iter().map(|e| e.to_json_line()).collect::<Vec<_>>().join("\n")
}

/// Plays the schedule once; returns the JSONL trace, the metrics registry,
/// the throughput series and the final snapshot.
fn run_schedule(schedule: &[TopoOp], seed: u64) -> (String, String, String, ClusterSnapshot) {
    let (mut sim, telemetry) = build(seed);
    for op in schedule {
        match op {
            TopoOp::Grow => {
                sim.add_server_immediate(StoreConfig::default_homogeneous());
            }
            TopoOp::Shrink(i) => {
                // Keep at least two servers so the client group always has
                // somewhere to land.
                let online = sim.online_server_ids();
                if online.len() > 2 {
                    let victim = online[*i as usize % online.len()];
                    let _ = sim.decommission_server(victim);
                }
            }
            TopoOp::CrashReplace(i) => {
                let online = sim.online_server_ids();
                if online.len() > 1 {
                    let victim = online[*i as usize % online.len()];
                    sim.crash_server(victim);
                    sim.add_server_immediate(StoreConfig::default_homogeneous());
                }
            }
            TopoOp::Run(n) => sim.run_ticks(*n as usize),
        }
    }
    // A final settle so crash re-homing and decommission drains complete
    // inside the compared window.
    sim.run_ticks(3);
    (
        trace_of(&telemetry),
        format!("{:?}", telemetry.metrics()),
        format!("{:?}", sim.total_series().points()),
        sim.snapshot(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn topology_schedules_replay_to_identical_traces(
        schedule in proptest::collection::vec(op_strategy(), 1..10),
        seed in 0u64..1_000,
    ) {
        let (trace_a, metrics_a, series_a, snap_a) = run_schedule(&schedule, seed);
        let (trace_b, metrics_b, series_b, snap_b) = run_schedule(&schedule, seed);
        prop_assert_eq!(trace_a, trace_b, "telemetry trace diverged for {:?}", schedule);
        prop_assert_eq!(metrics_a, metrics_b, "metrics registry diverged for {:?}", schedule);
        prop_assert_eq!(series_a, series_b, "throughput series diverged for {:?}", schedule);
        prop_assert_eq!(
            format!("{snap_a:?}"), format!("{snap_b:?}"),
            "final snapshot diverged for {:?}", schedule
        );
    }
}
