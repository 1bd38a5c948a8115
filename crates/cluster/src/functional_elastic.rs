//! [`ElasticCluster`] over the *functional* store: MeT managing real
//! regions.
//!
//! The simulation layer produces the paper's performance figures; this
//! adapter closes the loop the other way — the same control plane drives
//! the layer that actually stores data. Time is logical (the caller
//! advances it between operation batches), system metrics are synthesized
//! from real request rates against a nominal per-server capacity, and all
//! management actions perform real work: region moves re-home real data,
//! "restarts" rebuild a server's regions against its new configuration,
//! and major compactions rewrite real files.
//!
//! Limitations (documented, by design): there is no simulated DFS under
//! the functional layer, so locality is always reported as 1.0 and the
//! actuator's locality-triggered compactions simply never fire; restarts
//! and moves are instantaneous rather than costed.

use crate::admin::{
    AdminError, ClusterSnapshot, ElasticCluster, PartitionMetrics, ServerHealth, ServerMetrics,
};
use crate::functional::FunctionalCluster;
use crate::types::{PartitionCounters, PartitionId, ServerId};
use hstore::{RegionId, StoreConfig};
use simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// The adapter: a functional cluster plus a logical clock and rate
/// bookkeeping.
pub struct FunctionalElastic {
    db: FunctionalCluster,
    now: SimTime,
    /// Ops/s one server handles at 100 % utilization (synthesizes CPU).
    nominal_server_ops: f64,
    last_rates: BTreeMap<ServerId, f64>,
    last_totals: BTreeMap<ServerId, u64>,
    last_advance: SimTime,
}

impl FunctionalElastic {
    /// Wraps a functional cluster. `nominal_server_ops` calibrates the
    /// synthesized utilization: a server serving that many ops/s reports
    /// 100 % CPU.
    pub fn new(db: FunctionalCluster, nominal_server_ops: f64) -> Self {
        assert!(nominal_server_ops > 0.0);
        FunctionalElastic {
            db,
            now: SimTime::ZERO,
            nominal_server_ops,
            last_rates: BTreeMap::new(),
            last_totals: BTreeMap::new(),
            last_advance: SimTime::ZERO,
        }
    }

    /// The wrapped store (run real traffic through this between
    /// [`advance`](FunctionalElastic::advance) calls).
    pub fn db(&mut self) -> &mut FunctionalCluster {
        &mut self.db
    }

    /// Read-only access to the wrapped store.
    pub fn db_ref(&self) -> &FunctionalCluster {
        &self.db
    }

    /// Advances the logical clock and refreshes the per-server request
    /// rates from the real region counters.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
        let dt = self.now.since(self.last_advance).as_secs_f64();
        if dt <= 0.0 {
            return;
        }
        self.last_advance = self.now;
        let mut totals: BTreeMap<ServerId, u64> = BTreeMap::new();
        for (rid, sid) in self.db.all_regions() {
            let ops = self.db.region_counters(rid).map(|c| c.total()).unwrap_or(0);
            *totals.entry(sid).or_insert(0) += ops;
        }
        for sid in self.db.server_ids() {
            let total = totals.get(&sid).copied().unwrap_or(0);
            let prev = self.last_totals.get(&sid).copied().unwrap_or(total);
            let rate = (total.saturating_sub(prev)) as f64 / dt;
            self.last_rates.insert(sid, rate);
        }
        self.last_totals = totals;
        self.last_rates.retain(|sid, _| self.db.server_ids().contains(sid));
    }
}

impl ElasticCluster for FunctionalElastic {
    fn now(&self) -> SimTime {
        self.now
    }

    fn snapshot(&self) -> ClusterSnapshot {
        let mut regions_by_server: BTreeMap<ServerId, Vec<PartitionId>> = BTreeMap::new();
        let mut partitions = Vec::new();
        for (rid, sid) in self.db.all_regions() {
            regions_by_server.entry(sid).or_default().push(PartitionId(rid.0));
            let c = self.db.region_counters(rid).unwrap_or_default();
            partitions.push(PartitionMetrics {
                partition: PartitionId(rid.0),
                table: self.db.region_table(rid).unwrap_or_default(),
                counters: PartitionCounters { reads: c.reads, writes: c.writes, scans: c.scans },
                size_bytes: self.db.region_size(rid).unwrap_or(0),
                assigned_to: Some(sid),
                // No DFS under the functional layer: always local.
                locality: 1.0,
                wal_backlog_bytes: 0,
            });
        }
        let servers = self
            .db
            .server_ids()
            .into_iter()
            .map(|sid| {
                let rps = self.last_rates.get(&sid).copied().unwrap_or(0.0);
                let cpu = (rps / self.nominal_server_ops).min(1.0);
                let (used, cap) = self.db.server_cache_usage(sid).unwrap_or((0, 1));
                ServerMetrics {
                    server: sid,
                    health: ServerHealth::Online,
                    cpu_util: cpu,
                    io_wait: cpu * 0.5,
                    mem_util: used as f64 / cap.max(1) as f64,
                    requests_per_sec: rps,
                    // The functional layer does not model queueing.
                    p99_latency_ms: 0.0,
                    locality: 1.0,
                    partitions: regions_by_server.get(&sid).cloned().unwrap_or_default(),
                    config: self.db.server_config(sid).expect("listed server has a config"),
                }
            })
            .collect();
        ClusterSnapshot { at: self.now, servers, partitions }
    }

    fn move_partition(&mut self, partition: PartitionId, to: ServerId) -> Result<(), AdminError> {
        self.db
            .move_region(RegionId(partition.0), to)
            .map_err(|_| AdminError::UnknownPartition(partition))
    }

    fn restart_server(&mut self, server: ServerId, config: StoreConfig) -> Result<(), AdminError> {
        self.db.reconfigure_server(server, config).map_err(|_| AdminError::UnknownServer(server))
    }

    fn major_compact(&mut self, partition: PartitionId) -> Result<(), AdminError> {
        self.db
            .major_compact_region(RegionId(partition.0))
            .map(|_| ())
            .map_err(|_| AdminError::UnknownPartition(partition))
    }

    fn provision_server(&mut self, config: StoreConfig) -> Result<ServerId, AdminError> {
        self.db.add_server(config).map_err(|e| AdminError::BadConfig(e.to_string()))
    }

    fn decommission_server(&mut self, server: ServerId) -> Result<(), AdminError> {
        self.db.remove_server(server).map_err(|_| AdminError::UnknownServer(server))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hstore::Family;

    fn loaded() -> FunctionalElastic {
        let mut db = FunctionalCluster::new(9);
        for _ in 0..2 {
            db.add_server(StoreConfig::small_for_tests()).expect("valid config");
        }
        db.create_table("t", &[Family::from("cf")], &["m".into()]).expect("fresh");
        for i in 0..200 {
            db.put("t", &"cf".into(), format!("k{i:03}").into(), "q".into(), b"v".to_vec().into())
                .expect("routed");
        }
        FunctionalElastic::new(db, 1_000.0)
    }

    #[test]
    fn snapshot_reflects_real_regions_and_rates() {
        let mut fe = loaded();
        fe.advance(SimDuration::from_secs(30));
        for i in 0..300 {
            fe.db()
                .get("t", &"cf".into(), &format!("k{:03}", i % 200).as_str().into(), &"q".into())
                .expect("routed");
        }
        fe.advance(SimDuration::from_secs(30));
        let snap = fe.snapshot();
        assert_eq!(snap.servers.len(), 2);
        assert_eq!(snap.partitions.len(), 2);
        let total_rps: f64 = snap.servers.iter().map(|s| s.requests_per_sec).sum();
        // 300 reads over 30 s ≈ 10/s plus some attribution noise; the loads
        // (200 writes) fall in the first window.
        assert!(total_rps > 5.0 && total_rps < 30.0, "rps {total_rps}");
        for s in &snap.servers {
            assert!(s.cpu_util <= 1.0);
            assert_eq!(s.health, ServerHealth::Online);
        }
    }

    #[test]
    fn management_actions_do_real_work() {
        let mut fe = loaded();
        let snap = fe.snapshot();
        let p = snap.partitions[0].partition;
        let from = snap.partitions[0].assigned_to.expect("assigned");
        let to = snap.servers.iter().find(|s| s.server != from).expect("other").server;
        fe.move_partition(p, to).expect("move");
        assert_eq!(fe.db_ref().region_server(RegionId(p.0)), Some(to));

        // Restart with a scan profile: block size changes for real.
        let mut cfg = StoreConfig::small_for_tests();
        cfg.block_size = 16 * 1024;
        fe.restart_server(to, cfg).expect("restart");
        assert_eq!(fe.db_ref().server_config(to).expect("config").block_size, 16 * 1024);
        // Data survived the rebuild.
        let got = fe.db().get("t", &"cf".into(), &"k000".into(), &"q".into()).expect("routed");
        assert!(got.is_some(), "restart lost data");

        fe.major_compact(p).expect("compact");
        let new_server = fe.provision_server(StoreConfig::small_for_tests()).expect("add");
        fe.move_partition(p, new_server).expect("move to new");
        fe.decommission_server(to).expect("remove emptied server");
        assert!(!fe.db_ref().server_ids().contains(&to));
    }

    #[test]
    fn real_counters_accumulate_for_the_control_plane() {
        let mut fe = loaded();
        // Heavy reads on region 1's key space.
        for round in 0..8 {
            for i in 0..250 {
                fe.db()
                    .get(
                        "t",
                        &"cf".into(),
                        &format!("k{:03}", i % 100).as_str().into(),
                        &"q".into(),
                    )
                    .expect("routed");
            }
            fe.advance(SimDuration::from_secs(30));
            let _ = round;
        }
        let snap = fe.snapshot();
        let hot =
            snap.partitions.iter().max_by_key(|p| p.counters.reads).expect("partitions exist");
        assert!(hot.counters.reads >= 1_000, "traffic not recorded: {:?}", hot.counters);
    }
}
