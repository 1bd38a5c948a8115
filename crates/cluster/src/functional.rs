//! A functional distributed table store over real `hstore` regions.
//!
//! This is the "it actually stores data" layer: tables are pre-split into
//! regions, regions are assigned to servers (each with its own shared block
//! cache sized by its [`StoreConfig`]), operations route by row key, and
//! maintenance runs flushes, minor compactions and automatic splits.
//! The YCSB and TPC-C drivers run real operations against this layer to
//! validate workload logic; the performance experiments use the metadata
//! simulation in [`crate::sim`], which models the same mechanisms at cluster
//! scale.

use crate::admin::AdminError;
use crate::types::ServerId;
use bytes::Bytes;
use hstore::{
    Family, FileIdAllocator, KeyRange, OpStats, Qualifier, Region, RegionCounters, RegionId,
    RowKey, SharedBlockCache, StoreConfig, StoreError,
};
use simcore::SimRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Errors from the functional layer.
#[derive(Debug)]
pub enum FunctionalError {
    /// Unknown table.
    UnknownTable(String),
    /// No region covers the row (catalog corruption — should not happen).
    NoRegionForRow(RowKey),
    /// Underlying storage error.
    Store(StoreError),
    /// Management error.
    Admin(AdminError),
}

impl std::fmt::Display for FunctionalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FunctionalError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            FunctionalError::NoRegionForRow(r) => write!(f, "no region covers row '{r}'"),
            FunctionalError::Store(e) => write!(f, "storage error: {e}"),
            FunctionalError::Admin(e) => write!(f, "admin error: {e}"),
        }
    }
}

impl std::error::Error for FunctionalError {}

impl From<StoreError> for FunctionalError {
    fn from(e: StoreError) -> Self {
        FunctionalError::Store(e)
    }
}

impl From<AdminError> for FunctionalError {
    fn from(e: AdminError) -> Self {
        FunctionalError::Admin(e)
    }
}

/// Result alias for functional-layer calls.
pub type FResult<T> = Result<T, FunctionalError>;

struct FunctionalServer {
    config: StoreConfig,
    cache: SharedBlockCache,
    regions: BTreeMap<RegionId, Region>,
}

impl FunctionalServer {
    /// `region` rebuilt against this server's cache and configuration.
    fn rehome(&self, region: Region, ids: &Arc<FileIdAllocator>) -> Region {
        region.rehome(
            self.cache.clone(),
            ids.clone(),
            self.config.block_size,
            self.config.memstore_flush_bytes,
        )
    }
}

struct TableMeta {
    families: Vec<Family>,
    // Region start key (None = table start) → region id, sorted so the
    // region covering a row is the last entry with start ≤ row.
    regions: BTreeMap<Option<RowKey>, RegionId>,
}

/// Writer backpressure a region's maintenance imposed; see
/// [`FunctionalCluster::region_maintenance_pressure`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceSnapshot {
    /// Total writer wall-clock stalled on maintenance, µs.
    pub stall_micros_total: u64,
}

/// A whole functional cluster.
pub struct FunctionalCluster {
    servers: BTreeMap<ServerId, FunctionalServer>,
    tables: BTreeMap<String, TableMeta>,
    assignment: BTreeMap<RegionId, ServerId>,
    ids: Arc<FileIdAllocator>,
    next_region: u64,
    next_server: u64,
    rng: SimRng,
}

impl FunctionalCluster {
    /// Creates an empty cluster.
    pub fn new(seed: u64) -> Self {
        FunctionalCluster {
            servers: BTreeMap::new(),
            tables: BTreeMap::new(),
            assignment: BTreeMap::new(),
            ids: FileIdAllocator::new(),
            next_region: 1,
            next_server: 1,
            rng: SimRng::new(seed).derive("functional"),
        }
    }

    /// Adds a server with the given configuration.
    pub fn add_server(&mut self, config: StoreConfig) -> FResult<ServerId> {
        config.validate().map_err(|e| AdminError::BadConfig(e.to_string()))?;
        let id = ServerId(self.next_server);
        self.next_server += 1;
        let cache = SharedBlockCache::new(config.block_cache_bytes());
        self.servers.insert(id, FunctionalServer { config, cache, regions: BTreeMap::new() });
        Ok(id)
    }

    /// Server ids in order.
    pub fn server_ids(&self) -> Vec<ServerId> {
        self.servers.keys().copied().collect()
    }

    /// Creates a table pre-split at `split_keys`, assigning regions to
    /// servers with HBase's randomized even-count placement.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        families: &[Family],
        split_keys: &[RowKey],
    ) -> FResult<Vec<RegionId>> {
        let name = name.into();
        assert!(!self.tables.contains_key(&name), "table '{name}' already exists");
        assert!(!self.servers.is_empty(), "create servers before tables");
        let mut sorted = split_keys.to_vec();
        sorted.sort();
        sorted.dedup();

        // Build region ranges: (None..k1), [k1..k2), ..., [kn..None).
        let mut bounds: Vec<Option<RowKey>> = vec![None];
        bounds.extend(sorted.into_iter().map(Some));
        let mut region_ids = Vec::new();
        let mut meta = TableMeta { families: families.to_vec(), regions: BTreeMap::new() };

        // Randomized even placement: shuffle server order, round-robin.
        let mut order: Vec<ServerId> = self.servers.keys().copied().collect();
        self.rng.shuffle(&mut order);

        for (i, start) in bounds.iter().enumerate() {
            let end = bounds.get(i + 1).cloned().flatten();
            let range = KeyRange::new(start.clone(), end);
            let rid = RegionId(self.next_region);
            self.next_region += 1;
            let server_id = order[i % order.len()];
            let server = self.servers.get_mut(&server_id).expect("server vanished");
            let region = Region::new(
                rid,
                name.clone(),
                range,
                families,
                server.cache.clone(),
                self.ids.clone(),
                server.config.block_size,
                server.config.memstore_flush_bytes,
            );
            server.regions.insert(rid, region);
            self.assignment.insert(rid, server_id);
            meta.regions.insert(start.clone(), rid);
            region_ids.push(rid);
        }
        self.tables.insert(name, meta);
        Ok(region_ids)
    }

    fn locate(&self, table: &str, row: &RowKey) -> FResult<(RegionId, ServerId)> {
        let meta =
            self.tables.get(table).ok_or_else(|| FunctionalError::UnknownTable(table.into()))?;
        // Last region whose start ≤ row. `None` start sorts first.
        let rid = meta
            .regions
            .range(..=Some(row.clone()))
            .next_back()
            .map(|(_, r)| *r)
            .ok_or_else(|| FunctionalError::NoRegionForRow(row.clone()))?;
        let sid = *self.assignment.get(&rid).expect("region without assignment");
        Ok((rid, sid))
    }

    fn region_mut(&mut self, rid: RegionId, sid: ServerId) -> &mut Region {
        self.servers
            .get_mut(&sid)
            .expect("assignment points at missing server")
            .regions
            .get_mut(&rid)
            .expect("assignment points at missing region")
    }

    fn region_ref(&self, rid: RegionId, sid: ServerId) -> &Region {
        self.servers
            .get(&sid)
            .expect("assignment points at missing server")
            .regions
            .get(&rid)
            .expect("assignment points at missing region")
    }

    /// Writes a cell.
    pub fn put(
        &mut self,
        table: &str,
        family: &Family,
        row: RowKey,
        qualifier: Qualifier,
        value: Bytes,
    ) -> FResult<()> {
        let (rid, sid) = self.locate(table, &row)?;
        self.region_mut(rid, sid).put(family, row, qualifier, value)?;
        Ok(())
    }

    /// Reads a cell.
    pub fn get(
        &self,
        table: &str,
        family: &Family,
        row: &RowKey,
        qualifier: &Qualifier,
    ) -> FResult<Option<Bytes>> {
        self.get_with_stats(table, family, row, qualifier).map(|(v, _)| v)
    }

    /// [`FunctionalCluster::get`] reporting which blocks the read touched
    /// (cache hits vs. disk block reads) and whether the memstore answered
    /// it — the per-op counts service-time costing needs. Counted on the
    /// op's own path: a before/after delta of the server's shared
    /// [`hstore::CacheStats`] would charge this op with any concurrently
    /// interleaved operation's traffic.
    pub fn get_with_stats(
        &self,
        table: &str,
        family: &Family,
        row: &RowKey,
        qualifier: &Qualifier,
    ) -> FResult<(Option<Bytes>, OpStats)> {
        let (rid, sid) = self.locate(table, row)?;
        Ok(self.region_ref(rid, sid).get(family, row, qualifier)?)
    }

    /// Atomic compare-and-put on a cell.
    pub fn check_and_put(
        &mut self,
        table: &str,
        family: &Family,
        row: RowKey,
        qualifier: Qualifier,
        expected: Option<&Bytes>,
        new: Bytes,
    ) -> FResult<bool> {
        let (rid, sid) = self.locate(table, &row)?;
        Ok(self.region_mut(rid, sid).check_and_put(family, row, qualifier, expected, new)?.0)
    }

    /// Atomic numeric increment of a cell.
    pub fn increment(
        &mut self,
        table: &str,
        family: &Family,
        row: RowKey,
        qualifier: Qualifier,
        delta: i64,
    ) -> FResult<i64> {
        let (rid, sid) = self.locate(table, &row)?;
        Ok(self.region_mut(rid, sid).increment(family, row, qualifier, delta)?.0)
    }

    /// Deletes a cell.
    pub fn delete(
        &mut self,
        table: &str,
        family: &Family,
        row: RowKey,
        qualifier: Qualifier,
    ) -> FResult<()> {
        let (rid, sid) = self.locate(table, &row)?;
        self.region_mut(rid, sid).delete(family, row, qualifier)?;
        Ok(())
    }

    /// Scans up to `row_limit` rows from `start`, crossing region
    /// boundaries as HBase's client scanner does.
    pub fn scan(
        &self,
        table: &str,
        family: &Family,
        start: &RowKey,
        row_limit: usize,
    ) -> FResult<Vec<hstore::types::RowCells>> {
        self.scan_with_stats(table, family, start, row_limit).map(|(rows, _)| rows)
    }

    /// [`FunctionalCluster::scan`] reporting the blocks this scan entered
    /// across every region it crossed. Each region's work is counted on the
    /// scan's own merge iterators, so two scans interleaved on the same
    /// server each see only their own block reads (see
    /// [`FunctionalCluster::get_with_stats`]).
    pub fn scan_with_stats(
        &self,
        table: &str,
        family: &Family,
        start: &RowKey,
        row_limit: usize,
    ) -> FResult<(Vec<hstore::types::RowCells>, OpStats)> {
        let mut out = Vec::new();
        let mut stats = OpStats::default();
        let mut cursor = start.clone();
        loop {
            let (rid, sid) = self.locate(table, &cursor)?;
            let region = self.region_ref(rid, sid);
            let end = region.range().end.clone();
            // Saturating: a region handing back more rows than asked would
            // otherwise underflow this in the next iteration (debug builds
            // panic on unsigned wrap).
            let (rows, region_stats) =
                region.scan(family, &cursor, row_limit.saturating_sub(out.len()))?;
            out.extend(rows);
            stats.absorb(region_stats);
            if out.len() >= row_limit {
                break;
            }
            match end {
                // Continue into the next region.
                Some(next_start) => cursor = next_start,
                None => break,
            }
        }
        Ok((out, stats))
    }

    /// Writer stall a region's maintenance imposed. Always `None`:
    /// flushes and compactions run inline on the caller of
    /// [`FunctionalCluster::maintenance`], so no writer ever waits on them.
    pub fn region_maintenance_pressure(&self, _rid: RegionId) -> Option<MaintenanceSnapshot> {
        None
    }

    /// Runs maintenance on every server: threshold flushes, minor
    /// compactions, and automatic splits of oversized regions. Returns the
    /// number of splits performed.
    pub fn maintenance(&mut self) -> usize {
        let mut splits = 0;
        let sids: Vec<ServerId> = self.servers.keys().copied().collect();
        for sid in sids {
            let (threshold, split_bytes) = {
                let s = &self.servers[&sid];
                (s.config.compaction_threshold, s.config.region_split_bytes)
            };
            let rids: Vec<RegionId> = self.servers[&sid].regions.keys().copied().collect();
            for rid in rids {
                {
                    let region = self.region_mut(rid, sid);
                    region.maybe_flush();
                    region.maybe_compact(threshold);
                }
                if self.servers[&sid].regions[&rid].size_bytes() > split_bytes
                    && self.split_region(rid).is_ok()
                {
                    splits += 1;
                }
            }
        }
        splits
    }

    /// Splits a region at its byte-midpoint; daughters stay on the same
    /// server (HBase behaviour — the balancer may move them later).
    pub fn split_region(&mut self, rid: RegionId) -> FResult<(RegionId, RegionId)> {
        let sid = *self
            .assignment
            .get(&rid)
            .ok_or(AdminError::UnknownPartition(crate::types::PartitionId(rid.0)))?;
        let server = self.servers.get_mut(&sid).expect("assignment broken");
        let region = server.regions.get_mut(&rid).expect("assignment broken");
        let Some(mid) = region.split_point() else {
            return Err(FunctionalError::Store(StoreError::BadSplitPoint(
                "no usable split point".into(),
            )));
        };
        let table = region.table().to_string();
        let start = region.range().start.clone();
        let lo_id = RegionId(self.next_region);
        let hi_id = RegionId(self.next_region + 1);
        self.next_region += 2;

        let region = server.regions.remove(&rid).expect("just looked up");
        let (lo, hi) = region.split(
            mid.clone(),
            lo_id,
            hi_id,
            server.cache.clone(),
            self.ids.clone(),
            server.config.block_size,
        )?;
        server.regions.insert(lo_id, lo);
        server.regions.insert(hi_id, hi);
        self.assignment.remove(&rid);
        self.assignment.insert(lo_id, sid);
        self.assignment.insert(hi_id, sid);

        let meta = self.tables.get_mut(&table).expect("region of unknown table");
        meta.regions.remove(&start);
        meta.regions.insert(start, lo_id);
        meta.regions.insert(Some(mid), hi_id);
        Ok((lo_id, hi_id))
    }

    /// Moves a region to another server. The region's data is re-homed
    /// onto the destination's cache and storage parameters (see
    /// [`Region::rehome`]); its request counters move with it. The
    /// simulation layer models the locality cost; here we preserve
    /// functional correctness.
    pub fn move_region(&mut self, rid: RegionId, to: ServerId) -> FResult<()> {
        let from = *self
            .assignment
            .get(&rid)
            .ok_or(AdminError::UnknownPartition(crate::types::PartitionId(rid.0)))?;
        if from == to {
            return Ok(());
        }
        if !self.servers.contains_key(&to) {
            return Err(AdminError::UnknownServer(to).into());
        }
        let region = self
            .servers
            .get_mut(&from)
            .expect("assignment broken")
            .regions
            .remove(&rid)
            .expect("assignment broken");
        let dst = self.servers.get_mut(&to).expect("just checked");
        dst.regions.insert(rid, dst.rehome(region, &self.ids));
        self.assignment.insert(rid, to);
        Ok(())
    }

    /// The server currently holding a region.
    pub fn region_server(&self, rid: RegionId) -> Option<ServerId> {
        self.assignment.get(&rid).copied()
    }

    /// The declared column families of a table.
    pub fn table_families(&self, table: &str) -> Vec<Family> {
        self.tables.get(table).map(|m| m.families.clone()).unwrap_or_default()
    }

    /// Major-compacts every family of a region in place.
    pub fn major_compact_region(&mut self, rid: RegionId) -> FResult<u64> {
        let sid = *self
            .assignment
            .get(&rid)
            .ok_or(AdminError::UnknownPartition(crate::types::PartitionId(rid.0)))?;
        let region = self
            .servers
            .get_mut(&sid)
            .expect("assignment broken")
            .regions
            .get_mut(&rid)
            .expect("assignment broken");
        region.flush_all();
        Ok(region.major_compact().iter().map(|o| o.bytes_rewritten).sum())
    }

    /// Replaces a server's storage configuration, rebuilding its block
    /// cache and every hosted region against the new parameters — the
    /// functional equivalent of an HBase RegionServer restart with a new
    /// configuration (data survives; the cache starts cold).
    pub fn reconfigure_server(&mut self, sid: ServerId, config: StoreConfig) -> FResult<()> {
        config.validate().map_err(|e| AdminError::BadConfig(e.to_string()))?;
        if !self.servers.contains_key(&sid) {
            return Err(AdminError::UnknownServer(sid).into());
        }
        let rids: Vec<RegionId> = self.servers[&sid].regions.keys().copied().collect();
        // Swap in the new cache/config first.
        {
            let server = self.servers.get_mut(&sid).expect("checked above");
            server.cache = SharedBlockCache::new(config.block_cache_bytes());
            server.config = config;
        }
        // Rebuild each region against the new block size and cache.
        for rid in rids {
            let region =
                self.servers.get_mut(&sid).expect("checked").regions.remove(&rid).expect("listed");
            let dst = self.servers.get_mut(&sid).expect("checked");
            dst.regions.insert(rid, dst.rehome(region, &self.ids));
        }
        Ok(())
    }

    /// Removes a server, reassigning its regions round-robin to the
    /// remaining servers (what the HBase master does when a RegionServer
    /// is decommissioned).
    pub fn remove_server(&mut self, sid: ServerId) -> FResult<()> {
        if !self.servers.contains_key(&sid) {
            return Err(AdminError::UnknownServer(sid).into());
        }
        let survivors: Vec<ServerId> = self.servers.keys().copied().filter(|s| *s != sid).collect();
        if survivors.is_empty() {
            return Err(AdminError::LastServer.into());
        }
        let rids: Vec<RegionId> = self.servers[&sid].regions.keys().copied().collect();
        for (i, rid) in rids.iter().enumerate() {
            self.move_region(*rid, survivors[i % survivors.len()])?;
        }
        self.servers.remove(&sid);
        Ok(())
    }

    /// The server's current storage configuration.
    pub fn server_config(&self, sid: ServerId) -> Option<StoreConfig> {
        self.servers.get(&sid).map(|s| s.config.clone())
    }

    /// Block-cache usage `(used, capacity)` in bytes for a server.
    pub fn server_cache_usage(&self, sid: ServerId) -> Option<(u64, u64)> {
        self.servers.get(&sid).map(|s| (s.cache.used_bytes(), s.cache.capacity_bytes()))
    }

    /// Every region id with its current server.
    pub fn all_regions(&self) -> Vec<(RegionId, ServerId)> {
        self.assignment.iter().map(|(r, s)| (*r, *s)).collect()
    }

    /// The table a region belongs to.
    pub fn region_table(&self, rid: RegionId) -> Option<String> {
        let sid = self.assignment.get(&rid)?;
        self.servers.get(sid)?.regions.get(&rid).map(|r| r.table().to_string())
    }

    /// Regions of a table in key order.
    pub fn table_regions(&self, table: &str) -> Vec<RegionId> {
        self.tables.get(table).map(|m| m.regions.values().copied().collect()).unwrap_or_default()
    }

    /// Region ids hosted by a server.
    pub fn server_regions(&self, sid: ServerId) -> Vec<RegionId> {
        self.servers.get(&sid).map(|s| s.regions.keys().copied().collect()).unwrap_or_default()
    }

    /// Request counters of a region.
    pub fn region_counters(&self, rid: RegionId) -> Option<RegionCounters> {
        let sid = self.assignment.get(&rid)?;
        self.servers.get(sid)?.regions.get(&rid).map(|r| r.counters())
    }

    /// Data size of a region in bytes.
    pub fn region_size(&self, rid: RegionId) -> Option<u64> {
        let sid = self.assignment.get(&rid)?;
        self.servers.get(sid)?.regions.get(&rid).map(|r| r.size_bytes())
    }

    /// Cache statistics of a server — *aggregate* counters across every
    /// operation the server has ever served. For per-operation block
    /// counts use the `*_with_stats` op paths, which attribute work to the
    /// op that did it; deltas of this global view mis-attribute when ops
    /// interleave.
    pub fn server_cache_stats(&self, sid: ServerId) -> Option<hstore::CacheStats> {
        self.servers.get(&sid).map(|s| s.cache.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn cluster_with(servers: usize) -> FunctionalCluster {
        let mut c = FunctionalCluster::new(7);
        for _ in 0..servers {
            c.add_server(StoreConfig::small_for_tests()).unwrap();
        }
        c
    }

    #[test]
    fn create_table_distributes_regions_evenly() {
        let mut c = cluster_with(4);
        let splits: Vec<RowKey> = (1..8).map(|i| format!("k{i}").as_str().into()).collect();
        let regions = c.create_table("t", &[Family::from("cf")], &splits).unwrap();
        assert_eq!(regions.len(), 8);
        for sid in c.server_ids() {
            assert_eq!(c.server_regions(sid).len(), 2, "uneven placement");
        }
    }

    #[test]
    fn put_get_routes_across_regions() {
        let mut c = cluster_with(3);
        c.create_table("t", &[Family::from("cf")], &["m".into()]).unwrap();
        c.put("t", &"cf".into(), "apple".into(), "q".into(), b("1")).unwrap();
        c.put("t", &"cf".into(), "zebra".into(), "q".into(), b("2")).unwrap();
        assert_eq!(c.get("t", &"cf".into(), &"apple".into(), &"q".into()).unwrap(), Some(b("1")));
        assert_eq!(c.get("t", &"cf".into(), &"zebra".into(), &"q".into()).unwrap(), Some(b("2")));
        assert_eq!(c.get("t", &"cf".into(), &"nope".into(), &"q".into()).unwrap(), None);
    }

    #[test]
    fn scan_crosses_region_boundaries() {
        let mut c = cluster_with(2);
        c.create_table("t", &[Family::from("cf")], &["row05".into(), "row10".into()]).unwrap();
        for i in 0..15 {
            c.put("t", &"cf".into(), format!("row{i:02}").into(), "q".into(), b("v")).unwrap();
        }
        let rows = c.scan("t", &"cf".into(), &"row03".into(), 9).unwrap();
        assert_eq!(rows.len(), 9);
        assert_eq!(rows[0].0.to_string(), "row03");
        assert_eq!(rows[8].0.to_string(), "row11");
    }

    #[test]
    fn unknown_table_errors() {
        let c = cluster_with(1);
        assert!(matches!(
            c.get("missing", &"cf".into(), &"r".into(), &"q".into()),
            Err(FunctionalError::UnknownTable(_))
        ));
    }

    #[test]
    fn move_region_preserves_data() {
        let mut c = cluster_with(2);
        c.create_table("t", &[Family::from("cf")], &[]).unwrap();
        for i in 0..20 {
            c.put("t", &"cf".into(), format!("r{i:02}").into(), "q".into(), b("v")).unwrap();
        }
        // One row deleted and one overwritten, both after a flush, so the
        // tombstone and the newer version sit above older file data.
        let rid = c.table_regions("t")[0];
        c.major_compact_region(rid).unwrap();
        c.delete("t", &"cf".into(), "r03".into(), "q".into()).unwrap();
        c.put("t", &"cf".into(), "r07".into(), "q".into(), b("v2")).unwrap();
        let from = c.region_server(rid).unwrap();
        let to = c.server_ids().into_iter().find(|s| *s != from).unwrap();
        c.move_region(rid, to).unwrap();
        assert_eq!(c.region_server(rid), Some(to));
        let expected = |i: usize| match i {
            3 => None,
            7 => Some(b("v2")),
            _ => Some(b("v")),
        };
        for i in 0..20 {
            assert_eq!(
                c.get("t", &"cf".into(), &format!("r{i:02}").as_str().into(), &"q".into()).unwrap(),
                expected(i),
                "row r{i:02} wrong after move"
            );
        }
        let rows = c.scan("t", &"cf".into(), &"r00".into(), 100).unwrap();
        assert_eq!(rows.len(), 19, "the deleted row stays deleted in scans");
    }

    #[test]
    fn move_region_keeps_request_counters() {
        let mut c = cluster_with(2);
        c.create_table("t", &[Family::from("cf")], &[]).unwrap();
        for i in 0..10 {
            c.put("t", &"cf".into(), format!("r{i:02}").into(), "q".into(), b("v")).unwrap();
        }
        c.get("t", &"cf".into(), &"r01".into(), &"q".into()).unwrap();
        c.scan("t", &"cf".into(), &"r02".into(), 3).unwrap();
        let rid = c.table_regions("t")[0];
        let before = c.region_counters(rid).unwrap();
        assert_eq!((before.writes, before.reads, before.scans, before.scan_rows), (10, 1, 1, 3));
        let from = c.region_server(rid).unwrap();
        let to = c.server_ids().into_iter().find(|s| *s != from).unwrap();
        c.move_region(rid, to).unwrap();
        assert_eq!(c.region_counters(rid).unwrap(), before, "a move must not reset the counters");
        // Back again, through a reconfiguration restart too.
        c.move_region(rid, from).unwrap();
        c.reconfigure_server(from, StoreConfig::small_for_tests()).unwrap();
        assert_eq!(c.region_counters(rid).unwrap(), before);
    }

    #[test]
    fn maintenance_splits_oversized_regions() {
        let mut c = cluster_with(1);
        c.create_table("t", &[Family::from("cf")], &[]).unwrap();
        // small_for_tests splits at 4 MiB; write ~6 MiB.
        let payload = "x".repeat(1_000);
        for i in 0..6_000 {
            c.put("t", &"cf".into(), format!("row{i:05}").into(), "q".into(), b(&payload)).unwrap();
        }
        // Flush everything so the split heuristic sees file data.
        let before = c.table_regions("t").len();
        let splits = c.maintenance();
        assert!(splits >= 1, "expected at least one split");
        assert!(c.table_regions("t").len() > before);
        // Data still fully readable after split.
        for i in (0..6_000).step_by(997) {
            assert!(c
                .get("t", &"cf".into(), &format!("row{i:05}").as_str().into(), &"q".into())
                .unwrap()
                .is_some());
        }
    }

    #[test]
    fn op_paths_attribute_their_own_cache_traffic() {
        // Two regions on one server share a block cache. Alternating scans
        // over both must each report only their own block reads — exactly
        // what a before/after delta of the global CacheStats gets wrong.
        let mut c = cluster_with(1);
        c.create_table("t", &[Family::from("cf")], &["m".into()]).unwrap();
        let payload = "x".repeat(500);
        for i in 0..200 {
            c.put("t", &"cf".into(), format!("a{i:03}").into(), "q".into(), b(&payload)).unwrap();
            c.put("t", &"cf".into(), format!("n{i:03}").into(), "q".into(), b(&payload)).unwrap();
        }
        // Flush both regions so scans read real file blocks.
        for rid in c.table_regions("t") {
            c.major_compact_region(rid).unwrap();
        }
        let sid = c.server_ids()[0];
        let before = c.server_cache_stats(sid).unwrap();

        let mut low = OpStats::default();
        let mut high = OpStats::default();
        for round in 0..4 {
            let start_a: RowKey = format!("a{:03}", round * 50).as_str().into();
            let start_n: RowKey = format!("n{:03}", round * 50).as_str().into();
            let (rows, s) = c.scan_with_stats("t", &"cf".into(), &start_a, 50).unwrap();
            assert_eq!(rows.len(), 50);
            low.absorb(s);
            let (rows, s) = c.scan_with_stats("t", &"cf".into(), &start_n, 50).unwrap();
            assert_eq!(rows.len(), 50);
            high.absorb(s);
        }
        assert!(low.blocks_touched() > 0 && high.blocks_touched() > 0);
        // Per-op attribution must add up to the server's global counters.
        let after = c.server_cache_stats(sid).unwrap();
        assert_eq!(
            low.blocks_touched() + high.blocks_touched(),
            after.accesses() - before.accesses(),
            "per-op stats must partition the global cache traffic"
        );
        // A point get after compaction reports its own (tiny) footprint.
        let (_, g) = c.get_with_stats("t", &"cf".into(), &"a000".into(), &"q".into()).unwrap();
        assert!(!g.memstore, "flushed data must come from files");
        assert!(g.blocks_touched() >= 1);
        assert!(g.blocks_touched() < low.blocks_touched());
    }

    #[test]
    fn counters_survive_routing() {
        let mut c = cluster_with(2);
        c.create_table("t", &[Family::from("cf")], &["m".into()]).unwrap();
        c.put("t", &"cf".into(), "a".into(), "q".into(), b("1")).unwrap();
        c.get("t", &"cf".into(), &"a".into(), &"q".into()).unwrap();
        c.get("t", &"cf".into(), &"z".into(), &"q".into()).unwrap();
        let regions = c.table_regions("t");
        let c0 = c.region_counters(regions[0]).unwrap();
        let c1 = c.region_counters(regions[1]).unwrap();
        assert_eq!(c0.writes + c1.writes, 1);
        assert_eq!(c0.reads + c1.reads, 2);
    }
}
