//! The served data path: closed-loop YCSB-shaped clients over a 3-server
//! `FunctionalCluster`, each server on the Table 1 profile MeT would pick
//! for the workload's access pattern.
//!
//! `read-cached` is 100 % point gets from two client threads over data
//! that fits in half the combined block cache; `rw-uncached` is one client
//! mixing gets, updates and scans over data twice the combined block
//! cache, running the cluster's inline maintenance on a fixed write
//! cadence. Every answer is checked against a model of what was written.

use crate::latency::{Recorder, Sorted};
use crate::{Args, Outcome};
use bytes::Bytes;
use cluster::functional::FunctionalCluster;
use hstore::{CacheStats, CfStore, Family, FileIdAllocator, OpStats, Qualifier, RowKey};
use hstore::{SharedBlockCache, StoreConfig};
use met::ProfileKind;
use simcore::dist::{HotspotDist, KeyDistribution};
use simcore::SimRng;
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const SERVERS: usize = 3;
const TABLE: &str = "usertable";
/// Cluster builds per untraced run; `setup_s` is their median.
const SETUP_REPS: u32 = 3;
/// Puts between `maintenance()` calls while loading.
const LOAD_MAINT_EVERY: u32 = 256;
/// Writes between `maintenance()` calls while serving: the stand-in for
/// HBase's per-write flush check.
const MAINT_EVERY: u64 = 32;
/// Writes between major compactions, each of the next region in turn:
/// the scaled stand-in for HBase's periodic major compaction. The served
/// path's inline maintenance runs only minor compactions, which keep
/// every version, so without these the stored bytes grow for as long as
/// the client writes and no two windows of a run see the same store.
const MAJOR_EVERY: u64 = 1024;
/// Pre-generated operations per client stream; a run cycles through it.
const STREAM_LEN: usize = 1 << 21;
/// `rw-uncached` operations run before timing starts.
const RW_WARMUP_OPS: usize = 48_000;
/// Untraced/traced slice pairs in a traced run.
const TRACE_SLICES: u32 = 4;

/// One store workload's data and cluster shape.
struct Shape {
    profile: ProfileKind,
    heap_bytes: u64,
    rows: u32,
    memstore_flush_bytes: u64,
}

const READ_CACHED: Shape = Shape {
    profile: ProfileKind::Read,
    heap_bytes: 12 << 20,
    rows: 48_000,
    memstore_flush_bytes: 256 << 10,
};

const RW_UNCACHED: Shape = Shape {
    profile: ProfileKind::ReadWrite,
    heap_bytes: 5 << 19,
    rows: 60_000,
    memstore_flush_bytes: 32 << 10,
};

impl Shape {
    /// Table 1's profile over a small base heap. Splits are off: the
    /// region layout stays the pre-split one for the whole run.
    fn config(&self) -> StoreConfig {
        let base = StoreConfig {
            heap_bytes: self.heap_bytes,
            memstore_flush_bytes: self.memstore_flush_bytes,
            region_split_bytes: u64::MAX,
            compaction_threshold: 3,
            ..StoreConfig::small_for_tests()
        };
        self.profile.config(&base)
    }
}

fn family() -> Family {
    "f".into()
}

fn qualifier() -> Qualifier {
    "field0".into()
}

/// Regions per table.
const REGIONS: u64 = 16;

/// Region boundaries: keys are hex-hashed, so splits on the first hex
/// digit give [`REGIONS`] regions of equal expected size.
fn split_keys() -> Vec<RowKey> {
    (1..REGIONS).map(|d| RowKey::from(format!("user{d:x}"))).collect()
}

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The key set: record `i`'s key is a hash of `i` and the seed (YCSB's
/// hashed insert order), so the hotspot's hot records spread over every
/// region.
struct Keys {
    keys: Vec<RowKey>,
    /// Record indices in key order.
    order: Vec<u32>,
    /// Key-order position of each record.
    pos: Vec<u32>,
}

impl Keys {
    fn new(seed: u64, n: u32) -> Keys {
        let salt = mix64(seed ^ 0x5eed);
        // mix64 is a bijection, so distinct inputs give distinct keys.
        let keys: Vec<RowKey> = (0..u64::from(n))
            .map(|i| RowKey::from(format!("user{:016x}", mix64(i.wrapping_add(salt)))))
            .collect();
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by(|a, b| keys[*a as usize].cmp(&keys[*b as usize]));
        let mut pos = vec![0u32; n as usize];
        for (p, &i) in order.iter().enumerate() {
            pos[i as usize] = p as u32;
        }
        Keys { keys, order, pos }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Value bytes per cell (YCSB's 100-byte field).
const VALUE_BYTES: usize = 100;

/// A cell value encoding its record and version: `[record u32][version
/// u32]` then a fill byte derived from both.
fn value(record: u32, version: u32) -> Bytes {
    let mut v = Vec::with_capacity(VALUE_BYTES);
    v.extend_from_slice(&record.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    v.resize(VALUE_BYTES, fill(record, version));
    Bytes::from(v)
}

fn fill(record: u32, version: u32) -> u8 {
    (record.wrapping_mul(31).wrapping_add(version) % 251) as u8
}

fn value_ok(v: &[u8], record: u32, version: u32) -> bool {
    v.len() == VALUE_BYTES
        && v[..4] == record.to_le_bytes()
        && v[4..8] == version.to_le_bytes()
        && v[8..].iter().all(|&b| b == fill(record, version))
}

/// Data bytes one record holds (key + qualifier + value), the denominator
/// of space amplification.
fn logical_bytes(keys: &Keys) -> u64 {
    let q = qualifier().as_bytes().len();
    keys.keys.iter().map(|k| (k.len() + q + VALUE_BYTES) as u64).sum()
}

fn stored_bytes(c: &FunctionalCluster) -> u64 {
    c.all_regions().iter().filter_map(|(rid, _)| c.region_size(*rid)).sum()
}

fn cache_stats(c: &FunctionalCluster) -> CacheStats {
    let mut total = CacheStats::default();
    for sid in c.server_ids() {
        let s = c.server_cache_stats(sid).expect("listed server exists");
        total.hits += s.hits;
        total.misses += s.misses;
        total.evictions += s.evictions;
    }
    total
}

/// Adds the counters' growth from `before` to `after` to `total`.
fn add_delta(total: &mut CacheStats, before: &CacheStats, after: &CacheStats) {
    total.hits += after.hits - before.hits;
    total.misses += after.misses - before.misses;
    total.evictions += after.evictions - before.evictions;
}

fn stall_ms(c: &FunctionalCluster) -> f64 {
    c.all_regions()
        .iter()
        .filter_map(|(rid, _)| c.region_maintenance_pressure(*rid))
        .map(|p| p.stall_micros_total as f64 / 1e3)
        .fold(0.0, |a, b| a + b)
}

/// Builds the cluster and loads every record at version 0, then flushes
/// and major-compacts each region so serving starts from one file per
/// region.
fn build(shape: &Shape, keys: &Keys, seed: u64) -> FunctionalCluster {
    let cfg = shape.config();
    let mut c = FunctionalCluster::new(seed);
    for _ in 0..SERVERS {
        c.add_server(cfg.clone()).expect("Table 1 profiles validate");
    }
    c.create_table(TABLE, &[family()], &split_keys()).expect("fresh table");
    let (f, q) = (family(), qualifier());
    for (i, key) in keys.keys.iter().enumerate() {
        let i = i as u32;
        c.put(TABLE, &f, key.clone(), q.clone(), value(i, 0)).expect("load put succeeds");
        if (i + 1).is_multiple_of(LOAD_MAINT_EVERY) {
            c.maintenance();
        }
    }
    for (rid, _) in c.all_regions() {
        c.major_compact_region(rid).expect("listed region exists");
    }
    c
}

/// Per-op block counts summed over the gets or scans of a window.
#[derive(Default, Clone, Copy)]
struct Blocks {
    ops: u64,
    touched: u64,
    read: u64,
    memstore: u64,
    rows: u64,
}

impl Blocks {
    fn add(&mut self, s: OpStats, rows: u64) {
        self.ops += 1;
        self.touched += s.blocks_touched();
        self.read += s.blocks_read;
        self.memstore += u64::from(s.memstore);
        self.rows += rows;
    }

    fn absorb(&mut self, o: &Blocks) {
        self.ops += o.ops;
        self.touched += o.touched;
        self.read += o.read;
        self.memstore += o.memstore;
        self.rows += o.rows;
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn pct_us(s: &Sorted<'_>, q: f64) -> f64 {
    s.percentile_us(q).unwrap_or(s.max_ns() as f64 / 1e3)
}

/// Measured windows per untraced run. Each end-to-end figure is the
/// median over the windows, so a burst of noise from the rest of the host
/// moves one window rather than the run's figure.
const WINDOWS: u32 = 12;

/// Samples a window of `window` can hold at `rate` requests per second,
/// and at most `max_ops`.
fn capacity(window: Duration, max_ops: usize, rate: f64) -> usize {
    ((window.as_secs_f64() * rate) as usize).min(max_ops)
}

/// Highest get rate one `read-cached` client is provisioned for.
const GETS_PER_S: f64 = 1e6;
/// Highest request rate the `rw-uncached` client is provisioned for.
const RW_OPS_PER_S: f64 = 2e5;

/// Per-window figures: the end-to-end ones over every request, and the
/// per-request-type breakdown for the run record.
struct Figures {
    /// Every request of the current window, sorted per type, then as one.
    scratch: Recorder,
    ops_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    /// Request type → (window p50s, window p99s, samples).
    by_type: BTreeMap<&'static str, (Vec<f64>, Vec<f64>, usize)>,
}

impl Figures {
    /// Figures for windows of up to `capacity` requests.
    fn new(capacity: usize) -> Figures {
        Figures {
            scratch: Recorder::with_capacity(capacity),
            ops_per_s: Vec::new(),
            p50_us: Vec::new(),
            p99_us: Vec::new(),
            by_type: BTreeMap::new(),
        }
    }

    /// Adds one window: its op count, length and, per request type, the
    /// latency samples of every client.
    fn add(&mut self, ops: u64, elapsed: Duration, by_type: &[(&'static str, &[&Recorder])]) {
        self.scratch.clear();
        for (name, recorders) in by_type {
            let from = self.scratch.len();
            for r in *recorders {
                self.scratch.merge(r);
            }
            let s = self.scratch.sort_from(from);
            let e = self.by_type.entry(name).or_default();
            e.0.push(pct_us(&s, 0.50));
            e.1.push(pct_us(&s, 0.99));
            e.2 += s.len();
        }
        let all = self.scratch.sort();
        self.ops_per_s.push(ops as f64 / elapsed.as_secs_f64());
        self.p50_us.push(pct_us(&all, 0.50));
        self.p99_us.push(pct_us(&all, 0.99));
    }

    fn report(self, out: &mut Outcome) {
        out.metric("ops_per_s", crate::median(self.ops_per_s), "1/s");
        out.metric("p50_us", crate::median(self.p50_us), "us");
        out.metric("p99_us", crate::median(self.p99_us), "us");
        for (name, (p50, p99, n)) in self.by_type {
            out.detail(&format!("{name}_p50_us"), crate::median(p50), "us");
            out.detail(&format!("{name}_p99_us"), crate::median(p99), "us");
            out.detail(&format!("{name}_samples"), n as f64, "count");
        }
    }
}

// ---- read-cached ------------------------------------------------------

/// A get window's totals over its clients.
#[derive(Default)]
struct GetTally {
    ops: u64,
    failed: u64,
    blocks: Blocks,
    elapsed: Duration,
}

/// One latency buffer per client, each holding a `window` of gets. The
/// caller allocates them once and every window reuses them, so the
/// resident memory does not depend on which thread allocated what.
fn get_buffers(clients: usize, window: Duration) -> Vec<Recorder> {
    (0..clients)
        .map(|_| Recorder::with_capacity(capacity(window, usize::MAX, GETS_PER_S)))
        .collect()
}

struct ReadSide<'a> {
    cluster: &'a FunctionalCluster,
    keys: &'a Keys,
    values: &'a [Bytes],
    streams: &'a [Vec<u32>],
}

impl ReadSide<'_> {
    /// Runs one closed-loop get client per buffer in `lats` for `window`:
    /// client `c` continues its stream from `cursor[c]` and records its
    /// latencies into `lats[c]`, cleared first.
    fn run(
        &self,
        lats: &mut [Recorder],
        window: Duration,
        traced: bool,
        cursor: &mut [usize],
    ) -> GetTally {
        let barrier = Barrier::new(lats.len());
        let tallies: Vec<(GetTally, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = lats
                .iter_mut()
                .zip(cursor.iter())
                .enumerate()
                .map(|(c, (lat, &start))| {
                    let barrier = &barrier;
                    s.spawn(move || self.client(c, start, lat, window, traced, barrier))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let mut total = GetTally::default();
        for (c, (t, next)) in tallies.into_iter().enumerate() {
            cursor[c] = next;
            total.ops += t.ops;
            total.failed += t.failed;
            total.blocks.absorb(&t.blocks);
            total.elapsed = total.elapsed.max(t.elapsed);
        }
        total
    }

    fn client(
        &self,
        c: usize,
        mut at: usize,
        lat: &mut Recorder,
        window: Duration,
        traced: bool,
        barrier: &Barrier,
    ) -> (GetTally, usize) {
        let (f, q) = (family(), qualifier());
        let stream = &self.streams[c];
        lat.clear();
        let mut t = GetTally::default();
        barrier.wait();
        let start = Instant::now();
        let deadline = start + window;
        loop {
            let i = stream[at] as usize;
            at = (at + 1) % stream.len();
            let t0 = Instant::now();
            let r = self.cluster.get_with_stats(TABLE, &f, &self.keys.keys[i], &q);
            let t1 = Instant::now();
            lat.record(t1 - t0);
            t.ops += 1;
            match r {
                Ok((Some(v), stats)) if v == self.values[i] => {
                    if traced {
                        t.blocks.add(stats, 0);
                    }
                }
                _ => t.failed += 1,
            }
            if t1 >= deadline {
                t.elapsed = t1 - start;
                return (t, at);
            }
        }
    }
}

fn get_streams(seed: u64, n: u32, clients: usize) -> Vec<Vec<u32>> {
    (0..clients)
        .map(|c| {
            let mut rng = SimRng::new(seed).derive("read-cached").derive_idx(c as u64);
            let mut dist = HotspotDist::paper(u64::from(n));
            (0..STREAM_LEN).map(|_| dist.next_index(&mut rng) as u32).collect()
        })
        .collect()
}

/// Reads every record once in key order: fills the cache and checks the
/// load. Returns the number of wrong answers.
fn warm_and_check(c: &FunctionalCluster, keys: &Keys, values: &[Bytes]) -> u64 {
    let (f, q) = (family(), qualifier());
    let mut failed = 0;
    for &i in &keys.order {
        match c.get(TABLE, &f, &keys.keys[i as usize], &q) {
            Ok(Some(v)) if v == values[i as usize] => {}
            _ => failed += 1,
        }
    }
    failed
}

/// Holds `read-cached` to its premise: the stored bytes, not just the
/// logical ones, fit in half the combined block cache.
fn check_fits(stored: u64, cache: u64) {
    assert!(
        2 * stored <= cache,
        "read-cached data ({stored} B) must fit half the cache ({cache} B)"
    );
}

pub fn read_cached(args: &Args) -> Outcome {
    let shape = &READ_CACHED;
    let keys = Keys::new(args.seed, shape.rows);
    let values: Vec<Bytes> = (0..shape.rows).map(|i| value(i, 0)).collect();
    let streams = get_streams(args.seed, shape.rows, 2);
    let mut out = Outcome::default();

    let setup = || {
        let t0 = Instant::now();
        let c = build(shape, &keys, args.seed);
        let failed = warm_and_check(&c, &keys, &values);
        (c, failed, t0.elapsed().as_secs_f64())
    };
    let cache = SERVERS as u64 * shape.config().block_cache_bytes();
    out.detail("data_bytes", logical_bytes(&keys) as f64, "B");
    out.detail("cache_bytes", cache as f64, "B");
    let mut cursor = vec![0usize; 2];

    if !args.trace {
        // Several cluster instances, their measured windows interleaved:
        // each figure is a median over instances and over time.
        let mut setup_s = Vec::new();
        let mut clusters = Vec::new();
        for _ in 0..SETUP_REPS {
            let (cluster, failed, secs) = setup();
            setup_s.push(secs);
            out.attempted += keys.len() as u64;
            out.failed += failed;
            check_fits(stored_bytes(&cluster), cache);
            clusters.push(cluster);
        }
        let window = args.seconds / WINDOWS;
        let mut lats = get_buffers(2, window);
        let mut figures = Figures::new(2 * capacity(window, usize::MAX, GETS_PER_S));
        for w in 0..WINDOWS {
            let cluster = &clusters[(w % SETUP_REPS) as usize];
            let side = ReadSide { cluster, keys: &keys, values: &values, streams: &streams };
            let t = side.run(&mut lats, window, false, &mut cursor);
            out.attempted += t.ops;
            out.failed += t.failed;
            figures.add(t.ops, t.elapsed, &[("get", &[&lats[0], &lats[1]])]);
        }
        figures.report(&mut out);
        out.metric("setup_s", crate::median(setup_s), "s");
        out.detail("failed_frac", ratio(out.failed as f64, out.attempted as f64), "ratio");
        return out;
    }

    let (cluster, failed, _) = setup();
    out.attempted += keys.len() as u64;
    out.failed += failed;
    check_fits(stored_bytes(&cluster), cache);
    let side = ReadSide { cluster: &cluster, keys: &keys, values: &values, streams: &streams };

    // Traced run: untraced and traced 2-client slices alternate so drift
    // lands on both; tracing adds per-op block accounting and the span
    // profiler.
    let slice = args.seconds / (2 * TRACE_SLICES);
    let mut lats = get_buffers(2, args.seconds / 4);
    let (mut plain_ops, mut plain_s, mut traced_ops, mut traced_s) = (0u64, 0.0, 0u64, 0.0);
    let mut blocks = Blocks::default();
    let mut cache_delta = CacheStats::default();
    telemetry::span::clear();
    for _ in 0..TRACE_SLICES {
        let t = side.run(&mut lats, slice, false, &mut cursor);
        out.attempted += t.ops;
        out.failed += t.failed;
        plain_ops += t.ops;
        plain_s += t.elapsed.as_secs_f64();
        let before = cache_stats(&cluster);
        telemetry::span::set_enabled(true);
        let t = side.run(&mut lats, slice, true, &mut cursor);
        telemetry::span::set_enabled(false);
        add_delta(&mut cache_delta, &before, &cache_stats(&cluster));
        out.attempted += t.ops;
        out.failed += t.failed;
        traced_ops += t.ops;
        traced_s += t.elapsed.as_secs_f64();
        blocks.absorb(&t.blocks);
    }
    let records = telemetry::span::drain();
    let mut layer = BTreeMap::new();
    let two = plain_ops as f64 / plain_s;
    layer.insert("trace.overhead_frac".into(), two / (traced_ops as f64 / traced_s) - 1.0);
    crate::add_span_self_ms(&mut layer, &records);
    insert_cache_layer(&mut layer, &cache_delta, &blocks, &Blocks::default());

    // One client alone: the scaling base and the routed get latency.
    let one = side.run(&mut lats[..1], args.seconds / 4, false, &mut cursor);
    out.attempted += one.ops;
    out.failed += one.failed;
    let routed_p50 = lats[0].sort().percentile_ns(0.5).unwrap_or(0) as f64;
    layer.insert("read.scaling_2v1".into(), two / (one.ops as f64 / one.elapsed.as_secs_f64()));

    // The same stream against one store with the same rows and config.
    let replay = replay_gets(shape, &keys, &values, &streams[0], args.seconds / 4, &mut lats[0]);
    out.attempted += replay.ops;
    out.failed += replay.failed;
    let store = lats[0].sort();
    let store_p50 = store.percentile_ns(0.5).unwrap_or(0) as f64;
    layer.insert("store.get_ns_p50".into(), store_p50);
    layer.insert("store.get_ns_p99".into(), store.percentile_ns(0.99).unwrap_or(0) as f64);
    layer.insert("route.get_ns".into(), routed_p50 - store_p50);
    let bytes = stored_bytes(&cluster);
    layer.insert("store.bytes".into(), bytes as f64);
    layer.insert("space_amp".into(), bytes as f64 / logical_bytes(&keys) as f64);
    crate::emit_per_layer(&mut out, layer);
    out
}

fn insert_cache_layer(
    layer: &mut BTreeMap<String, f64>,
    cache: &CacheStats,
    gets: &Blocks,
    scans: &Blocks,
) {
    layer.insert("cache.hit_ratio".into(), cache.hit_ratio());
    layer.insert("cache.evictions".into(), cache.evictions as f64);
    layer.insert("get.blocks_per_op".into(), ratio(gets.touched as f64, gets.ops as f64));
    layer.insert("get.misses_per_op".into(), ratio(gets.read as f64, gets.ops as f64));
    layer.insert("get.memstore_frac".into(), ratio(gets.memstore as f64, gets.ops as f64));
    layer.insert("scan.blocks_per_row".into(), ratio(scans.touched as f64, scans.rows as f64));
}

/// A single store holding every record, on the combined cache of the
/// cluster's servers and the profile's block size.
fn single_store(shape: &Shape, keys: &Keys) -> CfStore {
    let cfg = shape.config();
    let cache = SharedBlockCache::new(SERVERS as u64 * cfg.block_cache_bytes());
    let mut s = CfStore::new(cache, FileIdAllocator::new(), cfg.block_size);
    let q = qualifier();
    let flush_bytes = store_flush_bytes(shape);
    for (i, key) in keys.keys.iter().enumerate() {
        s.put(key.clone(), q.clone(), value(i as u32, 0));
        if s.memstore_bytes() as u64 >= flush_bytes {
            s.flush();
        }
    }
    s.flush();
    s.compact_major();
    s
}

/// The single store's flush threshold: the cluster's per-region threshold
/// times the region count, so both flush the same bytes per write.
fn store_flush_bytes(shape: &Shape) -> u64 {
    shape.memstore_flush_bytes * REGIONS
}

fn replay_gets(
    shape: &Shape,
    keys: &Keys,
    values: &[Bytes],
    stream: &[u32],
    window: Duration,
    lat: &mut Recorder,
) -> GetTally {
    let s = single_store(shape, keys);
    let q = qualifier();
    for &i in &keys.order {
        std::hint::black_box(s.get(&keys.keys[i as usize], &q));
    }
    lat.clear();
    let mut t = GetTally::default();
    let start = Instant::now();
    let deadline = start + window;
    for &i in stream.iter().cycle() {
        let i = i as usize;
        let t0 = Instant::now();
        let r = s.get(&keys.keys[i], &q);
        let t1 = Instant::now();
        lat.record(t1 - t0);
        t.ops += 1;
        if r.as_ref() != Some(&values[i]) {
            t.failed += 1;
        }
        if t1 >= deadline {
            break;
        }
    }
    t.elapsed = start.elapsed();
    t
}

// ---- rw-uncached ------------------------------------------------------

#[derive(Clone, Copy)]
enum Op {
    Get(u32),
    Update(u32),
    Scan(u32, u32),
}

fn rw_stream(seed: u64, n: u32) -> Vec<Op> {
    let mut rng = SimRng::new(seed).derive("rw-uncached");
    let mut dist = HotspotDist::paper(u64::from(n));
    (0..STREAM_LEN)
        .map(|_| {
            let kind = rng.next_below(100);
            let k = dist.next_index(&mut rng) as u32;
            match kind {
                0..=49 => Op::Get(k),
                50..=89 => Op::Update(k),
                _ => Op::Scan(k, 1 + rng.next_below(100) as u32),
            }
        })
        .collect()
}

/// Where a stream of mixed ops is applied: the routed cluster or a single
/// store, with the same maintenance cadence.
trait Target {
    fn get(&self, key: &RowKey) -> Result<(Option<Bytes>, OpStats), String>;
    fn put(&mut self, key: RowKey, value: Bytes) -> Result<(), String>;
    fn scan(
        &self,
        start: &RowKey,
        limit: usize,
    ) -> Result<(Vec<hstore::types::RowCells>, OpStats), String>;
    fn maintenance(&mut self);
    /// Major-compacts the next region in turn.
    fn major_compact_next(&mut self);
}

struct Routed {
    cluster: FunctionalCluster,
    next_major: usize,
}

impl Target for Routed {
    fn get(&self, key: &RowKey) -> Result<(Option<Bytes>, OpStats), String> {
        self.cluster.get_with_stats(TABLE, &family(), key, &qualifier()).map_err(|e| e.to_string())
    }
    fn put(&mut self, key: RowKey, value: Bytes) -> Result<(), String> {
        self.cluster.put(TABLE, &family(), key, qualifier(), value).map_err(|e| e.to_string())
    }
    fn scan(
        &self,
        start: &RowKey,
        limit: usize,
    ) -> Result<(Vec<hstore::types::RowCells>, OpStats), String> {
        self.cluster.scan_with_stats(TABLE, &family(), start, limit).map_err(|e| e.to_string())
    }
    fn maintenance(&mut self) {
        self.cluster.maintenance();
    }
    fn major_compact_next(&mut self) {
        let regions = self.cluster.all_regions();
        let (rid, _) = regions[self.next_major % regions.len()];
        self.next_major += 1;
        self.cluster.major_compact_region(rid).expect("listed region exists");
    }
}

struct Single {
    store: CfStore,
    flush_bytes: u64,
    threshold: usize,
    majors_skipped: u64,
}

impl Target for Single {
    fn get(&self, key: &RowKey) -> Result<(Option<Bytes>, OpStats), String> {
        self.store.try_get(key, &qualifier()).map_err(|e| e.to_string())
    }
    fn put(&mut self, key: RowKey, value: Bytes) -> Result<(), String> {
        self.store.try_put(key, qualifier(), value).map(|_| ()).map_err(|e| e.to_string())
    }
    fn scan(
        &self,
        start: &RowKey,
        limit: usize,
    ) -> Result<(Vec<hstore::types::RowCells>, OpStats), String> {
        let range = hstore::KeyRange::new(Some(start.clone()), None);
        Ok(self.store.scan_range_with_stats(&range, limit))
    }
    fn maintenance(&mut self) {
        if self.store.memstore_bytes() as u64 >= self.flush_bytes {
            self.store.flush();
        }
        if self.store.file_count() >= self.threshold {
            self.store.compact_minor(self.threshold);
        }
    }
    /// The single store holds every region's rows, so it major-compacts
    /// once per round of the cluster's regions: the same bytes rewritten
    /// per write.
    fn major_compact_next(&mut self) {
        self.majors_skipped += 1;
        if self.majors_skipped == REGIONS {
            self.majors_skipped = 0;
            self.store.flush();
            self.store.compact_major();
        }
    }
}

/// What a window of mixed ops produced.
#[derive(Default)]
struct RwTally {
    get: Recorder,
    put: Recorder,
    scan: Recorder,
    maint: Recorder,
    ops: u64,
    failed: u64,
    gets: Blocks,
    scans: Blocks,
    elapsed: Duration,
}

/// The single client: its op stream, its position in it, and the model
/// of the version every record holds (one client, so the model is exact).
struct RwClient<'a> {
    keys: &'a Keys,
    ops: &'a [Op],
    at: usize,
    versions: Vec<u32>,
    writes: u64,
}

impl RwClient<'_> {
    /// Applies ops until `window` passes or `max_ops` have run.
    fn run(
        &mut self,
        target: &mut impl Target,
        window: Duration,
        max_ops: usize,
        traced: bool,
    ) -> RwTally {
        let per_type = capacity(window, max_ops, RW_OPS_PER_S / 2.0);
        let mut t = RwTally {
            get: Recorder::with_capacity(per_type),
            put: Recorder::with_capacity(per_type),
            scan: Recorder::with_capacity(per_type / 4),
            maint: Recorder::with_capacity(per_type / 16),
            ..RwTally::default()
        };
        let start = Instant::now();
        // `None` (an unbounded window) runs exactly `max_ops`.
        let deadline = start.checked_add(window);
        for _ in 0..max_ops {
            let op = self.ops[self.at];
            self.at = (self.at + 1) % self.ops.len();
            let t1 = match op {
                Op::Get(i) => {
                    let key = &self.keys.keys[i as usize];
                    let t0 = Instant::now();
                    let r = target.get(key);
                    let t1 = Instant::now();
                    t.get.record(t1 - t0);
                    match r {
                        Ok((Some(v), stats)) if value_ok(&v, i, self.versions[i as usize]) => {
                            if traced {
                                t.gets.add(stats, 0);
                            }
                        }
                        _ => t.failed += 1,
                    }
                    t1
                }
                Op::Update(i) => {
                    let version = self.versions[i as usize] + 1;
                    let v = value(i, version);
                    let key = self.keys.keys[i as usize].clone();
                    let t0 = Instant::now();
                    let r = target.put(key, v);
                    self.writes += 1;
                    if self.writes.is_multiple_of(MAINT_EVERY) {
                        let m0 = Instant::now();
                        target.maintenance();
                        if self.writes.is_multiple_of(MAJOR_EVERY) {
                            target.major_compact_next();
                        }
                        t.maint.record(m0.elapsed());
                    }
                    let t1 = Instant::now();
                    t.put.record(t1 - t0);
                    match r {
                        Ok(()) => self.versions[i as usize] = version,
                        Err(_) => t.failed += 1,
                    }
                    t1
                }
                Op::Scan(i, limit) => {
                    let key = &self.keys.keys[i as usize];
                    let t0 = Instant::now();
                    let r = target.scan(key, limit as usize);
                    let t1 = Instant::now();
                    t.scan.record(t1 - t0);
                    match r {
                        Ok((rows, stats)) if self.scan_ok(i, limit as usize, &rows) => {
                            if traced {
                                t.scans.add(stats, rows.len() as u64);
                            }
                        }
                        _ => t.failed += 1,
                    }
                    t1
                }
            };
            t.ops += 1;
            if deadline.is_some_and(|d| t1 >= d) {
                break;
            }
        }
        t.elapsed = start.elapsed();
        t
    }

    /// A scan from record `i`'s key returns the next `limit` keys in order
    /// (fewer only at the end of the table), each with its model value.
    fn scan_ok(&self, i: u32, limit: usize, rows: &[hstore::types::RowCells]) -> bool {
        let p = self.keys.pos[i as usize] as usize;
        let expect = limit.min(self.keys.len() - p);
        let q = qualifier();
        rows.len() == expect
            && rows.iter().enumerate().all(|(j, (row, cells))| {
                let r = self.keys.order[p + j];
                *row == self.keys.keys[r as usize]
                    && cells.len() == 1
                    && cells[0].0 == q
                    && value_ok(&cells[0].1, r, self.versions[r as usize])
            })
    }
}

fn absorb(total: &mut RwTally, t: RwTally) {
    total.get.merge(&t.get);
    total.put.merge(&t.put);
    total.scan.merge(&t.scan);
    total.maint.merge(&t.maint);
    total.ops += t.ops;
    total.failed += t.failed;
    total.gets.absorb(&t.gets);
    total.scans.absorb(&t.scans);
    total.elapsed += t.elapsed;
}

pub fn rw_uncached(args: &Args) -> Outcome {
    let shape = &RW_UNCACHED;
    let keys = Keys::new(args.seed, shape.rows);
    let ops = rw_stream(args.seed, shape.rows);
    let mut out = Outcome::default();
    let fresh = |keys| RwClient {
        keys,
        ops: &ops,
        at: 0,
        versions: vec![0; shape.rows as usize],
        writes: 0,
    };

    // Set-up: build, load, and warm up through several flush and
    // compaction cycles before timing.
    let setup = || {
        let t0 = Instant::now();
        let mut target = Routed { cluster: build(shape, &keys, args.seed), next_major: 0 };
        let mut client = fresh(&keys);
        let warm = client.run(&mut target, Duration::MAX, RW_WARMUP_OPS, false);
        (target, client, warm, t0.elapsed().as_secs_f64())
    };
    let cache = SERVERS as u64 * shape.config().block_cache_bytes();
    let logical = logical_bytes(&keys);
    out.detail("data_bytes", logical as f64, "B");
    out.detail("cache_bytes", cache as f64, "B");
    assert!(
        logical >= 2 * cache,
        "rw-uncached data ({logical} B) must be twice the cache ({cache} B)"
    );

    if !args.trace {
        // Several cluster instances, their measured windows interleaved:
        // each figure is a median over instances and over time.
        let mut setup_s = Vec::new();
        let mut instances = Vec::new();
        for _ in 0..SETUP_REPS {
            let (target, client, warm, secs) = setup();
            setup_s.push(secs);
            out.attempted += warm.ops;
            out.failed += warm.failed;
            instances.push((target, client));
        }
        let window = args.seconds / WINDOWS;
        let mut figures = Figures::new(capacity(window, usize::MAX, RW_OPS_PER_S));
        let mut maint_calls = 0;
        for w in 0..WINDOWS {
            let (target, client) = &mut instances[(w % SETUP_REPS) as usize];
            let t = client.run(target, window, usize::MAX, false);
            out.attempted += t.ops;
            out.failed += t.failed;
            maint_calls += t.maint.len();
            figures.add(
                t.ops,
                t.elapsed,
                &[("get", &[&t.get]), ("put", &[&t.put]), ("scan", &[&t.scan])],
            );
        }
        let space_amp: Vec<f64> = instances
            .iter()
            .map(|(target, _)| stored_bytes(&target.cluster) as f64 / logical as f64)
            .collect();
        figures.report(&mut out);
        out.metric("setup_s", crate::median(setup_s), "s");
        out.detail("space_amp", crate::median(space_amp), "ratio");
        out.detail("maint_calls", maint_calls as f64, "count");
        out.detail("failed_frac", ratio(out.failed as f64, out.attempted as f64), "ratio");
        return out;
    }

    let (mut target, mut client, warm, _) = setup();
    out.attempted += warm.ops;
    out.failed += warm.failed;

    let slice = args.seconds / (2 * TRACE_SLICES);
    let mut plain = RwTally::default();
    let mut traced = RwTally::default();
    let mut cache_delta = CacheStats::default();
    telemetry::span::clear();
    for _ in 0..TRACE_SLICES {
        absorb(&mut plain, client.run(&mut target, slice, usize::MAX, false));
        let before = cache_stats(&target.cluster);
        telemetry::span::set_enabled(true);
        let t = client.run(&mut target, slice, usize::MAX, true);
        telemetry::span::set_enabled(false);
        add_delta(&mut cache_delta, &before, &cache_stats(&target.cluster));
        absorb(&mut traced, t);
    }
    out.attempted += plain.ops + traced.ops;
    out.failed += plain.failed + traced.failed;
    let records = telemetry::span::drain();
    let mut layer = BTreeMap::new();
    let rate = |t: &RwTally| t.ops as f64 / t.elapsed.as_secs_f64();
    layer.insert("trace.overhead_frac".into(), rate(&plain) / rate(&traced) - 1.0);
    crate::add_span_self_ms(&mut layer, &records);
    insert_cache_layer(&mut layer, &cache_delta, &traced.gets, &traced.scans);

    let maint = traced.maint.sort();
    layer.insert("maint.calls".into(), maint.len() as f64);
    layer.insert("maint.busy_ms".into(), maint.total_ns() as f64 / 1e6);
    layer.insert("maint.call_p99_us".into(), pct_us(&maint, 0.99));
    layer.insert("maint.max_ms".into(), maint.max_ns() as f64 / 1e6);
    layer.insert("maint.stall_ms".into(), stall_ms(&target.cluster));
    let bytes = stored_bytes(&target.cluster);
    layer.insert("store.bytes".into(), bytes as f64);
    layer.insert("space_amp".into(), bytes as f64 / logical as f64);

    // The same rows, warm-up and op stream against one store.
    let mut single = Single {
        store: single_store(shape, &keys),
        flush_bytes: store_flush_bytes(shape),
        threshold: shape.config().compaction_threshold,
        majors_skipped: 0,
    };
    let mut replay = fresh(&keys);
    let warm = replay.run(&mut single, Duration::MAX, RW_WARMUP_OPS, false);
    let mut r = replay.run(&mut single, args.seconds / 4, usize::MAX, false);
    out.attempted += warm.ops + r.ops;
    out.failed += warm.failed + r.failed;
    let (get, put, scan) = (r.get.sort(), r.put.sort(), r.scan.sort());
    let store_get_p50 = get.percentile_ns(0.5).unwrap_or(0) as f64;
    layer.insert("store.get_ns_p50".into(), store_get_p50);
    layer.insert("store.get_ns_p99".into(), get.percentile_ns(0.99).unwrap_or(0) as f64);
    layer.insert("store.put_ns_p50".into(), put.percentile_ns(0.5).unwrap_or(0) as f64);
    layer.insert("store.scan_ns_p50".into(), scan.percentile_ns(0.5).unwrap_or(0) as f64);
    let routed_get_p50 = traced.get.sort().percentile_ns(0.5).unwrap_or(0) as f64;
    layer.insert("route.get_ns".into(), routed_get_p50 - store_get_p50);
    crate::emit_per_layer(&mut out, layer);
    out
}
