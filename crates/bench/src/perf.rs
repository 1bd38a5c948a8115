//! `exp-perf` — the repo's wall-clock performance trajectory.
//!
//! Every simulated operation in the figure experiments ultimately executes
//! real `hstore` work, so the storage engine is the hot loop of the whole
//! reproduction. This module measures two things with actual wall-clock
//! time (everything else in the harness is sim-clock):
//!
//! 1. **Single-store ops/sec** — YCSB-shaped point-get / scan / put mixes
//!    driven straight at one [`CfStore`], deterministic key sequences, a
//!    warmup pass, fixed op counts, and median-of-k repetition.
//! 2. **Full-cluster ticks/sec** — the fig4 cluster (six YCSB workloads on
//!    five RegionServers) stepped for a fixed tick count.
//! 3. **Threaded store ops/sec** — the point-get and scan mixes re-run
//!    with `MET_PERF_CLIENTS` concurrent [`StoreReader`] threads over one
//!    shared store, plus a contended mixed leg where readers ride through
//!    a continuously flushing writer. These records share bench names with
//!    the single-thread mixes and are distinguished by their `threads`
//!    field.
//! 4. **Writer-centric A/B legs** — the put-heavy mix and the contended
//!    mixed leg repeated with the background maintenance pipeline on
//!    (`-bg` suffix), repetitions interleaved with their inline twins so
//!    the speedup ratio is drift-free. The contended leg reports the
//!    writer's own ops/sec (`store-mixed-rw-writer[-bg]`) next to the
//!    reader aggregate, and the background legs carry the writer's
//!    backpressure stall time as a separate `stall_ms` field.
//!
//! The `exp-perf` binary appends the results to `BENCH_perf.json` at the
//! repo root (one record per `{bench, threads, commit}`), so successive PRs
//! extend a comparable trajectory instead of overwriting it.

use crate::scenario::FIG1_SERVERS;
use baselines::build_random_homogeneous;
use bytes::Bytes;
use hstore::{CfStore, FileIdAllocator, MaintenanceConfig, SharedBlockCache, StoreReader};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Default per-repetition operation count for the store mixes.
pub const DEFAULT_OPS: u64 = 200_000;
/// Default measured tick count for the cluster leg.
pub const DEFAULT_TICKS: u64 = 240;
/// Default warmup tick count before timing starts.
pub const DEFAULT_WARMUP_TICKS: u64 = 60;
/// Default repetition count (the median is reported).
pub const DEFAULT_REPS: usize = 5;
/// Default client thread count for the threaded store legs.
pub const DEFAULT_CLIENTS: usize = 4;

/// Records loaded into the benchmark store.
const STORE_RECORDS: u64 = 20_000;
/// A flush is forced every this many loaded records, so the store starts
/// with several immutable files plus a live memstore — the k-way merge is
/// exercised, not bypassed.
const STORE_FLUSH_EVERY: u64 = 4_000;
/// Value payload size (YCSB's 100-byte fields, one field per cell).
const VALUE_BYTES: usize = 100;
/// Rows fetched per scan op (YCSB workload E's average scan length).
const SCAN_ROWS: usize = 50;

/// One measured benchmark: either an ops/sec or a ticks/sec figure.
#[derive(Debug, Clone)]
pub struct PerfRecord {
    /// Benchmark name (`store-point-get`, `store-scan-heavy`,
    /// `store-put-heavy`, `cluster-fig4-ticks`).
    pub bench: String,
    /// Median operations per wall-clock second (store mixes).
    pub ops_per_sec: Option<f64>,
    /// Median simulation ticks per wall-clock second (cluster leg).
    pub ticks_per_sec: Option<f64>,
    /// Thread count the benchmark ran at (the cluster leg and the plain
    /// store mixes run on one thread).
    pub threads: usize,
    /// Median writer wall-clock milliseconds lost to maintenance
    /// backpressure per repetition. `Some` only on the background-pipeline
    /// legs — stall time is reported *next to* the throughput figure, never
    /// silently folded into it.
    pub stall_ms: Option<f64>,
}

/// Knobs for one harness invocation (all overridable from the binary via
/// `MET_PERF_*`; CI smoke runs shrink them).
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    /// Operations per repetition of each store mix.
    pub ops: u64,
    /// Measured ticks per repetition of the cluster leg.
    pub ticks: u64,
    /// Warmup ticks before the cluster timing starts.
    pub warmup_ticks: u64,
    /// Repetitions; the median is reported.
    pub reps: usize,
    /// Client thread count for the threaded store legs (`1` skips them).
    pub clients: usize,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            ops: DEFAULT_OPS,
            ticks: DEFAULT_TICKS,
            warmup_ticks: DEFAULT_WARMUP_TICKS,
            reps: DEFAULT_REPS,
            clients: DEFAULT_CLIENTS,
        }
    }
}

/// A deterministic multiplicative key sequence (no RNG dependency: the
/// benchmark must not perturb or depend on any simulation stream).
struct KeySeq(u64);

impl KeySeq {
    fn next_in(&mut self, n: u64) -> u64 {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

fn row(i: u64) -> hstore::RowKey {
    format!("user{i:08}").as_str().into()
}

fn value() -> Bytes {
    Bytes::from(vec![b'v'; VALUE_BYTES])
}

/// Builds the benchmark store: `STORE_RECORDS` rows across several flushed
/// files, a second version of every 16th row (shadowing), a tombstone on
/// every 64th row, and a live memstore tail — the shape a region has
/// mid-experiment.
pub fn loaded_store() -> CfStore {
    loaded_store_sharded(1)
}

/// [`loaded_store`] with the block cache split into `shards` LRU shards —
/// the threaded legs size shards with the client count so readers don't
/// serialize on one cache lock; the single-thread legs keep one shard
/// (byte-identical legacy eviction order).
pub fn loaded_store_sharded(shards: usize) -> CfStore {
    let cache = SharedBlockCache::new_sharded(8 << 20, shards);
    let mut s = CfStore::new(cache, FileIdAllocator::new(), 4 << 10);
    for i in 0..STORE_RECORDS {
        s.put(row(i), "f0".into(), value());
        if i % STORE_FLUSH_EVERY == STORE_FLUSH_EVERY - 1 {
            s.flush();
        }
    }
    for i in (0..STORE_RECORDS).step_by(16) {
        s.put(row(i), "f0".into(), value());
    }
    for i in (0..STORE_RECORDS).step_by(64) {
        s.delete(row(i), "f0".into());
    }
    s
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    xs[xs.len() / 2]
}

/// Times `ops` iterations of `op` against `store`, returning ops/sec.
fn time_ops(store: &mut CfStore, ops: u64, mut op: impl FnMut(&mut CfStore, &mut KeySeq)) -> f64 {
    let mut keys = KeySeq(0x9e37_79b9_7f4a_7c15);
    // Warmup: a quarter of the measured count, same key stream shape.
    for _ in 0..ops / 4 {
        op(store, &mut keys);
    }
    let t0 = Instant::now();
    for _ in 0..ops {
        op(store, &mut keys);
    }
    ops as f64 / t0.elapsed().as_secs_f64()
}

/// 100 % point reads over the loaded store (YCSB workload C shape).
pub fn bench_point_get(cfg: &PerfConfig) -> PerfRecord {
    let rates = (0..cfg.reps)
        .map(|_| {
            let mut s = loaded_store();
            time_ops(&mut s, cfg.ops, |s, k| {
                let i = k.next_in(STORE_RECORDS);
                std::hint::black_box(s.get(&row(i), &"f0".into()));
            })
        })
        .collect();
    PerfRecord {
        bench: "store-point-get".into(),
        ops_per_sec: Some(median(rates)),
        ticks_per_sec: None,
        threads: 1,
        stall_ms: None,
    }
}

/// 95 % scans of [`SCAN_ROWS`] rows, 5 % inserts (YCSB workload E shape) —
/// the merge-path stress test the acceptance gate measures.
pub fn bench_scan_heavy(cfg: &PerfConfig) -> PerfRecord {
    // Each scan touches SCAN_ROWS rows; scale the op count down so a rep
    // does comparable total work to the point-get mix.
    let ops = (cfg.ops / SCAN_ROWS as u64).max(1);
    let rates = (0..cfg.reps)
        .map(|_| {
            let mut s = loaded_store();
            time_ops(&mut s, ops, |s, k| {
                if k.next_in(20) == 0 {
                    let i = k.next_in(STORE_RECORDS);
                    s.put(row(i), "f0".into(), value());
                } else {
                    let i = k.next_in(STORE_RECORDS - SCAN_ROWS as u64 * 2);
                    std::hint::black_box(s.scan(&row(i), SCAN_ROWS).len());
                }
            })
        })
        .collect();
    PerfRecord {
        bench: "store-scan-heavy".into(),
        ops_per_sec: Some(median(rates)),
        ticks_per_sec: None,
        threads: 1,
        stall_ms: None,
    }
}

/// 50 % point reads / 50 % puts (YCSB workload A shape), flushing as the
/// memstore crosses the threshold a region would use.
///
/// `store-put-heavy` runs with no WAL attached — durability logging is
/// opt-in on [`CfStore`], and the figure experiments never enable it, so
/// this is the leg that tracks the storage engine's own trajectory. The
/// two `-wal-*` variants attach a WAL so the cost of durability itself is
/// a measured, separate number instead of a suspicion: `-wal-sync` syncs
/// every append (`group_commit_bytes: 0`), `-wal-group` defers syncs to
/// 64 KiB group commits.
pub fn bench_put_heavy(cfg: &PerfConfig) -> PerfRecord {
    bench_put_heavy_variant(cfg, "store-put-heavy", None)
}

/// Put-heavy mix with a sync-per-append WAL attached.
pub fn bench_put_heavy_wal_sync(cfg: &PerfConfig) -> PerfRecord {
    let wal = hstore::WalConfig { group_commit_bytes: 0, ..Default::default() };
    bench_put_heavy_variant(cfg, "store-put-heavy-wal-sync", Some(wal))
}

/// Put-heavy mix with a 64 KiB group-commit WAL attached.
pub fn bench_put_heavy_wal_group(cfg: &PerfConfig) -> PerfRecord {
    let wal = hstore::WalConfig { group_commit_bytes: 64 << 10, ..Default::default() };
    bench_put_heavy_variant(cfg, "store-put-heavy-wal-group", Some(wal))
}

/// One inline-maintenance put-heavy repetition: the writer itself flushes
/// every [`STORE_FLUSH_EVERY`] puts, paying the HFile build on the write
/// path — the baseline the background pipeline is measured against.
fn put_heavy_rep(cfg: &PerfConfig, wal: Option<hstore::WalConfig>) -> f64 {
    let mut s = loaded_store();
    if let Some(wal_cfg) = wal {
        s.enable_wal(wal_cfg);
    }
    let mut since_flush = 0u64;
    time_ops(&mut s, cfg.ops, |s, k| {
        let i = k.next_in(STORE_RECORDS);
        if k.next_in(2) == 0 {
            std::hint::black_box(s.get(&row(i), &"f0".into()));
        } else {
            s.put(row(i), "f0".into(), value());
            since_flush += 1;
            if since_flush >= STORE_FLUSH_EVERY {
                s.flush();
                since_flush = 0;
            }
        }
    })
}

/// Maintenance knobs for the background benchmark legs: the
/// `MET_FLUSH_*` / `MET_COMPACT_*` / `MET_STORE_*` environment knobs,
/// with two bench-specific defaults on top that make the A/B pair a
/// controlled experiment:
///
/// * Unless `MET_FLUSH_MEMSTORE_BYTES` overrides it, the freeze threshold
///   matches the inline legs' explicit flush cadence
///   ([`STORE_FLUSH_EVERY`] puts of exactly 138 accounted heap bytes
///   each: a 12-byte row key, 2-byte qualifier, 8-byte timestamp,
///   100-byte value, and 16 bytes of per-cell overhead — see
///   `CellVersion::heap_size`), so both sides produce HFiles at the
///   same rate and the memstores the writer inserts into stay the same
///   depth.
/// * Unless `MET_COMPACT_MIN_FILES` arms it, background *compaction* is
///   off — the inline twin never compacts, so leaving the compactors
///   running would compare "flushes" against "flushes plus a merge
///   workload", and on a small host the extra CPU reads as a bogus
///   writer regression. With both knobs at their defaults the pair does
///   identical total work and differs only in *where* the flush runs.
///   (Compaction correctness and its crash behaviour are exercised by
///   `hstore/tests/background.rs` and `exp-crash` under `MET_CRASH_BG`.)
///   While compaction is off the file-count walls come down too — they
///   exist to let the compactors catch up, and with no compactor the
///   debt never drains, turning them into a one-way stall the inline
///   twin doesn't have. `MET_STORE_THROTTLE_FILES` /
///   `MET_STORE_BLOCKING_FILES` still override.
///
/// The frozen-memstore wall stays armed either way — a writer that
/// outruns the background flusher is throttled for real, and the stall
/// time is reported next to the throughput figure.
fn bench_maintenance_cfg() -> MaintenanceConfig {
    let env = simcore::config::env_config();
    let mut cfg = MaintenanceConfig::from_env(env);
    if env.flush_memstore_bytes.is_none() {
        cfg.memstore_flush_bytes = STORE_FLUSH_EVERY as usize * 138;
    }
    if env.compact_min_files.is_none() {
        cfg.compact_min_files = usize::MAX;
        if env.store_throttle_files.is_none() {
            cfg.throttle_files = usize::MAX;
        }
        if env.store_blocking_files.is_none() {
            cfg.blocking_files = usize::MAX;
        }
    }
    cfg
}

/// One background-maintenance put-heavy repetition: the writer only
/// appends; freezes, HFile builds, and compactions run on the pipeline
/// threads. Returns `(ops/sec, stall ms accrued inside the timed window)`.
///
/// The warmup mirrors [`time_ops`] exactly — `ops / 4` iterations of the
/// same mix on the same key stream — so both sides of the A/B enter
/// their timed window with the same store shape (warmup puts grow the
/// file count identically on both legs while compaction is off).
fn put_heavy_rep_bg(cfg: &PerfConfig) -> (f64, f64) {
    let mut s = loaded_store();
    s.start_maintenance(bench_maintenance_cfg());
    let mut keys = KeySeq(0x9e37_79b9_7f4a_7c15);
    let op = |s: &mut CfStore, k: &mut KeySeq| {
        let i = k.next_in(STORE_RECORDS);
        if k.next_in(2) == 0 {
            std::hint::black_box(s.get(&row(i), &"f0".into()));
        } else {
            s.put(row(i), "f0".into(), value());
        }
    };
    for _ in 0..cfg.ops / 4 {
        op(&mut s, &mut keys);
    }
    let stall_before = s.maintenance_snapshot().map(|m| m.stall_ms_total()).unwrap_or_default();
    let t0 = Instant::now();
    for _ in 0..cfg.ops {
        op(&mut s, &mut keys);
    }
    let rate = cfg.ops as f64 / t0.elapsed().as_secs_f64();
    let stall =
        s.maintenance_snapshot().map(|m| m.stall_ms_total()).unwrap_or_default() - stall_before;
    (rate, stall as f64)
}

/// The put-heavy writer A/B pair: inline maintenance vs the background
/// pipeline, repetitions *interleaved* (inline rep, then background rep,
/// `cfg.reps` times) so host drift lands on both legs equally and the
/// writer-speedup ratio between the two medians reflects the engines, not
/// when they ran — the same pairing discipline as
/// [`bench_fig4_ticks_pair`].
pub fn bench_put_heavy_pair(cfg: &PerfConfig) -> (PerfRecord, PerfRecord) {
    let mut inline_rates = Vec::with_capacity(cfg.reps);
    let mut bg_rates = Vec::with_capacity(cfg.reps);
    let mut bg_stalls = Vec::with_capacity(cfg.reps);
    for _ in 0..cfg.reps {
        inline_rates.push(put_heavy_rep(cfg, None));
        let (rate, stall) = put_heavy_rep_bg(cfg);
        bg_rates.push(rate);
        bg_stalls.push(stall);
    }
    (
        PerfRecord {
            bench: "store-put-heavy".into(),
            ops_per_sec: Some(median(inline_rates)),
            ticks_per_sec: None,
            threads: 1,
            stall_ms: None,
        },
        PerfRecord {
            bench: "store-put-heavy-bg".into(),
            ops_per_sec: Some(median(bg_rates)),
            ticks_per_sec: None,
            threads: 1,
            stall_ms: Some(median(bg_stalls)),
        },
    )
}

fn bench_put_heavy_variant(
    cfg: &PerfConfig,
    bench: &str,
    wal: Option<hstore::WalConfig>,
) -> PerfRecord {
    let rates = (0..cfg.reps).map(|_| put_heavy_rep(cfg, wal)).collect();
    PerfRecord {
        bench: bench.into(),
        ops_per_sec: Some(median(rates)),
        ticks_per_sec: None,
        threads: 1,
        stall_ms: None,
    }
}

/// Times `ops` iterations of `op` on each of `clients` threads, every
/// thread driving its own [`StoreReader`] over the same shared store.
///
/// Each thread warms up independently (a quarter of the measured count),
/// then all rendezvous on a barrier; the measured window runs from the
/// barrier release to the *last* thread finishing, so the reported
/// aggregate rate includes any straggler effect rather than averaging it
/// away. Per-thread key sequences are seeded from the thread index so the
/// clients do not lockstep over identical keys.
fn time_ops_threaded(
    store: &CfStore,
    clients: usize,
    ops: u64,
    op: impl Fn(&StoreReader, &mut KeySeq) + Sync,
) -> f64 {
    let barrier = Barrier::new(clients + 1);
    let (op, barrier) = (&op, &barrier);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|idx| {
                let reader = store.reader();
                scope.spawn(move || {
                    let mut keys = KeySeq(
                        0x9e37_79b9_7f4a_7c15
                            ^ (idx as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f),
                    );
                    for _ in 0..ops / 4 {
                        op(&reader, &mut keys);
                    }
                    barrier.wait();
                    for _ in 0..ops {
                        op(&reader, &mut keys);
                    }
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for h in handles {
            h.join().expect("client thread panicked");
        }
        (clients as u64 * ops) as f64 / t0.elapsed().as_secs_f64()
    })
}

/// The point-get mix at `cfg.clients` concurrent reader threads over one
/// shared store — the record the concurrent-engine acceptance gate divides
/// by the single-thread `store-point-get` figure.
pub fn bench_point_get_threaded(cfg: &PerfConfig) -> PerfRecord {
    let rates = (0..cfg.reps)
        .map(|_| {
            let s = loaded_store_sharded(cfg.clients);
            time_ops_threaded(&s, cfg.clients, cfg.ops, |r, k| {
                let i = k.next_in(STORE_RECORDS);
                std::hint::black_box(r.get(&row(i), &"f0".into()));
            })
        })
        .collect();
    PerfRecord {
        bench: "store-point-get".into(),
        ops_per_sec: Some(median(rates)),
        ticks_per_sec: None,
        threads: cfg.clients,
        stall_ms: None,
    }
}

/// Scans of [`SCAN_ROWS`] rows from `cfg.clients` concurrent readers (the
/// insert fraction of the single-thread mix moves to the dedicated
/// writer-contended leg, [`bench_mixed_rw`] — readers cannot mutate).
pub fn bench_scan_heavy_threaded(cfg: &PerfConfig) -> PerfRecord {
    let ops = (cfg.ops / SCAN_ROWS as u64).max(1);
    let rates = (0..cfg.reps)
        .map(|_| {
            let s = loaded_store_sharded(cfg.clients);
            time_ops_threaded(&s, cfg.clients, ops, |r, k| {
                let i = k.next_in(STORE_RECORDS - SCAN_ROWS as u64 * 2);
                std::hint::black_box(r.scan(&row(i), SCAN_ROWS).len());
            })
        })
        .collect();
    PerfRecord {
        bench: "store-scan-heavy".into(),
        ops_per_sec: Some(median(rates)),
        ticks_per_sec: None,
        threads: cfg.clients,
        stall_ms: None,
    }
}

/// One contended repetition's raw rates: reader aggregate, writer, and the
/// writer's backpressure stall time inside the measured window.
struct MixedRwRep {
    readers_ops_per_sec: f64,
    writer_ops_per_sec: f64,
    stall_ms: f64,
}

/// One contended repetition: `cfg.clients - 1` reader threads point-get
/// for the measured op count while one writer thread puts continuously.
/// With `bg` false the writer flushes inline every [`STORE_FLUSH_EVERY`]
/// puts (the seed behaviour); with `bg` true the background pipeline
/// absorbs freezes and compactions and the writer only appends. Readers
/// and the writer warm up independently, rendezvous on one barrier, and
/// are timed separately — the writer reports its own ops/sec instead of
/// existing purely to create contention.
fn mixed_rw_rep(cfg: &PerfConfig, bg: bool) -> MixedRwRep {
    let readers = cfg.clients.saturating_sub(1).max(1);
    let mut s = loaded_store_sharded(cfg.clients);
    if bg {
        s.start_maintenance(bench_maintenance_cfg());
    }
    let stop = AtomicBool::new(false);
    // Parties: every reader, the writer, and the timing (main) thread.
    let barrier = Barrier::new(readers + 2);
    let (stop, barrier) = (&stop, &barrier);
    std::thread::scope(|scope| {
        let reader_handles: Vec<_> = (0..readers)
            .map(|idx| {
                let reader = s.reader();
                let ops = cfg.ops;
                scope.spawn(move || {
                    let mut keys = KeySeq(
                        0x9e37_79b9_7f4a_7c15
                            ^ (idx as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f),
                    );
                    for _ in 0..ops / 4 {
                        let i = keys.next_in(STORE_RECORDS);
                        std::hint::black_box(reader.get(&row(i), &"f0".into()));
                    }
                    barrier.wait();
                    for _ in 0..ops {
                        let i = keys.next_in(STORE_RECORDS);
                        std::hint::black_box(reader.get(&row(i), &"f0".into()));
                    }
                })
            })
            .collect();
        let writer_store = &mut s;
        let warmup = cfg.ops / 4;
        let writer = scope.spawn(move || {
            let mut keys = KeySeq(0x2545_f491_4f6c_dd1d);
            let mut since_flush = 0u64;
            let mut wop = |s: &mut CfStore, keys: &mut KeySeq| {
                let i = keys.next_in(STORE_RECORDS);
                s.put(row(i), "f0".into(), value());
                if !bg {
                    since_flush += 1;
                    if since_flush >= STORE_FLUSH_EVERY {
                        s.flush();
                        since_flush = 0;
                    }
                }
            };
            for _ in 0..warmup {
                wop(writer_store, &mut keys);
            }
            if bg {
                // Warmup outruns the flusher; entering the window with a
                // frozen-memstore backlog bills warmup debt to the measured
                // window and slows every reader get through the extra
                // frozen stores in the view. Start steady instead.
                writer_store.drain_maintenance();
            }
            let stall_before =
                writer_store.maintenance_snapshot().map(|m| m.stall_ms_total()).unwrap_or_default();
            barrier.wait();
            let t0 = Instant::now();
            let mut ops = 0u64;
            while !stop.load(Ordering::Relaxed) {
                wop(writer_store, &mut keys);
                ops += 1;
            }
            let rate = ops as f64 / t0.elapsed().as_secs_f64();
            let stall =
                writer_store.maintenance_snapshot().map(|m| m.stall_ms_total()).unwrap_or_default()
                    - stall_before;
            (rate, stall as f64)
        });
        barrier.wait();
        let t0 = Instant::now();
        for h in reader_handles {
            h.join().expect("reader thread panicked");
        }
        let elapsed = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let (writer_rate, stall_ms) = writer.join().expect("writer thread panicked");
        MixedRwRep {
            readers_ops_per_sec: (readers as u64 * cfg.ops) as f64 / elapsed,
            writer_ops_per_sec: writer_rate,
            stall_ms,
        }
    })
}

/// The contended A/B quad: the mixed read/write leg with inline and with
/// background maintenance, repetitions interleaved (see
/// [`bench_put_heavy_pair`] for why). Four records: reader aggregate and
/// writer ops/sec for each side — `store-mixed-rw`,
/// `store-mixed-rw-writer`, `store-mixed-rw-bg`,
/// `store-mixed-rw-writer-bg`.
pub fn bench_mixed_rw_pair(cfg: &PerfConfig) -> Vec<PerfRecord> {
    let mut inline_readers = Vec::with_capacity(cfg.reps);
    let mut inline_writer = Vec::with_capacity(cfg.reps);
    let mut bg_readers = Vec::with_capacity(cfg.reps);
    let mut bg_writer = Vec::with_capacity(cfg.reps);
    let mut bg_stalls = Vec::with_capacity(cfg.reps);
    for _ in 0..cfg.reps {
        let a = mixed_rw_rep(cfg, false);
        inline_readers.push(a.readers_ops_per_sec);
        inline_writer.push(a.writer_ops_per_sec);
        let b = mixed_rw_rep(cfg, true);
        bg_readers.push(b.readers_ops_per_sec);
        bg_writer.push(b.writer_ops_per_sec);
        bg_stalls.push(b.stall_ms);
    }
    let rec = |bench: &str, rates: Vec<f64>, stall: Option<f64>| PerfRecord {
        bench: bench.into(),
        ops_per_sec: Some(median(rates)),
        ticks_per_sec: None,
        threads: cfg.clients,
        stall_ms: stall,
    };
    let bg_stall = Some(median(bg_stalls));
    vec![
        rec("store-mixed-rw", inline_readers, None),
        rec("store-mixed-rw-writer", inline_writer, None),
        rec("store-mixed-rw-bg", bg_readers, None),
        rec("store-mixed-rw-writer-bg", bg_writer, bg_stall),
    ]
}

/// One timed repetition of the fig4 cluster: rebuild the scenario from the
/// same seed (so every rep times the identical tick window; warmup covers
/// the client ramp), step, return ticks/sec.
fn fig4_rep(cfg: &PerfConfig) -> f64 {
    let mut scenario = crate::scenario::ycsb_scenario(1_000);
    build_random_homogeneous(&mut scenario.sim, FIG1_SERVERS);
    scenario.start_clients();
    for _ in 0..cfg.warmup_ticks {
        scenario.sim.step();
    }
    let t0 = Instant::now();
    for _ in 0..cfg.ticks {
        scenario.sim.step();
    }
    cfg.ticks as f64 / t0.elapsed().as_secs_f64()
}

/// Median wall-clock ticks/sec of the fig4 cluster.
pub fn bench_fig4_ticks(cfg: &PerfConfig) -> PerfRecord {
    let rates = (0..cfg.reps).map(|_| fig4_rep(cfg)).collect();
    PerfRecord {
        bench: "cluster-fig4-ticks".into(),
        ops_per_sec: None,
        ticks_per_sec: Some(median(rates)),
        threads: 1,
        stall_ms: None,
    }
}

/// Runs the whole suite: the cluster leg, then the store mixes (including
/// the WAL-attached put-heavy variants).
///
/// The cluster leg goes first deliberately: minutes of store-mix
/// hammering measurably degrades a small host before it would otherwise
/// run.
pub fn run_suite(cfg: &PerfConfig) -> Vec<PerfRecord> {
    let mut out = vec![bench_fig4_ticks(cfg)];
    out.extend([bench_point_get(cfg), bench_scan_heavy(cfg)]);
    let (put_inline, put_bg) = bench_put_heavy_pair(cfg);
    out.push(put_inline);
    out.push(put_bg);
    out.extend([bench_put_heavy_wal_sync(cfg), bench_put_heavy_wal_group(cfg)]);
    if cfg.clients > 1 {
        out.extend([bench_point_get_threaded(cfg), bench_scan_heavy_threaded(cfg)]);
        out.extend(bench_mixed_rw_pair(cfg));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> PerfConfig {
        PerfConfig { ops: 2_000, ticks: 5, warmup_ticks: 2, reps: 1, clients: 2 }
    }

    #[test]
    fn store_mixes_produce_positive_rates() {
        let cfg = smoke_cfg();
        for rec in [
            bench_point_get(&cfg),
            bench_scan_heavy(&cfg),
            bench_put_heavy(&cfg),
            bench_put_heavy_wal_sync(&cfg),
            bench_put_heavy_wal_group(&cfg),
        ] {
            let rate = rec.ops_per_sec.expect("store mixes report ops/sec");
            assert!(rate > 0.0 && rate.is_finite(), "{}: rate {rate}", rec.bench);
            assert!(rec.ticks_per_sec.is_none());
            assert_eq!(rec.threads, 1);
        }
    }

    #[test]
    fn threaded_legs_report_positive_rates_at_client_count() {
        let cfg = smoke_cfg();
        for rec in [bench_point_get_threaded(&cfg), bench_scan_heavy_threaded(&cfg)] {
            let rate = rec.ops_per_sec.expect("threaded legs report ops/sec");
            assert!(rate > 0.0 && rate.is_finite(), "{}: rate {rate}", rec.bench);
            assert!(rec.ticks_per_sec.is_none());
            assert_eq!(rec.threads, cfg.clients, "{}", rec.bench);
        }
    }

    #[test]
    fn put_heavy_pair_reports_both_sides_with_stall_on_bg() {
        let cfg = smoke_cfg();
        let (inline, bg) = bench_put_heavy_pair(&cfg);
        assert_eq!(inline.bench, "store-put-heavy");
        assert_eq!(bg.bench, "store-put-heavy-bg");
        for rec in [&inline, &bg] {
            let rate = rec.ops_per_sec.expect("put-heavy legs report ops/sec");
            assert!(rate > 0.0 && rate.is_finite(), "{}: rate {rate}", rec.bench);
            assert_eq!(rec.threads, 1);
        }
        assert!(inline.stall_ms.is_none(), "inline leg has no pipeline to stall on");
        let stall = bg.stall_ms.expect("background leg reports stall time");
        assert!(stall >= 0.0 && stall.is_finite());
    }

    #[test]
    fn mixed_rw_pair_reports_reader_and_writer_records_for_both_sides() {
        let cfg = smoke_cfg();
        let recs = bench_mixed_rw_pair(&cfg);
        let names: Vec<&str> = recs.iter().map(|r| r.bench.as_str()).collect();
        assert_eq!(
            names,
            [
                "store-mixed-rw",
                "store-mixed-rw-writer",
                "store-mixed-rw-bg",
                "store-mixed-rw-writer-bg"
            ]
        );
        for rec in &recs {
            let rate = rec.ops_per_sec.expect("contended legs report ops/sec");
            assert!(rate > 0.0 && rate.is_finite(), "{}: rate {rate}", rec.bench);
            assert_eq!(rec.threads, cfg.clients, "{}", rec.bench);
        }
        assert!(
            recs.iter().all(|r| (r.bench == "store-mixed-rw-writer-bg") == r.stall_ms.is_some()),
            "only the background writer record carries stall time"
        );
    }

    #[test]
    fn suite_includes_threaded_legs_when_clients_exceed_one() {
        let cfg = PerfConfig { ops: 500, ticks: 2, warmup_ticks: 1, ..smoke_cfg() };
        let recs = run_suite(&cfg);
        assert_eq!(
            recs.iter().filter(|r| r.bench == "cluster-fig4-ticks").count(),
            1,
            "one cluster record"
        );
        assert!(
            recs.iter().any(|r| r.bench == "store-point-get" && r.threads == cfg.clients),
            "threaded point-get record missing"
        );
        assert!(
            recs.iter().any(|r| r.bench == "store-mixed-rw" && r.threads == cfg.clients),
            "mixed read/write record missing"
        );
        assert!(
            recs.iter().any(|r| r.bench == "store-put-heavy-bg" && r.threads == 1),
            "background put-heavy record missing"
        );
        assert!(
            recs.iter().any(|r| r.bench == "store-mixed-rw-writer-bg" && r.threads == cfg.clients),
            "background mixed writer record missing"
        );
        let solo = PerfConfig { clients: 1, ..cfg };
        assert!(
            run_suite(&solo).iter().all(|r| r.bench != "store-mixed-rw"),
            "clients=1 must skip the threaded legs"
        );
    }

    #[test]
    fn cluster_leg_reports_ticks_per_sec() {
        let cfg = smoke_cfg();
        let rec = bench_fig4_ticks(&cfg);
        let rate = rec.ticks_per_sec.expect("cluster leg reports ticks/sec");
        assert!(rate > 0.0 && rate.is_finite());
        assert!(rec.ops_per_sec.is_none());
    }

    #[test]
    fn loaded_store_has_files_and_memstore() {
        let s = loaded_store();
        assert!(s.file_count() >= 4, "merge must span several files");
        assert!(s.memstore_bytes() > 0, "memstore tail must be live");
    }
}
