//! Concurrency tests for the shared-reader engine: readers running on
//! [`StoreReader`] handles must never observe torn or unacked state while
//! a writer thread mutates, flushes, compacts and rotates the WAL
//! underneath them, and concurrent readers on one shared block cache must
//! leave its statistics exactly equal to the work their ops report.

use bytes::Bytes;
use hstore::store::{CfStore, FileIdAllocator, StoreReader};
use hstore::types::{KeyRange, Qualifier, RowKey};
use hstore::{OpStats, SharedBlockCache, WalConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

fn store() -> CfStore {
    CfStore::new(SharedBlockCache::new(4 << 20), FileIdAllocator::new(), 1 << 10)
}

fn row(i: u64) -> RowKey {
    RowKey::from(format!("key{i:06}"))
}

fn qual() -> Qualifier {
    Qualifier::from("q")
}

fn val(i: u64) -> Bytes {
    Bytes::from(format!("value-{i:06}"))
}

/// The newest live value of key `i` through a reader handle.
fn read(reader: &StoreReader, i: u64) -> Option<Bytes> {
    reader.try_get(&row(i), &qual()).expect("no corruption injected").0
}

/// Keys at this stride are deleted immediately after being written, before
/// the watermark publishes them — so a reader that sees the key acked must
/// see the tombstone, never the shadowed value.
const DELETE_STRIDE: u64 = 32;
const DELETE_PHASE: u64 = 7;

fn is_deleted(i: u64) -> bool {
    i % DELETE_STRIDE == DELETE_PHASE
}

/// The stress test the issue's acceptance gate names: one writer thread
/// appends keys (with periodic flushes, minor compactions, and — via the
/// attached WAL — log rotations) and publishes an acked watermark with
/// `Release` after each key's operations complete; reader threads sample
/// keys at or below the watermark and assert the exact committed value
/// (or tombstone), plus windowed scans that must contain *every* acked
/// key in the window. Any torn read, lost ack, or scan hole fails.
#[test]
fn readers_see_prefix_consistent_state_during_flush_and_compaction() {
    const KEYS: u64 = 6_000;
    const READERS: usize = 4;
    const SCAN_WINDOW: u64 = 24;

    let mut s = store();
    s.enable_wal(WalConfig::default());
    let watermark = AtomicU64::new(0); // 0 = nothing acked; key i acks as i+1
    let done = AtomicBool::new(false);
    let (watermark, done) = (&watermark, &done);

    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|idx| {
                let reader = s.reader();
                scope.spawn(move || {
                    let mut sampled = 0u64;
                    let mut x = 0x9e37_79b9u64.wrapping_add(idx as u64);
                    while !done.load(Ordering::Relaxed) || sampled < 1_000 {
                        let acked = watermark.load(Ordering::Acquire);
                        if acked == 0 {
                            std::hint::spin_loop();
                            continue;
                        }
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        let i = (x >> 33) % acked;
                        let got = read(&reader, i);
                        if is_deleted(i) {
                            assert_eq!(got, None, "key {i} acked deleted, read a value back");
                        } else {
                            assert_eq!(got, Some(val(i)), "torn/lost read of acked key {i}");
                        }
                        // Windowed scan: every acked, live key in the
                        // window must be present with its exact value.
                        if sampled.is_multiple_of(64) && acked > SCAN_WINDOW {
                            let lo = (x >> 17) % (acked - SCAN_WINDOW);
                            let range = KeyRange::new(Some(row(lo)), Some(row(lo + SCAN_WINDOW)));
                            let (rows, _) = reader.scan_range_with_stats(&range, usize::MAX);
                            let seen: BTreeMap<RowKey, Bytes> = rows
                                .into_iter()
                                .map(|(r, mut cells)| {
                                    assert_eq!(cells.len(), 1, "one qualifier per row");
                                    (r, cells.pop().expect("cell").1)
                                })
                                .collect();
                            for i in lo..lo + SCAN_WINDOW {
                                if is_deleted(i) {
                                    assert!(
                                        !seen.contains_key(&row(i)),
                                        "deleted key {i} resurfaced in scan"
                                    );
                                } else {
                                    assert_eq!(
                                        seen.get(&row(i)),
                                        Some(&val(i)),
                                        "acked key {i} missing or wrong in scan [{lo}, {})",
                                        lo + SCAN_WINDOW
                                    );
                                }
                            }
                        }
                        sampled += 1;
                    }
                    sampled
                })
            })
            .collect();

        for i in 0..KEYS {
            s.put(row(i), qual(), val(i));
            if is_deleted(i) {
                s.try_delete(row(i), qual()).expect("WAL append");
            }
            watermark.store(i + 1, Ordering::Release);
            if i % 500 == 499 {
                s.flush(); // rotates + truncates the WAL underneath readers
            }
            if i % 2_000 == 1_999 {
                s.compact_minor(3);
            }
        }
        s.flush();
        s.compact_major();
        done.store(true, Ordering::Relaxed);

        for h in readers {
            let sampled = h.join().expect("reader thread panicked");
            assert!(sampled >= 1_000, "reader exited after only {sampled} samples");
        }
    });
    assert!(s.file_count() >= 1, "writer flushed and compacted");
}

/// One randomized operation the proptest writer applies.
#[derive(Debug, Clone)]
enum Op {
    Put(u64, u8),
    Delete(u64),
    Flush,
    CompactMinor,
    CompactMajor,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Put-leaning mix (weights via repeated arms; this proptest's
    // `prop_oneof!` lacks the `weight =>` form).
    prop_oneof![
        (0u64..16, any::<u8>()).prop_map(|(r, v)| Op::Put(r, v)),
        (0u64..16, any::<u8>()).prop_map(|(r, v)| Op::Put(r, v)),
        (0u64..16, any::<u8>()).prop_map(|(r, v)| Op::Put(r, v)),
        (0u64..16).prop_map(Op::Delete),
        Just(Op::Flush),
        Just(Op::CompactMinor),
        Just(Op::CompactMajor),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under any randomized interleaving of puts, deletes, flushes and
    /// compactions applied by a writer thread, every value a concurrent
    /// reader observes for a coordinate must be a state that coordinate
    /// actually passed through (the initial absence, any committed value,
    /// or a tombstone) — i.e. no torn reads, no values from the future,
    /// no mixtures of two versions. Observations are collected during the
    /// run and validated against the per-key state history after joining.
    #[test]
    fn concurrent_reader_observations_are_states_the_store_passed_through(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let mut s = store();
        s.enable_wal(WalConfig::default());
        // Per-key set of every visible state the key ever held. Puts and
        // deletes append to it as they commit; readers may lag but can
        // never see anything outside it.
        let mut valid: Vec<BTreeSet<Option<Bytes>>> =
            (0..16).map(|_| BTreeSet::from([None])).collect();
        let done = AtomicBool::new(false);
        let done = &done;

        let observations = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2usize)
                .map(|idx| {
                    let reader = s.reader();
                    scope.spawn(move || {
                        let mut obs: Vec<(u64, Option<Bytes>)> = Vec::new();
                        let mut x = 0xdead_beefu64.wrapping_add(idx as u64);
                        while !done.load(Ordering::Relaxed) {
                            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                            let i = (x >> 33) % 16;
                            obs.push((i, read(&reader, i)));
                        }
                        obs
                    })
                })
                .collect();

            for op in &ops {
                match op {
                    Op::Put(r, v) => {
                        let value = Bytes::copy_from_slice(&[*v; 4]);
                        s.put(row(*r), qual(), value.clone());
                        valid[*r as usize].insert(Some(value));
                    }
                    Op::Delete(r) => {
                        s.try_delete(row(*r), qual()).expect("WAL append");
                        valid[*r as usize].insert(None);
                    }
                    Op::Flush => {
                        s.flush();
                    }
                    Op::CompactMinor => {
                        s.compact_minor(2);
                    }
                    Op::CompactMajor => {
                        s.compact_major();
                    }
                }
            }
            done.store(true, Ordering::Relaxed);
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reader thread panicked"))
                .collect::<Vec<_>>()
        });

        for (key, seen) in observations {
            prop_assert!(
                valid[key as usize].contains(&seen),
                "reader saw {seen:?} for key {key}, a state it never held \
                 (valid: {:?})",
                valid[key as usize]
            );
        }
    }
}

/// Reader threads doing point gets over flushed files of two stores that
/// share one block cache, under eviction pressure: every touch goes
/// through the cache's one mutex, so the per-op work the readers report
/// must add up to the cache's own statistics exactly — hits to hits,
/// misses to misses — and the byte budget must hold throughout.
#[test]
fn concurrent_readers_on_a_shared_cache_account_every_block() {
    const KEYS: u64 = 2_000;
    const READERS: usize = 3;
    const GETS: u64 = 4_000;

    // 64 KiB of 1 KiB blocks: far less than the two stores' files, so
    // readers evict each other's blocks while they run.
    let cache = SharedBlockCache::new(64 << 10);
    let ids = FileIdAllocator::new();
    let mut stores: Vec<CfStore> =
        (0..2).map(|_| CfStore::new(cache.clone(), ids.clone(), 1 << 10)).collect();
    for s in &mut stores {
        for i in 0..KEYS {
            s.put(row(i), qual(), val(i));
            if i % 500 == 499 {
                s.flush();
            }
        }
        assert_eq!(s.file_count(), 4, "every key lives in a flushed file");
    }
    assert_eq!(cache.stats().accesses(), 0, "building the stores reads no block");

    let start = Barrier::new(READERS);
    let per_reader: Vec<OpStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|idx| {
                let reader = stores[idx % stores.len()].reader();
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    let mut total = OpStats::default();
                    let mut x = 0x2545_f491u64.wrapping_add(idx as u64);
                    start.wait();
                    for _ in 0..GETS {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        let i = (x >> 33) % KEYS;
                        let (got, stats) =
                            reader.try_get(&row(i), &qual()).expect("no corruption injected");
                        assert_eq!(got, Some(val(i)), "key {i} read wrong");
                        assert!(!stats.memstore, "every key was flushed");
                        total.absorb(stats);
                        assert!(cache.used_bytes() <= cache.capacity_bytes());
                    }
                    total
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reader thread panicked")).collect()
    });

    let stats = cache.stats();
    let hits: u64 = per_reader.iter().map(|s| s.cache_hits).sum();
    let misses: u64 = per_reader.iter().map(|s| s.blocks_read).sum();
    let touched: u64 = per_reader.iter().map(OpStats::blocks_touched).sum();
    assert!(touched >= READERS as u64 * GETS, "each get touched at least one block");
    assert_eq!(touched, stats.accesses(), "per-op blocks must partition the cache's accesses");
    assert_eq!((hits, misses), (stats.hits, stats.misses), "hits and misses attributed exactly");
    assert!(stats.evictions > 0, "the working set must overflow the cache");
    assert!(cache.used_bytes() <= cache.capacity_bytes());
}
