//! Property tests for WAL crash recovery: under randomized put/delete/flush
//! schedules the store is killed at every record boundary — and, separately,
//! mid-record via a flipped byte in the replayable tail — and the recovered
//! store must always scan equal to a sort-and-dedup reference model of a
//! durable prefix of the acknowledged operations.

use bytes::Bytes;
use hstore::{CfStore, FileIdAllocator, KeyRange, Qualifier, RowKey, SharedBlockCache, WalConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

const ROWS: usize = 10;
const QUALS: usize = 3;

fn row(i: usize) -> RowKey {
    RowKey::from(format!("row{i:02}"))
}

fn qual(i: usize) -> Qualifier {
    Qualifier::from(format!("q{i}").as_str())
}

/// One randomized operation against the store.
#[derive(Debug, Clone)]
enum Op {
    Put(usize, usize, u8),
    Delete(usize, usize),
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest has no weighted arms; duplicates skew the mix
    // toward puts so deletes usually land on live rows.
    prop_oneof![
        (0..ROWS, 0..QUALS, any::<u8>()).prop_map(|(r, q, v)| Op::Put(r, q, v)),
        (0..ROWS, 0..QUALS, any::<u8>()).prop_map(|(r, q, v)| Op::Put(r, q, v)),
        (0..ROWS, 0..QUALS, any::<u8>()).prop_map(|(r, q, v)| Op::Put(r, q, v)),
        (0..ROWS, 0..QUALS).prop_map(|(r, q)| Op::Delete(r, q)),
        (0..ROWS, 0..QUALS).prop_map(|(r, q)| Op::Delete(r, q)),
        Just(Op::Flush),
    ]
}

fn wal_store() -> CfStore {
    let mut s = CfStore::new(SharedBlockCache::new(1 << 18), FileIdAllocator::new(), 256);
    s.enable_wal(WalConfig::default());
    s
}

/// The visible contents of the store after a set of ops: newest version per
/// coordinate, tombstones hide.
type Model = BTreeMap<(RowKey, Qualifier), Bytes>;

fn apply(store: &mut CfStore, model: &mut Model, op: &Op) {
    match op {
        Op::Put(r, q, v) => {
            let value = Bytes::copy_from_slice(&[*v; 3]);
            store.put(row(*r), qual(*q), value.clone());
            model.insert((row(*r), qual(*q)), value);
        }
        Op::Delete(r, q) => {
            store.try_delete(row(*r), qual(*q)).expect("WAL append failed");
            model.remove(&(row(*r), qual(*q)));
        }
        Op::Flush => {
            store.flush();
        }
    }
}

/// The comparable shape of a scan: rows with their live cells.
type Scan = Vec<(RowKey, Vec<(Qualifier, Bytes)>)>;

fn rendered(model: &Model) -> Scan {
    let mut rows: BTreeMap<RowKey, Vec<(Qualifier, Bytes)>> = BTreeMap::new();
    for ((r, q), v) in model {
        rows.entry(r.clone()).or_default().push((q.clone(), v.clone()));
    }
    rows.into_iter().collect()
}

fn recover(store: CfStore) -> (CfStore, hstore::RecoveryReport) {
    CfStore::recover(store.crash(), SharedBlockCache::new(1 << 18), FileIdAllocator::new())
        .expect("recovery of an undamaged store must succeed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash at every record boundary: for every prefix of the schedule,
    /// kill the store and recover — with sync-per-append durability the
    /// recovered store must equal the model of exactly that prefix.
    #[test]
    fn crash_at_every_boundary_recovers_the_acknowledged_prefix(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        for k in 0..=ops.len() {
            let mut store = wal_store();
            let mut model = Model::new();
            for op in &ops[..k] {
                apply(&mut store, &mut model, op);
            }
            let (recovered, _) = recover(store);
            prop_assert_eq!(
                recovered.scan_range(&KeyRange::all(), usize::MAX),
                rendered(&model),
                "crash after op {} of {:?}", k, ops
            );
        }
    }

    /// Crash mid-record: flip one byte somewhere in the replayable WAL
    /// tail. Replay must truncate from the damaged frame — never panic,
    /// never invent data — leaving the store at some *prefix-consistent*
    /// state: flushed data plus the first m acknowledged appends since the
    /// last flush, for some m.
    #[test]
    fn mid_record_damage_truncates_to_a_consistent_prefix(
        ops in prop::collection::vec(op_strategy(), 1..40),
        damage in any::<u64>(),
    ) {
        let mut store = wal_store();
        let mut model = Model::new();
        // Model snapshots that are legal recovery outcomes: everything up
        // to the last flush is in files (damage cannot touch it), so any
        // append-boundary state at or after the last flush qualifies.
        let mut valid: Vec<Scan> = vec![rendered(&model)];
        for op in &ops {
            apply(&mut store, &mut model, op);
            if matches!(op, Op::Flush) {
                // The WAL was truncated; earlier boundaries are no longer
                // reachable by tail damage.
                valid.clear();
            }
            valid.push(rendered(&model));
        }

        let wal_bytes = store.wal().map(|w| w.durable_bytes()).unwrap_or(0);
        if wal_bytes == 0 {
            // Nothing in the tail to damage; recovery is the exact state.
            let (recovered, _) = recover(store);
            prop_assert_eq!(
                recovered.scan_range(&KeyRange::all(), usize::MAX),
                rendered(&model)
            );
            return Ok(());
        }

        let mut state = store.crash();
        // Flushes truncate sealed segments, so post-crash the replayable
        // log is the single active segment: index 0.
        state.corrupt_wal_byte(0, damage % wal_bytes);
        let (recovered, report) =
            CfStore::recover(state, SharedBlockCache::new(1 << 18), FileIdAllocator::new())
                .expect("tail damage must truncate, not fail recovery");
        prop_assert!(
            report.torn_tail.is_some(),
            "a flipped tail byte must be detected as a torn tail"
        );
        let got = recovered.scan_range(&KeyRange::all(), usize::MAX);
        prop_assert!(
            valid.contains(&got),
            "recovered state is not any append-boundary prefix: {:?} (ops {:?})", got, ops
        );
    }

    /// A torn final write never loses acknowledged data, and the recovered
    /// store stays writable.
    #[test]
    fn torn_final_write_preserves_every_acknowledged_op(
        ops in prop::collection::vec(op_strategy(), 1..30),
        torn in 0u64..64,
    ) {
        let mut store = wal_store();
        let mut model = Model::new();
        for op in &ops {
            apply(&mut store, &mut model, op);
        }
        store.wal_mut().expect("wal enabled").arm_torn_write(torn);
        let r = store.try_put(row(0), qual(0), Bytes::from_static(b"torn-victim"));
        prop_assert!(r.is_err(), "a torn write must not be acknowledged");

        let (mut recovered, _) = recover(store);
        // Every acknowledged coordinate reads back exactly — except the
        // victim's own coordinate, which a wide-enough tear may have made
        // durable despite the error.
        for ((r, q), want) in &model {
            if (r.clone(), q.clone()) == (row(0), qual(0)) {
                continue;
            }
            prop_assert_eq!(
                recovered.get(r, q).as_ref(),
                Some(want),
                "acknowledged op at ({:?}, {:?}) lost", r, q
            );
        }
        let victim = recovered.get(&row(0), &qual(0));
        let acked = model.get(&(row(0), qual(0)));
        prop_assert!(
            victim.as_ref() == acked || victim.as_deref() == Some(b"torn-victim".as_ref()),
            "victim coordinate holds neither the acknowledged nor the torn value: {:?}", victim
        );

        // The reopened store is live.
        recovered.put(row(1), qual(1), Bytes::from_static(b"post"));
        prop_assert_eq!(
            recovered.get(&row(1), &qual(1)).as_deref(),
            Some(b"post".as_ref())
        );
    }
}
