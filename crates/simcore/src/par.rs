//! Run-level parallelism: independent simulations fanned out over threads.
//!
//! A simulation tick is single-threaded and deterministic. What the
//! experiments have plenty of is *independent runs* (seeds × strategies,
//! placement candidates, sweep points), and those are the unit of
//! concurrency:
//!
//! * [`met_threads`] — how many workers to fan independent runs out over,
//!   from the `MET_THREADS` environment variable (default: available
//!   parallelism).
//! * [`map`] — an order-preserving map over [`std::thread::scope`]. Results
//!   come back in input order whatever the worker count, so a report built
//!   from them is byte-identical to a sequential run by construction.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Workers for independent runs.
///
/// Delegates to the typed environment config ([`crate::config::env_config`],
/// which parses `MET_THREADS` once: a positive integer; unset, empty, or
/// unparsable values fall back to the machine's available parallelism).
pub fn met_threads() -> usize {
    crate::config::env_config().threads
}

/// Maps `items` through `f` on up to `workers` threads, returning results
/// in input order.
///
/// Workers claim items one at a time through an atomic index, so uneven
/// item costs balance themselves instead of leaving a worker idle behind a
/// static chunk. With `workers <= 1` or at most one item everything runs
/// on the calling thread. A panic in `f` is re-raised on the caller once
/// every worker has stopped.
pub fn map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(items.len()))
            .map(|_| {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let r = f(item);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                })
            })
            .collect();
        // Join explicitly so the worker's own payload reaches the caller
        // (the scope's implicit join would replace it with a generic one).
        for h in handles {
            if let Err(payload) = h.join() {
                // Stop the others at their next claim before unwinding.
                next.store(items.len(), Ordering::Relaxed);
                resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned").expect("every item was mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn map_keeps_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..200).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1, 2, 8] {
            assert_eq!(map(workers, &items, |x| x * 3 + 1), expect, "workers={workers}");
        }
        // More workers than items.
        let few = [5u64, 6, 7];
        assert_eq!(map(8, &few, |x| x * 2), vec![10, 12, 14]);
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(8, &empty, |x| *x).is_empty());
        assert_eq!(map(8, &[41u32], |x| x + 1), vec![42]);
    }

    #[test]
    fn worker_panic_reaches_the_caller() {
        let items: Vec<u32> = (0..100).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            map(4, &items, |x| {
                if *x == 63 {
                    panic!("boom on 63");
                }
                *x
            })
        }));
        let payload = result.expect_err("a worker panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom on 63"));
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        let items: Vec<u32> = (0..10).collect();
        let ids = map(1, &items, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == me));
    }

    #[test]
    fn met_threads_is_at_least_one() {
        assert!(met_threads() >= 1);
    }
}
