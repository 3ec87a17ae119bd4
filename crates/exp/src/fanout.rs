//! **Deprecated** legacy scenario fan-out: a throwaway `thread::scope`
//! executor kept only as the benchmark baseline for the persistent
//! work-stealing pool that replaced it.
//!
//! The campaign and µ-sweep harnesses now run on
//! [`mcsched_runtime::run_indexed`] — same deterministic-index-order
//! contract, but with persistent parked workers, per-worker deques with
//! stealing, and nested fan-outs. This module preserves the exact
//! pre-runtime implementation (fresh `std::thread::scope` per call, one
//! global result mutex, no nesting) so `mcsched-bench runtime` can measure the
//! replacement against it; it will be removed once that trajectory is
//! established. New code must use the runtime pool.
//!
//! Its scoped threads run untraced: unlike the pool, it does not carry the
//! caller's [`mcsched_obs::Collector`] into its workers, so their spans
//! record nothing. Its only caller, `mcsched-bench runtime`'s `legacy-fanout`
//! family, runs without a collector anyway.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a configured thread count: `0` means one worker per available
/// core, anything else is taken literally (and clamped to the work size by
/// [`run_indexed`]).
#[deprecated(
    since = "0.1.0",
    note = "use `mcsched_runtime::resolve_threads` (same semantics, shared with the pool)"
)]
pub fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        configured
    }
}

/// Runs `f(0..count)` on at most `threads` workers (`0` = one per core) and
/// returns the results indexed by input. Worker scheduling is dynamic (an
/// atomic cursor), results are position-stable, so the output never depends
/// on thread interleaving.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins every worker).
#[deprecated(
    since = "0.1.0",
    note = "use `mcsched_runtime::run_indexed` (persistent work-stealing pool, nested fan-outs, \
            traced tasks); this executor runs its workers untraced"
)]
#[allow(deprecated)]
pub fn run_indexed<T, F>(threads: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve_threads(threads).clamp(1, count.max(1));
    if workers <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }

    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let result = f(i);
                    slots.lock()[i] = Some(result);
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("fan-out worker panicked");
        }
    });
    slots
        .into_inner()
        .into_iter()
        .map(|slot| slot.expect("every index was processed"))
        .collect()
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn results_are_in_input_order() {
        let out = run_indexed(4, 32, |i| i * 2);
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_work_is_fine() {
        let out: Vec<usize> = run_indexed(4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_runs_strictly_sequentially() {
        let inside = AtomicUsize::new(0);
        let max_seen = AtomicUsize::new(0);
        run_indexed(1, 16, |i| {
            let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
            max_seen.fetch_max(now, Ordering::SeqCst);
            inside.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert_eq!(max_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn thread_count_actually_provides_parallelism() {
        // Four tasks blocked on a barrier of four can only complete if four
        // workers run them concurrently; with fewer workers this would
        // deadlock (and the test would time out).
        let barrier = Barrier::new(4);
        let out = run_indexed(4, 4, |i| {
            barrier.wait();
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn worker_count_never_exceeds_configuration() {
        let inside = AtomicUsize::new(0);
        let max_seen = AtomicUsize::new(0);
        run_indexed(2, 64, |i| {
            let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
            max_seen.fetch_max(now, Ordering::SeqCst);
            std::thread::yield_now();
            inside.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert!(max_seen.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
