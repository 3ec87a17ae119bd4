//! One scoped, index-ordered fan-out.
//!
//! [`run_indexed`] runs `f(0..count)` on the calling thread plus
//! `threads − 1` workers of one `std::thread::scope`. Every thread claims
//! the next index from one shared counter and stores its result in that
//! index's slot, so the results come back in input-index order, never in
//! completion order: the output of a fan-out does not depend on thread
//! interleaving, which the determinism tier checks at 1/2/8 threads.
//!
//! Because the workers are scoped, the closure may borrow from the caller
//! and no thread outlives the call. A fan-out started from inside another
//! one runs inline on its caller's thread, so `--threads` stays a hard cap
//! on the threads a campaign uses.
//!
//! Observability follows the caller: every worker installs the
//! [`mcsched_obs::Collector`] installed on the calling thread (or none), so
//! tasks record into their caller's collector on whichever thread runs
//! them, and each worker flushes it before the fan-out returns.
//!
//! Panics propagate: the first panic payload of a fan-out is re-raised on
//! the caller's thread once every worker has joined.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Resolves a configured thread count: `0` means one worker per available
/// core, anything else is taken literally.
#[must_use]
pub fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        configured
    }
}

/// The most threads `run_indexed(threads, ..)` uses. Only the benchmark's
/// set-up still calls it.
#[doc(hidden)]
pub fn pool_for(threads: usize) -> usize {
    resolve_threads(threads).max(1)
}

thread_local! {
    /// Set while the current thread runs the tasks of a fan-out.
    static IN_FAN_OUT: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as running a fan-out until dropped, also when
/// a task unwinds.
struct FanOutFlag;

impl FanOutFlag {
    fn enter() -> Self {
        IN_FAN_OUT.with(|flag| flag.set(true));
        Self
    }
}

impl Drop for FanOutFlag {
    fn drop(&mut self) {
        IN_FAN_OUT.with(|flag| flag.set(false));
    }
}

/// Runs `f(0..count)` on at most `resolve_threads(threads)` threads (`0` =
/// one per core), the caller's included, and returns the results in
/// input-index order.
///
/// `threads <= 1` (after resolution), `count <= 1` and a call made from
/// inside a fan-out run strictly sequentially on the calling thread.
///
/// # Panics
///
/// Re-raises the first panic of any `f(i)` after every worker has joined.
pub fn run_indexed<T, F>(threads: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve_threads(threads).min(count);
    if threads <= 1 || IN_FAN_OUT.with(Cell::get) {
        return (0..count).map(f).collect();
    }
    // `Relaxed`: the counter only hands out indices; results reach the
    // caller through the slot mutexes and the joins.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let work = || {
        let _flag = FanOutFlag::enter();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= count {
                break;
            }
            mcsched_obs::counter!("pool.task").inc();
            let value = {
                let _span = mcsched_obs::span!("pool-task");
                f(index)
            };
            *slots[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
        }
    };
    let collector = mcsched_obs::Collector::current();
    let panic = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads)
            .map(|_| {
                let collector = collector.clone();
                scope.spawn(|| {
                    // The install flushes into the collector when the
                    // worker finishes, before the caller joins it.
                    let _installed = mcsched_obs::span::install(collector);
                    work();
                })
            })
            .collect();
        let mine = catch_unwind(AssertUnwindSafe(work));
        let joined: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        std::iter::once(mine).chain(joined).find_map(Result::err)
    });
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every index of a completed fan-out produced a value")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_obs::{span, tracing_enabled, Collector};
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::{current, ThreadId};

    #[test]
    fn results_are_in_input_order() {
        for threads in [1, 2, 4, 8] {
            let out = run_indexed(threads, 32, |i| i * 2);
            assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_work_is_fine() {
        let out: Vec<usize> = run_indexed(4, 0, |i| i);
        assert!(out.is_empty());
        assert_eq!(run_indexed(4, 1, |i| i + 1), [1]);
    }

    #[test]
    fn single_thread_runs_strictly_sequentially() {
        let me = current().id();
        let out = run_indexed(1, 16, |i| (i, current().id()));
        assert!(out.iter().enumerate().all(|(i, &(v, t))| v == i && t == me));
    }

    #[test]
    fn thread_count_actually_provides_parallelism() {
        // Four tasks blocked on a barrier of four can only complete if four
        // threads run them at once; a thread blocked in its task claims no
        // other index, so each of the four claims exactly one.
        let barrier = Barrier::new(4);
        let out = run_indexed(4, 4, |i| {
            barrier.wait();
            (i, current().id())
        });
        let (indices, threads): (Vec<usize>, HashSet<ThreadId>) = out.into_iter().unzip();
        assert_eq!(indices, [0, 1, 2, 3]);
        assert_eq!(threads.len(), 4);
    }

    #[test]
    fn worker_count_never_exceeds_configuration() {
        for threads in [1, 2, 3] {
            let inside = AtomicUsize::new(0);
            let max_seen = AtomicUsize::new(0);
            run_indexed(threads, 64, |i| {
                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                max_seen.fetch_max(now, Ordering::SeqCst);
                std::thread::yield_now();
                inside.fetch_sub(1, Ordering::SeqCst);
                i
            });
            assert!(max_seen.load(Ordering::SeqCst) <= threads);
        }
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(pool_for(3), 3);
    }

    #[test]
    fn nested_fan_outs_share_the_pool_and_stay_ordered() {
        // A nested fan-out runs inline on the thread of the outer task that
        // started it, so it starts no thread past the outer `threads`.
        let out = run_indexed(3, 5, |i| {
            let me = current().id();
            let inner = run_indexed(7, 4, |j| (i * 10 + j, current().id()));
            assert!(inner.iter().all(|&(_, t)| t == me));
            inner.iter().map(|&(v, _)| v).sum::<usize>()
        });
        let expect: Vec<usize> = (0..5).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn deeply_nested_single_worker_pool_does_not_deadlock() {
        for threads in [1, 2] {
            let out = run_indexed(threads, 2, |i| {
                run_indexed(2, 2, |j| run_indexed(2, 2, |k| i * 100 + j * 10 + k))
                    .into_iter()
                    .flatten()
                    .sum::<usize>()
            });
            assert_eq!(out, [22, 422]); // 0 + 1 + 10 + 11, then + 4 × 100
        }
    }

    #[test]
    fn panics_propagate_with_their_payload() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(2, 8, |i| {
                assert_ne!(i, 5, "task five exploded");
                i
            })
        }));
        let payload = caught.expect_err("the fan-out must re-raise the task panic");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("task five exploded"), "got `{message}`");
        // The caller has left the fan-out, so its next one runs on two
        // threads again rather than inline.
        assert!(!IN_FAN_OUT.with(Cell::get));
        let barrier = Barrier::new(2);
        let out = run_indexed(2, 2, |i| {
            barrier.wait();
            i
        });
        assert_eq!(out, [0, 1]);
    }

    #[test]
    fn nested_panics_propagate_through_both_levels() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(2, 3, |i| {
                run_indexed(2, 3, |j| {
                    assert!(i + j < 3, "nested overflow");
                    i + j
                })
            })
        }));
        assert!(caught.is_err());
        assert_eq!(run_indexed(2, 2, |i| i), [0, 1]);
    }

    #[test]
    fn tasks_record_into_their_callers_collector() {
        let a = Collector::new();
        let calls = |name: &str| {
            a.totals()
                .iter()
                .filter(|t| t.name == name)
                .map(|t| t.calls)
                .sum::<u64>()
        };
        let installed = a.install();
        let barrier = Barrier::new(2);
        run_indexed(2, 8, |_| {
            barrier.wait();
            let _span = span!("task");
            assert!(tracing_enabled());
        });
        // The worker flushed its four tasks into A before it was joined;
        // the caller's four flush when its install ends.
        assert_eq!(calls("task"), 4);
        drop(installed);
        assert_eq!(calls("task"), 8);
        assert_eq!(calls("pool-task"), 8);
        // With no collector on the caller, the workers record nothing.
        let before = a.totals();
        let barrier = Barrier::new(2);
        run_indexed(2, 4, |_| {
            barrier.wait();
            let _span = span!("task");
            assert!(!tracing_enabled());
        });
        assert_eq!(a.totals(), before);
    }

    #[test]
    fn free_run_indexed_matches_sequential_reference() {
        let parallel = run_indexed(8, 100, |i| (i as f64).sqrt());
        let sequential: Vec<f64> = (0..100).map(|i| (i as f64).sqrt()).collect();
        assert_eq!(parallel, sequential);
    }
}
