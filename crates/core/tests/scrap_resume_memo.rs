//! A `ScrapLog` resumed from two threads at once: the allocations, the
//! `alloc.grants` histogram and the `alloc.resume_hits` counter must equal
//! those of the same resumes made one after another.
//!
//! The metrics are process-global, so this file holds a single test: no
//! other test of its binary records into them while it runs.

use mcsched_core::allocation::{ScrapLog, ScrapVariant};
use mcsched_core::{RefAllocation, ReferencePlatform};
use mcsched_obs::metrics::{counter, histogram, HistogramSnapshot};
use mcsched_platform::grid5000;
use mcsched_ptg::gen::{random_ptg, RandomPtgConfig};
use mcsched_ptg::Ptg;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Barrier;

/// Equal-share βs of 2 to 6 applications and three others; each thread
/// resumes them forwards, then backwards.
const BETAS: [f64; 8] = [0.5, 1.0 / 3.0, 0.25, 0.2, 1.0 / 6.0, 0.7, 0.15, 1.0];

fn resume_all(log: &ScrapLog) -> Vec<RefAllocation> {
    BETAS
        .iter()
        .chain(BETAS.iter().rev())
        .map(|&beta| log.resume(beta))
        .collect()
}

/// The metrics the resumes record, read before and after `f`.
fn measured<T>(f: impl FnOnce() -> T) -> (T, HistogramSnapshot, u64) {
    let grants = histogram("alloc.grants").snapshot();
    let hits = counter("alloc.resume_hits").get();
    let out = f();
    let after = histogram("alloc.grants").snapshot();
    let delta = HistogramSnapshot {
        count: after.count - grants.count,
        sum: after.sum - grants.sum,
        buckets: std::array::from_fn(|i| after.buckets[i] - grants.buckets[i]),
    };
    (out, delta, counter("alloc.resume_hits").get() - hits)
}

#[test]
fn concurrent_resumes_count_like_serial_ones() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x3E30);
    let reference = ReferencePlatform::new(&grid5000::all_sites()[1]);
    let ptgs: Vec<Ptg> = (0..6)
        .map(|i| {
            let cfg = RandomPtgConfig::sample_paper_grid(&mut rng);
            random_ptg(&cfg, &mut rng, format!("g{i}"))
        })
        .collect();
    for ptg in &ptgs {
        for variant in [ScrapVariant::Global, ScrapVariant::PerLevel] {
            let serial_log = ScrapLog::record(&reference, ptg, variant);
            let shared_log = ScrapLog::record(&reference, ptg, variant);
            let (serial, serial_grants, serial_hits) =
                measured(|| [resume_all(&serial_log), resume_all(&serial_log)]);
            let (threaded, threaded_grants, threaded_hits) = measured(|| {
                // Both threads start resuming together, so their first
                // resumes contend for the same thresholds.
                let start = Barrier::new(2);
                let resume = || {
                    start.wait();
                    resume_all(&shared_log)
                };
                std::thread::scope(|s| {
                    let a = s.spawn(resume);
                    let b = s.spawn(resume);
                    [a.join().unwrap(), b.join().unwrap()]
                })
            });
            let context = format!("{} {variant:?}", ptg.name());
            assert_eq!(threaded, serial, "allocations: {context}");
            assert_eq!(threaded_grants, serial_grants, "alloc.grants: {context}");
            assert_eq!(threaded_hits, serial_hits, "alloc.resume_hits: {context}");
            // Each of the distinct βs is computed once; every other resume
            // is a hit.
            assert_eq!(serial_hits, 4 * BETAS.len() as u64 - BETAS.len() as u64);
            assert_eq!(serial_grants.count, BETAS.len() as u64);
        }
    }
}
