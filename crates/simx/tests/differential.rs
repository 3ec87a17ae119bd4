//! Differential equivalence between the optimized kernel and the frozen
//! pre-refactor reference.
//!
//! The engine's flat-arena event loop (incremental ready set, pooled
//! scratch, memoized routes, cached flow horizon) must be observationally
//! indistinguishable from the naive implementation captured in
//! `mcsched_simx::reference` — not approximately, but **bit for bit** on
//! every job record, transfer record and makespan. These properties drive
//! randomized workloads (layered DAGs, random release times, mixed local /
//! zero-byte / contended transfers, duplicate priorities) through both
//! implementations and compare the full traces exactly.

use mcsched_platform::{grid5000, Platform, PlatformBuilder, ProcSet};
use mcsched_simx::{reference_execute, Engine, SimJob, SimOutcome, SimWorkload};
use mcsched_stats::QuickCheck;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Draws either a real Grid'5000 site (covering both switch topologies and
/// heterogeneous cluster sizes) or a small random platform.
fn random_platform(rng: &mut ChaCha8Rng) -> Platform {
    if rng.gen_bool(0.5) {
        let mut sites = grid5000::all_sites();
        let k = rng.gen_range(0..sites.len());
        sites.swap_remove(k)
    } else {
        let nc = rng.gen_range(2..=4);
        let mut b = PlatformBuilder::new("rand");
        for c in 0..nc {
            b = b.cluster(
                format!("c{c}"),
                rng.gen_range(2..=8),
                1.0 + rng.gen_range(0..3) as f64,
            );
        }
        b.build().expect("random platform is valid")
    }
}

/// Draws a workload of at most `size` jobs: random contiguous processor
/// sets, durations including zeros, release times with deliberate ties
/// (exercising the simultaneity window), duplicate priorities, and a random
/// forward DAG of transfers mixing zero-byte, local, small and contended
/// volumes.
fn random_workload(rng: &mut ChaCha8Rng, size: u32, platform: &Platform) -> SimWorkload {
    let n = rng.gen_range(1..=size.max(1) as usize);
    let mut w = SimWorkload::new();
    for _ in 0..n {
        let cluster = rng.gen_range(0..platform.num_clusters());
        let nprocs = platform.clusters()[cluster].num_procs();
        let first = rng.gen_range(0..nprocs);
        let count = rng.gen_range(1..=nprocs - first);
        let duration = if rng.gen_bool(0.1) {
            0.0
        } else {
            rng.gen_range(0.1..10.0)
        };
        let priority = rng.gen_range(0..1 + n as u64 / 2);
        let mut job = SimJob::new(
            ProcSet::contiguous(cluster, first, count),
            duration,
            priority,
        );
        job.release_time = if rng.gen_bool(0.5) {
            // Discrete values to force release-time collisions.
            [0.0, 0.0, 1.0, 2.5][rng.gen_range(0..4)]
        } else {
            rng.gen_range(0.0..5.0)
        };
        w.add_job(job);
    }
    // Forward edges only: the transfer graph stays acyclic by construction.
    for j in 1..n {
        let parents = rng.gen_range(0..=2.min(j));
        for _ in 0..parents {
            let i = rng.gen_range(0..j);
            let bytes = match rng.gen_range(0..5) {
                0 => 0.0,
                1 => 1.0e3,
                2 => 1.0e7,
                3 => rng.gen_range(1.0e6..5.0e8),
                _ => 1.25e8,
            };
            w.add_transfer(i, j, bytes);
        }
    }
    w
}

/// Asserts the two outcomes are bit-for-bit identical, not merely close.
fn assert_bit_identical(fast: &SimOutcome, reference: &SimOutcome) {
    assert_eq!(
        fast.makespan.to_bits(),
        reference.makespan.to_bits(),
        "makespan differs: {} vs {}",
        fast.makespan,
        reference.makespan
    );
    assert_eq!(fast.trace.jobs.len(), reference.trace.jobs.len());
    for (j, (a, b)) in fast
        .trace
        .jobs
        .iter()
        .zip(reference.trace.jobs.iter())
        .enumerate()
    {
        let (a, b) = (a.as_ref().expect("job ran"), b.as_ref().expect("job ran"));
        assert_eq!(a.start.to_bits(), b.start.to_bits(), "job {j} start");
        assert_eq!(a.finish.to_bits(), b.finish.to_bits(), "job {j} finish");
        assert_eq!(a.procs, b.procs, "job {j} procs");
    }
    assert_eq!(fast.trace.transfers.len(), reference.trace.transfers.len());
    for (t, (a, b)) in fast
        .trace
        .transfers
        .iter()
        .zip(reference.trace.transfers.iter())
        .enumerate()
    {
        let (a, b) = (
            a.as_ref().expect("transfer delivered"),
            b.as_ref().expect("transfer delivered"),
        );
        assert_eq!(a.start.to_bits(), b.start.to_bits(), "transfer {t} start");
        assert_eq!(
            a.finish.to_bits(),
            b.finish.to_bits(),
            "transfer {t} finish"
        );
        assert_eq!(a.bytes.to_bits(), b.bytes.to_bits(), "transfer {t} bytes");
    }
}

#[test]
fn engine_matches_reference_bit_for_bit_on_random_workloads() {
    QuickCheck::new(0x51AF_11E5).cases(48).run(|rng, size| {
        let platform = random_platform(rng);
        let workload = random_workload(rng, size, &platform);
        let engine = Engine::new(&platform);
        let fast = engine.execute(&workload).expect("engine run");
        let reference = reference_execute(&platform, &workload).expect("reference run");
        assert_bit_identical(&fast, &reference);
        // A second run on the same engine reuses the pooled scratch and must
        // not drift.
        let again = engine.execute(&workload).expect("warm rerun");
        assert_bit_identical(&again, &reference);
    });
}

#[test]
fn engine_scratch_pool_is_safe_across_sequential_workloads() {
    // One engine, many different workloads back to back: every run reuses
    // the same scratch (sizes grow and shrink between runs) and each must
    // match the reference computed from a fresh state.
    QuickCheck::new(0xC0FF_EE00).cases(12).run(|rng, size| {
        let platform = random_platform(rng);
        let engine = Engine::new(&platform);
        for _ in 0..4 {
            let workload = random_workload(rng, size, &platform);
            let fast = engine.execute(&workload).expect("engine run");
            let reference = reference_execute(&platform, &workload).expect("reference run");
            assert_bit_identical(&fast, &reference);
        }
    });
}

#[test]
fn engine_is_bit_identical_under_concurrent_execution() {
    // The scratch pool hands each thread its own scratch; concurrent
    // executions of the same engine must all produce the reference trace.
    let mut sites = grid5000::all_sites();
    let platform = sites.swap_remove(0);
    QuickCheck::replay(0xD1FF_0001, 24, |rng, size| {
        let workload = random_workload(rng, size, &platform);
        let reference = reference_execute(&platform, &workload).expect("reference run");
        let engine = Engine::new(&platform);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        (0..8)
                            .map(|_| engine.execute(&workload).expect("threaded run"))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for out in h.join().expect("thread") {
                    assert_bit_identical(&out, &reference);
                }
            }
        });
    });
}

/// Draws a dense-contention workload: `stages` stages of `width` one-processor
/// jobs on randomly chosen clusters, every stage feeding the next
/// all-to-all. A stage's jobs start and finish together, so its `width²`
/// transfers are in flight at once over at most `nc²` distinct routes.
/// Volumes come from a small set, so equal-size flows start at the same
/// instant and their completions tie.
fn dense_all_to_all(rng: &mut ChaCha8Rng, platform: &Platform) -> SimWorkload {
    let width = rng.gen_range(18..=22);
    let stages = rng.gen_range(2..=3);
    let nc = platform.num_clusters();
    let mut w = SimWorkload::new();
    for s in 0..stages {
        let mut used = vec![0usize; nc];
        for _ in 0..width {
            let cluster = rng.gen_range(0..nc);
            w.add_job(SimJob::new(
                ProcSet::contiguous(cluster, used[cluster], 1),
                [1.0, 1.0, 2.0][rng.gen_range(0..3)],
                s as u64,
            ));
            used[cluster] += 1;
        }
    }
    for s in 1..stages {
        for i in 0..width {
            for j in 0..width {
                let bytes = [1.25e7, 5.0e7, 1.25e8, 3.0e8][rng.gen_range(0..4)];
                w.add_transfer((s - 1) * width + i, s * width + j, bytes);
            }
        }
    }
    w
}

/// Most inter-cluster transfers whose `[start, finish)` spans contain one
/// common instant (a transfer start).
fn peak_inter_cluster_transfers(workload: &SimWorkload, outcome: &SimOutcome) -> usize {
    let spans: Vec<(f64, f64)> = workload
        .transfers
        .iter()
        .zip(&outcome.trace.transfers)
        .filter(|(t, _)| {
            workload.jobs[t.from].procs.cluster() != workload.jobs[t.to].procs.cluster()
        })
        .map(|(_, r)| {
            let r = r.as_ref().expect("transfer delivered");
            (r.start, r.finish)
        })
        .collect();
    spans
        .iter()
        .map(|&(at, _)| spans.iter().filter(|&&(s, f)| s <= at && at < f).count())
        .max()
        .unwrap_or(0)
}

#[test]
fn engine_matches_reference_under_dense_all_to_all_contention() {
    // One shared-switch and one per-cluster-switch site: the max-min fair
    // network sees more than a hundred concurrent inter-cluster flows.
    for platform in [grid5000::lille(), grid5000::nancy()] {
        let engine = Engine::new(&platform);
        QuickCheck::new(0xDE45_E000).cases(4).run(|rng, _size| {
            let workload = dense_all_to_all(rng, &platform);
            let fast = engine.execute(&workload).expect("engine run");
            let reference = reference_execute(&platform, &workload).expect("reference run");
            assert_bit_identical(&fast, &reference);
            let peak = peak_inter_cluster_transfers(&workload, &reference);
            assert!(
                peak >= 100,
                "{}: only {peak} inter-cluster flows in flight",
                platform.name()
            );
        });
    }
}
