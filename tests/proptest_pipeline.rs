//! Property-style tests of the whole pipeline: whatever the (bounded) random
//! platform and application mix, the scheduler must produce a valid,
//! precedence-respecting, non-oversubscribed schedule whose betas lie in
//! (0, 1].
//!
//! The cases are driven by [`mcsched_stats::quickcheck::QuickCheck`]
//! (`proptest` is unavailable offline): every case draws from a
//! deterministically seeded RNG, generator dimensions scale with the
//! harness's size bound so failures *shrink by halving* to a smaller
//! counterexample, and the failure message prints the reproducing
//! `(seed, size)` pair for `QuickCheck::replay`.

use mcsched::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 24;

/// Caps a draw dimension by the harness size bound: full range at the
/// default start size, proportionally smaller while shrinking.
fn cap(size: u32, max: usize) -> usize {
    (size as usize).max(1).min(max)
}

/// Draws a small random multi-cluster platform (1-3 clusters, 2-23
/// processors each, 1-5 GFlop/s, both topology styles — upper bounds shrink
/// with `size`).
fn gen_platform(rng: &mut ChaCha8Rng, size: u32) -> Platform {
    let shared: bool = rng.gen_bool(0.5);
    let mut builder = PlatformBuilder::new("prop-platform").topology(if shared {
        NetworkTopology::shared_gigabit()
    } else {
        NetworkTopology::per_cluster_ten_gigabit()
    });
    let clusters = rng.gen_range(1..=cap(size, 3));
    for i in 0..clusters {
        let procs = rng.gen_range(2..=cap(size, 23).max(2));
        let gflops = rng.gen_range(1.0..5.0);
        builder = builder.cluster(format!("c{i}"), procs, gflops);
    }
    builder.build().expect("generated platforms are valid")
}

/// Draws a small set of applications (1-4 PTGs of one class; the count and
/// the random-class task count shrink with `size`).
fn gen_apps(rng: &mut ChaCha8Rng, size: u32) -> Vec<Ptg> {
    let count = rng.gen_range(1..=cap(size, 4));
    let generator = match rng.gen_range(0..3usize) {
        0 => AppGenerator::Random,
        1 => AppGenerator::Fft { points: None },
        _ => AppGenerator::Strassen,
    };
    let mut app_rng = ChaCha8Rng::seed_from_u64(rng.next_u64());
    (0..count)
        .map(|i| {
            // Keep random PTGs small so each case stays fast.
            if generator == AppGenerator::Random {
                let cfg = RandomPtgConfig {
                    num_tasks: cap(size, 10).max(2),
                    ..RandomPtgConfig::default_config()
                };
                random_ptg(&cfg, &mut app_rng, format!("app{i}"))
            } else {
                generator.sample(&mut app_rng, format!("app{i}"))
            }
        })
        .collect()
}

/// Draws the default pipeline under one constraint policy from a pool
/// covering every built-in policy type, named through the registry.
fn gen_config(rng: &mut ChaCha8Rng) -> SchedulerConfig {
    let name = match rng.gen_range(0..6usize) {
        0 => "s".to_string(),
        1 => "es".to_string(),
        2 => "ps-work".to_string(),
        3 => "ps-width".to_string(),
        4 => format!("wps-work@{}", rng.gen_range(0.0..=1.0)),
        _ => format!("wps-cp@{}", rng.gen_range(0.0..=1.0)),
    };
    SchedulerConfig {
        constraint: PolicyRegistry::builtin().constraint(&name).unwrap(),
        ..SchedulerConfig::default()
    }
}

#[test]
fn scheduler_always_produces_a_valid_run() {
    QuickCheck::new(0xA11CE).cases(CASES).run(|rng, size| {
        let platform = gen_platform(rng, size);
        let apps = gen_apps(rng, size);
        let config = gen_config(rng);

        let reference = ReferencePlatform::new(&platform);
        let betas = config.constraint.betas(&apps, &reference);
        assert_eq!(betas.len(), apps.len());
        for b in &betas {
            assert!(*b > 0.0 && *b <= 1.0, "beta {b} out of (0, 1]");
        }

        let run = ScheduleContext::with_base(&platform, &apps, config)
            .schedule()
            .expect("scheduling never fails on valid inputs");

        // Every task ran, makespans are consistent.
        assert!(run.global_makespan > 0.0);
        let total_tasks: usize = apps.iter().map(Ptg::num_tasks).sum();
        assert_eq!(run.schedule.workload.num_jobs(), total_tasks);
        for app in &run.apps {
            assert!(app.makespan > 0.0);
            assert!(app.makespan <= run.global_makespan + 1e-6);
        }

        // Precedence constraints hold in the simulated trace.
        for (a, ptg) in apps.iter().enumerate() {
            for e in ptg.edges() {
                let src = run
                    .trace
                    .job(run.schedule.placements[a][e.src].job)
                    .unwrap();
                let dst = run
                    .trace
                    .job(run.schedule.placements[a][e.dst].job)
                    .unwrap();
                assert!(
                    src.finish <= dst.start + 1e-9,
                    "edge {}->{} of app {a} violated",
                    e.src,
                    e.dst
                );
            }
        }

        // No processor oversubscription in the simulated trace.
        let records: Vec<_> = run.trace.jobs.iter().flatten().collect();
        for (i, x) in records.iter().enumerate() {
            for y in records.iter().skip(i + 1) {
                let procs = |job: usize| &run.schedule.workload.jobs[job].procs;
                if procs(x.job).intersects(procs(y.job)) {
                    assert!(
                        x.finish <= y.start + 1e-9 || y.finish <= x.start + 1e-9,
                        "overlapping jobs on shared processors"
                    );
                }
            }
        }
    });
}

#[test]
fn allocations_stay_within_cluster_capacity() {
    QuickCheck::new(0xB0B).cases(CASES).run(|rng, size| {
        let platform = gen_platform(rng, size);
        let apps = gen_apps(rng, size);
        let ctx = ScheduleContext::new(&platform, &apps);
        let reference = ReferencePlatform::new(&platform);
        let equal_share = PolicyRegistry::builtin().constraint("es").unwrap();
        let allocations = ctx.allocations_for(equal_share.as_ref(), ctx.base_allocation().as_ref());
        for alloc in &allocations {
            for &n in alloc.counts() {
                assert!(n >= 1);
                assert!(n <= reference.max_task_procs());
            }
        }
    });
}

#[test]
fn fairness_metrics_are_well_formed() {
    QuickCheck::new(0xFA1).cases(CASES).run(|rng, size| {
        let count = rng.gen_range(2..=cap(size, 4).max(2));
        let platform = grid5000::lille();
        let mut app_rng = ChaCha8Rng::seed_from_u64(rng.next_u64());
        let apps: Vec<Ptg> = (0..count)
            .map(|i| AppGenerator::Strassen.sample(&mut app_rng, format!("s{i}")))
            .collect();
        let evaluation = ScheduleContext::new(&platform, &apps).evaluate().unwrap();
        assert_eq!(evaluation.fairness.slowdowns.len(), count);
        for s in &evaluation.fairness.slowdowns {
            // Slowdowns are usually <= 1 but the two-step heuristic is not
            // monotone in beta, so a constrained run can occasionally beat
            // the dedicated one; only require a sane, finite ratio.
            assert!(*s > 0.0 && *s <= 3.0 && s.is_finite(), "slowdown {s}");
        }
        assert!(evaluation.fairness.unfairness >= 0.0);
        assert!(evaluation.fairness.unfairness <= 2.0 * count as f64);
    });
}
