//! End-to-end integration tests across all workspace crates: platform model,
//! PTG generators, constrained allocation, concurrent mapping, simulated
//! execution and fairness metrics — plus golden-figure snapshots pinning the
//! byte-identical-output guarantee of the experiment harness.

use mcsched::exp::{mu_campaign, run_campaign, CampaignConfig};
use mcsched::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn sample_apps(class: PtgClass, n: usize, seed: u64) -> Vec<Ptg> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| class.sample(&mut rng, format!("{}-{i}", class.label())))
        .collect()
}

/// A context running the default pipeline under `constraint`.
fn context<'a>(
    platform: &'a Platform,
    apps: &'a [Ptg],
    constraint: Arc<dyn ConstraintPolicy>,
) -> ScheduleContext<'a> {
    let config = SchedulerConfig {
        constraint,
        ..SchedulerConfig::default()
    };
    ScheduleContext::with_base(platform, apps, config)
}

/// The built-in constraint policy registered as `name`.
fn registered(name: &str) -> Arc<dyn ConstraintPolicy> {
    PolicyRegistry::builtin().constraint(name).unwrap()
}

#[test]
fn every_strategy_schedules_every_class_on_every_site() {
    for platform in grid5000::all_sites() {
        for class in [PtgClass::Random, PtgClass::Fft, PtgClass::Strassen] {
            let apps = sample_apps(class, 3, 0xC0FFEE);
            for policy in CampaignConfig::paper(PtgClass::Random).strategies {
                let name = policy.name();
                let run = context(&platform, &apps, policy)
                    .schedule()
                    .unwrap_or_else(|e| {
                        panic!(
                            "{name} on {} ({}) failed: {e}",
                            platform.name(),
                            class.label()
                        )
                    });
                assert_eq!(run.apps.len(), 3);
                assert!(run.global_makespan > 0.0);
                for app in &run.apps {
                    assert!(app.makespan > 0.0);
                    assert!(app.makespan <= run.global_makespan + 1e-6);
                    assert!(app.beta > 0.0 && app.beta <= 1.0);
                }
            }
        }
    }
}

#[test]
fn simulated_trace_never_oversubscribes_processors() {
    let platform = grid5000::lille();
    let apps = sample_apps(PtgClass::Random, 4, 7);
    let run = context(&platform, &apps, registered("es"))
        .schedule()
        .unwrap();
    let records: Vec<_> = run.trace.jobs.iter().flatten().collect();
    for (i, a) in records.iter().enumerate() {
        for b in records.iter().skip(i + 1) {
            let procs = |job: usize| &run.schedule.workload.jobs[job].procs;
            if procs(a.job).intersects(procs(b.job)) {
                let overlap = a.start < b.finish - 1e-9 && b.start < a.finish - 1e-9;
                assert!(
                    !overlap,
                    "jobs {} and {} share processors and overlap in time",
                    a.job, b.job
                );
            }
        }
    }
}

#[test]
fn simulated_trace_respects_all_precedences() {
    let platform = grid5000::nancy();
    let apps = sample_apps(PtgClass::Fft, 3, 21);
    let run = context(&platform, &apps, registered("es"))
        .schedule()
        .unwrap();
    for (app, ptg) in apps.iter().enumerate() {
        for e in ptg.edges() {
            let src_job = run.schedule.placements[app][e.src].job;
            let dst_job = run.schedule.placements[app][e.dst].job;
            let src = run.trace.job(src_job).expect("source job ran");
            let dst = run.trace.job(dst_job).expect("destination job ran");
            assert!(
                src.finish <= dst.start + 1e-9,
                "edge {}->{} of app {app} violated: {} > {}",
                e.src,
                e.dst,
                src.finish,
                dst.start
            );
        }
    }
}

#[test]
fn scrap_max_allocations_respect_their_betas() {
    let platform = grid5000::rennes();
    let reference = ReferencePlatform::new(&platform);
    let apps = sample_apps(PtgClass::Random, 5, 99);
    for name in ["es", "wps-width@0.5", "ps-work"] {
        let policy = registered(name);
        let betas = policy.betas(&apps, &reference);
        let ctx = ScheduleContext::new(&platform, &apps);
        let allocations = ctx.allocations_for(policy.as_ref(), ctx.base_allocation().as_ref());
        for ((app, alloc), beta) in apps.iter().zip(&allocations).zip(&betas) {
            // Per-level usage must stay within beta * reference processors
            // (with a one-processor-per-task floor: a level with many tasks
            // cannot go below one processor each).
            let structure = mcsched::ptg::analysis::structure(app);
            let budget = beta * reference.procs() as f64;
            for level_tasks in &structure.tasks_by_level {
                let usage: usize = level_tasks.iter().map(|&t| alloc.procs_of(t)).sum();
                let floor = level_tasks.len() as f64;
                assert!(
                    usage as f64 <= budget.max(floor) + 1e-9,
                    "{name}: level usage {usage} exceeds budget {budget:.2}"
                );
            }
        }
    }
}

#[test]
fn dedicated_runs_bound_concurrent_slowdowns() {
    let platform = grid5000::sophia();
    let apps = sample_apps(PtgClass::Random, 4, 3);
    let evaluation = context(&platform, &apps, registered("es"))
        .evaluate()
        .unwrap();
    for s in &evaluation.fairness.slowdowns {
        assert!(*s > 0.0);
        assert!(
            *s <= 1.1,
            "slowdown {s} should not exceed 1 (plus tolerance)"
        );
    }
    assert!(evaluation.fairness.unfairness < 4.0);
}

#[test]
fn selfish_strategy_matches_dedicated_when_alone() {
    // With a single application, every strategy gives beta = 1 and the
    // concurrent makespan equals the dedicated makespan.
    let platform = grid5000::lille();
    let apps = sample_apps(PtgClass::Strassen, 1, 11);
    for policy in CampaignConfig::paper(PtgClass::Random).strategies {
        let name = policy.name();
        let evaluation = context(&platform, &apps, policy).evaluate().unwrap();
        let own = evaluation.dedicated_makespans[0];
        assert!(
            (evaluation.apps[0].makespan - own).abs() < 1e-6,
            "{name}: single application should behave as dedicated"
        );
    }
}

/// Compares `actual` against the committed reference under `tests/golden/`.
/// Regenerate deliberately with `MCSCHED_UPDATE_GOLDEN=1 cargo test --test
/// end_to_end golden` after an *intentional* output change.
fn golden_check(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("MCSCHED_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, actual).unwrap();
        eprintln!("golden file {} regenerated", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with MCSCHED_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        actual == expected,
        "{name} drifted from the committed reference — the figures are no longer \
         byte-identical. If the change is intentional, regenerate with \
         MCSCHED_UPDATE_GOLDEN=1.\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

#[test]
fn golden_fig2_mu_sweep_quick_table_is_byte_stable() {
    // The exact table a default `fig2` run prints (quick config, default
    // seed): the "figures byte-identical" guarantee, enforced mechanically.
    let (config, mu_values) = mu_campaign(false);
    let result = run_campaign(&config).unwrap();
    golden_check(
        "fig2_mu_sweep_quick.txt",
        &mcsched::exp::table_mu_sweep(&result, mu_values),
    );
}

#[test]
fn golden_fig3_random_quick_table_is_byte_stable() {
    // The exact table a default `fig3` run prints.
    let result = run_campaign(&CampaignConfig::quick(PtgClass::Random)).unwrap();
    golden_check(
        "fig3_random_quick.txt",
        &mcsched::exp::table_campaign(&result),
    );
}

#[test]
fn golden_fig4_fft_quick_table_is_byte_stable() {
    // The exact table a default `fig4` run prints.
    let result = run_campaign(&CampaignConfig::quick(PtgClass::Fft)).unwrap();
    golden_check("fig4_fft_quick.txt", &mcsched::exp::table_campaign(&result));
}

#[test]
fn golden_fig5_strassen_quick_table_is_byte_stable() {
    // The exact table a default `fig5` run prints.
    let result = run_campaign(&CampaignConfig::quick(PtgClass::Strassen)).unwrap();
    golden_check(
        "fig5_strassen_quick.txt",
        &mcsched::exp::table_campaign(&result),
    );
}

/// The bootstrap configuration a run without `--ci` reports with.
fn default_ci(seed: u64) -> BootstrapConfig {
    BootstrapConfig::seeded(seed).with_level(0.95)
}

#[test]
fn golden_fig2_mu_sweep_quick_csv_is_byte_stable() {
    // The exact CSV a default `fig2 --csv` run writes.
    let (config, mu_values) = mu_campaign(false);
    let result = run_campaign(&config).unwrap();
    golden_check(
        "fig2_mu_sweep_quick.csv",
        &mcsched::exp::csv_mu_sweep(&result, mu_values),
    );
}

#[test]
fn golden_fig2_mu_sweep_quick_ci_outputs_are_byte_stable() {
    // The interval table and CSV of `fig2 --replications 2 --csv`.
    let (quick, mu_values) = mu_campaign(false);
    let config = CampaignConfig {
        replications: 2,
        ..quick
    };
    let result = run_campaign(&config).unwrap();
    let ci = default_ci(config.seed);
    golden_check(
        "fig2_mu_sweep_quick_ci.txt",
        &mcsched::exp::table_mu_sweep_ci(&result, mu_values, &ci),
    );
    golden_check(
        "fig2_mu_sweep_quick_ci.csv",
        &mcsched::exp::csv_mu_sweep_ci(&result, mu_values, &ci),
    );
}

#[test]
fn golden_fig3_random_quick_ci_outputs_are_byte_stable() {
    // The interval table and CSV of `fig3 --replications 2 --csv`.
    let config = CampaignConfig {
        replications: 2,
        ..CampaignConfig::quick(PtgClass::Random)
    };
    let result = run_campaign(&config).unwrap();
    let ci = default_ci(config.seed);
    golden_check(
        "fig3_random_quick_ci.txt",
        &mcsched::exp::table_campaign_ci(&result, &ci),
    );
    golden_check(
        "fig3_random_quick_ci.csv",
        &mcsched::exp::csv_campaign_ci(&result, &ci),
    );
}

#[test]
fn strassen_width_strategies_degenerate_to_equal_share() {
    // All Strassen PTGs have the same maximal width, so PS-width and
    // WPS-width produce exactly the ES betas (the reason Figure 5 omits them).
    let platform = grid5000::nancy();
    let reference = ReferencePlatform::new(&platform);
    let apps = sample_apps(PtgClass::Strassen, 4, 17);
    let es = registered("es").betas(&apps, &reference);
    let ps_width = registered("ps-width").betas(&apps, &reference);
    let wps_width = registered("wps-width@0.5").betas(&apps, &reference);
    for i in 0..apps.len() {
        assert!((es[i] - ps_width[i]).abs() < 1e-12);
        assert!((es[i] - wps_width[i]).abs() < 1e-12);
    }
}
