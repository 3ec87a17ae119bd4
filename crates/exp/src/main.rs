//! `mcsched-exp` — regenerates one table or figure of the paper's
//! evaluation per invocation (see [`mcsched_exp::cli`] for the flags):
//!
//! ```sh
//! cargo run --release -p mcsched-exp -- table1
//! cargo run --release -p mcsched-exp -- fig3 --full
//! cargo run --release -p mcsched-exp -- online --strategies es,ps-work --replications 2
//! ```

use mcsched_core::mapping::{map_concurrent, MappingConfig, OrderingMode};
use mcsched_core::policy::ListMapping;
use mcsched_core::{PolicyRegistry, RefAllocation, SchedulerConfig};
use mcsched_exp::cli::Experiment;
use mcsched_exp::online::{
    csv_online, run_online_campaign, series_csv, table_online, OnlineCampaign,
};
use mcsched_exp::{mu_campaign, report, run_campaign, CampaignConfig, CampaignResult, CliOptions};
use mcsched_platform::{grid5000, PlatformBuilder};
use mcsched_ptg::gen::PtgClass;
use mcsched_ptg::{CostModel, DataParallelTask, Ptg, PtgBuilder};
use mcsched_stats::BootstrapConfig;
use mcsched_workload::WorkloadCatalog;
use std::sync::Arc;

fn main() {
    let opts = CliOptions::from_env();
    let obs = opts.obs.start();
    let campaign = |class| {
        if opts.full {
            CampaignConfig::paper(class)
        } else {
            CampaignConfig::quick(class)
        }
    };
    match opts.experiment {
        Experiment::Table1 => table1(),
        Experiment::Fig1 => fig1(),
        Experiment::Fig2 => {
            let (config, mu_values) = mu_campaign(opts.full);
            figure(
                &opts,
                "Figure 2: WPS-work mu sweep on random PTGs",
                config,
                Some(mu_values),
                "Expected shape (paper): unfairness decreases as mu -> 1 while the average makespan\n\
                 increases; mu = 0.7 offers the balance the paper selects for WPS-work.",
            );
        }
        Experiment::Fig3 => figure(
            &opts,
            "Figure 3: random PTGs",
            campaign(PtgClass::Random),
            None,
            "Expected shape (paper): ES, WPS-* and PS-width are fairer than the selfish S;\n\
             WPS-width is the fairest (about 2x better than S); PS-cp and PS-work are the least\n\
             fair but achieve the best makespans.",
        ),
        Experiment::Fig4 => figure(
            &opts,
            "Figure 4: FFT PTGs",
            campaign(PtgClass::Fft),
            None,
            "Expected shape (paper): overall lower unfairness than for random PTGs; PS-width\n\
             becomes the second-fairest strategy; ES produces clearly the worst makespans\n\
             (up to ~2x the best for 10 concurrent PTGs).",
        ),
        Experiment::Fig5 => figure(
            &opts,
            "Figure 5: Strassen PTGs",
            campaign(PtgClass::Strassen),
            None,
            "Expected shape (paper): WPS-work is ~25% less fair than ES but ~35% better on\n\
             makespan; PS-work remains the least fair / shortest-schedule strategy.",
        ),
        Experiment::AblationScrap => {
            let registry = PolicyRegistry::builtin();
            let arms = ["scrap", "scrap-max"].map(|name| {
                let procedure = CliOptions::or_exit(registry.allocation(name));
                let label = procedure.name();
                let arm: Tweak = Box::new(move |base| base.allocation = Arc::clone(&procedure));
                (label, arm)
            });
            ablation(
                &opts,
                campaign(PtgClass::Random),
                "allocation procedure",
                arms,
                "Expected shape (paper, Section 4): both procedures respect their constraint, but\n\
                 SCRAP can concentrate large allocations on a few tasks, postponing them at mapping\n\
                 time; SCRAP-MAX's per-level constraint avoids this and yields shorter schedules\n\
                 when the constraint is loose.",
            );
        }
        Experiment::AblationPacking => {
            let arms = [true, false].map(|packing| {
                let arm: Tweak = Box::new(move |base| {
                    base.mapping = Arc::new(ListMapping::new(MappingConfig {
                        packing,
                        ..MappingConfig::default()
                    }));
                });
                (packing.to_string(), arm)
            });
            ablation(
                &opts,
                campaign(PtgClass::Random),
                "allocation packing",
                arms,
                "Expected shape: packing removes the idle holes created when a task waits for a\n\
                 slightly-too-large processor set, so makespans without packing should be no better\n\
                 than with it.",
            );
        }
        Experiment::Online => CliOptions::or_exit(online(&opts)),
    }
    obs.finish();
}

/// Table 1: the four Grid'5000 multi-cluster subsets with their cluster
/// sizes, speeds, total processors and heterogeneity.
fn table1() {
    println!("Table 1: multi-cluster subsets of the Grid'5000 platform");
    println!(
        "{:<8} {:<10} {:>7} {:>9}   {:>12} {:>15} {:>14}",
        "Site", "Cluster", "#proc", "GFlop/s", "site #proc", "heterogeneity", "topology"
    );
    for site in grid5000::all_sites() {
        let topo = if site.topology().is_shared() {
            "shared switch"
        } else {
            "per-cluster"
        };
        for (i, c) in site.clusters().iter().enumerate() {
            if i == 0 {
                println!(
                    "{:<8} {:<10} {:>7} {:>9.3}   {:>12} {:>14.1}% {:>14}",
                    site.name(),
                    c.name(),
                    c.num_procs(),
                    c.speed_gflops(),
                    site.total_procs(),
                    site.heterogeneity() * 100.0,
                    topo
                );
            } else {
                println!(
                    "{:<8} {:<10} {:>7} {:>9.3}",
                    "",
                    c.name(),
                    c.num_procs(),
                    c.speed_gflops()
                );
            }
        }
    }
    println!();
    println!(
        "Paper reference values: 99/167/229/180 processors, 20.2%/6.1%/36.8%/34.7% heterogeneity."
    );
}

/// Builds a chain of tasks with the given per-task costs (in GFlop).
fn chain(name: &str, gflops: &[f64]) -> Ptg {
    let mut b = PtgBuilder::new(name);
    for (i, &g) in gflops.iter().enumerate() {
        // Linear model with d = 1e6 elements and a = g * 1e3 gives g GFlop.
        b.add_task(DataParallelTask::new(
            format!("t{i}"),
            1.0e6,
            CostModel::Linear { a: g * 1.0e3 },
            0.0,
        ));
    }
    for i in 1..gflops.len() {
        b.add_edge(i - 1, i, 0.0);
    }
    b.build().expect("valid chain")
}

/// Figure 1: ordering only the *ready* tasks avoids postponing a small PTG
/// behind a large one, whereas a global bottom-level ordering (without
/// backfilling) delays it.
fn fig1() {
    // Two identical 1 GFlop/s processors, as in the figure.
    let platform = PlatformBuilder::new("figure1")
        .cluster("c", 2, 1.0)
        .build()
        .expect("valid platform");

    // The big PTG (10, 1, 2, 1 seconds of work) and the small one (4, 4).
    let big = chain("big", &[10.0, 1.0, 2.0, 1.0]);
    let small = chain("small", &[4.0, 4.0]);
    let allocations = [
        RefAllocation::one_per_task(big.num_tasks()),
        RefAllocation::one_per_task(small.num_tasks()),
    ];
    let ptgs = [big, small];

    for (label, ordering) in [
        (
            "global bottom-level ordering (no backfilling)",
            OrderingMode::Global,
        ),
        (
            "ready-task ordering (paper's proposal)",
            OrderingMode::ReadyTasks,
        ),
    ] {
        let schedule = map_concurrent(
            &platform,
            &ptgs,
            &allocations,
            &[0.0, 0.0],
            &MappingConfig {
                ordering,
                ..MappingConfig::default()
            },
        );
        println!("== {label} ==");
        for (app, ptg) in ptgs.iter().enumerate() {
            for t in ptg.task_ids() {
                let p = &schedule.placements[app][t];
                println!(
                    "  {:>5}.{:<3} start {:6.1}s  finish {:6.1}s  (proc {:?})",
                    ptg.name(),
                    ptg.task(t).name(),
                    p.est_start,
                    p.est_finish,
                    schedule.workload.jobs[p.job].procs.procs()
                );
            }
            println!(
                "  -> {:>5} makespan: {:.1}s",
                ptg.name(),
                schedule.estimated_app_makespan(app)
            );
        }
        println!();
    }
    println!(
        "The small PTG starts immediately with the ready-task ordering, while the global\n\
         ordering postpones it behind the first task of the big PTG (Figure 1 of the paper)."
    );
}

/// Renders a campaign result by strategy (Figures 3–5), or by µ when given
/// the µ grid its strategies were built from (Figure 2); with intervals
/// when `ci` is set.
fn render_table(
    result: &CampaignResult,
    mu_values: Option<&[f64]>,
    ci: Option<&BootstrapConfig>,
) -> String {
    match (mu_values, ci) {
        (None, None) => report::table_campaign(result),
        (None, Some(ci)) => report::table_campaign_ci(result, ci),
        (Some(mu), None) => report::table_mu_sweep(result, mu),
        (Some(mu), Some(ci)) => report::table_mu_sweep_ci(result, mu, ci),
    }
}

/// The CSV matching [`render_table`].
fn render_csv(
    result: &CampaignResult,
    mu_values: Option<&[f64]>,
    ci: Option<&BootstrapConfig>,
) -> String {
    match (mu_values, ci) {
        (None, None) => report::csv_campaign(result),
        (None, Some(ci)) => report::csv_campaign_ci(result, ci),
        (Some(mu), None) => report::csv_mu_sweep(result, mu),
        (Some(mu), Some(ci)) => report::csv_mu_sweep_ci(result, mu, ci),
    }
}

/// Figures 2–5: one campaign over `base` with the flags applied, its
/// table, the paper's expected shape and the `--csv` file.
fn figure(
    opts: &CliOptions,
    title: &str,
    base: CampaignConfig,
    mu_values: Option<&[f64]>,
    expected: &str,
) {
    let config = CliOptions::or_exit(opts.configure_campaign(base));
    mcsched_obs::note!(
        "{title}, {} combinations x 4 platforms x {} replications, PTG counts {:?}, \
         {} strategies",
        config.combinations,
        config.replications,
        config.ptg_counts,
        config.strategies.len()
    );
    opts.maybe_export_trace(&config);
    let result = CliOptions::or_exit(run_campaign(&config));
    let ci = opts.report_ci(&config);
    println!("{}", render_table(&result, mu_values, ci.as_ref()));
    println!("{expected}");
    // Rendered lazily: the per-cell bootstrap is not repeated without --csv.
    if opts.csv.is_some() {
        opts.maybe_write_csv(&render_csv(&result, mu_values, ci.as_ref()));
    }
}

/// One change an ablation arm makes to the campaign pipeline.
type Tweak = Box<dyn Fn(&mut SchedulerConfig)>;

/// The ablations: the same campaign once per `(label, tweak)` arm, every
/// arm on identical workloads (exported once, up front).
fn ablation<const N: usize>(
    opts: &CliOptions,
    base: CampaignConfig,
    what: &str,
    arms: [(String, Tweak); N],
    expected: &str,
) {
    let configured = CliOptions::or_exit(opts.configure_campaign(base));
    opts.maybe_export_trace(&configured);
    for (label, tweak) in arms {
        let mut config = configured.clone();
        tweak(&mut config.base);
        mcsched_obs::note!(
            "Ablation ({what}: {label}): {} combinations x 4 platforms, PTG counts {:?}",
            config.combinations,
            config.ptg_counts
        );
        let result = CliOptions::or_exit(run_campaign(&config));
        println!("#### {what}: {label} ####");
        println!(
            "{}",
            render_table(&result, None, opts.report_ci(&config).as_ref())
        );
    }
    println!("{expected}");
}

/// The open-system experiment: streams PTG arrivals through the
/// event-driven online scheduler and reports open-system metrics (stretch,
/// shed rate, queue depth, utilisation) per constraint strategy. A bounded
/// pending queue sheds deterministically and jobs materialise lazily, so at
/// most `--in-flight` PTGs are in memory however many stream through.
fn online(opts: &CliOptions) -> Result<(), String> {
    let workload = opts
        .workload
        .as_deref()
        .unwrap_or("daggen@n=20/poisson@lambda=0.02");
    let site = opts.platform.as_deref().unwrap_or("lille");
    let registry = PolicyRegistry::builtin();
    let names = opts.strategies.clone().unwrap_or_else(|| vec!["es".into()]);
    let strategies = names
        .iter()
        .map(|name| registry.constraint(name))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut campaign = OnlineCampaign::new(strategies);
    campaign.replications = opts.replications.unwrap_or(1);
    campaign.threads = opts.threads.unwrap_or(campaign.threads);
    let base = &mut campaign.base;
    base.seed = opts.seed.unwrap_or(base.seed);
    base.max_jobs = opts.jobs.unwrap_or(200);
    base.max_time = opts.duration.unwrap_or(base.max_time);
    base.queue_cap = opts.queue_cap.unwrap_or(base.queue_cap);
    base.max_in_flight = opts.in_flight.unwrap_or(base.max_in_flight);
    base.reschedule = opts.reschedule.unwrap_or(base.reschedule);
    base.admission = opts.admission.unwrap_or(base.admission);
    base.record_series = opts.obs_series.is_some();
    campaign.obs_dir = opts.obs.dir.clone();

    let platform = grid5000::by_name(site).ok_or_else(|| {
        format!("unknown platform `{site}` (expected lille, nancy, rennes or sophia)")
    })?;
    let source = WorkloadCatalog::builtin()
        .resolve(workload)
        .map_err(|e| e.to_string())?;
    mcsched_obs::note!(
        "online: {workload} on {site}, {} jobs / {} s window, queue {} / in-flight {}, \
         {} x {} replications ({}, {})",
        campaign.base.max_jobs,
        campaign.base.max_time,
        campaign.base.queue_cap,
        campaign.base.max_in_flight,
        campaign.strategies.len(),
        campaign.replications,
        campaign.base.reschedule.spec(),
        campaign.base.admission.spec(),
    );

    let result = run_online_campaign(&platform, &source, &campaign).map_err(|e| e.to_string())?;
    print!("{}", table_online(&result));
    if let Some(path) = &opts.csv {
        std::fs::write(path, csv_online(&result))
            .map_err(|e| format!("cannot write CSV to `{}`: {e}", path.display()))?;
        mcsched_obs::note!("wrote {}", path.display());
    }
    if let Some(path) = &opts.obs_series {
        std::fs::write(path, series_csv(&result))
            .map_err(|e| format!("cannot write series CSV to `{}`: {e}", path.display()))?;
        mcsched_obs::note!("obs: time series written to {}", path.display());
    }
    Ok(())
}
