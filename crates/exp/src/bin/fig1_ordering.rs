//! Reproduces the situation of Figure 1: ordering only the *ready* tasks
//! avoids postponing a small PTG behind a large one, whereas a global
//! bottom-level ordering (without backfilling) delays it.

use mcsched_core::mapping::{map_concurrent, MappingConfig, OrderingMode};
use mcsched_core::RefAllocation;
use mcsched_platform::PlatformBuilder;
use mcsched_ptg::{CostModel, DataParallelTask, Ptg, PtgBuilder};

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

fn main() {
    let opts = mcsched_exp::CliOptions::from_env();
    let obs = opts.obs.start();
    // Two identical 1 GFlop/s processors, as in the figure.
    let platform = PlatformBuilder::new("figure1")
        .cluster("c", 2, 1.0)
        .build()
        .expect("valid platform");

    // The big PTG (10, 1, 2, 1 seconds of work) and the small one (4, 4).
    let big = chain("big", &[10.0, 1.0, 2.0, 1.0]);
    let small = chain("small", &[4.0, 4.0]);
    let ptgs = [big.clone(), small.clone()];
    let allocations = [
        RefAllocation::one_per_task(big.num_tasks()),
        RefAllocation::one_per_task(small.num_tasks()),
    ];
    let releases = [0.0, 0.0];

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
            &releases,
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
    obs.finish();
}
