//! Quickstart: schedule a handful of random parallel task graphs on a
//! Grid'5000 site and print fairness figures for two constraint strategies.
//!
//! Run with `cargo run --release --example quickstart`.

use mcsched::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    // 1. Pick a platform: the Lille subset of Table 1 (3 clusters, 99 procs).
    let platform = grid5000::lille();
    println!(
        "Platform {}: {} clusters, {} processors, {:.1} GFlop/s total, heterogeneity {:.1}%",
        platform.name(),
        platform.num_clusters(),
        platform.total_procs(),
        platform.total_power() / 1e9,
        platform.heterogeneity() * 100.0
    );

    // 2. Draw four random mixed-parallel applications (PTGs).
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let apps: Vec<Ptg> = (0..4)
        .map(|i| PtgClass::Random.sample(&mut rng, format!("workflow-{i}")))
        .collect();
    for app in &apps {
        println!(
            "  {}: {} tasks, {} edges, {:.1} GFlop of work",
            app.name(),
            app.num_tasks(),
            app.num_edges(),
            app.total_work() / 1e9
        );
    }

    // 3. Schedule them concurrently with two strategies and compare. The
    //    registry resolves policies by name; `selfish` is the
    //    dedicated-platform baseline, `wps-width@0.5` the paper's
    //    recommended weighted proportional share.
    let registry = PolicyRegistry::builtin();
    let workload = Workload::batch(apps).with_label("quickstart");
    for name in ["selfish", "wps-width@0.5"] {
        let config = SchedulerConfig {
            constraint: registry
                .constraint(name)
                .expect("built-in policy names resolve"),
            allocation: registry
                .allocation("scrap-max")
                .expect("built-in policy names resolve"),
            ..SchedulerConfig::default()
        };
        println!("\nStrategy {}:", config.constraint.name());
        let evaluation = ScheduleContext::for_workload(&platform, &workload, config)
            .evaluate()
            .expect("the scheduler always produces a simulable schedule");
        for (i, app) in evaluation.apps.iter().enumerate() {
            println!(
                "  {:<12} beta {:.2}  makespan {:>8.1}s  dedicated {:>8.1}s  slowdown {:.2}",
                app.name,
                app.beta,
                app.makespan,
                evaluation.dedicated_makespans[i],
                evaluation.fairness.slowdowns[i]
            );
        }
        println!(
            "  global makespan {:.1}s, unfairness {:.3}",
            evaluation.global_makespan, evaluation.fairness.unfairness
        );
    }
}
