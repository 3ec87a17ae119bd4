//! Platform exploration: build a custom multi-cluster platform, inspect the
//! Grid'5000 subsets of Table 1, and measure how the same workload behaves on
//! each site (heterogeneity and topology change the outcome).
//!
//! Run with `cargo run --release --example platform_exploration`.

use mcsched::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    // 1. The four Grid'5000 subsets used in the paper (Table 1).
    println!("Grid'5000 subsets (paper, Table 1):");
    println!(
        "{:<8} {:>9} {:>9} {:>15} {:>15} {:>14}",
        "site", "clusters", "procs", "power (GF/s)", "heterogeneity", "topology"
    );
    for site in grid5000::all_sites() {
        println!(
            "{:<8} {:>9} {:>9} {:>15.1} {:>14.1}% {:>14}",
            site.name(),
            site.num_clusters(),
            site.total_procs(),
            site.total_power() / 1e9,
            site.heterogeneity() * 100.0,
            if site.topology().is_shared() {
                "shared"
            } else {
                "per-cluster"
            }
        );
    }

    // 2. A custom platform built with the same API.
    let custom = PlatformBuilder::new("custom-lab")
        .topology(NetworkTopology::per_cluster_ten_gigabit())
        .cluster("cpu-old", 128, 2.4)
        .cluster("cpu-new", 64, 5.1)
        .cluster("fat-nodes", 16, 6.4)
        .build()
        .expect("valid custom platform");
    println!(
        "\nCustom platform `{}`: {} processors, heterogeneity {:.1}%",
        custom.name(),
        custom.total_procs(),
        custom.heterogeneity() * 100.0
    );

    // 3. Run the same 4-application workload on every platform and compare.
    let mut rng = ChaCha8Rng::seed_from_u64(1234);
    let apps: Vec<Ptg> = (0..4)
        .map(|i| AppGenerator::Random.sample(&mut rng, format!("app{i}")))
        .collect();
    let config = SchedulerConfig {
        constraint: PolicyRegistry::builtin()
            .constraint("wps-work@0.7")
            .expect("built-in policy names resolve"),
        ..SchedulerConfig::default()
    };

    let mut platforms = grid5000::all_sites();
    platforms.push(custom);

    println!("\nSame workload (4 random PTGs), WPS-work strategy, on every platform:");
    println!(
        "{:<12} {:>14} {:>12} {:>14}",
        "platform", "makespan (s)", "unfairness", "avg slowdown"
    );
    for platform in &platforms {
        let evaluation = ScheduleContext::with_base(platform, &apps, config.clone())
            .evaluate()
            .expect("valid schedule");
        println!(
            "{:<12} {:>14.1} {:>12.3} {:>14.2}",
            platform.name(),
            evaluation.global_makespan,
            evaluation.fairness.unfairness,
            evaluation.fairness.average_slowdown
        );
    }
    println!(
        "\nBigger or faster platforms absorb the same workload with smaller makespans and\n\
         less interference between the concurrent applications."
    );
}
