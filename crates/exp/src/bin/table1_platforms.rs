//! Reproduces Table 1 of the paper: the four Grid'5000 multi-cluster subsets
//! with their cluster sizes, speeds, total processors and heterogeneity.

use mcsched_platform::grid5000;

fn main() {
    let opts = mcsched_exp::CliOptions::from_env();
    let obs = opts.obs.start();
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
    obs.finish();
}
