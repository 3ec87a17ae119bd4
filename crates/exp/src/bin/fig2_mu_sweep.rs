//! Reproduces Figure 2: evolution of the unfairness and of the average
//! makespan as the µ parameter of the WPS-work strategy varies from 0 to 1,
//! for random PTGs and 2-10 concurrent applications.
//!
//! Run with `--full` for the paper-scale configuration (25 combinations × 4
//! platforms per point); the default is a reduced quick run.

use mcsched_exp::{CliOptions, MuSweepConfig};

fn main() {
    let opts = CliOptions::from_env();
    let obs = opts.obs.start();
    let base = if opts.full {
        MuSweepConfig::paper()
    } else {
        MuSweepConfig::quick()
    };
    let config = CliOptions::or_exit(opts.configure_mu_sweep(base));
    mcsched_obs::note!(
        "Figure 2: WPS-work mu sweep, {} combinations x 4 platforms x {} replications, \
         PTG counts {:?}, mu {:?}",
        config.combinations,
        config.replications,
        config.ptg_counts,
        config.mu_values
    );
    opts.maybe_export_mu_sweep_trace(&config);
    let points = CliOptions::or_exit(mcsched_exp::run_mu_sweep(&config));
    opts.print_mu_sweep_table(&config, &points);
    println!(
        "Expected shape (paper): unfairness decreases as mu -> 1 while the average makespan\n\
         increases; mu = 0.7 offers the balance the paper selects for WPS-work."
    );
    opts.write_mu_sweep_csv(&config, &points);
    obs.finish();
}
