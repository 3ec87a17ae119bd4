//! Reproduces Figure 5: unfairness and average relative makespan for
//! Strassen PTGs. All Strassen graphs share the same shape and maximal
//! width, so the width-based strategies degenerate to ES and only the six
//! remaining strategies are compared. Run with `--full` for the paper-scale
//! configuration.

use mcsched_exp::{CampaignConfig, CliOptions};
use mcsched_ptg::gen::PtgClass;

fn main() {
    let opts = CliOptions::from_env();
    let obs = opts.obs.start();
    let base = if opts.full {
        CampaignConfig::paper(PtgClass::Strassen)
    } else {
        CampaignConfig::quick(PtgClass::Strassen)
    };
    let config = CliOptions::or_exit(opts.configure_campaign(base));
    mcsched_obs::note!(
        "Figure 5: Strassen PTGs, {} combinations x 4 platforms x {} replications, \
         PTG counts {:?}, {} strategies",
        config.combinations,
        config.replications,
        config.ptg_counts,
        config.strategies.len()
    );
    opts.maybe_export_campaign_trace(&config);
    let result = CliOptions::or_exit(mcsched_exp::run_campaign(&config));
    opts.print_campaign_table(&config, &result);
    println!(
        "Expected shape (paper): WPS-work is ~25% less fair than ES but ~35% better on\n\
         makespan; PS-work remains the least fair / shortest-schedule strategy."
    );
    opts.write_campaign_csv(&config, &result);
    obs.finish();
}
