//! Reproduces Figure 3: unfairness and average relative makespan of the
//! eight resource-constraint determination strategies for randomly generated
//! PTGs (2-10 concurrent applications on the four Grid'5000 subsets).
//!
//! Run with `--full` for the paper-scale configuration.

use mcsched_exp::{CampaignConfig, CliOptions};
use mcsched_ptg::gen::PtgClass;

fn main() {
    let opts = CliOptions::from_env();
    let obs = opts.obs.start();
    let base = if opts.full {
        CampaignConfig::paper(PtgClass::Random)
    } else {
        CampaignConfig::quick(PtgClass::Random)
    };
    let config = CliOptions::or_exit(opts.configure_campaign(base));
    mcsched_obs::note!(
        "Figure 3: random PTGs, {} combinations x 4 platforms x {} replications, \
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
        "Expected shape (paper): ES, WPS-* and PS-width are fairer than the selfish S;\n\
         WPS-width is the fairest (about 2x better than S); PS-cp and PS-work are the least\n\
         fair but achieve the best makespans."
    );
    opts.write_campaign_csv(&config, &result);
    obs.finish();
}
