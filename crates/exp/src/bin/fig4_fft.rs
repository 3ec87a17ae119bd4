//! Reproduces Figure 4: unfairness and average relative makespan of the
//! eight strategies for FFT PTGs (regular graphs with limited task
//! parallelism). Run with `--full` for the paper-scale configuration.

use mcsched_exp::{CampaignConfig, CliOptions};
use mcsched_ptg::gen::PtgClass;

fn main() {
    let opts = CliOptions::from_env();
    let obs = opts.obs.start();
    let base = if opts.full {
        CampaignConfig::paper(PtgClass::Fft)
    } else {
        CampaignConfig::quick(PtgClass::Fft)
    };
    let config = CliOptions::or_exit(opts.configure_campaign(base));
    mcsched_obs::note!(
        "Figure 4: FFT PTGs, {} combinations x 4 platforms x {} replications, \
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
        "Expected shape (paper): overall lower unfairness than for random PTGs; PS-width\n\
         becomes the second-fairest strategy; ES produces clearly the worst makespans\n\
         (up to ~2x the best for 10 concurrent PTGs)."
    );
    opts.write_campaign_csv(&config, &result);
    obs.finish();
}
