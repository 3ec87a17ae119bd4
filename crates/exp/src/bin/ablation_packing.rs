//! Ablation: effect of the allocation-packing mechanism of the mapping step
//! (Section 5 of the paper) on unfairness and makespan.

use mcsched_core::policy::ListMapping;
use mcsched_core::MappingConfig;
use mcsched_exp::{report, CampaignConfig, CliOptions};
use mcsched_ptg::gen::PtgClass;
use std::sync::Arc;

fn main() {
    let opts = CliOptions::from_env();
    let obs = opts.obs.start();
    for packing in [true, false] {
        let base = if opts.full {
            CampaignConfig::paper(PtgClass::Random)
        } else {
            CampaignConfig::quick(PtgClass::Random)
        };
        let mut config = CliOptions::or_exit(opts.configure_campaign(base));
        config.base.mapping = Arc::new(ListMapping::new(MappingConfig {
            packing,
            ..MappingConfig::default()
        }));
        // Both arms consume identical workloads; export once, up front.
        if packing {
            opts.maybe_export_campaign_trace(&config);
        }
        mcsched_obs::note!(
            "Ablation (packing = {packing}): {} combinations x 4 platforms, PTG counts {:?}",
            config.combinations,
            config.ptg_counts
        );
        let result = CliOptions::or_exit(mcsched_exp::run_campaign(&config));
        println!("#### allocation packing: {packing} ####");
        println!("{}", report::table_campaign(&result));
    }
    println!(
        "Expected shape: packing removes the idle holes created when a task waits for a\n\
         slightly-too-large processor set, so makespans without packing should be no better\n\
         than with it."
    );
    obs.finish();
}
