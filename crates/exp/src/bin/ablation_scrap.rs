//! Ablation: SCRAP (global constraint) versus SCRAP-MAX (per-level
//! constraint) as the allocation procedure of the concurrent scheduler
//! (Section 4 of the paper keeps only SCRAP-MAX; this binary quantifies the
//! difference).

use mcsched_core::PolicyRegistry;
use mcsched_exp::{report, CampaignConfig, CliOptions};
use mcsched_ptg::gen::PtgClass;

fn main() {
    let opts = CliOptions::from_env();
    let obs = opts.obs.start();
    let registry = PolicyRegistry::builtin();
    for name in ["scrap", "scrap-max"] {
        let procedure = CliOptions::or_exit(registry.allocation(name));
        let label = procedure.name();
        let base = if opts.full {
            CampaignConfig::paper(PtgClass::Random)
        } else {
            CampaignConfig::quick(PtgClass::Random)
        };
        let mut config = CliOptions::or_exit(opts.configure_campaign(base));
        config.base.allocation = procedure;
        // Both arms consume identical workloads; export once, up front.
        if name == "scrap" {
            opts.maybe_export_campaign_trace(&config);
        }
        mcsched_obs::note!(
            "Ablation ({label}): {} combinations x 4 platforms, PTG counts {:?}",
            config.combinations,
            config.ptg_counts
        );
        let result = CliOptions::or_exit(mcsched_exp::run_campaign(&config));
        println!("#### allocation procedure: {label} ####");
        println!("{}", report::table_campaign(&result));
    }
    println!(
        "Expected shape (paper, Section 4): both procedures respect their constraint, but\n\
         SCRAP can concentrate large allocations on a few tasks, postponing them at mapping\n\
         time; SCRAP-MAX's per-level constraint avoids this and yields shorter schedules\n\
         when the constraint is loose."
    );
    obs.finish();
}
