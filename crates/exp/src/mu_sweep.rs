//! µ-parameter calibration sweep (Figure 2).
//!
//! The WPS strategies interpolate between PS (µ = 0) and ES (µ = 1). Figure 2
//! of the paper plots, for the `WPS-work` variant on random PTGs, the
//! unfairness and the plain average makespan as µ spans
//! {0, 0.3, 0.5, 0.7, 0.8, 0.9, 1}: unfairness decreases with µ while the
//! makespan increases, and µ = 0.7 is chosen as the sweet spot.
//!
//! The sweep is a campaign ([`mu_campaign`]) whose strategies are the
//! `WPS-work` policies of the µ grid ([`mu_policies`]) on the random class: every µ sees identical
//! scenario draws, paired replications and the cell cache come for free,
//! and each row of the result is labelled by the policy's cache key
//! (`WPS-work@0`, `WPS-work@0.5`, ...). The µ renderers of
//! [`crate::report`] lay it out as Figure 2.

use crate::campaign::CampaignConfig;
use mcsched_core::policy::{ConstraintPolicy, WeightedShare};
use mcsched_core::Characteristic;
use mcsched_workload::AppGenerator;
use std::sync::Arc;

/// The µ grid of the paper's Figure 2.
pub const PAPER_MU_VALUES: [f64; 7] = [0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0];

/// The reduced µ grid of quick runs.
pub const QUICK_MU_VALUES: [f64; 3] = [0.0, 0.5, 1.0];

/// The `WPS-work` policies of a µ grid, in grid order: the strategies of a
/// Figure 2 campaign (see [`mu_campaign`]).
pub fn mu_policies(mu_values: &[f64]) -> Vec<Arc<dyn ConstraintPolicy>> {
    mu_values
        .iter()
        .map(|&mu| {
            Arc::new(WeightedShare::new(Characteristic::Work, mu)) as Arc<dyn ConstraintPolicy>
        })
        .collect()
}

/// Figure 2 as a campaign, with its µ grid: [`PAPER_MU_VALUES`] on
/// [`CampaignConfig::paper`] with `full`, [`QUICK_MU_VALUES`] on
/// [`CampaignConfig::quick`] otherwise, both for the random class.
pub fn mu_campaign(full: bool) -> (CampaignConfig, &'static [f64]) {
    let (base, mu_values): (_, &'static [f64]) = if full {
        (
            CampaignConfig::paper(AppGenerator::Random),
            &PAPER_MU_VALUES,
        )
    } else {
        (
            CampaignConfig::quick(AppGenerator::Random),
            &QUICK_MU_VALUES,
        )
    };
    let config = CampaignConfig {
        strategies: mu_policies(mu_values),
        ..base
    };
    (config, mu_values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignResult};

    fn tiny() -> CampaignConfig {
        CampaignConfig {
            strategies: mu_policies(&[0.0, 1.0]),
            ptg_counts: vec![2],
            combinations: 1,
            threads: 2,
            ..mu_campaign(false).0
        }
    }

    fn sweep(config: &CampaignConfig) -> CampaignResult {
        run_campaign(config).unwrap()
    }

    #[test]
    fn sweep_produces_one_point_per_mu_and_count() {
        let result = sweep(&tiny());
        assert_eq!(result.points.len(), 2);
        assert_eq!(result.strategies(), ["WPS-work@0", "WPS-work@1"]);
        for p in &result.points {
            assert_eq!(p.runs, 4);
            assert!(p.makespan > 0.0);
            assert!(p.unfairness >= 0.0);
            assert_eq!(p.samples.unfairness.len(), 4);
            assert_eq!(p.samples.unfairness.mean(), p.unfairness);
            assert_eq!(p.samples.makespan.mean(), p.makespan);
        }
    }

    #[test]
    fn mu_one_is_no_less_fair_than_mu_zero_on_average() {
        // µ = 1 is the equal share, which the paper shows to be fairer than
        // the pure proportional share (µ = 0). With a single combination this
        // should already hold or at least not be dramatically reversed.
        let result = sweep(&tiny());
        let at = |label: &str| result.point(2, label).unwrap().unfairness;
        assert!(at("WPS-work@1") <= at("WPS-work@0") + 0.5);
    }

    #[test]
    fn paper_config_matches_figure2_grid() {
        let (cfg, mu_values) = mu_campaign(true);
        assert_eq!(mu_values, [0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0]);
        assert_eq!(cfg.strategies.len(), mu_values.len());
        assert_eq!(cfg.strategies[3].cache_key(), "WPS-work@0.7");
        assert_eq!(cfg.ptg_counts, vec![2, 4, 6, 8, 10]);
        assert_eq!(cfg.combinations, 25);
        assert_eq!(cfg.replications, 1);
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(sweep(&tiny()), sweep(&tiny()));
    }

    #[test]
    fn replicated_sweeps_pair_mu_values_run_for_run() {
        let mut cfg = tiny();
        cfg.replications = 2;
        let result = sweep(&cfg);
        for p in &result.points {
            assert_eq!(p.runs, 8);
        }
        let paired = result
            .paired_unfairness(2, "WPS-work@0", "WPS-work@1")
            .unwrap();
        assert_eq!(paired.len(), 8);
        let at = |label: &str| result.point(2, label).unwrap().unfairness;
        assert!((paired.mean_diff() - (at("WPS-work@0") - at("WPS-work@1"))).abs() < 1e-12);
        assert!(result
            .paired_unfairness(2, "WPS-work@0", "WPS-work@0.25")
            .is_none());
        assert!(result
            .paired_unfairness(4, "WPS-work@0", "WPS-work@1")
            .is_none());
    }
}
