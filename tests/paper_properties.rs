//! Qualitative properties reported in the paper's evaluation (Section 7),
//! checked on reduced workloads: the *shape* of the results (who is fairer,
//! who is faster) rather than the absolute numbers.

use mcsched::exp::{mu_policies, run_campaign, CampaignConfig};
use mcsched::prelude::*;

/// A small but non-trivial campaign: 3 combinations × 4 platforms × 4 PTGs.
fn small_campaign(generator: AppGenerator) -> CampaignConfig {
    CampaignConfig {
        ptg_counts: vec![4],
        combinations: 3,
        ..CampaignConfig::paper(generator)
    }
}

#[test]
fn equal_share_is_fairer_than_selfish_on_random_ptgs() {
    let result = run_campaign(&small_campaign(AppGenerator::Random)).unwrap();
    let es = result.point(4, "ES").expect("ES evaluated").unfairness;
    let s = result.point(4, "S").expect("S evaluated").unfairness;
    assert!(
        es <= s * 1.10 + 0.05,
        "ES (unfairness {es:.3}) should not be clearly less fair than S ({s:.3})"
    );
}

#[test]
fn weighting_towards_equal_share_does_not_clearly_hurt_fairness() {
    // The paper's WPS construction exists precisely because pure PS-work is
    // unfair to small applications: mixing in the equal share must not make
    // things clearly less fair. (The paper's stronger claims — strict
    // orderings between individual strategies — are sensitive to the width
    // distribution of the DAG generator and to sample size; at this reduced
    // sample only the weaker, noise-tolerant form is asserted.)
    let config = CampaignConfig {
        ptg_counts: vec![8],
        combinations: 3,
        ..CampaignConfig::paper(AppGenerator::Random)
    };
    let result = run_campaign(&config).unwrap();
    let ps_work = result.point(8, "PS-work").unwrap().unfairness;
    let wps_work = result.point(8, "WPS-work").unwrap().unfairness;
    let es = result.point(8, "ES").unwrap().unfairness;
    // Deliberately a *bound*, not the paper's strict WPS < PS ordering. The
    // ordering was re-probed at paper scale (25 combinations × 4 platforms =
    // 100 runs per cell, seeds 0x5EED/1/42/7, via
    // `mcsched-exp fig3 --combinations 25 --ptgs 8 --strategies ps-work,wps-work,es`):
    // WPS-work's unfairness exceeds PS-work's by a systematic 0.01–0.07 on
    // every seed with this legacy `n^width` generator. Re-probed with the
    // width-calibrated DAGGEN generator (`--workload daggen-grid`, same
    // scale and seeds): the gap shrinks to −0.007…+0.047 and changes sign
    // across seeds, i.e. the calibration removes the *systematic* reversal
    // but the strict ordering still does not reproduce cleanly (numbers
    // recorded in ROADMAP.md; see also
    // `calibrated_generator_narrows_the_wps_vs_ps_gap` below). The µ
    // endpoints (µ = 0 vs µ = 1), where the paper's signal is unambiguous,
    // are asserted strictly in `mu_interpolates_fairness_against_makespan`;
    // ES ≤ PS-work is asserted below and holds on every probed seed.
    assert!(
        wps_work <= ps_work * 1.15 + 0.05,
        "WPS-work ({wps_work:.3}) should not be clearly less fair than PS-work ({ps_work:.3})"
    );
    assert!(
        es <= ps_work + 0.05,
        "ES ({es:.3}) should be at least as fair as PS-work ({ps_work:.3})"
    );
}

#[test]
fn calibrated_generator_narrows_the_wps_vs_ps_gap() {
    // Same shape as `weighting_towards_equal_share_does_not_clearly_hurt_
    // fairness`, but drawing the random PTGs from the width-calibrated
    // DAGGEN generator (`daggen-grid`) and judging the gap through the
    // paired-replication machinery instead of re-deriving ad-hoc per-seed
    // deltas: all strategies see identical draws (common random numbers), so
    // the per-run unfairness vectors pair index-for-index and the statement
    // becomes a CI statement. Measured at paper scale (400 pairs, 4
    // replications of 100 runs, seed 0x5EED): mean diff +0.016, 95% CI
    // [-0.013, +0.047] — the legacy generator's systematic 0.01–0.07 excess
    // is gone (see `tests/paper_conformance.rs` and ROADMAP.md). At this
    // reduced scale we assert the correspondingly looser paired bound.
    let source = WorkloadCatalog::builtin()
        .resolve("daggen-grid")
        .expect("calibrated spec resolves");
    let config = CampaignConfig {
        source,
        ptg_counts: vec![8],
        combinations: 3,
        replications: 2,
        ..CampaignConfig::paper(AppGenerator::Random)
    };
    let result = run_campaign(&config).unwrap();
    let paired = result
        .paired_unfairness(8, "WPS-work", "PS-work")
        .expect("cells share scenarios");
    assert_eq!(
        paired.len(),
        24,
        "3 combinations x 4 platforms x 2 replications"
    );
    let ci = paired.bootstrap_ci(&BootstrapConfig::seeded(config.seed));
    assert!(
        ci.lo > -0.15 && ci.hi < 0.15,
        "calibrated WPS-work should track PS-work closely: mean diff {:+.4}, CI {ci}",
        paired.mean_diff()
    );
    // The interval is seeded and therefore reproducible bit-for-bit.
    assert_eq!(
        ci,
        paired.bootstrap_ci(&BootstrapConfig::seeded(config.seed))
    );
}

#[test]
fn proportional_work_achieves_competitive_makespans_under_contention() {
    // Figure 3 (right): with many concurrent PTGs the proportional strategies
    // produce the shortest schedules while ES pays for its wasted shares.
    let config = CampaignConfig {
        ptg_counts: vec![8],
        combinations: 3,
        ..CampaignConfig::paper(AppGenerator::Random)
    };
    let result = run_campaign(&config).unwrap();
    let ps_work = result.point(8, "PS-work").unwrap().relative_makespan;
    let es = result.point(8, "ES").unwrap().relative_makespan;
    let s = result.point(8, "S").unwrap().relative_makespan;
    assert!(
        ps_work <= es + 0.05,
        "PS-work (rel. makespan {ps_work:.3}) should not be slower than ES ({es:.3})"
    );
    assert!(
        ps_work <= s + 0.05,
        "PS-work (rel. makespan {ps_work:.3}) should not be slower than S ({s:.3})"
    );
}

#[test]
fn mu_interpolates_fairness_against_makespan() {
    // Figure 2: unfairness should trend down as mu goes from 0 to 1; the
    // paper also reports a makespan increase, which on reduced workloads we
    // only require not to be a large improvement.
    let config = CampaignConfig {
        strategies: mu_policies(&[0.0, 1.0]),
        ptg_counts: vec![8],
        combinations: 3,
        ..CampaignConfig::paper(AppGenerator::Random)
    };
    let result = run_campaign(&config).unwrap();
    let ps = result.point(8, "WPS-work@0").unwrap();
    let es = result.point(8, "WPS-work@1").unwrap();
    assert!(
        es.unfairness <= ps.unfairness + 0.05,
        "mu=1 (unfairness {:.3}) should be at least as fair as mu=0 ({:.3})",
        es.unfairness,
        ps.unfairness
    );
    assert!(
        es.makespan >= ps.makespan * 0.85,
        "mu=1 (makespan {:.1}) should not be dramatically shorter than mu=0 ({:.1})",
        es.makespan,
        ps.makespan
    );
}

#[test]
fn unfairness_grows_with_the_number_of_concurrent_ptgs() {
    // The paper notes that unfairness, being a sum over applications, grows
    // with the number of concurrent PTGs.
    let config = CampaignConfig {
        ptg_counts: vec![2, 8],
        combinations: 3,
        strategies: CampaignConfig::policies(&[ConstraintStrategy::EqualShare]),
        ..CampaignConfig::paper(AppGenerator::Random)
    };
    let result = run_campaign(&config).unwrap();
    let few = result.point(2, "ES").unwrap().unfairness;
    let many = result.point(8, "ES").unwrap().unfairness;
    assert!(
        many >= few,
        "unfairness with 8 PTGs ({many:.3}) should exceed unfairness with 2 ({few:.3})"
    );
}

#[test]
fn fft_campaign_is_overall_fairer_than_random_campaign() {
    // Figure 4: the regularity of FFT graphs yields lower unfairness than the
    // random PTGs of Figure 3 for the same strategies.
    let random = run_campaign(&small_campaign(AppGenerator::Random)).unwrap();
    let fft = run_campaign(&small_campaign(AppGenerator::Fft { points: None })).unwrap();
    let avg = |r: &mcsched::exp::CampaignResult| {
        let pts: Vec<f64> = r.points.iter().map(|p| p.unfairness).collect();
        pts.iter().sum::<f64>() / pts.len() as f64
    };
    assert!(
        avg(&fft) <= avg(&random) * 1.25,
        "FFT unfairness ({:.3}) should not dramatically exceed random ({:.3})",
        avg(&fft),
        avg(&random)
    );
}

#[test]
fn best_strategy_has_relative_makespan_close_to_one() {
    let result = run_campaign(&small_campaign(AppGenerator::Strassen)).unwrap();
    for &count in &result.ptg_counts() {
        let best = result
            .points
            .iter()
            .filter(|p| p.num_ptgs == count)
            .map(|p| p.relative_makespan)
            .fold(f64::INFINITY, f64::min);
        assert!(best >= 1.0 - 1e-9);
        assert!(
            best <= 1.15,
            "for {count} PTGs the best strategy should be near the per-run optimum (got {best:.3})"
        );
    }
}
