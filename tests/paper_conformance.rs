//! Paper-conformance tier: the paper's qualitative claims asserted as
//! *statistical* statements — paired-replication comparisons under common
//! random numbers, judged by seeded bootstrap confidence intervals and exact
//! sign tests (`mcsched_stats`) instead of bare point estimates.
//!
//! Two scales share one set of check functions:
//!
//! * a **smoke subset** (reduced combinations/replications) that always runs
//!   under `cargo test` and pins the machinery: determinism of the seeded
//!   intervals, pairing alignment, and the noise-tolerant bounds;
//! * the **paper-scale** checks (25 combinations × 4 platforms × 4
//!   replications per cell), `#[ignore]`d by default to keep `cargo test`
//!   fast. Run them with `cargo test --test paper_conformance -- --ignored`
//!   (CI runs this on every push).
//!
//! Measured paper-scale verdicts are recorded in ROADMAP.md (WPS-vs-PS) so
//! the asserted bands here are regression guards around *measured* reality,
//! not aspirations copied from the paper.
//!
//! The paper-scale driver understands the runtime's caching controls via
//! environment variables (tests have no CLI):
//! `MCSCHED_CACHE_DIR=<dir>` persists every evaluated cell in the
//! content-addressed cell cache, so an interrupted paper-scale run resumes
//! from its completed shards on the next invocation and a re-run after an
//! unrelated code change replays in seconds; `MCSCHED_NO_RESUME=1` clears
//! that directory first; `MCSCHED_PROGRESS=1` narrates data points on
//! stderr.

use mcsched::exp::{mu_policies, run_campaign, CampaignConfig};
use mcsched::prelude::*;
use mcsched::stats::{OrderingVerdict, PairedSamples};

/// One evaluation scale: how many combinations and paired replications every
/// cell aggregates (runs per cell = combinations × 4 platforms ×
/// replications).
#[derive(Clone, Copy)]
struct Scale {
    combinations: usize,
    replications: usize,
    /// Loosens the smoke-scale acceptance bands (1.0 at paper scale).
    slack: f64,
}

/// Reduced scale: fast enough for the default `cargo test` run.
const SMOKE: Scale = Scale {
    combinations: 2,
    replications: 2,
    slack: 5.0,
};

/// The paper's scale (100 runs per cell) times 4 paired replications.
const PAPER: Scale = Scale {
    combinations: 25,
    replications: 4,
    slack: 1.0,
};

const SEED: u64 = 0x5EED;

/// Reads the `MCSCHED_CACHE_DIR` / `MCSCHED_NO_RESUME` / `MCSCHED_PROGRESS`
/// environment controls — the conformance driver's equivalent of
/// `--cache-dir`/`--no-resume`/`--progress` — as `(cache_dir, resume,
/// progress)`. The single reader for both the campaign and µ-sweep paths,
/// so the two halves of the driver can never honour different protocols.
fn env_runtime_controls() -> (Option<std::path::PathBuf>, bool, bool) {
    (
        std::env::var_os("MCSCHED_CACHE_DIR").map(std::path::PathBuf::from),
        !std::env::var("MCSCHED_NO_RESUME").is_ok_and(|v| v == "1"),
        std::env::var("MCSCHED_PROGRESS").is_ok_and(|v| v == "1"),
    )
}

/// Applies [`env_runtime_controls`] to a campaign configuration.
fn with_env_runtime(mut config: CampaignConfig) -> CampaignConfig {
    (config.cache_dir, config.resume, config.progress) = env_runtime_controls();
    config
}

/// The width-calibrated DAGGEN source used by the Fig. 3 probes (ROADMAP).
fn daggen_grid() -> std::sync::Arc<dyn WorkloadSource> {
    WorkloadCatalog::builtin()
        .resolve("daggen-grid")
        .expect("calibrated spec resolves")
}

fn campaign(
    scale: Scale,
    source: std::sync::Arc<dyn WorkloadSource>,
    names: &[&str],
) -> CampaignConfig {
    let registry = PolicyRegistry::builtin();
    with_env_runtime(CampaignConfig {
        source,
        ptg_counts: vec![8],
        combinations: scale.combinations,
        replications: scale.replications,
        strategies: names
            .iter()
            .map(|n| registry.constraint(n).expect("registry names resolve"))
            .collect(),
        ..CampaignConfig::paper(AppGenerator::Random)
    })
}

fn ci_config() -> BootstrapConfig {
    BootstrapConfig::seeded(SEED)
}

/// Runs the Fig. 3 WPS-work vs PS-work comparison on the calibrated DAGGEN
/// generator and returns the paired unfairness differences (WPS − PS).
fn fig3_wps_vs_ps(scale: Scale) -> PairedSamples {
    let config = campaign(scale, daggen_grid(), &["ps-work", "wps-work"]);
    let result = run_campaign(&config).unwrap();
    result
        .paired_unfairness(8, "WPS-work", "PS-work")
        .expect("cells share scenarios")
}

/// Fig. 3 (paper claim: WPS-work is fairer than PS-work; measured: the gap
/// is a near-zero wash — see ROADMAP). The conformance statement is the
/// *measured* one: a deterministic, reproducible CI around the paired mean
/// difference that stays inside the recorded noise band.
fn check_fig3_wps_vs_ps(scale: Scale) {
    let paired = fig3_wps_vs_ps(scale);
    let expected_pairs = scale.combinations * 4 * scale.replications;
    assert_eq!(paired.len(), expected_pairs);

    let ci = paired.bootstrap_ci(&ci_config());
    let verdict = paired.verdict(&ci_config());
    eprintln!(
        "fig3 WPS-work vs PS-work unfairness ({} pairs): mean diff {:+.4}, CI {}, {}",
        paired.len(),
        paired.mean_diff(),
        ci,
        verdict
    );

    // The interval is seeded: recomputing it is bit-identical. (Whole-run
    // reproducibility — fresh campaign, same verdict — is pinned separately
    // by `smoke_verdicts_are_reproducible_across_processes`, so this avoids
    // doubling the minutes-long paper-scale campaign.)
    assert_eq!(ci, paired.bootstrap_ci(&ci_config()));

    // Regression band around the measured paper-scale reality (ROADMAP): the
    // calibrated generator leaves WPS-work within ±0.05 of PS-work — the
    // systematic reversal of the legacy generator must not come back, and a
    // sudden strict ordering would be just as suspicious a change.
    let band = 0.05 * scale.slack;
    assert!(
        ci.lo > -band && ci.hi < band,
        "paired CI {ci} escaped the measured ±{band:.3} noise band"
    );
}

/// Fig. 2 µ endpoints (unambiguous in the paper): µ = 1 (equal share) is
/// strictly fairer than µ = 0 (pure proportional share) at 8 concurrent
/// PTGs. Asserted as an ordering verdict over paired replications.
fn check_mu_endpoint_ordering(scale: Scale) {
    // The sweep honours the same env controls as the campaigns; the cell
    // formats are shared, so one MCSCHED_CACHE_DIR serves both.
    let (cache_dir, resume, progress) = env_runtime_controls();
    let config = CampaignConfig {
        strategies: mu_policies(&[0.0, 1.0]),
        ptg_counts: vec![8],
        combinations: scale.combinations,
        replications: scale.replications,
        cache_dir,
        resume,
        progress,
        ..CampaignConfig::paper(AppGenerator::Random)
    };
    let result = run_campaign(&config).unwrap();
    // a = µ=1 (ES), b = µ=0 (PS): the paper orders a below b.
    let paired = result
        .paired_unfairness(8, "WPS-work@1", "WPS-work@0")
        .expect("endpoints evaluated");
    let verdict = paired.verdict(&ci_config());
    eprintln!(
        "fig2 mu=1 vs mu=0 unfairness ({} pairs): mean diff {:+.4}, {}",
        paired.len(),
        paired.mean_diff(),
        verdict
    );
    if scale.slack <= 1.0 {
        // Paper scale: the strict ordering must reproduce.
        assert!(
            verdict.is_a_below_b(),
            "mu = 1 should be strictly fairer than mu = 0: {verdict}"
        );
    } else {
        // Smoke scale: the direction must not invert with significance.
        assert!(
            !matches!(
                verdict,
                OrderingVerdict::Ordered {
                    a_below_b: false,
                    ..
                }
            ),
            "mu = 0 must never be significantly fairer than mu = 1: {verdict}"
        );
        assert!(paired.mean_diff() < 0.05, "endpoint trend lost: {verdict}");
    }
}

/// Fig. 3's two-sided trade-off between ES and the share-based strategies on
/// random PTGs: ES is at least as fair as PS-work, while PS-work achieves
/// the better (relative) makespans under contention.
fn check_es_vs_share_based_gap(scale: Scale) {
    let config = campaign(
        scale,
        std::sync::Arc::new(GeneratorSource::new(AppGenerator::Random)),
        &["ps-work", "es"],
    );
    let result = run_campaign(&config).unwrap();

    let fairness = result
        .paired_unfairness(8, "ES", "PS-work")
        .expect("cells share scenarios");
    let fairness_verdict = fairness.verdict(&ci_config());
    let speed = result
        .paired_relative_makespan(8, "PS-work", "ES")
        .expect("cells share scenarios");
    let speed_verdict = speed.verdict(&ci_config());
    eprintln!(
        "fig3 ES vs PS-work ({} pairs): unfairness diff {:+.4} ({fairness_verdict}), \
         PS-work vs ES rel. makespan diff {:+.4} ({speed_verdict})",
        fairness.len(),
        fairness.mean_diff(),
        speed.mean_diff(),
    );

    // ES must never be significantly less fair than PS-work, and PS-work
    // never significantly slower than ES.
    assert!(
        !matches!(
            fairness_verdict,
            OrderingVerdict::Ordered {
                a_below_b: false,
                ..
            }
        ),
        "ES significantly less fair than PS-work: {fairness_verdict}"
    );
    assert!(
        !matches!(
            speed_verdict,
            OrderingVerdict::Ordered {
                a_below_b: false,
                ..
            }
        ),
        "PS-work significantly slower than ES: {speed_verdict}"
    );
    if scale.slack <= 1.0 {
        // Measured at paper scale (400 pairs, seed 0x5EED): ES is strictly
        // fairer (CI [-0.074, -0.006], p = 0.031) while the PS-work makespan
        // edge is a small negative mean (-0.015) whose CI still touches zero
        // (CI [-0.040, +0.009], p = 0.58). Assert exactly that: a strict
        // fairness ordering, and a makespan gap bounded by the measured band.
        assert!(
            fairness_verdict.is_a_below_b(),
            "ES should be strictly fairer than PS-work at paper scale: {fairness_verdict}"
        );
        let speed_ci = speed_verdict.ci();
        assert!(
            speed.mean_diff() < 0.02 && speed_ci.hi < 0.05,
            "PS-work's relative-makespan edge over ES regressed: {speed_verdict}"
        );
    }
}

// ---------------------------------------------------------------------------
// Smoke subset: always on.
// ---------------------------------------------------------------------------

#[test]
fn smoke_fig3_wps_vs_ps_ci_is_deterministic_and_in_band() {
    check_fig3_wps_vs_ps(SMOKE);
}

#[test]
fn smoke_mu_endpoint_ordering_does_not_invert() {
    check_mu_endpoint_ordering(SMOKE);
}

#[test]
fn smoke_es_vs_share_based_gap() {
    check_es_vs_share_based_gap(SMOKE);
}

#[test]
fn smoke_verdicts_are_reproducible_across_processes() {
    // The full chain — scenario draws, paired evaluation, bootstrap — is a
    // pure function of the configured seeds: two in-process runs must agree
    // bit-for-bit, which is what makes the paper-scale verdicts recordable
    // in the ROADMAP at all.
    let a = fig3_wps_vs_ps(SMOKE);
    let b = fig3_wps_vs_ps(SMOKE);
    assert_eq!(a, b);
    assert_eq!(a.verdict(&ci_config()), b.verdict(&ci_config()));
}

// ---------------------------------------------------------------------------
// Paper scale: run with `--ignored`.
// ---------------------------------------------------------------------------

#[test]
#[ignore = "paper scale (tier: 31 s debug, 3.5 s release, on 2 vCPUs); run with --ignored"]
fn paper_scale_fig3_wps_vs_ps_ci() {
    check_fig3_wps_vs_ps(PAPER);
}

#[test]
#[ignore = "paper scale (tier: 31 s debug, 3.5 s release, on 2 vCPUs); run with --ignored"]
fn paper_scale_mu_endpoint_ordering() {
    check_mu_endpoint_ordering(PAPER);
}

#[test]
#[ignore = "paper scale (tier: 31 s debug, 3.5 s release, on 2 vCPUs); run with --ignored"]
fn paper_scale_es_vs_share_based_gap() {
    check_es_vs_share_based_gap(PAPER);
}
