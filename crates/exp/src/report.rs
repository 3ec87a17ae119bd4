//! Text-table and CSV rendering of campaign results.
//!
//! Two families of renderers: the plain point-estimate tables of the paper
//! (`table_*` / `csv_*`, byte-identical to the pre-statistics harness), and
//! interval variants (`table_*_ci` / `csv_*_ci`) that print every cell as
//! `mean ±hw` where `hw` is the half-width of a seeded bootstrap percentile
//! confidence interval over the cell's retained per-run samples. The CI
//! seed is derived per cell from the [`mcsched_stats::BootstrapConfig`]'s
//! base seed and the cell's identity, so regenerating a report reproduces
//! its intervals bit-for-bit.
//!
//! The `*_campaign*` renderers lay a result out by strategy (Figures 3, 4
//! and 5); the `*_mu_sweep*` renderers lay a Figure 2 campaign — whose
//! strategies are [`crate::mu_sweep::mu_policies`] of a µ grid — out by µ.

use crate::campaign::{CampaignResult, StrategyPoint};
use mcsched_stats::{BootstrapConfig, Samples};
use std::fmt::Write as _;

/// Selects one metric's samples from a cell.
type Pick = for<'a> fn(&'a StrategyPoint) -> &'a Samples;

/// The two metrics of a strategy table: title, bootstrap-seed name, samples.
const CAMPAIGN_METRICS: [(&str, &str, Pick); 2] = [
    ("Unfairness", "unfairness", |p| &p.samples.unfairness),
    ("Average relative makespan", "relative_makespan", |p| {
        &p.samples.relative_makespan
    }),
];

/// The two metrics of a µ table (Figure 2 plots the plain makespan).
const MU_METRICS: [(&str, &str, Pick); 2] = [
    ("Unfairness", "unfairness", |p| &p.samples.unfairness),
    ("Average makespan (s)", "makespan", |p| &p.samples.makespan),
];

/// Renders one aligned text table per metric: one row per `(key, label)`
/// (`key` is printed and names the cell's bootstrap seed, `label` is the
/// campaign strategy) and one `width`-wide column per number of PTGs. Cells
/// are plain means, or `mean ±hw` under `ci`; missing cells print `-`.
fn grid_table(
    result: &CampaignResult,
    rows: &[(String, String)],
    (key_name, key_width): (&str, usize),
    width: usize,
    metrics: &[(&str, &str, Pick); 2],
    ci: Option<&BootstrapConfig>,
    heading: impl Fn(&str) -> String,
) -> String {
    let counts = result.ptg_counts();
    let mut out = String::new();
    for &(title, metric, pick) in metrics {
        let _ = writeln!(out, "== {} ==", heading(title));
        let _ = write!(out, "{key_name:<key_width$}");
        for c in &counts {
            let _ = write!(out, "{:>width$}", format!("{c} PTGs"));
        }
        let _ = writeln!(out);
        for (key, label) in rows {
            let _ = write!(out, "{key:<key_width$}");
            for &c in &counts {
                let cell = match (result.point(c, label), ci) {
                    (None, _) => "-".to_string(),
                    (Some(p), None) => format!("{:.3}", pick(p).mean()),
                    (Some(p), Some(config)) => {
                        ci_cell(pick(p), &cell_config(config, metric, c, key))
                    }
                };
                let _ = write!(out, "{cell:>width$}");
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out);
    }
    out
}

/// The strategy tables, plain or with intervals.
fn campaign_table(result: &CampaignResult, ci: Option<&BootstrapConfig>) -> String {
    let rows: Vec<(String, String)> = result
        .strategies()
        .into_iter()
        .map(|s| (s.clone(), s))
        .collect();
    let (width, suffix) = match ci {
        None => (10, String::new()),
        Some(c) => (16, format!(", mean ±ci{:.0}", c.level * 100.0)),
    };
    grid_table(
        result,
        &rows,
        ("strategy", 12),
        width,
        &CAMPAIGN_METRICS,
        ci,
        |title| format!("{title} ({} PTGs{suffix})", result.class),
    )
}

/// Renders a campaign result as two aligned text tables (unfairness and
/// average relative makespan), with one row per strategy and one column per
/// number of concurrent PTGs — the layout of Figures 3, 4 and 5.
pub fn table_campaign(result: &CampaignResult) -> String {
    campaign_table(result, None)
}

/// Renders a campaign result like [`table_campaign`], but with every cell as
/// `mean ±hw`: the half-width of the seeded bootstrap confidence interval
/// over the cell's per-run samples (level and resamples from `config`).
pub fn table_campaign_ci(result: &CampaignResult, config: &BootstrapConfig) -> String {
    campaign_table(result, Some(config))
}

/// Renders a campaign result as CSV
/// (`class,num_ptgs,strategy,unfairness,makespan,relative_makespan,runs`).
pub fn csv_campaign(result: &CampaignResult) -> String {
    let mut out =
        String::from("class,num_ptgs,strategy,unfairness,makespan,relative_makespan,runs\n");
    for p in &result.points {
        let _ = writeln!(
            out,
            "{},{},{},{:.6},{:.3},{:.6},{}",
            result.class,
            p.num_ptgs,
            p.strategy,
            p.unfairness,
            p.makespan,
            p.relative_makespan,
            p.runs
        );
    }
    out
}

/// The per-cell bootstrap configuration of a report: the base config with a
/// seed derived from the cell's identity.
fn cell_config(
    base: &BootstrapConfig,
    metric: &str,
    num_ptgs: usize,
    row: &str,
) -> BootstrapConfig {
    base.derive(&format!("{metric}/{num_ptgs}/{row}"))
}

/// Formats one `mean ±hw` cell from a sample set. Percentile intervals are
/// not centered on the sample mean (the cell samples are often skewed), so
/// `hw` is the *larger* of the two distances from the mean to the interval
/// bounds: `mean ± hw` always covers the true `[lo, hi]`. The CSV renderers
/// carry the exact asymmetric bounds.
fn ci_cell(samples: &Samples, config: &BootstrapConfig) -> String {
    let _p = mcsched_obs::span!("stats");
    let ci = samples.bootstrap_mean_ci(config);
    let mean = samples.mean();
    let hw = (ci.hi - mean).max(mean - ci.lo).max(0.0);
    format!("{mean:.3} ±{hw:.3}")
}

/// Renders a campaign result as CSV with interval columns
/// (`class,num_ptgs,strategy,unfairness,unfairness_lo,unfairness_hi,
/// makespan,relative_makespan,relative_lo,relative_hi,runs`).
pub fn csv_campaign_ci(result: &CampaignResult, config: &BootstrapConfig) -> String {
    let mut out = String::from(
        "class,num_ptgs,strategy,unfairness,unfairness_lo,unfairness_hi,\
         makespan,relative_makespan,relative_lo,relative_hi,runs\n",
    );
    for p in &result.points {
        let u_ci = p.samples.unfairness.bootstrap_mean_ci(&cell_config(
            config,
            "unfairness",
            p.num_ptgs,
            &p.strategy,
        ));
        let r_ci = p.samples.relative_makespan.bootstrap_mean_ci(&cell_config(
            config,
            "relative_makespan",
            p.num_ptgs,
            &p.strategy,
        ));
        let _ = writeln!(
            out,
            "{},{},{},{:.6},{:.6},{:.6},{:.3},{:.6},{:.6},{:.6},{}",
            result.class,
            p.num_ptgs,
            p.strategy,
            p.unfairness,
            u_ci.lo,
            u_ci.hi,
            p.makespan,
            p.relative_makespan,
            r_ci.lo,
            r_ci.hi,
            p.runs
        );
    }
    out
}

/// The rows of a µ sweep in grid order: each µ printed with two decimals
/// (the row key, which also seeds its bootstrap cells) next to its campaign
/// label. `result`'s strategies are `mu_policies(mu_values)`, in that order.
fn mu_rows(result: &CampaignResult, mu_values: &[f64]) -> Vec<(String, String)> {
    mu_values
        .iter()
        .zip(result.strategies())
        .map(|(mu, label)| (format!("{mu:.2}"), label))
        .collect()
}

/// The µ tables, plain or with intervals.
fn mu_table(result: &CampaignResult, mu_values: &[f64], ci: Option<&BootstrapConfig>) -> String {
    let (width, suffix) = match ci {
        None => (12, String::new()),
        Some(c) => (20, format!(" (mean ±ci{:.0})", c.level * 100.0)),
    };
    grid_table(
        result,
        &mu_rows(result, mu_values),
        ("mu", 8),
        width,
        &MU_METRICS,
        ci,
        |title| format!("{title} vs mu{suffix}"),
    )
}

/// Renders a µ sweep as two aligned text tables (unfairness and average
/// makespan), one row per µ and one column per number of PTGs — the layout
/// of Figure 2.
pub fn table_mu_sweep(result: &CampaignResult, mu_values: &[f64]) -> String {
    mu_table(result, mu_values, None)
}

/// Renders a µ sweep like [`table_mu_sweep`], but with every cell as
/// `mean ±hw` from the seeded bootstrap interval over the point's samples.
pub fn table_mu_sweep_ci(
    result: &CampaignResult,
    mu_values: &[f64],
    config: &BootstrapConfig,
) -> String {
    mu_table(result, mu_values, Some(config))
}

/// The cells of a µ sweep in CSV order (µ-major, PTG counts ascending),
/// each with its row key.
fn mu_cells<'a>(result: &'a CampaignResult, mu_values: &[f64]) -> Vec<(String, &'a StrategyPoint)> {
    let counts = result.ptg_counts();
    let mut cells = Vec::new();
    for (key, label) in mu_rows(result, mu_values) {
        for &c in &counts {
            if let Some(p) = result.point(c, &label) {
                cells.push((key.clone(), p));
            }
        }
    }
    cells
}

/// Renders a µ sweep as CSV with interval columns
/// (`mu,num_ptgs,unfairness,unfairness_lo,unfairness_hi,makespan,
/// makespan_lo,makespan_hi,runs`).
pub fn csv_mu_sweep_ci(
    result: &CampaignResult,
    mu_values: &[f64],
    config: &BootstrapConfig,
) -> String {
    let mut out = String::from(
        "mu,num_ptgs,unfairness,unfairness_lo,unfairness_hi,makespan,makespan_lo,makespan_hi,runs\n",
    );
    for (mu, p) in mu_cells(result, mu_values) {
        let u_ci = p.samples.unfairness.bootstrap_mean_ci(&cell_config(
            config,
            "unfairness",
            p.num_ptgs,
            &mu,
        ));
        let m_ci = p
            .samples
            .makespan
            .bootstrap_mean_ci(&cell_config(config, "makespan", p.num_ptgs, &mu));
        let _ = writeln!(
            out,
            "{mu},{},{:.6},{:.6},{:.6},{:.3},{:.3},{:.3},{}",
            p.num_ptgs, p.unfairness, u_ci.lo, u_ci.hi, p.makespan, m_ci.lo, m_ci.hi, p.runs
        );
    }
    out
}

/// Renders a µ sweep as CSV (`mu,num_ptgs,unfairness,makespan,runs`).
pub fn csv_mu_sweep(result: &CampaignResult, mu_values: &[f64]) -> String {
    let mut out = String::from("mu,num_ptgs,unfairness,makespan,runs\n");
    for (mu, p) in mu_cells(result, mu_values) {
        let _ = writeln!(
            out,
            "{mu},{},{:.6},{:.3},{}",
            p.num_ptgs, p.unfairness, p.makespan, p.runs
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CellSamples;

    /// Four runs centred on `mean` with a small spread.
    fn spread(mean: f64) -> Samples {
        Samples::from(vec![mean - 0.06, mean - 0.02, mean + 0.02, mean + 0.06])
    }

    fn point(
        num_ptgs: usize,
        strategy: &str,
        unfairness: f64,
        makespan: f64,
        rel: f64,
    ) -> StrategyPoint {
        StrategyPoint::from_samples(
            num_ptgs,
            strategy.into(),
            CellSamples {
                unfairness: spread(unfairness),
                makespan: spread(makespan),
                relative_makespan: spread(rel),
            },
        )
    }

    fn sample_campaign() -> CampaignResult {
        CampaignResult {
            class: "random".into(),
            points: vec![
                point(2, "S", 0.5, 100.0, 1.2),
                point(2, "ES", 0.3, 120.0, 1.4),
            ],
        }
    }

    #[test]
    fn campaign_table_contains_strategies_and_counts() {
        let t = table_campaign(&sample_campaign());
        assert!(t.contains("Unfairness"));
        assert!(t.contains("relative makespan"));
        assert!(t.contains("S"));
        assert!(t.contains("ES"));
        assert!(t.contains("2 PTGs"));
        assert!(t.contains("0.500"));
    }

    #[test]
    fn campaign_csv_has_header_and_rows() {
        let c = csv_campaign(&sample_campaign());
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("class,num_ptgs,strategy"));
        assert!(lines[1].contains("random,2,S"));
    }

    /// A µ sweep over {0, 1}, labelled as [`crate::run_campaign`] labels
    /// `mu_policies(&[0.0, 1.0])`.
    const SWEEP_MU: [f64; 2] = [0.0, 1.0];

    fn sample_sweep() -> CampaignResult {
        CampaignResult {
            class: "random".into(),
            points: vec![
                point(2, "WPS-work@0", 0.8, 200.0, 1.0),
                point(2, "WPS-work@1", 0.2, 260.0, 1.3),
            ],
        }
    }

    #[test]
    fn mu_table_lists_all_mu_values() {
        let t = table_mu_sweep(&sample_sweep(), &SWEEP_MU);
        assert!(t.contains("0.00"));
        assert!(t.contains("1.00"));
        assert!(t.contains("Average makespan"));
    }

    #[test]
    fn mu_csv_round_trip() {
        let c = csv_mu_sweep(&sample_sweep(), &SWEEP_MU);
        assert!(c.starts_with("mu,num_ptgs"));
        assert_eq!(c.lines().count(), 3);
        assert!(c.contains("0.00,2,0.800000,200.000,4"));
    }

    #[test]
    fn ci_tables_print_mean_plus_minus_half_width() {
        let cfg = BootstrapConfig::seeded(0x5EED);
        let t = table_campaign_ci(&sample_campaign(), &cfg);
        assert!(t.contains("mean ±ci95"), "got:\n{t}");
        assert!(t.contains("0.500 ±"), "got:\n{t}");
        assert!(t.contains('S') && t.contains("ES"));
        // Deterministic per seed.
        assert_eq!(t, table_campaign_ci(&sample_campaign(), &cfg));
        let other = table_campaign_ci(&sample_campaign(), &BootstrapConfig::seeded(1));
        assert_ne!(t, other, "a different base seed resamples differently");

        let m = table_mu_sweep_ci(&sample_sweep(), &SWEEP_MU, &cfg);
        assert!(m.contains("mean ±ci95"));
        assert!(m.contains("0.800 ±"));
        assert_eq!(m, table_mu_sweep_ci(&sample_sweep(), &SWEEP_MU, &cfg));
    }

    #[test]
    fn ci_level_flows_into_the_headers() {
        let cfg = BootstrapConfig::seeded(3).with_level(0.9);
        assert!(table_campaign_ci(&sample_campaign(), &cfg).contains("mean ±ci90"));
        assert!(table_mu_sweep_ci(&sample_sweep(), &SWEEP_MU, &cfg).contains("mean ±ci90"));
    }

    #[test]
    fn ci_csvs_carry_interval_columns_that_bracket_the_mean() {
        let cfg = BootstrapConfig::seeded(0x5EED);
        let c = csv_campaign_ci(&sample_campaign(), &cfg);
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("unfairness_lo,unfairness_hi"));
        let fields: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(fields.len(), 11);
        let (mean, lo, hi): (f64, f64, f64) = (
            fields[3].parse().unwrap(),
            fields[4].parse().unwrap(),
            fields[5].parse().unwrap(),
        );
        assert!(lo <= mean && mean <= hi, "{lo} <= {mean} <= {hi}");

        let s = csv_mu_sweep_ci(&sample_sweep(), &SWEEP_MU, &cfg);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("makespan_lo,makespan_hi"));
        let fields: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(fields.len(), 9);
        let (mean, lo, hi): (f64, f64, f64) = (
            fields[5].parse().unwrap(),
            fields[6].parse().unwrap(),
            fields[7].parse().unwrap(),
        );
        assert!(lo <= mean && mean <= hi);
    }
}
