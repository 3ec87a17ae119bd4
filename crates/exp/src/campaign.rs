//! Strategy-comparison campaigns (Figures 3, 4 and 5).
//!
//! Campaigns evaluate every strategy on *identical* scenario draws (common
//! random numbers) and, with [`CampaignConfig::replications`] > 1, repeat
//! the whole grid on fresh, deterministically derived seeds. Every cell
//! retains its per-run samples ([`CellSamples`]), so results support both
//! the paper's point-estimate tables (bit-identical to the pre-statistics
//! harness at one replication) and interval estimates: bootstrap confidence
//! intervals per cell and paired-difference orderings between strategies
//! ([`CampaignResult::paired_unfairness`] et al.).

use crate::cells;
use mcsched_core::policy::ConstraintPolicy;
use mcsched_core::{ConstraintStrategy, SchedError, SchedulerConfig};
use mcsched_stats::{PairedSamples, Samples};
use mcsched_workload::{AppGenerator, GeneratorSource, WorkloadSource};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Configuration of a strategy-comparison campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The workload source producing the concurrent applications. The
    /// paper configurations draw batches from one [`AppGenerator`]; any
    /// source resolved from the `mcsched-workload` catalog (DAGGEN
    /// configurations, mixtures, timed arrivals, replayed traces) slots in
    /// here.
    pub source: Arc<dyn WorkloadSource>,
    /// Numbers of concurrent PTGs to evaluate (the paper uses 2, 4, 6, 8, 10).
    pub ptg_counts: Vec<usize>,
    /// Number of random application combinations per data point (25 in the
    /// paper, i.e. 100 runs per point once multiplied by the 4 platforms).
    pub combinations: usize,
    /// The constraint policies to compare. Built-in strategies convert with
    /// [`ConstraintStrategy::to_policy`] (see [`CampaignConfig::policies`]);
    /// policies registered on a [`mcsched_core::PolicyRegistry`] — including
    /// user-defined ones — slot in by name.
    pub strategies: Vec<Arc<dyn ConstraintPolicy>>,
    /// Base pipeline shared by all strategies: its allocation and mapping
    /// policies run every strategy, whose policy replaces its constraint.
    pub base: SchedulerConfig,
    /// Base random seed.
    pub seed: u64,
    /// Number of paired replications: how many times the full
    /// `ptg_counts × combinations` grid is redrawn on a fresh seed derived
    /// by [`crate::scenario::replication_seed`]. Within each replication all strategies see
    /// byte-identical workloads; 1 (the default) reproduces the
    /// pre-statistics harness exactly.
    pub replications: usize,
    /// Number of worker threads (0 = one per available core).
    pub threads: usize,
    /// Directory of the on-disk content-addressed cell cache (`--cache-dir`).
    /// `None` (the default) disables caching entirely: every cell is
    /// recomputed, exactly like the pre-runtime harness.
    pub cache_dir: Option<PathBuf>,
    /// Whether to serve cells already present in `cache_dir` (`true`, the
    /// default) or to clear the store and start cold (`--no-resume`). Only
    /// meaningful with a `cache_dir`.
    pub resume: bool,
    /// Whether to narrate one stderr line per completed data point
    /// (`--progress`). Never touches stdout, so the figure tables stay
    /// byte-identical.
    pub progress: bool,
    /// `Some((index, of))` runs only partition `index` of a deterministic
    /// `of`-way split of the campaign's scenarios (`--shard i/N`), keyed by
    /// each scenario's digest: all cells of a scenario go to one shard, so
    /// a fleet computes each dedicated baseline once. Cells of
    /// out-of-partition scenarios are skipped entirely (not evaluated, not
    /// cached) and render as NaN. N such runs with disjoint `cache_dir`s
    /// fill disjoint caches; merge them (`mcsched-exp merge`) and re-run
    /// unsharded+warm to produce tables byte-identical to a single-process
    /// run. The split balances scenario counts, not cost, and a small grid
    /// can leave a shard empty. Every shard of one fleet must run the same
    /// build: a fleet mixing this split with the older per-cell one can
    /// leave cells no shard computed, which the warm run then computes.
    /// `None` (the default) evaluates everything.
    pub shard: Option<(usize, usize)>,
    /// Fleet obs directory (`--obs-dir`): the run writes a
    /// `run-<shard>.manifest.json` + heartbeat there while running and its
    /// per-shard journal/metrics exports at the end, so `mcsched-exp top`
    /// and `obs-merge` can watch and union a sharded fleet. `None`
    /// (the default) records nothing.
    pub obs_dir: Option<PathBuf>,
}

impl CampaignConfig {
    /// Converts a set of built-in strategy constructors into campaign
    /// policies.
    pub fn policies(strategies: &[ConstraintStrategy]) -> Vec<Arc<dyn ConstraintPolicy>> {
        strategies.iter().map(|s| s.to_policy()).collect()
    }

    /// The paper's full configuration for one application generator, with
    /// the strategy set of its figure: Strassen's (Figure 5), FFT's
    /// (Figure 4), or the random PTGs' (Figure 3) for any other generator.
    pub fn paper(generator: AppGenerator) -> Self {
        let strategies = match generator {
            AppGenerator::Strassen => ConstraintStrategy::strassen_set(),
            AppGenerator::Fft { .. } => ConstraintStrategy::paper_set_fft(),
            _ => ConstraintStrategy::paper_set(),
        };
        Self {
            source: Arc::new(GeneratorSource::new(generator)),
            ptg_counts: vec![2, 4, 6, 8, 10],
            combinations: 25,
            strategies: Self::policies(&strategies),
            base: SchedulerConfig::default(),
            seed: 0x5EED,
            replications: 1,
            threads: 0,
            cache_dir: None,
            resume: true,
            progress: false,
            shard: None,
            obs_dir: None,
        }
    }

    /// A reduced configuration for quick runs, CI and benchmarks: fewer
    /// combinations and PTG counts but the same strategies.
    pub fn quick(generator: AppGenerator) -> Self {
        Self {
            ptg_counts: vec![2, 4],
            combinations: 2,
            ..Self::paper(generator)
        }
    }
}

/// Per-run samples of one (PTG count, strategy) cell, in scenario order.
///
/// Within one cell, index `i` of every vector is the same scenario; across
/// the cells of one PTG count, index `i` of *different strategies* is also
/// the same scenario (common random numbers), which is what makes the
/// vectors pairable through [`mcsched_stats::PairedSamples`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellSamples {
    /// Per-run unfairness.
    pub unfairness: Samples,
    /// Per-run global makespan (seconds).
    pub makespan: Samples,
    /// Per-run makespan relative to the best strategy of the same run.
    pub relative_makespan: Samples,
}

/// Aggregated result for one (number of PTGs, strategy) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyPoint {
    /// Number of concurrent PTGs.
    pub num_ptgs: usize,
    /// Strategy name.
    pub strategy: String,
    /// Unfairness averaged over all runs of the cell.
    pub unfairness: f64,
    /// Plain average makespan over all runs (seconds).
    pub makespan: f64,
    /// Makespan divided by the best strategy's makespan of the same run,
    /// averaged over all runs.
    pub relative_makespan: f64,
    /// Number of runs aggregated.
    pub runs: usize,
    /// The raw per-run samples behind the means.
    pub samples: CellSamples,
}

impl StrategyPoint {
    /// Builds a point from its per-run samples (the means are the in-order
    /// sample means, matching the legacy accumulator bit-for-bit).
    #[must_use]
    pub fn from_samples(num_ptgs: usize, strategy: String, samples: CellSamples) -> Self {
        Self {
            num_ptgs,
            strategy,
            unfairness: samples.unfairness.mean(),
            makespan: samples.makespan.mean(),
            relative_makespan: samples.relative_makespan.mean(),
            runs: samples.unfairness.len(),
            samples,
        }
    }
}

/// Result of a campaign: one [`StrategyPoint`] per (PTG count, strategy).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Application class label.
    pub class: String,
    /// The aggregated points, ordered by PTG count then strategy.
    pub points: Vec<StrategyPoint>,
}

impl CampaignResult {
    /// Looks up one cell.
    pub fn point(&self, num_ptgs: usize, strategy: &str) -> Option<&StrategyPoint> {
        self.points
            .iter()
            .find(|p| p.num_ptgs == num_ptgs && p.strategy == strategy)
    }

    /// The distinct strategy names, in campaign order.
    pub fn strategies(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for p in &self.points {
            if !seen.contains(&p.strategy) {
                seen.push(p.strategy.clone());
            }
        }
        seen
    }

    /// The distinct PTG counts, ascending.
    pub fn ptg_counts(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.points.iter().map(|p| p.num_ptgs).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Paired per-run differences of a metric between two strategies of the
    /// same cell (`a - b`, run by run under common random numbers).
    /// `None` when either cell is missing or their run counts differ (which
    /// would mean the cells were not drawn from the same scenarios).
    pub fn paired(
        &self,
        num_ptgs: usize,
        a: &str,
        b: &str,
        metric: impl Fn(&CellSamples) -> &Samples,
    ) -> Option<PairedSamples> {
        let pa = metric(&self.point(num_ptgs, a)?.samples);
        let pb = metric(&self.point(num_ptgs, b)?.samples);
        if pa.len() != pb.len() {
            return None;
        }
        Some(PairedSamples::of(pa.values(), pb.values()))
    }

    /// [`CampaignResult::paired`] over the unfairness metric.
    pub fn paired_unfairness(&self, num_ptgs: usize, a: &str, b: &str) -> Option<PairedSamples> {
        self.paired(num_ptgs, a, b, |c| &c.unfairness)
    }

    /// [`CampaignResult::paired`] over the relative makespan metric.
    pub fn paired_relative_makespan(
        &self,
        num_ptgs: usize,
        a: &str,
        b: &str,
    ) -> Option<PairedSamples> {
        self.paired(num_ptgs, a, b, |c| &c.relative_makespan)
    }
}

/// One report label per policy. Display names are used as-is when unique;
/// policies sharing a display name (e.g. `wps-work@0.3` next to
/// `wps-work@0.7`, whose names are both `WPS-work`) fall back to their
/// parameter-carrying cache key so every row of the result stays
/// distinguishable and addressable through [`CampaignResult::point`].
pub(crate) fn strategy_labels(strategies: &[Arc<dyn ConstraintPolicy>]) -> Vec<String> {
    let names: Vec<String> = strategies.iter().map(|p| p.name()).collect();
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let duplicated = names
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && other == name);
            if duplicated {
                strategies[i].cache_key()
            } else {
                name.clone()
            }
        })
        .collect()
}

/// Runs a campaign: for every replication, every PTG count, every
/// combination and every platform, evaluates all strategies on the same
/// workload draw and aggregates unfairness and (relative) makespans into
/// per-cell sample sets.
///
/// Work runs on the scoped fan-out of `mcsched-runtime`
/// ([`CampaignConfig::threads`] threads): one fan-out over the whole grid,
/// one task per combination, each generating its applications and
/// evaluating their four site scenarios. With [`CampaignConfig::cache_dir`]
/// set, every (scenario, policy) cell is served from the content-addressed
/// cell cache when present and stored after evaluation, with one flush per
/// completed data point, in grid order — re-runs skip finished work and
/// interrupted runs resume from the completed shards (see
/// [`crate::cells`]).
///
/// Each scenario drives all strategies through one shared
/// [`mcsched_core::ScheduleContext`] (the paired-evaluation path), so the
/// dedicated baselines are simulated once per (platform, application) pair
/// and every strategy sees byte-identical workloads. Results are
/// deterministic because aggregation follows scenario order, not
/// completion order: output is byte-identical at any thread count and
/// whether cells came from the cache or from evaluation.
///
/// # Errors
///
/// Propagates workload-generation failures from
/// [`CampaignConfig::source`] (e.g. a replayed trace missing a requested
/// combination) and cache-directory failures from
/// [`CampaignConfig::cache_dir`].
pub fn run_campaign(config: &CampaignConfig) -> Result<CampaignResult, SchedError> {
    let labels = strategy_labels(&config.strategies);
    let job = cells::CellJob::new(config)?;

    // (num_ptgs, strategy index) -> per-run samples, aggregated in grid
    // order (identical to the sequential order of the legacy harness).
    let mut cells_map: BTreeMap<(usize, usize), CellSamples> = BTreeMap::new();
    for (num_ptgs, per_scenario) in job.run_grid()? {
        for outcomes in per_scenario {
            let best = outcomes
                .iter()
                .map(|o| o.makespan)
                .filter(|m| *m > 0.0)
                .fold(f64::INFINITY, f64::min);
            for (si, outcome) in outcomes.iter().enumerate() {
                let cell = cells_map.entry((num_ptgs, si)).or_default();
                cell.unfairness.push(outcome.unfairness);
                cell.makespan.push(outcome.makespan);
                cell.relative_makespan
                    .push(if best.is_finite() && best > 0.0 {
                        outcome.makespan / best
                    } else {
                        1.0
                    });
            }
        }
    }

    let points = cells_map
        .into_iter()
        .map(|((num_ptgs, si), cell)| {
            StrategyPoint::from_samples(num_ptgs, labels[si].clone(), cell)
        })
        .collect();

    Ok(CampaignResult {
        class: config.source.short_label(),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_stats::BootstrapConfig;

    fn tiny_config() -> CampaignConfig {
        CampaignConfig {
            ptg_counts: vec![2],
            combinations: 1,
            strategies: CampaignConfig::policies(&[
                ConstraintStrategy::Selfish,
                ConstraintStrategy::EqualShare,
            ]),
            threads: 2,
            ..CampaignConfig::paper(AppGenerator::Strassen)
        }
    }

    #[test]
    fn replication_seed_matches_the_batch_harness_formula() {
        // Batch and online campaigns both redraw replication `r` on this
        // seed: replication 0 is the base seed, later ones step by the
        // golden-ratio increment.
        use crate::scenario::replication_seed;
        assert_eq!(replication_seed(42, 0), 42);
        assert_eq!(
            replication_seed(42, 3),
            42u64.wrapping_add(3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        );
    }

    #[test]
    fn campaign_produces_one_point_per_cell() {
        let result = run_campaign(&tiny_config()).unwrap();
        assert_eq!(result.points.len(), 2);
        assert_eq!(result.strategies(), vec!["S".to_string(), "ES".to_string()]);
        assert_eq!(result.ptg_counts(), vec![2]);
        for p in &result.points {
            // 1 combination × 4 platforms
            assert_eq!(p.runs, 4);
            assert!(p.makespan > 0.0);
            assert!(p.relative_makespan >= 1.0 - 1e-9);
            assert!(p.unfairness >= 0.0);
            // Samples back the means exactly (in-order sum).
            assert_eq!(p.samples.unfairness.len(), 4);
            assert_eq!(p.samples.unfairness.mean(), p.unfairness);
            assert_eq!(p.samples.makespan.mean(), p.makespan);
            assert_eq!(p.samples.relative_makespan.mean(), p.relative_makespan);
        }
    }

    #[test]
    fn relative_makespan_best_strategy_close_to_one() {
        let result = run_campaign(&tiny_config()).unwrap();
        let best: f64 = result
            .points
            .iter()
            .map(|p| p.relative_makespan)
            .fold(f64::INFINITY, f64::min);
        assert!(best >= 1.0 - 1e-9);
        assert!(
            best < 1.5,
            "some strategy should be near the per-run optimum"
        );
    }

    #[test]
    fn campaign_is_deterministic_regardless_of_threads() {
        let mut cfg = tiny_config();
        cfg.threads = 1;
        let a = run_campaign(&cfg).unwrap();
        cfg.threads = 4;
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cached_campaigns_reproduce_uncached_results_bit_for_bit() {
        let dir = std::env::temp_dir().join(format!(
            "mcsched-campaign-cache-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let baseline = run_campaign(&tiny_config()).unwrap();
        let mut cfg = tiny_config();
        cfg.cache_dir = Some(dir.clone());
        let cold = run_campaign(&cfg).unwrap();
        let warm = run_campaign(&cfg).unwrap();
        // PartialEq over retained Samples compares every f64 exactly: the
        // cold run matches the uncached baseline and the warm run (served
        // from disk) matches both.
        assert_eq!(cold, baseline);
        assert_eq!(warm, baseline);
        // no-resume clears the store and recomputes, still bit-identical.
        cfg.resume = false;
        let fresh = run_campaign(&cfg).unwrap();
        assert_eq!(fresh, baseline);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paper_and_quick_configs_expose_expected_shape() {
        let paper = CampaignConfig::paper(AppGenerator::Random);
        assert_eq!(paper.ptg_counts, vec![2, 4, 6, 8, 10]);
        assert_eq!(paper.combinations, 25);
        assert_eq!(paper.strategies.len(), 8);
        assert_eq!(paper.replications, 1);
        let quick = CampaignConfig::quick(AppGenerator::Strassen);
        assert!(quick.combinations < paper.combinations);
        assert_eq!(quick.strategies.len(), 6);
    }

    #[test]
    fn same_named_policies_get_disambiguated_labels() {
        use mcsched_core::policy::WeightedShare;
        use mcsched_core::Characteristic;
        let config = CampaignConfig {
            strategies: vec![
                Arc::new(WeightedShare::new(Characteristic::Work, 0.3)),
                Arc::new(WeightedShare::new(Characteristic::Work, 0.7)),
            ],
            ..tiny_config()
        };
        let result = run_campaign(&config).unwrap();
        assert_eq!(
            result.strategies(),
            vec!["WPS-work@0.3".to_string(), "WPS-work@0.7".to_string()]
        );
        let a = result.point(2, "WPS-work@0.3").unwrap();
        let b = result.point(2, "WPS-work@0.7").unwrap();
        assert!(a.makespan > 0.0 && b.makespan > 0.0);
    }

    #[test]
    fn point_lookup() {
        let result = run_campaign(&tiny_config()).unwrap();
        assert!(result.point(2, "S").is_some());
        assert!(result.point(2, "WPS-width").is_none());
        assert!(result.point(4, "S").is_none());
    }

    #[test]
    fn replications_multiply_runs_and_change_later_draws_only() {
        let mut cfg = tiny_config();
        let single = run_campaign(&cfg).unwrap();
        cfg.replications = 3;
        let triple = run_campaign(&cfg).unwrap();
        for (a, b) in single.points.iter().zip(&triple.points) {
            assert_eq!(b.runs, 3 * a.runs);
            // Replication 0 draws exactly the single-replication scenarios:
            // the first `a.runs` samples coincide bit-for-bit.
            assert_eq!(
                &b.samples.unfairness.values()[..a.runs],
                a.samples.unfairness.values()
            );
            // Later replications are fresh draws, not repeats of the first.
            assert_ne!(
                &b.samples.makespan.values()[a.runs..2 * a.runs],
                &b.samples.makespan.values()[..a.runs]
            );
        }
    }

    #[test]
    fn paired_metrics_align_run_for_run() {
        let mut cfg = tiny_config();
        cfg.replications = 2;
        let result = run_campaign(&cfg).unwrap();
        let paired = result.paired_unfairness(2, "S", "ES").unwrap();
        assert_eq!(paired.len(), 8);
        let s = result.point(2, "S").unwrap();
        let es = result.point(2, "ES").unwrap();
        for (i, d) in paired.diffs().iter().enumerate() {
            let expect = s.samples.unfairness.values()[i] - es.samples.unfairness.values()[i];
            assert_eq!(*d, expect);
        }
        // Paired mean difference equals the difference of means.
        assert!((paired.mean_diff() - (s.unfairness - es.unfairness)).abs() < 1e-12);
        // CIs computed from the retained samples are deterministic.
        let bc = BootstrapConfig::seeded(9);
        assert_eq!(paired.bootstrap_ci(&bc), paired.bootstrap_ci(&bc));
        // Unknown strategies pair to None.
        assert!(result.paired_unfairness(2, "S", "nope").is_none());
        assert!(result.paired_relative_makespan(2, "S", "ES").is_some());
    }
}
