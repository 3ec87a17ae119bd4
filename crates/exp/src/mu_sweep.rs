//! µ-parameter calibration sweep (Figure 2).
//!
//! The WPS strategies interpolate between PS (µ = 0) and ES (µ = 1). Figure 2
//! of the paper plots, for the `WPS-work` variant on random PTGs, the
//! unfairness and the plain average makespan as µ spans
//! {0, 0.3, 0.5, 0.7, 0.8, 0.9, 1}: unfairness decreases with µ while the
//! makespan increases, and µ = 0.7 is chosen as the sweet spot.
//!
//! Like the campaigns, the sweep evaluates every µ on identical scenario
//! draws and supports paired replications ([`MuSweepConfig::replications`]);
//! every point retains its per-run samples for interval estimates.

use crate::cells;
use mcsched_core::policy::{ConstraintPolicy, WeightedShare};
use mcsched_core::{Characteristic, SchedError, SchedulerConfig};
use mcsched_ptg::gen::PtgClass;
use mcsched_stats::{PairedSamples, Samples};
use mcsched_workload::{GeneratorSource, WorkloadSource};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Configuration of a µ sweep.
#[derive(Debug, Clone)]
pub struct MuSweepConfig {
    /// The workload source (Figure 2 uses the random class; any
    /// `mcsched-workload` catalog source slots in).
    pub source: Arc<dyn WorkloadSource>,
    /// Characteristic of the WPS variant being calibrated.
    pub characteristic: Characteristic,
    /// µ values to evaluate.
    pub mu_values: Vec<f64>,
    /// Numbers of concurrent PTGs (2, 4, 6, 8, 10 in the paper).
    pub ptg_counts: Vec<usize>,
    /// Random application combinations per data point.
    pub combinations: usize,
    /// Base pipeline: its allocation and mapping policies run every µ
    /// point's weighted policy.
    pub base: SchedulerConfig,
    /// Base random seed.
    pub seed: u64,
    /// Number of paired replications (fresh seeds via
    /// [`crate::scenario::replication_seed`]; 1 reproduces the pre-statistics sweep).
    pub replications: usize,
    /// Worker threads (0 = one per core).
    pub threads: usize,
    /// Directory of the on-disk content-addressed cell cache (`--cache-dir`;
    /// `None` disables caching). µ-sweep cells share the campaign cell
    /// format: a sweep and a campaign pointed at the same directory reuse
    /// each other's overlapping cells.
    pub cache_dir: Option<PathBuf>,
    /// Serve cells already in `cache_dir` (`true`, the default) or clear
    /// the store first (`--no-resume`).
    pub resume: bool,
    /// Narrate one stderr line per completed data point (`--progress`).
    pub progress: bool,
    /// `Some((index, of))` runs only partition `index` of a deterministic
    /// `of`-way split of the cell grid (`--shard i/N`); see
    /// [`crate::CampaignConfig::shard`] — sweeps shard by the same digest
    /// partition, so a sharded sweep and a sharded campaign sharing a
    /// cache dir stay consistent.
    pub shard: Option<(usize, usize)>,
    /// Fleet obs directory (`--obs-dir`); see
    /// [`crate::CampaignConfig::obs_dir`].
    pub obs_dir: Option<PathBuf>,
}

impl MuSweepConfig {
    /// The paper's Figure 2 configuration (WPS-work, random PTGs).
    pub fn paper() -> Self {
        Self {
            source: Arc::new(GeneratorSource::from_class(PtgClass::Random)),
            characteristic: Characteristic::Work,
            mu_values: vec![0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0],
            ptg_counts: vec![2, 4, 6, 8, 10],
            combinations: 25,
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

    /// A reduced configuration for quick runs and benchmarks.
    pub fn quick() -> Self {
        Self {
            mu_values: vec![0.0, 0.5, 1.0],
            ptg_counts: vec![2, 4],
            combinations: 2,
            ..Self::paper()
        }
    }
}

/// Per-run samples of one (µ, PTG count) point, in scenario order (aligned
/// across the µ values of the sweep: same index, same scenario).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MuSamples {
    /// Per-run unfairness.
    pub unfairness: Samples,
    /// Per-run global makespan (seconds).
    pub makespan: Samples,
}

/// One aggregated point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MuSweepPoint {
    /// µ value.
    pub mu: f64,
    /// Number of concurrent PTGs.
    pub num_ptgs: usize,
    /// Average unfairness over the runs.
    pub unfairness: f64,
    /// Plain average makespan over the runs (seconds), as in Figure 2.
    pub makespan: f64,
    /// Number of runs aggregated.
    pub runs: usize,
    /// The raw per-run samples behind the means.
    pub samples: MuSamples,
}

/// Paired per-run unfairness differences between two µ values of a sweep at
/// one PTG count (`mu_a - mu_b`, run by run under common random numbers).
/// `None` when either point is missing or the run counts differ.
pub fn paired_mu_unfairness(
    points: &[MuSweepPoint],
    num_ptgs: usize,
    mu_a: f64,
    mu_b: f64,
) -> Option<PairedSamples> {
    let find = |mu: f64| {
        points
            .iter()
            .find(|p| (p.mu - mu).abs() < 1e-12 && p.num_ptgs == num_ptgs)
    };
    let a = find(mu_a)?;
    let b = find(mu_b)?;
    if a.samples.unfairness.len() != b.samples.unfairness.len() {
        return None;
    }
    Some(PairedSamples::of(
        a.samples.unfairness.values(),
        b.samples.unfairness.values(),
    ))
}

/// Runs the µ sweep and returns one point per (µ, PTG count).
///
/// Work runs on the persistent work-stealing pool of `mcsched-runtime`
/// ([`MuSweepConfig::threads`] workers): data points fan out at the outer
/// level and their scenarios nest within them. Every µ value of a scenario
/// is evaluated through one shared [`mcsched_core::ScheduleContext`] (the
/// paired-evaluation path), so the dedicated baselines are simulated once
/// per (platform, application) pair and every µ sees byte-identical
/// workloads. With [`MuSweepConfig::cache_dir`] set, each (scenario, µ)
/// cell is served from / stored into the content-addressed cell cache
/// (flushed per data point — the resume grain). Aggregation follows
/// scenario order, keeping the result independent of thread interleaving
/// and of cache state.
///
/// # Errors
///
/// Propagates workload-generation failures from [`MuSweepConfig::source`]
/// and cache-directory failures from [`MuSweepConfig::cache_dir`].
pub fn run_mu_sweep(config: &MuSweepConfig) -> Result<Vec<MuSweepPoint>, SchedError> {
    let policies: Vec<Arc<dyn ConstraintPolicy>> = config
        .mu_values
        .iter()
        .map(|&mu| {
            Arc::new(WeightedShare::new(config.characteristic, mu)) as Arc<dyn ConstraintPolicy>
        })
        .collect();

    let job = cells::CellJob::new(
        format!("mu-sweep:{}", config.source.short_label()),
        Arc::clone(&config.source),
        policies,
        config.base.clone(),
        config.combinations,
        config.seed,
        config.replications,
        config.threads,
        config.cache_dir.as_deref(),
        config.resume,
        config.progress,
        config.ptg_counts.len(),
        config.shard,
        config.obs_dir.as_deref(),
    )?;

    let mut cells_map: BTreeMap<(usize, usize), MuSamples> = BTreeMap::new();
    for (num_ptgs, per_scenario) in job.run_grid(&config.ptg_counts)? {
        for outcomes in per_scenario {
            for (mi, outcome) in outcomes.iter().enumerate() {
                let acc = cells_map.entry((mi, num_ptgs)).or_default();
                acc.unfairness.push(outcome.unfairness);
                acc.makespan.push(outcome.makespan);
            }
        }
    }

    Ok(cells_map
        .into_iter()
        .map(|((mi, num_ptgs), samples)| MuSweepPoint {
            mu: config.mu_values[mi],
            num_ptgs,
            unfairness: samples.unfairness.mean(),
            makespan: samples.makespan.mean(),
            runs: samples.unfairness.len(),
            samples,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MuSweepConfig {
        MuSweepConfig {
            mu_values: vec![0.0, 1.0],
            ptg_counts: vec![2],
            combinations: 1,
            threads: 2,
            source: Arc::new(GeneratorSource::from_class(PtgClass::Random)),
            ..MuSweepConfig::quick()
        }
    }

    #[test]
    fn sweep_produces_one_point_per_mu_and_count() {
        let points = run_mu_sweep(&tiny()).unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
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
        let points = run_mu_sweep(&tiny()).unwrap();
        let at = |mu: f64| {
            points
                .iter()
                .find(|p| (p.mu - mu).abs() < 1e-9)
                .unwrap()
                .clone()
        };
        assert!(at(1.0).unfairness <= at(0.0).unfairness + 0.5);
    }

    #[test]
    fn paper_config_matches_figure2_grid() {
        let cfg = MuSweepConfig::paper();
        assert_eq!(cfg.mu_values, vec![0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0]);
        assert_eq!(cfg.ptg_counts, vec![2, 4, 6, 8, 10]);
        assert_eq!(cfg.combinations, 25);
        assert_eq!(cfg.replications, 1);
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run_mu_sweep(&tiny()).unwrap();
        let b = run_mu_sweep(&tiny()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn replicated_sweeps_pair_mu_values_run_for_run() {
        let mut cfg = tiny();
        cfg.replications = 2;
        let points = run_mu_sweep(&cfg).unwrap();
        for p in &points {
            assert_eq!(p.runs, 8);
        }
        let paired = paired_mu_unfairness(&points, 2, 0.0, 1.0).unwrap();
        assert_eq!(paired.len(), 8);
        let at = |mu: f64| points.iter().find(|p| (p.mu - mu).abs() < 1e-9).unwrap();
        assert!((paired.mean_diff() - (at(0.0).unfairness - at(1.0).unfairness)).abs() < 1e-12);
        assert!(paired_mu_unfairness(&points, 2, 0.0, 0.25).is_none());
        assert!(paired_mu_unfairness(&points, 4, 0.0, 1.0).is_none());
    }
}
