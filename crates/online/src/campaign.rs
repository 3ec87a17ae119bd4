//! Online campaigns: the strategy × replication grid over the runtime pool,
//! with common-random-number pairing for the ordering verdicts.
//!
//! Every replication derives its stream seed with the same splitmix64 step
//! the batch harness uses, and every *strategy* within a replication runs
//! the **same stream** (same seed, same label): identical arrival times and
//! identical graphs. Per-job stretches can therefore be compared *paired* —
//! job `i` under strategy A against the same job `i` under strategy B —
//! which is the online analogue of the batch harness's paired-replication
//! design. Under overload the completed job *sets* may differ (each policy
//! sheds its own victims), so pairs are taken over the intersection of
//! completed indices and the intersection size is reported alongside the
//! verdict.
//!
//! Cells are fanned out through [`mcsched_runtime::run_indexed`], whose
//! index-ordered results make every campaign figure independent of the
//! worker count.

use crate::config::OnlineConfig;
use crate::metrics::OnlineReport;
use crate::scheduler::OnlineScheduler;
use mcsched_core::{ConstraintStrategy, SchedError};
use mcsched_platform::Platform;
use mcsched_runtime::run_indexed;
use mcsched_stats::{BootstrapConfig, OrderingVerdict, PairedSamples};
use mcsched_workload::WorkloadSource;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Replication seed derivation shared with the batch harness: replication 0
/// keeps the base seed (backwards-compatible single runs), later ones step
/// by the golden-ratio increment.
#[must_use]
pub fn replication_seed(base_seed: u64, replication: usize) -> u64 {
    if replication == 0 {
        base_seed
    } else {
        base_seed.wrapping_add((replication as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// One strategy × replication grid to run.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Constraint strategies to compare (each runs every replication).
    pub strategies: Vec<ConstraintStrategy>,
    /// Independent replications (streams) per strategy.
    pub replications: usize,
    /// Worker threads for the fan-out (`0` = one per core).
    pub threads: usize,
    /// The run configuration shared by every cell; per-cell the campaign
    /// overrides `base.constraint` and derives `seed` per replication.
    pub base: OnlineConfig,
    /// Bootstrap configuration of the paired verdicts.
    pub bootstrap: BootstrapConfig,
    /// Fleet obs directory (`--obs-dir`): the campaign writes a
    /// `run-0of1.manifest.json` + heartbeat there (refreshed per completed
    /// cell), so `mcsched-top` can watch an online campaign alongside the
    /// batch fleet. `None` (the default) records nothing.
    pub obs_dir: Option<std::path::PathBuf>,
}

impl CampaignSpec {
    /// A spec with the given strategies and sensible defaults elsewhere.
    #[must_use]
    pub fn new(strategies: Vec<ConstraintStrategy>) -> Self {
        Self {
            strategies,
            replications: 3,
            threads: 0,
            base: OnlineConfig::default(),
            bootstrap: BootstrapConfig::seeded(0xB007),
            obs_dir: None,
        }
    }

    /// The fleet config digest of this campaign: everything that determines
    /// its cell grid (source spec, platform, strategies, replications, base
    /// seed and label), so `mcsched-obs-merge` can refuse to union
    /// unrelated runs — mirroring the batch harness.
    fn config_digest(&self, platform: &Platform, source: &Arc<dyn WorkloadSource>) -> String {
        let mut digest = mcsched_runtime::DigestBuilder::new()
            .str("online-config")
            .str(&source.spec())
            .str(platform.name())
            .usize(self.replications)
            .u64(self.base.seed)
            .str(&self.base.label);
        for strategy in &self.strategies {
            digest = digest.str(&strategy.name());
        }
        digest.finish().to_hex()
    }
}

/// All replication reports of one strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyOutcome {
    /// The strategy the reports ran under.
    pub strategy: ConstraintStrategy,
    /// One report per replication, in replication order.
    pub reports: Vec<OnlineReport>,
}

impl StrategyOutcome {
    /// Mean per-job stretch pooled over all replications (0 if none
    /// completed).
    #[must_use]
    pub fn pooled_mean_stretch(&self) -> f64 {
        let (sum, n) = self
            .reports
            .iter()
            .flat_map(|r| r.jobs.iter().map(|j| j.stretch))
            .fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Completed jobs over all replications.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.reports.iter().map(|r| r.counters.completed).sum()
    }

    /// Shed jobs over all replications.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.reports.iter().map(|r| r.counters.shed).sum()
    }
}

/// A paired stretch comparison between two strategies over their common
/// completed jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchComparison {
    /// Name of treatment `a` (paper convention, e.g. `ES` or `WPS-work`).
    pub a: String,
    /// Name of treatment `b`.
    pub b: String,
    /// Jobs completed under *both* strategies (the pairing universe; under
    /// overload this can be smaller than either side's completion count).
    pub paired_jobs: usize,
    /// The ordering verdict on paired per-job stretch (`a − b`; lower
    /// stretch is better), or `None` when fewer than two jobs paired.
    pub verdict: Option<OrderingVerdict>,
}

/// The full result of one online campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Per-strategy outcomes, in spec order.
    pub outcomes: Vec<StrategyOutcome>,
    /// Pairwise stretch comparisons, in spec order (`a` before `b`).
    pub comparisons: Vec<StretchComparison>,
}

/// Runs the strategy × replication grid and computes paired verdicts.
///
/// Deterministic: equal `(platform, source, spec)` produce byte-equal
/// results at any worker count, because cell seeds derive from the grid
/// position and [`run_indexed`] returns results in index order.
///
/// # Errors
///
/// Propagates configuration validation and the first cell failure in grid
/// order.
pub fn run_campaign(
    platform: &Platform,
    source: &Arc<dyn WorkloadSource>,
    spec: &CampaignSpec,
) -> Result<CampaignResult, SchedError> {
    if spec.strategies.is_empty() {
        return Err(SchedError::InvalidConfig(
            "online campaign needs at least one strategy".into(),
        ));
    }
    if spec.replications == 0 {
        return Err(SchedError::InvalidConfig(
            "online campaign needs at least one replication".into(),
        ));
    }
    spec.base.validate()?;

    // Strategy-major grid; each cell is independent and position-seeded.
    let reps = spec.replications;
    let cells = spec.strategies.len() * reps;
    let recorder = spec.obs_dir.as_deref().map(|dir| {
        Arc::new(mcsched_obs::RunRecorder::new(
            dir,
            mcsched_obs::RunManifest {
                label: format!("online:{}", spec.base.label),
                shard: (0, 1),
                config_digest: spec.config_digest(platform, source),
                salt: mcsched_runtime::CACHE_SALT.to_string(),
                pid: std::process::id(),
                start_unix_ms: mcsched_obs::manifest::unix_ms(),
                phase: mcsched_obs::RunPhase::Running,
            },
        ))
    });
    let cells_done = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let task_platform = Arc::new(platform.clone());
    let task_source = Arc::clone(source);
    let task_strategies = spec.strategies.clone();
    let task_base = spec.base.clone();
    let task_recorder = recorder.clone();
    let task_cells_done = Arc::clone(&cells_done);
    let per_cell = run_indexed(spec.threads, cells, move |i| {
        let (si, rep) = (i / reps, i % reps);
        let mut cfg = task_base.clone();
        cfg.base.constraint = task_strategies[si].to_policy();
        cfg.seed = replication_seed(task_base.seed, rep);
        cfg.label = format!("{}-r{rep}", task_base.label);
        let mut report = OnlineScheduler::new(&task_platform, cfg)?.run(task_source.as_ref())?;
        report.name = format!("{}/r{rep}", task_strategies[si].name());
        if let Some(recorder) = &task_recorder {
            let done = task_cells_done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            recorder.heartbeat(mcsched_obs::Heartbeat {
                points_done: done,
                points_total: cells as u64,
                cells_done: done,
                detail: report.name.clone(),
                ..mcsched_obs::Heartbeat::default()
            });
        }
        Ok::<OnlineReport, SchedError>(report)
    });

    let mut outcomes = Vec::with_capacity(spec.strategies.len());
    let mut iter = per_cell.into_iter();
    for &strategy in &spec.strategies {
        let reports: Result<Vec<_>, _> = iter.by_ref().take(reps).collect();
        match reports {
            Ok(reports) => outcomes.push(StrategyOutcome { strategy, reports }),
            Err(e) => {
                if let Some(recorder) = &recorder {
                    recorder.finish(mcsched_obs::RunPhase::Failed);
                }
                return Err(e);
            }
        }
    }
    if let Some(recorder) = &recorder {
        recorder.finish(mcsched_obs::RunPhase::Done);
    }

    let mut comparisons = Vec::new();
    for ai in 0..outcomes.len() {
        for bi in ai + 1..outcomes.len() {
            comparisons.push(compare_stretch(
                &outcomes[ai],
                &outcomes[bi],
                &spec.bootstrap,
            ));
        }
    }
    Ok(CampaignResult {
        outcomes,
        comparisons,
    })
}

/// Pairs per-job stretch between two strategies over the intersection of
/// completed `(replication, job index)` keys, in deterministic key order.
fn compare_stretch(
    a: &StrategyOutcome,
    b: &StrategyOutcome,
    bootstrap: &BootstrapConfig,
) -> StretchComparison {
    let index = |o: &StrategyOutcome| -> BTreeMap<(usize, u64), f64> {
        o.reports
            .iter()
            .enumerate()
            .flat_map(|(rep, r)| r.jobs.iter().map(move |j| ((rep, j.index), j.stretch)))
            .collect()
    };
    let map_a = index(a);
    let map_b = index(b);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (key, &x) in &map_a {
        if let Some(&y) = map_b.get(key) {
            xs.push(x);
            ys.push(y);
        }
    }
    let verdict = if xs.len() >= 2 {
        Some(PairedSamples::of(&xs, &ys).verdict(bootstrap))
    } else {
        None
    };
    StretchComparison {
        a: a.strategy.name(),
        b: b.strategy.name(),
        paired_jobs: xs.len(),
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_platform::grid5000;
    use mcsched_workload::{AppGenerator, ArrivalProcess, DaggenConfig, GeneratorSource};

    fn spec(strategies: Vec<ConstraintStrategy>) -> CampaignSpec {
        let mut spec = CampaignSpec::new(strategies);
        spec.replications = 2;
        spec.base.max_jobs = 12;
        spec
    }

    fn source() -> Arc<dyn WorkloadSource> {
        Arc::new(
            GeneratorSource::new(AppGenerator::Daggen(DaggenConfig::new(8)))
                .with_arrival(ArrivalProcess::Poisson { lambda: 0.02 }),
        )
    }

    #[test]
    fn campaign_results_do_not_depend_on_the_worker_count() {
        let platform = grid5000::lille();
        let source = source();
        let strategies = vec![ConstraintStrategy::Selfish, ConstraintStrategy::EqualShare];
        let mut one = spec(strategies.clone());
        one.threads = 1;
        let mut many = spec(strategies);
        many.threads = 4;
        let a = run_campaign(&platform, &source, &one).unwrap();
        let b = run_campaign(&platform, &source, &many).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.outcomes.len(), 2);
        assert_eq!(a.comparisons.len(), 1);
    }

    #[test]
    fn strategies_share_the_stream_within_a_replication() {
        let platform = grid5000::lille();
        let source = source();
        let result = run_campaign(
            &platform,
            &source,
            &spec(vec![
                ConstraintStrategy::Selfish,
                ConstraintStrategy::EqualShare,
            ]),
        )
        .unwrap();
        // CRN pairing: without sheds every job completes under both
        // strategies, so the pairing universe is the full completion set.
        let comparison = &result.comparisons[0];
        let completed = result.outcomes[0]
            .completed()
            .min(result.outcomes[1].completed());
        assert_eq!(comparison.paired_jobs as u64, completed);
        assert!(comparison.verdict.is_some());
        // And the arrival sequences are literally identical.
        for (ra, rb) in result.outcomes[0]
            .reports
            .iter()
            .zip(&result.outcomes[1].reports)
        {
            let arrivals = |r: &OnlineReport| {
                let mut a: Vec<(u64, u64)> = r
                    .jobs
                    .iter()
                    .map(|j| (j.index, j.arrival.to_bits()))
                    .collect();
                a.sort_unstable();
                a
            };
            assert_eq!(arrivals(ra), arrivals(rb));
        }
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        let platform = grid5000::lille();
        let source = source();
        assert!(run_campaign(&platform, &source, &spec(vec![])).is_err());
        let mut zero_reps = spec(vec![ConstraintStrategy::Selfish]);
        zero_reps.replications = 0;
        assert!(run_campaign(&platform, &source, &zero_reps).is_err());
    }

    #[test]
    fn replication_seed_matches_the_batch_harness_formula() {
        assert_eq!(replication_seed(42, 0), 42);
        assert_eq!(
            replication_seed(42, 3),
            42u64.wrapping_add(3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        );
    }
}
