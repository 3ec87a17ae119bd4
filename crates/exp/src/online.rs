//! Online campaigns: the strategy × replication grid of the event-driven
//! online scheduler (`mcsched-online`), with common-random-number pairing
//! for the ordering verdicts.
//!
//! Every replication derives its stream seed with the batch harness's
//! [`replication_seed`], and every *strategy* within a replication runs the
//! **same stream** (same seed, same label): identical arrival times and
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
//! worker count. Online cells are never cached: pairing needs every job's
//! stretch, which the three-metric cell cache does not hold.

use crate::campaign::strategy_labels;
use crate::cells::run_recorder;
use crate::scenario::replication_seed;
use mcsched_core::policy::ConstraintPolicy;
use mcsched_core::SchedError;
use mcsched_online::{OnlineConfig, OnlineReport, OnlineScheduler, SERIES_COLUMNS};
use mcsched_platform::Platform;
use mcsched_runtime::{run_indexed, DigestBuilder};
use mcsched_stats::{BootstrapConfig, OrderingVerdict, PairedSamples};
use mcsched_workload::WorkloadSource;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One strategy × replication grid to run.
#[derive(Debug, Clone)]
pub struct OnlineCampaign {
    /// Constraint policies to compare (each runs every replication).
    pub strategies: Vec<Arc<dyn ConstraintPolicy>>,
    /// Independent replications (streams) per strategy.
    pub replications: usize,
    /// Worker threads for the fan-out (`0` = one per core).
    pub threads: usize,
    /// The run configuration shared by every cell; per cell the campaign
    /// overrides `base.base.constraint` and derives `seed` per replication.
    /// The paired verdicts bootstrap from `base.seed ^ 0xB007`.
    pub base: OnlineConfig,
    /// Fleet obs directory (`--obs-dir`): the campaign writes a
    /// `run-0of1.manifest.json` + heartbeat there (refreshed per completed
    /// cell), so `mcsched-exp top` can watch an online campaign alongside the
    /// batch fleet. `None` (the default) records nothing.
    pub obs_dir: Option<PathBuf>,
}

impl OnlineCampaign {
    /// A campaign over the given policies with defaults elsewhere: three
    /// replications, one worker per core, the default run configuration.
    #[must_use]
    pub fn new(strategies: Vec<Arc<dyn ConstraintPolicy>>) -> Self {
        Self {
            strategies,
            replications: 3,
            threads: 0,
            base: OnlineConfig::default(),
            obs_dir: None,
        }
    }

    /// The fleet config digest of this campaign: everything that determines
    /// its cell grid (source spec, platform, replications, base seed and
    /// label, row labels), so `mcsched-exp obs-merge` can refuse to union
    /// unrelated runs — mirroring the batch harness.
    fn config_digest(
        &self,
        platform: &Platform,
        source: &Arc<dyn WorkloadSource>,
        labels: &[String],
    ) -> String {
        let mut digest = DigestBuilder::new()
            .str("online-config")
            .str(&source.spec())
            .str(platform.name())
            .usize(self.replications)
            .u64(self.base.seed)
            .str(&self.base.label);
        for label in labels {
            digest = digest.str(label);
        }
        digest.finish().to_hex()
    }
}

/// All replication reports of one strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyOutcome {
    /// The strategy's row label: its display name, or its parameter-carrying
    /// cache key when another strategy of the campaign shares the name.
    pub label: String,
    /// One report per replication, in replication order.
    pub reports: Vec<OnlineReport>,
}

impl StrategyOutcome {
    /// Mean per-job stretch pooled over all replications (0 if none
    /// completed).
    #[must_use]
    fn pooled_mean_stretch(&self) -> f64 {
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
    /// Row label of treatment `a` (e.g. `ES` or `WPS-work`).
    pub a: String,
    /// Row label of treatment `b`.
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
pub struct OnlineResult {
    /// Per-strategy outcomes, in campaign order.
    pub outcomes: Vec<StrategyOutcome>,
    /// Pairwise stretch comparisons, in campaign order (`a` before `b`).
    pub comparisons: Vec<StretchComparison>,
}

/// Runs the strategy × replication grid and computes paired verdicts.
///
/// Deterministic: equal `(platform, source, campaign)` produce byte-equal
/// results at any worker count, because cell seeds derive from the grid
/// position and [`run_indexed`] returns results in index order.
///
/// # Errors
///
/// Rejects a campaign without strategies or replications, propagates
/// configuration validation and the first cell failure in grid order.
pub fn run_online_campaign(
    platform: &Platform,
    source: &Arc<dyn WorkloadSource>,
    campaign: &OnlineCampaign,
) -> Result<OnlineResult, SchedError> {
    if campaign.strategies.is_empty() {
        return Err(SchedError::InvalidConfig(
            "online campaign needs at least one strategy".into(),
        ));
    }
    if campaign.replications == 0 {
        return Err(SchedError::InvalidConfig(
            "online campaign needs at least one replication".into(),
        ));
    }
    campaign.base.validate()?;

    // Strategy-major grid; each cell is independent and position-seeded.
    let labels = strategy_labels(&campaign.strategies);
    let reps = campaign.replications;
    let cells = campaign.strategies.len() * reps;
    let recorder = campaign.obs_dir.as_deref().map(|dir| {
        run_recorder(
            dir,
            format!("online:{}", campaign.base.label),
            (0, 1),
            campaign.config_digest(platform, source, &labels),
        )
    });
    let cells_done = AtomicU64::new(0);
    let per_cell = run_indexed(campaign.threads, cells, |i| {
        let (si, rep) = (i / reps, i % reps);
        let base = &campaign.base;
        let mut cfg = base.clone();
        cfg.base.constraint = Arc::clone(&campaign.strategies[si]);
        cfg.seed = replication_seed(base.seed, rep);
        cfg.label = format!("{}-r{rep}", base.label);
        let mut report = OnlineScheduler::new(platform, cfg)?.run(source.as_ref())?;
        report.name = format!("{}/r{rep}", labels[si]);
        if let Some(recorder) = &recorder {
            let done = cells_done.fetch_add(1, Ordering::Relaxed) + 1;
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

    let mut outcomes = Vec::with_capacity(labels.len());
    let mut iter = per_cell.into_iter();
    for label in labels {
        let reports: Result<Vec<_>, _> = iter.by_ref().take(reps).collect();
        match reports {
            Ok(reports) => outcomes.push(StrategyOutcome { label, reports }),
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

    let bootstrap = BootstrapConfig::seeded(campaign.base.seed ^ 0xB007);
    let mut comparisons = Vec::new();
    for ai in 0..outcomes.len() {
        for bi in ai + 1..outcomes.len() {
            comparisons.push(compare_stretch(&outcomes[ai], &outcomes[bi], &bootstrap));
        }
    }
    Ok(OnlineResult {
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
        a: a.label.clone(),
        b: b.label.clone(),
        paired_jobs: xs.len(),
        verdict,
    }
}

/// Renders a campaign as one summary table (a strategy per row) plus the
/// paired stretch verdicts. A pure function of the result, so equal
/// results render byte-equal text at any thread count.
#[must_use]
pub fn table_online(result: &OnlineResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Online campaign ==");
    let _ = write!(out, "{:<12}", "strategy");
    for h in ["completed", "shed", "stretch", "jobs/ks", "util"] {
        let _ = write!(out, "{h:>12}");
    }
    let _ = writeln!(out);
    for o in &result.outcomes {
        let _ = write!(out, "{:<12}", o.label);
        let (tput, util) = {
            let n = o.reports.len().max(1) as f64;
            (
                o.reports.iter().map(OnlineReport::throughput).sum::<f64>() / n,
                o.reports.iter().map(|r| r.utilization).sum::<f64>() / n,
            )
        };
        let _ = write!(out, "{:>12}", o.completed());
        let _ = write!(out, "{:>12}", o.shed());
        let _ = write!(out, "{:>12.4}", o.pooled_mean_stretch());
        let _ = write!(out, "{:>12.3}", tput);
        let _ = writeln!(out, "{:>12.4}", util);
    }
    if !result.comparisons.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "== Paired stretch verdicts ==");
        for cmp in &result.comparisons {
            let verdict = match &cmp.verdict {
                Some(OrderingVerdict::Ordered { a_below_b, ci, p }) => {
                    let winner = if *a_below_b { &cmp.a } else { &cmp.b };
                    format!(
                        "Ordered: {winner} lower (ci [{:.4}, {:.4}], p={:.4})",
                        ci.lo, ci.hi, p
                    )
                }
                Some(OrderingVerdict::Inconclusive { ci, p }) => {
                    format!("Inconclusive (ci [{:.4}, {:.4}], p={:.4})", ci.lo, ci.hi, p)
                }
                None => "Inconclusive (too few paired jobs)".into(),
            };
            let _ = writeln!(
                out,
                "{} vs {} ({} paired jobs): {}",
                cmp.a, cmp.b, cmp.paired_jobs, verdict
            );
        }
    }
    out
}

/// Renders a campaign as CSV, one row per strategy × replication
/// (`strategy,replication,arrivals,completed,shed,mean_stretch,`
/// `throughput,utilization,avg_queue_depth,reschedules`).
#[must_use]
pub fn csv_online(result: &OnlineResult) -> String {
    let mut out = String::from(
        "strategy,replication,arrivals,completed,shed,mean_stretch,\
         throughput,utilization,avg_queue_depth,reschedules\n",
    );
    for o in &result.outcomes {
        for (rep, r) in o.reports.iter().enumerate() {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{}",
                o.label,
                rep,
                r.counters.arrivals,
                r.counters.completed,
                r.counters.shed,
                r.mean_stretch(),
                r.throughput(),
                r.utilization,
                r.avg_queue_depth,
                r.reschedules
            );
        }
    }
    out
}

/// Renders the per-epoch series of every campaign run as one flat CSV
/// (column names shared with [`SERIES_COLUMNS`], prefixed by the run
/// identity).
#[must_use]
pub fn series_csv(result: &OnlineResult) -> String {
    let mut out = String::from("strategy,replication");
    for column in SERIES_COLUMNS {
        let _ = write!(out, ",{column}");
    }
    out.push('\n');
    for outcome in &result.outcomes {
        for (rep, report) in outcome.reports.iter().enumerate() {
            for row in report.series.rows() {
                let _ = write!(out, "{},{rep}", outcome.label);
                for v in row {
                    let _ = write!(out, ",{v}");
                }
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_core::policy::{EqualShare, Selfish};
    use mcsched_platform::grid5000;
    use mcsched_workload::{AppGenerator, ArrivalProcess, DaggenConfig, GeneratorSource};

    fn campaign(strategies: Vec<Arc<dyn ConstraintPolicy>>) -> OnlineCampaign {
        let mut campaign = OnlineCampaign::new(strategies);
        campaign.replications = 2;
        campaign.base.max_jobs = 12;
        campaign
    }

    fn selfish_and_equal_share() -> Vec<Arc<dyn ConstraintPolicy>> {
        vec![Arc::new(Selfish), Arc::new(EqualShare)]
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
        let mut one = campaign(selfish_and_equal_share());
        one.threads = 1;
        let mut many = campaign(selfish_and_equal_share());
        many.threads = 4;
        let a = run_online_campaign(&platform, &source, &one).unwrap();
        let b = run_online_campaign(&platform, &source, &many).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.outcomes.len(), 2);
        assert_eq!(a.comparisons.len(), 1);
    }

    #[test]
    fn strategies_share_the_stream_within_a_replication() {
        let platform = grid5000::lille();
        let source = source();
        let result =
            run_online_campaign(&platform, &source, &campaign(selfish_and_equal_share())).unwrap();
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
        assert!(run_online_campaign(&platform, &source, &campaign(vec![])).is_err());
        let mut zero_reps = campaign(vec![Arc::new(Selfish)]);
        zero_reps.replications = 0;
        assert!(run_online_campaign(&platform, &source, &zero_reps).is_err());
    }
}
