//! Content-addressed cell evaluation: the glue between the experiment
//! harness and the `mcsched-runtime` cell cache.
//!
//! A *cell* is one (scenario, policy) evaluation — the smallest unit of
//! campaign work whose metrics are a pure function of their inputs. This
//! module owns the composition of the cell digest (which inputs identify a
//! cell) and the cache-aware evaluation path used by both the campaign and
//! the µ-sweep harnesses: look every policy of a scenario up, evaluate only
//! the missing subset through the shared-context paired path, store the
//! fresh results.
//!
//! Serving a cached cell is safe because the digest covers everything that
//! determines the metrics: the workload source spec (generator parameters
//! *and* arrival process), the request seed/application count, the scenario
//! name (combination index and platform), the platform, the allocation +
//! mapping pipeline key ([`SchedulerConfig::pipeline_cache_key`]) and the
//! policy's parameter-carrying `cache_key()` — plus the code-version salt
//! baked into every digest by `mcsched-runtime` ([`mcsched_runtime::CACHE_SALT`]),
//! which is bumped whenever scheduling semantics intentionally change.
//! Because each policy of the paired path is evaluated independently over
//! the shared context (same workload bytes, same dedicated baselines),
//! evaluating a *subset* of policies yields bit-identical results to
//! evaluating all of them, which is what makes per-policy cache granularity
//! sound.

use crate::campaign::CampaignConfig;
use crate::scenario::{generate_scenarios_with, replication_seed, Scenario, ScenarioOutcome};
use mcsched_core::policy::ConstraintPolicy;
use mcsched_core::{SchedError, SchedulerConfig};
use mcsched_runtime::{run_indexed, CellCache, CellDigest, CellMetrics, DigestBuilder, Progress};
use std::path::Path;
use std::sync::Arc;

/// The digest builder of one scenario, covering every policy-independent
/// input: provenance (source spec, request seed, scenario name, pipeline
/// key) **and the actual content** of both the workload — every task's
/// dataset size, cost model and Amdahl fraction, every edge's endpoints
/// and bytes, and the release times — and the platform (per-cluster sizes,
/// speeds and links, plus the site topology). Hashing content as well as
/// provenance means a cell can never be served stale for an input that
/// changed under an unchanged label: a `--trace` file edited or
/// regenerated on disk, a custom [`mcsched_workload::WorkloadSource`] that
/// is not a pure function of the request, a custom platform sharing a
/// built-in site's name, or a recalibrated Grid'5000 site spec.
#[must_use]
pub fn scenario_digest(
    source_spec: &str,
    pipeline_key: &str,
    scenario: &Scenario,
) -> DigestBuilder {
    let mut digest = DigestBuilder::new()
        .str("cell")
        .str(source_spec)
        .u64(scenario.seed)
        .str(&scenario.name)
        .usize(scenario.ptgs.len())
        .str(scenario.platform.name())
        .str(pipeline_key);
    for cluster in scenario.platform.clusters() {
        digest = digest
            .usize(cluster.num_procs())
            .f64(cluster.speed())
            .f64(cluster.link_bandwidth())
            .f64(cluster.link_latency());
    }
    let (topology_label, topology_link) = match scenario.platform.topology() {
        mcsched_platform::NetworkTopology::SharedSwitch { switch } => ("shared", switch),
        mcsched_platform::NetworkTopology::PerClusterSwitch { backbone } => ("backbone", backbone),
    };
    digest = digest
        .str(topology_label)
        .f64(topology_link.bandwidth)
        .f64(topology_link.latency);
    for ptg in &scenario.ptgs {
        digest = digest.usize(ptg.num_tasks()).usize(ptg.num_edges());
        for task in ptg.tasks() {
            let (cost_label, cost_param) = match task.cost_model() {
                mcsched_ptg::CostModel::Linear { a } => ("lin", a),
                mcsched_ptg::CostModel::LogLinear { a } => ("log", a),
                mcsched_ptg::CostModel::MatrixProduct => ("mat", 0.0),
            };
            digest = digest
                .f64(task.data_elems())
                .f64(task.alpha())
                .str(cost_label)
                .f64(cost_param);
        }
        for edge in ptg.edges() {
            digest = digest.usize(edge.src).usize(edge.dst).f64(edge.bytes);
        }
    }
    for &release in &scenario.release_times {
        digest = digest.f64(release);
    }
    digest
}

/// The content digest of one (scenario, policy) evaluation cell:
/// [`scenario_digest`] finalized with the policy's parameter-carrying
/// `cache_key()`.
#[must_use]
pub fn cell_digest(
    source_spec: &str,
    pipeline_key: &str,
    scenario: &Scenario,
    policy: &dyn ConstraintPolicy,
) -> CellDigest {
    scenario_digest(source_spec, pipeline_key, scenario)
        .str(&policy.cache_key())
        .finish()
}

/// Opens the configured cell cache, if any.
///
/// # Errors
///
/// [`SchedError::InvalidConfig`] when the directory cannot be created or
/// cleared — a cache that cannot even open is a configuration error, unlike
/// later flush failures which only cost recomputation and degrade to
/// warnings.
fn open_cell_cache(
    cache_dir: Option<&Path>,
    resume: bool,
) -> Result<Option<Arc<CellCache>>, SchedError> {
    match cache_dir {
        None => Ok(None),
        Some(dir) => CellCache::open(dir, resume)
            .map(|cache| Some(Arc::new(cache)))
            .map_err(|e| SchedError::InvalidConfig(format!("cell cache {}: {e}", dir.display()))),
    }
}

/// Flushes the cache, downgrading failures to a warning (a cache that
/// cannot persist costs recomputation, never correctness).
fn flush_cell_cache(cache: &CellCache) {
    if let Err(e) = cache.flush() {
        eprintln!("warning: cell cache flush failed: {e}");
    }
}

/// Prints the end-of-run cache summary through the obs sink on stderr
/// (never stdout: the figure tables stay byte-identical with and without a
/// cache; `--quiet` silences it). CI's cache-warm smoke step greps for
/// this line.
fn report_cell_cache(cache: &CellCache) {
    mcsched_obs::note!("cell cache: {}", cache.summary());
}

/// Evaluates every policy on the scenario through the paired
/// (shared-context) path, serving and populating `cache` when present.
/// Outcomes come back in policy order, bit-identical whether each cell was
/// computed or served from cache. With `shard = Some((index, of))`, cells
/// whose digest falls outside partition `index` of `of`
/// ([`CellDigest::in_shard`]) are **skipped entirely** — no
/// evaluation, no cache lookup, no insert — and recorded as
/// [`ScenarioOutcome::skipped`] placeholders (all-NaN, invisible to the
/// best-makespan aggregation). In-shard cells behave exactly as unsharded:
/// because each policy of the paired path is evaluated independently over
/// the shared context, evaluating only the in-shard subset yields
/// bit-identical metrics, so N disjoint shard runs collectively populate
/// the exact cells one unsharded run would. Returns the outcomes plus the
/// number of out-of-shard cells skipped.
pub fn evaluate_policies_sharded(
    scenario: &Scenario,
    base: &SchedulerConfig,
    policies: &[Arc<dyn ConstraintPolicy>],
    cache: Option<&CellCache>,
    source_spec: &str,
    pipeline_key: &str,
    shard: Option<(usize, usize)>,
) -> (Vec<ScenarioOutcome>, u64) {
    let _span = mcsched_obs::span!(
        "cell-eval",
        "scenario" = scenario.name.clone(),
        "policies" = policies.len()
    );
    if cache.is_none() && shard.is_none() {
        return (scenario.evaluate_policies(base, policies), 0);
    }
    // The content walk over the scenario's graphs happens once; each policy
    // only finalizes a clone of the shared builder with its cache key.
    let shared = scenario_digest(source_spec, pipeline_key, scenario);
    let keys: Vec<CellDigest> = policies
        .iter()
        .map(|p| shared.clone().str(&p.cache_key()).finish())
        .collect();
    let mut skipped = 0u64;
    let mut outcomes: Vec<Option<ScenarioOutcome>> = keys
        .iter()
        .zip(policies)
        .map(|(key, policy)| {
            if let Some((index, of)) = shard {
                if !key.in_shard(index, of) {
                    skipped += 1;
                    mcsched_obs::counter!("cells.shard_skip").inc();
                    return Some(ScenarioOutcome::skipped(policy.name()));
                }
            }
            cache.and_then(|cache| {
                cache.lookup(*key).map(|m| ScenarioOutcome {
                    strategy: policy.name(),
                    unfairness: m.unfairness,
                    makespan: m.makespan,
                    average_slowdown: m.average_slowdown,
                })
            })
        })
        .collect();
    let missing: Vec<usize> = (0..policies.len())
        .filter(|&i| outcomes[i].is_none())
        .collect();
    if !missing.is_empty() {
        let subset: Vec<Arc<dyn ConstraintPolicy>> =
            missing.iter().map(|&i| Arc::clone(&policies[i])).collect();
        let fresh = scenario.evaluate_policies(base, &subset);
        for (&slot, outcome) in missing.iter().zip(fresh) {
            if let Some(cache) = cache {
                cache.insert(
                    keys[slot],
                    CellMetrics {
                        unfairness: outcome.unfairness,
                        makespan: outcome.makespan,
                        average_slowdown: outcome.average_slowdown,
                    },
                );
            }
            outcomes[slot] = Some(outcome);
        }
    }
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every policy slot is skipped, cached or freshly evaluated"))
        .collect();
    (outcomes, skipped)
}

/// Starts the fleet record of one harness run in `dir`: a `running`
/// manifest stamped with this process, the start time and the cache salt.
/// The batch grid ([`CellJob::run_grid`]) and the online campaign
/// ([`crate::online::run_online_campaign`]) both open theirs here.
pub(crate) fn run_recorder(
    dir: &Path,
    label: String,
    shard: (usize, usize),
    config_digest: String,
) -> mcsched_obs::RunRecorder {
    mcsched_obs::RunRecorder::new(
        dir,
        mcsched_obs::RunManifest {
            label,
            shard,
            config_digest,
            salt: mcsched_runtime::CACHE_SALT.to_string(),
            pid: std::process::id(),
            start_unix_ms: mcsched_obs::manifest::unix_ms(),
            phase: mcsched_obs::RunPhase::Running,
        },
    )
}

/// Per-scenario outcomes of one data point: outer index = scenario in
/// generation order, inner index = policy in input order.
pub(crate) type DataPointOutcomes = Vec<Vec<ScenarioOutcome>>;

/// The `Arc`-shared state one campaign run hands to its pool tasks: the
/// configuration, cache and progress. Every campaign — the figures and the
/// µ calibration alike — drives its grid through [`CellJob::run_grid`], so
/// the fan-out shape, the cache/flush cadence and the digest inputs live in
/// exactly one place.
pub(crate) struct CellJob {
    /// The campaign, with at least one replication.
    config: CampaignConfig,
    cache: Option<Arc<CellCache>>,
    progress: Progress,
    spec: String,
    pipeline_key: String,
    /// Out-of-shard cells skipped so far (reported at the end of the grid).
    skipped: std::sync::atomic::AtomicU64,
    /// The fleet record, when the campaign has an obs dir; data points
    /// heartbeat through it.
    recorder: Option<mcsched_obs::RunRecorder>,
    /// In-shard cells evaluated or served so far (heartbeat progress).
    cells_done: std::sync::atomic::AtomicU64,
}

impl CellJob {
    /// Assembles the job of a campaign, labelled `campaign:<source>`: opens
    /// the cache (if configured), derives the source spec and pipeline key,
    /// and sizes the progress reporter to `replications × ptg_counts` data
    /// points. A library caller's zero replications run as one. With
    /// [`CampaignConfig::shard`] set, the progress label carries a
    /// `[shard i/N]` suffix and only that partition of the cell grid is
    /// evaluated.
    ///
    /// # Errors
    ///
    /// Propagates cache-directory failures (a directory that cannot be
    /// created or cleared) and rejects malformed shard specs (`index >= of`
    /// or `of == 0`).
    pub(crate) fn new(config: &CampaignConfig) -> Result<Arc<Self>, SchedError> {
        let mut config = config.clone();
        config.replications = config.replications.max(1);
        let manifest_label = format!("campaign:{}", config.source.short_label());
        let label = match config.shard {
            Some((index, of)) => {
                if of == 0 || index >= of {
                    return Err(SchedError::InvalidConfig(format!(
                        "shard {index}/{of} is out of range (need index < N and N > 0)"
                    )));
                }
                format!("{manifest_label} [shard {index}/{of}]")
            }
            None => manifest_label.clone(),
        };
        let data_points = config.replications * config.ptg_counts.len();
        let mut job = Self {
            spec: config.source.spec(),
            pipeline_key: config.base.pipeline_cache_key(),
            cache: open_cell_cache(config.cache_dir.as_deref(), config.resume)?,
            progress: Progress::new(label, data_points, config.progress),
            config,
            skipped: std::sync::atomic::AtomicU64::new(0),
            recorder: None,
            cells_done: std::sync::atomic::AtomicU64::new(0),
        };
        job.recorder = job.config.obs_dir.as_deref().map(|dir| {
            run_recorder(
                dir,
                manifest_label,
                job.config.shard.unwrap_or((0, 1)),
                job.config_digest(),
            )
        });
        Ok(Arc::new(job))
    }

    /// The fleet config digest of this grid: every input that determines
    /// the campaign's cell set **except** the shard spec, so all shards of
    /// one fleet share it and `mcsched-obs-merge` can refuse to union runs
    /// of different campaigns (mirroring the per-cell digest composition).
    fn config_digest(&self) -> String {
        let mut digest = DigestBuilder::new()
            .str("fleet-config")
            .str(&self.spec)
            .str(&self.pipeline_key)
            .u64(self.config.seed)
            .usize(self.config.combinations)
            .usize(self.config.replications);
        for policy in &self.config.strategies {
            digest = digest.str(&policy.cache_key());
        }
        for &n in &self.config.ptg_counts {
            digest = digest.usize(n);
        }
        digest.finish().to_hex()
    }

    /// Refreshes this run's heartbeat record (no-op without an obs dir).
    fn heartbeat(&self, detail: &str) {
        let Some(recorder) = &self.recorder else {
            return;
        };
        recorder.heartbeat(mcsched_obs::Heartbeat {
            points_done: self.progress.done() as u64,
            points_total: self.progress.total() as u64,
            cells_done: self.cells_done.load(std::sync::atomic::Ordering::Relaxed),
            cache_hits: self.cache.as_ref().map_or(0, |c| c.hits()),
            cache_misses: self.cache.as_ref().map_or(0, |c| c.misses()),
            detail: detail.to_string(),
            ..mcsched_obs::Heartbeat::default()
        });
    }

    /// Evaluates one (replication, PTG count) data point: generates its
    /// scenarios and fans them out as a *nested* fan-out — the inner call
    /// reuses the pool that is running the data point, so small outer
    /// grids still saturate every worker. Completed data points flush the
    /// cell cache (the resume grain) and tick the progress reporter.
    fn data_point(
        self: &Arc<Self>,
        replication: usize,
        num_ptgs: usize,
    ) -> Result<DataPointOutcomes, SchedError> {
        let _span = mcsched_obs::span!("data-point", "ptgs" = num_ptgs, "rep" = replication);
        let seed = replication_seed(self.config.seed, replication);
        let scenarios = Arc::new(generate_scenarios_with(
            self.config.source.as_ref(),
            num_ptgs,
            self.config.combinations,
            seed,
        )?);
        let job = Arc::clone(self);
        let task_scenarios = Arc::clone(&scenarios);
        let outcomes = run_indexed(self.config.threads, scenarios.len(), move |i| {
            let (outcomes, skipped) = evaluate_policies_sharded(
                &task_scenarios[i],
                &job.config.base,
                &job.config.strategies,
                job.cache.as_deref(),
                &job.spec,
                &job.pipeline_key,
                job.config.shard,
            );
            if skipped > 0 {
                job.skipped
                    .fetch_add(skipped, std::sync::atomic::Ordering::Relaxed);
            }
            job.cells_done.fetch_add(
                outcomes.len() as u64 - skipped,
                std::sync::atomic::Ordering::Relaxed,
            );
            outcomes
        });
        if let Some(cache) = &self.cache {
            flush_cell_cache(cache);
        }
        let detail = format!(
            "ptgs={num_ptgs} rep={}/{}",
            replication + 1,
            self.config.replications
        );
        self.progress.tick(&detail);
        self.heartbeat(&detail);
        Ok(outcomes)
    }

    /// Runs the whole `replications × ptg_counts` grid on the runtime pool
    /// (data points at the outer level, scenarios nested within them) and
    /// returns, **in aggregation order** (replication-major, then PTG
    /// count), one `(num_ptgs, per-scenario outcomes)` entry per data
    /// point. Flushes and reports the cache at the end.
    ///
    /// # Errors
    ///
    /// Propagates the first data-point failure in grid order.
    pub(crate) fn run_grid(
        self: &Arc<Self>,
    ) -> Result<Vec<(usize, DataPointOutcomes)>, SchedError> {
        let ptg_counts = &self.config.ptg_counts;
        let _span = mcsched_obs::span!(
            "campaign-grid",
            "replications" = self.config.replications,
            "ptg-counts" = ptg_counts.len()
        );
        self.heartbeat("starting");
        let grid: Vec<(usize, usize)> = (0..self.config.replications)
            .flat_map(|r| ptg_counts.iter().map(move |&n| (r, n)))
            .collect();
        let per_point = {
            let job = Arc::clone(self);
            let grid = grid.clone();
            run_indexed(self.config.threads, grid.len(), move |pi| {
                let (replication, num_ptgs) = grid[pi];
                job.data_point(replication, num_ptgs)
            })
        };
        let mut points = Vec::with_capacity(grid.len());
        for (&(_, num_ptgs), point) in grid.iter().zip(per_point) {
            match point {
                Ok(point) => points.push((num_ptgs, point)),
                Err(e) => {
                    if let Some(recorder) = &self.recorder {
                        recorder.finish(mcsched_obs::RunPhase::Failed);
                    }
                    return Err(e);
                }
            }
        }
        if let Some(cache) = &self.cache {
            flush_cell_cache(cache);
            report_cell_cache(cache);
        }
        if let Some((index, of)) = self.config.shard {
            mcsched_obs::note!(
                "shard {index}/{of}: skipped {} out-of-shard cell(s); merge the \
                 shard cache dirs (mcsched-merge) and re-run unsharded to render \
                 complete tables",
                self.skipped.load(std::sync::atomic::Ordering::Relaxed)
            );
        }
        if let Some(recorder) = &self.recorder {
            recorder.finish(mcsched_obs::RunPhase::Done);
        }
        Ok(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::generate_scenarios;
    use mcsched_core::ConstraintStrategy;
    use mcsched_ptg::gen::PtgClass;

    fn policies() -> Vec<Arc<dyn ConstraintPolicy>> {
        [
            ConstraintStrategy::Selfish,
            ConstraintStrategy::EqualShare,
            ConstraintStrategy::Proportional(mcsched_core::Characteristic::Work),
        ]
        .iter()
        .map(|s| s.to_policy())
        .collect()
    }

    #[test]
    fn digests_separate_every_cell_axis() {
        let base = SchedulerConfig::default();
        let pipeline = base.pipeline_cache_key();
        let scenarios = generate_scenarios(PtgClass::Strassen, 2, 2, 5);
        let policies = policies();
        let d =
            |s: &Scenario, p: usize| cell_digest("strassen", &pipeline, s, policies[p].as_ref());
        // Same cell twice: identical. Different scenario or policy: distinct.
        assert_eq!(d(&scenarios[0], 0), d(&scenarios[0], 0));
        assert_ne!(d(&scenarios[0], 0), d(&scenarios[1], 0));
        assert_ne!(d(&scenarios[0], 0), d(&scenarios[0], 1));
        // Different spec or pipeline: distinct.
        assert_ne!(
            cell_digest("strassen", &pipeline, &scenarios[0], policies[0].as_ref()),
            cell_digest("fft", &pipeline, &scenarios[0], policies[0].as_ref())
        );
        assert_ne!(
            cell_digest(
                "strassen",
                "other-pipeline",
                &scenarios[0],
                policies[0].as_ref()
            ),
            cell_digest("strassen", &pipeline, &scenarios[0], policies[0].as_ref())
        );
    }

    #[test]
    fn digests_cover_workload_content_not_just_provenance() {
        let base = SchedulerConfig::default();
        let pipeline = base.pipeline_cache_key();
        let policies = policies();
        let scenarios = generate_scenarios(PtgClass::Strassen, 2, 1, 5);
        let d = |s: &Scenario| cell_digest("spec", &pipeline, s, policies[0].as_ref());
        // Same graphs, different release times: different cells.
        let mut retimed = scenarios[0].clone();
        retimed.release_times = vec![0.0, 10.0];
        assert_ne!(d(&scenarios[0]), d(&retimed));
        // A forged scenario with identical provenance (name, seed, platform,
        // spec) but different graph content — the edited-trace threat model —
        // must still get a different digest.
        let other = generate_scenarios(PtgClass::Fft, 2, 1, 5);
        let mut forged = other[0].clone();
        forged.name = scenarios[0].name.clone();
        forged.seed = scenarios[0].seed;
        assert_eq!(forged.platform.name(), scenarios[0].platform.name());
        assert_ne!(d(&scenarios[0]), d(&forged));
    }

    /// An unsharded evaluation of `strassen` cells through `cache`.
    fn cached(
        scenario: &Scenario,
        policies: &[Arc<dyn ConstraintPolicy>],
        cache: &CellCache,
    ) -> Vec<ScenarioOutcome> {
        let base = SchedulerConfig::default();
        let pipeline = base.pipeline_cache_key();
        let (outcomes, skipped) = evaluate_policies_sharded(
            scenario,
            &base,
            policies,
            Some(cache),
            "strassen",
            &pipeline,
            None,
        );
        assert_eq!(skipped, 0);
        outcomes
    }

    #[test]
    fn cached_evaluation_is_bit_identical_to_direct() {
        let base = SchedulerConfig::default();
        let scenarios = generate_scenarios(PtgClass::Strassen, 2, 1, 9);
        let scenario = &scenarios[0];
        let policies = policies();
        let direct = scenario.evaluate_policies(&base, &policies);

        let cache = CellCache::in_memory();
        let cold = cached(scenario, &policies, &cache);
        assert_eq!(cold, direct);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), policies.len() as u64);

        let warm = cached(scenario, &policies, &cache);
        assert_eq!(
            warm, direct,
            "cache hits reproduce the outcomes bit-exactly"
        );
        assert_eq!(cache.hits(), policies.len() as u64);
    }

    #[test]
    fn sharded_evaluation_unions_to_the_direct_result() {
        let base = SchedulerConfig::default();
        let pipeline = base.pipeline_cache_key();
        let scenarios = generate_scenarios(PtgClass::Strassen, 2, 1, 17);
        let scenario = &scenarios[0];
        let policies = policies();
        let direct = scenario.evaluate_policies(&base, &policies);
        let of = 2;
        let mut merged: Vec<Option<ScenarioOutcome>> = vec![None; policies.len()];
        let mut total_skipped = 0;
        for index in 0..of {
            let cache = CellCache::in_memory();
            let (outcomes, skipped) = evaluate_policies_sharded(
                scenario,
                &base,
                &policies,
                Some(&cache),
                "strassen",
                &pipeline,
                Some((index, of)),
            );
            total_skipped += skipped;
            // Placeholders are all-NaN and never cached.
            let evaluated = outcomes.iter().filter(|o| !o.makespan.is_nan()).count();
            assert_eq!(cache.len(), evaluated, "only real cells enter the cache");
            for (slot, outcome) in outcomes.into_iter().enumerate() {
                if outcome.makespan.is_nan() {
                    assert!(outcome.unfairness.is_nan());
                    assert!(outcome.average_slowdown.is_nan());
                } else {
                    assert!(
                        merged[slot].replace(outcome).is_none(),
                        "each cell is evaluated by exactly one shard"
                    );
                }
            }
        }
        // Every cell was evaluated by exactly one shard, bit-identically to
        // the direct path, and skip counts complement evaluations.
        let merged: Vec<ScenarioOutcome> = merged.into_iter().map(Option::unwrap).collect();
        assert_eq!(merged, direct);
        assert_eq!(
            total_skipped as usize,
            policies.len() * (of - 1),
            "each cell is skipped by all other shards"
        );
    }

    #[test]
    fn partially_warm_cache_evaluates_only_the_missing_subset() {
        let base = SchedulerConfig::default();
        let scenarios = generate_scenarios(PtgClass::Strassen, 2, 1, 13);
        let scenario = &scenarios[0];
        let policies = policies();
        let cache = CellCache::in_memory();
        // Warm only the middle policy.
        let middle = vec![Arc::clone(&policies[1])];
        cached(scenario, &middle, &cache);
        assert_eq!(cache.len(), 1);
        // Full evaluation: one hit, two misses, outcomes identical to direct.
        let direct = scenario.evaluate_policies(&base, &policies);
        let mixed = cached(scenario, &policies, &cache);
        assert_eq!(mixed, direct);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), policies.len());
    }
}
