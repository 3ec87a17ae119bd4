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
//! sound. Sharded runs (`--shard i/N`) split by scenario rather than by
//! cell, so the one shard that owns a scenario also computes its dedicated
//! baselines, once.
//!
//! Every campaign runs its grid through `CellJob::run_grid`: one fan-out
//! over all (replication, PTG count, combination) triples in grid order,
//! each task generating one combination and evaluating its four site
//! scenarios. There is no barrier per data point. Results, side effects
//! (cache flush, progress tick, heartbeat) and errors all follow grid
//! order, and at most `threads` combinations' graphs are alive at once.
//!
//! A task hashes its combination's four site scenarios in one content pass
//! ([`combination_digests`]): they share their applications, so the
//! workload bytes go to four digest states in lockstep, bit-identical to
//! four [`scenario_digest`] calls. Each policy's `cache_key()` is built
//! once per campaign, and the cell cache is opened on the campaign's
//! threads (`CellCache::open_with_threads`).

use crate::campaign::CampaignConfig;
use crate::scenario::{generate_combination, replication_seed, Scenario};
use mcsched_core::policy::ConstraintPolicy;
use mcsched_core::{SchedError, SchedulerConfig};
use mcsched_platform::{grid5000, Platform};
use mcsched_ptg::Ptg;
use mcsched_runtime::{
    run_indexed, CellCache, CellDigest, CellMetrics, DigestBuilder, DigestFields, DigestLanes,
    Progress,
};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
    workload_fields(
        site_fields(source_spec, pipeline_key, scenario),
        &scenario.ptgs,
        &scenario.release_times,
    )
}

/// The [`scenario_digest`] builders of the site scenarios of one generated
/// combination, in order. The four scenarios of a combination differ only
/// in their provenance and platform fields and share their applications,
/// so their workload content, nearly all of the bytes, is hashed in one
/// pass through [`DigestLanes`]. Scenarios that are not four, or that do
/// not share one [`Scenario::ptgs`] slice and bit-identical release times,
/// are hashed one by one; the builders are equal either way.
#[must_use]
pub fn combination_digests(
    source_spec: &str,
    pipeline_key: &str,
    scenarios: &[Scenario],
) -> Vec<DigestBuilder> {
    let shared = <&[Scenario; 4]>::try_from(scenarios).ok().filter(|four| {
        let release_bits = four[0].release_times.iter().map(|r| r.to_bits());
        four[1..].iter().all(|s| {
            Arc::ptr_eq(&s.ptgs, &four[0].ptgs)
                && s.release_times
                    .iter()
                    .map(|r| r.to_bits())
                    .eq(release_bits.clone())
        })
    });
    let Some(four) = shared else {
        return scenarios
            .iter()
            .map(|scenario| scenario_digest(source_spec, pipeline_key, scenario))
            .collect();
    };
    let lanes = DigestLanes::new(
        four.each_ref()
            .map(|s| site_fields(source_spec, pipeline_key, s)),
    );
    workload_fields(lanes, &four[0].ptgs, &four[0].release_times)
        .into_builders()
        .into()
}

/// The fields of [`scenario_digest`] that differ between the site
/// scenarios of one combination: provenance, the pipeline key and the
/// platform.
fn site_fields(source_spec: &str, pipeline_key: &str, scenario: &Scenario) -> DigestBuilder {
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
    digest
        .str(topology_label)
        .f64(topology_link.bandwidth)
        .f64(topology_link.latency)
}

/// The workload content fields of [`scenario_digest`], fed to one digest
/// state or to four in lockstep.
fn workload_fields<F: DigestFields>(mut digest: F, ptgs: &[Ptg], release_times: &[f64]) -> F {
    for ptg in ptgs {
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
    for &release in release_times {
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

/// Opens the configured cell cache, if any, loading its shard files on
/// the campaign's `threads`.
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
    threads: usize,
) -> Result<Option<CellCache>, SchedError> {
    match cache_dir {
        None => Ok(None),
        Some(dir) => CellCache::open_with_threads(dir, resume, threads)
            .map(Some)
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

/// The placeholder a sharded run (`--shard i/N`) records for a cell outside
/// its own partition: all-NaN metrics that aggregation treats as "no
/// measurement" (NaN fails every `> 0.0` best-makespan filter). Never
/// cached, so merging shard caches can never conflict on a placeholder.
pub const SKIPPED_CELL: CellMetrics = CellMetrics {
    unfairness: f64::NAN,
    makespan: f64::NAN,
    average_slowdown: f64::NAN,
};

/// Evaluates every policy on the scenario through the paired
/// (shared-context) path, serving and populating `cache` when present.
/// Outcomes come back in policy order, bit-identical whether each cell was
/// computed or served from cache. With `shard = Some((index, of))`, the
/// **scenario** is the unit of the split: the scenario digest (the one every
/// cell digest of the scenario extends, finalized on its own) picks the
/// partition ([`CellDigest::in_shard`]). A scenario outside partition
/// `index` of `of` is **skipped entirely** — no context, no dedicated
/// baseline, no cache lookup, no insert — and the call returns `None`; a
/// campaign records [`SKIPPED_CELL`] placeholders for its cells. A scenario
/// inside it runs the unsharded path over all its policies. So N disjoint
/// shard runs collectively populate the exact cells one unsharded run
/// would, and each scenario's dedicated baselines are computed by one shard
/// only.
pub fn evaluate_policies_sharded(
    scenario: &Scenario,
    base: &SchedulerConfig,
    policies: &[Arc<dyn ConstraintPolicy>],
    cache: Option<&CellCache>,
    source_spec: &str,
    pipeline_key: &str,
    shard: Option<(usize, usize)>,
) -> Option<Vec<CellMetrics>> {
    let digest = (cache.is_some() || shard.is_some())
        .then(|| scenario_digest(source_spec, pipeline_key, scenario));
    let policy_keys: Vec<String> = policies.iter().map(|p| p.cache_key()).collect();
    evaluate_scenario(scenario, base, policies, &policy_keys, cache, digest, shard)
}

/// [`evaluate_policies_sharded`] with the scenario's digest builder (needed
/// with a cache or a shard) and the policies' `cache_key()`s (read with a
/// cache) already computed.
fn evaluate_scenario(
    scenario: &Scenario,
    base: &SchedulerConfig,
    policies: &[Arc<dyn ConstraintPolicy>],
    policy_keys: &[String],
    cache: Option<&CellCache>,
    digest: Option<DigestBuilder>,
    shard: Option<(usize, usize)>,
) -> Option<Vec<CellMetrics>> {
    let _span = mcsched_obs::span!(
        "cell-eval",
        "scenario" = scenario.name.clone(),
        "policies" = policies.len()
    );
    // The shard check finalizes a clone of the scenario's builder, and so
    // does each policy's cell key.
    if let (Some((index, of)), Some(digest)) = (shard, &digest) {
        if !digest.clone().finish().in_shard(index, of) {
            return None;
        }
    }
    let (Some(cache), Some(digest)) = (cache, digest) else {
        return Some(scenario.evaluate_policies(base, policies));
    };
    let keys: Vec<CellDigest> = policy_keys
        .iter()
        .map(|key| digest.clone().str(key).finish())
        .collect();
    let mut outcomes: Vec<Option<CellMetrics>> =
        keys.iter().map(|&key| cache.lookup(key)).collect();
    let missing: Vec<usize> = (0..policies.len())
        .filter(|&i| outcomes[i].is_none())
        .collect();
    if !missing.is_empty() {
        let subset: Vec<Arc<dyn ConstraintPolicy>> =
            missing.iter().map(|&i| Arc::clone(&policies[i])).collect();
        let fresh = scenario.evaluate_policies(base, &subset);
        for (&slot, outcome) in missing.iter().zip(fresh) {
            cache.insert(keys[slot], outcome);
            outcomes[slot] = Some(outcome);
        }
    }
    Some(
        outcomes
            .into_iter()
            .map(|o| o.expect("every policy slot is cached or freshly evaluated"))
            .collect(),
    )
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
pub(crate) type DataPointOutcomes = Vec<Vec<CellMetrics>>;

/// The state one campaign run shares with its fan-out tasks: the
/// configuration, cache and progress. Every campaign — the figures and the
/// µ calibration alike — drives its grid through [`CellJob::run_grid`], so
/// the fan-out shape, the cache/flush cadence and the digest inputs live in
/// exactly one place. One task is one combination of one data point: it
/// generates the combination's applications, evaluates its site scenarios
/// and drops the graphs, so at most `threads` combinations' graphs are
/// alive at once.
pub(crate) struct CellJob {
    /// The campaign, with at least one replication.
    config: CampaignConfig,
    cache: Option<CellCache>,
    progress: Progress,
    spec: String,
    pipeline_key: String,
    /// Each policy's `cache_key()`, in policy order, built once per
    /// campaign.
    policy_keys: Vec<String>,
    /// The source's short label, prefixing request and scenario names.
    label: String,
    /// The Grid'5000 sites every combination is evaluated on.
    platforms: Vec<Platform>,
    /// Out-of-shard cells skipped so far (reported at the end of the grid).
    skipped: AtomicU64,
    /// The fleet record, when the campaign has an obs dir; data points
    /// heartbeat through it.
    recorder: Option<mcsched_obs::RunRecorder>,
    /// In-shard cells evaluated or served so far (heartbeat progress).
    cells_done: AtomicU64,
    /// The progress detail of every completed data point, in tick order.
    #[cfg(test)]
    ticks: Mutex<Vec<String>>,
}

/// The grid-order cursor of [`CellJob::run_grid`]: counts the unfinished
/// combinations of each data point and releases data points in grid order,
/// each once its own and every earlier data point's combinations have all
/// finished.
struct GridCursor {
    /// Unfinished combinations per data point.
    pending: Vec<usize>,
    /// The first data point not yet released.
    next: usize,
}

impl GridCursor {
    fn new(points: usize, combinations: usize) -> Self {
        Self {
            pending: vec![combinations; points],
            next: 0,
        }
    }

    /// Releases every data point that is complete and follows only
    /// released ones; returns them in grid order.
    fn release(&mut self) -> Range<usize> {
        let start = self.next;
        while self.pending.get(self.next) == Some(&0) {
            self.next += 1;
        }
        start..self.next
    }

    /// Records one finished combination of data point `point`, then
    /// [`GridCursor::release`]s.
    fn finish(&mut self, point: usize) -> Range<usize> {
        self.pending[point] -= 1;
        self.release()
    }
}

impl CellJob {
    /// Assembles the job of a campaign, labelled `campaign:<source>`: opens
    /// the cache (if configured), derives the source spec and pipeline key,
    /// and sizes the progress reporter to `replications × ptg_counts` data
    /// points. A library caller's zero replications run as one. With
    /// [`CampaignConfig::shard`] set, the progress label carries a
    /// `[shard i/N]` suffix and only that partition of the scenarios is
    /// evaluated.
    ///
    /// # Errors
    ///
    /// Propagates cache-directory failures (a directory that cannot be
    /// created or cleared) and rejects malformed shard specs (`index >= of`
    /// or `of == 0`).
    pub(crate) fn new(config: &CampaignConfig) -> Result<Self, SchedError> {
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
            policy_keys: config.strategies.iter().map(|p| p.cache_key()).collect(),
            label: config.source.short_label(),
            platforms: grid5000::all_sites(),
            cache: open_cell_cache(config.cache_dir.as_deref(), config.resume, config.threads)?,
            progress: Progress::new(label, data_points, config.progress),
            config,
            skipped: AtomicU64::new(0),
            recorder: None,
            cells_done: AtomicU64::new(0),
            #[cfg(test)]
            ticks: Mutex::new(Vec::new()),
        };
        job.recorder = job.config.obs_dir.as_deref().map(|dir| {
            run_recorder(
                dir,
                manifest_label,
                job.config.shard.unwrap_or((0, 1)),
                job.config_digest(),
            )
        });
        Ok(job)
    }

    /// The fleet config digest of this grid: every input that determines
    /// the campaign's cell set **except** the shard spec, so all shards of
    /// one fleet share it and `mcsched-exp obs-merge` can refuse to union runs
    /// of different campaigns (mirroring the per-cell digest composition).
    fn config_digest(&self) -> String {
        let mut digest = DigestBuilder::new()
            .str("fleet-config")
            .str(&self.spec)
            .str(&self.pipeline_key)
            .u64(self.config.seed)
            .usize(self.config.combinations)
            .usize(self.config.replications);
        for key in &self.policy_keys {
            digest = digest.str(key);
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
            cells_done: self.cells_done.load(Ordering::Relaxed),
            cache_hits: self.cache.as_ref().map_or(0, |c| c.hits()),
            cache_misses: self.cache.as_ref().map_or(0, |c| c.misses()),
            detail: detail.to_string(),
            ..mcsched_obs::Heartbeat::default()
        });
    }

    /// The `(replication, PTG count)` of data point `point` (grid order:
    /// replication-major, then PTG count).
    fn data_point(&self, point: usize) -> (usize, usize) {
        let ptg_counts = &self.config.ptg_counts;
        (
            point / ptg_counts.len(),
            ptg_counts[point % ptg_counts.len()],
        )
    }

    /// One task of the grid: generates combination `combo` of data point
    /// `point`, hashes its site scenarios in one pass when a cache or a
    /// shard needs their digests ([`combination_digests`]), and evaluates
    /// them, returning their outcomes in site order.
    fn combination(&self, point: usize, combo: usize) -> Result<Vec<Vec<CellMetrics>>, SchedError> {
        let (replication, num_ptgs) = self.data_point(point);
        let _span = mcsched_obs::span!(
            "combination",
            "ptgs" = num_ptgs,
            "rep" = replication,
            "combo" = combo
        );
        let scenarios = generate_combination(
            self.config.source.as_ref(),
            &self.label,
            &self.platforms,
            num_ptgs,
            combo,
            replication_seed(self.config.seed, replication),
        )?;
        let digests = if self.cache.is_some() || self.config.shard.is_some() {
            combination_digests(&self.spec, &self.pipeline_key, &scenarios)
                .into_iter()
                .map(Some)
                .collect()
        } else {
            vec![None; scenarios.len()]
        };
        Ok(scenarios
            .iter()
            .zip(digests)
            .map(|(scenario, digest)| {
                let policies = &self.config.strategies;
                let cells = policies.len() as u64;
                match evaluate_scenario(
                    scenario,
                    &self.config.base,
                    policies,
                    &self.policy_keys,
                    self.cache.as_ref(),
                    digest,
                    self.config.shard,
                ) {
                    Some(outcomes) => {
                        self.cells_done.fetch_add(cells, Ordering::Relaxed);
                        outcomes
                    }
                    None => {
                        self.skipped.fetch_add(cells, Ordering::Relaxed);
                        mcsched_obs::counter!("cells.shard_skip").add(cells);
                        vec![SKIPPED_CELL; policies.len()]
                    }
                }
            })
            .collect())
    }

    /// The side effects of completed data point `point`: flushes the cell
    /// cache (the resume grain), ticks the progress reporter and refreshes
    /// the heartbeat. The flush may carry cells of later data points too.
    fn point_done(&self, point: usize) {
        let (replication, num_ptgs) = self.data_point(point);
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
        #[cfg(test)]
        lock(&self.ticks).push(detail);
    }

    /// Runs the whole `replications × ptg_counts × combinations` grid as
    /// one fan-out over the configured threads, one task per combination,
    /// and returns one `(num_ptgs, per-scenario outcomes)` entry per data
    /// point in grid order (replication-major, then PTG count; scenarios
    /// combination-major, then site). Results land in per-index slots, so
    /// they do not depend on the thread count or completion order. There
    /// is no barrier between data points: each one's side effects (cache
    /// flush, progress tick, heartbeat) run in grid order under one cursor,
    /// as soon as its last combination and every earlier data point have
    /// finished. Flushes and reports the cache at the end.
    ///
    /// # Errors
    ///
    /// Returns the first failure in grid order, after every data point
    /// before it has been flushed, and marks the run's manifest `failed`.
    /// Tasks after a known failure skip their work.
    pub(crate) fn run_grid(&self) -> Result<Vec<(usize, DataPointOutcomes)>, SchedError> {
        let combinations = self.config.combinations;
        let points = self.config.replications * self.config.ptg_counts.len();
        let _span = mcsched_obs::span!(
            "campaign-grid",
            "replications" = self.config.replications,
            "ptg-counts" = self.config.ptg_counts.len()
        );
        self.heartbeat("starting");
        let cursor = Mutex::new(GridCursor::new(points, combinations));
        let emit = |ready: Range<usize>| ready.for_each(|point| self.point_done(point));
        // Without combinations every data point is complete from the start.
        emit(lock(&cursor).release());
        // The lowest failing task so far. `Relaxed`: it only lets later
        // tasks skip their work; results reach the caller through the
        // fan-out's slots.
        let first_failure = AtomicUsize::new(usize::MAX);
        let tasks = run_indexed(self.config.threads, points * combinations, |task| {
            if task > first_failure.load(Ordering::Relaxed) {
                return None;
            }
            let point = task / combinations;
            let outcome = self.combination(point, task % combinations);
            if outcome.is_ok() {
                let mut cursor = lock(&cursor);
                emit(cursor.finish(point));
            } else {
                first_failure.fetch_min(task, Ordering::Relaxed);
            }
            Some(outcome)
        });
        // Only tasks after a failure are skipped, so the first error in
        // grid order comes before any gap.
        let combos = match tasks.into_iter().flatten().collect::<Result<Vec<_>, _>>() {
            Ok(combos) => combos,
            Err(e) => {
                if let Some(recorder) = &self.recorder {
                    recorder.finish(mcsched_obs::RunPhase::Failed);
                }
                return Err(e);
            }
        };
        let mut combos = combos.into_iter();
        let grid = (0..points)
            .map(|point| {
                let per_scenario = combos.by_ref().take(combinations).flatten().collect();
                (self.data_point(point).1, per_scenario)
            })
            .collect();
        if let Some(cache) = &self.cache {
            flush_cell_cache(cache);
            report_cell_cache(cache);
        }
        if let Some((index, of)) = self.config.shard {
            mcsched_obs::note!(
                "shard {index}/{of}: skipped {} out-of-shard cell(s); merge the \
                 shard cache dirs (mcsched-exp merge) and re-run unsharded to render \
                 complete tables",
                self.skipped.load(Ordering::Relaxed)
            );
        }
        if let Some(recorder) = &self.recorder {
            recorder.finish(mcsched_obs::RunPhase::Done);
        }
        Ok(grid)
    }
}

/// Locks `mutex`, recovering the guard if a panicking task poisoned it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::generate_scenarios_with;
    use mcsched_core::{ConstraintStrategy, Workload};
    use mcsched_workload::{AppGenerator, GeneratorSource, WorkloadRequest, WorkloadSource};
    use std::path::PathBuf;

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
        let scenarios =
            generate_scenarios_with(&GeneratorSource::new(AppGenerator::Strassen), 2, 2, 5)
                .unwrap();
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
        let scenarios =
            generate_scenarios_with(&GeneratorSource::new(AppGenerator::Strassen), 2, 1, 5)
                .unwrap();
        let d = |s: &Scenario| cell_digest("spec", &pipeline, s, policies[0].as_ref());
        // Same graphs, different release times: different cells.
        let mut retimed = scenarios[0].clone();
        retimed.release_times = vec![0.0, 10.0];
        assert_ne!(d(&scenarios[0]), d(&retimed));
        // A forged scenario with identical provenance (name, seed, platform,
        // spec) but different graph content — the edited-trace threat model —
        // must still get a different digest.
        let fft = GeneratorSource::new(AppGenerator::Fft { points: None });
        let other = generate_scenarios_with(&fft, 2, 1, 5).unwrap();
        let mut forged = other[0].clone();
        forged.name = scenarios[0].name.clone();
        forged.seed = scenarios[0].seed;
        assert_eq!(forged.platform.name(), scenarios[0].platform.name());
        assert_ne!(d(&scenarios[0]), d(&forged));
    }

    /// The first data point of the paper's Fig-3 campaign (random PTGs),
    /// with its source spec and pipeline key.
    fn fig3_point(ptgs: usize, combinations: usize) -> (String, String, Vec<Scenario>) {
        point(
            &CampaignConfig::paper(AppGenerator::Random),
            ptgs,
            combinations,
        )
    }

    /// The scenarios of `combinations` draws of `ptgs` applications of
    /// `config`, with its source spec and pipeline key.
    fn point(
        config: &CampaignConfig,
        ptgs: usize,
        combinations: usize,
    ) -> (String, String, Vec<Scenario>) {
        let scenarios =
            generate_scenarios_with(config.source.as_ref(), ptgs, combinations, config.seed)
                .unwrap();
        (
            config.source.spec(),
            config.base.pipeline_cache_key(),
            scenarios,
        )
    }

    #[test]
    fn scenario_digest_of_a_fig3_scenario_is_pinned() {
        // Every on-disk cache is keyed by this composition: a change here
        // makes every existing cache directory miss.
        let (spec, pipeline, scenarios) = fig3_point(2, 1);
        let digest = scenario_digest(&spec, &pipeline, &scenarios[0]).finish();
        assert_eq!(digest.to_hex(), "0a32d5821cc66a4e93a518c57a0db2fd");
        // The first scenario of the largest data point of the quick FFT and
        // Strassen grids pins the bytes those classes draw.
        for (config, hex) in [
            (
                CampaignConfig::quick(AppGenerator::Fft { points: None }),
                "c461b28e4534e1f3aa00492a4fc8f03b",
            ),
            (
                CampaignConfig::quick(AppGenerator::Strassen),
                "81e38447d7b66e64732295483a1e41ad",
            ),
        ] {
            let ptgs = *config.ptg_counts.last().unwrap();
            let (spec, pipeline, scenarios) = point(&config, ptgs, 1);
            let digest = scenario_digest(&spec, &pipeline, &scenarios[0]).finish();
            assert_eq!(digest.to_hex(), hex, "{}", scenarios[0].name);
        }
    }

    #[test]
    fn combination_digests_equal_the_per_scenario_digests() {
        let (spec, pipeline, scenarios) = fig3_point(4, 3);
        for combination in scenarios.chunks(4) {
            let serial: Vec<CellDigest> = combination
                .iter()
                .map(|s| scenario_digest(&spec, &pipeline, s).finish())
                .collect();
            let lanes: Vec<CellDigest> = combination_digests(&spec, &pipeline, combination)
                .into_iter()
                .map(DigestBuilder::finish)
                .collect();
            assert_eq!(lanes, serial);
        }
    }

    #[test]
    fn combination_digests_fall_back_to_the_serial_walk() {
        let (spec, pipeline, scenarios) = fig3_point(3, 2);
        let serial = |scenarios: &[Scenario]| -> Vec<CellDigest> {
            scenarios
                .iter()
                .map(|s| scenario_digest(&spec, &pipeline, s).finish())
                .collect()
        };
        let combined = |scenarios: &[Scenario]| -> Vec<CellDigest> {
            combination_digests(&spec, &pipeline, scenarios)
                .into_iter()
                .map(DigestBuilder::finish)
                .collect()
        };
        // Two, three and five site scenarios.
        for sites in [&scenarios[..2], &scenarios[..3], &scenarios[..5]] {
            assert_eq!(combined(sites), serial(sites));
        }
        // Four scenarios with equal but unshared applications, and four
        // whose applications or release times differ.
        let mut unshared = scenarios[..4].to_vec();
        unshared[2].ptgs = unshared[2].ptgs.to_vec().into();
        assert_eq!(combined(&unshared), serial(&unshared));
        let mut mixed = scenarios[..4].to_vec();
        mixed[3].ptgs = Arc::clone(&scenarios[4].ptgs);
        assert_eq!(combined(&mixed), serial(&mixed));
        let mut retimed = scenarios[..4].to_vec();
        retimed[1].release_times[0] = -0.0;
        assert_ne!(combined(&retimed)[1], combined(&scenarios[..4])[1]);
        assert_eq!(combined(&retimed), serial(&retimed));
    }

    /// An unsharded evaluation of `strassen` cells through `cache`.
    fn cached(
        scenario: &Scenario,
        policies: &[Arc<dyn ConstraintPolicy>],
        cache: &CellCache,
    ) -> Vec<CellMetrics> {
        let base = SchedulerConfig::default();
        let pipeline = base.pipeline_cache_key();
        evaluate_policies_sharded(
            scenario,
            &base,
            policies,
            Some(cache),
            "strassen",
            &pipeline,
            None,
        )
        .expect("an unsharded call evaluates every cell")
    }

    #[test]
    fn cached_evaluation_is_bit_identical_to_direct() {
        let base = SchedulerConfig::default();
        let scenarios =
            generate_scenarios_with(&GeneratorSource::new(AppGenerator::Strassen), 2, 1, 9)
                .unwrap();
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
        let scenarios =
            generate_scenarios_with(&GeneratorSource::new(AppGenerator::Strassen), 2, 1, 17)
                .unwrap();
        let policies = policies();
        for scenario in &scenarios {
            let direct = scenario.evaluate_policies(&base, &policies);
            for of in [2, 3] {
                let mut owners = 0;
                for index in 0..of {
                    let cache = CellCache::in_memory();
                    let outcomes = evaluate_policies_sharded(
                        scenario,
                        &base,
                        &policies,
                        Some(&cache),
                        "strassen",
                        &pipeline,
                        Some((index, of)),
                    );
                    match outcomes {
                        // The owning shard evaluates and caches every cell,
                        // bit-identically to the direct path.
                        Some(outcomes) => {
                            owners += 1;
                            assert_eq!(outcomes, direct);
                            assert_eq!(cache.len(), policies.len());
                        }
                        // Every other shard skips the whole scenario.
                        None => assert_eq!(cache.len(), 0, "skipped cells are never cached"),
                    }
                }
                assert_eq!(owners, 1, "{}: one owner of {of}", scenario.name);
            }
        }
    }

    #[test]
    fn partially_warm_cache_evaluates_only_the_missing_subset() {
        let base = SchedulerConfig::default();
        let scenarios =
            generate_scenarios_with(&GeneratorSource::new(AppGenerator::Strassen), 2, 1, 13)
                .unwrap();
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

    #[test]
    fn cursor_releases_data_points_in_grid_order() {
        let mut cursor = GridCursor::new(3, 2);
        assert_eq!(cursor.release(), 0..0);
        assert_eq!(cursor.finish(2), 0..0);
        assert_eq!(cursor.finish(1), 0..0);
        assert_eq!(cursor.finish(1), 0..0, "data point 0 is still open");
        assert_eq!(cursor.finish(0), 0..0);
        assert_eq!(cursor.finish(0), 0..2);
        assert_eq!(cursor.finish(2), 2..3);
        assert_eq!(GridCursor::new(2, 0).release(), 0..2);
    }

    /// A Strassen source that sleeps on requests of `slow` applications,
    /// so later data points finish first on many threads, and fails on
    /// combinations 1 and 2 of requests of `fail` applications, on 1 only
    /// after a sleep, so on many threads 2 fails first.
    #[derive(Debug)]
    struct Scripted {
        slow: usize,
        fail: usize,
    }

    impl WorkloadSource for Scripted {
        fn spec(&self) -> String {
            "scripted".to_string()
        }

        fn generate(&self, request: &WorkloadRequest) -> Result<Workload, SchedError> {
            let late_failure = request.count == self.fail && request.label.ends_with("-1");
            let failure =
                late_failure || (request.count == self.fail && request.label.ends_with("-2"));
            if request.count == self.slow || late_failure {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            if failure {
                return Err(SchedError::InvalidConfig(format!(
                    "no workload for {}",
                    request.label
                )));
            }
            GeneratorSource::new(AppGenerator::Strassen).generate(request)
        }
    }

    /// A one-policy grid over `source`: PTG counts 2, 3 and 4, three
    /// combinations, on `threads` threads.
    fn scripted_config(source: Scripted, threads: usize) -> CampaignConfig {
        CampaignConfig {
            source: Arc::new(source),
            ptg_counts: vec![2, 3, 4],
            combinations: 3,
            strategies: CampaignConfig::policies(&[ConstraintStrategy::EqualShare]),
            threads,
            ..CampaignConfig::paper(AppGenerator::Strassen)
        }
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mcsched-cells-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn grid_fails_on_the_first_failing_combination_after_flushing_earlier_points() {
        // Combinations 1 and 2 of the last data point (4 PTGs) fail while
        // the first data point (2 PTGs) is still generating.
        let failing = || Scripted { slow: 2, fail: 4 };
        let policy = ConstraintStrategy::EqualShare.to_policy();
        let pipeline = SchedulerConfig::default().pipeline_cache_key();
        let seed = scripted_config(failing(), 1).seed;
        let mut earlier = Vec::new();
        for ptgs in [2, 3] {
            earlier.extend(generate_scenarios_with(&failing(), ptgs, 3, seed).unwrap());
        }
        for threads in [1, 2, 8] {
            let cache_dir = scratch_dir(&format!("fail-cache-{threads}"));
            let obs_dir = scratch_dir(&format!("fail-obs-{threads}"));
            let config = CampaignConfig {
                cache_dir: Some(cache_dir.clone()),
                obs_dir: Some(obs_dir.clone()),
                ..scripted_config(failing(), threads)
            };
            let error = CellJob::new(&config).unwrap().run_grid().unwrap_err();
            assert_eq!(
                error.to_string(),
                SchedError::InvalidConfig("no workload for scripted-1".to_string()).to_string(),
                "threads={threads}"
            );
            let cache = CellCache::open(&cache_dir, true).unwrap();
            for scenario in &earlier {
                let key = cell_digest("scripted", &pipeline, scenario, policy.as_ref());
                assert!(
                    cache.lookup(key).is_some(),
                    "threads={threads}: {} is not on disk",
                    scenario.name
                );
            }
            let manifest = std::fs::read_to_string(obs_dir.join("run-0of1.manifest.json")).unwrap();
            let manifest = mcsched_obs::RunManifest::parse_json(&manifest).unwrap();
            assert_eq!(
                manifest.phase,
                mcsched_obs::RunPhase::Failed,
                "threads={threads}"
            );
            let _ = std::fs::remove_dir_all(&cache_dir);
            let _ = std::fs::remove_dir_all(&obs_dir);
        }
    }

    #[test]
    fn warm_campaign_opens_its_cache_on_the_campaign_threads() {
        let cache_dir = scratch_dir("open-threads");
        let config = |threads| CampaignConfig {
            cache_dir: Some(cache_dir.clone()),
            ..scripted_config(Scripted { slow: 0, fail: 0 }, threads)
        };
        let cold = CellJob::new(&config(1)).unwrap().run_grid().unwrap();
        // The pool tasks of the open, and of the warm run with `run`.
        let pool_tasks = |threads, run: bool| {
            let collector = mcsched_obs::Collector::new();
            let installed = collector.install();
            let job = CellJob::new(&config(threads)).unwrap();
            if run {
                assert_eq!(job.run_grid().unwrap(), cold);
                let cache = job.cache.as_ref().unwrap();
                assert_eq!((cache.resumed(), cache.misses()), (cache.len(), 0));
            }
            drop(installed);
            (collector.totals().iter())
                .filter(|t| t.name == "pool-task")
                .map(|t| t.calls)
                .sum::<u64>()
        };
        assert_eq!(pool_tasks(1, true), 0, "one thread spawns nothing");
        let shards = mcsched_runtime::cache::SHARD_COUNT as u64;
        assert_eq!(pool_tasks(2, false), shards, "one task per shard file");
        let _ = std::fs::remove_dir_all(&cache_dir);
    }

    #[test]
    fn progress_ticks_in_grid_order_at_eight_threads() {
        // The 2-PTG data points generate slowly, so on eight threads the
        // later data points finish first.
        let config = CampaignConfig {
            replications: 2,
            ..scripted_config(Scripted { slow: 2, fail: 0 }, 8)
        };
        let job = CellJob::new(&config).unwrap();
        let grid = job.run_grid().unwrap();
        let ticks = job.ticks.lock().unwrap().clone();
        let expected: Vec<String> = (1..=2)
            .flat_map(|rep| [2, 3, 4].map(|ptgs| format!("ptgs={ptgs} rep={rep}/2")))
            .collect();
        assert_eq!(ticks, expected);
        let sequential = CellJob::new(&CampaignConfig {
            threads: 1,
            ..config
        })
        .unwrap()
        .run_grid()
        .unwrap();
        assert_eq!(grid, sequential, "results land in grid order");
    }
}
