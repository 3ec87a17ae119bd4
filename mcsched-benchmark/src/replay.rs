//! `cache-merge-replay`: the collection step of a sharded campaign.
//!
//! Set-up runs the first `daggen-paper` grid of the seed as three cold
//! shards (`shard i/3`), each into its own cache directory; each shard is
//! one set-up sample. An iteration merges the three directories into a
//! fresh one (writes) and replays the figure warm from it (reads): no
//! allocation, mapping or simulation runs at all, only workload generation,
//! digests, the cache and the report.
//!
//! The traced iteration repeats the merge, then serves every cell through
//! `CellCache::open`, the scenario digest and `lookup`, flushing after each
//! data point as the warm campaign does, and renders the same figure.

use crate::campaign::{assemble, campaign_config, check_cells, digest, mismatched_cells};
use crate::span::Tracer;
use crate::workload::{Grid, Tally, Workload};
use mcsched_exp::cells::scenario_digest;
use mcsched_exp::{
    generate_scenarios_with, run_campaign, table_campaign, CampaignConfig, CampaignResult,
};
use mcsched_runtime::{merge_cache_dirs, CellCache, CellDigest};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Shard processes a sharded campaign is split into.
const SHARDS: usize = 3;

/// The shard-merge-replay benchmark.
pub struct ReplayBench {
    config: CampaignConfig,
    shards: Vec<PathBuf>,
    merged: PathBuf,
    expected_cells: usize,
    reference_table: Option<String>,
    last: Option<(CampaignResult, String)>,
    cache_bytes: u64,
}

impl ReplayBench {
    /// The benchmark of `grid` drawn from `seed` on `threads` workers, with
    /// its cache directories under `work`.
    ///
    /// # Errors
    ///
    /// When the grid's spec does not resolve.
    pub fn new(grid: &Grid, seed: u64, threads: usize, work: &Path) -> Result<Self, String> {
        Ok(Self {
            config: campaign_config(grid, seed, threads)?,
            shards: (0..SHARDS)
                .map(|i| work.join(format!("shard-{i}")))
                .collect(),
            merged: work.join("merged"),
            expected_cells: grid.ptg_counts.len()
                * grid.combinations
                * mcsched_platform::grid5000::all_sites().len()
                * grid.strategies.len(),
            reference_table: None,
            last: None,
            cache_bytes: 0,
        })
    }

    fn fresh_merge_dir(&self) -> Result<&Path, String> {
        match std::fs::remove_dir_all(&self.merged) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                Err(format!("{}: {e}", self.merged.display()))
            }
            _ => Ok(&self.merged),
        }
    }
}

impl Workload for ReplayBench {
    fn threads(&self) -> usize {
        self.config.threads
    }

    fn setup(&mut self) -> Result<Vec<f64>, String> {
        mcsched_runtime::pool_for(self.config.threads);
        self.shards
            .iter()
            .enumerate()
            .map(|(i, dir)| {
                let shard = CampaignConfig {
                    cache_dir: Some(dir.clone()),
                    resume: false,
                    shard: Some((i, SHARDS)),
                    ..self.config.clone()
                };
                let start = Instant::now();
                run_campaign(&shard).map_err(|e| e.to_string())?;
                Ok(start.elapsed().as_secs_f64())
            })
            .collect()
    }

    fn run(&mut self, k: u64) -> Result<Tally, String> {
        let dest = self.fresh_merge_dir()?.to_path_buf();
        let misses = mcsched_obs::metrics::counter("cache.miss").get();
        let start = Instant::now();
        let report = merge_cache_dirs(&self.shards, &dest).map_err(|e| e.to_string())?;
        let warm = CampaignConfig {
            cache_dir: Some(dest.clone()),
            ..self.config.clone()
        };
        let result = run_campaign(&warm).map_err(|e| e.to_string())?;
        let table = table_campaign(&result);
        let wall = start.elapsed().as_secs_f64();
        if k == 0 {
            self.cache_bytes = crate::host::dir_bytes(&dest)?;
        }
        let reference = self.reference_table.get_or_insert_with(|| table.clone());
        let ok = report.cells == self.expected_cells
            && report.skipped == 0
            && mcsched_obs::metrics::counter("cache.miss").get() == misses
            && table == *reference
            && check_cells(&result).1 == 0;
        self.last = Some((result, table));
        Ok(Tally::of(1, u64::from(!ok), wall))
    }

    fn run_traced(&mut self, tracer: &Tracer) -> Result<Tally, String> {
        let dest = self.fresh_merge_dir()?.to_path_buf();
        let config = &self.config;
        let spec = config.source.spec();
        let pipeline = config.base.pipeline_cache_key();
        let start = Instant::now();
        let report = tracer
            .span("runtime.cache.merge", || {
                merge_cache_dirs(&self.shards, &dest)
            })
            .map_err(|e| e.to_string())?;
        let cache = tracer
            .span("runtime.cache.open", || CellCache::open(&dest, true))
            .map_err(|e| e.to_string())?;
        let mut grid = Vec::with_capacity(config.ptg_counts.len());
        let mut missing = 0u64;
        for &n in &config.ptg_counts {
            let scenarios = tracer
                .span("workload", || {
                    generate_scenarios_with(
                        config.source.as_ref(),
                        n,
                        config.combinations,
                        config.seed,
                    )
                })
                .map_err(|e| e.to_string())?;
            let mut per_scenario = Vec::with_capacity(scenarios.len());
            for scenario in &scenarios {
                let keys: Vec<CellDigest> = tracer.span("runtime.digest", || {
                    let shared = scenario_digest(&spec, &pipeline, scenario);
                    config
                        .strategies
                        .iter()
                        .map(|p| shared.clone().str(&p.cache_key()).finish())
                        .collect()
                });
                let cells = tracer.span("runtime.cache.lookup", || {
                    keys.iter()
                        .map(|&key| cache.lookup(key))
                        .collect::<Vec<_>>()
                });
                missing += cells.iter().filter(|cell| cell.is_none()).count() as u64;
                per_scenario.push(
                    cells
                        .iter()
                        .map(|cell| {
                            cell.map_or((f64::NAN, f64::NAN), |m| (m.unfairness, m.makespan))
                        })
                        .collect(),
                );
            }
            tracer
                .span("runtime.cache.flush", || cache.flush())
                .map_err(|e| e.to_string())?;
            grid.push((n, per_scenario));
        }
        let result = assemble(config, grid);
        let table = tracer.span("exp.report", || table_campaign(&result));
        let wall = start.elapsed().as_secs_f64();
        let (untraced, untraced_table) = self.last.as_ref().ok_or("run_traced before run")?;
        let ok = report.cells == self.expected_cells
            && missing == 0
            && mismatched_cells(&result, untraced) == 0
            && table == *untraced_table;
        Ok(Tally::of(1, u64::from(!ok), wall))
    }

    fn output_digest(&self) -> String {
        self.reference_table
            .as_deref()
            .map(digest)
            .unwrap_or_default()
    }

    fn extras(&self) -> Vec<(&'static str, f64)> {
        vec![("runtime.cache.bytes", self.cache_bytes as f64)]
    }
}
