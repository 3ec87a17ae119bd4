//! The campaign workloads (`daggen-paper`, `daggen-paper-2t`,
//! `fft32-dense`) and the pieces of a campaign the cache workload shares:
//! the grid's inputs, the per-cell correctness gate, the bit-for-bit
//! comparison of two results and the aggregation of per-scenario outcomes
//! into a figure.
//!
//! The untraced iteration is `run_campaign` plus `table_campaign`, exactly
//! what a figure binary does. The traced iteration evaluates the same grid
//! one layer call at a time: scenario generation, the evaluation context,
//! β, allocation, mapping and simulation per policy, the β = 1 dedicated
//! baselines driven by hand through the context's base policies, and the
//! fairness metrics. Its cells must be bit-identical to the untraced ones,
//! which shows that the decomposition is faithful.

use crate::span::Tracer;
use crate::workload::{iteration_seed, Grid, Inputs, Tally, Workload};
use mcsched_core::policy::ConstraintPolicy;
use mcsched_core::{MappingRequest, SchedError, SchedulerConfig, Workload as Apps};
use mcsched_exp::scenario::Scenario;
use mcsched_exp::{
    generate_scenarios_with, run_campaign, table_campaign, CampaignConfig, CampaignResult,
    CellSamples, StrategyPoint,
};
use mcsched_ptg::gen::CostScenario;
use mcsched_workload::{
    AppGenerator, DaggenConfig, GeneratorSource, WorkloadCatalog, WorkloadRequest, WorkloadSource,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// How many times set-up generates the first iteration's scenarios.
const SETUP_REPEATS: usize = 9;

/// SplitMix64 step: the benchmark's own draw of DAGGEN parameters.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's DAGGEN grid, drawn like `daggen-grid` except that the task
/// count cycles through 10, 20 and 50 along each combination's
/// applications, from a drawn starting point. The task count dominates a
/// cell's cost; drawing it made the throughput of an 800-cell grid vary by
/// about a quarter from seed to seed.
#[derive(Debug)]
struct StratifiedDaggen;

impl WorkloadSource for StratifiedDaggen {
    fn spec(&self) -> String {
        "daggen-grid-stratified".into()
    }

    fn generate(&self, request: &WorkloadRequest) -> Result<Apps, SchedError> {
        let mut state = request.seed;
        let first = splitmix64(&mut state) as usize;
        let generators = (0..request.count)
            .map(|i| {
                let mut pick = |n: u64| (splitmix64(&mut state) % n) as usize;
                AppGenerator::Daggen(DaggenConfig {
                    num_tasks: [10, 20, 50][(first + i) % 3],
                    fat: [0.2, 0.5, 0.8][pick(3)],
                    regularity: [0.2, 0.8][pick(2)],
                    density: [0.2, 0.8][pick(2)],
                    jump: [1, 2, 4][pick(3)],
                    ccr: 1.0,
                    cost_scenario: CostScenario::all()[pick(4)],
                })
            })
            .collect();
        GeneratorSource::mixed(generators)?.generate(request)
    }
}

/// A campaign configuration for `grid` at `seed` on `threads` workers,
/// without a cache.
///
/// # Errors
///
/// When the grid's spec does not resolve.
pub fn campaign_config(grid: &Grid, seed: u64, threads: usize) -> Result<CampaignConfig, String> {
    let source: Arc<dyn WorkloadSource> = match grid.inputs {
        Inputs::StratifiedDaggen => Arc::new(StratifiedDaggen),
        Inputs::Spec(spec) => WorkloadCatalog::builtin()
            .resolve(spec)
            .map_err(|e| format!("workload spec `{spec}`: {e}"))?,
    };
    Ok(CampaignConfig {
        source,
        ptg_counts: grid.ptg_counts.clone(),
        combinations: grid.combinations,
        strategies: CampaignConfig::policies(&grid.strategies),
        base: SchedulerConfig::default(),
        seed,
        replications: 1,
        threads,
        cache_dir: None,
        resume: true,
        progress: false,
        shard: None,
        obs_dir: None,
    })
}

/// Generates every scenario of `config`'s grid `SETUP_REPEATS` times,
/// returning the wall time of each repetition.
///
/// # Errors
///
/// Workload-generation failures.
pub fn time_generation(config: &CampaignConfig) -> Result<Vec<f64>, String> {
    (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            for &n in &config.ptg_counts {
                let scenarios = generate_scenarios_with(
                    config.source.as_ref(),
                    n,
                    config.combinations,
                    config.seed,
                )
                .map_err(|e| e.to_string())?;
                std::hint::black_box(scenarios);
            }
            Ok(start.elapsed().as_secs_f64())
        })
        .collect()
}

/// The correctness gate on a figure: `(cells, failed cells)`, where a cell
/// fails when a metric is non-finite, its unfairness is negative or its
/// relative makespan is below 1.
#[must_use]
pub fn check_cells(result: &CampaignResult) -> (u64, u64) {
    let mut cells = 0;
    let mut failed = 0;
    for point in &result.points {
        let s = &point.samples;
        for ((&u, &m), &r) in s
            .unfairness
            .values()
            .iter()
            .zip(s.makespan.values())
            .zip(s.relative_makespan.values())
        {
            cells += 1;
            let ok = u.is_finite() && m.is_finite() && r.is_finite() && u >= 0.0 && r >= 1.0 - 1e-9;
            failed += u64::from(!ok);
        }
    }
    (cells, failed)
}

/// Cells of `a` whose (unfairness, makespan) differ in any bit from `b`'s;
/// every cell of `a` when the two grids do not line up.
#[must_use]
pub fn mismatched_cells(a: &CampaignResult, b: &CampaignResult) -> u64 {
    let aligned = a.points.len() == b.points.len()
        && a.points
            .iter()
            .zip(&b.points)
            .all(|(p, q)| p.num_ptgs == q.num_ptgs && p.strategy == q.strategy && p.runs == q.runs);
    if !aligned {
        return check_cells(a).0;
    }
    a.points
        .iter()
        .zip(&b.points)
        .map(|(p, q)| {
            let (p, q) = (&p.samples, &q.samples);
            let unfairness = p.unfairness.values().iter().zip(q.unfairness.values());
            let makespan = p.makespan.values().iter().zip(q.makespan.values());
            unfairness
                .zip(makespan)
                .filter(|((u, v), (m, n))| u.to_bits() != v.to_bits() || m.to_bits() != n.to_bits())
                .count() as u64
        })
        .sum()
}

/// (unfairness, makespan) of every policy on one scenario, in policy order.
pub type Outcomes = Vec<(f64, f64)>;

/// Aggregates per-scenario outcomes into a figure exactly as `run_campaign`
/// does: per-run samples in scenario order, relative makespans against the
/// best makespan of the same scenario, one point per (PTG count, policy).
#[must_use]
pub fn assemble(config: &CampaignConfig, grid: Vec<(usize, Vec<Outcomes>)>) -> CampaignResult {
    let labels = strategy_labels(&config.strategies);
    let mut cells: BTreeMap<(usize, usize), CellSamples> = BTreeMap::new();
    for (num_ptgs, per_scenario) in grid {
        for outcomes in per_scenario {
            let best = outcomes
                .iter()
                .map(|&(_, m)| m)
                .filter(|m| *m > 0.0)
                .fold(f64::INFINITY, f64::min);
            for (si, &(unfairness, makespan)) in outcomes.iter().enumerate() {
                let cell = cells.entry((num_ptgs, si)).or_default();
                cell.unfairness.push(unfairness);
                cell.makespan.push(makespan);
                cell.relative_makespan
                    .push(if best.is_finite() && best > 0.0 {
                        makespan / best
                    } else {
                        1.0
                    });
            }
        }
    }
    CampaignResult {
        class: config.source.short_label(),
        points: cells
            .into_iter()
            .map(|((n, si), cell)| StrategyPoint::from_samples(n, labels[si].clone(), cell))
            .collect(),
    }
}

/// Report labels as `run_campaign` assigns them: the display name, or the
/// parameter-carrying cache key where two policies share a name.
fn strategy_labels(policies: &[Arc<dyn ConstraintPolicy>]) -> Vec<String> {
    let names: Vec<String> = policies.iter().map(|p| p.name()).collect();
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            if names.iter().filter(|n| *n == name).count() > 1 {
                policies[i].cache_key()
            } else {
                name.clone()
            }
        })
        .collect()
}

/// Evaluates every policy on one scenario through per-layer calls, in the
/// order of `ConcurrentScheduler::evaluate_in`.
fn traced_scenario(
    scenario: &Scenario,
    base: &SchedulerConfig,
    policies: &[Arc<dyn ConstraintPolicy>],
    tracer: &Tracer,
) -> Result<Outcomes, String> {
    let ctx = tracer.span("core.context", || scenario.context(base));
    let release = ctx.release_times().to_vec();
    let mut dedicated: Option<Vec<f64>> = None;
    policies
        .iter()
        .map(|policy| {
            tracer.span("core.constraint", || ctx.betas_for(policy.as_ref()));
            let allocations = tracer.span("core.allocation", || {
                ctx.allocations_for(policy.as_ref(), ctx.base_allocation().as_ref())
            });
            let schedule = tracer.span("core.mapping", || {
                ctx.map_with(ctx.base_mapping().as_ref(), &allocations, &release)
            });
            let outcome = tracer
                .span("simx", || ctx.execute(&schedule.workload))
                .map_err(|e| e.to_string())?;
            let concurrent: Vec<f64> = (0..ctx.ptgs().len())
                .map(|i| (outcome.trace.makespan_of(schedule.app_jobs(i)) - release[i]).max(0.0))
                .collect();
            if dedicated.is_none() {
                dedicated = Some(
                    (0..ctx.ptgs().len())
                        .map(|app| dedicated_makespan(&ctx, app, tracer))
                        .collect::<Result<_, _>>()?,
                );
            }
            let own = dedicated.as_deref().expect("computed above");
            let fairness = tracer.span("core.metrics", || {
                mcsched_core::metrics::fairness_report(own, &concurrent)
            });
            Ok((fairness.unfairness, outcome.makespan))
        })
        .collect()
}

/// `M_own` of application `app`: β = 1 allocation, single-application
/// mapping and simulation through the context's base policies.
fn dedicated_makespan(
    ctx: &mcsched_core::ScheduleContext<'_>,
    app: usize,
    tracer: &Tracer,
) -> Result<f64, String> {
    let ptg = &ctx.ptgs()[app];
    let allocation = tracer.span("core.allocation.dedicated", || {
        ctx.base_allocation().allocate(ctx.reference(), ptg, 1.0)
    });
    let schedule = tracer.span("core.mapping", || {
        ctx.base_mapping().map(&MappingRequest {
            reference: ctx.reference(),
            network: ctx.network(),
            platform: ctx.platform(),
            ptgs: std::slice::from_ref(ptg),
            allocations: std::slice::from_ref(&allocation),
            release_times: &[0.0],
        })
    });
    tracer
        .span("simx", || ctx.engine().execute(&schedule.workload))
        .map(|outcome| outcome.makespan)
        .map_err(|e| e.to_string())
}

/// The whole grid of `config` through per-layer calls, serially.
///
/// # Errors
///
/// Generation or simulation failures.
pub fn traced_campaign(config: &CampaignConfig, tracer: &Tracer) -> Result<CampaignResult, String> {
    let mut grid = Vec::with_capacity(config.ptg_counts.len());
    for &n in &config.ptg_counts {
        let scenarios = tracer
            .span("workload", || {
                generate_scenarios_with(config.source.as_ref(), n, config.combinations, config.seed)
            })
            .map_err(|e| e.to_string())?;
        let outcomes = scenarios
            .iter()
            .map(|s| traced_scenario(s, &config.base, &config.strategies, tracer))
            .collect::<Result<Vec<_>, _>>()?;
        grid.push((n, outcomes));
    }
    Ok(assemble(config, grid))
}

/// Digest of a rendered output.
#[must_use]
pub fn digest(text: &str) -> String {
    mcsched_runtime::DigestBuilder::new()
        .str(text)
        .finish()
        .to_hex()
}

/// A cold campaign grid, one figure per iteration.
pub struct CampaignBench {
    config: CampaignConfig,
    /// The last untraced iteration's configuration, figure and table.
    last: Option<(CampaignConfig, CampaignResult, String)>,
}

impl CampaignBench {
    /// The benchmark of `grid` drawn from `seed` on `threads` workers.
    ///
    /// # Errors
    ///
    /// When the grid's spec does not resolve.
    pub fn new(grid: &Grid, seed: u64, threads: usize) -> Result<Self, String> {
        Ok(Self {
            config: campaign_config(grid, seed, threads)?,
            last: None,
        })
    }
}

impl Workload for CampaignBench {
    fn threads(&self) -> usize {
        self.config.threads
    }

    fn setup(&mut self) -> Result<Vec<f64>, String> {
        // Starting the pool's workers is lazy set-up the first figure would
        // otherwise pay.
        mcsched_runtime::pool_for(self.config.threads);
        time_generation(&self.config)
    }

    fn run(&mut self, k: u64) -> Result<Tally, String> {
        let config = CampaignConfig {
            seed: iteration_seed(self.config.seed, k),
            ..self.config.clone()
        };
        let start = Instant::now();
        let result = run_campaign(&config).map_err(|e| e.to_string())?;
        let table = table_campaign(&result);
        let wall = start.elapsed().as_secs_f64();
        let (cells, failed) = check_cells(&result);
        self.last = Some((config, result, table));
        Ok(Tally::of(cells, failed, wall))
    }

    fn run_traced(&mut self, tracer: &Tracer) -> Result<Tally, String> {
        let (config, untraced, untraced_table) =
            self.last.as_ref().ok_or("run_traced before run")?;
        let start = Instant::now();
        let result = traced_campaign(config, tracer)?;
        let table = tracer.span("exp.report", || table_campaign(&result));
        let wall = start.elapsed().as_secs_f64();
        let (cells, mut failed) = check_cells(&result);
        failed = failed.max(mismatched_cells(&result, untraced));
        if table != *untraced_table {
            failed = cells;
        }
        Ok(Tally::of(cells, failed, wall))
    }

    fn output_digest(&self) -> String {
        self.last
            .as_ref()
            .map(|(_, _, table)| digest(table))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::daggen_grid;
    use mcsched_stats::Samples;

    #[test]
    fn gates_catch_a_changed_or_invalid_cell() {
        let config = campaign_config(&daggen_grid(true), 7, 1).unwrap();
        let result = run_campaign(&config).unwrap();
        assert_eq!(check_cells(&result), (64, 0));
        assert_eq!(mismatched_cells(&result, &result), 0);

        let mut changed = result.clone();
        let nudge = |s: &Samples, to: f64| {
            let mut values = s.values().to_vec();
            values[0] = to;
            Samples::from(values)
        };
        let first = &changed.points[0].samples;
        let makespan = nudge(
            &first.makespan,
            f64::from_bits(first.makespan.values()[0].to_bits() + 1),
        );
        changed.points[0].samples.makespan = makespan;
        assert_eq!(mismatched_cells(&changed, &result), 1);
        changed.points[0].samples.unfairness =
            nudge(&changed.points[0].samples.unfairness, f64::NAN);
        assert_eq!(check_cells(&changed), (64, 1));
        changed.points.pop();
        assert_eq!(
            mismatched_cells(&changed, &result),
            60,
            "misaligned grids fail every cell"
        );
    }

    #[test]
    fn stratified_draws_cycle_the_task_count_and_repeat_for_a_seed() {
        let request = WorkloadRequest::new(3, 6, "daggen-0");
        let a = StratifiedDaggen.generate(&request).unwrap();
        let b = StratifiedDaggen.generate(&request).unwrap();
        assert_eq!(a.ptgs(), b.ptgs(), "the same seed draws the same inputs");
        let sizes: Vec<usize> = a.ptgs().iter().map(|p| p.num_tasks()).collect();
        assert_eq!(sizes[..3], sizes[3..], "{sizes:?}");
        let mut three = sizes[..3].to_vec();
        three.sort_unstable();
        assert_eq!(three, vec![10, 20, 50]);
        let other = StratifiedDaggen
            .generate(&WorkloadRequest::new(4, 6, "daggen-0"))
            .unwrap();
        assert_ne!(other.ptgs(), a.ptgs());
    }
}
