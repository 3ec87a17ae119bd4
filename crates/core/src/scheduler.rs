//! The end-to-end concurrent scheduler driving the whole pipeline.
//!
//! A [`ConcurrentScheduler`] is a resolved triple of policies — one
//! [`ConstraintPolicy`], one [`AllocationPolicy`], one [`MappingPolicy`] —
//! assembled either from the serde-able [`SchedulerConfig`] enums or through
//! the [`SchedulerBuilder`], which also resolves policies *by name* from a
//! [`PolicyRegistry`]:
//!
//! ```
//! use mcsched_core::scheduler::ConcurrentScheduler;
//!
//! let scheduler = ConcurrentScheduler::builder()
//!     .constraint("wps-work@0.7")
//!     .allocation("scrap-max")
//!     .build()
//!     .unwrap();
//! assert_eq!(scheduler.constraint_policy().name(), "WPS-work");
//! ```
//!
//! Work is submitted as a [`Workload`] (or anything convertible into one,
//! such as a `Vec<Ptg>`): `schedule` runs the pipeline and the simulation,
//! `evaluate` additionally produces the dedicated baselines and fairness
//! metrics of the paper's evaluation.

use crate::allocation::{AllocationProcedure, RefAllocation};
use crate::constraint::ConstraintStrategy;
use crate::context::ScheduleContext;
use crate::error::SchedError;
use crate::mapping::{MappingConfig, OrderingMode, Schedule};
use crate::metrics::{fairness_report, FairnessReport};
use crate::policy::{AllocationPolicy, ConstraintPolicy, MappingPolicy, PolicyRegistry};
use crate::workload::Workload;
use mcsched_platform::Platform;
use mcsched_ptg::Ptg;
use mcsched_simx::ExecutionTrace;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of the concurrent scheduler, restricted to the serde-able
/// built-in policy family. Arbitrary (possibly user-registered) policies are
/// assembled with [`SchedulerBuilder`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Strategy computing the per-application resource constraints.
    pub strategy: ConstraintStrategy,
    /// Allocation procedure run under each constraint.
    pub allocation: AllocationProcedure,
    /// Mapping-step configuration.
    pub mapping: MappingConfig,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            strategy: ConstraintStrategy::EqualShare,
            allocation: AllocationProcedure::ScrapMax,
            mapping: MappingConfig::default(),
        }
    }
}

impl SchedulerConfig {
    /// Stable identity of the allocation + mapping pipeline, for
    /// content-addressed result caching (see `mcsched-runtime`): two
    /// configurations with equal keys run every policy evaluation through
    /// an identical pipeline. The constraint `strategy` is deliberately
    /// **excluded** — the paired-evaluation path overrides it per policy,
    /// and each policy contributes its own parameter-carrying
    /// [`ConstraintPolicy::cache_key`] to the cell digest.
    #[must_use]
    pub fn pipeline_cache_key(&self) -> String {
        let ordering = match self.mapping.ordering {
            OrderingMode::ReadyTasks => "ready-tasks",
            OrderingMode::Global => "global",
        };
        format!(
            "alloc={};order={ordering};packing={};comm={}",
            self.allocation.aliases()[0],
            self.mapping.packing,
            self.mapping.comm_aware
        )
    }
}

/// Per-application outcome of a concurrent run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct AppReport {
    /// Application (PTG) name.
    pub name: String,
    /// Resource constraint β the strategy attributed to the application.
    pub beta: f64,
    /// Simulated makespan in presence of concurrency (`M_multi`).
    pub makespan: f64,
    /// Makespan estimated by the mapping heuristic (before simulation).
    pub estimated_makespan: f64,
    /// Total reference processors allocated across the application's tasks.
    pub allocated_procs: usize,
}

/// Result of scheduling and simulating a set of PTGs together.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ConcurrentRun {
    /// The schedule handed to the simulation engine.
    pub schedule: Schedule,
    /// The simulated execution trace.
    pub trace: ExecutionTrace,
    /// Per-application reports (same order as the submitted PTGs).
    pub apps: Vec<AppReport>,
    /// Completion time of the whole run (max over applications).
    pub global_makespan: f64,
}

impl ConcurrentRun {
    /// Concurrent makespans of all applications (`M_multi`).
    #[must_use]
    pub fn app_makespans(&self) -> Vec<f64> {
        self.apps.iter().map(|a| a.makespan).collect()
    }
}

/// A complete evaluation of one scenario: the concurrent run plus the
/// dedicated-platform makespans and fairness metrics derived from them.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct EvaluatedRun {
    /// The concurrent run.
    pub run: ConcurrentRun,
    /// Dedicated makespan of every application (`M_own`).
    pub dedicated_makespans: Vec<f64>,
    /// Slowdowns, average slowdown and unfairness.
    pub fairness: FairnessReport,
}

/// Two-step concurrent scheduler: constraint determination, constrained
/// allocation, concurrent mapping, simulated execution.
#[derive(Debug, Clone)]
pub struct ConcurrentScheduler {
    config: SchedulerConfig,
    constraint: Arc<dyn ConstraintPolicy>,
    allocation: Arc<dyn AllocationPolicy>,
    mapping: Arc<dyn MappingPolicy>,
}

impl Default for ConcurrentScheduler {
    fn default() -> Self {
        Self::new(SchedulerConfig::default())
    }
}

impl ConcurrentScheduler {
    /// Creates a scheduler with an explicit enum-based configuration.
    pub fn new(config: SchedulerConfig) -> Self {
        Self {
            constraint: config.strategy.to_policy(),
            allocation: config.allocation.to_policy(),
            mapping: config.mapping.to_policy(),
            config,
        }
    }

    /// Creates a scheduler using the default pipeline (SCRAP-MAX allocation,
    /// ready-task mapping with packing) and the given constraint strategy.
    pub fn with_strategy(strategy: ConstraintStrategy) -> Self {
        Self::new(SchedulerConfig {
            strategy,
            ..SchedulerConfig::default()
        })
    }

    /// Starts assembling a scheduler from (possibly name-resolved) policies.
    pub fn builder() -> SchedulerBuilder {
        SchedulerBuilder::new()
    }

    /// Creates a scheduler directly from resolved policies. The enum-based
    /// [`ConcurrentScheduler::config`] echo keeps its defaults.
    pub fn from_policies(
        constraint: Arc<dyn ConstraintPolicy>,
        allocation: Arc<dyn AllocationPolicy>,
        mapping: Arc<dyn MappingPolicy>,
    ) -> Self {
        Self {
            config: SchedulerConfig::default(),
            constraint,
            allocation,
            mapping,
        }
    }

    /// The scheduler's enum-based configuration echo. For schedulers built
    /// from custom policies this reflects only the enum-expressible part
    /// (defaults otherwise); the operative policies are exposed by
    /// [`ConcurrentScheduler::constraint_policy`] and friends.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The resolved constraint policy.
    #[must_use]
    pub fn constraint_policy(&self) -> &Arc<dyn ConstraintPolicy> {
        &self.constraint
    }

    /// The resolved allocation policy.
    #[must_use]
    pub fn allocation_policy(&self) -> &Arc<dyn AllocationPolicy> {
        &self.allocation
    }

    /// The resolved mapping policy.
    #[must_use]
    pub fn mapping_policy(&self) -> &Arc<dyn MappingPolicy> {
        &self.mapping
    }

    /// Builds the memoized evaluation context for one scenario. The context
    /// can be shared by several schedulers that differ only in strategy, so
    /// that β vectors, allocations and dedicated baselines are computed once.
    pub fn context<'a>(&self, platform: &'a Platform, ptgs: &'a [Ptg]) -> ScheduleContext<'a> {
        ScheduleContext::with_policies(
            platform,
            ptgs,
            self.config,
            Arc::clone(&self.allocation),
            Arc::clone(&self.mapping),
        )
    }

    /// Builds the memoized evaluation context for one workload, carrying the
    /// workload's release times.
    pub fn workload_context<'a>(
        &self,
        platform: &'a Platform,
        workload: &'a Workload,
    ) -> ScheduleContext<'a> {
        let mut ctx = self.context(platform, workload.ptgs());
        ctx.set_release_times(workload.release_times().to_vec());
        ctx
    }

    /// Computes the per-application allocations for a set of PTGs without
    /// mapping them (exposed for inspection, ablation and tests).
    pub fn allocate(&self, platform: &Platform, ptgs: &[Ptg]) -> Vec<RefAllocation> {
        self.allocate_in(&self.context(platform, ptgs)).to_vec()
    }

    /// Like [`ConcurrentScheduler::allocate`], but memoized through a shared
    /// [`ScheduleContext`].
    pub fn allocate_in(&self, context: &ScheduleContext<'_>) -> Arc<Vec<RefAllocation>> {
        context.allocations_for(self.constraint.as_ref(), self.allocation.as_ref())
    }

    /// Schedules a workload (a batch of PTGs, or PTGs with explicit release
    /// times) and simulates the resulting schedule.
    ///
    /// Anything convertible into a [`Workload`] is accepted: a `Vec<Ptg>` or
    /// `&[Ptg]` is treated as a batch released at time 0.
    ///
    /// # Errors
    ///
    /// [`SchedError::EmptyWorkload`] for a workload without applications;
    /// [`SchedError::Sim`] for simulation validation errors (which indicate
    /// a scheduler bug rather than a user error).
    pub fn schedule<W>(&self, platform: &Platform, workload: W) -> Result<ConcurrentRun, SchedError>
    where
        W: Into<Workload>,
    {
        let workload = workload.into();
        self.schedule_in(&self.workload_context(platform, &workload))
    }

    /// Schedules the context's applications (at the context's release times)
    /// through the context's caches.
    ///
    /// # Errors
    ///
    /// See [`ConcurrentScheduler::schedule`].
    pub fn schedule_in(&self, context: &ScheduleContext<'_>) -> Result<ConcurrentRun, SchedError> {
        self.schedule_released_in(context, context.release_times())
    }

    /// Schedules the context's applications with explicit release times.
    /// β vectors and allocations come from the context's memoized caches;
    /// mapping and simulation reuse its platform views.
    ///
    /// # Errors
    ///
    /// See [`ConcurrentScheduler::schedule`].
    pub fn schedule_released_in(
        &self,
        context: &ScheduleContext<'_>,
        release_times: &[f64],
    ) -> Result<ConcurrentRun, SchedError> {
        let ptgs = context.ptgs();
        if ptgs.is_empty() {
            return Err(SchedError::EmptyWorkload);
        }
        // Same contract as `Workload::released`, so the context path cannot
        // smuggle values the workload path rejects.
        crate::workload::validate_release_times(ptgs.len(), release_times)?;
        let betas = context.betas_for(self.constraint.as_ref());
        let allocations = self.allocate_in(context);
        let schedule = context.map_with(self.mapping.as_ref(), &allocations, release_times);
        let outcome = context.execute(&schedule.workload)?;

        let apps = ptgs
            .iter()
            .enumerate()
            .map(|(i, ptg)| {
                let jobs = schedule.app_jobs(i);
                let finish = outcome.trace.makespan_of(jobs);
                AppReport {
                    name: ptg.name().to_string(),
                    beta: betas[i],
                    makespan: (finish - release_times[i]).max(0.0),
                    estimated_makespan: schedule.estimated_app_makespan(i) - release_times[i],
                    allocated_procs: allocations[i].total(),
                }
            })
            .collect();

        Ok(ConcurrentRun {
            global_makespan: outcome.makespan,
            trace: outcome.trace,
            schedule,
            apps,
        })
    }

    /// Makespan of one PTG scheduled alone on the dedicated platform
    /// (`M_own`): the constraint strategy is irrelevant, β = 1.
    ///
    /// # Errors
    ///
    /// Propagates simulation validation errors.
    pub fn dedicated_makespan(&self, platform: &Platform, ptg: &Ptg) -> Result<f64, SchedError> {
        self.context(platform, std::slice::from_ref(ptg))
            .dedicated_makespan(0)
    }

    /// Runs the full evaluation of one workload: concurrent run, dedicated
    /// runs of every application and the derived fairness metrics. Each
    /// application's dedicated baseline is simulated exactly once, through a
    /// fresh [`ScheduleContext`].
    ///
    /// # Errors
    ///
    /// See [`ConcurrentScheduler::schedule`].
    pub fn evaluate<W>(&self, platform: &Platform, workload: W) -> Result<EvaluatedRun, SchedError>
    where
        W: Into<Workload>,
    {
        let workload = workload.into();
        self.evaluate_in(&self.workload_context(platform, &workload))
    }

    /// Evaluates this scheduler's strategy on a shared context. The
    /// dedicated baselines come from the context's memo, so comparing many
    /// strategies on one scenario pays for them only once.
    ///
    /// # Errors
    ///
    /// See [`ConcurrentScheduler::schedule`].
    pub fn evaluate_in(&self, context: &ScheduleContext<'_>) -> Result<EvaluatedRun, SchedError> {
        // Baselines first: the constrained allocations then resume from
        // their β = 1 allocations.
        let dedicated = context.dedicated_makespans()?;
        let run = self.schedule_in(context)?;
        let fairness = fairness_report(&dedicated, &run.app_makespans());
        Ok(EvaluatedRun {
            run,
            dedicated_makespans: dedicated,
            fairness,
        })
    }
}

/// Which way one of the three policies of a [`SchedulerBuilder`] was picked.
#[derive(Debug)]
enum Pick<T: ?Sized> {
    /// Resolve from the builder's registry at `build` time.
    Named(String),
    /// Use this instance directly.
    Instance(Arc<T>),
}

// Manual impl: `Arc<T>` clones without requiring `T: Clone`, which the
// derive would demand.
impl<T: ?Sized> Clone for Pick<T> {
    fn clone(&self) -> Self {
        match self {
            Pick::Named(n) => Pick::Named(n.clone()),
            Pick::Instance(p) => Pick::Instance(Arc::clone(p)),
        }
    }
}

/// Assembles a [`ConcurrentScheduler`] from policies picked by enum, by
/// registry name, or as ready-made instances.
///
/// Unset decision points fall back to the paper's defaults (equal share,
/// SCRAP-MAX, ready-task mapping with packing). Name resolution uses
/// [`PolicyRegistry::builtin`] unless a custom registry is supplied with
/// [`SchedulerBuilder::registry`] — which is how user-registered policies
/// enter the pipeline.
#[derive(Debug, Clone, Default)]
#[must_use = "a builder does nothing until `build()` is called"]
pub struct SchedulerBuilder {
    registry: Option<PolicyRegistry>,
    constraint: Option<Pick<dyn ConstraintPolicy>>,
    allocation: Option<Pick<dyn AllocationPolicy>>,
    mapping: Option<Pick<dyn MappingPolicy>>,
    config: SchedulerConfig,
}

impl SchedulerBuilder {
    /// A builder with every decision point at the paper's default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Uses `registry` for all by-name resolutions (defaults to
    /// [`PolicyRegistry::builtin`]).
    pub fn registry(mut self, registry: PolicyRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Picks the constraint policy from a built-in strategy enum.
    pub fn strategy(mut self, strategy: ConstraintStrategy) -> Self {
        self.config.strategy = strategy;
        self.constraint = Some(Pick::Instance(strategy.to_policy()));
        self
    }

    /// Picks the constraint policy by registry name (e.g. `"wps-work@0.7"`).
    pub fn constraint(mut self, name: impl Into<String>) -> Self {
        self.constraint = Some(Pick::Named(name.into()));
        self
    }

    /// Uses a ready-made constraint policy.
    pub fn constraint_policy(mut self, policy: Arc<dyn ConstraintPolicy>) -> Self {
        self.constraint = Some(Pick::Instance(policy));
        self
    }

    /// Picks the allocation policy from a built-in procedure enum.
    pub fn allocation_procedure(mut self, procedure: AllocationProcedure) -> Self {
        self.config.allocation = procedure;
        self.allocation = Some(Pick::Instance(procedure.to_policy()));
        self
    }

    /// Picks the allocation policy by registry name (e.g. `"scrap-max"`).
    pub fn allocation(mut self, name: impl Into<String>) -> Self {
        self.allocation = Some(Pick::Named(name.into()));
        self
    }

    /// Uses a ready-made allocation policy.
    pub fn allocation_policy(mut self, policy: Arc<dyn AllocationPolicy>) -> Self {
        self.allocation = Some(Pick::Instance(policy));
        self
    }

    /// Picks the mapping policy by registry name (e.g. `"global"`).
    pub fn mapping(mut self, name: impl Into<String>) -> Self {
        self.mapping = Some(Pick::Named(name.into()));
        self
    }

    /// Uses a ready-made mapping policy.
    pub fn mapping_policy(mut self, policy: Arc<dyn MappingPolicy>) -> Self {
        self.mapping = Some(Pick::Instance(policy));
        self
    }

    /// Uses the built-in list mapping with explicit options. Overrides any
    /// previously picked mapping policy.
    pub fn mapping_config(mut self, config: MappingConfig) -> Self {
        self.config.mapping = config;
        self.mapping = None;
        self
    }

    /// Tweaks the candidate ordering of the built-in list mapping.
    /// Overrides any previously picked mapping policy.
    pub fn ordering(mut self, ordering: OrderingMode) -> Self {
        self.config.mapping.ordering = ordering;
        self.mapping = None;
        self
    }

    /// Enables or disables allocation packing in the built-in list mapping.
    /// Overrides any previously picked mapping policy.
    pub fn packing(mut self, packing: bool) -> Self {
        self.config.mapping.packing = packing;
        self.mapping = None;
        self
    }

    /// Enables or disables communication-aware finish-time estimates in the
    /// built-in list mapping. Overrides any previously picked mapping policy.
    pub fn comm_aware(mut self, comm_aware: bool) -> Self {
        self.config.mapping.comm_aware = comm_aware;
        self.mapping = None;
        self
    }

    /// Resolves every decision point and assembles the scheduler.
    ///
    /// # Errors
    ///
    /// [`SchedError::UnknownPolicy`] when a by-name pick is not registered;
    /// [`SchedError::InvalidConfig`] when a name's `@parameter` is rejected.
    pub fn build(self) -> Result<ConcurrentScheduler, SchedError> {
        let registry = self.registry.unwrap_or_else(PolicyRegistry::builtin);
        let constraint = match self.constraint {
            None => self.config.strategy.to_policy(),
            Some(Pick::Instance(p)) => p,
            Some(Pick::Named(name)) => registry.constraint(&name)?,
        };
        let allocation = match self.allocation {
            None => self.config.allocation.to_policy(),
            Some(Pick::Instance(p)) => p,
            Some(Pick::Named(name)) => registry.allocation(&name)?,
        };
        let mapping = match self.mapping {
            None => self.config.mapping.to_policy(),
            Some(Pick::Instance(p)) => p,
            Some(Pick::Named(name)) => registry.mapping(&name)?,
        };
        Ok(ConcurrentScheduler {
            config: self.config,
            constraint,
            allocation,
            mapping,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Characteristic;
    use crate::policy::ConstraintPolicy;
    use mcsched_platform::grid5000;
    use mcsched_ptg::gen::{random::RandomPtgConfig, random_ptg};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ptgs(n: usize, seed: u64) -> Vec<Ptg> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let cfg = RandomPtgConfig {
                    num_tasks: 10,
                    ..RandomPtgConfig::default_config()
                };
                random_ptg(&cfg, &mut rng, format!("app{i}"))
            })
            .collect()
    }

    #[test]
    fn pipeline_cache_key_tracks_every_non_strategy_knob() {
        let base = SchedulerConfig::default();
        assert_eq!(
            base.pipeline_cache_key(),
            "alloc=scrap-max;order=ready-tasks;packing=true;comm=true"
        );
        // The strategy is excluded on purpose (per-policy cache keys cover
        // it); every other knob must move the key.
        let mut strategy_only = base;
        strategy_only.strategy = ConstraintStrategy::Selfish;
        assert_eq!(
            strategy_only.pipeline_cache_key(),
            base.pipeline_cache_key()
        );
        let mut alloc = base;
        alloc.allocation = AllocationProcedure::Cpa;
        assert_ne!(alloc.pipeline_cache_key(), base.pipeline_cache_key());
        let mut mapping = base;
        mapping.mapping.packing = false;
        assert_ne!(mapping.pipeline_cache_key(), base.pipeline_cache_key());
        let mut ordering = base;
        ordering.mapping.ordering = OrderingMode::Global;
        assert_ne!(ordering.pipeline_cache_key(), base.pipeline_cache_key());
        let mut comm = base;
        comm.mapping.comm_aware = false;
        assert_ne!(comm.pipeline_cache_key(), base.pipeline_cache_key());
    }

    #[test]
    fn schedules_concurrent_ptgs_end_to_end() {
        let platform = grid5000::lille();
        let apps = ptgs(3, 1);
        let scheduler = ConcurrentScheduler::with_strategy(ConstraintStrategy::EqualShare);
        let run = scheduler.schedule(&platform, &apps).unwrap();
        assert_eq!(run.apps.len(), 3);
        assert!(run.global_makespan > 0.0);
        for app in &run.apps {
            assert!(app.makespan > 0.0);
            assert!(app.makespan <= run.global_makespan + 1e-9);
            assert!((app.beta - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn selfish_betas_are_one() {
        let platform = grid5000::nancy();
        let apps = ptgs(2, 2);
        let run = ConcurrentScheduler::with_strategy(ConstraintStrategy::Selfish)
            .schedule(&platform, &apps)
            .unwrap();
        for app in &run.apps {
            assert_eq!(app.beta, 1.0);
        }
    }

    #[test]
    fn dedicated_makespan_is_not_slower_than_concurrent() {
        let platform = grid5000::lille();
        let apps = ptgs(4, 3);
        let scheduler = ConcurrentScheduler::with_strategy(ConstraintStrategy::EqualShare);
        let run = scheduler.schedule(&platform, &apps).unwrap();
        for (i, app) in apps.iter().enumerate() {
            let own = scheduler.dedicated_makespan(&platform, app).unwrap();
            // Dedicated access can only help (within a small numeric margin
            // coming from heuristic tie-breaking).
            assert!(
                own <= run.apps[i].makespan * 1.05 + 1e-6,
                "app {i}: own {own} should not exceed concurrent {}",
                run.apps[i].makespan
            );
        }
    }

    #[test]
    fn evaluate_produces_consistent_fairness_report() {
        let platform = grid5000::sophia();
        let apps = ptgs(3, 4);
        let eval = ConcurrentScheduler::with_strategy(ConstraintStrategy::Weighted(
            Characteristic::Work,
            0.7,
        ))
        .evaluate(&platform, &apps)
        .unwrap();
        assert_eq!(eval.dedicated_makespans.len(), 3);
        assert_eq!(eval.fairness.slowdowns.len(), 3);
        for s in &eval.fairness.slowdowns {
            assert!(*s > 0.0 && *s <= 1.05, "slowdown {s} out of expected range");
        }
        assert!(eval.fairness.unfairness >= 0.0);
    }

    #[test]
    fn allocations_are_exposed_for_inspection() {
        let platform = grid5000::rennes();
        let apps = ptgs(2, 5);
        let scheduler = ConcurrentScheduler::with_strategy(ConstraintStrategy::EqualShare);
        let allocs = scheduler.allocate(&platform, &apps);
        assert_eq!(allocs.len(), 2);
        for (ptg, alloc) in apps.iter().zip(&allocs) {
            assert_eq!(alloc.counts().len(), ptg.num_tasks());
            assert!(alloc.counts().iter().all(|&c| c >= 1));
        }
    }

    #[test]
    fn workload_release_times_shift_application_makespans() {
        let platform = grid5000::lille();
        let apps = ptgs(2, 6);
        let scheduler = ConcurrentScheduler::with_strategy(ConstraintStrategy::EqualShare);
        let together = scheduler.schedule(&platform, &apps).unwrap();
        let staggered = scheduler
            .schedule(
                &platform,
                Workload::released(apps.clone(), vec![0.0, 1000.0]).unwrap(),
            )
            .unwrap();
        // The second application is released after the first one finished, so
        // its makespan should not be worse than in the simultaneous case.
        assert!(staggered.apps[1].makespan <= together.apps[1].makespan * 1.05 + 1e-6);
        assert!(staggered.global_makespan >= 1000.0);
    }

    #[test]
    fn context_path_rejects_invalid_release_times() {
        let platform = grid5000::lille();
        let apps = ptgs(2, 6);
        let scheduler = ConcurrentScheduler::default();
        let ctx = scheduler.context(&platform, &apps);
        for bad in [
            vec![0.0, f64::NAN],
            vec![-1.0, 0.0],
            vec![0.0, f64::INFINITY],
        ] {
            assert!(matches!(
                scheduler.schedule_released_in(&ctx, &bad),
                Err(SchedError::InvalidConfig(_))
            ));
        }
        assert!(matches!(
            scheduler.schedule_released_in(&ctx, &[0.0]),
            Err(SchedError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_workloads_are_rejected() {
        let platform = grid5000::lille();
        let scheduler = ConcurrentScheduler::default();
        let err = scheduler
            .schedule(&platform, Workload::batch(Vec::new()))
            .unwrap_err();
        assert_eq!(err, SchedError::EmptyWorkload);
    }

    #[test]
    fn evaluate_simulates_each_dedicated_baseline_once() {
        let platform = grid5000::lille();
        let apps = ptgs(3, 7);
        let scheduler = ConcurrentScheduler::with_strategy(ConstraintStrategy::EqualShare);
        let ctx = scheduler.context(&platform, &apps);
        scheduler.evaluate_in(&ctx).unwrap();
        assert_eq!(ctx.dedicated_simulations(), apps.len());
        assert_eq!(ctx.concurrent_simulations(), 1);
    }

    #[test]
    fn evaluate_in_shares_dedicated_baselines_across_strategies() {
        let platform = grid5000::sophia();
        let apps = ptgs(3, 8);
        let ctx = ConcurrentScheduler::default().context(&platform, &apps);
        let strategies = [
            ConstraintStrategy::Selfish,
            ConstraintStrategy::EqualShare,
            ConstraintStrategy::Weighted(Characteristic::Work, 0.7),
        ];
        for strategy in strategies {
            let eval = ConcurrentScheduler::with_strategy(strategy)
                .evaluate_in(&ctx)
                .unwrap();
            assert_eq!(eval.fairness.slowdowns.len(), 3);
        }
        // One dedicated simulation per distinct PTG, however many strategies
        // were compared; one concurrent simulation per strategy.
        assert_eq!(ctx.dedicated_simulations(), apps.len());
        assert_eq!(ctx.concurrent_simulations(), strategies.len());
    }

    #[test]
    fn context_path_matches_one_shot_path() {
        let platform = grid5000::rennes();
        let apps = ptgs(3, 9);
        let scheduler = ConcurrentScheduler::with_strategy(ConstraintStrategy::EqualShare);
        let one_shot = scheduler.evaluate(&platform, &apps).unwrap();
        let ctx = scheduler.context(&platform, &apps);
        let via_ctx = scheduler.evaluate_in(&ctx).unwrap();
        assert_eq!(one_shot.dedicated_makespans, via_ctx.dedicated_makespans);
        assert_eq!(one_shot.fairness, via_ctx.fairness);
        assert_eq!(one_shot.run.global_makespan, via_ctx.run.global_makespan);
    }

    #[test]
    fn default_config_uses_scrap_max_and_ready_ordering() {
        let cfg = SchedulerConfig::default();
        assert_eq!(cfg.allocation, AllocationProcedure::ScrapMax);
        assert_eq!(
            cfg.mapping.ordering,
            crate::mapping::OrderingMode::ReadyTasks
        );
        assert!(cfg.mapping.packing);
    }

    #[test]
    fn builder_resolves_policies_by_name() {
        let platform = grid5000::lille();
        let apps = ptgs(2, 10);
        let by_name = ConcurrentScheduler::builder()
            .constraint("es")
            .allocation("scrap-max")
            .mapping("ready-tasks")
            .build()
            .unwrap();
        let by_enum = ConcurrentScheduler::with_strategy(ConstraintStrategy::EqualShare);
        let a = by_name.schedule(&platform, &apps).unwrap();
        let b = by_enum.schedule(&platform, &apps).unwrap();
        assert_eq!(a.global_makespan, b.global_makespan);
        assert_eq!(a.apps, b.apps);
    }

    #[test]
    fn builder_rejects_unknown_names() {
        let err = ConcurrentScheduler::builder()
            .constraint("nonsense")
            .build()
            .unwrap_err();
        assert!(matches!(err, SchedError::UnknownPolicy { .. }));
        let err = ConcurrentScheduler::builder()
            .allocation("scrappy")
            .build()
            .unwrap_err();
        assert!(matches!(err, SchedError::UnknownPolicy { .. }));
    }

    #[test]
    fn builder_defaults_match_the_default_scheduler() {
        let platform = grid5000::nancy();
        let apps = ptgs(2, 11);
        let built = ConcurrentScheduler::builder().build().unwrap();
        let default = ConcurrentScheduler::default();
        let a = built.evaluate(&platform, &apps).unwrap();
        let b = default.evaluate(&platform, &apps).unwrap();
        assert_eq!(a.fairness, b.fairness);
    }

    #[test]
    fn builder_mapping_tweaks_override_named_mapping() {
        let scheduler = ConcurrentScheduler::builder()
            .mapping("global")
            .ordering(OrderingMode::ReadyTasks)
            .packing(false)
            .build()
            .unwrap();
        assert_eq!(scheduler.mapping_policy().name(), "ready-tasks-nopack");
    }

    #[test]
    fn custom_policy_runs_through_evaluate_unmodified() {
        // The acceptance scenario of the redesign: a policy the core crate
        // has never heard of, registered by name, driven through the full
        // pipeline (constraint → allocation → mapping → simulation →
        // fairness metrics) without touching any core dispatch.
        #[derive(Debug)]
        struct SquareRootShare;
        impl ConstraintPolicy for SquareRootShare {
            fn name(&self) -> String {
                "sqrt-share".to_string()
            }
            fn betas(&self, ptgs: &[Ptg], reference: &ReferencePlatform) -> Vec<f64> {
                // β proportional to the square root of the work: a gentler
                // proportional share.
                let roots: Vec<f64> = ptgs.iter().map(|p| p.total_work().sqrt()).collect();
                let total: f64 = roots.iter().sum();
                roots
                    .iter()
                    .map(|r| {
                        let _ = reference;
                        (r / total).clamp(f64::MIN_POSITIVE, 1.0)
                    })
                    .collect()
            }
        }
        use crate::allocation::ReferencePlatform;

        let mut registry = PolicyRegistry::builtin();
        registry.register_constraint_instance("sqrt-share", Arc::new(SquareRootShare));

        let platform = grid5000::sophia();
        let apps = ptgs(3, 12);
        let scheduler = ConcurrentScheduler::builder()
            .registry(registry)
            .constraint("sqrt-share")
            .build()
            .unwrap();
        let eval = scheduler.evaluate(&platform, &apps).unwrap();
        assert_eq!(eval.fairness.slowdowns.len(), 3);
        assert!(eval.run.global_makespan > 0.0);
        let betas: Vec<f64> = eval.run.apps.iter().map(|a| a.beta).collect();
        assert!((betas.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
