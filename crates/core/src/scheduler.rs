//! The end-to-end concurrent scheduler driving the whole pipeline.
//!
//! A [`ConcurrentScheduler`] runs one [`SchedulerConfig`]: a resolved triple
//! of policies — one [`ConstraintPolicy`], one [`AllocationPolicy`], one
//! [`MappingPolicy`]. Policy instances go into a [`SchedulerConfig`]
//! literal directly; the [`SchedulerBuilder`] resolves policies *by name*
//! from a [`PolicyRegistry`]:
//!
//! ```
//! use mcsched_core::scheduler::ConcurrentScheduler;
//!
//! let scheduler = ConcurrentScheduler::builder()
//!     .constraint("wps-work@0.7")
//!     .allocation("scrap-max")
//!     .build()
//!     .unwrap();
//! assert_eq!(scheduler.config().constraint.name(), "WPS-work");
//! ```
//!
//! Work is submitted as a [`Workload`] (or anything convertible into one,
//! such as a `Vec<Ptg>`): `schedule` runs the pipeline and the simulation,
//! `evaluate` additionally produces the dedicated baselines and fairness
//! metrics of the paper's evaluation.

use crate::allocation::RefAllocation;
use crate::constraint::ConstraintStrategy;
use crate::context::ScheduleContext;
use crate::error::SchedError;
use crate::mapping::Schedule;
use crate::metrics::{fairness_report, FairnessReport};
use crate::policy::{
    AllocationPolicy, ConstraintPolicy, EqualShare, ListMapping, MappingPolicy, PolicyRegistry,
    ScrapMaxAllocation,
};
use crate::workload::Workload;
use mcsched_platform::Platform;
use mcsched_ptg::Ptg;
use mcsched_simx::ExecutionTrace;
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::sync::Arc;

/// The concurrent-scheduling pipeline: one resolved policy per decision
/// point. Defaults to the paper's retained pipeline — equal share, SCRAP-MAX
/// and ready-task list mapping with packing.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Policy computing the per-application resource constraints.
    pub constraint: Arc<dyn ConstraintPolicy>,
    /// Allocation policy run under each constraint.
    pub allocation: Arc<dyn AllocationPolicy>,
    /// Mapping policy placing the allocated tasks.
    pub mapping: Arc<dyn MappingPolicy>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            constraint: Arc::new(EqualShare),
            allocation: Arc::new(ScrapMaxAllocation),
            mapping: Arc::new(ListMapping::default()),
        }
    }
}

impl SchedulerConfig {
    /// Stable identity of the allocation + mapping pipeline, for
    /// content-addressed result caching (see `mcsched-runtime`): two
    /// configurations with equal keys run every policy evaluation through
    /// an identical pipeline. The constraint policy is deliberately
    /// **excluded** — the paired-evaluation path overrides it per policy,
    /// and each policy contributes its own parameter-carrying
    /// [`ConstraintPolicy::cache_key`] to the cell digest.
    #[must_use]
    pub fn pipeline_cache_key(&self) -> String {
        format!(
            "alloc={};{}",
            self.allocation.cache_key(),
            self.mapping.cache_key()
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

/// A complete evaluation of one scenario under one policy: the
/// measurements of the concurrent run plus the dedicated-platform makespans
/// and the fairness metrics derived from them. The schedule and trace the
/// measurements were read from are not kept.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct EvaluatedRun {
    /// Per-application reports (same order as the submitted PTGs).
    pub apps: Vec<AppReport>,
    /// Completion time of the whole run (max over applications).
    pub global_makespan: f64,
    /// Dedicated makespan of every application (`M_own`).
    pub dedicated_makespans: Vec<f64>,
    /// Slowdowns, average slowdown and unfairness.
    pub fairness: FairnessReport,
}

impl EvaluatedRun {
    /// Reads the measurements of `run` against the dedicated makespans of
    /// its applications; the run's schedule and trace are dropped.
    pub(crate) fn new(run: ConcurrentRun, dedicated_makespans: Vec<f64>) -> Self {
        let fairness = fairness_report(&dedicated_makespans, &run.app_makespans());
        Self {
            apps: run.apps,
            global_makespan: run.global_makespan,
            dedicated_makespans,
            fairness,
        }
    }
}

/// Two-step concurrent scheduler: constraint determination, constrained
/// allocation, concurrent mapping, simulated execution.
#[derive(Debug, Clone, Default)]
pub struct ConcurrentScheduler {
    config: SchedulerConfig,
}

impl ConcurrentScheduler {
    /// Creates a scheduler running `config`.
    pub fn new(config: SchedulerConfig) -> Self {
        Self { config }
    }

    /// Creates a scheduler using the default pipeline (SCRAP-MAX allocation,
    /// ready-task mapping with packing) and the given constraint strategy.
    pub fn with_strategy(strategy: ConstraintStrategy) -> Self {
        Self::new(SchedulerConfig {
            constraint: strategy.to_policy(),
            ..SchedulerConfig::default()
        })
    }

    /// Starts assembling a scheduler from (possibly name-resolved) policies.
    pub fn builder() -> SchedulerBuilder {
        SchedulerBuilder::new()
    }

    /// The scheduler's pipeline: its resolved policies.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Builds the evaluation context for one scenario. The context can be
    /// shared by several schedulers that differ only in strategy, so that the
    /// platform views and dedicated baselines are computed once.
    pub fn context<'a>(&self, platform: &'a Platform, ptgs: &'a [Ptg]) -> ScheduleContext<'a> {
        ScheduleContext::with_base(platform, ptgs, self.config.clone())
    }

    /// Builds the evaluation context for one workload, carrying the
    /// workload's release times.
    pub fn workload_context<'a>(
        &self,
        platform: &'a Platform,
        workload: &'a Workload,
    ) -> ScheduleContext<'a> {
        ScheduleContext::for_workload(platform, workload, self.config.clone())
    }

    /// Computes the per-application allocations for a set of PTGs without
    /// mapping them (exposed for inspection, ablation and tests).
    pub fn allocate(&self, platform: &Platform, ptgs: &[Ptg]) -> Vec<RefAllocation> {
        self.context(platform, ptgs).allocations_for(
            self.config.constraint.as_ref(),
            self.config.allocation.as_ref(),
        )
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

    /// Schedules the context's applications at the context's release times.
    /// β vectors and allocations are computed for this scheduler's policies;
    /// mapping and simulation reuse the context's platform views.
    ///
    /// # Errors
    ///
    /// See [`ConcurrentScheduler::schedule`].
    pub fn schedule_in(&self, context: &ScheduleContext<'_>) -> Result<ConcurrentRun, SchedError> {
        let betas = context.betas_for(self.config.constraint.as_ref());
        let allocations = context.allocate(&betas, self.config.allocation.as_ref());
        context.schedule(&betas, &allocations, self.config.mapping.as_ref())
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
        Ok(EvaluatedRun::new(self.schedule_in(context)?, dedicated))
    }
}

/// Assembles a [`ConcurrentScheduler`] from policies picked by registry
/// name; the last pick of a decision point wins. Ready-made policy instances
/// go into a [`SchedulerConfig`] literal instead.
///
/// Unset decision points keep the [`SchedulerConfig`] defaults (equal share,
/// SCRAP-MAX, ready-task mapping with packing). Name resolution uses
/// [`PolicyRegistry::builtin`] unless a custom registry is supplied with
/// [`SchedulerBuilder::registry`] — which is how user-registered policies
/// enter the pipeline.
#[derive(Debug, Clone, Default)]
#[must_use = "a builder does nothing until `build()` is called"]
pub struct SchedulerBuilder {
    registry: Option<PolicyRegistry>,
    /// Names resolved at `build` time, overriding the default policy.
    constraint: Option<String>,
    allocation: Option<String>,
    mapping: Option<String>,
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

    /// Picks the constraint policy by registry name (e.g. `"wps-work@0.7"`).
    pub fn constraint(mut self, name: impl Into<String>) -> Self {
        self.constraint = Some(name.into());
        self
    }

    /// Picks the allocation policy by registry name (e.g. `"scrap-max"`).
    pub fn allocation(mut self, name: impl Into<String>) -> Self {
        self.allocation = Some(name.into());
        self
    }

    /// Picks the mapping policy by registry name (e.g. `"global"`).
    pub fn mapping(mut self, name: impl Into<String>) -> Self {
        self.mapping = Some(name.into());
        self
    }

    /// Resolves every by-name pick and assembles the scheduler. The
    /// built-in registry is only built when a name needs it.
    ///
    /// # Errors
    ///
    /// [`SchedError::UnknownPolicy`] when a by-name pick is not registered;
    /// [`SchedError::InvalidConfig`] when a name's `@parameter` is rejected.
    pub fn build(self) -> Result<ConcurrentScheduler, SchedError> {
        let registry = self.registry.map_or_else(OnceCell::new, OnceCell::from);
        let registry = || registry.get_or_init(PolicyRegistry::builtin);
        let mut config = SchedulerConfig::default();
        if let Some(name) = &self.constraint {
            config.constraint = registry().constraint(name)?;
        }
        if let Some(name) = &self.allocation {
            config.allocation = registry().allocation(name)?;
        }
        if let Some(name) = &self.mapping {
            config.mapping = registry().mapping(name)?;
        }
        Ok(ConcurrentScheduler::new(config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::ReferencePlatform;
    use crate::constraint::Characteristic;
    use crate::mapping::{MappingConfig, OrderingMode};
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
        // Every built-in combination, pinned: the keys feed cell digests and
        // cache shards, so any change to one must be deliberate.
        const KEYS: [&str; 32] = [
            "alloc=scrap;order=ready-tasks;packing=true;comm=true",
            "alloc=scrap;order=ready-tasks;packing=true;comm=false",
            "alloc=scrap;order=ready-tasks;packing=false;comm=true",
            "alloc=scrap;order=ready-tasks;packing=false;comm=false",
            "alloc=scrap;order=global;packing=true;comm=true",
            "alloc=scrap;order=global;packing=true;comm=false",
            "alloc=scrap;order=global;packing=false;comm=true",
            "alloc=scrap;order=global;packing=false;comm=false",
            "alloc=scrap-max;order=ready-tasks;packing=true;comm=true",
            "alloc=scrap-max;order=ready-tasks;packing=true;comm=false",
            "alloc=scrap-max;order=ready-tasks;packing=false;comm=true",
            "alloc=scrap-max;order=ready-tasks;packing=false;comm=false",
            "alloc=scrap-max;order=global;packing=true;comm=true",
            "alloc=scrap-max;order=global;packing=true;comm=false",
            "alloc=scrap-max;order=global;packing=false;comm=true",
            "alloc=scrap-max;order=global;packing=false;comm=false",
            "alloc=cpa;order=ready-tasks;packing=true;comm=true",
            "alloc=cpa;order=ready-tasks;packing=true;comm=false",
            "alloc=cpa;order=ready-tasks;packing=false;comm=true",
            "alloc=cpa;order=ready-tasks;packing=false;comm=false",
            "alloc=cpa;order=global;packing=true;comm=true",
            "alloc=cpa;order=global;packing=true;comm=false",
            "alloc=cpa;order=global;packing=false;comm=true",
            "alloc=cpa;order=global;packing=false;comm=false",
            "alloc=one-each;order=ready-tasks;packing=true;comm=true",
            "alloc=one-each;order=ready-tasks;packing=true;comm=false",
            "alloc=one-each;order=ready-tasks;packing=false;comm=true",
            "alloc=one-each;order=ready-tasks;packing=false;comm=false",
            "alloc=one-each;order=global;packing=true;comm=true",
            "alloc=one-each;order=global;packing=true;comm=false",
            "alloc=one-each;order=global;packing=false;comm=true",
            "alloc=one-each;order=global;packing=false;comm=false",
        ];
        let registry = PolicyRegistry::builtin();
        let mut keys = Vec::new();
        for allocation in ["scrap", "scrap-max", "cpa", "one-each"] {
            for ordering in [OrderingMode::ReadyTasks, OrderingMode::Global] {
                for packing in [true, false] {
                    for comm_aware in [true, false] {
                        let config = SchedulerConfig {
                            allocation: registry.allocation(allocation).unwrap(),
                            mapping: Arc::new(ListMapping::new(MappingConfig {
                                ordering,
                                packing,
                                comm_aware,
                            })),
                            ..SchedulerConfig::default()
                        };
                        keys.push(config.pipeline_cache_key());
                    }
                }
            }
        }
        assert_eq!(keys, KEYS);
        let base = SchedulerConfig::default();
        assert_eq!(
            base.pipeline_cache_key(),
            "alloc=scrap-max;order=ready-tasks;packing=true;comm=true"
        );
        // The constraint is excluded on purpose (per-policy cache keys cover
        // it).
        let strategy_only = SchedulerConfig {
            constraint: ConstraintStrategy::Selfish.to_policy(),
            ..base.clone()
        };
        assert_eq!(
            strategy_only.pipeline_cache_key(),
            base.pipeline_cache_key()
        );
        // A custom allocation policy keys by its own cache key, so it never
        // shares cells with the built-in it delegates to.
        #[derive(Debug)]
        struct Tuned;
        impl AllocationPolicy for Tuned {
            fn name(&self) -> String {
                "SCRAP-MAX".to_string()
            }
            fn cache_key(&self) -> String {
                "tuned-scrap-max".to_string()
            }
            fn allocate(
                &self,
                reference: &ReferencePlatform,
                ptg: &Ptg,
                beta: f64,
            ) -> RefAllocation {
                ScrapMaxAllocation.allocate(reference, ptg, beta)
            }
        }
        let custom = SchedulerConfig {
            allocation: Arc::new(Tuned),
            ..base.clone()
        };
        assert_eq!(
            custom.pipeline_cache_key(),
            "alloc=tuned-scrap-max;order=ready-tasks;packing=true;comm=true"
        );
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
        assert_eq!(one_shot.global_makespan, via_ctx.global_makespan);
    }

    #[test]
    fn default_config_uses_scrap_max_and_ready_ordering() {
        let cfg = SchedulerConfig::default();
        assert_eq!(cfg.constraint.name(), "ES");
        assert_eq!(cfg.allocation.name(), "SCRAP-MAX");
        // Ready-task ordering with packing and communication-aware estimates.
        assert_eq!(
            cfg.mapping.cache_key(),
            "order=ready-tasks;packing=true;comm=true"
        );
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
        assert!(eval.global_makespan > 0.0);
        let betas: Vec<f64> = eval.apps.iter().map(|a| a.beta).collect();
        assert!((betas.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
