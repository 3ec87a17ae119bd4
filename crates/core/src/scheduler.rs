//! The pipeline's configuration and results.
//!
//! A [`SchedulerConfig`] is a resolved triple of policies — one
//! [`ConstraintPolicy`], one [`AllocationPolicy`], one [`MappingPolicy`].
//! Policy instances go into a [`SchedulerConfig`] literal directly, or are
//! resolved *by name* from a [`PolicyRegistry`]. A
//! [`ScheduleContext`] runs its configuration on one scenario:
//! [`ScheduleContext::schedule`] runs the pipeline and the simulation into a
//! [`ConcurrentRun`], and [`ScheduleContext::evaluate`] additionally
//! produces the dedicated baselines and fairness metrics of the paper's
//! evaluation, as an [`EvaluatedRun`]:
//!
//! ```
//! use mcsched_core::{PolicyRegistry, ScheduleContext, SchedulerConfig};
//! use mcsched_platform::grid5000;
//! use mcsched_ptg::gen::fft_ptg;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let registry = PolicyRegistry::builtin();
//! let config = SchedulerConfig {
//!     constraint: registry.constraint("wps-work@0.7").unwrap(),
//!     allocation: registry.allocation("scrap-max").unwrap(),
//!     ..SchedulerConfig::default()
//! };
//! assert_eq!(config.constraint.name(), "WPS-work");
//!
//! let platform = grid5000::lille();
//! let mut rng = ChaCha8Rng::seed_from_u64(1);
//! let apps: Vec<_> = (0..2).map(|i| fft_ptg(4, &mut rng, format!("fft{i}"))).collect();
//! let evaluation = ScheduleContext::with_base(&platform, &apps, config)
//!     .evaluate()
//!     .unwrap();
//! assert_eq!(evaluation.fairness.slowdowns.len(), 2);
//! ```

#[cfg(doc)]
use crate::context::ScheduleContext;
use crate::mapping::Schedule;
use crate::metrics::{fairness_report, FairnessReport};
#[cfg(doc)]
use crate::policy::PolicyRegistry;
use crate::policy::{
    AllocationPolicy, ConstraintPolicy, EqualShare, ListMapping, MappingPolicy, ScrapMaxAllocation,
};
use mcsched_simx::ExecutionTrace;
use serde::{Deserialize, Serialize};
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::{RefAllocation, ReferencePlatform};
    use crate::context::ScheduleContext;
    use crate::error::SchedError;
    use crate::mapping::{MappingConfig, OrderingMode};
    use crate::policy::PolicyRegistry;
    use crate::workload::Workload;
    use mcsched_platform::{grid5000, Platform};
    use mcsched_ptg::gen::{random::RandomPtgConfig, random_ptg};
    use mcsched_ptg::Ptg;
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

    /// The default pipeline under the constraint policy registered as
    /// `constraint`.
    fn config(constraint: &str) -> SchedulerConfig {
        SchedulerConfig {
            constraint: PolicyRegistry::builtin().constraint(constraint).unwrap(),
            ..SchedulerConfig::default()
        }
    }

    /// A context running [`config`]`(constraint)` on `apps`.
    fn context<'a>(
        platform: &'a Platform,
        apps: &'a [Ptg],
        constraint: &str,
    ) -> ScheduleContext<'a> {
        ScheduleContext::with_base(platform, apps, config(constraint))
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
            constraint: registry.constraint("s").unwrap(),
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
        let run = context(&platform, &apps, "es").schedule().unwrap();
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
        let run = context(&platform, &apps, "s").schedule().unwrap();
        for app in &run.apps {
            assert_eq!(app.beta, 1.0);
        }
    }

    #[test]
    fn dedicated_makespan_is_not_slower_than_concurrent() {
        let platform = grid5000::lille();
        let apps = ptgs(4, 3);
        let run = context(&platform, &apps, "es").schedule().unwrap();
        for (i, app) in apps.iter().enumerate() {
            let own = context(&platform, std::slice::from_ref(app), "es")
                .dedicated_makespan(0)
                .unwrap();
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
        let eval = context(&platform, &apps, "wps-work@0.7")
            .evaluate()
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
        let config = config("es");
        let allocs: Vec<RefAllocation> = ScheduleContext::new(&platform, &apps)
            .allocations_for(config.constraint.as_ref(), config.allocation.as_ref());
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
        let together = context(&platform, &apps, "es").schedule().unwrap();
        let released = Workload::released(apps.clone(), vec![0.0, 1000.0]).unwrap();
        let staggered = ScheduleContext::for_workload(&platform, &released, config("es"))
            .schedule()
            .unwrap();
        // The second application is released after the first one finished, so
        // its makespan should not be worse than in the simultaneous case.
        assert!(staggered.apps[1].makespan <= together.apps[1].makespan * 1.05 + 1e-6);
        assert!(staggered.global_makespan >= 1000.0);
    }

    #[test]
    fn empty_workloads_are_rejected() {
        let platform = grid5000::lille();
        let err = ScheduleContext::new(&platform, &[]).schedule().unwrap_err();
        assert_eq!(err, SchedError::EmptyWorkload);
    }

    #[test]
    fn evaluate_simulates_each_dedicated_baseline_once() {
        let platform = grid5000::lille();
        let apps = ptgs(3, 7);
        let ctx = context(&platform, &apps, "es");
        ctx.evaluate().unwrap();
        assert_eq!(ctx.dedicated_simulations(), apps.len());
        assert_eq!(ctx.concurrent_simulations(), 1);
    }

    #[test]
    fn evaluate_policies_shares_dedicated_baselines_across_strategies() {
        let platform = grid5000::sophia();
        let apps = ptgs(3, 8);
        let ctx = ScheduleContext::new(&platform, &apps);
        let strategies = ["s", "es", "wps-work@0.7"];
        for name in strategies {
            // One policy per call, so that each call simulates its run even
            // where two strategies give the same allocations.
            let policy = config(name).constraint;
            let eval = ctx
                .evaluate_policies(std::slice::from_ref(&policy))
                .unwrap();
            assert_eq!(eval[0].fairness.slowdowns.len(), 3);
        }
        // One dedicated simulation per distinct PTG, however many strategies
        // were compared; one concurrent simulation per strategy.
        assert_eq!(ctx.dedicated_simulations(), apps.len());
        assert_eq!(ctx.concurrent_simulations(), strategies.len());
    }

    #[test]
    fn context_path_matches_one_shot_path() {
        // A context over a one-shot owned `Workload` and one borrowing the
        // PTG slice evaluate identically.
        let platform = grid5000::rennes();
        let apps = ptgs(3, 9);
        let workload = Workload::batch(apps.clone());
        let one_shot = ScheduleContext::for_workload(&platform, &workload, config("es"))
            .evaluate()
            .unwrap();
        let via_ctx = context(&platform, &apps, "es").evaluate().unwrap();
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
        let config = SchedulerConfig {
            constraint: registry.constraint("sqrt-share").unwrap(),
            ..SchedulerConfig::default()
        };
        let eval = ScheduleContext::with_base(&platform, &apps, config)
            .evaluate()
            .unwrap();
        assert_eq!(eval.fairness.slowdowns.len(), 3);
        assert!(eval.global_makespan > 0.0);
        let betas: Vec<f64> = eval.apps.iter().map(|a| a.beta).collect();
        assert!((betas.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
