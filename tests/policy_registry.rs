//! Integration tests of the policy registry and the pluggable-policy entry
//! surface: every built-in resolves by name and round-trips, unknown names
//! produce typed errors, and a user-registered policy runs end-to-end
//! through `evaluate` and through a campaign without touching core code.

use mcsched::core::policy::{ScrapMaxAllocation, WeightedShare};
use mcsched::core::DedicatedAllocation;
use mcsched::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn sample_apps(n: usize, seed: u64) -> Vec<Ptg> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| AppGenerator::Random.sample(&mut rng, format!("app-{i}")))
        .collect()
}

#[test]
fn every_builtin_constraint_round_trips_name_to_policy_to_name() {
    let registry = PolicyRegistry::builtin();
    // The paper's eight strategies by display name...
    for strategy in ConstraintStrategy::paper_set() {
        let policy = registry
            .constraint(&strategy.name())
            .unwrap_or_else(|e| panic!("{}: {e}", strategy.name()));
        assert_eq!(policy.name(), strategy.name());
    }
    // ...and every registered name resolves to a policy that resolves back
    // to itself through its own display name.
    for name in registry.constraint_names() {
        let policy = registry.constraint(&name).unwrap();
        let again = registry.constraint(&policy.name()).unwrap();
        assert_eq!(policy.name(), again.name(), "via registered name {name}");
    }
}

#[test]
fn every_builtin_allocation_and_mapping_round_trips() {
    let registry = PolicyRegistry::builtin();
    for name in registry.allocation_names() {
        let policy = registry.allocation(&name).unwrap();
        let again = registry.allocation(&policy.name()).unwrap();
        assert_eq!(policy.name(), again.name(), "via registered name {name}");
    }
    for name in registry.mapping_names() {
        let policy = registry.mapping(&name).unwrap();
        let again = registry.mapping(&policy.name()).unwrap();
        assert_eq!(policy.name(), again.name(), "via registered name {name}");
    }
}

#[test]
fn unknown_names_yield_typed_unknown_policy_errors() {
    let registry = PolicyRegistry::builtin();
    match registry.constraint("definitely-not-a-policy") {
        Err(SchedError::UnknownPolicy { kind, name, known }) => {
            assert_eq!(kind, PolicyKind::Constraint);
            assert_eq!(name, "definitely-not-a-policy");
            assert!(!known.is_empty());
        }
        other => panic!("expected UnknownPolicy, got {other:?}"),
    }
    // The same error surfaces for the other families...
    assert!(matches!(
        registry.allocation("scrappy"),
        Err(SchedError::UnknownPolicy {
            kind: PolicyKind::Allocation,
            ..
        })
    ));
    // ...and carries a readable message naming the family.
    let msg = registry.mapping("nope").unwrap_err().to_string();
    assert!(msg.contains("mapping"), "{msg}");
    assert!(msg.contains("`nope`"), "{msg}");
}

/// A policy the core crates know nothing about: β decays geometrically with
/// the submission rank (earlier applications get larger shares).
#[derive(Debug)]
struct RankDecay;

impl ConstraintPolicy for RankDecay {
    fn name(&self) -> String {
        "rank-decay".to_string()
    }

    fn betas(&self, ptgs: &[Ptg], _reference: &ReferencePlatform) -> Vec<f64> {
        (0..ptgs.len())
            .map(|i| (0.5f64.powi(i as i32)).max(0.05))
            .collect()
    }
}

#[test]
fn custom_registered_policy_runs_end_to_end_through_evaluate() {
    let mut registry = PolicyRegistry::builtin();
    registry.register_constraint_instance("rank-decay", Arc::new(RankDecay));

    let platform = grid5000::sophia();
    let apps = sample_apps(3, 0xDECAF);
    let config = SchedulerConfig {
        constraint: registry.constraint("rank-decay").unwrap(),
        ..SchedulerConfig::default()
    };

    let workload = Workload::batch(apps).with_label("custom-policy-e2e");
    let evaluation = ScheduleContext::for_workload(&platform, &workload, config)
        .evaluate()
        .unwrap();

    assert_eq!(evaluation.apps.len(), 3);
    assert!(evaluation.global_makespan > 0.0);
    assert_eq!(evaluation.fairness.slowdowns.len(), 3);
    // The custom β vector actually drove the pipeline.
    let betas: Vec<f64> = evaluation.apps.iter().map(|a| a.beta).collect();
    assert_eq!(betas, vec![1.0, 0.5, 0.25]);
    for s in &evaluation.fairness.slowdowns {
        assert!(*s > 0.0 && *s <= 1.1);
    }
}

#[test]
fn custom_policy_slots_into_a_campaign_next_to_builtins() {
    use mcsched::exp::{run_campaign, CampaignConfig};

    let custom: Arc<dyn ConstraintPolicy> = Arc::new(RankDecay);
    let mut strategies = CampaignConfig::policies(&[ConstraintStrategy::EqualShare]);
    strategies.push(custom);
    let config = CampaignConfig {
        ptg_counts: vec![2],
        combinations: 1,
        strategies,
        threads: 2,
        ..CampaignConfig::paper(AppGenerator::Strassen)
    };
    let result = run_campaign(&config).unwrap();
    assert_eq!(
        result.strategies(),
        vec!["ES".to_string(), "rank-decay".to_string()]
    );
    let custom_point = result.point(2, "rank-decay").expect("custom cell exists");
    assert!(custom_point.makespan > 0.0);
    assert!(custom_point.unfairness >= 0.0);
}

#[test]
fn parameterised_names_reach_the_scheduler_pipeline() {
    let platform = grid5000::lille();
    let apps = sample_apps(2, 7);
    let by_name = SchedulerConfig {
        constraint: PolicyRegistry::builtin()
            .constraint("wps-work@0.7")
            .unwrap(),
        ..SchedulerConfig::default()
    };
    let by_instance = SchedulerConfig {
        constraint: Arc::new(WeightedShare::new(Characteristic::Work, 0.7)),
        ..SchedulerConfig::default()
    };
    let a = ScheduleContext::with_base(&platform, &apps, by_name)
        .schedule()
        .unwrap();
    let b = ScheduleContext::with_base(&platform, &apps, by_instance)
        .schedule()
        .unwrap();
    assert_eq!(a.apps, b.apps);
    assert_eq!(a.global_makespan, b.global_makespan);
}

#[test]
fn paired_evaluation_runs_the_schedulers_own_pipeline() {
    // A non-default allocation and mapping picked by name must drive the
    // paired path exactly as they drive `evaluate`: same concurrent runs,
    // same allocations, same dedicated baselines.
    let platform = grid5000::lille();
    let apps = sample_apps(4, 7);
    let registry = PolicyRegistry::builtin();
    let config = SchedulerConfig {
        constraint: registry.constraint("es").unwrap(),
        allocation: registry.allocation("cpa").unwrap(),
        mapping: registry.mapping("global").unwrap(),
    };
    let direct = ScheduleContext::with_base(&platform, &apps, config.clone())
        .evaluate()
        .unwrap();
    let ctx = ScheduleContext::with_base(&platform, &apps, config);
    assert_eq!(ctx.base().allocation.name(), "CPA");
    assert_eq!(ctx.base().mapping.name(), "global");
    let es = registry.constraint("es").unwrap();
    let paired = ctx.evaluate_policies(&[es]).unwrap().remove(0);
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(
        bits(paired.apps.iter().map(|a| a.makespan).collect()),
        bits(direct.apps.iter().map(|a| a.makespan).collect())
    );
    let procs = |apps: &[mcsched::core::scheduler::AppReport]| {
        apps.iter().map(|a| a.allocated_procs).collect::<Vec<_>>()
    };
    assert_eq!(procs(&paired.apps), procs(&direct.apps));
    assert_eq!(
        bits(ctx.dedicated_makespans().unwrap()),
        bits(direct.dedicated_makespans)
    );
}

/// SCRAP-MAX behind a counter of the allocation runs the pipeline asks for.
#[derive(Debug, Default)]
struct CountingScrapMax {
    dedicated: AtomicUsize,
    constrained: AtomicUsize,
}

impl AllocationPolicy for CountingScrapMax {
    fn name(&self) -> String {
        "counting-scrap-max".to_string()
    }

    fn allocate(&self, reference: &ReferencePlatform, ptg: &Ptg, beta: f64) -> RefAllocation {
        self.constrained.fetch_add(1, Ordering::Relaxed);
        ScrapMaxAllocation.allocate(reference, ptg, beta)
    }

    fn dedicated(&self, reference: &ReferencePlatform, ptg: &Ptg) -> DedicatedAllocation {
        self.dedicated.fetch_add(1, Ordering::Relaxed);
        ScrapMaxAllocation.dedicated(reference, ptg)
    }

    fn allocate_from(
        &self,
        dedicated: &DedicatedAllocation,
        reference: &ReferencePlatform,
        ptg: &Ptg,
        beta: f64,
    ) -> RefAllocation {
        self.constrained.fetch_add(1, Ordering::Relaxed);
        ScrapMaxAllocation.allocate_from(dedicated, reference, ptg, beta)
    }
}

#[test]
fn one_allocation_run_per_policy_and_application() {
    // The paired path runs each application's β = 1 allocation once, for
    // its dedicated baseline, and each policy's allocation of each
    // application once; the one-policy path runs one per application.
    let platform = grid5000::lille();
    let apps = sample_apps(3, 11);
    let counting = Arc::new(CountingScrapMax::default());
    let base = SchedulerConfig {
        allocation: Arc::clone(&counting) as Arc<dyn AllocationPolicy>,
        ..SchedulerConfig::default()
    };
    let registry = PolicyRegistry::builtin();
    let policies: Vec<Arc<dyn ConstraintPolicy>> = ["s", "es", "ps-work", "wps-work"]
        .iter()
        .map(|name| registry.constraint(name).unwrap())
        .collect();
    let counts = || {
        (
            counting.dedicated.swap(0, Ordering::Relaxed),
            counting.constrained.swap(0, Ordering::Relaxed),
        )
    };

    let ctx = ScheduleContext::with_base(&platform, &apps, base.clone());
    ctx.evaluate_policies(&policies).unwrap();
    assert_eq!(counts(), (apps.len(), policies.len() * apps.len()));

    ScheduleContext::with_base(&platform, &apps, base)
        .schedule()
        .unwrap();
    assert_eq!(counts(), (0, apps.len()));
}
