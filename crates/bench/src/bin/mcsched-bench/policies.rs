//! `policies`: the full concurrent-scheduling pipeline (constraint →
//! allocation → mapping → simulated execution) once per policy in the
//! [`PolicyRegistry`], plus the paired (common-random-numbers) evaluation.
//!
//! Constraint policies run against the default SCRAP-MAX/ready-tasks
//! pipeline, allocation and mapping policies against the default
//! equal-share constraint. The sweep iterates the registry's names, and
//! aliases resolving to the same policy (`s`/`selfish`, `es`/`equal-share`,
//! ...) are timed once, under the policy's canonical key: one row per
//! distinct policy.
//!
//! The `paired` family times the paper's constraint set evaluated through
//! one shared [`ScheduleContext`] (`crn-shared-context`, dedicated
//! baselines simulated once) against one fresh context per policy
//! (`independent-contexts`).

use mcsched_bench::ledger::{time, Args, Ledger};
use mcsched_core::policy::ConstraintPolicy;
use mcsched_core::{
    ConcurrentScheduler, PolicyRegistry, ScheduleContext, SchedulerConfig, Workload,
};
use mcsched_obs::json::Json;
use mcsched_platform::grid5000;
use mcsched_ptg::gen::PtgClass;
use mcsched_ptg::Ptg;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::Arc;

const APPS: usize = 6;
const SEED: u64 = 0x5EED;

pub fn run(args: &Args) -> Ledger {
    let iterations = args.iterations.unwrap_or(if args.smoke { 1 } else { 5 });
    let registry = PolicyRegistry::builtin();
    let platform = grid5000::lille();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let apps: Vec<Ptg> = (0..APPS)
        .map(|i| PtgClass::Random.sample(&mut rng, format!("bench-{i}")))
        .collect();
    let workload = Workload::batch(apps).with_label("bench_policies");
    let mut ledger = Ledger::new(vec![
        ("iterations".into(), Json::num_usize(iterations)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("apps".into(), Json::num_usize(APPS)),
        ("seed".into(), Json::num_u64(SEED)),
        ("platform".into(), Json::Str(platform.name().into())),
    ]);

    // The full pipeline, context construction included: a fresh context
    // per run keeps the memoized β/allocation caches from short-circuiting
    // the work being measured.
    let mut pipeline = |family: &str, policy: String, built: Result<ConcurrentScheduler, _>| {
        let scheduler: ConcurrentScheduler = built.expect("registry names build");
        ledger.push(time(family, policy, iterations, || {
            let context = scheduler.workload_context(&platform, &workload);
            scheduler.schedule_in(&context).expect("the pipeline runs");
        }));
    };

    // Registry names are sorted, so the first alias of a canonical key
    // claims its row and the rest are skipped.
    let mut seen: HashSet<String> = HashSet::new();
    let resolve = "registry names resolve";
    let build = ConcurrentScheduler::builder;
    for name in registry.constraint_names() {
        let key = registry.constraint(&name).expect(resolve).cache_key();
        if seen.insert(format!("constraint/{key}")) {
            pipeline("constraint", key, build().constraint(name).build());
        }
    }
    for name in registry.allocation_names() {
        let key = registry.allocation(&name).expect(resolve).name();
        if seen.insert(format!("allocation/{key}")) {
            pipeline("allocation", key, build().allocation(name).build());
        }
    }
    for name in registry.mapping_names() {
        let key = registry.mapping(&name).expect(resolve).name();
        if seen.insert(format!("mapping/{key}")) {
            pipeline("mapping", key, build().mapping(name).build());
        }
    }

    let paired: Vec<Arc<dyn ConstraintPolicy>> = ["s", "es", "ps-work", "wps-work"]
        .iter()
        .map(|n| registry.constraint(n).expect(resolve))
        .collect();
    let base = SchedulerConfig::default();
    let shared = time("paired", "crn-shared-context", iterations, || {
        let context = ScheduleContext::for_workload(&platform, &workload, base.clone());
        context
            .evaluate_policies(&paired)
            .expect("paired evaluation runs");
    });
    ledger.push(shared);
    let independent = time("paired", "independent-contexts", iterations, || {
        for policy in &paired {
            let context = ScheduleContext::for_workload(&platform, &workload, base.clone());
            context
                .evaluate_policies(std::slice::from_ref(policy))
                .expect("paired evaluation runs");
        }
    });
    ledger.push(independent);
    ledger
}
