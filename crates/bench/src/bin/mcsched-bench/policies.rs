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
//! (`independent-contexts`), and the FFT paper set on one shared context
//! over ten 32-point FFT graphs (`fft-paper-set`), where several policies
//! give the same allocations.

use mcsched_bench::ledger::{time, Args, Ledger};
use mcsched_core::policy::ConstraintPolicy;
use mcsched_core::{PolicyRegistry, ScheduleContext, SchedulerConfig, Workload};
use mcsched_exp::CampaignConfig;
use mcsched_obs::json::Json;
use mcsched_platform::grid5000;
use mcsched_ptg::Ptg;
use mcsched_workload::{AppGenerator, WorkloadCatalog, WorkloadRequest};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::Arc;

const APPS: usize = 6;
const FFT_APPS: usize = 10;
const SEED: u64 = 0x5EED;

pub fn run(args: &Args) -> Ledger {
    let iterations = args.iterations.unwrap_or(if args.smoke { 1 } else { 10 });
    // Runs of a millisecond or less are timed `batch` to a sample: one
    // stall of the host then moves a sample by a fraction, not a multiple.
    let batch = if args.smoke { 1 } else { 16 };
    let batched = |family: &str, case: &str, run: &dyn Fn()| {
        time(family, case, iterations, || (0..batch).for_each(|_| run())).per(batch)
    };
    let registry = PolicyRegistry::builtin();
    let platform = grid5000::lille();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let apps: Vec<Ptg> = (0..APPS)
        .map(|i| AppGenerator::Random.sample(&mut rng, format!("bench-{i}")))
        .collect();
    let workload = Workload::batch(apps).with_label("bench_policies");
    let mut ledger = Ledger::new(vec![
        ("iterations".into(), Json::num_usize(iterations)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("batch".into(), Json::num_usize(batch)),
        ("apps".into(), Json::num_usize(APPS)),
        ("seed".into(), Json::num_u64(SEED)),
        ("platform".into(), Json::Str(platform.name().into())),
    ]);

    // The full pipeline, context construction included: a fresh context
    // per run keeps its memoized β = 1 allocations and platform views from
    // short-circuiting the work being measured.
    let mut pipeline = |family: &str, policy: String, config: SchedulerConfig| {
        ledger.push(batched(family, &policy, &|| {
            ScheduleContext::for_workload(&platform, &workload, config.clone())
                .schedule()
                .expect("the pipeline runs");
        }));
    };

    // Registry names are sorted, so the first alias of a canonical key
    // claims its row and the rest are skipped.
    let mut seen: HashSet<String> = HashSet::new();
    let resolve = "registry names resolve";
    let base = SchedulerConfig::default();
    for name in registry.constraint_names() {
        let constraint = registry.constraint(&name).expect(resolve);
        let key = constraint.cache_key();
        if seen.insert(format!("constraint/{key}")) {
            let config = SchedulerConfig {
                constraint,
                ..base.clone()
            };
            pipeline("constraint", key, config);
        }
    }
    for name in registry.allocation_names() {
        let allocation = registry.allocation(&name).expect(resolve);
        let key = allocation.name();
        if seen.insert(format!("allocation/{key}")) {
            let config = SchedulerConfig {
                allocation,
                ..base.clone()
            };
            pipeline("allocation", key, config);
        }
    }
    for name in registry.mapping_names() {
        let mapping = registry.mapping(&name).expect(resolve);
        let key = mapping.name();
        if seen.insert(format!("mapping/{key}")) {
            let config = SchedulerConfig {
                mapping,
                ..base.clone()
            };
            pipeline("mapping", key, config);
        }
    }

    let paired: Vec<Arc<dyn ConstraintPolicy>> = ["s", "es", "ps-work", "wps-work"]
        .iter()
        .map(|n| registry.constraint(n).expect(resolve))
        .collect();
    let shared = batched("paired", "crn-shared-context", &|| {
        let context = ScheduleContext::for_workload(&platform, &workload, base.clone());
        context
            .evaluate_policies(&paired)
            .expect("paired evaluation runs");
    });
    ledger.push(shared);
    let independent = batched("paired", "independent-contexts", &|| {
        for policy in &paired {
            let context = ScheduleContext::for_workload(&platform, &workload, base.clone());
            context
                .evaluate_policies(std::slice::from_ref(policy))
                .expect("paired evaluation runs");
        }
    });
    ledger.push(independent);

    let fft = WorkloadCatalog::builtin()
        .resolve("fft@points=32")
        .expect("built-in spec resolves")
        .generate(&WorkloadRequest::new(SEED, FFT_APPS, "bench-fft"))
        .expect("generation succeeds");
    let fft_set = CampaignConfig::paper(AppGenerator::Fft { points: None }).strategies;
    ledger.push(time("paired", "fft-paper-set", iterations, || {
        let context = ScheduleContext::for_workload(&platform, &fft, base.clone());
        context
            .evaluate_policies(&fft_set)
            .expect("paired evaluation runs");
    }));
    ledger
}
