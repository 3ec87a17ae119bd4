//! Times the full concurrent-scheduling pipeline (constraint → allocation →
//! mapping → simulated execution) once per policy registered in the
//! [`PolicyRegistry`], and writes the measurements as machine-readable JSON.
//!
//! Constraint policies are swept against the default SCRAP-MAX/ready-tasks
//! pipeline; allocation and mapping policies against the default equal-share
//! constraint. Custom policies registered on the built-in registry would be
//! picked up automatically — the sweep iterates the registry's names instead
//! of a hard-coded list. Registry *aliases* resolving to the same policy
//! (`s`/`selfish`, `es`/`equal-share`, `scrap-max`/`scrapmax`,
//! `one-each`/`1-proc`) are timed once, under the policy's canonical
//! self-reported key, so BENCH_policies.json carries one row per distinct
//! policy rather than one per spelling.
//!
//! A final `paired` family times the campaign harness's
//! common-random-numbers mode: evaluating the paper's constraint set through
//! one shared [`ScheduleContext`] (`crn-shared-context`, dedicated baselines
//! simulated once) versus one fresh context per policy
//! (`independent-contexts`, the N+1 shape), so BENCH_policies.json tracks
//! the overhead — in practice, the saving — of paired evaluation.
//!
//! ```sh
//! cargo run --release -p mcsched-bench --bin bench_policies -- \
//!     --iterations 10 --apps 8 --out BENCH_policies.json
//! ```

use mcsched_core::policy::ConstraintPolicy;
use mcsched_core::{
    ConcurrentScheduler, PolicyRegistry, SchedError, ScheduleContext, SchedulerConfig, Workload,
};
use mcsched_obs::json::Json;
use mcsched_platform::{grid5000, Platform};
use mcsched_ptg::gen::PtgClass;
use mcsched_ptg::Ptg;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

struct Options {
    iterations: usize,
    apps: usize,
    seed: u64,
    out: String,
}

impl Options {
    fn from_env() -> Self {
        let mut opts = Options {
            iterations: 5,
            apps: 6,
            seed: 0x5EED,
            out: "BENCH_policies.json".to_string(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--iterations" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        opts.iterations = v;
                    }
                }
                "--apps" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        opts.apps = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        opts.seed = v;
                    }
                }
                "--out" => {
                    if let Some(v) = it.next() {
                        opts.out = v;
                    }
                }
                other => eprintln!("warning: ignoring unknown argument `{other}`"),
            }
        }
        opts.iterations = opts.iterations.max(1);
        opts.apps = opts.apps.max(1);
        opts
    }
}

struct Measurement {
    family: &'static str,
    policy: String,
    mean_ms: f64,
    min_ms: f64,
    max_ms: f64,
}

/// Times the full pipeline (context construction through simulation) over
/// the workload, returning (mean, min, max) in milliseconds. The workload is
/// borrowed via `workload_context`, so no PTG copies land in the timed
/// region; a fresh context per iteration keeps the memoized β/allocation
/// caches from short-circuiting the very work being measured.
fn time_pipeline(
    scheduler: &ConcurrentScheduler,
    platform: &Platform,
    workload: &Workload,
    iterations: usize,
) -> Result<(f64, f64, f64), SchedError> {
    // One warm-up run outside the measurement.
    scheduler.schedule_in(&scheduler.workload_context(platform, workload))?;
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    for _ in 0..iterations {
        let start = Instant::now();
        let context = scheduler.workload_context(platform, workload);
        scheduler.schedule_in(&context)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        total += ms;
        min = min.min(ms);
        max = max.max(ms);
    }
    Ok((total / iterations as f64, min, max))
}

fn main() {
    let opts = Options::from_env();
    let registry = PolicyRegistry::builtin();
    let platform = grid5000::lille();
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let apps: Vec<Ptg> = (0..opts.apps)
        .map(|i| PtgClass::Random.sample(&mut rng, format!("bench-{i}")))
        .collect();
    let workload = Workload::batch(apps).with_label("bench_policies");

    let mut measurements: Vec<Measurement> = Vec::new();
    let mut measure =
        |family: &'static str, policy: &str, scheduler: Result<ConcurrentScheduler, SchedError>| {
            let scheduler = scheduler.expect("registry names resolve");
            match time_pipeline(&scheduler, &platform, &workload, opts.iterations) {
                Ok((mean_ms, min_ms, max_ms)) => {
                    eprintln!("{family:>10} {policy:<20} mean {mean_ms:8.2} ms");
                    measurements.push(Measurement {
                        family,
                        policy: policy.to_string(),
                        mean_ms,
                        min_ms,
                        max_ms,
                    });
                }
                Err(e) => eprintln!("{family:>10} {policy:<20} failed: {e}"),
            }
        };

    // One timed row per *distinct policy*: registry names are sorted, so
    // the first alias resolving to a given canonical key claims it and the
    // rest are skipped.
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    for name in registry.constraint_names() {
        let canonical = registry
            .constraint(&name)
            .expect("registry names resolve")
            .cache_key();
        if !seen.insert(format!("constraint/{canonical}")) {
            continue;
        }
        measure(
            "constraint",
            &canonical,
            ConcurrentScheduler::builder()
                .constraint(name.clone())
                .build(),
        );
    }
    for name in registry.allocation_names() {
        let canonical = registry
            .allocation(&name)
            .expect("registry names resolve")
            .name();
        if !seen.insert(format!("allocation/{canonical}")) {
            continue;
        }
        measure(
            "allocation",
            &canonical,
            ConcurrentScheduler::builder()
                .allocation(name.clone())
                .build(),
        );
    }
    for name in registry.mapping_names() {
        let canonical = registry
            .mapping(&name)
            .expect("registry names resolve")
            .name();
        if !seen.insert(format!("mapping/{canonical}")) {
            continue;
        }
        measure(
            "mapping",
            &canonical,
            ConcurrentScheduler::builder().mapping(name.clone()).build(),
        );
    }

    // Paired-evaluation (common-random-numbers) timing: the paper's
    // constraint set, evaluated through one shared context versus one fresh
    // context per policy.
    let paired_policies: Vec<Arc<dyn ConstraintPolicy>> = ["s", "es", "ps-work", "wps-work"]
        .iter()
        .map(|n| registry.constraint(n).expect("registry names resolve"))
        .collect();
    let base = SchedulerConfig::default();
    let mut measure_paired = |policy: &str, run: &dyn Fn() -> Result<(), SchedError>| {
        // One warm-up run outside the measurement.
        run().expect("paired evaluation succeeds");
        let mut total = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for _ in 0..opts.iterations {
            let start = Instant::now();
            run().expect("paired evaluation succeeds");
            let ms = start.elapsed().as_secs_f64() * 1e3;
            total += ms;
            min = min.min(ms);
            max = max.max(ms);
        }
        let mean_ms = total / opts.iterations as f64;
        eprintln!("{:>10} {policy:<20} mean {mean_ms:8.2} ms", "paired");
        measurements.push(Measurement {
            family: "paired",
            policy: policy.to_string(),
            mean_ms,
            min_ms: min,
            max_ms: max,
        });
    };
    measure_paired("crn-shared-context", &|| {
        let context = ScheduleContext::for_workload(&platform, &workload, base.clone());
        context.evaluate_policies(&paired_policies).map(|_| ())
    });
    measure_paired("independent-contexts", &|| {
        for policy in &paired_policies {
            let context = ScheduleContext::for_workload(&platform, &workload, base.clone());
            context.evaluate_policies(std::slice::from_ref(policy))?;
        }
        Ok(())
    });

    // Machine-readable output. Hand-rolled JSON: the offline workspace has
    // no serde_json, and the shape is flat enough not to need it.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"iterations\": {},\n", opts.iterations));
    json.push_str(&format!("  \"apps\": {},\n", opts.apps));
    json.push_str(&format!("  \"seed\": {},\n", opts.seed));
    json.push_str(&format!(
        "  \"platform\": {},\n",
        Json::Str(platform.name().into()).render()
    ));
    json.push_str("  \"results\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"family\": \"{}\", \"policy\": {}, \"mean_ms\": {:.4}, \"min_ms\": {:.4}, \"max_ms\": {:.4}}}{}\n",
            m.family,
            Json::Str(m.policy.clone()).render(),
            m.mean_ms,
            m.min_ms,
            m.max_ms,
            if i + 1 == measurements.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    match std::fs::write(&opts.out, &json) {
        Ok(()) => println!("wrote {} measurements to {}", measurements.len(), opts.out),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", opts.out);
            std::process::exit(1);
        }
    }
}
