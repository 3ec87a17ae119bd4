//! `runtime`: the paper-scale paired campaign (daggen-grid, 8 concurrent
//! PTGs, 25 combinations × 4 platforms × 4 replications = 400 pairs,
//! PS-work against WPS-work; `--smoke`: 3 combinations × 2 replications)
//! at each `--threads` count, as three families: `pool-cold`
//! (`run_campaign` on the scoped fan-out, no cache), `shard-cold`
//! (shard 0 of a 3-way split, cold: what one process of a sharded run pays)
//! and `pool-warm` (against a pre-populated cell cache). Cold families time
//! at least 3 samples. The warm speed-up, the shard split factor and the
//! mean of each of the three shards (a fleet waits for the slowest) go to
//! stderr. Shards split the grid by scenario, so each shard computes the
//! dedicated baselines of its own scenarios only. With two policies, a
//! cell-by-cell split already left (2/3)² ≈ 44% of the scenarios without a
//! cell in a given shard of three (4% with the figures' eight), so the
//! baseline work saved here is smaller than on the figure grid. Rows with
//! more threads than the host's `available_parallelism` carry
//! `oversubscribed = 1`: they are not evidence of scaling.
//!
//! The warm cache is collected as a sharded campaign's is: the three
//! shards of a 3-way split run cold into their own directories and
//! `merge_cache_dirs` unions them. Three single-thread families time the
//! cache's I/O on it, ten samples per warm iteration: `cache-merge` (the
//! three shard directories into a fresh one), `cache-open` (loading the
//! merged cache) and `cache-flush` (writing every cell of it to a fresh
//! directory, every shard dirty).

use mcsched_bench::ledger::{time, time_with, Args, Ledger};
use mcsched_core::policy::ConstraintPolicy;
use mcsched_core::PolicyRegistry;
use mcsched_exp::{run_campaign, CampaignConfig};
use mcsched_obs::json::Json;
use mcsched_ptg::gen::PtgClass;
use mcsched_runtime::{merge_cache_dirs, CellCache};
use mcsched_workload::WorkloadCatalog;
use std::sync::Arc;

const SEED: u64 = 0x5EED;

/// The benchmarked campaign: the conformance tier's paper-scale paired
/// campaign, or its smoke reduction.
fn campaign_shape(smoke: bool) -> CampaignConfig {
    let registry = PolicyRegistry::builtin();
    let strategies: Vec<Arc<dyn ConstraintPolicy>> = ["ps-work", "wps-work"]
        .iter()
        .map(|n| registry.constraint(n).expect("registry names resolve"))
        .collect();
    let (combinations, replications) = if smoke { (3, 2) } else { (25, 4) };
    CampaignConfig {
        source: WorkloadCatalog::builtin()
            .resolve("daggen-grid")
            .expect("calibrated spec resolves"),
        ptg_counts: vec![8],
        combinations,
        replications,
        strategies,
        seed: SEED,
        ..CampaignConfig::paper(PtgClass::Random)
    }
}

pub fn run(args: &Args) -> Ledger {
    let threads = args.threads.clone().unwrap_or_else(|| vec![1, 2, 4, 8]);
    let warm_iterations = args.iterations.unwrap_or(2);
    let cold_iterations = warm_iterations.max(3);
    let shape = campaign_shape(args.smoke);
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let note = format!(
        "rows with more threads than available_parallelism = {parallelism} \
         carry oversubscribed = 1 and are not evidence of scaling"
    );
    eprintln!("runtime: {note}");
    let mut ledger = Ledger::new(vec![
        ("smoke".into(), Json::Bool(args.smoke)),
        ("cold_iterations".into(), Json::num_usize(cold_iterations)),
        ("warm_iterations".into(), Json::num_usize(warm_iterations)),
        ("combinations".into(), Json::num_usize(shape.combinations)),
        ("replications".into(), Json::num_usize(shape.replications)),
        ("seed".into(), Json::num_u64(SEED)),
        ("note".into(), Json::Str(note)),
    ]);

    // One warm cache, populated once and shared by every pool-warm row
    // (the cells are identical across thread counts).
    let work = std::env::temp_dir().join(format!("mcsched-bench-runtime-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let shard_dirs: Vec<_> = (0..3).map(|i| work.join(format!("shard-{i}"))).collect();
    for (i, dir) in shard_dirs.iter().enumerate() {
        let mut populate = shape.clone();
        populate.cache_dir = Some(dir.clone());
        populate.shard = Some((i, shard_dirs.len()));
        populate.threads = threads.iter().copied().max().unwrap_or(1);
        run_campaign(&populate).expect("cache pre-population runs");
    }
    let warm_dir = work.join("warm");
    merge_cache_dirs(&shard_dirs, &warm_dir).expect("the shard caches merge");
    let cells = CellCache::open(&warm_dir, true)
        .expect("the warm cache opens")
        .cells();
    let cache_case = format!("cells={}", cells.len());
    let cache_iterations = 10 * warm_iterations;
    let fresh = |name: &str| {
        let dir = work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    ledger.push(time_with(
        "cache-merge",
        &cache_case,
        cache_iterations,
        || fresh("merged"),
        |dest| {
            merge_cache_dirs(&shard_dirs, dest).expect("the shard caches merge");
        },
    ));
    ledger.push(time_with(
        "cache-open",
        &cache_case,
        cache_iterations,
        || None,
        |cache| *cache = Some(CellCache::open(&warm_dir, true).expect("the warm cache opens")),
    ));
    ledger.push(time_with(
        "cache-flush",
        &cache_case,
        cache_iterations,
        || {
            let cache = CellCache::open(fresh("flushed"), false).expect("a fresh cache opens");
            for &(key, metrics) in &cells {
                cache.insert(key, metrics);
            }
            cache
        },
        |cache| cache.flush().expect("the cache flushes"),
    ));

    for &n in &threads {
        let case = format!("threads={n}");
        let mut cold = shape.clone();
        cold.threads = n;
        let shards: Vec<CampaignConfig> = (0..3)
            .map(|i| CampaignConfig {
                shard: Some((i, 3)),
                ..cold.clone()
            })
            .collect();
        let mut warm = cold.clone();
        warm.cache_dir = Some(warm_dir.clone());
        let run = |config: &CampaignConfig| {
            std::hint::black_box(run_campaign(config).expect("campaign runs"));
        };
        for (family, config, iterations) in [
            ("pool-cold", &cold, cold_iterations),
            ("shard-cold", &shards[0], cold_iterations),
            ("pool-warm", &warm, warm_iterations),
        ] {
            let row = time(family, &case, iterations, || run(config));
            ledger.push(if n > parallelism {
                row.value("oversubscribed", 1.0)
            } else {
                row
            });
        }
        let mean = |family| ledger.row(family, &case).map_or(f64::NAN, |r| r.mean_ms);
        // The row keeps shard 0; the other shards are timed for stderr only.
        let per_shard: Vec<String> =
            std::iter::once(mean("shard-cold"))
                .chain(shards[1..].iter().map(|config| {
                    time("shard-cold", &case, cold_iterations, || run(config)).mean_ms
                }))
                .map(|ms| format!("{ms:.1}"))
                .collect();
        eprintln!(
            "{case}: pool-warm {:.1}x pool-cold, shard split factor {:.2}, \
             shard-cold 0/3 1/3 2/3 {} ms",
            mean("pool-cold") / mean("pool-warm"),
            mean("pool-cold") / mean("shard-cold"),
            per_shard.join(" "),
        );
    }
    let _ = std::fs::remove_dir_all(&work);
    ledger
}
