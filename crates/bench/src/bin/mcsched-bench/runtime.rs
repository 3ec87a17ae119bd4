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
//! `merge_cache_dirs` unions them. Three families time the cache's I/O on
//! it, a hundred samples per warm iteration to narrow the sampling noise of
//! these sub-millisecond rows (on a shared host whole recordings still
//! shift by 10–25%, so compare alternating recordings): `cache-merge` (the
//! three shard directories into a fresh one), `cache-open` (loading the
//! merged cache, on one thread as `CellCache::open` does and on two as a
//! campaign at `--threads 2` does) and `cache-flush` (writing every cell
//! of it to a fresh directory, every shard dirty). `cache-digest` keys the grid's
//! cells: the scenario digests of its scenarios, each finalized with the
//! two policies' keys, hashed one scenario at a time (`per-scenario`) or
//! one combination of four site scenarios at a time (`per-combination`,
//! whose `ratio` value is the per-scenario time over its own).

use mcsched_bench::ledger::{time, time_with, Args, Ledger, Row};
use mcsched_core::policy::ConstraintPolicy;
use mcsched_core::PolicyRegistry;
use mcsched_exp::cells::{combination_digests, scenario_digest};
use mcsched_exp::{generate_scenarios_with, replication_seed, run_campaign, CampaignConfig};
use mcsched_obs::json::Json;
use mcsched_runtime::{merge_cache_dirs, CellCache, DigestBuilder};
use mcsched_workload::AppGenerator;
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
        ptg_counts: vec![8],
        combinations,
        replications,
        strategies,
        seed: SEED,
        ..CampaignConfig::paper(AppGenerator::DaggenGrid)
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
    let cache_iterations = 100 * warm_iterations;
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
    for threads in [1, 2] {
        let case = match threads {
            1 => cache_case.clone(),
            _ => format!("{cache_case} threads={threads}"),
        };
        let row = time_with(
            "cache-open",
            case,
            cache_iterations,
            || None,
            |cache| {
                *cache = Some(
                    CellCache::open_with_threads(&warm_dir, true, threads)
                        .expect("the warm cache opens"),
                );
            },
        );
        ledger.push(if threads > parallelism {
            row.value("oversubscribed", 1.0)
        } else {
            row
        });
    }
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
    for row in digest_rows(&shape, &cache_case, cache_iterations) {
        ledger.push(row);
    }

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

/// The `cache-digest` rows: every cell key of the campaign's grid, from
/// its scenarios hashed one at a time and one combination at a time.
fn digest_rows(shape: &CampaignConfig, case: &str, iterations: usize) -> [Row; 2] {
    let spec = shape.source.spec();
    let pipeline = shape.base.pipeline_cache_key();
    let policy_keys: Vec<String> = shape.strategies.iter().map(|p| p.cache_key()).collect();
    let scenarios: Vec<_> = (0..shape.replications)
        .flat_map(|replication| {
            shape.ptg_counts.iter().flat_map(move |&n| {
                generate_scenarios_with(
                    shape.source.as_ref(),
                    n,
                    shape.combinations,
                    replication_seed(SEED, replication),
                )
                .expect("the grid generates")
            })
        })
        .collect();
    let keys = |builders: Vec<DigestBuilder>| {
        for builder in builders {
            for key in &policy_keys {
                std::hint::black_box(builder.clone().str(key).finish());
            }
        }
    };
    let serial = time(
        "cache-digest",
        format!("{case} per-scenario"),
        iterations,
        || {
            keys(
                scenarios
                    .iter()
                    .map(|s| scenario_digest(&spec, &pipeline, std::hint::black_box(s)))
                    .collect(),
            );
        },
    );
    let lanes = time(
        "cache-digest",
        format!("{case} per-combination"),
        iterations,
        || {
            for combination in scenarios.chunks(4) {
                keys(combination_digests(
                    &spec,
                    &pipeline,
                    std::hint::black_box(combination),
                ));
            }
        },
    );
    let ratio = serial.mean_ms / lanes.mean_ms;
    [serial, lanes.value("ratio", ratio)]
}
