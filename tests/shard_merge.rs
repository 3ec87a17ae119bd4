//! Sharded multi-process campaigns and the deterministic cache merge:
//!
//! * **disjointness** — every cell digest lands in exactly one of N
//!   partitions for N ∈ {2, 3, 16}, measured over real campaign cells;
//! * **one baseline per scenario** — shards split the grid by scenario:
//!   every scenario's cells sit in one shard's cache, and the N shard runs
//!   together make exactly the allocation calls of one unsharded run;
//! * **shard/merge byte-identity** — a campaign split `--shard {0,1,2}/3`
//!   into three separate cache directories, merged, and re-rendered warm
//!   produces tables and CSVs byte-identical to the single-process run, at
//!   1, 2 and 8 worker threads (and the merged directory itself is
//!   byte-identical to the one the unsharded run wrote);
//! * **kill / merge / re-shard torture** — one shard is killed mid-run
//!   (only its first data points flushed, stale temp debris left behind),
//!   the partial caches are merged anyway, the remaining work is re-run
//!   under a *different* shard count seeded from the merged store, and the
//!   final merge still renders the baseline byte-for-byte;
//! * **conflict rejection** — sources disagreeing on one digest abort the
//!   merge naming both files, writing nothing.

use mcsched::core::policy::ScrapMaxAllocation;
use mcsched::core::{
    AllocationPolicy, DedicatedAllocation, RefAllocation, ReferencePlatform, SchedulerConfig,
};
use mcsched::exp::cells::SKIPPED_CELL;
use mcsched::exp::{
    cell_digest, generate_scenarios_with, replication_seed, run_campaign, CampaignConfig,
};
use mcsched::ptg::Ptg;
use mcsched::runtime::{merge_cache_dirs, CellCache, CellMetrics, DigestBuilder, MergeError};
use mcsched::workload::{AppGenerator, GeneratorSource};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A unique temporary directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "mcsched-shard-merge-{tag}-{}-{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }

    fn path(&self) -> PathBuf {
        self.0.clone()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The same small-but-not-trivial campaign the determinism tier uses:
/// 2 PTG counts × 2 combinations × 4 platforms × 2 replications × 6
/// strategies = 192 cells.
fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        ptg_counts: vec![2, 4],
        combinations: 2,
        replications: 2,
        ..CampaignConfig::quick(AppGenerator::Strassen)
    }
}

/// Renders a campaign to its two user-visible byte streams.
fn campaign_bytes(config: &CampaignConfig) -> (String, String) {
    let result = run_campaign(config).expect("campaign runs");
    (
        mcsched::exp::table_campaign(&result),
        mcsched::exp::csv_campaign(&result),
    )
}

/// `(file name, file bytes)` for every file of a cache directory, sorted.
fn dir_bytes(dir: &std::path::Path) -> Vec<(String, String)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|f| {
            (
                f.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&f).unwrap(),
            )
        })
        .collect()
}

#[test]
fn every_campaign_cell_lands_in_exactly_one_partition() {
    // Real cell digests, not synthetic ones: the scenarios and policies of
    // the shared campaign shape.
    let config = campaign_config();
    let pipeline = config.base.pipeline_cache_key();
    let scenarios = generate_scenarios_with(
        &GeneratorSource::new(AppGenerator::Strassen),
        2,
        config.combinations,
        config.seed,
    )
    .unwrap();
    let mut digests = Vec::new();
    for scenario in &scenarios {
        for policy in &config.strategies {
            digests.push(cell_digest(
                "strassen",
                &pipeline,
                scenario,
                policy.as_ref(),
            ));
        }
    }
    assert!(digests.len() >= 40, "enough cells to exercise partitioning");
    for of in [2usize, 3, 16] {
        let mut hit = vec![0usize; of];
        for &digest in &digests {
            let owners = (0..of).filter(|&i| digest.in_shard(i, of)).count();
            assert_eq!(owners, 1, "digest {digest} must have exactly one owner");
            hit[digest.partition(of)] += 1;
        }
        let total: usize = hit.iter().sum();
        assert_eq!(total, digests.len(), "partitions cover every cell");
    }
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
fn shards_split_scenarios_and_never_repeat_a_baseline() {
    let counting = Arc::new(CountingScrapMax::default());
    let full = CampaignConfig {
        base: SchedulerConfig {
            allocation: Arc::clone(&counting) as Arc<dyn AllocationPolicy>,
            ..SchedulerConfig::default()
        },
        ..campaign_config()
    };
    let counts = || {
        (
            counting.dedicated.swap(0, Ordering::Relaxed),
            counting.constrained.swap(0, Ordering::Relaxed),
        )
    };
    run_campaign(&full).expect("campaign runs");
    let unsharded = counts();
    assert!(unsharded.0 > 0 && unsharded.1 > 0);

    let spec = full.source.spec();
    let pipeline = full.base.pipeline_cache_key();
    let mut scenarios = Vec::new();
    for replication in 0..full.replications {
        for &n in &full.ptg_counts {
            scenarios.extend(
                generate_scenarios_with(
                    full.source.as_ref(),
                    n,
                    full.combinations,
                    replication_seed(full.seed, replication),
                )
                .unwrap(),
            );
        }
    }
    for of in [2usize, 3] {
        let dirs: Vec<TempDir> = (0..of)
            .map(|i| TempDir::new(&format!("baseline{i}of{of}")))
            .collect();
        let mut sharded = (0, 0);
        for (index, dir) in dirs.iter().enumerate() {
            run_campaign(&CampaignConfig {
                cache_dir: Some(dir.path()),
                shard: Some((index, of)),
                ..full.clone()
            })
            .expect("shard runs");
            let (dedicated, constrained) = counts();
            sharded.0 += dedicated;
            sharded.1 += constrained;
        }
        assert_eq!(
            sharded, unsharded,
            "{of} shards together make the (dedicated, constrained) calls of one run"
        );

        let caches: Vec<CellCache> = dirs
            .iter()
            .map(|d| CellCache::open(d.path(), true).unwrap())
            .collect();
        for scenario in &scenarios {
            let held: Vec<usize> = caches
                .iter()
                .map(|cache| {
                    full.strategies
                        .iter()
                        .filter(|p| {
                            let key = cell_digest(&spec, &pipeline, scenario, p.as_ref());
                            cache.lookup(key).is_some()
                        })
                        .count()
                })
                .collect();
            let owner = held.iter().position(|&n| n > 0);
            let owner = owner.unwrap_or_else(|| panic!("{}: in no shard cache", scenario.name));
            let mut expected = vec![0; of];
            expected[owner] = full.strategies.len();
            assert_eq!(
                held, expected,
                "{}: all cells in exactly one of {of} shard caches",
                scenario.name
            );
        }
    }
}

#[test]
fn sharded_runs_merge_to_the_unsharded_output_byte_for_byte() {
    let full = campaign_config();
    let baseline = campaign_bytes(&full);

    // Reference store: what a single-process cached run writes.
    let reference = TempDir::new("reference");
    {
        let mut cached = full.clone();
        cached.cache_dir = Some(reference.path());
        cached.threads = 1;
        assert_eq!(campaign_bytes(&cached), baseline);
    }

    for threads in [1usize, 2, 8] {
        // Three shard processes, each with its own cache directory. Their
        // own tables are partial (NaN placeholders) — the product is the
        // cache directories.
        let shards: Vec<TempDir> = (0..3)
            .map(|i| TempDir::new(&format!("shard{i}-t{threads}")))
            .collect();
        for (index, dir) in shards.iter().enumerate() {
            let mut config = full.clone();
            config.threads = threads;
            config.cache_dir = Some(dir.path());
            config.shard = Some((index, 3));
            let sharded = campaign_bytes(&config);
            assert_ne!(
                sharded, baseline,
                "a sharded run's own tables are partial, not the product"
            );
        }

        // Disjointness on disk: the shard caches partition the cell set.
        let cells: Vec<usize> = shards
            .iter()
            .map(|d| CellCache::open(d.path(), true).unwrap().resumed())
            .collect();
        assert!(cells.iter().all(|&c| c > 0), "every shard computed cells");

        // Merge, then render warm and unsharded from the merged store.
        let merged = TempDir::new(&format!("merged-t{threads}"));
        let sources: Vec<PathBuf> = shards.iter().map(TempDir::path).collect();
        let report = merge_cache_dirs(&sources, &merged.path()).expect("shard dirs merge");
        assert_eq!(report.sources, 3);
        assert_eq!(
            report.duplicates, 0,
            "disjoint shards share no cell: {cells:?}"
        );
        assert_eq!(report.cells, cells.iter().sum::<usize>());

        let mut warm = full.clone();
        warm.threads = threads;
        warm.cache_dir = Some(merged.path());
        assert_eq!(
            campaign_bytes(&warm),
            baseline,
            "merged warm output drifted at {threads} threads"
        );

        if threads == 1 {
            // The merged directory is byte-identical to the unsharded store
            // — same cells, same key-sorted rendering. (The warm run above
            // may append nothing: every cell was already present.)
            assert_eq!(
                dir_bytes(&merged.path()),
                dir_bytes(&reference.path()),
                "merge must reproduce the single-process store exactly"
            );
        }
    }
}

#[test]
fn kill_merge_reshard_torture_still_matches_the_baseline() {
    let full = campaign_config();
    let baseline = campaign_bytes(&full);

    // Phase 1: a 3-way sharded campaign in which shard 1 is "killed" after
    // its first data points — simulated by running only PTG count 2 — and
    // leaves mid-flush debris behind.
    let shards: Vec<TempDir> = (0..3).map(|i| TempDir::new(&format!("kill{i}"))).collect();
    for (index, dir) in shards.iter().enumerate() {
        let mut config = full.clone();
        config.cache_dir = Some(dir.path());
        config.shard = Some((index, 3));
        if index == 1 {
            config.ptg_counts = vec![2];
        }
        let _ = campaign_bytes(&config);
    }
    std::fs::write(
        shards[1].path().join("shard-03.json.tmp"),
        "{\"version\":1,tru",
    )
    .unwrap();

    // Phase 2: merge what survived. The partial shard contributes its
    // completed cells; the stale temporary is not a shard file and is
    // ignored by the merge.
    let merged = TempDir::new("kill-merged");
    let sources: Vec<PathBuf> = shards.iter().map(TempDir::path).collect();
    let partial_report = merge_cache_dirs(&sources, &merged.path()).expect("partial dirs merge");
    assert!(partial_report.cells > 0);

    // Phase 3: re-shard the remaining work under a *different* N. Each
    // re-shard run starts from a copy of the merged store (merge-into acts
    // as the seed), serves everything already computed, and evaluates only
    // its own partition of the missing cells.
    let reshards: Vec<TempDir> = (0..2)
        .map(|i| TempDir::new(&format!("reshard{i}")))
        .collect();
    for (index, dir) in reshards.iter().enumerate() {
        merge_cache_dirs(&[merged.path()], &dir.path()).expect("seeding a re-shard dir");
        let mut config = full.clone();
        config.cache_dir = Some(dir.path());
        config.shard = Some((index, 2));
        let _ = campaign_bytes(&config);
    }

    // Phase 4: final merge (duplicates abound — every re-shard dir holds
    // the full seeded store — but all bit-identical) and warm render.
    let final_dir = TempDir::new("kill-final");
    let sources: Vec<PathBuf> = reshards.iter().map(TempDir::path).collect();
    let report = merge_cache_dirs(&sources, &final_dir.path()).expect("re-shard dirs merge");
    assert!(
        report.duplicates > 0,
        "re-shard dirs share the seeded cells"
    );

    let mut warm = full.clone();
    warm.cache_dir = Some(final_dir.path());
    assert_eq!(
        campaign_bytes(&warm),
        baseline,
        "kill + merge + re-shard must still render the baseline"
    );
}

#[test]
fn merge_rejects_conflicting_sources_naming_both() {
    let a = TempDir::new("conflict-a");
    let b = TempDir::new("conflict-b");
    let dest = TempDir::new("conflict-dest");
    let digest = DigestBuilder::new().str("conflicting-cell").finish();
    let metrics = |makespan: f64| CellMetrics {
        unfairness: 0.25,
        makespan,
        average_slowdown: 2.0,
    };
    for (dir, makespan) in [(&a, 100.0), (&b, 200.0)] {
        let cache = CellCache::open(dir.path(), true).unwrap();
        cache.insert(digest, metrics(makespan));
        cache.flush().unwrap();
    }
    let err = merge_cache_dirs(&[a.path(), b.path()], &dest.path())
        .expect_err("conflicting sources must not merge");
    match &err {
        MergeError::Conflict {
            digest: d,
            first,
            second,
        } => {
            assert_eq!(*d, digest);
            assert!(first.starts_with(a.path()));
            assert!(second.starts_with(b.path()));
        }
        other => panic!("expected Conflict, got {other}"),
    }
    let message = err.to_string();
    assert!(message.contains(&digest.to_hex()), "error names the digest");
    assert!(
        std::fs::read_dir(dest.path())
            .map(|d| d.count() == 0)
            .unwrap_or(true),
        "a failed merge writes nothing"
    );
}

#[test]
fn skipped_cells_are_nan_placeholders_under_a_real_strategy_name() {
    // The contract the report layer relies on: a sharded run's skipped
    // cells keep their slot in policy order, so the report labels them with
    // their real strategy name (table shapes are stable), and carry all-NaN
    // metrics (so no aggregate mistakes them for measurements).
    let placeholder = SKIPPED_CELL;
    assert!(placeholder.unfairness.is_nan());
    assert!(placeholder.makespan.is_nan());
    assert!(placeholder.average_slowdown.is_nan());
}
