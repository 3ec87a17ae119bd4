//! Fleet observability under sharded campaigns — the cross-process half of
//! the obs layer:
//!
//! * a 3-way sharded campaign run with an obs dir per shard records a
//!   manifest (phase `done`, shared config digest + salt) and a complete
//!   heartbeat per shard, plus the per-shard journal/metrics exports;
//! * per-shard journals are deterministic — the same shard rerun produces
//!   byte-identical `run-<shard>.journal.jsonl` bytes;
//! * `merge_obs_dirs` (the library half of `mcsched-exp obs-merge`) yields one
//!   fleet journal + metrics snapshot byte-identical across merge orders;
//! * `render_snapshot` (the library half of `mcsched-exp top --snapshot`) is
//!   byte-identical for a finished fleet regardless of directory order or
//!   observation time;
//! * stale `.tmp` debris from a killed shard is reported as debris, never
//!   rendered as a live shard.
//!
//! Each shard records its spans into its own collector, but the metrics
//! registry is process-global, so every test serializes through one mutex
//! and resets the registry on entry.

use mcsched::exp::{run_campaign, CampaignConfig};
use mcsched::obs::fleet::{merge_obs_dirs, render_snapshot, scan_fleet, SnapshotOptions};
use mcsched::obs::{metrics, ObsOptions, RunPhase};
use mcsched::workload::AppGenerator;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes tests that reset and read the process-global metrics
/// registry (a shard's metrics export is a snapshot of it).
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A unique temporary directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "mcsched-fleet-obs-{tag}-{}-{}",
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

/// The same small-but-not-trivial campaign shape the shard-merge tier uses:
/// 2 PTG counts × 2 combinations × 4 platforms × 2 replications × 6
/// strategies.
fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        ptg_counts: vec![2, 4],
        combinations: 2,
        replications: 2,
        ..CampaignConfig::quick(AppGenerator::Strassen)
    }
}

/// Runs shard `index`/3 of the shared campaign with full fleet obs into
/// `dir`: manifest + heartbeat from the campaign itself, journal + metrics
/// exports from the `ObsOptions` teardown (what every binary does). The
/// caller holds the obs lock.
fn run_shard(dir: &TempDir, index: usize) {
    metrics::reset();
    let opts = ObsOptions {
        dir: Some(dir.path()),
        run: Some(format!("{index}of3")),
        quiet: true,
        ..ObsOptions::default()
    };
    let obs = opts.start();
    let mut config = campaign_config();
    config.obs_dir = Some(dir.path());
    config.shard = Some((index, 3));
    run_campaign(&config).expect("sharded campaign runs");
    obs.finish();
}

/// The three per-shard record files of one finished shard.
fn shard_files(dir: &TempDir, index: usize) -> (String, String, String) {
    let read = |suffix: &str| {
        let path = dir.path().join(format!("run-{index}of3.{suffix}"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing {}: {e}", path.display()))
    };
    (
        read("manifest.json"),
        read("heartbeat.json"),
        read("journal.jsonl"),
    )
}

#[test]
fn sharded_campaign_records_manifests_heartbeats_and_exports() {
    let _lock = obs_lock();
    let shards: Vec<TempDir> = (0..3).map(|i| TempDir::new(&format!("rec{i}"))).collect();
    for (index, dir) in shards.iter().enumerate() {
        run_shard(dir, index);
    }

    let mut digests = Vec::new();
    for (index, dir) in shards.iter().enumerate() {
        let (manifest_text, heartbeat_text, journal) = shard_files(dir, index);
        let manifest =
            mcsched::obs::RunManifest::parse_json(&manifest_text).expect("manifest parses");
        assert_eq!(manifest.shard, (index, 3));
        assert_eq!(manifest.phase, RunPhase::Done);
        assert_eq!(manifest.salt, mcsched::runtime::CACHE_SALT);
        assert_eq!(manifest.pid, std::process::id());
        assert!(
            manifest.label.contains("strassen"),
            "label: {}",
            manifest.label
        );
        digests.push(manifest.config_digest);

        let heartbeat =
            mcsched::obs::Heartbeat::parse_json(&heartbeat_text).expect("heartbeat parses");
        assert_eq!(heartbeat.points_done, heartbeat.points_total);
        assert!(heartbeat.points_total > 0);
        assert!(heartbeat.cells_done > 0, "the shard evaluated cells");
        assert!(!heartbeat.detail.is_empty());

        assert!(!journal.is_empty(), "shard exported a journal");
        let metrics_text =
            std::fs::read_to_string(dir.path().join(format!("run-{index}of3.metrics.json")))
                .expect("shard exported metrics");
        let snapshot =
            mcsched::obs::metrics::MetricsSnapshot::parse_json(&metrics_text).expect("parses");
        assert!(!snapshot.counters.is_empty(), "metrics recorded counters");
    }
    assert_eq!(digests[0], digests[1], "shards share the config digest");
    assert_eq!(digests[1], digests[2], "shards share the config digest");

    // Rerunning a shard into a fresh directory reproduces its journal
    // byte-for-byte: the per-shard export is deterministic.
    let again = TempDir::new("rec1-again");
    run_shard(&again, 1);
    let (_, _, journal_a) = shard_files(&shards[1], 1);
    let (_, _, journal_b) = shard_files(&again, 1);
    assert_eq!(journal_a, journal_b, "per-shard journals are deterministic");

    // Obs-merge: one fleet journal + metrics snapshot, byte-identical
    // across merge orders (the `mcsched-exp obs-merge` contract).
    let dirs: Vec<PathBuf> = shards.iter().map(TempDir::path).collect();
    let forward = merge_obs_dirs(&dirs).expect("fleet merges");
    let reversed: Vec<PathBuf> = dirs.iter().rev().cloned().collect();
    let backward = merge_obs_dirs(&reversed).expect("fleet merges in any order");
    assert_eq!(forward.shards, 3);
    assert_eq!(
        forward.journal, backward.journal,
        "merge order must not matter"
    );
    assert_eq!(
        forward.metrics.render_json(),
        backward.metrics.render_json(),
        "merged metrics must not depend on merge order"
    );
    assert!(
        forward.warnings.is_empty(),
        "all shards finished: {:?}",
        forward.warnings
    );
    assert!(
        forward.journal.lines().count() >= 3,
        "fleet journal has content"
    );
    assert_eq!(forward.salt, mcsched::runtime::CACHE_SALT);

    // Snapshot rendering (the `mcsched-exp top --snapshot` contract): a
    // finished fleet renders byte-identically regardless of directory
    // order or observation time.
    let frame = render_snapshot(
        &scan_fleet(&dirs),
        &SnapshotOptions {
            now_ms: 1_000_000,
            stale_after_ms: 30_000,
        },
    );
    let later = render_snapshot(
        &scan_fleet(&reversed),
        &SnapshotOptions {
            now_ms: 9_000_000_000,
            stale_after_ms: 30_000,
        },
    );
    assert_eq!(frame, later, "finished fleets render deterministically");
    assert!(frame.contains("fleet: 3 shard(s)"), "frame:\n{frame}");
    assert!(frame.contains("3 done"), "frame:\n{frame}");
    assert!(
        frame.contains("[0of3]") && frame.contains("[2of3]"),
        "frame:\n{frame}"
    );
    assert!(frame.contains("fleet cells:"), "frame:\n{frame}");
    assert!(frame.contains("merged metrics"), "frame:\n{frame}");
    assert!(
        !frame.contains("debris"),
        "clean fleet, no debris:\n{frame}"
    );
}

#[test]
fn killed_shard_debris_is_reported_not_rendered_as_progress() {
    let _lock = obs_lock();
    let dir = TempDir::new("debris");
    run_shard(&dir, 0);

    // A killed shard's mid-write leftovers: an atomically-staged temp file
    // that never got renamed.
    let debris = dir.path().join("run-1of3.heartbeat.json.4242.7.tmp");
    std::fs::write(&debris, "{\"points_done\":").unwrap();

    let fleet = scan_fleet(&[dir.path()]);
    assert_eq!(fleet.shards.len(), 1, "the temp file is not a shard");
    assert_eq!(fleet.debris.len(), 1);
    let frame = render_snapshot(
        &fleet,
        &SnapshotOptions {
            now_ms: 1_000_000,
            stale_after_ms: 30_000,
        },
    );
    assert!(frame.contains("fleet: 1 shard(s)"), "frame:\n{frame}");
    assert!(
        frame.contains("debris: 1 stale temp file(s)"),
        "frame:\n{frame}"
    );
    assert!(frame.contains(".tmp"), "frame names the leftover:\n{frame}");
}
