//! Determinism and resume guarantees of the execution runtime
//! (`mcsched-runtime` + the `mcsched-exp` harnesses running on it):
//!
//! * campaign and µ-sweep output is **byte-for-byte identical** at 1, 2 and
//!   8 worker threads (the pool's deterministic-index-order contract,
//!   asserted on the rendered tables *and* CSVs, which compare every f64
//!   exactly);
//! * a **warm cache** reproduces the cold run byte-for-byte while serving
//!   cells from disk (a poisoned cell value provably reaches the output);
//! * a **killed** run — simulated by a partial cache directory — resumes:
//!   the completed shards are served, only the missing cells are computed,
//!   and the final output equals the never-interrupted run;
//! * `--no-resume` really starts cold, and damaged cache files degrade to
//!   recomputation, never to wrong results.

use mcsched::exp::{mu_campaign, run_campaign, CampaignConfig, QUICK_MU_VALUES};
use mcsched::workload::AppGenerator;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique temporary directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "mcsched-runtime-determinism-{tag}-{}-{}",
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

/// A small-but-not-trivial campaign: 2 PTG counts × 2 combinations × 4
/// platforms × 2 replications × 6 strategies = 192 cells.
fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        ptg_counts: vec![2, 4],
        combinations: 2,
        replications: 2,
        ..CampaignConfig::quick(AppGenerator::Strassen)
    }
}

fn sweep_config() -> CampaignConfig {
    CampaignConfig {
        replications: 2,
        ..mu_campaign(false).0
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

fn sweep_bytes(config: &CampaignConfig) -> (String, String) {
    let result = run_campaign(config).expect("sweep runs");
    (
        mcsched::exp::table_mu_sweep(&result, &QUICK_MU_VALUES),
        mcsched::exp::csv_mu_sweep(&result, &QUICK_MU_VALUES),
    )
}

#[test]
fn campaign_output_is_byte_identical_at_1_2_and_8_threads() {
    let mut config = campaign_config();
    config.threads = 1;
    let reference = campaign_bytes(&config);
    for threads in [2, 8] {
        config.threads = threads;
        assert_eq!(
            campaign_bytes(&config),
            reference,
            "campaign output drifted at {threads} threads"
        );
    }
}

#[test]
fn mu_sweep_output_is_byte_identical_at_1_2_and_8_threads() {
    let mut config = sweep_config();
    config.threads = 1;
    let reference = sweep_bytes(&config);
    for threads in [2, 8] {
        config.threads = threads;
        assert_eq!(
            sweep_bytes(&config),
            reference,
            "µ-sweep output drifted at {threads} threads"
        );
    }
}

#[test]
fn warm_cache_reproduces_cold_output_and_serves_every_cell() {
    let dir = TempDir::new("warm");
    let baseline = campaign_bytes(&campaign_config());

    let mut config = campaign_config();
    config.cache_dir = Some(dir.path());
    let cold = campaign_bytes(&config);
    assert_eq!(cold, baseline, "caching must not change the output");

    // Warm run: byte-identical again. Samples compare f64s exactly, so the
    // table/CSV equality proves the on-disk round-trip is bit-exact. (That
    // hits are *served* rather than recomputed is pinned separately by the
    // poisoning assertion in `no_resume_recomputes_…`.)
    let warm = campaign_bytes(&config);
    assert_eq!(warm, baseline, "warm-cache output drifted from cold");

    // The warm output must also hold at a different thread count: cache
    // state and pool width are independent axes.
    config.threads = 8;
    assert_eq!(campaign_bytes(&config), baseline);
}

#[test]
fn kill_and_resume_completes_a_partial_cache_dir() {
    let dir = TempDir::new("resume");
    let full = campaign_config();
    let baseline = campaign_bytes(&full);

    // Simulate an interrupted run: only the first data points (PTG count 2)
    // finished and were flushed before the "kill".
    let mut partial = full.clone();
    partial.ptg_counts = vec![2];
    partial.cache_dir = Some(dir.path());
    let _ = campaign_bytes(&partial);
    assert!(
        std::fs::read_dir(dir.path()).unwrap().count() > 0,
        "the interrupted run left flushed shards behind"
    );

    // Drop in debris a kill could leave: a stale temporary from mid-flush.
    std::fs::write(dir.path().join("shard-00.json.tmp"), "{\"version\":1,tr").unwrap();

    // The resumed full run completes the remaining cells and matches the
    // never-interrupted output byte-for-byte.
    let mut resumed = full.clone();
    resumed.cache_dir = Some(dir.path());
    assert_eq!(campaign_bytes(&resumed), baseline);
    assert!(
        !dir.path().join("shard-00.json.tmp").exists(),
        "stale temporaries are cleaned up on open"
    );
}

#[test]
fn no_resume_recomputes_and_corrupt_shards_degrade_gracefully() {
    let dir = TempDir::new("noresume");
    let full = campaign_config();
    let baseline = campaign_bytes(&full);

    let mut cached = full.clone();
    cached.cache_dir = Some(dir.path());
    let _ = campaign_bytes(&cached);

    // Prove warm cells are truly *served from disk*, not recomputed: poison
    // one cached makespan (keeping the shard valid JSON) and the poison must
    // surface in the warm output.
    let mut poisoned_one = false;
    for entry in std::fs::read_dir(dir.path()).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        if let Some(at) = text.find("\"makespan\":") {
            let start = at + "\"makespan\":".len();
            let end = start + text[start..].find(',').unwrap();
            let mut edited = text.clone();
            edited.replace_range(start..end, "1");
            std::fs::write(&path, edited).unwrap();
            poisoned_one = true;
            break;
        }
    }
    assert!(poisoned_one, "some shard holds a makespan to poison");
    assert_ne!(
        campaign_bytes(&cached),
        baseline,
        "a poisoned cell value must reach the output — hits are served, not verified"
    );

    // --no-resume: the store is cleared first, the run recomputes from
    // scratch, and the output matches again.
    cached.resume = false;
    assert_eq!(campaign_bytes(&cached), baseline);

    // Corrupt every shard in place (truncation). A resumed run must shrug
    // it off — damaged shards are ignored and recomputed — and still match.
    cached.resume = true;
    for entry in std::fs::read_dir(dir.path()).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 3]).unwrap();
    }
    assert_eq!(campaign_bytes(&cached), baseline);
}

#[test]
fn sweep_and_campaign_share_one_cache_directory() {
    // The cell format is shared: pointing both harnesses at one directory
    // must not corrupt either result.
    let dir = TempDir::new("shared");
    let campaign_baseline = campaign_bytes(&campaign_config());
    let sweep_baseline = sweep_bytes(&sweep_config());

    let mut campaign = campaign_config();
    campaign.cache_dir = Some(dir.path());
    let mut sweep = sweep_config();
    sweep.cache_dir = Some(dir.path());

    assert_eq!(campaign_bytes(&campaign), campaign_baseline);
    assert_eq!(sweep_bytes(&sweep), sweep_baseline);
    // Second pass, both warm.
    assert_eq!(campaign_bytes(&campaign), campaign_baseline);
    assert_eq!(sweep_bytes(&sweep), sweep_baseline);
}
