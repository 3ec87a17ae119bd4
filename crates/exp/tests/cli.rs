//! The `mcsched-exp` binary end to end: experiments print the committed
//! golden tables, a sharded campaign merges back into them through the
//! fleet tools, and command-line errors exit 2 naming the culprit.

use mcsched_obs::fleet::scan_fleet;
use mcsched_obs::RunPhase;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

/// Runs the binary with `MCSCHED_QUIET` set to `quiet`.
fn run(args: &[&str], quiet: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcsched-exp"))
        .args(args)
        .env("MCSCHED_QUIET", quiet)
        .output()
        .expect("the binary runs")
}

fn mcsched_exp(args: &[&str]) -> Output {
    run(args, "1")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn golden(name: &str) -> String {
    read(&Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden")).join(name))
}

fn stdout_of(args: &[&str]) -> String {
    success(mcsched_exp(args), args)
}

/// The stdout of a run that must succeed.
fn success(out: Output, args: &[&str]) -> String {
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn fig3_prints_the_golden_table() {
    let stdout = stdout_of(&["fig3"]);
    assert!(
        stdout.contains(&golden("fig3_random_quick.txt")),
        "{stdout}"
    );
}

#[test]
fn fig2_prints_the_golden_table() {
    let stdout = stdout_of(&["fig2"]);
    assert!(
        stdout.contains(&golden("fig2_mu_sweep_quick.txt")),
        "{stdout}"
    );
}

#[test]
fn online_runs_a_short_stream() {
    let stdout = stdout_of(&["online", "--jobs", "20"]);
    assert!(!stdout.is_empty());
}

#[test]
fn fig3_progress_narrates_data_points_in_grid_order() {
    let args = ["fig3", "--progress", "--threads", "2", "--ptgs", "2,4"];
    let out = run(&args, "0");
    assert!(out.status.success(), "{args:?} failed");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let progress: Vec<&str> = stderr
        .lines()
        .filter(|line| line.starts_with("progress["))
        .collect();
    assert_eq!(progress.len(), 2, "{stderr}");
    assert!(progress[0].contains("]: 1/2 ptgs=2 "), "{stderr}");
    assert!(progress[1].contains("]: 2/2 ptgs=4 "), "{stderr}");
}

/// Splits a command line on single spaces.
fn args(line: &str) -> Vec<&str> {
    line.split(' ').collect()
}

/// Runs the space-separated `line` plus `out_flag` naming a fresh scratch
/// path under the test target directory; returns stdout and the path.
fn writing(line: &str, out_flag: &str, name: &str) -> (String, PathBuf) {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    let mut args = args(line);
    args.extend([out_flag, path.to_str().expect("utf-8 path")]);
    (stdout_of(&args), path)
}

/// Two strategies, two replications, 20 jobs.
const ONLINE_SHORT: &str = "online --strategies es,s --replications 2 --jobs 20";

#[test]
fn online_prints_the_golden_tables() {
    assert_eq!(stdout_of(&["online"]), golden("online_default.txt"));
    let quick = "online --strategies es,s,ps-work,wps-work --replications 2 --jobs 40";
    let (stdout, csv) = writing(quick, "--csv", "online_quick.csv");
    assert_eq!(stdout, golden("online_quick.txt"));
    assert_eq!(read(&csv), golden("online_quick.csv"));
}

#[test]
fn online_writes_the_golden_series() {
    let (_, series) = writing(ONLINE_SHORT, "--obs-series", "online_series_quick.csv");
    assert_eq!(read(&series), golden("online_series_quick.csv"));
}

#[test]
fn online_campaign_writes_its_fleet_manifest() {
    let (_, dir) = writing(ONLINE_SHORT, "--obs-dir", "online_obs");
    let fleet = scan_fleet(&[dir]);
    assert!(fleet.errors.is_empty(), "{:?}", fleet.errors);
    assert_eq!(fleet.shards.len(), 1);
    let manifest = &fleet.shards[0].manifest;
    assert_eq!(manifest.label, "online:online");
    assert_eq!(manifest.phase, RunPhase::Done);
    // The fleet digest of this campaign, pinned byte for byte.
    assert_eq!(manifest.config_digest, "aee95b6ac750f03ce8809af4ba773750");
    let heartbeat = fleet.shards[0].heartbeat.as_ref().expect("a heartbeat");
    assert_eq!((heartbeat.cells_done, heartbeat.points_total), (4, 4));
}

#[test]
fn online_strategies_resolve_through_the_policy_registry() {
    let line = "online --strategies wps-work@0.5,equal-share --jobs 20";
    let stdout = stdout_of(&args(line));
    // Rows are labelled in a 12-wide column.
    for row in ["WPS-work", "ES"] {
        assert!(stdout.contains(&format!("\n{row:<12}")), "{stdout}");
    }
    // An unknown name fails exactly as it does for the figures.
    for experiment in ["online", "fig3"] {
        let out = mcsched_exp(&[experiment, "--strategies", "bogus"]);
        assert_eq!(out.status.code(), Some(2), "{experiment}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown constraint policy `bogus`"),
            "{experiment}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{experiment} ran anyway");
    }
}

#[test]
fn command_line_errors_exit_2_and_name_the_culprit() {
    for (args, culprit) in [
        (&["fig6"][..], "fig6"),
        (&["fig3", "--bogus"][..], "--bogus"),
        (&["table1", "--combinations", "3"][..], "--combinations"),
        (&["ablation-scrap", "--csv", "x"][..], "--csv"),
        (&["fig3", "--replications", "0"][..], "--replications"),
        (&["online", "--replications", "0"][..], "--replications"),
        (&["fig3", "foo"][..], "foo"),
        (&["merge", "no-such-shard"][..], "--into"),
        (
            &["merge", "--into", "never-written", "no-such-shard"][..],
            "no-such-shard",
        ),
        (&["top", "--stale-after", "nan", "obs"][..], "--stale-after"),
        (&["top", "--bogus", "obs"][..], "--bogus"),
        (&["obs-merge", "--dest", "x", "d"][..], "--dest"),
    ] {
        let out = mcsched_exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("`{culprit}`")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    for flag in ["--help", "-h"] {
        let stdout = stdout_of(&[flag]);
        assert!(
            stdout.starts_with("usage: mcsched-exp <command>"),
            "{stdout}"
        );
        assert!(stdout.contains("top [--snapshot | --watch]"), "{stdout}");
    }
    // Anywhere else it is a flag the command does not take.
    assert_eq!(mcsched_exp(&["top", "--help"]).status.code(), Some(2));
}

/// The sharded `fig3` fleet, run once per test binary: three shards with
/// their own cell caches, shards 0 and 1 exporting into `obs-a` and shard
/// 2 into `obs-b`. Returns the fleet's directory.
fn sharded_fig3() -> &'static Path {
    static FLEET: OnceLock<PathBuf> = OnceLock::new();
    FLEET.get_or_init(|| {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sharded_fig3");
        let _ = std::fs::remove_dir_all(&root);
        for (shard, obs) in [("0/3", "obs-a"), ("1/3", "obs-a"), ("2/3", "obs-b")] {
            let cache = root.join(format!("shard-{}", &shard[..1]));
            let obs = root.join(obs);
            let args = [
                "fig3",
                "--shard",
                shard,
                "--cache-dir",
                path(&cache),
                "--obs-dir",
                path(&obs),
            ];
            stdout_of(&args);
        }
        root
    })
}

fn path(path: &Path) -> &str {
    path.to_str().expect("utf-8 path")
}

#[test]
fn merged_shard_caches_render_the_golden_table() {
    let fleet = sharded_fig3();
    let shards = ["shard-0", "shard-1", "shard-2"].map(|s| fleet.join(s));
    let sources = shards.iter().map(|s| path(s));
    let into = fleet.join("merged");
    let args: Vec<&str> = ["merge", "--into", path(&into)]
        .into_iter()
        .chain(sources.clone())
        .collect();
    let summary = success(run(&args, "0"), &args);
    assert_eq!(
        summary,
        "merged 3 source dir(s): 128 cells (128 added, 0 duplicate(s), 0 skipped record(s))\n"
    );
    // `--quiet` silences the summary, as `MCSCHED_QUIET` does.
    let quiet_into = fleet.join("merged-quiet");
    let args: Vec<&str> = ["merge", "--quiet", "--into", path(&quiet_into)]
        .into_iter()
        .chain(sources)
        .collect();
    assert_eq!(success(run(&args, "0"), &args), "");
    for into in [&into, &quiet_into] {
        let warm = stdout_of(&["fig3", "--cache-dir", path(into)]);
        assert!(warm.starts_with(&golden("fig3_random_quick.txt")), "{warm}");
        assert_eq!(warm, stdout_of(&["fig3"]));
    }
}

#[test]
fn top_snapshot_is_identical_in_any_directory_order() {
    let fleet = sharded_fig3();
    let (a, b) = (fleet.join("obs-a"), fleet.join("obs-b"));
    let snapshot = stdout_of(&["top", "--snapshot", path(&a), path(&b)]);
    assert!(snapshot.contains("fleet: 3 shard(s)"), "{snapshot}");
    assert!(snapshot.contains("3 done"), "{snapshot}");
    assert_eq!(
        stdout_of(&["top", path(&b), "--snapshot", path(&a)]),
        snapshot
    );
    // A finished fleet ends the watch after its first frame.
    let watch = stdout_of(&["top", "--watch", "--interval", "0.1", path(&a), path(&b)]);
    assert_eq!(watch, format!("\x1b[2J\x1b[H{snapshot}"));
}

#[test]
fn obs_merge_is_identical_in_any_source_order() {
    let fleet = sharded_fig3();
    let (a, b) = (fleet.join("obs-a"), fleet.join("obs-b"));
    let merged = |into: &str, first: &Path, second: &Path| {
        let into = fleet.join(into);
        let stdout = stdout_of(&[
            "obs-merge",
            "--into",
            path(&into),
            path(first),
            path(second),
        ]);
        assert!(stdout.starts_with("merged 3 shard(s)"), "{stdout}");
        [
            "fleet.journal.jsonl",
            "fleet.metrics.json",
            "fleet.metrics.txt",
        ]
        .map(|f| read(&into.join(f)))
    };
    let ab = merged("fleet-ab", &a, &b);
    assert_eq!(merged("fleet-ba", &b, &a), ab);
    assert!(!ab[0].is_empty());
    assert!(ab[2].contains("simx.events"), "{}", ab[2]);
}
