//! The `mcsched-exp` binary end to end: experiments print the committed
//! golden tables, and command-line errors exit 2 naming the culprit.

use mcsched_obs::fleet::scan_fleet;
use mcsched_obs::RunPhase;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn mcsched_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcsched-exp"))
        .args(args)
        .env("MCSCHED_QUIET", "1")
        .output()
        .expect("the binary runs")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn golden(name: &str) -> String {
    read(&Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden")).join(name))
}

fn stdout_of(args: &[&str]) -> String {
    let out = mcsched_exp(args);
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
