//! The committed `BENCH_*.json` ledgers and the `mcsched-bench` command
//! line: every family has a ledger that parses under the one schema and
//! names its host, `diff` of each ledger against itself reports +0.0% on
//! every row and exits 0, and a bad command line exits 2 naming the
//! culprit.

use mcsched_bench::ledger::{Ledger, COMMANDS};
use std::path::PathBuf;
use std::process::{Command, Output};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `BENCH_<family>.json` at the repository root, for every family.
fn ledger_paths() -> Vec<String> {
    let families = COMMANDS.iter().filter(|&&c| c != "diff");
    let paths = families.map(|f| root().join(format!("BENCH_{f}.json")));
    paths.map(|p| p.to_string_lossy().into_owned()).collect()
}

fn bench(args: &[&str]) -> Output {
    let mut bench = Command::new(env!("CARGO_BIN_EXE_mcsched-bench"));
    bench.args(args).output().expect("mcsched-bench runs")
}

#[test]
fn every_committed_ledger_parses_and_names_its_host() {
    let entries = std::fs::read_dir(root()).expect("the repository root is readable");
    let names = entries.map(|e| e.expect("entry").file_name().to_string_lossy().into_owned());
    let ledgers = names.filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"));
    assert_eq!(
        ledgers.count(),
        ledger_paths().len(),
        "one ledger per family"
    );
    for path in ledger_paths() {
        let ledger = Ledger::load(&path).expect("the ledger parses");
        assert!(!ledger.rows.is_empty(), "{path}: no rows");
        let host = |key: &str| ledger.host.iter().any(|(k, _)| k == key);
        assert!(
            host("available_parallelism") && host("os") && host("arch"),
            "{path}"
        );
        assert!(ledger
            .rows
            .iter()
            .all(|r| r.samples >= 1 && r.min_ms <= r.max_ms));
    }
}

#[test]
fn diff_of_each_ledger_against_itself_is_zero_on_every_row() {
    for path in ledger_paths() {
        let out = bench(&["diff", &path, &path, "--max-regress", "0"]);
        assert_eq!(out.status.code(), Some(0), "{path}: diff failed");
        let report = String::from_utf8(out.stdout).expect("UTF-8 report");
        let rows = Ledger::load(&path).expect("the ledger parses").rows.len();
        let lines: Vec<&str> = report.lines().skip(1).collect();
        assert_eq!(lines.len(), rows, "{path}: one report line per row");
        assert!(
            lines.iter().all(|l| l.ends_with("+0.0%")),
            "{path}: {report}"
        );
    }
}

#[test]
fn a_bad_command_line_exits_2_and_names_the_culprit() {
    let ledger = &ledger_paths()[0];
    for (args, culprit) in [
        (&["simx", "--iterations", "abc"][..], "--iterations"),
        (&["online", "--iterations"], "--iterations"),
        (&["policies", "--apps", "8"], "--apps"),
        (&["bench_runtime"], "bench_runtime"),
        (&["diff", ledger, "missing.json"], "missing.json"),
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(culprit), "{args:?}: {stderr}");
    }
}
