//! The `mcsched-exp` binary end to end: experiments print the committed
//! golden tables, and command-line errors exit 2 naming the culprit.

use std::path::Path;
use std::process::{Command, Output};

fn mcsched_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcsched-exp"))
        .args(args)
        .env("MCSCHED_QUIET", "1")
        .output()
        .expect("the binary runs")
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
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

#[test]
fn command_line_errors_exit_2_and_name_the_culprit() {
    for (args, culprit) in [
        (&["fig6"][..], "fig6"),
        (&["fig3", "--bogus"][..], "--bogus"),
        (&["table1", "--combinations", "3"][..], "--combinations"),
        (&["ablation-scrap", "--csv", "x"][..], "--csv"),
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
