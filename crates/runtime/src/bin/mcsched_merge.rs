//! `mcsched-merge` — union cell-cache directories into one.
//!
//! The collection step of a sharded campaign: N processes run with
//! `--shard i/N` and disjoint `--cache-dir`s, then one merge produces the
//! combined store a final warm (unsharded) run renders from:
//!
//! ```sh
//! mcsched-merge --into merged/ shard0/ shard1/ shard2/
//! ```
//!
//! Guarantees (see `mcsched_runtime::cache::merge_cache_dirs`):
//!
//! * **Salt/version checked** — a source shard written by different
//!   scheduling semantics (foreign `CACHE_SALT`) is a hard error, never
//!   silently dropped.
//! * **Conflict detecting** — the same digest with different metrics in
//!   two sources aborts the merge naming both files; nothing is written.
//! * **Deterministic** — the destination is rendered key-sorted, so
//!   merging a sharded campaign's disjoint caches yields a directory
//!   byte-identical to the one an unsharded run would have written, and
//!   re-running the merge is idempotent.
//!
//! An existing, non-empty `--into` directory acts as an implicit source
//! (merging *into* a partial cache works — e.g. pre-populating a re-shard
//! with a different N after a partial failure).
//!
//! Exit status: 0 on success, 1 on any merge error, 2 on usage errors.
//! `--obs-metrics <path>` exports the `cache.merge.*` counters (CI asserts
//! on them); `--quiet` silences the informational summary.

use mcsched_obs::ObsOptions;
use mcsched_runtime::cache::merge_cache_dirs;
use std::path::PathBuf;

const USAGE: &str = "usage: mcsched-merge --into <dest-dir> <source-dir>... \
     [--obs-metrics <path>] [--quiet]";

struct Options {
    into: PathBuf,
    sources: Vec<PathBuf>,
    obs: ObsOptions,
}

impl Options {
    fn from_env() -> Self {
        let mut into: Option<PathBuf> = None;
        let mut sources: Vec<PathBuf> = Vec::new();
        let mut obs = ObsOptions::default();
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next().unwrap_or_else(|| {
                    eprintln!("error: flag `{flag}` expects a value\n{USAGE}");
                    std::process::exit(2);
                })
            };
            match arg.as_str() {
                "--into" | "--dest" => into = Some(PathBuf::from(value(&arg))),
                "--obs-metrics" => obs.metrics = Some(PathBuf::from(value(&arg))),
                "--obs-trace" => obs.trace = Some(PathBuf::from(value(&arg))),
                "--obs-journal" => obs.journal = Some(PathBuf::from(value(&arg))),
                "--quiet" => obs.quiet = true,
                "--help" | "-h" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                flag if flag.starts_with("--") => {
                    eprintln!("error: unknown flag `{flag}`\n{USAGE}");
                    std::process::exit(2);
                }
                source => sources.push(PathBuf::from(source)),
            }
        }
        let Some(into) = into else {
            eprintln!("error: `--into <dest-dir>` is required\n{USAGE}");
            std::process::exit(2);
        };
        if sources.is_empty() {
            eprintln!("error: at least one source directory is required\n{USAGE}");
            std::process::exit(2);
        }
        Options {
            into,
            sources,
            obs: obs.or(ObsOptions::from_env()),
        }
    }
}

fn main() {
    let opts = Options::from_env();
    let obs = opts.obs.start();
    for source in &opts.sources {
        if !source.is_dir() {
            eprintln!("error: source `{}` is not a directory", source.display());
            std::process::exit(2);
        }
    }
    let outcome = merge_cache_dirs(&opts.sources, &opts.into);
    obs.finish();
    match outcome {
        Ok(report) => {
            println!("{}", report.summary());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
