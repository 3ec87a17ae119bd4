//! # mcsched-obs
//!
//! Observability for the whole mcsched pipeline: structured tracing,
//! a process-wide metrics registry, and exporters that turn both into
//! artefacts you can open, diff and plot. Everything the scheduler, the
//! runtime and the online service previously reported through ad-hoc
//! `eprintln!` lines and a flat profile table now flows through this crate.
//!
//! Four pillars:
//!
//! * [`mod@span`] — span-based structured tracing: [`span!`] opens a
//!   named, field-carrying span guard that records into the scoped
//!   [`Collector`] installed on the current thread (the runtime's fan-out
//!   carries it into the run's tasks), and only while one is. There is no
//!   process-wide tracing switch; with no collector a `span!` site costs
//!   one thread-local read and a branch;
//! * [`metrics`] — a process-wide registry of named [`metrics::Counter`]s,
//!   [`metrics::Gauge`]s and log-scale [`metrics::Histogram`]s
//!   (fan-out tasks, cache hits, events per simulation, grants per
//!   allocation, …), registered once via [`counter!`]/[`gauge!`]/
//!   [`histogram!`] and snapshotted atomically into a sorted table or CSV;
//! * [`export`] — Chrome-trace/Perfetto JSON for span timelines, a
//!   deterministically ordered JSONL event journal, and the metrics
//!   summary, written by [`ObsRun::finish`] behind the binaries'
//!   `--obs-trace` / `--obs-journal` / `--obs-metrics` flags (env
//!   equivalents `MCSCHED_OBS_TRACE` / `MCSCHED_OBS_JOURNAL` /
//!   `MCSCHED_OBS_METRICS`);
//! * [`phase`] + [`series`] + [`sink`] — the per-phase wall-clock report
//!   (`--profile` / `MCSCHED_PROFILE=1`: the collector's span totals for
//!   the pipeline phases, in a fixed order and byte format), a
//!   virtual-time [`series::TimeSeries`] recorder for the online service,
//!   and the one process-wide stderr [`note!`] sink all informational
//!   lines go through (silenced wholesale by `--quiet` /
//!   `MCSCHED_QUIET=1`).
//!
//! Underneath them sits [`json`], the workspace's one JSON codec: these
//! exporters, the fleet manifests and metrics snapshots, the workload
//! traces, the runtime's cache shards and the `BENCH_*.json` snapshots all
//! read and write through it. This crate has no dependencies, so every
//! other crate can reach the codec.
//!
//! ## Determinism contract
//!
//! Tracing observes; it never participates. No RNG is touched, no output
//! stream is shared with the figure tables, and every recorded field is a
//! pure function of the work item — so figures are byte-identical with
//! tracing fully enabled or disabled at any thread count, and the JSONL
//! journal (which deliberately carries no wall-clock times or thread ids)
//! is byte-identical across runs of the same configuration whichever thread
//! ran each task. Wall-clock attribution lives only in the Chrome trace, which
//! is inherently run-specific.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod export;
pub mod fleet;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod phase;
pub mod series;
pub mod sink;
pub mod span;

pub use manifest::{Heartbeat, RunManifest, RunPhase, RunRecorder};
pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot};
pub use series::TimeSeries;
pub use span::{
    disable_tracing, tracing_enabled, Collector, CollectorGuard, Event, EventKind, FieldValue,
    SpanGuard, SpanTotal, ThreadEvents, TraceDump,
};

use std::path::PathBuf;

/// The observability configuration of one process run: where (if
/// anywhere) to write the Chrome trace, the JSONL journal and the metrics
/// summary, whether to print the phase report, and whether the stderr sink
/// is quiet. Binaries parse their `--obs-*`/`--profile`/`--quiet` flags
/// into this, fall back to the environment ([`ObsOptions::from_env`]),
/// then bracket the run with [`ObsOptions::start`] and [`ObsRun::finish`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsOptions {
    /// Chrome-trace (Perfetto-loadable) JSON output path (`--obs-trace`).
    pub trace: Option<PathBuf>,
    /// Deterministic JSONL event-journal output path (`--obs-journal`).
    pub journal: Option<PathBuf>,
    /// Metrics summary output path (`--obs-metrics`); a `.csv` extension
    /// selects CSV, anything else the aligned text table.
    pub metrics: Option<PathBuf>,
    /// Fleet obs directory (`--obs-dir`): the run writes its manifest and
    /// heartbeat there while running (see [`mod@manifest`]) and its
    /// per-shard journal + metrics JSON exports at the end, named
    /// `run-<shard>.*` so any number of shards can share one directory.
    pub dir: Option<PathBuf>,
    /// File-name shard label of the `run-<shard>.*` artefacts under
    /// [`ObsOptions::dir`] (defaults to `0of1`; the CLI layer sets it from
    /// `--shard`).
    pub run: Option<String>,
    /// Print the per-phase timing report to stderr at the end of the run
    /// (`--profile`, `MCSCHED_PROFILE`).
    pub profile: bool,
    /// Silence the informational stderr sink (`--quiet`).
    pub quiet: bool,
}

impl ObsOptions {
    /// Reads the environment equivalents of the CLI flags:
    /// `MCSCHED_OBS_TRACE`, `MCSCHED_OBS_JOURNAL`, `MCSCHED_OBS_METRICS`,
    /// `MCSCHED_OBS_DIR` (paths), and `MCSCHED_PROFILE`, `MCSCHED_QUIET`
    /// (on when set to anything but `0`/empty).
    #[must_use]
    pub fn from_env() -> Self {
        let path = |key: &str| {
            std::env::var_os(key)
                .filter(|v| !v.is_empty())
                .map(PathBuf::from)
        };
        let flag = |key: &str| matches!(std::env::var(key), Ok(v) if !v.is_empty() && v != "0");
        Self {
            trace: path("MCSCHED_OBS_TRACE"),
            journal: path("MCSCHED_OBS_JOURNAL"),
            metrics: path("MCSCHED_OBS_METRICS"),
            dir: path("MCSCHED_OBS_DIR"),
            run: None,
            profile: flag("MCSCHED_PROFILE"),
            quiet: flag("MCSCHED_QUIET"),
        }
    }

    /// Fills every unset field from `fallback` (CLI flags take precedence
    /// over the environment).
    #[must_use]
    pub fn or(mut self, fallback: Self) -> Self {
        self.trace = self.trace.or(fallback.trace);
        self.journal = self.journal.or(fallback.journal);
        self.metrics = self.metrics.or(fallback.metrics);
        self.dir = self.dir.or(fallback.dir);
        self.run = self.run.or(fallback.run);
        self.profile = self.profile || fallback.profile;
        self.quiet = self.quiet || fallback.quiet;
        self
    }

    /// Starts the run's instrumentation on the calling thread: configures
    /// the stderr sink and, when anything consumes spans, installs a
    /// collector (keeping the event log only for exports, so `--profile`
    /// alone stays bounded in memory). Keep the returned [`ObsRun`] for the
    /// whole run and end it with [`ObsRun::finish`].
    #[must_use]
    pub fn start(&self) -> ObsRun {
        if self.quiet {
            sink::set_quiet(true);
        }
        let keeps_events = self.trace.is_some() || self.journal.is_some() || self.dir.is_some();
        let collector = if keeps_events {
            Some(Collector::new())
        } else if self.profile {
            Some(Collector::totals_only())
        } else {
            None
        };
        ObsRun {
            installed: collector.as_ref().map(Collector::install),
            collector,
            options: self.clone(),
        }
    }

    /// File-name stem of this run's fleet artefacts (`run-<shard>`).
    #[must_use]
    pub fn run_stem(&self) -> String {
        manifest::run_stem(self.run.as_deref().unwrap_or("0of1"))
    }
}

/// A started run (see [`ObsOptions::start`]): holds the run's collector
/// installed on the starting thread.
#[derive(Debug)]
pub struct ObsRun {
    options: ObsOptions,
    collector: Option<Collector>,
    installed: Option<CollectorGuard>,
}

impl ObsRun {
    /// Ends the run: uninstalls its collector, prints the phase report
    /// when profiling, and writes every requested artefact. Failures
    /// degrade to a `warning:` line on stderr (observability must never
    /// fail a run); successful writes are narrated through the sink.
    pub fn finish(mut self) {
        drop(self.installed.take());
        let opts = &self.options;
        if let (true, Some(collector)) = (opts.profile, &self.collector) {
            phase::report(&collector.totals());
        }
        let dump = self.collector.as_ref().map(Collector::drain);
        let write = |path: &PathBuf, what: &str, text: String| match std::fs::write(path, text) {
            Ok(()) => crate::note!("obs: {what} written to {}", path.display()),
            Err(e) => eprintln!("warning: obs: could not write {} ({e})", path.display()),
        };
        if let (Some(path), Some(dump)) = (&opts.trace, dump.as_ref()) {
            write(path, "chrome trace", export::chrome_trace(dump));
        }
        if let (Some(path), Some(dump)) = (&opts.journal, dump.as_ref()) {
            write(path, "event journal", export::journal_jsonl(dump));
        }
        if let Some(path) = &opts.metrics {
            let snapshot = metrics::snapshot();
            let text = if path.extension().is_some_and(|e| e == "csv") {
                snapshot.render_csv()
            } else {
                snapshot.render_table()
            };
            write(path, "metrics summary", text);
        }
        if let Some(dir) = &opts.dir {
            // Per-shard fleet exports: the deterministic journal and the
            // JSON metrics snapshot `mcsched-exp obs-merge` unions.
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("warning: obs: cannot create {} ({e})", dir.display());
                return;
            }
            let stem = opts.run_stem();
            if let Some(dump) = dump.as_ref() {
                write(
                    &dir.join(format!("{stem}.journal.jsonl")),
                    "shard journal",
                    export::journal_jsonl(dump),
                );
            }
            write(
                &dir.join(format!("{stem}.metrics.json")),
                "shard metrics",
                metrics::snapshot().render_json(),
            );
        }
    }
}

/// Serializes tests that touch the process-global metrics registry or
/// stderr sink (the harness runs tests in parallel threads).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_merge_prefers_self() {
        let flags = ObsOptions {
            trace: Some(PathBuf::from("/a")),
            ..ObsOptions::default()
        };
        let env = ObsOptions {
            trace: Some(PathBuf::from("/b")),
            journal: Some(PathBuf::from("/j")),
            quiet: true,
            ..ObsOptions::default()
        };
        let merged = flags.or(env);
        assert_eq!(merged.trace, Some(PathBuf::from("/a")));
        assert_eq!(merged.journal, Some(PathBuf::from("/j")));
        assert!(merged.quiet);
    }

    #[test]
    fn start_installs_a_collector_only_when_spans_are_consumed() {
        ObsOptions::default().start().finish();
        let run = ObsOptions {
            profile: true,
            ..ObsOptions::default()
        }
        .start();
        {
            let _span = span!("mapping");
        }
        let collector = Collector::current().expect("profiling collects");
        run.finish();
        assert!(!tracing_enabled(), "finish uninstalls the collector");
        assert_eq!(collector.totals()[0].calls, 1);
        assert!(collector.drain().threads.is_empty(), "no event log kept");
    }
}
