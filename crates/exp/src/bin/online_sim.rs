//! Open-system experiment: streams PTG arrivals through the event-driven
//! online scheduler and reports open-system metrics (stretch, shed rate,
//! queue depth, utilisation) per constraint strategy.
//!
//! Unlike the figure binaries, which evaluate closed snapshots, this driver
//! exercises `mcsched_online`: a bounded pending queue with deterministic
//! shedding, pluggable reschedule policies, and lazily materialised jobs —
//! the peak number of in-memory PTGs is `--in-flight` however many jobs
//! stream through.
//!
//! Flags (same conventions as the figure binaries; malformed numerics exit
//! with status 2):
//!
//! * `--workload SPEC` — catalog spec, e.g. `daggen@n=20/poisson@lambda=0.02`;
//! * `--platform NAME` — `lille`, `nancy`, `rennes` or `sophia`;
//! * `--jobs N` / `--duration SECS` — observation window (whichever closes
//!   the stream first);
//! * `--queue-cap N` / `--in-flight N` — admission bounds;
//! * `--reschedule P` — `on-arrival`, `on-completion` or `quantum=SECS`;
//! * `--admission P` — `drop-newest` or `drop-oldest`;
//! * `--strategies a,b,c` — paper strategy names (`s,es,ps-cp,wps-width,...`);
//! * `--replications N` — independent streams per strategy (paired verdicts
//!   are printed when at least two strategies run);
//! * `--threads N` / `--seed S` / `--csv PATH` / `--profile`;
//! * `--obs-trace PATH` / `--obs-journal PATH` / `--obs-metrics PATH` /
//!   `--obs-dir PATH` / `--quiet` — observability exports, as in the figure
//!   binaries (environment equivalents `MCSCHED_OBS_*` / `MCSCHED_QUIET`);
//!   `--obs-dir` additionally records a run manifest + heartbeat for
//!   `mcsched-top`, refreshed per completed (strategy, replication) cell;
//! * `--obs-series PATH` (env `MCSCHED_OBS_SERIES`) — turn on the per-epoch
//!   virtual-time recorder and write one CSV row per rescheduling epoch of
//!   every (strategy, replication) run:
//!   `strategy,replication,time,queue_depth,resident,utilization,shed_rate`.
//!   Virtual-time quantities only, so the file is bit-exact across reruns
//!   at any `--threads` count.

use mcsched_core::ConstraintStrategy;
use mcsched_online::{run_campaign, AdmissionPolicy, CampaignSpec, ReschedulePolicy};
use mcsched_platform::{grid5000, Platform};
use mcsched_stats::BootstrapConfig;
use mcsched_workload::WorkloadCatalog;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Renders the per-epoch series of every campaign run as one flat CSV
/// (column names shared with [`mcsched_online::SERIES_COLUMNS`], prefixed
/// by the run identity).
fn series_csv(result: &mcsched_online::CampaignResult) -> String {
    let mut out = String::from("strategy,replication");
    for column in mcsched_online::SERIES_COLUMNS {
        let _ = write!(out, ",{column}");
    }
    out.push('\n');
    for outcome in &result.outcomes {
        for (rep, report) in outcome.reports.iter().enumerate() {
            for row in report.series.rows() {
                let _ = write!(out, "{},{rep}", outcome.strategy.name());
                for v in row {
                    let _ = write!(out, ",{v}");
                }
                out.push('\n');
            }
        }
    }
    out
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next()
        .unwrap_or_else(|| fail(&format!("flag `{flag}` expects a value")))
}

fn numeric<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse()
        .unwrap_or_else(|_| fail(&format!("flag `{flag}` expects a number, got `{raw}`")))
}

fn platform(name: &str) -> Platform {
    match name {
        "lille" => grid5000::lille(),
        "nancy" => grid5000::nancy(),
        "rennes" => grid5000::rennes(),
        "sophia" => grid5000::sophia(),
        other => fail(&format!(
            "unknown platform `{other}` (expected lille, nancy, rennes or sophia)"
        )),
    }
}

fn strategy(name: &str) -> ConstraintStrategy {
    let want = name.trim().to_ascii_lowercase();
    ConstraintStrategy::paper_set()
        .into_iter()
        .find(|s| s.name().to_ascii_lowercase() == want)
        .unwrap_or_else(|| {
            fail(&format!(
                "unknown strategy `{name}` (expected one of {})",
                ConstraintStrategy::paper_set()
                    .iter()
                    .map(|s| s.name().to_ascii_lowercase())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
}

fn main() {
    let mut workload = String::from("daggen@n=20/poisson@lambda=0.02");
    let mut site = String::from("lille");
    let mut strategies = vec![ConstraintStrategy::EqualShare];
    let mut spec = CampaignSpec::new(Vec::new());
    spec.replications = 1;
    spec.base.max_jobs = 200;
    let mut csv: Option<String> = None;
    let mut obs = mcsched_obs::ObsOptions::default();
    let mut series: Option<PathBuf> = None;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = value(&mut it, &arg),
            "--platform" => site = value(&mut it, &arg),
            "--jobs" => spec.base.max_jobs = numeric(&arg, &value(&mut it, &arg)),
            "--duration" => spec.base.max_time = numeric(&arg, &value(&mut it, &arg)),
            "--queue-cap" => spec.base.queue_cap = numeric(&arg, &value(&mut it, &arg)),
            "--in-flight" => spec.base.max_in_flight = numeric(&arg, &value(&mut it, &arg)),
            "--reschedule" => {
                spec.base.reschedule = ReschedulePolicy::parse(&value(&mut it, &arg))
                    .unwrap_or_else(|e| fail(&e.to_string()));
            }
            "--admission" => {
                spec.base.admission = AdmissionPolicy::parse(&value(&mut it, &arg))
                    .unwrap_or_else(|e| fail(&e.to_string()));
            }
            "--strategies" => {
                strategies = value(&mut it, &arg).split(',').map(strategy).collect();
            }
            "--replications" => spec.replications = numeric(&arg, &value(&mut it, &arg)),
            "--threads" => spec.threads = numeric(&arg, &value(&mut it, &arg)),
            "--seed" => spec.base.seed = numeric(&arg, &value(&mut it, &arg)),
            "--csv" => csv = Some(value(&mut it, &arg)),
            "--profile" => obs.profile = true,
            "--quiet" => obs.quiet = true,
            "--obs-trace" => obs.trace = Some(PathBuf::from(value(&mut it, &arg))),
            "--obs-journal" => obs.journal = Some(PathBuf::from(value(&mut it, &arg))),
            "--obs-metrics" => obs.metrics = Some(PathBuf::from(value(&mut it, &arg))),
            "--obs-dir" => obs.dir = Some(PathBuf::from(value(&mut it, &arg))),
            "--obs-series" => series = Some(PathBuf::from(value(&mut it, &arg))),
            other => eprintln!("warning: ignoring unknown argument `{other}`"),
        }
    }
    obs = obs.or(mcsched_obs::ObsOptions::from_env());
    let run = obs.start();
    if series.is_none() {
        series = std::env::var_os("MCSCHED_OBS_SERIES")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from);
    }
    spec.base.record_series = series.is_some();
    spec.obs_dir = obs.dir.clone();
    spec.strategies = strategies;
    spec.bootstrap = BootstrapConfig::seeded(spec.base.seed ^ 0xB007);

    let platform = platform(&site);
    let source = WorkloadCatalog::builtin()
        .resolve(&workload)
        .unwrap_or_else(|e| fail(&e.to_string()));
    mcsched_obs::note!(
        "online_sim: {} on {site}, {} jobs / {} s window, queue {} / in-flight {}, \
         {} x {} replications ({}, {})",
        workload,
        spec.base.max_jobs,
        spec.base.max_time,
        spec.base.queue_cap,
        spec.base.max_in_flight,
        spec.strategies.len(),
        spec.replications,
        spec.base.reschedule.spec(),
        spec.base.admission.spec(),
    );

    let result = run_campaign(&platform, &source, &spec).unwrap_or_else(|e| fail(&e.to_string()));
    print!("{}", mcsched_online::report::table_campaign(&result));
    if let Some(path) = csv {
        let text = mcsched_online::report::csv_campaign(&result);
        if let Err(e) = std::fs::write(&path, text) {
            fail(&format!("cannot write CSV to `{path}`: {e}"));
        }
        mcsched_obs::note!("wrote {path}");
    }
    if let Some(path) = series {
        if let Err(e) = std::fs::write(&path, series_csv(&result)) {
            fail(&format!(
                "cannot write series CSV to `{}`: {e}",
                path.display()
            ));
        }
        mcsched_obs::note!("obs: time series written to {}", path.display());
    }
    run.finish();
}
