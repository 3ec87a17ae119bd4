//! `mcsched-benchmark`: the repository's benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path mcsched-benchmark/Cargo.toml -- \
//!     --workload daggen-paper --seed 24301 --seconds 12 --trace 0
//! ```
//!
//! Runs one workload (see [`workload`]) in this process for `--seconds`
//! seconds, checks that the scheduler's outputs are correct, and prints two
//! JSON lines on stdout: a context record (host, iterations, set-up samples,
//! output digest), then the result
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics of untraced iterations;
//! `--trace 1` reports per-layer metrics from iterations repeated under the
//! benchmark's own span recorder (`--trace-out FILE` also writes the spans
//! as a Chrome trace). The exit code is 0 when every correctness gate
//! passed, 1 when one failed or the run errored, 2 on a usage error.
//!
//! `README.md` beside this package documents the workloads, the metrics and
//! how to compare two commits.

mod campaign;
mod host;
mod measure;
mod online;
mod replay;
mod span;
mod workload;

use mcsched_workload::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: mcsched-benchmark --workload <name> [--seed <u64>] \
[--seconds <n>] [--trace <0|1>] [--trace-out <file>] [--smoke]";

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 0x5EED;

#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
}

fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        smoke: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("flag `{flag}` expects a value"))?;
        let bad = || format!("flag `{flag}` got malformed value `{value}`");
        match flag.as_str() {
            "--workload" => opts.workload.clone_from(&value),
            "--seed" => opts.seed = parse_seed(&value).ok_or_else(bad)?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--trace-out" => opts.trace_out = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if opts.trace_out.is_some() && !opts.trace {
        return Err("--trace-out needs --trace 1".into());
    }
    Ok(opts)
}

/// A finished run, ready to print.
struct Report {
    context: Json,
    result: Json,
    correct: bool,
}

fn run(opts: &Options) -> Result<Report, String> {
    // Campaigns narrate cache summaries on stderr; keep it to errors.
    mcsched_obs::sink::set_quiet(true);
    let disabled_span_ns = host::obs_disabled_span_ns(1_000_000);
    let work = host::WorkDir::create()?;
    let (mut bench, unresolved) =
        workload::build(&opts.workload, opts.seed, opts.smoke, work.path())?;
    let outcome = if opts.trace {
        let tracer = span::Tracer::new(opts.trace_out.is_some());
        let outcome = measure::traced(bench.as_mut(), opts.seconds, &tracer, disabled_span_ns)?;
        if let Some(path) = &opts.trace_out {
            tracer
                .write_chrome_trace(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        outcome
    } else {
        measure::untraced(bench.as_mut(), opts.seconds)?
    };
    if let Some((name, value, _)) = outcome.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite ({value})"));
    }
    let correct = outcome.failed == 0;
    let context = Json::Obj(vec![
        ("workload".into(), Json::Str(opts.workload.clone())),
        ("seed".into(), Json::num_u64(opts.seed)),
        ("trace".into(), Json::Bool(opts.trace)),
        ("smoke".into(), Json::Bool(opts.smoke)),
        ("threads".into(), Json::num_usize(bench.threads())),
        ("iterations".into(), Json::num_u64(outcome.iterations)),
        (
            "setup_samples_s".into(),
            Json::Arr(
                outcome
                    .setup_samples
                    .iter()
                    .map(|&s| Json::num_f64(s))
                    .collect(),
            ),
        ),
        ("output_digest".into(), Json::Str(bench.output_digest())),
        (
            "notes".into(),
            Json::Obj(
                outcome
                    .notes
                    .iter()
                    .map(|&(name, value)| (name.to_string(), Json::num_f64(value)))
                    .collect(),
            ),
        ),
        (
            "unresolved".into(),
            unresolved.map_or(Json::Null, Json::Str),
        ),
        ("host".into(), host::host_json(disabled_span_ns)),
    ]);
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::num_u64(outcome.attempted)),
        ("failed".into(), Json::num_u64(outcome.failed)),
        (
            "metrics".into(),
            Json::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::num_f64(*value)),
                                ("unit".into(), Json::Str((*unit).into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    drop(bench);
    drop(work);
    Ok(Report {
        context,
        result,
        correct,
    })
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names = std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned());
    if let Some(var) = host::forbidden_env(names) {
        eprintln!("error: {var} is set; it changes what the scheduler does or records, unset it");
        return ExitCode::from(2);
    }
    match run(&opts) {
        Ok(report) => {
            println!("{}", report.context.render());
            println!("{}", report.result.render());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: a correctness gate failed");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests;
