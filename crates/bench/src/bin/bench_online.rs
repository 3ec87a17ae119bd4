//! Times the online scheduling service across an arrival-rate sweep and
//! writes the measurements as machine-readable JSON: for each λ, the wall
//! clock of a full streamed run plus the open-system outcomes (throughput
//! in jobs per virtual kilosecond, mean stretch, shed rate). The sustainable
//! rate is where the shed rate leaves zero.
//!
//! ```sh
//! cargo run --release -p mcsched-bench --bin bench_online -- \
//!     --jobs 400 --out BENCH_online.json
//! ```
//!
//! `--smoke` shrinks the sweep for CI while keeping the determinism gate:
//! every point is run twice and the two reports must compare equal.

use mcsched_obs::json::Json;
use mcsched_online::{OnlineConfig, OnlineScheduler, ReschedulePolicy};
use mcsched_platform::grid5000;
use mcsched_workload::WorkloadCatalog;
use std::time::Instant;

struct Options {
    jobs: usize,
    seed: u64,
    smoke: bool,
    out: String,
}

impl Options {
    fn from_env() -> Self {
        let mut opts = Options {
            jobs: 400,
            seed: 0x5EED,
            smoke: false,
            out: "BENCH_online.json".to_string(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--jobs" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        opts.jobs = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        opts.seed = v;
                    }
                }
                "--smoke" => opts.smoke = true,
                "--out" => {
                    if let Some(v) = it.next() {
                        opts.out = v;
                    }
                }
                other => eprintln!("warning: ignoring unknown argument `{other}`"),
            }
        }
        if opts.smoke {
            opts.jobs = opts.jobs.min(60);
        }
        opts.jobs = opts.jobs.max(10);
        opts
    }
}

/// Rounds to `digits` decimals so the snapshot stays diff-friendly.
fn rounded(v: f64, digits: i32) -> Json {
    let scale = 10f64.powi(digits);
    Json::num_f64((v * scale).round() / scale)
}

fn main() {
    let opts = Options::from_env();
    let platform = grid5000::lille();
    let lambdas: &[f64] = if opts.smoke {
        &[0.02, 0.5]
    } else {
        &[0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
    };
    eprintln!(
        "bench_online: λ sweep {lambdas:?} on lille, {} jobs per point{}",
        opts.jobs,
        if opts.smoke { " (smoke)" } else { "" }
    );

    let catalog = WorkloadCatalog::builtin();
    let mut points: Vec<Json> = Vec::new();
    for &lambda in lambdas {
        let source = catalog
            .resolve(&format!("daggen@n=15/poisson@lambda={lambda}"))
            .expect("built-in spec resolves");
        let config = OnlineConfig {
            seed: opts.seed,
            max_jobs: opts.jobs,
            queue_cap: 16,
            max_in_flight: 4,
            reschedule: ReschedulePolicy::OnCompletion,
            ..OnlineConfig::default()
        };
        let scheduler = OnlineScheduler::new(&platform, config).expect("config is valid");
        let start = Instant::now();
        let report = scheduler.run(source.as_ref()).expect("the run drains");
        let wall_s = start.elapsed().as_secs_f64();
        // Determinism gate: the same configuration reproduces the run
        // byte-for-byte (every f64 compared exactly through PartialEq).
        let again = scheduler.run(source.as_ref()).expect("the re-run drains");
        assert_eq!(report, again, "online run must be deterministic");

        let wall_jobs_s = report.counters.completed as f64 / wall_s.max(1e-9);
        eprintln!(
            "λ={lambda:<6} wall {:7.3} s ({wall_jobs_s:9.1} jobs/s)  \
             virt {:9.3} jobs/ks  stretch {:7.3}  shed {:5.3}",
            wall_s,
            report.throughput(),
            report.mean_stretch(),
            report.shed_rate()
        );
        points.push(Json::Obj(vec![
            ("lambda".into(), Json::num_f64(lambda)),
            ("arrivals".into(), Json::num_u64(report.counters.arrivals)),
            ("completed".into(), Json::num_u64(report.counters.completed)),
            ("shed".into(), Json::num_u64(report.counters.shed)),
            ("wall_s".into(), rounded(wall_s, 4)),
            ("wall_jobs_per_s".into(), rounded(wall_jobs_s, 2)),
            (
                "virtual_jobs_per_ks".into(),
                rounded(report.throughput(), 3),
            ),
            ("mean_stretch".into(), rounded(report.mean_stretch(), 4)),
            ("shed_rate".into(), rounded(report.shed_rate(), 4)),
            ("utilization".into(), rounded(report.utilization, 4)),
            ("reschedules".into(), Json::num_u64(report.reschedules)),
        ]));
    }

    let doc = Json::Obj(vec![
        ("jobs".into(), Json::num_usize(opts.jobs)),
        ("seed".into(), Json::num_u64(opts.seed)),
        ("smoke".into(), Json::Bool(opts.smoke)),
        ("platform".into(), Json::Str("lille".into())),
        ("host".into(), mcsched_bench::host::host_json()),
        ("points".into(), Json::Arr(points)),
    ]);
    let mut out = doc.render();
    out.push('\n');
    match std::fs::write(&opts.out, &out) {
        Ok(()) => eprintln!("wrote {}", opts.out),
        Err(e) => {
            eprintln!("error: cannot write `{}`: {e}", opts.out);
            std::process::exit(1);
        }
    }
}
