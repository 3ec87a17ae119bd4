//! Times the `mcsched-workload` subsystem — generation throughput of every
//! built-in source spec and trace (de)serialization throughput — and writes
//! the measurements as machine-readable JSON.
//!
//! ```sh
//! cargo run --release -p mcsched-bench --bin bench_workload -- \
//!     --iterations 20 --apps 8 --out BENCH_workload.json
//! ```

use mcsched_obs::json::Json;
use mcsched_workload::{Trace, WorkloadCatalog, WorkloadRequest};
use std::time::Instant;

struct Options {
    iterations: usize,
    apps: usize,
    seed: u64,
    out: String,
}

impl Options {
    fn from_env() -> Self {
        let mut opts = Options {
            iterations: 20,
            apps: 8,
            seed: 0x5EED,
            out: "BENCH_workload.json".to_string(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--iterations" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        opts.iterations = v;
                    }
                }
                "--apps" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        opts.apps = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        opts.seed = v;
                    }
                }
                "--out" => {
                    if let Some(v) = it.next() {
                        opts.out = v;
                    }
                }
                other => eprintln!("warning: ignoring unknown argument `{other}`"),
            }
        }
        opts.iterations = opts.iterations.max(1);
        opts.apps = opts.apps.max(1);
        opts
    }
}

struct Measurement {
    kind: &'static str,
    name: String,
    mean_ms: f64,
    min_ms: f64,
    max_ms: f64,
    /// Kind-specific throughput: workloads/s for generation, MB/s for
    /// serialization.
    throughput: f64,
}

fn time<F: FnMut()>(iterations: usize, mut f: F) -> (f64, f64, f64) {
    f(); // warm-up outside the measurement
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    for _ in 0..iterations {
        let start = Instant::now();
        f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        total += ms;
        min = min.min(ms);
        max = max.max(ms);
    }
    (total / iterations as f64, min, max)
}

/// Rounds to `digits` decimals so the snapshot stays diff-friendly.
fn rounded(v: f64, digits: i32) -> Json {
    let scale = 10f64.powi(digits);
    Json::num_f64((v * scale).round() / scale)
}

fn main() {
    let opts = Options::from_env();
    let catalog = WorkloadCatalog::builtin();
    let mut measurements: Vec<Measurement> = Vec::new();

    // Generation throughput of every built-in spec shape.
    let specs = [
        "random",
        "daggen@n=50,width=0.5",
        "daggen-grid",
        "fft@points=16",
        "strassen",
        "random+fft+strassen",
        "daggen-grid/poisson@lambda=0.01",
    ];
    for spec in specs {
        let source = catalog.resolve(spec).expect("built-in specs resolve");
        let request = WorkloadRequest::new(opts.seed, opts.apps, "bench");
        let (mean_ms, min_ms, max_ms) = time(opts.iterations, || {
            let _ = source.generate(&request).expect("generation succeeds");
        });
        let throughput = 1e3 / mean_ms;
        eprintln!(
            "{:>12} {spec:<34} mean {mean_ms:8.3} ms ({throughput:8.1} workloads/s)",
            "generate"
        );
        measurements.push(Measurement {
            kind: "generate",
            name: spec.to_string(),
            mean_ms,
            min_ms,
            max_ms,
            throughput,
        });
    }

    // Trace serialization / parsing throughput over a realistic trace.
    let source = catalog.resolve("daggen-grid").expect("spec resolves");
    let requests: Vec<WorkloadRequest> = (0..10)
        .map(|i| WorkloadRequest::new(opts.seed.wrapping_add(i), opts.apps, format!("t-{i}")))
        .collect();
    let trace = Trace::record(source.as_ref(), &requests, opts.seed).expect("recording succeeds");
    let json = trace.to_json();
    let mb = json.len() as f64 / 1e6;

    let (mean_ms, min_ms, max_ms) = time(opts.iterations, || {
        let _ = trace.to_json();
    });
    eprintln!(
        "{:>12} {:<34} mean {mean_ms:8.3} ms ({:8.1} MB/s)",
        "serialize",
        "trace.to_json",
        mb / (mean_ms / 1e3)
    );
    measurements.push(Measurement {
        kind: "serialize",
        name: "trace.to_json".to_string(),
        mean_ms,
        min_ms,
        max_ms,
        throughput: mb / (mean_ms / 1e3),
    });

    let (mean_ms, min_ms, max_ms) = time(opts.iterations, || {
        let _ = Trace::from_json(&json).expect("parsing succeeds");
    });
    eprintln!(
        "{:>12} {:<34} mean {mean_ms:8.3} ms ({:8.1} MB/s)",
        "parse",
        "Trace::from_json",
        mb / (mean_ms / 1e3)
    );
    measurements.push(Measurement {
        kind: "parse",
        name: "Trace::from_json".to_string(),
        mean_ms,
        min_ms,
        max_ms,
        throughput: mb / (mean_ms / 1e3),
    });

    // Machine-readable output through the workload crate's JSON writer (the
    // offline workspace has no serde_json).
    let results: Vec<Json> = measurements
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("kind".into(), Json::Str(m.kind.into())),
                ("name".into(), Json::Str(m.name.clone())),
                ("mean_ms".into(), rounded(m.mean_ms, 4)),
                ("min_ms".into(), rounded(m.min_ms, 4)),
                ("max_ms".into(), rounded(m.max_ms, 4)),
                ("throughput".into(), rounded(m.throughput, 2)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("iterations".into(), Json::num_usize(opts.iterations)),
        ("apps".into(), Json::num_usize(opts.apps)),
        ("seed".into(), Json::num_u64(opts.seed)),
        ("trace_bytes".into(), Json::num_usize(json.len())),
        ("results".into(), Json::Arr(results)),
    ]);
    let mut out = doc.render();
    out.push('\n');

    match std::fs::write(&opts.out, &out) {
        Ok(()) => println!("wrote {} measurements to {}", measurements.len(), opts.out),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", opts.out);
            std::process::exit(1);
        }
    }
}
