//! `workload`: generation of every built-in source spec (`generate`
//! family, `throughput` in workloads/s), the scenarios of the Fig-3
//! `daggen-grid` data points (`scenarios` family, `ptgs` applications
//! generated per run), and serialization and parsing of a ten-entry
//! `daggen-grid` trace (`serialize` and `parse` families, `throughput` in
//! MB/s, `trace_bytes` the document's size).

use mcsched_bench::ledger::{time, Args, Ledger};
use mcsched_exp::generate_scenarios_with;
use mcsched_obs::json::Json;
use mcsched_workload::{Trace, WorkloadCatalog, WorkloadRequest};

const APPS: usize = 8;
const SEED: u64 = 0x5EED;

pub fn run(args: &Args) -> Ledger {
    let iterations = args.iterations.unwrap_or(if args.smoke { 2 } else { 20 });
    let catalog = WorkloadCatalog::builtin();
    let mut ledger = Ledger::new(vec![
        ("iterations".into(), Json::num_usize(iterations)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("apps".into(), Json::num_usize(APPS)),
        ("seed".into(), Json::num_u64(SEED)),
    ]);

    for spec in [
        "random",
        "daggen@n=50,width=0.5",
        "daggen-grid",
        "fft@points=16",
        "strassen",
        "random+fft+strassen",
        "daggen-grid/poisson@lambda=0.01",
    ] {
        let source = catalog.resolve(spec).expect("built-in specs resolve");
        let request = WorkloadRequest::new(SEED, APPS, "bench");
        let row = time("generate", spec, iterations, || {
            source.generate(&request).expect("generation succeeds");
        });
        let throughput = 1.0 / row.mean_s();
        ledger.push(row.value("throughput", throughput));
    }

    // The Fig-3 grid: PTG counts 2-10, 5 combinations, each on every site.
    let source = catalog.resolve("daggen-grid").expect("spec resolves");
    let counts = [2, 4, 6, 8, 10];
    let combinations = 5;
    let row = time("scenarios", "daggen-grid", iterations, || {
        for n in counts {
            let scenarios = generate_scenarios_with(source.as_ref(), n, combinations, SEED)
                .expect("generation succeeds");
            std::hint::black_box(scenarios);
        }
    });
    let ptgs = counts.iter().sum::<usize>() * combinations;
    ledger.push(row.value("ptgs", ptgs as f64));

    let requests: Vec<WorkloadRequest> = (0..10)
        .map(|i| WorkloadRequest::new(SEED.wrapping_add(i), APPS, format!("t-{i}")))
        .collect();
    let trace = Trace::record(source.as_ref(), &requests, SEED).expect("recording succeeds");
    let json = trace.to_json();
    let mb = json.len() as f64 / 1e6;
    let serialize = time("serialize", "trace.to_json", iterations, || {
        std::hint::black_box(trace.to_json());
    });
    let parse = time("parse", "Trace::from_json", iterations, || {
        Trace::from_json(&json).expect("parsing succeeds");
    });
    for row in [serialize, parse] {
        let throughput = mb / row.mean_s();
        let row = row.value("throughput", throughput);
        ledger.push(row.value("trace_bytes", json.len() as f64));
    }
    ledger
}
