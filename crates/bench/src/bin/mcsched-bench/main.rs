//! `mcsched-bench` — runs one benchmark family and writes its ledger, or
//! compares two ledgers (see the crate docs for the subcommands).
//!
//! ```sh
//! cargo run --release -p mcsched-bench -- simx --out BENCH_simx.json
//! cargo run --release -p mcsched-bench -- runtime --smoke --out fresh.json
//! cargo run --release -p mcsched-bench -- diff BENCH_runtime.json fresh.json --max-regress 15
//! ```

mod allocation;
mod mapping;
mod online;
mod policies;
mod runtime;
mod simx;
mod workload;

use mcsched_bench::ledger::{diff, Args, Ledger, USAGE};

fn fail(code: i32, message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(code);
}

fn main() {
    let args =
        Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| fail(2, &format!("{e}\n{USAGE}")));
    let ledger = match args.command.as_str() {
        "policies" => policies::run(&args),
        "workload" => workload::run(&args),
        "runtime" => runtime::run(&args),
        "simx" => simx::run(&args),
        "online" => online::run(&args),
        "mapping" => mapping::run(&args),
        "allocation" => allocation::run(&args),
        _ => return compare(&args),
    };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{}.json", args.command));
    std::fs::write(&out, ledger.render())
        .unwrap_or_else(|e| fail(1, &format!("cannot write `{out}`: {e}")));
    eprintln!("wrote {} rows to {out}", ledger.rows.len());
}

/// `diff`: prints the row-by-row report and exits 1 if a row regressed past
/// `--max-regress`.
fn compare(args: &Args) {
    let [baseline_path, candidate_path] = &args.files[..] else {
        unreachable!("the parser requires two files");
    };
    let load = |path: &str| Ledger::load(path).unwrap_or_else(|e| fail(2, &e));
    let (report, regressions) = diff(
        &load(baseline_path),
        &load(candidate_path),
        args.max_regress,
    );
    print!("{report}");
    if !regressions.is_empty() {
        eprintln!(
            "regression: {} row(s) more than {}% slower than {baseline_path}:",
            regressions.len(),
            args.max_regress.unwrap_or(0.0)
        );
        for (key, delta) in &regressions {
            eprintln!("  {key}: {delta:+.1}%");
        }
        std::process::exit(1);
    }
}
