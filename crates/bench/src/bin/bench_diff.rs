//! `mcsched-bench-diff` — compare a fresh `BENCH_*.json` against the
//! committed snapshot and report per-family timing deltas.
//!
//! ```sh
//! bench_runtime --smoke --json target/bench.json
//! mcsched-bench-diff BENCH_runtime.json target/bench.json --max-regress 15
//! ```
//!
//! Both files are parsed with the repo's own JSON parser; the result rows
//! (top-level `results` or `points` array) are keyed by their descriptive
//! fields — every string field plus the `threads`/`jobs`/`lambda` axes —
//! and the primary timing metric is compared: `mean_ms` where present,
//! else `per_execute_us.mean` (the simx engine snapshots), else `wall_s`
//! (the online λ-sweep). A positive delta means the candidate got slower.
//!
//! With `--max-regress <pct>` the exit status becomes a gate: any row
//! slower by more than the threshold exits non-zero (for CI this is run
//! report-only, since shared runners make wall-clock noisy). Rows present
//! on only one side are reported as added/removed, never failed on.
//!
//! Exit status: 0 ok, 1 regression past threshold, 2 usage/parse errors.

use mcsched_obs::json::Json;

const USAGE: &str = "usage: mcsched-bench-diff <baseline.json> <candidate.json> \
     [--max-regress <pct>]";

/// Numeric axes that distinguish result rows within a family (every
/// string-valued field is always part of the key).
const KEY_AXES: &[&str] = &["threads", "jobs", "lambda"];

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Descriptive identity of one result row: all string fields plus the
/// known numeric axes, in file order, as `field=value` pairs.
fn row_key(row: &Json) -> String {
    let Json::Obj(fields) = row else {
        return String::from("?");
    };
    let mut parts: Vec<String> = Vec::new();
    for (name, value) in fields {
        match value {
            Json::Str(s) => parts.push(format!("{name}={s}")),
            Json::Num(raw) if KEY_AXES.contains(&name.as_str()) => {
                parts.push(format!("{name}={raw}"));
            }
            _ => {}
        }
    }
    if parts.is_empty() {
        String::from("?")
    } else {
        parts.join(" ")
    }
}

/// The primary timing metric of a row: (value, unit).
fn row_metric(row: &Json) -> Option<(f64, &'static str)> {
    if let Some(v) = row.get("mean_ms").and_then(Json::as_f64) {
        return Some((v, "ms"));
    }
    if let Some(v) = row
        .get("per_execute_us")
        .and_then(|o| o.get("mean"))
        .and_then(Json::as_f64)
    {
        return Some((v, "us"));
    }
    if let Some(v) = row.get("wall_s").and_then(Json::as_f64) {
        return Some((v, "s"));
    }
    None
}

fn load(path: &str) -> Vec<(String, f64, &'static str)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read `{path}`: {e}")));
    let json = Json::parse(&text).unwrap_or_else(|e| fail(&format!("`{path}`: {e}")));
    let rows = json
        .get("results")
        .or_else(|| json.get("points"))
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail(&format!("`{path}`: no `results` or `points` array")));
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    for row in rows {
        if let Some((value, unit)) = row_metric(row) {
            out.push((row_key(row), value, unit));
        }
    }
    if out.is_empty() {
        fail(&format!(
            "`{path}`: no rows with a recognised timing metric"
        ));
    }
    out
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut max_regress: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-regress" => {
                let raw = it
                    .next()
                    .unwrap_or_else(|| fail(&format!("flag `{arg}` expects a value\n{USAGE}")));
                let pct: f64 = raw.parse().unwrap_or_else(|_| {
                    fail(&format!("flag `{arg}` expects a percentage, got `{raw}`"))
                });
                max_regress = Some(pct);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            flag if flag.starts_with("--") => fail(&format!("unknown flag `{flag}`\n{USAGE}")),
            path => paths.push(path.to_string()),
        }
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        fail(&format!(
            "expected exactly two files, got {}\n{USAGE}",
            paths.len()
        ));
    };
    let baseline = load(baseline_path);
    let candidate = load(candidate_path);

    let width = baseline
        .iter()
        .chain(&candidate)
        .map(|(k, _, _)| k.len())
        .max()
        .unwrap_or(0);
    println!(
        "{:<width$}  {:>12}  {:>12}  {:>8}",
        "row", "baseline", "candidate", "delta"
    );
    let mut regressions: Vec<(String, f64)> = Vec::new();
    for (key, base, unit) in &baseline {
        let Some((_, cand, _)) = candidate.iter().find(|(k, _, _)| k == key) else {
            println!(
                "{key:<width$}  {base:>10.3}{unit:<2}  {:>12}  {:>8}",
                "-", "gone"
            );
            continue;
        };
        let delta = if *base > 0.0 {
            (cand - base) / base * 100.0
        } else {
            0.0
        };
        println!("{key:<width$}  {base:>10.3}{unit:<2}  {cand:>10.3}{unit:<2}  {delta:>+7.1}%");
        if let Some(threshold) = max_regress {
            if delta > threshold {
                regressions.push((key.clone(), delta));
            }
        }
    }
    for (key, cand, unit) in &candidate {
        if !baseline.iter().any(|(k, _, _)| k == key) {
            println!(
                "{key:<width$}  {:>12}  {cand:>10.3}{unit:<2}  {:>8}",
                "-", "new"
            );
        }
    }
    if !regressions.is_empty() {
        let threshold = max_regress.unwrap_or(0.0);
        eprintln!(
            "regression: {} row(s) more than {threshold}% slower than {baseline_path}:",
            regressions.len()
        );
        for (key, delta) in &regressions {
            eprintln!("  {key}: {delta:+.1}%");
        }
        std::process::exit(1);
    }
}
