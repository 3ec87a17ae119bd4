//! End-to-end tests of the benchmark at `--smoke` scale.

use super::*;
use crate::workload::NAMES;

fn smoke(workload: &str, trace: bool) -> Options {
    Options {
        workload: workload.into(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
        trace_out: None,
        smoke: true,
    }
}

/// `(end_to_end names, per_layer names, workload names)` of `BENCHMARK.json`.
fn declared() -> (Vec<String>, Vec<String>, Vec<String>) {
    let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let names = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect::<Vec<_>>(),
        _ => panic!("BENCHMARK.json has no `{key}` list"),
    };
    (names("end_to_end"), names("per_layer"), names("workloads"))
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("no metrics object"),
    }
}

#[test]
fn every_workload_emits_every_declared_metric_and_passes_its_gates() {
    let (end_to_end, per_layer, workloads) = declared();
    assert_eq!(workloads, NAMES);
    for name in NAMES {
        for (trace, declared) in [(false, &end_to_end), (true, &per_layer)] {
            let report = run(&smoke(name, trace)).unwrap();
            assert!(report.correct, "{name} trace={trace}: a gate failed");
            assert_eq!(
                report.result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{name} trace={trace}: the traced output differs from the untraced one"
            );
            assert_eq!(
                &metric_names(&report.result),
                declared,
                "{name} trace={trace}"
            );
        }
    }
}

#[test]
fn one_thread_two_threads_and_the_warm_replay_render_the_same_figure() {
    let digest = |name: &str| {
        let report = run(&smoke(name, false)).unwrap();
        let digest = report.context.get("output_digest").and_then(Json::as_str);
        digest.unwrap().to_string()
    };
    let one = digest("daggen-paper");
    assert!(!one.is_empty());
    assert_eq!(digest("daggen-paper-2t"), one);
    assert_eq!(digest("cache-merge-replay"), one);
}

#[test]
fn traced_runs_record_the_layers_they_drive() {
    let report = run(&smoke("daggen-paper", true)).unwrap();
    let value = |name: &str| {
        report
            .result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap()
    };
    for layer in ["core.allocation", "core.mapping", "simx", "workload"] {
        assert!(value(&format!("{layer}.share")) > 0.0, "{layer}");
        assert!(value(&format!("{layer}.calls")) > 0.0, "{layer}");
    }
    assert_eq!(value("online.calls"), 0.0);
    assert!(value("trace.coverage") > 0.5 && value("trace.coverage") <= 1.0);
}

#[test]
fn command_line_is_parsed_strictly() {
    let args = |v: &[&str]| parse(v.iter().map(|s| (*s).to_string()));
    let opts = args(&[
        "--workload",
        "online-steady",
        "--seed",
        "0x10",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(opts.seed, 16);
    assert!(opts.trace);
    assert_eq!(args(&["--workload", "x", "--seed", "7"]).unwrap().seed, 7);
    assert!(args(&["--seed", "1"]).is_err(), "workload is required");
    assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
    assert!(args(&["--workload", "x", "--seconds", "-1"]).is_err());
    assert!(args(&["--workload", "x", "--bogus", "1"]).is_err());
    assert!(args(&["--workload", "x", "--trace-out", "f"]).is_err());
    assert!(run(&smoke("no-such-workload", false)).is_err());
}
