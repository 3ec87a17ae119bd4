//! The observability layer's two contracts:
//!
//! * **Tracing observes, never participates** — the figure tables and CSVs
//!   are byte-for-byte identical with tracing fully enabled or disabled, at
//!   1, 2 and 8 worker threads (every `f64` compared exactly through the
//!   rendered bytes);
//! * **Exports are valid and reproducible** — the Chrome trace parses as
//!   JSON with a non-empty, span-covered timeline; the JSONL journal (which
//!   deliberately drops wall-clock times and thread ids) is byte-identical
//!   across reruns of the same configuration; the online time-series CSV is
//!   bit-exact across runs at 8 threads.
//!
//! Each capture records into its own scoped collector, which the fan-out
//! carries into the campaign's tasks, so these tests need no lock: a
//! concurrent run in the same process (another test, or the online
//! campaign the isolation test starts on purpose) cannot leak into them.

use mcsched::core::PolicyRegistry;
use mcsched::exp::online::{run_online_campaign, OnlineCampaign};
use mcsched::exp::{csv_campaign, run_campaign, table_campaign, CampaignConfig};
use mcsched::obs::json::Json;
use mcsched::obs::{export, Collector, TraceDump};
use mcsched::platform::grid5000;
use mcsched::workload::{AppGenerator, WorkloadCatalog};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

/// Runs `f` with a fresh collector installed on the calling thread and
/// returns its result with everything the collector recorded.
fn traced<T>(f: impl FnOnce() -> T) -> (T, TraceDump) {
    let collector = Collector::new();
    let out = {
        let _installed = collector.install();
        f()
    };
    (out, collector.drain())
}

/// A small-but-not-trivial campaign exercising the full pipeline: 2 PTG
/// counts × 2 combinations × 4 platforms × 6 strategies.
fn campaign_config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        ptg_counts: vec![2, 4],
        combinations: 2,
        threads,
        ..CampaignConfig::quick(AppGenerator::Strassen)
    }
}

/// The rendered bytes every figure binary derives from a campaign.
fn campaign_bytes(threads: usize) -> (String, String) {
    let result = run_campaign(&campaign_config(threads)).expect("campaign runs");
    (table_campaign(&result), csv_campaign(&result))
}

/// The deterministic journal of the two-thread campaign.
fn journal() -> String {
    export::journal_jsonl(&traced(|| campaign_bytes(2)).1)
}

/// The online campaign of the 8-thread series test: per-epoch CSVs of two
/// strategies × two replications on eight pool threads.
fn online_series_at_8_threads() -> Vec<String> {
    let platform = grid5000::lille();
    let source = WorkloadCatalog::builtin()
        .resolve("daggen@n=8/poisson@lambda=0.01")
        .expect("built-in spec resolves");
    let registry = PolicyRegistry::builtin();
    let mut campaign = OnlineCampaign::new(
        ["es", "s"]
            .iter()
            .map(|name| registry.constraint(name).unwrap())
            .collect(),
    );
    campaign.replications = 2;
    campaign.threads = 8;
    campaign.base.max_jobs = 25;
    campaign.base.record_series = true;
    let result = run_online_campaign(&platform, &source, &campaign).expect("campaign runs");
    let mut csvs = Vec::new();
    for outcome in &result.outcomes {
        for report in &outcome.reports {
            assert_eq!(report.series.len() as u64, report.reschedules);
            csvs.push(report.series.to_csv());
        }
    }
    csvs
}

#[test]
fn figures_are_byte_identical_with_tracing_on_or_off() {
    let baseline = campaign_bytes(1);
    for threads in [1, 2, 8] {
        assert_eq!(
            traced(|| campaign_bytes(threads)).0,
            baseline,
            "tracing must not perturb figure bytes at {threads} threads"
        );
    }
}

#[test]
fn chrome_trace_is_valid_json_with_a_span_covered_timeline() {
    let (_, dump) = traced(|| campaign_bytes(2));
    let trace = export::chrome_trace(&dump);
    let doc = Json::parse(&trace).expect("chrome trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "the trace must record spans");
    // Every event carries the Chrome-trace envelope and a known phase tag.
    let mut begins = 0usize;
    let mut ends = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph tag");
        assert!(matches!(ph, "M" | "B" | "E"), "unknown phase {ph}");
        match ph {
            "B" => begins += 1,
            "E" => ends += 1,
            _ => {}
        }
        if ph != "M" {
            assert!(ev.get("ts").and_then(Json::as_f64).is_some());
            assert!(ev.get("name").and_then(Json::as_str).is_some());
        }
    }
    assert!(begins > 0, "span begins recorded");
    assert_eq!(begins, ends, "every span that opened also closed");
    // The instrumented pipeline names its phases in the timeline.
    for name in ["beta+alloc", "mapping", "simx-execute", "cell-eval"] {
        assert!(
            trace.contains(&format!("\"name\":\"{name}\"")),
            "trace names the `{name}` span"
        );
    }
}

#[test]
fn journal_is_reproducible_for_a_fixed_configuration() {
    let a = journal();
    let b = journal();
    assert!(!a.is_empty(), "the journal must record events");
    assert_eq!(a, b, "same configuration, same journal bytes");
    // Every line is a standalone JSON object and the file is sorted — the
    // deterministic-order contract the exporter claims.
    let lines: Vec<&str> = a.lines().collect();
    for line in &lines {
        let doc = Json::parse(line).expect("journal line parses");
        assert!(doc.get("event").and_then(Json::as_str).is_some());
        assert!(doc.get("name").and_then(Json::as_str).is_some());
    }
    let mut sorted = lines.clone();
    sorted.sort_unstable();
    assert_eq!(lines, sorted, "journal lines are sorted");
}

#[test]
fn journal_ignores_a_concurrent_uninstrumented_run() {
    let solo = journal();
    // The 8-thread online campaign runs back to back on a second thread,
    // with no collector, for the whole of the second capture.
    let (stop, (started, running)) = (AtomicBool::new(false), mpsc::channel());
    let concurrent = std::thread::scope(|scope| {
        scope.spawn(|| {
            started.send(()).expect("the test waits for the start");
            loop {
                assert!(!online_series_at_8_threads().is_empty());
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
        });
        running.recv().expect("online run started");
        let concurrent = journal();
        stop.store(true, Ordering::Relaxed);
        concurrent
    });
    let count = |journal: &str, name: &str| {
        let needle = format!("\"name\":\"{name}\"");
        journal.lines().filter(|l| l.contains(&needle)).count()
    };
    assert_eq!(
        count(&concurrent, "online-loop"),
        0,
        "no online spans leak in"
    );
    for name in ["beta+alloc", "mapping"] {
        assert_eq!(
            count(&concurrent, name),
            count(&solo, name),
            "`{name}` lines"
        );
    }
    assert_eq!(
        concurrent, solo,
        "a concurrent run must not change the journal"
    );
}

#[test]
fn online_series_is_bit_exact_across_runs_at_8_threads() {
    let a = online_series_at_8_threads();
    let b = online_series_at_8_threads();
    assert!(a.iter().all(|csv| csv.lines().count() > 1));
    assert_eq!(a, b, "per-epoch series must be bit-exact across runs");
}
