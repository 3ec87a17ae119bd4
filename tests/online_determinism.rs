//! Determinism and bounded-memory guarantees of the online scheduling
//! service (`mcsched-online`) and its campaign harness (`mcsched_exp::online`):
//!
//! * campaign tables and CSVs are **byte-for-byte identical** at 1, 2 and 8
//!   worker threads (cells are position-seeded and collected in index
//!   order);
//! * a re-run with the same seed reproduces the full report exactly,
//!   while a different seed diverges;
//! * an **overload** run (arrival rate far above sustainable) completes
//!   with a non-zero, reproducible shed count and a bounded pending queue;
//! * a run streaming 10⁵ jobs holds at most `max_in_flight` materialised
//!   PTGs at any moment — the bounded-memory contract of the lazy stream
//!   (stronger than the required `queue_cap + in_flight`).

use mcsched::exp::online::{csv_online, run_online_campaign, table_online, OnlineCampaign};
use mcsched::online::{report, OnlineConfig, OnlineScheduler, ReschedulePolicy};
use mcsched::prelude::*;
use std::sync::Arc;

fn source(lambda: f64, tasks: usize) -> Arc<dyn WorkloadSource> {
    Arc::new(
        GeneratorSource::new(AppGenerator::Daggen(DaggenConfig::new(tasks)))
            .with_arrival(ArrivalProcess::Poisson { lambda }),
    )
}

fn campaign(threads: usize) -> OnlineCampaign {
    let registry = PolicyRegistry::builtin();
    let mut campaign = OnlineCampaign::new(
        ["es", "s"]
            .iter()
            .map(|name| registry.constraint(name).unwrap())
            .collect(),
    );
    campaign.replications = 2;
    campaign.threads = threads;
    campaign.base.max_jobs = 25;
    campaign.base.queue_cap = 6;
    campaign.base.max_in_flight = 3;
    campaign
}

#[test]
fn campaign_bytes_are_identical_at_1_2_and_8_threads() {
    let platform = grid5000::lille();
    let source = source(0.02, 10);
    let runs: Vec<(String, String)> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let result = run_online_campaign(&platform, &source, &campaign(threads)).unwrap();
            (table_online(&result), csv_online(&result))
        })
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads");
    assert_eq!(runs[0], runs[2], "1 vs 8 threads");
    // The table carries real content, not a degenerate empty render.
    assert!(runs[0].0.contains("ES"));
    assert!(runs[0].1.lines().count() > 4);
}

#[test]
fn same_seed_reproduces_the_report_and_different_seeds_diverge() {
    let platform = grid5000::nancy();
    let source = source(0.01, 12);
    let config = OnlineConfig {
        max_jobs: 30,
        ..OnlineConfig::default()
    };
    let sched = OnlineScheduler::new(&platform, config.clone()).unwrap();
    let a = sched.run(source.as_ref()).unwrap();
    let b = sched.run(source.as_ref()).unwrap();
    assert_eq!(a, b, "same seed, same bytes");
    assert_eq!(
        report::csv_jobs(&a),
        report::csv_jobs(&b),
        "job CSVs compare every f64 exactly"
    );

    let other = OnlineScheduler::new(
        &platform,
        OnlineConfig {
            seed: config.seed + 1,
            ..config
        },
    )
    .unwrap()
    .run(source.as_ref())
    .unwrap();
    assert_ne!(a.jobs, other.jobs, "a different seed draws a different run");
}

#[test]
fn overload_completes_with_reproducible_sheds() {
    let platform = grid5000::lille();
    // ~1 job/s of 15-task PTGs is far above lille's sustainable rate.
    let source = source(1.0, 15);
    let config = OnlineConfig {
        max_jobs: 150,
        queue_cap: 5,
        max_in_flight: 2,
        ..OnlineConfig::default()
    };
    let sched = OnlineScheduler::new(&platform, config).unwrap();
    let a = sched.run(source.as_ref()).unwrap();
    let b = sched.run(source.as_ref()).unwrap();
    assert!(
        a.counters.shed > 0,
        "overload must shed (got {} arrivals, {} shed)",
        a.counters.arrivals,
        a.counters.shed
    );
    assert_eq!(a.counters.shed, b.counters.shed, "sheds are deterministic");
    assert_eq!(a, b);
    assert!(a.counters.peak_pending <= 5, "pending queue stays bounded");
    assert_eq!(
        a.counters.arrivals,
        a.counters.completed + a.counters.shed,
        "every arrival is either completed or shed"
    );
}

#[test]
fn hundred_thousand_streamed_jobs_run_in_bounded_memory() {
    let platform = grid5000::lille();
    // Single-task PTGs keep the debug-mode runtime tractable while still
    // exercising 10⁵ admission/completion/reschedule events end to end.
    let source = source(2.0, 1);
    let config = OnlineConfig {
        max_jobs: 100_000,
        queue_cap: 16,
        max_in_flight: 4,
        reschedule: ReschedulePolicy::OnCompletion,
        ..OnlineConfig::default()
    };
    let sched = OnlineScheduler::new(&platform, config).unwrap();
    let report = sched.run(source.as_ref()).unwrap();
    assert_eq!(report.counters.arrivals, 100_000);
    assert_eq!(
        report.counters.completed + report.counters.shed,
        100_000,
        "the stream drains"
    );
    assert!(
        report.counters.peak_resident <= 4,
        "at most max_in_flight PTGs materialised at once (got {})",
        report.counters.peak_resident
    );
    assert!(
        report.counters.peak_resident + report.counters.peak_pending <= 16 + 4,
        "stronger than the queue_cap + in_flight bound"
    );
    assert!(report.counters.completed > 0);
}
