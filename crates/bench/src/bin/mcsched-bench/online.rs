//! `online`: the online scheduling service across an arrival-rate sweep on
//! Lille (15-task DAGGEN graphs, Poisson arrivals, 400 jobs per point; 60
//! and two rates with `--smoke`). A row times one streamed run; its values
//! are the open-system outcomes: `arrivals`, `completed`, `shed`,
//! `reschedules`, `throughput` in jobs per virtual kilosecond,
//! `mean_stretch`, `shed_rate`, `utilization`, and `jobs_per_s` of wall
//! time. The sustainable rate is where the shed rate leaves zero.
//!
//! Determinism gate: every run of a point, the warm-up included, must
//! return a report equal (every `f64` exactly) to the first.

use mcsched_bench::ledger::{time, Args, Ledger};
use mcsched_obs::json::Json;
use mcsched_online::{OnlineConfig, OnlineScheduler, ReschedulePolicy};
use mcsched_platform::grid5000;
use mcsched_workload::WorkloadCatalog;

const SEED: u64 = 0x5EED;

pub fn run(args: &Args) -> Ledger {
    let iterations = args.iterations.unwrap_or(3);
    let jobs = if args.smoke { 60 } else { 400 };
    let lambdas: &[f64] = if args.smoke {
        &[0.02, 0.5]
    } else {
        &[0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
    };
    let platform = grid5000::lille();
    let mut ledger = Ledger::new(vec![
        ("iterations".into(), Json::num_usize(iterations)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("jobs".into(), Json::num_usize(jobs)),
        ("seed".into(), Json::num_u64(SEED)),
        ("platform".into(), Json::Str(platform.name().into())),
    ]);

    let catalog = WorkloadCatalog::builtin();
    for &lambda in lambdas {
        let source = catalog
            .resolve(&format!("daggen@n=15/poisson@lambda={lambda}"))
            .expect("built-in spec resolves");
        let config = OnlineConfig {
            seed: SEED,
            max_jobs: jobs,
            queue_cap: 16,
            max_in_flight: 4,
            reschedule: ReschedulePolicy::OnCompletion,
            ..OnlineConfig::default()
        };
        let scheduler = OnlineScheduler::new(&platform, config).expect("config is valid");
        let mut reports = Vec::new();
        let case = format!("lambda={lambda}");
        let row = time("daggen@n=15/poisson", case, iterations, || {
            reports.push(scheduler.run(source.as_ref()).expect("the run drains"));
        });
        let report = &reports[0];
        assert!(
            reports.iter().all(|again| again == report),
            "online run at lambda={lambda} must be deterministic"
        );
        let completed = report.counters.completed as f64;
        let jobs_per_s = completed / row.mean_s();
        let row = row
            .value("arrivals", report.counters.arrivals as f64)
            .value("completed", completed)
            .value("shed", report.counters.shed as f64)
            .value("reschedules", report.reschedules as f64)
            .value("throughput", report.throughput())
            .value("mean_stretch", report.mean_stretch())
            .value("shed_rate", report.shed_rate())
            .value("utilization", report.utilization)
            .value("jobs_per_s", jobs_per_s);
        ledger.push(row);
    }
    ledger
}
