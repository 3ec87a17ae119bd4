//! `online-steady`: the online service near its sustainable rate.
//!
//! A Poisson stream (λ = 0.05/s) of 15-task DAGGEN jobs arrives at lille;
//! the pending queue holds 16 jobs, 4 run at once, the equal-share pipeline
//! re-plans on every completion. Many small re-plans on one shared engine
//! use the core differently from the batch grid. An iteration is one run of
//! a stream of its own; an op is an arriving job, and a shed job is
//! admission policy, not a failure. The traced iteration can only wrap the
//! whole `OnlineScheduler::run`: the loop's inner calls are not public.

use crate::campaign::digest;
use crate::span::Tracer;
use crate::workload::{iteration_seed, Tally, Workload};
use mcsched_obs::metrics::{histogram, HistogramSnapshot};
use mcsched_online::{OnlineConfig, OnlineReport, OnlineScheduler, ReschedulePolicy};
use mcsched_platform::{grid5000, Platform};
use mcsched_workload::{StreamRequest, WorkloadCatalog, WorkloadSource};
use std::sync::Arc;
use std::time::Instant;

const SPEC: &str = "daggen@n=15/poisson@lambda=0.05";

/// How many times set-up draws the stream.
const SETUP_REPEATS: usize = 9;

/// The online-service benchmark.
pub struct OnlineBench {
    platform: Platform,
    source: Arc<dyn WorkloadSource>,
    config: OnlineConfig,
    /// The last untraced iteration's configuration and report.
    last: Option<(OnlineConfig, OnlineReport)>,
    extras: Vec<(&'static str, f64)>,
}

impl OnlineBench {
    /// Streams of `jobs` arrivals drawn from `seed`.
    ///
    /// # Errors
    ///
    /// When the stream spec does not resolve.
    pub fn new(seed: u64, jobs: usize) -> Result<Self, String> {
        Ok(Self {
            platform: grid5000::lille(),
            source: WorkloadCatalog::builtin()
                .resolve(SPEC)
                .map_err(|e| format!("workload spec `{SPEC}`: {e}"))?,
            config: OnlineConfig {
                seed,
                max_jobs: jobs,
                queue_cap: 16,
                max_in_flight: 4,
                reschedule: ReschedulePolicy::OnCompletion,
                ..OnlineConfig::default()
            },
            last: None,
            extras: Vec::new(),
        })
    }

    fn run_once(&self, config: &OnlineConfig) -> Result<OnlineReport, String> {
        OnlineScheduler::new(&self.platform, config.clone())
            .and_then(|scheduler| scheduler.run(self.source.as_ref()))
            .map_err(|e| e.to_string())
    }
}

/// `(arrivals, failed jobs)`: every job fails when arrivals do not equal
/// completed plus shed jobs, otherwise each job with a non-finite stretch.
fn check_report(report: &OnlineReport) -> (u64, u64) {
    let c = &report.counters;
    let failed = if c.arrivals == c.completed + c.shed {
        report
            .jobs
            .iter()
            .filter(|j| !j.stretch.is_finite())
            .count() as u64
    } else {
        c.arrivals
    };
    (c.arrivals, failed)
}

/// The 90th-percentile bucket bound of the samples `after` added to
/// `before`.
fn p90_between(before: &HistogramSnapshot, after: &HistogramSnapshot) -> u64 {
    HistogramSnapshot {
        count: after.count - before.count,
        sum: after.sum.wrapping_sub(before.sum),
        buckets: std::array::from_fn(|i| after.buckets[i] - before.buckets[i]),
    }
    .quantile_upper_bound(0.9)
}

impl Workload for OnlineBench {
    fn threads(&self) -> usize {
        1
    }

    /// Draws and materialises the first iteration's stream: the inputs the
    /// scheduler then draws again, lazily, as they arrive.
    fn setup(&mut self) -> Result<Vec<f64>, String> {
        let request = StreamRequest::new(self.config.seed, self.config.label.clone());
        (0..SETUP_REPEATS)
            .map(|_| {
                let start = Instant::now();
                let mut stream = self.source.stream(&request).map_err(|e| e.to_string())?;
                for _ in 0..self.config.max_jobs {
                    let arrival = stream.next_arrival().ok_or("the stream ended early")?;
                    std::hint::black_box(stream.materialize(&arrival));
                }
                Ok(start.elapsed().as_secs_f64())
            })
            .collect()
    }

    fn run(&mut self, k: u64) -> Result<Tally, String> {
        let config = OnlineConfig {
            seed: iteration_seed(self.config.seed, k),
            ..self.config.clone()
        };
        let depth = histogram("online.queue_depth").snapshot();
        let start = Instant::now();
        let report = self.run_once(&config)?;
        let wall = start.elapsed().as_secs_f64();
        if k == 0 {
            let p90 = p90_between(&depth, &histogram("online.queue_depth").snapshot());
            self.extras = vec![
                ("online.reschedules", report.reschedules as f64),
                ("online.queue_depth.p90", p90 as f64),
                ("online.virtual.mean_stretch", report.mean_stretch()),
                ("online.virtual.shed_rate", report.shed_rate()),
                ("online.virtual.utilization", report.utilization),
            ];
        }
        let (arrivals, failed) = check_report(&report);
        let completed = report.counters.completed.saturating_sub(failed);
        self.last = Some((config, report));
        Ok(Tally {
            attempted: arrivals,
            failed,
            completed,
            wall_s: wall,
        })
    }

    fn run_traced(&mut self, tracer: &Tracer) -> Result<Tally, String> {
        let (config, untraced) = self.last.as_ref().ok_or("run_traced before run")?;
        let start = Instant::now();
        let report = tracer.span("online", || self.run_once(config))?;
        let wall = start.elapsed().as_secs_f64();
        let (arrivals, mut failed) = check_report(&report);
        if report != *untraced {
            failed = arrivals;
        }
        Ok(Tally {
            attempted: arrivals,
            failed,
            completed: report.counters.completed.saturating_sub(failed),
            wall_s: wall,
        })
    }

    fn output_digest(&self) -> String {
        self.last
            .as_ref()
            .map(|(_, report)| digest(&mcsched_online::report::csv_jobs(report)))
            .unwrap_or_default()
    }

    fn extras(&self) -> Vec<(&'static str, f64)> {
        self.extras.clone()
    }
}
