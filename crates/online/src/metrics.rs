//! Open-system metrics of an online run.
//!
//! Batch figures measure *fairness at a snapshot*; an open system is judged
//! by how it treats a job over its lifetime and how it degrades under load:
//!
//! * **response time** `completion − arrival`;
//! * **stretch** `response / M_own` — how many times its dedicated-platform
//!   makespan the job waited (≥ 1 would be ideal-dedicated; large stretch =
//!   starved);
//! * **slowdown** `M_own / response` — the paper's fairness ratio carried
//!   over per job (1 = dedicated performance, → 0 = starved);
//! * **shed rate**, **queue depth over time** and **utilisation** — the
//!   backpressure picture.

use mcsched_obs::TimeSeries;
use mcsched_stats::Samples;

/// Column names of [`OnlineReport::series`], in order: virtual time of the
/// epoch, pending-queue depth, resident-set size, cumulative utilisation
/// and cumulative shed rate at that instant.
pub const SERIES_COLUMNS: [&str; 5] = [
    "time",
    "queue_depth",
    "resident",
    "utilization",
    "shed_rate",
];

/// The lifecycle record of one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Stream index of the job (its name is `{label}-{index}`).
    pub index: u64,
    /// Arrival (release) time, seconds of virtual time.
    pub arrival: f64,
    /// Completion time, seconds of virtual time.
    pub completion: f64,
    /// `completion − arrival`.
    pub response: f64,
    /// Dedicated-platform makespan `M_own` (β = 1, whole platform).
    pub dedicated: f64,
    /// `response / dedicated` (∞-safe: dedicated is > 0 for real PTGs).
    pub stretch: f64,
    /// `M_own / response`, clamped like the batch fairness ratio.
    pub slowdown: f64,
}

/// Admission-control and backpressure counters of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionCounters {
    /// Jobs the stream released inside the observation window.
    pub arrivals: u64,
    /// Jobs promoted into the resident (scheduled) set.
    pub admitted: u64,
    /// Jobs shed by the bounded pending queue.
    pub shed: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Largest pending-queue depth observed.
    pub peak_pending: usize,
    /// Largest number of simultaneously materialised (resident) PTGs —
    /// the bounded-memory claim is `peak_resident ≤ max_in_flight`.
    pub peak_resident: usize,
}

/// Everything one online run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineReport {
    /// Human-readable run identity (policy / λ / seed), set by the driver.
    pub name: String,
    /// Per-job outcomes in completion order.
    pub jobs: Vec<JobOutcome>,
    /// Admission and backpressure counters.
    pub counters: AdmissionCounters,
    /// Virtual time of the last event.
    pub elapsed: f64,
    /// Time-weighted average pending-queue depth.
    pub avg_queue_depth: f64,
    /// Busy processor-seconds committed by completed jobs.
    pub busy_proc_seconds: f64,
    /// `busy_proc_seconds / (total platform processors × elapsed)`.
    ///
    /// Each job's busy time comes from the last plan it completed under;
    /// plans of different reschedule epochs re-plan residents from their
    /// original arrival times and may therefore overlap in virtual time, so
    /// values above 1 are possible under the virtual-restart model — most
    /// visibly for the selfish strategy (every plan claims the whole
    /// platform) and under overload (many short epochs). Compare values
    /// within a run configuration, not against an absolute 100% ceiling.
    pub utilization: f64,
    /// Number of pipeline reschedules performed.
    pub reschedules: u64,
    /// One row per rescheduling epoch ([`SERIES_COLUMNS`]), recorded only
    /// when [`crate::OnlineConfig::record_series`] is set; empty otherwise.
    /// Values are virtual-time quantities, so the rendered CSV is bit-exact
    /// across runs.
    pub series: TimeSeries,
}

impl OnlineReport {
    /// Completed jobs per 1000 seconds of virtual time (0 when nothing
    /// elapsed).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.elapsed > 0.0 {
            self.counters.completed as f64 / self.elapsed * 1000.0
        } else {
            0.0
        }
    }

    /// Shed jobs as a fraction of arrivals (0 when nothing arrived).
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        if self.counters.arrivals > 0 {
            self.counters.shed as f64 / self.counters.arrivals as f64
        } else {
            0.0
        }
    }

    /// The per-job stretch values as a raw-retaining sample set.
    fn stretch_samples(&self) -> Samples {
        Samples::from(self.jobs.iter().map(|j| j.stretch).collect::<Vec<_>>())
    }

    /// Mean per-job stretch (NaN-free: 0 when no job completed).
    #[must_use]
    pub fn mean_stretch(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            self.stretch_samples().mean()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> OnlineReport {
        let jobs = vec![
            JobOutcome {
                index: 0,
                arrival: 0.0,
                completion: 10.0,
                response: 10.0,
                dedicated: 5.0,
                stretch: 2.0,
                slowdown: 0.5,
            },
            JobOutcome {
                index: 1,
                arrival: 5.0,
                completion: 25.0,
                response: 20.0,
                dedicated: 5.0,
                stretch: 4.0,
                slowdown: 0.25,
            },
        ];
        OnlineReport {
            name: "t".into(),
            jobs,
            counters: AdmissionCounters {
                arrivals: 4,
                admitted: 2,
                shed: 2,
                completed: 2,
                peak_pending: 2,
                peak_resident: 2,
            },
            elapsed: 25.0,
            avg_queue_depth: 0.5,
            busy_proc_seconds: 100.0,
            utilization: 0.2,
            reschedules: 4,
            series: TimeSeries::default(),
        }
    }

    #[test]
    fn derived_rates_are_consistent() {
        let r = report();
        assert!((r.throughput() - 80.0).abs() < 1e-12);
        assert!((r.shed_rate() - 0.5).abs() < 1e-12);
        assert!((r.mean_stretch() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_reports_avoid_nan() {
        let mut r = report();
        r.jobs.clear();
        r.counters = AdmissionCounters::default();
        r.elapsed = 0.0;
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.shed_rate(), 0.0);
        assert_eq!(r.mean_stretch(), 0.0);
    }
}
