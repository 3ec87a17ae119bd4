//! CSV rendering of one online run.
//!
//! Same contract as the batch harness renderers: a pure function of the
//! report, so equal reports produce byte-equal text — the determinism tests
//! compare these bytes directly. Campaign tables live with the campaign
//! harness in `mcsched-exp`.

use crate::metrics::OnlineReport;
use std::fmt::Write as _;

/// Renders the per-job lifecycle records of one run as CSV
/// (`index,arrival,completion,response,dedicated,stretch,slowdown`).
#[must_use]
pub fn csv_jobs(report: &OnlineReport) -> String {
    let mut out = String::from("index,arrival,completion,response,dedicated,stretch,slowdown\n");
    for j in &report.jobs {
        let _ = writeln!(
            out,
            "{},{:.3},{:.3},{:.3},{:.3},{:.6},{:.6}",
            j.index, j.arrival, j.completion, j.response, j.dedicated, j.stretch, j.slowdown
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{AdmissionCounters, JobOutcome};

    fn report() -> OnlineReport {
        OnlineReport {
            name: "ES/on-arrival".into(),
            jobs: vec![JobOutcome {
                index: 0,
                arrival: 0.0,
                completion: 12.5,
                response: 12.5,
                dedicated: 10.0,
                stretch: 1.25,
                slowdown: 0.8,
            }],
            counters: AdmissionCounters {
                arrivals: 2,
                admitted: 1,
                shed: 1,
                completed: 1,
                peak_pending: 1,
                peak_resident: 1,
            },
            elapsed: 12.5,
            avg_queue_depth: 0.2,
            busy_proc_seconds: 40.0,
            utilization: 0.1,
            reschedules: 3,
            series: Default::default(),
        }
    }

    #[test]
    fn job_csv_has_header_plus_one_row_per_job() {
        let csv = csv_jobs(&report());
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("index,arrival,"));
        assert!(csv.contains("0,0.000,12.500,12.500,10.000,1.250000,0.800000"));
    }
}
