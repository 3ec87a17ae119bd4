//! Execution traces produced by the engine.

use crate::job::JobId;
use mcsched_platform::ProcSet;
use serde::{Deserialize, Serialize};

/// Observed execution of one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job.
    pub job: JobId,
    /// Simulated start time (seconds).
    pub start: f64,
    /// Simulated completion time (seconds).
    pub finish: f64,
    /// Processors the job ran on.
    pub procs: ProcSet,
}

/// Observed execution of one transfer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferRecord {
    /// Index of the transfer in the workload.
    pub transfer: usize,
    /// Time at which the transfer was initiated (producer completion).
    pub start: f64,
    /// Time at which the data was fully delivered.
    pub finish: f64,
    /// Volume in bytes.
    pub bytes: f64,
}

/// Full trace of a simulated execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionTrace {
    /// Per-job records, indexed by [`JobId`].
    pub jobs: Vec<Option<JobRecord>>,
    /// Per-transfer records, indexed like the workload's transfer list.
    pub transfers: Vec<Option<TransferRecord>>,
}

impl ExecutionTrace {
    /// Completion time of the whole trace (max job finish time), 0 when the
    /// trace is empty.
    pub fn makespan(&self) -> f64 {
        self.jobs
            .iter()
            .flatten()
            .map(|r| r.finish)
            .fold(0.0, f64::max)
    }

    /// Completion time restricted to a subset of jobs (used to compute the
    /// per-application makespans of a concurrent run).
    pub fn makespan_of(&self, jobs: impl IntoIterator<Item = JobId>) -> f64 {
        jobs.into_iter()
            .filter_map(|j| self.jobs.get(j).and_then(|r| r.as_ref()))
            .map(|r| r.finish)
            .fold(0.0, f64::max)
    }

    /// Record of one job, if it ran.
    pub fn job(&self, job: JobId) -> Option<&JobRecord> {
        self.jobs.get(job).and_then(|r| r.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(job: JobId, start: f64, finish: f64, nprocs: usize) -> Option<JobRecord> {
        Some(JobRecord {
            job,
            start,
            finish,
            procs: ProcSet::contiguous(0, 0, nprocs),
        })
    }

    fn trace() -> ExecutionTrace {
        ExecutionTrace {
            jobs: vec![record(0, 0.0, 2.0, 2), record(1, 1.0, 5.0, 4), None],
            transfers: vec![],
        }
    }

    #[test]
    fn makespan_is_latest_finish() {
        assert_eq!(trace().makespan(), 5.0);
    }

    #[test]
    fn empty_trace_makespan_is_zero() {
        assert_eq!(ExecutionTrace::default().makespan(), 0.0);
    }

    #[test]
    fn makespan_of_subset() {
        let t = trace();
        assert_eq!(t.makespan_of([0]), 2.0);
        assert_eq!(t.makespan_of([0, 1]), 5.0);
        assert_eq!(t.makespan_of([2]), 0.0);
    }

    #[test]
    fn job_accessor() {
        let t = trace();
        assert!(t.job(0).is_some());
        assert!(t.job(2).is_none());
        assert!(t.job(9).is_none());
    }
}
