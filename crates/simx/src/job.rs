//! Workload description consumed by the simulation engine.
//!
//! A [`SimWorkload`] is the *already scheduled* view of a set of PTGs: each
//! task has become a [`SimJob`] with a fixed processor set, a duration on
//! that set (computed upstream from the Amdahl model) and a priority
//! reflecting the order in which the mapping step considered it. Precedence
//! and data movement between tasks are described by [`SimTransfer`]s.

use crate::error::SimError;
use mcsched_platform::{Platform, ProcSet};
use serde::{Deserialize, Serialize};

/// Identifier of a job: its index in [`SimWorkload::jobs`].
pub type JobId = usize;

/// One schedulable unit: a data-parallel task pinned to a processor set.
///
/// A job carries no label: the scheduler that built the workload knows which
/// task each [`JobId`] stands for (see `TaskPlacement::job` in the core
/// crate), and the engine only needs the fields below.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimJob {
    /// Processors reserved for the job. This is the only copy of the set:
    /// schedulers refer to it through the job's identifier.
    pub procs: ProcSet,
    /// Execution time on `procs`, in seconds.
    pub duration: f64,
    /// Earliest time at which the job may start (submission time of its
    /// application).
    pub release_time: f64,
    /// Dispatch priority: when several ready jobs contend for processors the
    /// one with the *smallest* priority value starts first. Ties are broken
    /// by job identifier.
    pub priority: u64,
}

impl SimJob {
    /// Convenience constructor with release time 0.
    pub fn new(procs: ProcSet, duration: f64, priority: u64) -> Self {
        Self {
            procs,
            duration,
            release_time: 0.0,
            priority,
        }
    }
}

/// A data transfer (and precedence constraint) between two jobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimTransfer {
    /// Producing job.
    pub from: JobId,
    /// Consuming job: it cannot start before the transfer completes.
    pub to: JobId,
    /// Volume in bytes.
    pub bytes: f64,
}

/// A complete workload: jobs plus the transfers connecting them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimWorkload {
    /// The jobs, indexed by [`JobId`].
    pub jobs: Vec<SimJob>,
    /// The transfers between jobs.
    pub transfers: Vec<SimTransfer>,
}

impl SimWorkload {
    /// Creates an empty workload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a job and returns its identifier.
    pub fn add_job(&mut self, job: SimJob) -> JobId {
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    /// Adds a transfer between two jobs.
    pub fn add_transfer(&mut self, from: JobId, to: JobId, bytes: f64) {
        self.transfers.push(SimTransfer { from, to, bytes });
    }

    /// Validates the workload against a platform.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidProcSet`] — empty set, unknown cluster or
    ///   processor index out of range;
    /// * [`SimError::InvalidDuration`] — negative or non-finite duration;
    /// * [`SimError::InvalidReleaseTime`] — non-finite release time (a
    ///   finite negative one is released at time 0);
    /// * [`SimError::UnknownJob`] — a transfer endpoint does not exist;
    /// * [`SimError::DependencyCycle`] — the transfer graph is cyclic.
    pub fn validate(&self, platform: &Platform) -> Result<(), SimError> {
        for (id, job) in self.jobs.iter().enumerate() {
            if job.procs.is_empty() {
                return Err(SimError::InvalidProcSet {
                    job: id,
                    reason: "empty processor set".into(),
                });
            }
            let cluster =
                platform
                    .cluster(job.procs.cluster())
                    .map_err(|_| SimError::InvalidProcSet {
                        job: id,
                        reason: format!("unknown cluster {}", job.procs.cluster()),
                    })?;
            if let Some(max) = job.procs.iter().max() {
                if max >= cluster.num_procs() {
                    return Err(SimError::InvalidProcSet {
                        job: id,
                        reason: format!(
                            "processor {max} out of range (cluster has {})",
                            cluster.num_procs()
                        ),
                    });
                }
            }
            if !job.duration.is_finite() || job.duration < 0.0 {
                return Err(SimError::InvalidDuration {
                    job: id,
                    duration: job.duration,
                });
            }
            if !job.release_time.is_finite() {
                return Err(SimError::InvalidReleaseTime {
                    job: id,
                    release_time: job.release_time,
                });
            }
        }
        for t in &self.transfers {
            if t.from >= self.jobs.len() {
                return Err(SimError::UnknownJob { job: t.from });
            }
            if t.to >= self.jobs.len() {
                return Err(SimError::UnknownJob { job: t.to });
            }
        }
        self.check_acyclic()?;
        Ok(())
    }

    /// Kahn's algorithm over the transfer graph, with each job's successors
    /// stored as one flat CSR slice (offsets plus targets) rather than one
    /// vector per job: validation runs before every simulation.
    fn check_acyclic(&self) -> Result<(), SimError> {
        let n = self.jobs.len();
        let mut indeg = vec![0u32; n];
        let mut offsets = vec![0u32; n + 1];
        for t in &self.transfers {
            indeg[t.to] += 1;
            offsets[t.from + 1] += 1;
        }
        for j in 0..n {
            offsets[j + 1] += offsets[j];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut succs = vec![0u32; self.transfers.len()];
        for t in &self.transfers {
            succs[cursor[t.from] as usize] = t.to as u32;
            cursor[t.from] += 1;
        }
        // `cursor` becomes the queue: every job enters it once.
        cursor.clear();
        cursor.extend((0..n as u32).filter(|&j| indeg[j as usize] == 0));
        let mut head = 0usize;
        while head < cursor.len() {
            let j = cursor[head] as usize;
            head += 1;
            for &s in &succs[offsets[j] as usize..offsets[j + 1] as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    cursor.push(s);
                }
            }
        }
        if head != n {
            return Err(SimError::DependencyCycle);
        }
        Ok(())
    }

    /// Number of jobs.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_platform::PlatformBuilder;

    fn platform() -> Platform {
        PlatformBuilder::new("p")
            .cluster("a", 4, 1.0)
            .cluster("b", 4, 2.0)
            .build()
            .unwrap()
    }

    fn job(cluster: usize, first: usize, n: usize, dur: f64) -> SimJob {
        SimJob::new(ProcSet::contiguous(cluster, first, n), dur, 0)
    }

    #[test]
    fn valid_workload_passes() {
        let mut w = SimWorkload::new();
        let a = w.add_job(job(0, 0, 2, 1.0));
        let b = w.add_job(job(1, 0, 4, 2.0));
        w.add_transfer(a, b, 1e6);
        assert!(w.validate(&platform()).is_ok());
        assert_eq!(w.num_jobs(), 2);
    }

    #[test]
    fn empty_procset_is_rejected() {
        let mut w = SimWorkload::new();
        w.add_job(SimJob::new(ProcSet::empty(0), 1.0, 0));
        assert!(matches!(
            w.validate(&platform()),
            Err(SimError::InvalidProcSet { job: 0, .. })
        ));
    }

    #[test]
    fn out_of_range_processor_is_rejected() {
        let mut w = SimWorkload::new();
        w.add_job(job(0, 2, 4, 1.0)); // procs 2..6 but cluster has 4
        assert!(matches!(
            w.validate(&platform()),
            Err(SimError::InvalidProcSet { .. })
        ));
    }

    #[test]
    fn unknown_cluster_is_rejected() {
        let mut w = SimWorkload::new();
        w.add_job(job(9, 0, 1, 1.0));
        assert!(matches!(
            w.validate(&platform()),
            Err(SimError::InvalidProcSet { .. })
        ));
    }

    #[test]
    fn negative_duration_is_rejected() {
        let mut w = SimWorkload::new();
        w.add_job(job(0, 0, 1, -1.0));
        assert!(matches!(
            w.validate(&platform()),
            Err(SimError::InvalidDuration { .. })
        ));
    }

    #[test]
    fn dangling_transfer_is_rejected() {
        let mut w = SimWorkload::new();
        w.add_job(job(0, 0, 1, 1.0));
        w.add_transfer(0, 5, 10.0);
        assert!(matches!(
            w.validate(&platform()),
            Err(SimError::UnknownJob { job: 5 })
        ));
    }

    #[test]
    fn cyclic_transfers_are_rejected() {
        let mut w = SimWorkload::new();
        let a = w.add_job(job(0, 0, 1, 1.0));
        let b = w.add_job(job(0, 1, 1, 1.0));
        w.add_transfer(a, b, 1.0);
        w.add_transfer(b, a, 1.0);
        assert_eq!(w.validate(&platform()), Err(SimError::DependencyCycle));
    }

    #[test]
    fn cycle_behind_fan_out_is_rejected() {
        // 0 fans out to 1, 2 and 3; 2 -> 4 -> 5 -> 2 closes a cycle that
        // only the second of 0's successors reaches.
        let mut w = SimWorkload::new();
        for p in 0..6 {
            w.add_job(job(p / 4, p % 4, 1, 1.0));
        }
        for (from, to) in [(0, 1), (0, 2), (0, 3), (1, 3), (2, 4), (4, 5), (5, 2)] {
            w.add_transfer(from, to, 1.0);
        }
        assert_eq!(w.validate(&platform()), Err(SimError::DependencyCycle));
        // Without the back edge the same fan-out graph is a DAG.
        w.transfers.pop();
        assert_eq!(w.validate(&platform()), Ok(()));
    }
}
