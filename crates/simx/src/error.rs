//! Error types of the simulation engine.

use std::fmt;

/// Errors raised while validating or executing a simulated workload.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A transfer references a job identifier that does not exist.
    UnknownJob {
        /// The offending job identifier.
        job: usize,
    },
    /// A job references a processor that does not exist on the platform.
    InvalidProcSet {
        /// The offending job identifier.
        job: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A job has a non-finite or negative duration.
    InvalidDuration {
        /// The offending job identifier.
        job: usize,
        /// The duration value.
        duration: f64,
    },
    /// A job has a non-finite release time (NaN or infinite), so it could
    /// never be released at a definite instant.
    InvalidReleaseTime {
        /// The offending job identifier.
        job: usize,
        /// The release time value.
        release_time: f64,
    },
    /// The dependency graph between jobs contains a cycle, so the simulation
    /// can never complete.
    DependencyCycle,
    /// Two jobs with overlapping processor sets were given the same priority,
    /// making the contention resolution ambiguous.
    AmbiguousPriority {
        /// First job.
        a: usize,
        /// Second job.
        b: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownJob { job } => write!(f, "transfer references unknown job {job}"),
            SimError::InvalidProcSet { job, reason } => {
                write!(f, "job {job} has an invalid processor set: {reason}")
            }
            SimError::InvalidDuration { job, duration } => {
                write!(f, "job {job} has invalid duration {duration}")
            }
            SimError::InvalidReleaseTime { job, release_time } => {
                write!(f, "job {job} has invalid release time {release_time}")
            }
            SimError::DependencyCycle => write!(f, "the job dependency graph contains a cycle"),
            SimError::AmbiguousPriority { a, b } => write!(
                f,
                "jobs {a} and {b} contend for processors with identical priorities"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_job() {
        assert!(SimError::UnknownJob { job: 3 }.to_string().contains('3'));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<SimError>();
    }
}
