//! The unified submission unit: a set of PTGs with optional release times.
//!
//! The paper's evaluation submits all applications at time 0 (a *batch*),
//! and sketches timed releases as future work. [`Workload`] unifies both:
//! every entry point of the scheduler takes one `Workload` (or anything
//! convertible into one, such as a `Vec<Ptg>`) instead of parallel
//! `ptgs`/`release_times` arguments.

use crate::error::SchedError;
use mcsched_ptg::Ptg;
use serde::{Deserialize, Serialize};

/// A set of applications submitted to the concurrent scheduler, with one
/// release time per application and optional scenario metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    ptgs: Vec<Ptg>,
    /// Always `ptgs.len()` entries; all zero for a batch.
    release_times: Vec<f64>,
    label: Option<String>,
}

impl Workload {
    /// A batch workload: every application is released at time 0 (the
    /// paper's simultaneous-submission scenario).
    #[must_use]
    pub fn batch(ptgs: Vec<Ptg>) -> Self {
        let release_times = vec![0.0; ptgs.len()];
        Self {
            ptgs,
            release_times,
            label: None,
        }
    }

    /// A workload with explicit per-application release times.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidConfig`] when the lengths differ or a release
    /// time is negative or non-finite.
    pub fn released(ptgs: Vec<Ptg>, release_times: Vec<f64>) -> Result<Self, SchedError> {
        validate_release_times(ptgs.len(), &release_times)?;
        Ok(Self {
            ptgs,
            release_times,
            label: None,
        })
    }

    /// Attaches a scenario label (propagated into reports and logs).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The applications, in submission order.
    #[must_use]
    pub fn ptgs(&self) -> &[Ptg] {
        &self.ptgs
    }

    /// Takes the workload apart into its applications and their release
    /// times, dropping the label.
    #[must_use]
    pub fn into_parts(self) -> (Vec<Ptg>, Vec<f64>) {
        (self.ptgs, self.release_times)
    }

    /// One release time per application (all zero for a batch).
    #[must_use]
    pub fn release_times(&self) -> &[f64] {
        &self.release_times
    }

    /// The scenario label, if any.
    #[must_use]
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// Number of applications.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ptgs.len()
    }

    /// Whether the workload has no applications (rejected by the scheduler
    /// with [`SchedError::EmptyWorkload`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ptgs.is_empty()
    }

    /// Whether every application is released at time 0.
    #[must_use]
    pub fn is_batch(&self) -> bool {
        self.release_times.iter().all(|&t| t == 0.0)
    }
}

/// The single source of truth for the release-time contract shared by every
/// submission boundary ([`Workload::released`], the context and scheduler
/// entry points): one finite, non-negative instant per application.
pub(crate) fn validate_release_times(apps: usize, release_times: &[f64]) -> Result<(), SchedError> {
    if apps != release_times.len() {
        return Err(SchedError::InvalidConfig(format!(
            "{apps} applications but {} release times",
            release_times.len()
        )));
    }
    if let Some(bad) = release_times.iter().find(|t| !t.is_finite() || **t < 0.0) {
        return Err(SchedError::InvalidConfig(format!(
            "release time {bad} is not a finite non-negative instant"
        )));
    }
    Ok(())
}

// The borrowing conversions below clone the PTGs: they exist so that the
// pre-`Workload` call sites (`schedule(&platform, &apps)`) keep compiling.
// Repeated submissions of the same applications should either build one
// owned `Workload` up front or borrow through
// `ConcurrentScheduler::workload_context` + `schedule_in`, which copies
// nothing.
impl From<Vec<Ptg>> for Workload {
    fn from(ptgs: Vec<Ptg>) -> Self {
        Workload::batch(ptgs)
    }
}

impl From<&[Ptg]> for Workload {
    fn from(ptgs: &[Ptg]) -> Self {
        Workload::batch(ptgs.to_vec())
    }
}

impl From<&Vec<Ptg>> for Workload {
    fn from(ptgs: &Vec<Ptg>) -> Self {
        Workload::batch(ptgs.clone())
    }
}

impl From<&Workload> for Workload {
    fn from(w: &Workload) -> Self {
        w.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_ptg::{CostModel, DataParallelTask, PtgBuilder};

    fn app(name: &str) -> Ptg {
        let mut b = PtgBuilder::new(name);
        b.add_task(DataParallelTask::new(
            "t",
            1.0e6,
            CostModel::MatrixProduct,
            0.0,
        ));
        b.build().unwrap()
    }

    #[test]
    fn batch_has_zero_release_times() {
        let w = Workload::batch(vec![app("a"), app("b")]);
        assert_eq!(w.len(), 2);
        assert!(w.is_batch());
        assert_eq!(w.release_times(), &[0.0, 0.0]);
        assert!(w.label().is_none());
    }

    #[test]
    fn released_validates_lengths_and_values() {
        assert!(matches!(
            Workload::released(vec![app("a")], vec![0.0, 1.0]),
            Err(SchedError::InvalidConfig(_))
        ));
        assert!(matches!(
            Workload::released(vec![app("a")], vec![-1.0]),
            Err(SchedError::InvalidConfig(_))
        ));
        assert!(matches!(
            Workload::released(vec![app("a")], vec![f64::NAN]),
            Err(SchedError::InvalidConfig(_))
        ));
        let w = Workload::released(vec![app("a"), app("b")], vec![0.0, 10.0]).unwrap();
        assert!(!w.is_batch());
    }

    #[test]
    fn conversions_from_ptg_collections() {
        let apps = vec![app("a"), app("b")];
        let from_ref: Workload = (&apps).into();
        let from_slice: Workload = apps.as_slice().into();
        let from_owned: Workload = apps.clone().into();
        assert_eq!(from_ref, from_slice);
        assert_eq!(from_ref, from_owned);
    }

    #[test]
    fn labels_attach_to_workloads() {
        let w = Workload::batch(vec![app("a")]).with_label("scenario-1");
        assert_eq!(w.label(), Some("scenario-1"));
    }

    #[test]
    fn empty_workloads_are_detectable() {
        let w = Workload::batch(Vec::new());
        assert!(w.is_empty());
        assert!(w.is_batch());
    }
}
