//! Fairness and makespan metrics (Section 7 of the paper).
//!
//! * the **slowdown** of application `a` is `M_own(a) / M_multi(a)` — the
//!   makespan it achieves with the platform to itself divided by its makespan
//!   in presence of concurrency (≤ 1 when concurrency hurts);
//! * the **unfairness** of a schedule is `Σ_a |slowdown(a) − avg slowdown|`:
//!   0 means every application suffered equally from sharing;
//! * the **relative makespan** of a strategy on one experiment is its global
//!   makespan divided by the best global makespan achieved by any strategy on
//!   that same experiment (≥ 1).

use serde::{Deserialize, Serialize};

/// Slowdown of one application: `m_own / m_multi` (the paper's Equation 3).
///
/// Degenerate zero makespans yield a slowdown of 1 (no observable
/// perturbation).
pub fn slowdown(m_own: f64, m_multi: f64) -> f64 {
    if m_multi <= 0.0 || m_own <= 0.0 {
        1.0
    } else {
        m_own / m_multi
    }
}

/// Average slowdown of a set of applications (Equation 4).
pub fn average_slowdown(slowdowns: &[f64]) -> f64 {
    if slowdowns.is_empty() {
        return 0.0;
    }
    slowdowns.iter().sum::<f64>() / slowdowns.len() as f64
}

/// Unfairness of a schedule (Equation 5): sum of the absolute deviations of
/// the per-application slowdowns from their average.
pub fn unfairness(slowdowns: &[f64]) -> f64 {
    let avg = average_slowdown(slowdowns);
    slowdowns.iter().map(|s| (s - avg).abs()).sum()
}

/// Aggregated fairness view of one concurrent run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct FairnessReport {
    /// Per-application slowdowns.
    pub slowdowns: Vec<f64>,
    /// Average slowdown (Equation 4).
    pub average_slowdown: f64,
    /// Unfairness (Equation 5).
    pub unfairness: f64,
}

/// Builds a [`FairnessReport`] from per-application dedicated (`m_own`) and
/// concurrent (`m_multi`) makespans.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn fairness_report(m_own: &[f64], m_multi: &[f64]) -> FairnessReport {
    assert_eq!(m_own.len(), m_multi.len(), "one m_own per m_multi");
    let slowdowns: Vec<f64> = m_own
        .iter()
        .zip(m_multi)
        .map(|(&o, &m)| slowdown(o, m))
        .collect();
    FairnessReport {
        average_slowdown: average_slowdown(&slowdowns),
        unfairness: unfairness(&slowdowns),
        slowdowns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_ratio() {
        assert_eq!(slowdown(10.0, 20.0), 0.5);
        assert_eq!(slowdown(10.0, 10.0), 1.0);
    }

    #[test]
    fn slowdown_handles_degenerate_inputs() {
        assert_eq!(slowdown(0.0, 5.0), 1.0);
        assert_eq!(slowdown(5.0, 0.0), 1.0);
    }

    #[test]
    fn average_of_empty_is_zero() {
        assert_eq!(average_slowdown(&[]), 0.0);
    }

    #[test]
    fn unfairness_zero_when_equal() {
        assert_eq!(unfairness(&[0.5, 0.5, 0.5]), 0.0);
    }

    #[test]
    fn single_application_is_perfectly_fair() {
        // With one application there is nothing to be unfair to: its
        // slowdown equals the average, so the deviation sum is zero whatever
        // the makespans were.
        assert_eq!(unfairness(&[0.42]), 0.0);
        let r = fairness_report(&[123.0], &[456.0]);
        assert_eq!(r.unfairness, 0.0);
        assert_eq!(r.slowdowns.len(), 1);
        assert_eq!(r.average_slowdown, r.slowdowns[0]);
    }

    #[test]
    fn empty_slowdown_set_yields_zero_metrics() {
        assert_eq!(unfairness(&[]), 0.0);
        assert_eq!(average_slowdown(&[]), 0.0);
        let r = fairness_report(&[], &[]);
        assert!(r.slowdowns.is_empty());
        assert_eq!(r.average_slowdown, 0.0);
        assert_eq!(r.unfairness, 0.0);
    }

    #[test]
    fn identical_dedicated_and_concurrent_makespans_are_neutral() {
        // When concurrency did not perturb anyone, every slowdown is exactly
        // 1 and the schedule is perfectly fair.
        let m = [10.0, 25.0, 400.0];
        let r = fairness_report(&m, &m);
        assert_eq!(r.slowdowns, vec![1.0, 1.0, 1.0]);
        assert_eq!(r.average_slowdown, 1.0);
        assert_eq!(r.unfairness, 0.0);
    }

    #[test]
    fn paper_example_value() {
        // The paper's Section 7 example: 8 applications with slowdown 1 and 2
        // with slowdown 0.2 give an average of 0.84 and an unfairness of 2.56.
        let mut s = vec![1.0; 8];
        s.extend_from_slice(&[0.2, 0.2]);
        assert!((average_slowdown(&s) - 0.84).abs() < 1e-12);
        assert!((unfairness(&s) - 2.56).abs() < 1e-9);
    }

    #[test]
    fn unfairness_grows_with_dispersion() {
        let tight = unfairness(&[0.9, 1.0, 1.0, 0.95]);
        let loose = unfairness(&[0.2, 1.0, 1.0, 0.3]);
        assert!(loose > tight);
    }

    #[test]
    fn fairness_report_combines_metrics() {
        let r = fairness_report(&[10.0, 10.0], &[10.0, 50.0]);
        assert_eq!(r.slowdowns, vec![1.0, 0.2]);
        assert!((r.average_slowdown - 0.6).abs() < 1e-12);
        assert!((r.unfairness - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one m_own per m_multi")]
    fn fairness_report_length_mismatch_panics() {
        let _ = fairness_report(&[1.0], &[1.0, 2.0]);
    }
}
