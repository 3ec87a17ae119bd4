//! Paired-difference analysis under common random numbers.
//!
//! The evaluation pipeline scores every strategy on *identical* scenario
//! draws (common random numbers), so two strategies' per-scenario metrics
//! form natural pairs and their comparison reduces to the per-pair
//! differences `a_i - b_i`. Pairing cancels the (large) scenario-to-scenario
//! variance, which is the variance-reduction step that makes the paper's
//! mean-of-many-random-DAGs orderings assertable at all.
//!
//! [`PairedSamples`] holds the differences and answers two questions:
//!
//! * *how big is the gap?* — [`PairedSamples::bootstrap_ci`] puts a seeded
//!   bootstrap percentile interval around the mean difference;
//! * *how consistent is the direction?* — the exact two-sided sign test (a
//!   distribution-free Wilcoxon-style ordering check: under "no ordering",
//!   positive and negative differences are equally likely).
//!
//! [`PairedSamples::verdict`] condenses both into an [`OrderingVerdict`].

use crate::bootstrap::{bootstrap_mean_ci, BootstrapConfig, Ci};
use crate::summary::Summary;
use std::fmt;

/// Per-pair differences `a_i - b_i` between two treatments evaluated on the
/// same scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct PairedSamples {
    diffs: Vec<f64>,
    /// Pairs with `a < b` (negative difference).
    a_wins: usize,
    /// Pairs with `a > b` (positive difference).
    b_wins: usize,
    /// Pairs with `a == b` (dropped by the sign test).
    ties: usize,
}

impl PairedSamples {
    /// Pairs two metric vectors drawn under common random numbers.
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths — mismatched lengths
    /// mean the samples were *not* paired, and silently truncating would
    /// fabricate a pairing that never happened.
    #[must_use]
    pub fn of(a: &[f64], b: &[f64]) -> Self {
        assert_eq!(
            a.len(),
            b.len(),
            "paired analysis requires equally many samples per treatment"
        );
        Self::from_diffs(a.iter().zip(b).map(|(x, y)| x - y).collect())
    }

    /// Builds the analysis from precomputed differences `a_i - b_i`.
    #[must_use]
    fn from_diffs(diffs: Vec<f64>) -> Self {
        let mut a_wins = 0;
        let mut b_wins = 0;
        let mut ties = 0;
        for &d in &diffs {
            if d < 0.0 {
                a_wins += 1;
            } else if d > 0.0 {
                b_wins += 1;
            } else {
                ties += 1;
            }
        }
        Self {
            diffs,
            a_wins,
            b_wins,
            ties,
        }
    }

    /// The raw differences, in pairing order.
    #[must_use]
    pub fn diffs(&self) -> &[f64] {
        &self.diffs
    }

    /// Number of pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.diffs.len()
    }

    /// Whether no pair was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.diffs.is_empty()
    }

    /// Pairs with exactly equal values.
    #[must_use]
    pub fn ties(&self) -> usize {
        self.ties
    }

    /// Mean difference (in-order sum, 0 when empty).
    #[must_use]
    pub fn mean_diff(&self) -> f64 {
        if self.diffs.is_empty() {
            0.0
        } else {
            self.diffs.iter().sum::<f64>() / self.diffs.len() as f64
        }
    }

    /// Streaming summary of the differences.
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary::of(&self.diffs)
    }

    /// Seeded bootstrap percentile interval around the mean difference.
    #[must_use]
    pub fn bootstrap_ci(&self, config: &BootstrapConfig) -> Ci {
        bootstrap_mean_ci(&self.diffs, config)
    }

    /// Exact two-sided sign test p-value: the probability, under the null
    /// hypothesis that positive and negative differences are equally likely,
    /// of a split at least as lopsided as the observed one. Ties are dropped,
    /// as is standard; with no untied pair the test is uninformative and
    /// returns 1.
    #[must_use]
    fn sign_test_p(&self) -> f64 {
        let n = self.a_wins + self.b_wins;
        if n == 0 {
            return 1.0;
        }
        let k = self.a_wins.min(self.b_wins);
        (2.0 * binomial_cdf_half(n, k)).min(1.0)
    }

    /// The ordering judgement at the configured confidence level: `a` is
    /// declared below `b` (or vice versa) only when the bootstrap interval
    /// around the mean difference excludes zero *and* the sign test rejects
    /// "no consistent direction" at `1 - level`; otherwise the comparison is
    /// [`OrderingVerdict::Inconclusive`] and carries the measured interval.
    #[must_use]
    pub fn verdict(&self, config: &BootstrapConfig) -> OrderingVerdict {
        let ci = self.bootstrap_ci(config);
        let p = self.sign_test_p();
        let alpha = 1.0 - config.level;
        if ci.below_zero() && p < alpha && self.a_wins > self.b_wins {
            OrderingVerdict::Ordered {
                a_below_b: true,
                ci,
                p,
            }
        } else if ci.above_zero() && p < alpha && self.b_wins > self.a_wins {
            OrderingVerdict::Ordered {
                a_below_b: false,
                ci,
                p,
            }
        } else {
            OrderingVerdict::Inconclusive { ci, p }
        }
    }
}

/// Outcome of a paired ordering comparison between treatments `a` and `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OrderingVerdict {
    /// One treatment is consistently below the other: the confidence
    /// interval around the mean difference excludes zero and the sign test
    /// agrees on the direction.
    Ordered {
        /// `true` when `a` is below `b` (negative differences), `false` for
        /// the opposite ordering.
        a_below_b: bool,
        /// Bootstrap interval around the mean difference `a - b`.
        ci: Ci,
        /// Two-sided sign-test p-value.
        p: f64,
    },
    /// The data does not support a strict ordering at the requested level;
    /// the measured interval quantifies how large a gap is still compatible
    /// with the samples.
    Inconclusive {
        /// Bootstrap interval around the mean difference `a - b`.
        ci: Ci,
        /// Two-sided sign-test p-value.
        p: f64,
    },
}

impl OrderingVerdict {
    /// The bootstrap interval of the comparison, whatever the verdict.
    #[must_use]
    pub fn ci(&self) -> Ci {
        match *self {
            OrderingVerdict::Ordered { ci, .. } | OrderingVerdict::Inconclusive { ci, .. } => ci,
        }
    }

    /// The sign-test p-value of the comparison, whatever the verdict.
    #[must_use]
    pub fn p(&self) -> f64 {
        match *self {
            OrderingVerdict::Ordered { p, .. } | OrderingVerdict::Inconclusive { p, .. } => p,
        }
    }

    /// Whether the verdict asserts `a < b`.
    #[must_use]
    pub fn is_a_below_b(&self) -> bool {
        matches!(
            self,
            OrderingVerdict::Ordered {
                a_below_b: true,
                ..
            }
        )
    }
}

impl fmt::Display for OrderingVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderingVerdict::Ordered { a_below_b, ci, p } => write!(
                f,
                "ordered: {} (diff CI {ci}, sign-test p = {p:.4})",
                if *a_below_b { "a < b" } else { "b < a" }
            ),
            OrderingVerdict::Inconclusive { ci, p } => {
                write!(f, "inconclusive (diff CI {ci}, sign-test p = {p:.4})")
            }
        }
    }
}

/// `P(X <= k)` for `X ~ Binomial(n, 1/2)`, computed in log space so large
/// `n` neither under- nor overflows.
fn binomial_cdf_half(n: usize, k: usize) -> f64 {
    // ln C(n, i) built incrementally: ln C(n, 0) = 0,
    // ln C(n, i) = ln C(n, i-1) + ln(n - i + 1) - ln(i).
    let ln_half_n = -(n as f64) * std::f64::consts::LN_2;
    let mut ln_c = 0.0f64;
    let mut log_terms = Vec::with_capacity(k + 1);
    for i in 0..=k {
        if i > 0 {
            ln_c += ((n - i + 1) as f64).ln() - (i as f64).ln();
        }
        log_terms.push(ln_c + ln_half_n);
    }
    // Log-sum-exp over the terms.
    let max = log_terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max == f64::NEG_INFINITY {
        return 0.0;
    }
    let sum: f64 = log_terms.iter().map(|&t| (t - max).exp()).sum();
    (max + sum.ln()).exp().min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairing_counts_wins_and_ties() {
        let p = PairedSamples::of(&[1.0, 2.0, 3.0, 4.0], &[2.0, 2.0, 1.0, 5.0]);
        assert_eq!(p.len(), 4);
        assert_eq!((p.a_wins, p.b_wins), (2, 1));
        assert_eq!(p.ties(), 1);
        assert_eq!(p.diffs(), &[-1.0, 0.0, 2.0, -1.0]);
        assert!((p.mean_diff() - 0.0).abs() < 1e-12);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "equally many samples")]
    fn mismatched_lengths_panic() {
        let _ = PairedSamples::of(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn sign_test_matches_exact_binomial_values() {
        // 5 negative / 0 positive: p = 2 * (1/2)^5 = 0.0625.
        let p = PairedSamples::from_diffs(vec![-1.0; 5]);
        assert!((p.sign_test_p() - 0.0625).abs() < 1e-12);
        // 3 vs 3: perfectly balanced, p = 2 * P(X <= 3) capped at 1.
        let balanced = PairedSamples::from_diffs(vec![-1.0, -1.0, -1.0, 1.0, 1.0, 1.0]);
        assert_eq!(balanced.sign_test_p(), 1.0);
        // All ties: uninformative.
        let ties = PairedSamples::from_diffs(vec![0.0; 10]);
        assert_eq!(ties.sign_test_p(), 1.0);
        assert!(!ties.is_empty() && ties.ties() == 10);
        // Empty: uninformative.
        assert_eq!(PairedSamples::from_diffs(vec![]).sign_test_p(), 1.0);
    }

    #[test]
    fn sign_test_survives_large_n() {
        // 1000 pairs, 400 positive: p must be finite, tiny but nonzero.
        let mut diffs = vec![-1.0; 600];
        diffs.extend(vec![1.0; 400]);
        let p = PairedSamples::from_diffs(diffs).sign_test_p();
        assert!(p > 0.0 && p < 1e-9, "p = {p}");
    }

    #[test]
    fn consistent_ordering_yields_an_ordered_verdict() {
        // a is below b by a clear margin on every pair (with jitter).
        let diffs: Vec<f64> = (0..40).map(|i| -0.5 - 0.01 * (i % 7) as f64).collect();
        let verdict = PairedSamples::from_diffs(diffs).verdict(&BootstrapConfig::seeded(1));
        match verdict {
            OrderingVerdict::Ordered { a_below_b, ci, p } => {
                assert!(a_below_b);
                assert!(verdict.is_a_below_b());
                assert!(ci.below_zero());
                assert!(p < 0.05);
            }
            OrderingVerdict::Inconclusive { .. } => panic!("expected an ordering: {verdict}"),
        }
    }

    #[test]
    fn noisy_balanced_data_is_inconclusive() {
        let diffs: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 } * (1.0 + (i % 5) as f64))
            .collect();
        let verdict = PairedSamples::from_diffs(diffs).verdict(&BootstrapConfig::seeded(2));
        assert!(
            matches!(verdict, OrderingVerdict::Inconclusive { .. }),
            "balanced differences must not order: {verdict}"
        );
        assert!(verdict.ci().contains(0.0));
        assert!(!verdict.is_a_below_b());
    }

    #[test]
    fn verdict_is_deterministic() {
        let diffs: Vec<f64> = (0..30).map(|i| ((i * 13) % 11) as f64 - 5.0).collect();
        let samples = PairedSamples::from_diffs(diffs);
        let cfg = BootstrapConfig::seeded(0xC1);
        assert_eq!(samples.verdict(&cfg), samples.verdict(&cfg));
    }

    #[test]
    fn binomial_cdf_sanity() {
        // P(X <= 2 | n = 4) = (1 + 4 + 6) / 16.
        assert!((binomial_cdf_half(4, 2) - 11.0 / 16.0).abs() < 1e-12);
        // Full range sums to 1.
        assert!((binomial_cdf_half(10, 10) - 1.0).abs() < 1e-12);
    }
}
