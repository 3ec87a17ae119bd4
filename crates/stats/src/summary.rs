//! Streaming summaries and raw-sample sets.

use std::fmt;

/// A streaming univariate summary: count, mean, variance (via Welford's
/// online algorithm), minimum and maximum. Pushing is O(1) and never stores
/// the samples; use [`Samples`] when the raw values are needed later (e.g.
/// for bootstrap resampling).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: usize,
    mean: f64,
    /// Sum of squared deviations from the running mean (Welford's M2).
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Summarizes a slice in one pass.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Merges another summary into this one (Chan et al. parallel update).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = (self.count + other.count) as f64;
        let delta = other.mean - self.mean;
        self.m2 += other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total;
        self.mean += delta * other.count as f64 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean {:.4} ± {:.4} sd (n = {}, range {:.4}..{:.4})",
            self.mean(),
            self.std_dev(),
            self.count(),
            self.min(),
            self.max()
        )
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

/// A sample set that retains the raw values (for resampling and pairing) next
/// to a streaming [`Summary`].
///
/// The mean is computed as the plain in-order sum divided by the count —
/// *not* from the Welford summary — so replacing a bare
/// `sum += x; sum / n` accumulator with a `Samples` is bit-for-bit neutral:
/// the campaign tables stay byte-identical when no statistics are requested.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// An empty sample set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// The raw observations, in insertion order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no observation was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// A one-pass summary of the observations, computed on demand (the hot
    /// accumulation path stores only the raw values).
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary::of(&self.values)
    }

    /// Arithmetic mean as the in-order sum over the raw values (0 when
    /// empty); bit-for-bit equal to a naive `sum / n` accumulator.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Seeded bootstrap percentile confidence interval for the mean (see
    /// [`crate::bootstrap_mean_ci`]).
    #[must_use]
    pub fn bootstrap_mean_ci(&self, config: &crate::BootstrapConfig) -> crate::Ci {
        crate::bootstrap_mean_ci(&self.values, config)
    }
}

impl From<Vec<f64>> for Samples {
    fn from(values: Vec<f64>) -> Self {
        Self { values }
    }
}

impl Extend<f64> for Samples {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_closed_forms() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        // Unbiased variance of 1..4 is 5/3.
        assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn merge_equals_pushing_everything() {
        let all = [0.5, -1.25, 3.75, 2.0, 9.5, -0.125];
        let (left, right) = all.split_at(2);
        let mut a = Summary::of(left);
        let b = Summary::of(right);
        a.merge(&b);
        let whole = Summary::of(&all);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let s = Summary::of(&[1.0, 2.0]);
        let mut a = s;
        a.merge(&Summary::new());
        assert_eq!(a, s);
        let mut e = Summary::new();
        e.merge(&s);
        assert_eq!(e, s);
    }

    #[test]
    fn samples_mean_is_the_naive_in_order_sum() {
        // Accumulation order matters in floating point; Samples::mean must
        // reproduce the legacy `sum += x` accumulator exactly.
        let values = [0.1, 0.2, 0.3, 1e15, -1e15, 0.4];
        let naive = values.iter().sum::<f64>() / values.len() as f64;
        let mut s = Samples::new();
        s.extend(values.iter().copied());
        assert_eq!(s.mean(), naive);
        assert_eq!(s.len(), 6);
        assert_eq!(s.values(), &values);
    }

    #[test]
    fn samples_from_vec_agrees_with_push() {
        let mut pushed = Samples::new();
        pushed.push(1.0);
        pushed.push(4.0);
        let converted = Samples::from(vec![1.0, 4.0]);
        assert_eq!(pushed, converted);
        assert!(!converted.is_empty());
        assert_eq!(converted.summary().count(), 2);
    }
}
