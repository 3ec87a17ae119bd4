//! Seeded bootstrap percentile confidence intervals.
//!
//! The evaluation's per-cell samples (one unfairness value per scenario) are
//! small, skewed and of unknown distribution, so normal-theory intervals are
//! a poor fit; the bootstrap percentile method only assumes exchangeability.
//! All resampling is driven by an explicit [`BootstrapConfig::seed`] through
//! the vendored `ChaCha8Rng`, so a reported interval is reproducible
//! bit-for-bit from the configuration that produced it.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// Configuration of a bootstrap resampling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapConfig {
    /// Number of bootstrap resamples (2000 by default: percentile intervals
    /// stabilize in the low thousands).
    pub resamples: usize,
    /// Confidence level in (0, 1), e.g. 0.95.
    pub level: f64,
    /// Seed of the resampling RNG; equal configurations produce equal
    /// intervals.
    pub seed: u64,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        Self {
            resamples: 2000,
            level: 0.95,
            seed: 0x0B0075,
        }
    }
}

impl BootstrapConfig {
    /// A default-shaped configuration with an explicit seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Returns the configuration with the given confidence level.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < level < 1`.
    #[must_use]
    pub fn with_level(mut self, level: f64) -> Self {
        assert!(
            level > 0.0 && level < 1.0,
            "confidence level must lie in (0, 1), got {level}"
        );
        self.level = level;
        self
    }

    /// Derives a sub-configuration whose seed mixes in a label, so that every
    /// cell of a report resamples from an independent, reproducible stream.
    #[must_use]
    pub fn derive(&self, label: &str) -> Self {
        // FNV-1a over the label, folded into the base seed through SplitMix64
        // so similar labels do not produce correlated streams.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut z = self.seed ^ h;
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self {
            seed: z ^ (z >> 31),
            ..*self
        }
    }
}

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ci {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level in (0, 1).
    pub level: f64,
}

impl Ci {
    /// Whether `x` lies inside the interval (bounds inclusive).
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Whether the two intervals share at least one point.
    #[must_use]
    pub fn overlaps(&self, other: &Ci) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Whether the whole interval lies strictly below zero.
    #[must_use]
    pub fn below_zero(&self) -> bool {
        self.hi < 0.0
    }

    /// Whether the whole interval lies strictly above zero.
    #[must_use]
    pub fn above_zero(&self) -> bool {
        self.lo > 0.0
    }
}

impl fmt::Display for Ci {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.4}, {:.4}] ({:.0}%)",
            self.lo,
            self.hi,
            self.level * 100.0
        )
    }
}

/// Bootstrap percentile confidence interval for the mean of `values`.
///
/// Draws [`BootstrapConfig::resamples`] resamples with replacement, computes
/// each resample's mean, and returns the empirical `alpha/2` and
/// `1 - alpha/2` percentiles. Degenerate inputs collapse gracefully: an empty
/// slice yields `[0, 0]` and a single value `[v, v]`.
#[must_use]
pub fn bootstrap_mean_ci(values: &[f64], config: &BootstrapConfig) -> Ci {
    assert!(
        config.level > 0.0 && config.level < 1.0,
        "confidence level must lie in (0, 1), got {}",
        config.level
    );
    let n = values.len();
    if n == 0 {
        return Ci {
            lo: 0.0,
            hi: 0.0,
            level: config.level,
        };
    }
    if n == 1 {
        return Ci {
            lo: values[0],
            hi: values[0],
            level: config.level,
        };
    }
    let resamples = config.resamples.max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let mut sum = 0.0;
        for _ in 0..n {
            sum += values[rng.gen_range(0..n)];
        }
        means.push(sum / n as f64);
    }
    means.sort_by(f64::total_cmp);
    let alpha = 1.0 - config.level;
    Ci {
        lo: percentile(&means, alpha / 2.0),
        hi: percentile(&means, 1.0 - alpha / 2.0),
        level: config.level,
    }
}

/// Empirical percentile of a sorted slice with linear interpolation.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let idx = pos.floor() as usize;
    let frac = pos - idx as f64;
    if idx + 1 < sorted.len() {
        sorted[idx] * (1.0 - frac) + sorted[idx + 1] * frac
    } else {
        sorted[sorted.len() - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_is_deterministic_per_seed() {
        let values: Vec<f64> = (0..50).map(|i| (i as f64 * 0.7).sin()).collect();
        let cfg = BootstrapConfig::seeded(42);
        let a = bootstrap_mean_ci(&values, &cfg);
        let b = bootstrap_mean_ci(&values, &cfg);
        assert_eq!(a, b);
        let c = bootstrap_mean_ci(&values, &BootstrapConfig::seeded(43));
        assert_ne!(a, c, "a different seed resamples differently");
    }

    #[test]
    fn interval_brackets_the_sample_mean() {
        let values: Vec<f64> = (0..200).map(|i| f64::from(i % 17)).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let ci = bootstrap_mean_ci(&values, &BootstrapConfig::seeded(7));
        assert!(ci.contains(mean), "{ci} should contain {mean}");
        assert!(ci.hi > ci.lo);
        assert!(ci.hi - ci.lo < 4.0, "200 samples pin the mean tightly");
    }

    #[test]
    fn wider_level_gives_wider_interval() {
        let values: Vec<f64> = (0..100).map(|i| ((i * 37) % 23) as f64).collect();
        let narrow = bootstrap_mean_ci(&values, &BootstrapConfig::seeded(5).with_level(0.80));
        let wide = bootstrap_mean_ci(&values, &BootstrapConfig::seeded(5).with_level(0.99));
        assert!(wide.hi - wide.lo > narrow.hi - narrow.lo);
        assert!(wide.lo <= narrow.lo && narrow.hi <= wide.hi);
    }

    #[test]
    fn degenerate_inputs_collapse() {
        let cfg = BootstrapConfig::default();
        let empty = bootstrap_mean_ci(&[], &cfg);
        assert_eq!((empty.lo, empty.hi), (0.0, 0.0));
        let single = bootstrap_mean_ci(&[3.5], &cfg);
        assert_eq!((single.lo, single.hi), (3.5, 3.5));
        let constant = bootstrap_mean_ci(&[2.0; 30], &cfg);
        assert_eq!((constant.lo, constant.hi), (2.0, 2.0));
    }

    #[test]
    fn derived_configs_differ_by_label_but_are_stable() {
        let base = BootstrapConfig::seeded(0x5EED);
        let a = base.derive("unfairness/8/WPS-work");
        let b = base.derive("unfairness/8/PS-work");
        assert_ne!(a.seed, b.seed);
        assert_eq!(a, base.derive("unfairness/8/WPS-work"));
        assert_eq!(a.resamples, base.resamples);
        assert_eq!(a.level, base.level);
    }

    #[test]
    fn overlap_and_sign_helpers() {
        let a = Ci {
            lo: -0.2,
            hi: -0.1,
            level: 0.95,
        };
        let b = Ci {
            lo: -0.15,
            hi: 0.3,
            level: 0.95,
        };
        assert!(a.overlaps(&b) && b.overlaps(&a));
        assert!(a.below_zero() && !a.above_zero());
        assert!(!b.below_zero() && !b.above_zero());
        let c = Ci {
            lo: 0.5,
            hi: 0.6,
            level: 0.95,
        };
        assert!(!a.overlaps(&c));
        assert!(c.above_zero());
    }
}
