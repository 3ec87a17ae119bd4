//! A tiny seeded property-test harness.
//!
//! `proptest` is unavailable in this offline workspace, so the integration
//! tests used to hand-roll "N seeded cases in a loop" machinery. This module
//! extracts that pattern behind one reusable type: a [`QuickCheck`] runs a
//! property over a sequence of deterministically seeded RNGs, and on failure
//! *shrinks by halving* a size bound until the property passes again,
//! reporting the smallest still-failing `(seed, size)` pair in the panic
//! message so the case can be replayed directly with [`QuickCheck::replay`].
//!
//! A property is any `Fn(&mut ChaCha8Rng, u32)` that panics (e.g. via
//! `assert!`) when violated. The `u32` argument is the *size bound*: draw
//! dimensions (task counts, application counts, processor counts) should
//! scale with it so smaller sizes mean simpler counterexamples.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A seeded property-test runner with shrink-by-halving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuickCheck {
    /// Number of cases to draw.
    pub cases: u64,
    /// Base seed; case `c` runs with RNG seed `seed ^ c`.
    pub seed: u64,
    /// Size bound handed to the property for the initial run of every case.
    pub start_size: u32,
}

impl QuickCheck {
    /// A runner with the default shape (24 cases, start size 32).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            cases: 24,
            seed,
            start_size: 32,
        }
    }

    /// Sets the number of cases.
    #[must_use]
    pub fn cases(mut self, cases: u64) -> Self {
        self.cases = cases;
        self
    }

    /// Sets the initial size bound.
    #[must_use]
    pub fn start_size(mut self, start_size: u32) -> Self {
        self.start_size = start_size.max(1);
        self
    }

    /// The RNG seed of one case.
    #[must_use]
    fn case_seed(&self, case: u64) -> u64 {
        self.seed ^ case
    }

    /// Runs the property over all cases.
    ///
    /// # Panics
    ///
    /// Panics on the first failing case, after shrinking, with a message of
    /// the form `property failed: case 3, seed 0x..., size 4 — replay with
    /// QuickCheck::replay(0x..., 4, property)` followed by the property's own
    /// panic message.
    pub fn run<F>(&self, property: F)
    where
        F: Fn(&mut ChaCha8Rng, u32),
    {
        for case in 0..self.cases {
            let seed = self.case_seed(case);
            let Err(message) = attempt(&property, seed, self.start_size) else {
                continue;
            };
            let (size, message) = shrink(&property, seed, self.start_size, message);
            panic!(
                "property failed: case {case}, seed {seed:#x}, size {size} — replay with \
                 QuickCheck::replay({seed:#x}, {size}, property)\ncaused by: {message}"
            );
        }
    }

    /// Reruns the property once with an explicit seed and size — the
    /// counterexample coordinates printed by a failing [`QuickCheck::run`].
    pub fn replay<F>(seed: u64, size: u32, property: F)
    where
        F: Fn(&mut ChaCha8Rng, u32),
    {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        property(&mut rng, size);
    }
}

/// Runs one case, capturing a panic as the failure message.
fn attempt<F>(property: &F, seed: u64, size: u32) -> Result<(), String>
where
    F: Fn(&mut ChaCha8Rng, u32),
{
    catch_unwind(AssertUnwindSafe(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        property(&mut rng, size);
    }))
    .map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "(non-string panic payload)".to_string()
        }
    })
}

/// Halves the size bound while the property keeps failing; returns the
/// smallest size observed to fail together with its failure message.
fn shrink<F>(property: &F, seed: u64, start_size: u32, message: String) -> (u32, String)
where
    F: Fn(&mut ChaCha8Rng, u32),
{
    let mut failing = (start_size, message);
    let mut size = start_size;
    while size > 1 {
        size /= 2;
        match attempt(property, seed, size) {
            Err(message) => failing = (size, message),
            // The halved case passes: the previous size is the minimal
            // counterexample along the halving chain.
            Ok(()) => break,
        }
    }
    failing
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn passing_properties_run_every_case() {
        let mut seen = Vec::new();
        let qc = QuickCheck::new(0xFEED).cases(5);
        // Record the first draw of every case to check seed distinctness.
        let draws = std::sync::Mutex::new(&mut seen);
        qc.run(|rng, size| {
            assert!(size > 0);
            draws.lock().unwrap().push(rng.gen_range(0..u64::MAX));
        });
        assert_eq!(seen.len(), 5);
        let mut unique = seen.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 5, "every case draws from a distinct stream");
    }

    #[test]
    fn failure_shrinks_to_the_smallest_failing_size() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            QuickCheck::new(7)
                .cases(1)
                .start_size(32)
                .run(|_rng, size| {
                    assert!(size < 4, "too big");
                });
        }));
        let message = match result {
            Ok(()) => panic!("property should have failed"),
            Err(payload) => *payload.downcast::<String>().unwrap(),
        };
        // 32, 16, 8 and 4 fail; 2 passes — the report names size 4 and the
        // reproducing seed (case 0 => seed == base seed).
        assert!(message.contains("size 4"), "got: {message}");
        assert!(message.contains("seed 0x7"), "got: {message}");
        assert!(message.contains("caused by: too big"), "got: {message}");
    }

    #[test]
    fn replay_reproduces_the_case_stream() {
        let qc = QuickCheck::new(0xAB).cases(3);
        let expected = std::sync::Mutex::new(Vec::new());
        qc.run(|rng, _| expected.lock().unwrap().push(rng.gen_range(0..1000u32)));
        for case in 0..3 {
            QuickCheck::replay(qc.case_seed(case), qc.start_size, |rng, _| {
                let v = rng.gen_range(0..1000u32);
                assert_eq!(v, expected.lock().unwrap()[case as usize]);
            });
        }
    }

    #[test]
    fn size_one_failures_are_reported_at_size_one() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            QuickCheck::new(1)
                .cases(1)
                .start_size(8)
                .run(|_rng, _size| {
                    panic!("always fails");
                });
        }));
        let message = match result {
            Ok(()) => panic!("property should have failed"),
            Err(payload) => *payload.downcast::<String>().unwrap(),
        };
        assert!(message.contains("size 1"), "got: {message}");
    }
}
