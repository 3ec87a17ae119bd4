//! Coarse progress reporting for long campaigns.
//!
//! Paper-scale campaigns run for minutes; `--progress` makes them narrate
//! one line per completed *data point* (the resume grain of the cell
//! cache), on **stderr** through the obs sink (`mcsched_obs::note!`, so
//! `--quiet` silences it) — the byte-identical-stdout guarantee of the
//! figure tables is untouched. The reporter is safe to tick from any fan-out
//! thread and deliberately has no notion of ETA — data points are wildly
//! uneven (10 PTGs cost far more than 2), so an extrapolation would
//! mislead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A coarse, thread-safe progress line printer (disabled by default).
#[derive(Debug)]
pub struct Progress {
    label: String,
    total: usize,
    done: AtomicUsize,
    enabled: bool,
    start: Instant,
}

impl Progress {
    /// Creates a reporter for `total` steps under `label`. When `enabled`
    /// is false every call is a no-op (zero output, negligible cost).
    #[must_use]
    pub fn new(label: impl Into<String>, total: usize, enabled: bool) -> Self {
        Self {
            label: label.into(),
            total,
            done: AtomicUsize::new(0),
            enabled,
            start: Instant::now(),
        }
    }

    /// Marks one step done and, when enabled, prints
    /// `progress[label]: done/total detail (elapsed)` through the obs
    /// stderr sink. Returns the number of completed steps.
    pub fn tick(&self, detail: &str) -> usize {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if self.enabled {
            let elapsed = self.start.elapsed().as_secs_f64();
            mcsched_obs::note!(
                "progress[{}]: {done}/{} {detail} ({elapsed:.1}s elapsed)",
                self.label,
                self.total
            );
        }
        done
    }

    /// Number of completed steps so far.
    #[must_use]
    pub fn done(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Total number of steps.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_count_regardless_of_enablement() {
        let p = Progress::new("test", 3, false);
        assert_eq!(p.tick("a"), 1);
        assert_eq!(p.tick("b"), 2);
        assert_eq!(p.done(), 2);
        assert_eq!(p.total(), 3);
    }

    #[test]
    fn enabled_reporter_ticks_too() {
        let p = Progress::new("noisy", 1, true);
        assert_eq!(p.tick("only step"), 1);
    }
}
