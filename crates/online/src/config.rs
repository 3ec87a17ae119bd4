//! Configuration of one online run: when to reschedule, how to shed, when
//! to stop.

use mcsched_core::{SchedError, SchedulerConfig};

/// When the online loop re-runs the β / allocation / mapping pipeline for
/// the resident set.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ReschedulePolicy {
    /// Reschedule on every arrival *and* every completion — the most
    /// reactive policy. Simulations are horizon-capped at the next arrival,
    /// since any schedule beyond it would be recomputed anyway.
    OnArrival,
    /// Reschedule only when a job completes (arrivals wait in the pending
    /// queue); the committed schedule is never invalidated mid-flight.
    OnCompletion,
    /// Reschedule at fixed virtual-time boundaries `k · quantum` (plus on
    /// completions' capacity being needed: an arrival into an empty system
    /// schedules immediately rather than idling until the next boundary).
    Quantum(f64),
}

impl ReschedulePolicy {
    /// Parses the CLI form: `on-arrival`, `on-completion` or `quantum=SECS`.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidConfig`] on an unknown name or a non-positive /
    /// non-finite quantum.
    pub fn parse(spec: &str) -> Result<Self, SchedError> {
        match spec {
            "on-arrival" => Ok(Self::OnArrival),
            "on-completion" => Ok(Self::OnCompletion),
            _ => {
                if let Some(raw) = spec.strip_prefix("quantum=") {
                    let dt: f64 = raw.parse().map_err(|_| {
                        SchedError::InvalidConfig(format!("quantum `{raw}` is not a number"))
                    })?;
                    if dt > 0.0 && dt.is_finite() {
                        Ok(Self::Quantum(dt))
                    } else {
                        Err(SchedError::InvalidConfig(format!(
                            "quantum {dt} must be finite and > 0"
                        )))
                    }
                } else {
                    Err(SchedError::InvalidConfig(format!(
                        "unknown reschedule policy `{spec}` \
                         (expected on-arrival, on-completion or quantum=SECS)"
                    )))
                }
            }
        }
    }

    /// The canonical spec string (round-trips through
    /// [`ReschedulePolicy::parse`]).
    #[must_use]
    pub fn spec(&self) -> String {
        match self {
            Self::OnArrival => "on-arrival".into(),
            Self::OnCompletion => "on-completion".into(),
            Self::Quantum(dt) => format!("quantum={dt}"),
        }
    }
}

/// What the admission controller does when a job arrives and the pending
/// queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdmissionPolicy {
    /// Shed the *arriving* job (tail drop). Pending jobs keep their place.
    DropNewest,
    /// Shed the *oldest* pending job and enqueue the arrival — favours
    /// fresh work under sustained overload.
    DropOldest,
}

impl AdmissionPolicy {
    /// Parses the CLI form: `drop-newest` or `drop-oldest`.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidConfig`] on an unknown name.
    pub fn parse(spec: &str) -> Result<Self, SchedError> {
        match spec {
            "drop-newest" => Ok(Self::DropNewest),
            "drop-oldest" => Ok(Self::DropOldest),
            _ => Err(SchedError::InvalidConfig(format!(
                "unknown admission policy `{spec}` (expected drop-newest or drop-oldest)"
            ))),
        }
    }

    /// The canonical spec string.
    #[must_use]
    pub fn spec(&self) -> &'static str {
        match self {
            Self::DropNewest => "drop-newest",
            Self::DropOldest => "drop-oldest",
        }
    }
}

/// Full configuration of one online run (everything except the platform and
/// the workload source, which the caller passes alongside).
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Stream seed (arrival draws and per-job graph seeds derive from it).
    pub seed: u64,
    /// Name prefix of streamed jobs (job `i` is `{label}-{i}`).
    pub label: String,
    /// Stop streaming after this many arrivals (already-arrived jobs drain
    /// to completion). `0` is invalid.
    pub max_jobs: usize,
    /// Stop streaming at this virtual time (seconds); arrivals past it are
    /// discarded silently — they are outside the observation window, not
    /// shed. `f64::INFINITY` disables the cutoff.
    pub max_time: f64,
    /// Capacity of the pending queue; an arrival beyond it is shed.
    pub queue_cap: usize,
    /// Maximum number of jobs scheduled concurrently (the resident set);
    /// also the bound on materialised PTGs, since pending jobs hold only
    /// their index and release time.
    pub max_in_flight: usize,
    /// When the pipeline re-runs.
    pub reschedule: ReschedulePolicy,
    /// What to shed when the pending queue is full.
    pub admission: AdmissionPolicy,
    /// Base pipeline (constraint, allocation and mapping policies) applied
    /// to the resident set per event.
    pub base: SchedulerConfig,
    /// Record one [`mcsched_obs::TimeSeries`] row per rescheduling epoch
    /// (virtual time, queue depth, resident set, cumulative utilisation and
    /// shed rate) into [`crate::OnlineReport::series`]. Off by default:
    /// long runs reschedule once or more per job, and the recorder's only
    /// cost is the rows themselves. The sampled values are pure functions
    /// of simulated state, so the series is bit-exact across runs and
    /// thread counts.
    pub record_series: bool,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            label: "online".into(),
            max_jobs: 1000,
            max_time: f64::INFINITY,
            queue_cap: 32,
            max_in_flight: 8,
            reschedule: ReschedulePolicy::OnArrival,
            admission: AdmissionPolicy::DropNewest,
            base: SchedulerConfig::default(),
            record_series: false,
        }
    }
}

impl OnlineConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidConfig`] when a bound is zero or a time is
    /// negative/NaN.
    pub fn validate(&self) -> Result<(), SchedError> {
        let err = |what: String| Err(SchedError::InvalidConfig(what));
        if self.max_jobs == 0 {
            return err("online: max_jobs must be at least 1".into());
        }
        if self.queue_cap == 0 {
            return err("online: queue_cap must be at least 1".into());
        }
        if self.max_in_flight == 0 {
            return err("online: max_in_flight must be at least 1".into());
        }
        if self.max_time.is_nan() || self.max_time <= 0.0 {
            return err(format!("online: max_time {} must be > 0", self.max_time));
        }
        if let ReschedulePolicy::Quantum(dt) = self.reschedule {
            if !(dt > 0.0 && dt.is_finite()) {
                return err(format!("online: quantum {dt} must be finite and > 0"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reschedule_specs_round_trip() {
        for spec in ["on-arrival", "on-completion", "quantum=250"] {
            let policy = ReschedulePolicy::parse(spec).unwrap();
            assert_eq!(policy.spec(), spec);
        }
        assert!(ReschedulePolicy::parse("sometimes").is_err());
        assert!(ReschedulePolicy::parse("quantum=0").is_err());
        assert!(ReschedulePolicy::parse("quantum=x").is_err());
    }

    #[test]
    fn admission_specs_round_trip() {
        for spec in ["drop-newest", "drop-oldest"] {
            assert_eq!(AdmissionPolicy::parse(spec).unwrap().spec(), spec);
        }
        assert!(AdmissionPolicy::parse("drop-random").is_err());
    }

    #[test]
    fn validation_rejects_degenerate_bounds() {
        let ok = OnlineConfig::default();
        assert!(ok.validate().is_ok());
        assert!(OnlineConfig {
            max_jobs: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(OnlineConfig {
            queue_cap: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(OnlineConfig {
            max_in_flight: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(OnlineConfig {
            max_time: f64::NAN,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(OnlineConfig {
            reschedule: ReschedulePolicy::Quantum(f64::INFINITY),
            ..ok
        }
        .validate()
        .is_err());
    }
}
