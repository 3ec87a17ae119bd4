//! `mcsched_online` — event-driven *online* scheduling service over the
//! batch pipeline: streamed arrivals, admission control with backpressure,
//! and open-system metrics.
//!
//! The paper evaluates its constraint strategies in closed *snapshots*: a
//! fixed set of PTGs submitted together, judged by fairness at the end.
//! This crate puts the identical pipeline (β re-share → allocation →
//! mapping → simx) behind an open-system event loop instead:
//!
//! * [`OnlineScheduler`] pulls arrivals lazily from a
//!   [`mcsched_workload::JobStream`] — graphs are materialised only when a
//!   job is admitted into the resident set and dropped on completion, so a
//!   run over 10⁵ jobs holds at most `max_in_flight` PTGs at once;
//! * a bounded pending queue sheds deterministically under overload
//!   ([`AdmissionPolicy`]), and every reschedule re-runs the full pipeline
//!   for the resident set on a shared warm [`mcsched_simx::Engine`]
//!   ([`ReschedulePolicy`] decides when);
//! * completed jobs are judged by open-system metrics — response, stretch,
//!   per-job slowdown, shed rate, queue depth and utilisation
//!   ([`OnlineReport`], rendered per run by [`report`]).
//!
//! Everything is deterministic: a run is a pure function of
//! `(platform, source, config)`. Campaigns — strategies × replications on
//! shared streams, with paired stretch verdicts — run in the experiment
//! harness (`mcsched_exp::online`), on the same seed derivation and worker
//! pool as the batch figures.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod metrics;
pub mod report;
pub mod scheduler;

pub use config::{AdmissionPolicy, OnlineConfig, ReschedulePolicy};
pub use metrics::{AdmissionCounters, JobOutcome, OnlineReport, SERIES_COLUMNS};
pub use scheduler::OnlineScheduler;
