//! The event-driven online scheduling loop.
//!
//! ## Execution model: deterministic virtual restart
//!
//! The batch pipeline (β re-share → allocation → mapping → simulation) is a
//! *snapshot* scheduler: it plans the whole future of a fixed job set. The
//! online loop reuses it unchanged under a **virtual-restart** model. At
//! every reschedule point it re-plans the complete future of the current
//! resident set from the jobs' original arrival times, simulates that plan
//! on the shared engine, and commits only the earliest completion; any event
//! that changes the resident set (per the [`ReschedulePolicy`]) discards the
//! rest of the plan and re-plans. Completions are clamped to never precede
//! the current virtual time, so the clock is monotone.
//!
//! This avoids modelling mid-flight preemption state while still exercising
//! the full pipeline per event, and it is deterministic: the whole run is a
//! pure function of `(platform, source spec, seed, config)`.
//!
//! ## Bounded memory
//!
//! Pending jobs hold only `(index, release time)`; a PTG is materialised
//! when its job is *promoted* into the resident set and dropped the moment
//! it completes. Peak materialised graphs are therefore bounded by
//! `max_in_flight` however many jobs stream through, and a shed job never
//! generates its graph at all.
//!
//! ## One engine, many events
//!
//! The run builds one [`Engine`] and one [`ReferencePlatform`] and threads
//! them through every per-event [`ScheduleContext`] via
//! [`ScheduleContext::with_shared_engine`]: routing tables are built once
//! and the engine's scratch-arena pool stays warm across the entire run
//! (the simx kernel's pause/resume contract — no arena is rebuilt between
//! events). Likewise each job's β = 1 allocation, computed once at
//! admission for its dedicated baseline, is handed to every later
//! context ([`ScheduleContext::with_dedicated_allocations`]), so a re-plan
//! resumes each resident's allocation from its SCRAP trial log. The log
//! also remembers the allocations it resumed, by threshold: a resident
//! whose β is the one an earlier re-plan gave it (under equal share, the
//! resident count did not change) gets that allocation back without a
//! grant ([`mcsched_core::allocation::ScrapLog::resume`]).

use crate::config::{AdmissionPolicy, OnlineConfig, ReschedulePolicy};
use crate::metrics::{AdmissionCounters, JobOutcome, OnlineReport, SERIES_COLUMNS};
use mcsched_core::{
    slowdown, ConcurrentScheduler, DedicatedAllocation, ReferencePlatform, SchedError,
    ScheduleContext,
};
use mcsched_obs::TimeSeries;
use mcsched_platform::Platform;
use mcsched_ptg::Ptg;
use mcsched_simx::Engine;
use mcsched_workload::{Arrival, JobStream, StreamRequest, WorkloadSource};
use std::collections::VecDeque;
use std::sync::Arc;

/// Bookkeeping of one resident (admitted, scheduled, not yet completed) job.
#[derive(Debug, Clone)]
struct Resident {
    index: u64,
    arrival: f64,
    dedicated: f64,
    /// The job's β = 1 allocation, computed at admission for its dedicated
    /// baseline; every re-plan derives the job's allocation from it.
    allocation: Arc<DedicatedAllocation>,
    /// Committed absolute finish from the last simulation (`None` while the
    /// job had not fully started within a capped horizon).
    finish: Option<f64>,
    /// Busy processor-seconds of the job in the last simulation.
    busy: f64,
}

/// The next event the loop will process.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// Resident at position `.1` completes at time `.0`.
    Completion(f64, usize),
    /// The peeked stream arrival is released.
    Arrival,
    /// A quantum boundary at time `.0`.
    Quantum(f64),
    /// No event is pending but residents exist without a committed finish
    /// (safety valve; see `select_event`).
    Replan,
    /// The system is drained.
    Done,
}

/// The online scheduler: owns a platform reference and a run configuration,
/// and drives a [`WorkloadSource`] stream through the event loop.
#[derive(Debug)]
pub struct OnlineScheduler<'p> {
    platform: &'p Platform,
    config: OnlineConfig,
}

impl<'p> OnlineScheduler<'p> {
    /// Builds a scheduler after validating the configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`OnlineConfig::validate`].
    pub fn new(platform: &'p Platform, config: OnlineConfig) -> Result<Self, SchedError> {
        config.validate()?;
        Ok(Self { platform, config })
    }

    /// The run configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Runs the full online loop over `source`'s job stream and returns the
    /// open-system report. Deterministic: equal `(platform, source, config)`
    /// produce equal reports.
    ///
    /// # Errors
    ///
    /// Propagates streaming/validation errors from the source and pipeline
    /// errors from the scheduler (the latter indicate bugs).
    pub fn run(&self, source: &dyn WorkloadSource) -> Result<OnlineReport, SchedError> {
        let engine = Engine::new(self.platform);
        let reference = ReferencePlatform::new(self.platform);
        let scheduler = ConcurrentScheduler::new(self.config.base.clone());
        let stream = source.stream(&StreamRequest::new(
            self.config.seed,
            self.config.label.clone(),
        ))?;
        let total_procs = self.platform.total_procs() as f64;
        let mut state = LoopState {
            cfg: &self.config,
            engine: &engine,
            reference: &reference,
            scheduler: &scheduler,
            stream,
            pending: VecDeque::new(),
            res_meta: Vec::new(),
            res_ptgs: Vec::new(),
            next_arrival: None,
            streamed: 0,
            now: 0.0,
            depth_integral: 0.0,
            busy_total: 0.0,
            reschedules: 0,
            counters: AdmissionCounters::default(),
            outcomes: Vec::new(),
            total_procs,
            series: TimeSeries::new(&SERIES_COLUMNS),
        };
        state.next_arrival = state.pull();
        state.drive()?;
        let elapsed = state.now;
        Ok(OnlineReport {
            name: format!(
                "{}/{}",
                self.config.base.constraint.name(),
                self.config.reschedule.spec()
            ),
            avg_queue_depth: if elapsed > 0.0 {
                state.depth_integral / elapsed
            } else {
                0.0
            },
            utilization: if elapsed > 0.0 && total_procs > 0.0 {
                state.busy_total / (total_procs * elapsed)
            } else {
                0.0
            },
            busy_proc_seconds: state.busy_total,
            elapsed,
            reschedules: state.reschedules,
            counters: state.counters,
            jobs: state.outcomes,
            series: state.series,
        })
    }
}

/// All mutable state of one run, borrowed around the shared engine.
struct LoopState<'e, 'p> {
    cfg: &'e OnlineConfig,
    engine: &'e Engine<'p>,
    reference: &'e ReferencePlatform,
    scheduler: &'e ConcurrentScheduler,
    stream: Box<dyn JobStream>,
    /// Admission queue: `(index, release time)` only — no graphs.
    pending: VecDeque<(u64, f64)>,
    /// Resident bookkeeping, parallel to `res_ptgs`, in admission order.
    res_meta: Vec<Resident>,
    /// Materialised graphs of the resident set.
    res_ptgs: Vec<Ptg>,
    /// The peeked next arrival (timing only; not yet materialised).
    next_arrival: Option<Arrival>,
    /// Arrivals released inside the observation window so far.
    streamed: usize,
    now: f64,
    /// ∫ pending-depth dt, for the time-weighted average queue depth.
    depth_integral: f64,
    busy_total: f64,
    reschedules: u64,
    counters: AdmissionCounters,
    outcomes: Vec<JobOutcome>,
    /// Total platform processors, for the cumulative-utilisation sample.
    total_procs: f64,
    /// Per-epoch samples ([`SERIES_COLUMNS`]); stays empty unless
    /// `cfg.record_series` is set.
    series: TimeSeries,
}

impl LoopState<'_, '_> {
    /// Pulls the next arrival from the stream, honouring the `max_jobs` and
    /// `max_time` observation window (arrivals are non-decreasing, so the
    /// first one past `max_time` closes the stream).
    fn pull(&mut self) -> Option<Arrival> {
        if self.streamed >= self.cfg.max_jobs {
            return None;
        }
        let arrival = self.stream.next_arrival()?;
        if arrival.release_time > self.cfg.max_time {
            return None;
        }
        self.streamed += 1;
        Some(arrival)
    }

    /// Advances virtual time, accumulating the queue-depth integral.
    fn advance_to(&mut self, t: f64) {
        if t > self.now {
            self.depth_integral += self.pending.len() as f64 * (t - self.now);
            self.now = t;
        }
    }

    /// Picks the next event: earliest committed completion, then the peeked
    /// arrival, then a quantum boundary (ties in that priority order, so a
    /// completion frees capacity before a simultaneous arrival is queued).
    fn select_event(&self) -> Event {
        let mut completion: Option<(f64, usize)> = None;
        for (pos, r) in self.res_meta.iter().enumerate() {
            if let Some(f) = r.finish {
                let t = f.max(self.now);
                if completion.is_none_or(|(best, _)| t < best) {
                    completion = Some((t, pos));
                }
            }
        }
        let arrival = self.next_arrival.map(|a| a.release_time);
        let quantum = match self.cfg.reschedule {
            ReschedulePolicy::Quantum(dt) if !self.pending.is_empty() => {
                let mut t = ((self.now / dt).floor() + 1.0) * dt;
                if t <= self.now {
                    t = self.now + dt;
                }
                Some(t)
            }
            _ => None,
        };
        let mut best = Event::Done;
        let mut best_t = f64::INFINITY;
        if let Some(t) = quantum {
            if t < best_t {
                best = Event::Quantum(t);
                best_t = t;
            }
        }
        if let Some(t) = arrival {
            if t <= best_t {
                best = Event::Arrival;
                best_t = t;
            }
        }
        if let Some((t, pos)) = completion {
            if t <= best_t {
                best = Event::Completion(t, pos);
            }
        }
        if best == Event::Done && !self.res_meta.is_empty() {
            // Residents without a committed finish and no arrival to cap the
            // horizon: re-plan with an infinite horizon. (Unreachable under
            // the loop invariants, kept as a liveness safety valve.)
            return Event::Replan;
        }
        best
    }

    /// The main loop: process events until the stream is closed and the
    /// system has drained.
    fn drive(&mut self) -> Result<(), SchedError> {
        loop {
            // An empty resident set with queued work schedules immediately
            // (no policy waits on an idle system).
            if self.res_meta.is_empty() && !self.pending.is_empty() {
                self.reschedule()?;
                continue;
            }
            let event = {
                let _g = mcsched_obs::span!("online-loop");
                self.select_event()
            };
            match event {
                Event::Done => return Ok(()),
                Event::Replan => self.reschedule()?,
                Event::Quantum(t) => {
                    {
                        let _g = mcsched_obs::span!("online-loop");
                        self.advance_to(t);
                    }
                    self.reschedule()?;
                }
                Event::Arrival => {
                    let reschedule = {
                        let _g = mcsched_obs::span!("online-loop");
                        let arrival = self.next_arrival.expect("selected arrival exists");
                        self.advance_to(arrival.release_time);
                        self.enqueue(arrival);
                        self.next_arrival = self.pull();
                        self.cfg.reschedule == ReschedulePolicy::OnArrival
                    };
                    if reschedule {
                        self.reschedule()?;
                    }
                }
                Event::Completion(t, pos) => {
                    let reschedule = {
                        let _g = mcsched_obs::span!("online-loop");
                        self.advance_to(t);
                        self.complete(pos);
                        matches!(
                            self.cfg.reschedule,
                            ReschedulePolicy::OnArrival | ReschedulePolicy::OnCompletion
                        )
                    };
                    if reschedule && !(self.res_meta.is_empty() && self.pending.is_empty()) {
                        self.reschedule()?;
                    }
                }
            }
        }
    }

    /// Queues one arrival, shedding per the admission policy when the
    /// pending queue is at capacity.
    fn enqueue(&mut self, arrival: Arrival) {
        self.counters.arrivals += 1;
        if self.pending.len() >= self.cfg.queue_cap {
            self.counters.shed += 1;
            match self.cfg.admission {
                AdmissionPolicy::DropNewest => return,
                AdmissionPolicy::DropOldest => {
                    self.pending.pop_front();
                }
            }
        }
        self.pending
            .push_back((arrival.index, arrival.release_time));
        self.counters.peak_pending = self.counters.peak_pending.max(self.pending.len());
    }

    /// Records the completion of the resident at `pos` at the (already
    /// advanced) current time and drops its graph.
    fn complete(&mut self, pos: usize) {
        let meta = self.res_meta.remove(pos);
        drop(self.res_ptgs.remove(pos));
        self.counters.completed += 1;
        self.busy_total += meta.busy;
        let response = (self.now - meta.arrival).max(0.0);
        let stretch = if meta.dedicated > 0.0 {
            response / meta.dedicated
        } else {
            1.0
        };
        self.outcomes.push(JobOutcome {
            index: meta.index,
            arrival: meta.arrival,
            completion: self.now,
            response,
            dedicated: meta.dedicated,
            stretch,
            slowdown: slowdown(meta.dedicated, response),
        });
    }

    /// Samples the post-admission state of this rescheduling epoch: obs
    /// metrics always (relaxed atomics), one time-series row when the
    /// config asks for it. Every value is a pure function of virtual state,
    /// so the series is bit-exact across runs and thread counts.
    fn sample_epoch(&mut self) {
        mcsched_obs::histogram!("online.queue_depth").record(self.pending.len() as u64);
        mcsched_obs::gauge!("online.resident").set(self.res_meta.len() as u64);
        if !self.cfg.record_series {
            return;
        }
        let utilization = if self.now > 0.0 && self.total_procs > 0.0 {
            self.busy_total / (self.total_procs * self.now)
        } else {
            0.0
        };
        let shed_rate = if self.counters.arrivals > 0 {
            self.counters.shed as f64 / self.counters.arrivals as f64
        } else {
            0.0
        };
        self.series.push(&[
            self.now,
            self.pending.len() as f64,
            self.res_meta.len() as f64,
            utilization,
            shed_rate,
        ]);
    }

    /// Admits pending jobs into free resident slots, then re-runs the full
    /// pipeline for the resident set (the virtual restart) and refreshes the
    /// committed finish times.
    fn reschedule(&mut self) -> Result<(), SchedError> {
        self.reschedules += 1;
        while self.res_meta.len() < self.cfg.max_in_flight {
            let Some((index, release_time)) = self.pending.pop_front() else {
                break;
            };
            let arrival = Arrival {
                index,
                release_time,
            };
            let ptg = {
                let _g = mcsched_obs::span!("workload-gen");
                self.stream.materialize(&arrival)
            };
            let (dedicated, allocation) = {
                let slice = std::slice::from_ref(&ptg);
                let ctx = ScheduleContext::with_shared_engine(
                    self.engine,
                    self.reference,
                    slice,
                    self.cfg.base.clone(),
                );
                (ctx.dedicated_makespan(0)?, ctx.dedicated_allocation(0))
            };
            self.res_ptgs.push(ptg);
            self.res_meta.push(Resident {
                index,
                arrival: release_time,
                dedicated,
                allocation,
                finish: None,
                busy: 0.0,
            });
            self.counters.admitted += 1;
        }
        self.counters.peak_resident = self.counters.peak_resident.max(self.res_ptgs.len());
        self.sample_epoch();
        if self.res_meta.is_empty() {
            return Ok(());
        }

        let release_times: Vec<f64> = self.res_meta.iter().map(|r| r.arrival).collect();
        let ctx = ScheduleContext::with_shared_engine(
            self.engine,
            self.reference,
            &self.res_ptgs,
            self.cfg.base.clone(),
        )
        .with_dedicated_allocations(
            self.res_meta
                .iter()
                .map(|r| Arc::clone(&r.allocation))
                .collect(),
        );
        let allocations = self.scheduler.allocate_in(&ctx);
        let schedule = ctx.map_with(
            self.scheduler.config().mapping.as_ref(),
            &allocations,
            &release_times,
        );
        // Under on-arrival rescheduling, any plan beyond the next arrival is
        // guaranteed to be recomputed, so the simulation pauses there.
        let horizon = match self.cfg.reschedule {
            ReschedulePolicy::OnArrival => {
                self.next_arrival.map_or(f64::INFINITY, |a| a.release_time)
            }
            _ => f64::INFINITY,
        };
        let outcome = {
            let _g = mcsched_obs::span!("simx-execute");
            self.engine
                .execute_until(&schedule.workload, horizon)
                .map_err(SchedError::from)?
        };
        for (i, r) in self.res_meta.iter_mut().enumerate() {
            let jobs = schedule.app_jobs(i);
            // A resident whose tasks all started has an exact (committed)
            // finish even past the horizon; otherwise its finish is unknown
            // until the next re-plan.
            if jobs.iter().all(|&j| outcome.trace.job(j).is_some()) {
                r.finish = Some(outcome.trace.makespan_of(jobs.iter().copied()));
                r.busy = jobs
                    .iter()
                    .map(|&j| {
                        let rec = outcome.trace.job(j).expect("checked above");
                        let procs = schedule.workload.jobs[j].procs.len();
                        (rec.finish - rec.start) * procs as f64
                    })
                    .sum();
            } else {
                r.finish = None;
                r.busy = 0.0;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_platform::grid5000;
    use mcsched_workload::{AppGenerator, ArrivalProcess, DaggenConfig, GeneratorSource};

    fn source(lambda: f64) -> GeneratorSource {
        GeneratorSource::new(AppGenerator::Daggen(DaggenConfig::new(8)))
            .with_arrival(ArrivalProcess::Poisson { lambda })
    }

    fn config(max_jobs: usize) -> OnlineConfig {
        OnlineConfig {
            max_jobs,
            ..OnlineConfig::default()
        }
    }

    #[test]
    fn run_is_deterministic() {
        let platform = grid5000::lille();
        let sched = OnlineScheduler::new(&platform, config(40)).unwrap();
        let a = sched.run(&source(0.01)).unwrap();
        let b = sched.run(&source(0.01)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.counters.arrivals, 40);
        assert_eq!(a.counters.completed + a.counters.shed, 40);
        // Off by default: no per-epoch rows are retained.
        assert!(a.series.is_empty());
    }

    #[test]
    fn series_records_one_row_per_epoch_bit_exactly() {
        let platform = grid5000::lille();
        let cfg = OnlineConfig {
            record_series: true,
            ..config(30)
        };
        let sched = OnlineScheduler::new(&platform, cfg).unwrap();
        let a = sched.run(&source(0.01)).unwrap();
        let b = sched.run(&source(0.01)).unwrap();
        assert_eq!(a.series.columns(), SERIES_COLUMNS);
        assert_eq!(a.series.len() as u64, a.reschedules);
        assert_eq!(a.series.to_csv(), b.series.to_csv());
        let last = a.series.rows().last().expect("at least one epoch");
        // Virtual time is monotone and the sampled depths respect the caps.
        let mut t = 0.0;
        for row in a.series.rows() {
            assert!(row[0] >= t);
            t = row[0];
            assert!(row[1] <= a.counters.peak_pending as f64);
            assert!(row[2] <= a.counters.peak_resident as f64);
        }
        assert!(last[4] <= 1.0);
    }

    #[test]
    fn every_policy_drains_the_system() {
        let platform = grid5000::lille();
        for reschedule in [
            ReschedulePolicy::OnArrival,
            ReschedulePolicy::OnCompletion,
            ReschedulePolicy::Quantum(500.0),
        ] {
            let cfg = OnlineConfig {
                reschedule,
                ..config(25)
            };
            let sched = OnlineScheduler::new(&platform, cfg).unwrap();
            let report = sched.run(&source(0.005)).unwrap();
            assert_eq!(
                report.counters.completed + report.counters.shed,
                25,
                "{}",
                reschedule.spec()
            );
            assert!(report.elapsed > 0.0);
            // Completions never precede arrivals and the clock is monotone.
            let mut last = 0.0;
            for job in &report.jobs {
                assert!(job.completion >= job.arrival);
                assert!(job.completion >= last);
                last = job.completion;
            }
        }
    }

    #[test]
    fn overload_sheds_deterministically_instead_of_growing_the_queue() {
        let platform = grid5000::lille();
        let cfg = OnlineConfig {
            queue_cap: 4,
            max_in_flight: 2,
            ..config(200)
        };
        let sched = OnlineScheduler::new(&platform, cfg).unwrap();
        // λ = 1 job/s is far above what lille can drain.
        let a = sched.run(&source(1.0)).unwrap();
        let b = sched.run(&source(1.0)).unwrap();
        assert!(a.counters.shed > 0, "overload must shed");
        assert!(a.counters.peak_pending <= 4);
        assert_eq!(a.counters.shed, b.counters.shed);
        assert_eq!(a, b);
    }

    #[test]
    fn resident_graphs_stay_bounded() {
        let platform = grid5000::lille();
        let cfg = OnlineConfig {
            queue_cap: 8,
            max_in_flight: 3,
            ..config(60)
        };
        let sched = OnlineScheduler::new(&platform, cfg).unwrap();
        let report = sched.run(&source(0.05)).unwrap();
        assert!(report.counters.peak_resident <= 3);
        assert!(report.counters.peak_pending <= 8);
    }

    #[test]
    fn drop_oldest_prefers_fresh_work() {
        let platform = grid5000::lille();
        let base = OnlineConfig {
            queue_cap: 2,
            max_in_flight: 1,
            ..config(80)
        };
        let newest = OnlineScheduler::new(
            &platform,
            OnlineConfig {
                admission: AdmissionPolicy::DropNewest,
                ..base.clone()
            },
        )
        .unwrap()
        .run(&source(0.5))
        .unwrap();
        let oldest = OnlineScheduler::new(
            &platform,
            OnlineConfig {
                admission: AdmissionPolicy::DropOldest,
                ..base
            },
        )
        .unwrap()
        .run(&source(0.5))
        .unwrap();
        assert!(newest.counters.shed > 0 && oldest.counters.shed > 0);
        // Same λ, same stream: the completed job *sets* differ by policy.
        let idx = |r: &OnlineReport| r.jobs.iter().map(|j| j.index).collect::<Vec<_>>();
        assert_ne!(idx(&newest), idx(&oldest));
    }

    #[test]
    fn stretch_and_slowdown_are_reciprocal_views() {
        let platform = grid5000::lille();
        let sched = OnlineScheduler::new(&platform, config(20)).unwrap();
        let report = sched.run(&source(0.02)).unwrap();
        for job in &report.jobs {
            assert!(job.stretch >= 0.0);
            assert!(job.slowdown > 0.0 && job.slowdown <= job.dedicated / job.response + 1e-12);
            if job.response > 0.0 && job.dedicated > 0.0 {
                assert!((job.stretch * job.slowdown - 1.0).abs() < 1e-9);
            }
        }
    }
}
