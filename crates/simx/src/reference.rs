//! Frozen reference implementation of the execution semantics.
//!
//! This module is a faithful copy of the engine's event loop as it stood
//! *before* the flat-arena kernel rewrite: per-run allocations, a
//! scan-and-sort dispatch over all jobs, and route recomputation at every
//! transfer. It is deliberately naive — its value is that the semantics are
//! easy to audit line by line.
//!
//! [`reference_execute`] is the executable specification the optimized
//! [`Engine::execute`](crate::Engine::execute) is tested against: the
//! differential suite (`tests/differential.rs`) requires traces and
//! makespans to be **bit-for-bit identical** between the two on randomized
//! workloads, and `mcsched-bench simx` reports the speedup of the kernel over this
//! baseline. Do not "optimize" this module; change it only if the intended
//! semantics change, together with the engine and its golden snapshots.

use crate::error::SimError;
use crate::event::EventQueue;
use crate::flow::{max_min_fair_rates, Flow};
use crate::job::{JobId, SimWorkload};
use crate::resources::{LinkId, SiteNetwork};
use crate::trace::{ExecutionTrace, JobRecord, TransferRecord};
use crate::SimOutcome;
use mcsched_platform::Platform;

/// The pre-refactor flow network: clones every flow and reruns the full
/// progressive-filling computation from [`max_min_fair_rates`] (the
/// executable specification, shared with the optimized network's tests) at
/// every change, and scans all flows on every [`RefFlowNetwork::next_completion`].
#[derive(Debug, Clone, Default)]
struct RefFlowNetwork {
    capacities: Vec<f64>,
    /// (caller key, flow)
    flows: Vec<(usize, Flow)>,
    rates: Vec<f64>,
    last_update: f64,
}

impl RefFlowNetwork {
    fn new(capacities: Vec<f64>) -> Self {
        Self {
            capacities,
            flows: Vec::new(),
            rates: Vec::new(),
            last_update: 0.0,
        }
    }

    /// Advances all flows to time `now` and recomputes fair rates.
    fn advance(&mut self, now: f64) {
        let dt = now - self.last_update;
        if dt > 0.0 {
            for (i, (_, f)) in self.flows.iter_mut().enumerate() {
                let rate = self.rates.get(i).copied().unwrap_or(0.0);
                if rate.is_finite() {
                    f.remaining = (f.remaining - rate * dt).max(0.0);
                } else {
                    f.remaining = 0.0;
                }
            }
        }
        self.last_update = now;
    }

    fn recompute(&mut self) {
        let flows: Vec<Flow> = self.flows.iter().map(|(_, f)| f.clone()).collect();
        self.rates = max_min_fair_rates(&self.capacities, &flows);
    }

    fn start(&mut self, now: f64, key: usize, links: Vec<LinkId>, bytes: f64) {
        self.advance(now);
        self.flows.push((
            key,
            Flow {
                links,
                remaining: bytes.max(0.0),
            },
        ));
        self.recompute();
    }

    fn next_completion(&self) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for (i, (key, f)) in self.flows.iter().enumerate() {
            let rate = self.rates.get(i).copied().unwrap_or(0.0);
            let finish = if f.remaining <= 0.0 || rate.is_infinite() {
                self.last_update
            } else if rate <= 0.0 {
                f64::INFINITY
            } else {
                self.last_update + f.remaining / rate
            };
            match best {
                None => best = Some((finish, *key)),
                Some((t, _)) if finish < t => best = Some((finish, *key)),
                _ => {}
            }
        }
        best
    }

    fn complete(&mut self, now: f64, key: usize) {
        self.advance(now);
        self.flows.retain(|(k, _)| *k != key);
        self.recompute();
    }
}

/// Internal event payloads (mirrors the engine's private event type).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A job finishes and releases its processors.
    JobFinish(JobId),
    /// A transfer's latency has elapsed; its flow joins the network.
    FlowStart(usize),
    /// A job's release time is reached.
    JobRelease(JobId),
}

/// Executes `workload` on `platform` with the frozen pre-refactor event
/// loop and returns the trace.
///
/// Semantics (identical to [`crate::Engine::execute`]):
///
/// * a job starts once (a) its release time is reached, (b) every incoming
///   transfer has completed and (c) every processor of its set is idle;
/// * when several jobs are ready and contend for processors, the one with
///   the smallest `priority` (then smallest identifier) is served first;
/// * a transfer starts when its producer finishes; it pays the route
///   latency once, then shares link bandwidth with all other in-flight
///   transfers under max-min fairness.
///
/// # Errors
///
/// Propagates the validation errors of [`SimWorkload::validate`]; returns
/// [`SimError::DependencyCycle`] if the simulation deadlocks (which
/// validation normally rules out).
pub fn reference_execute(
    platform: &Platform,
    workload: &SimWorkload,
) -> Result<SimOutcome, SimError> {
    let network = SiteNetwork::new(platform);
    workload.validate(platform)?;
    let n = workload.jobs.len();
    let nt = workload.transfers.len();

    let mut deps_left = vec![0usize; n];
    let mut out_transfers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, t) in workload.transfers.iter().enumerate() {
        deps_left[t.to] += 1;
        out_transfers[t.from].push(i);
    }

    let mut released = vec![false; n];
    let mut started = vec![false; n];
    let mut finished = 0usize;

    let mut busy: Vec<Vec<bool>> = platform
        .clusters()
        .iter()
        .map(|c| vec![false; c.num_procs()])
        .collect();

    let mut job_records: Vec<Option<JobRecord>> = vec![None; n];
    let mut transfer_records: Vec<Option<TransferRecord>> = vec![None; nt];
    let mut transfer_start = vec![0.0f64; nt];

    let mut queue: EventQueue<Ev> = EventQueue::new();
    for (j, job) in workload.jobs.iter().enumerate() {
        queue.push(job.release_time.max(0.0), Ev::JobRelease(j));
    }
    let mut flows = RefFlowNetwork::new(network.capacities().to_vec());

    let mut now = 0.0f64;

    // Starts every startable job, in priority order.
    let dispatch = |now: f64,
                    released: &[bool],
                    deps_left: &[usize],
                    started: &mut [bool],
                    busy: &mut [Vec<bool>],
                    job_records: &mut [Option<JobRecord>],
                    queue: &mut EventQueue<Ev>| {
        let mut candidates: Vec<JobId> = (0..n)
            .filter(|&j| !started[j] && released[j] && deps_left[j] == 0)
            .collect();
        candidates.sort_by_key(|&j| (workload.jobs[j].priority, j));
        for j in candidates {
            let procs = &workload.jobs[j].procs;
            let cluster = procs.cluster();
            if procs.iter().all(|p| !busy[cluster][p]) {
                for p in procs.iter() {
                    busy[cluster][p] = true;
                }
                started[j] = true;
                let finish = now + workload.jobs[j].duration;
                job_records[j] = Some(JobRecord {
                    job: j,
                    start: now,
                    finish,
                });
                queue.push(finish, Ev::JobFinish(j));
            }
        }
    };

    loop {
        if finished == n {
            break;
        }
        let next_queue = queue.peek_time();
        let next_flow = flows.next_completion().map(|(t, _)| t);
        let t_next = match (next_queue, next_flow) {
            (None, None) => return Err(SimError::DependencyCycle),
            (None, Some(t)) | (Some(t), None) => t,
            (Some(tq), Some(tf)) => tq.min(tf),
        };
        now = now.max(t_next);
        // Everything scheduled within `eps` of the chosen instant is
        // processed before dispatching, so that simultaneous events
        // (e.g. two application release times) cannot let a low-priority
        // job grab processors a higher-priority one is entitled to.
        let eps = 1e-9 * now.abs().max(1.0);

        // 1. Deliver every transfer completing at this instant.
        while let Some((tf, tid)) = flows.next_completion() {
            if tf > now + eps {
                break;
            }
            flows.complete(now, tid);
            let tr = &workload.transfers[tid];
            transfer_records[tid] = Some(TransferRecord {
                transfer: tid,
                start: transfer_start[tid],
                finish: now,
                bytes: tr.bytes,
            });
            deps_left[tr.to] -= 1;
        }

        // 2. Process every queued event at this instant.
        while queue.peek_time().is_some_and(|t| t <= now + eps) {
            let ev = queue.pop().expect("peeked above");
            match ev.payload {
                Ev::JobRelease(j) => {
                    released[j] = true;
                }
                Ev::FlowStart(tid) => {
                    let tr = &workload.transfers[tid];
                    let route =
                        network.route(&workload.jobs[tr.from].procs, &workload.jobs[tr.to].procs);
                    flows.start(now, tid, route.links, tr.bytes);
                }
                Ev::JobFinish(j) => {
                    finished += 1;
                    let procs = &workload.jobs[j].procs;
                    for p in procs.iter() {
                        busy[procs.cluster()][p] = false;
                    }
                    for &tid in &out_transfers[j] {
                        let tr = &workload.transfers[tid];
                        let route = network
                            .route(&workload.jobs[tr.from].procs, &workload.jobs[tr.to].procs);
                        transfer_start[tid] = now;
                        if route.is_local() || tr.bytes <= 0.0 {
                            transfer_records[tid] = Some(TransferRecord {
                                transfer: tid,
                                start: now,
                                finish: now,
                                bytes: tr.bytes,
                            });
                            deps_left[tr.to] -= 1;
                        } else {
                            queue.push(now + route.latency, Ev::FlowStart(tid));
                        }
                    }
                }
            }
        }

        dispatch(
            now,
            &released,
            &deps_left,
            &mut started,
            &mut busy,
            &mut job_records,
            &mut queue,
        );
    }

    let trace = ExecutionTrace {
        jobs: job_records,
        transfers: transfer_records,
    };
    let makespan = trace.makespan();
    Ok(SimOutcome { trace, makespan })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::SimJob;
    use crate::Engine;
    use mcsched_platform::{PlatformBuilder, ProcSet};

    fn platform() -> Platform {
        PlatformBuilder::new("p")
            .cluster("a", 4, 1.0)
            .cluster("b", 4, 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn reference_matches_engine_on_a_mixed_workload() {
        let p = platform();
        let mut w = SimWorkload::new();
        for i in 0..6 {
            w.add_job(SimJob::new(
                ProcSet::contiguous(i % 2, (i / 2) % 4, 1),
                1.0 + i as f64,
                i as u64,
            ));
        }
        w.add_transfer(0, 3, 2.0e7);
        w.add_transfer(1, 4, 3.0e7);
        let engine = Engine::new(&p).execute(&w).unwrap();
        let reference = reference_execute(&p, &w).unwrap();
        assert_eq!(engine, reference);
    }

    #[test]
    fn reference_rejects_invalid_workloads() {
        let p = platform();
        let mut w = SimWorkload::new();
        w.add_job(SimJob::new(ProcSet::empty(0), 1.0, 0));
        assert!(reference_execute(&p, &w).is_err());
    }

    #[test]
    fn reference_rejects_non_finite_release_times() {
        let p = platform();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut w = SimWorkload::new();
            let mut job = SimJob::new(ProcSet::contiguous(0, 0, 1), 1.0, 0);
            job.release_time = bad;
            w.add_job(job);
            assert!(matches!(
                reference_execute(&p, &w),
                Err(SimError::InvalidReleaseTime { job: 0, .. })
            ));
        }
    }
}
