//! The discrete-event execution engine.
//!
//! The event loop is built for campaign-scale throughput: a simulation
//! executes tens of thousands of times per experiment, so the kernel keeps
//! every per-run structure in a reusable `EngineScratch` (popped from a
//! pool on the engine, so concurrent callers each get their own), feeds a
//! sorted *ready set* incrementally instead of rescanning and re-sorting all
//! jobs at every step, memoizes routes per cluster pair and per transfer,
//! and reads the flow network's cached completion horizon instead of
//! recomputing it. The observable semantics are identical — bit for bit —
//! to the frozen naive implementation in [`crate::reference`], which the
//! differential test suite enforces on randomized workloads.

use crate::error::SimError;
use crate::event::EventQueue;
use crate::flow::{FlowNetwork, MAX_ROUTE_LINKS};
use crate::job::{JobId, SimJob, SimWorkload};
use crate::resources::{LinkId, SiteNetwork};
use crate::trace::{ExecutionTrace, JobRecord, TransferRecord};
use mcsched_platform::{Platform, ProcSet};
use std::sync::{Mutex, PoisonError};

/// Outcome of a simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Per-job and per-transfer records.
    pub trace: ExecutionTrace,
    /// Completion time of the last job, in seconds.
    pub makespan: f64,
}

/// Outcome of a horizon-capped execution ([`Engine::execute_until`]): the
/// state of the run at the first event instant past the horizon.
///
/// Job records present in `trace` are *committed starts* — the engine is
/// non-preemptive, so a recorded `(start, finish)` pair is exact even when
/// `finish` lies beyond the horizon. Jobs without a record had not started
/// when the run was paused.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialOutcome {
    /// Per-job and per-transfer records (unstarted jobs / undelivered
    /// transfers are `None`).
    pub trace: ExecutionTrace,
    /// Number of jobs whose finish event was processed within the horizon.
    pub finished_jobs: usize,
    /// Whether every job finished (the run was not actually cut short).
    pub complete: bool,
    /// Latest committed finish time (0 when nothing started).
    pub makespan: f64,
}

/// Internal event payloads.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A job finishes and releases its processors.
    JobFinish(JobId),
    /// A transfer's latency has elapsed; its flow joins the network.
    FlowStart(usize),
    /// A job's release time is reached.
    JobRelease(JobId),
}

/// A memoized route: inline link list plus the one-shot latency.
///
/// `num_links == 0` means the route is local (no network involved), matching
/// [`crate::Route::is_local`].
#[derive(Debug, Clone, Copy)]
struct FlatRoute {
    links: [LinkId; MAX_ROUTE_LINKS],
    num_links: u8,
    latency: f64,
}

impl FlatRoute {
    const LOCAL: FlatRoute = FlatRoute {
        links: [0; MAX_ROUTE_LINKS],
        num_links: 0,
        latency: 0.0,
    };

    fn from_route(route: &crate::Route) -> Self {
        let mut links = [0usize; MAX_ROUTE_LINKS];
        links[..route.links.len()].copy_from_slice(&route.links);
        Self {
            links,
            num_links: route.links.len() as u8,
            latency: route.latency,
        }
    }

    fn is_local(&self) -> bool {
        self.num_links == 0
    }

    fn links(&self) -> &[LinkId] {
        &self.links[..self.num_links as usize]
    }
}

/// Reusable per-run state. All vectors are cleared-and-resized at the start
/// of a run, so once a scratch is warm an execution allocates only its
/// output trace.
#[derive(Debug, Default)]
struct EngineScratch {
    /// Incoming transfers not yet delivered, per job.
    deps_left: Vec<u32>,
    /// CSR offsets/items of outgoing transfer indices per job.
    out_off: Vec<u32>,
    out_items: Vec<u32>,
    /// CSR fill cursors (only used while building the CSR).
    out_cursor: Vec<u32>,
    /// Whether each job's release time has been reached.
    released: Vec<bool>,
    /// Flat per-processor busy flags (indexed by cluster offset + proc).
    busy: Vec<bool>,
    /// Jobs that are released, have no pending dependency and have not
    /// started, sorted by `(priority, id)` — the dispatch order.
    ready: Vec<JobId>,
    /// Value of the job's cluster epoch when it was last found blocked
    /// (`u64::MAX` = never). While the epoch is unchanged no processor of
    /// the cluster has been freed, so the job is still blocked and its
    /// processor check can be skipped.
    blocked_at: Vec<u64>,
    /// Bumped every time a job finish frees processors on the cluster.
    cluster_epoch: Vec<u64>,
    /// Start instant of each transfer (producer finish time).
    transfer_start: Vec<f64>,
    /// Memoized route of each transfer.
    transfer_routes: Vec<FlatRoute>,
    queue: EventQueue<Ev>,
    flows: FlowNetwork,
    /// Whether `flows` has been initialised with the engine's capacities.
    flows_ready: bool,
}

impl EngineScratch {
    fn reset(&mut self, n: usize, nt: usize, total_procs: usize, nc: usize, capacities: &[f64]) {
        self.deps_left.clear();
        self.deps_left.resize(n, 0);
        self.out_off.clear();
        self.out_off.resize(n + 1, 0);
        self.out_items.clear();
        self.out_items.resize(nt, 0);
        self.out_cursor.clear();
        self.released.clear();
        self.released.resize(n, false);
        self.busy.clear();
        self.busy.resize(total_procs, false);
        self.ready.clear();
        self.blocked_at.clear();
        self.blocked_at.resize(n, u64::MAX);
        self.cluster_epoch.clear();
        self.cluster_epoch.resize(nc, 0);
        self.transfer_start.clear();
        self.transfer_start.resize(nt, 0.0);
        self.transfer_routes.clear();
        self.queue.clear();
        if self.flows_ready {
            self.flows.reset();
        } else {
            self.flows = FlowNetwork::new(capacities.to_vec());
            self.flows_ready = true;
        }
    }

    /// Inserts `j` into the ready set at its `(priority, id)` rank.
    fn insert_ready(&mut self, jobs: &[SimJob], j: JobId) {
        let key = (jobs[j].priority, j);
        let pos = self.ready.partition_point(|&x| (jobs[x].priority, x) < key);
        self.ready.insert(pos, j);
    }
}

/// Discrete-event engine executing a [`SimWorkload`] on a [`Platform`].
///
/// Semantics:
///
/// * a job starts once (a) its release time is reached, (b) every incoming
///   transfer has completed and (c) every processor of its set is idle;
/// * when several jobs are ready and contend for processors, the one with the
///   smallest `priority` (then smallest identifier) is served first;
/// * a transfer starts when its producer finishes; it pays the route latency
///   once, then shares link bandwidth with all other in-flight transfers
///   under max-min fairness.
#[derive(Debug)]
pub struct Engine<'a> {
    platform: &'a Platform,
    network: SiteNetwork,
    /// Index of each cluster's first processor in the flat busy array.
    cluster_offsets: Vec<usize>,
    total_procs: usize,
    /// Route for each (source cluster, destination cluster) pair, flattened
    /// row-major; the diagonal holds the intra-cluster route (used when the
    /// two processor sets differ — identical sets are local).
    pair_routes: Vec<FlatRoute>,
    /// Scratch pool: `execute` is callable through a shared reference from
    /// many threads, so each call pops its own scratch (or builds one) and
    /// returns it afterwards. The lock is held only for the pop/push.
    scratch: Mutex<Vec<EngineScratch>>,
}

impl<'a> Engine<'a> {
    /// Creates an engine for the given platform.
    pub fn new(platform: &'a Platform) -> Self {
        let network = SiteNetwork::new(platform);
        let nc = platform.num_clusters();
        let mut cluster_offsets = Vec::with_capacity(nc);
        let mut total_procs = 0usize;
        for c in platform.clusters() {
            cluster_offsets.push(total_procs);
            total_procs += c.num_procs();
        }
        // Memoize the route of every cluster pair by asking the network for
        // representative processor sets (distinct sets on the diagonal, so
        // the diagonal holds the intra-cluster route, not the local one).
        let mut pair_routes = Vec::with_capacity(nc * nc);
        for c1 in 0..nc {
            for c2 in 0..nc {
                let (src, dst) = if c1 == c2 {
                    (ProcSet::empty(c1), ProcSet::contiguous(c2, 0, 1))
                } else {
                    (ProcSet::contiguous(c1, 0, 1), ProcSet::contiguous(c2, 0, 1))
                };
                pair_routes.push(FlatRoute::from_route(&network.route(&src, &dst)));
            }
        }
        Self {
            network,
            platform,
            cluster_offsets,
            total_procs,
            pair_routes,
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// The flattened site network used for routing and contention.
    pub fn network(&self) -> &SiteNetwork {
        &self.network
    }

    /// The platform this engine simulates.
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// Executes the workload and returns the trace.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`SimWorkload::validate`]; returns
    /// [`SimError::DependencyCycle`] if the simulation deadlocks (which
    /// validation normally rules out).
    pub fn execute(&self, workload: &SimWorkload) -> Result<SimOutcome, SimError> {
        let outcome = self.execute_until(workload, f64::INFINITY)?;
        debug_assert!(outcome.complete, "uncapped run must complete");
        Ok(SimOutcome {
            trace: outcome.trace,
            makespan: outcome.makespan,
        })
    }

    /// Executes the workload up to a virtual-time `horizon`: the event loop
    /// pauses (scratch returned to the pool, no arena rebuilt) as soon as
    /// the next pending event lies strictly beyond the horizon. The prefix
    /// processed within the horizon is bit-identical to the corresponding
    /// prefix of an uncapped [`Engine::execute`] run — the online scheduler
    /// uses this to advance a committed schedule only as far as the next
    /// arrival can invalidate it. `f64::INFINITY` reproduces `execute`
    /// exactly.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::execute`].
    ///
    /// # Panics
    ///
    /// When `horizon` is NaN.
    pub fn execute_until(
        &self,
        workload: &SimWorkload,
        horizon: f64,
    ) -> Result<PartialOutcome, SimError> {
        assert!(!horizon.is_nan(), "horizon must not be NaN");
        workload.validate(self.platform)?;
        let mut scratch = self
            .scratch
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        let result = self.run_until(workload, &mut scratch, horizon);
        self.scratch
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(scratch);
        result
    }

    /// The event loop proper, operating on a (reused) scratch.
    fn run_until(
        &self,
        workload: &SimWorkload,
        s: &mut EngineScratch,
        horizon: f64,
    ) -> Result<PartialOutcome, SimError> {
        let n = workload.jobs.len();
        let nt = workload.transfers.len();
        let nc = self.platform.num_clusters();
        s.reset(n, nt, self.total_procs, nc, self.network.capacities());

        // Dependency counts and the CSR of outgoing transfers per producer
        // (per-producer order = increasing transfer index, matching the
        // naive per-job vectors).
        for t in &workload.transfers {
            s.deps_left[t.to] += 1;
            s.out_off[t.from + 1] += 1;
        }
        for j in 0..n {
            s.out_off[j + 1] += s.out_off[j];
        }
        s.out_cursor.extend_from_slice(&s.out_off[..n]);
        for (i, t) in workload.transfers.iter().enumerate() {
            let slot = s.out_cursor[t.from];
            s.out_items[slot as usize] = i as u32;
            s.out_cursor[t.from] += 1;
        }

        // Memoize every transfer's route up front (the naive loop recomputed
        // it at producer finish and again at flow start).
        for t in &workload.transfers {
            let src = &workload.jobs[t.from].procs;
            let dst = &workload.jobs[t.to].procs;
            let route = if src.cluster() == dst.cluster() && src == dst {
                FlatRoute::LOCAL
            } else {
                self.pair_routes[src.cluster() * nc + dst.cluster()]
            };
            s.transfer_routes.push(route);
        }

        let mut finished = 0usize;
        let mut job_records: Vec<Option<JobRecord>> = vec![None; n];
        let mut transfer_records: Vec<Option<TransferRecord>> = vec![None; nt];

        for (j, job) in workload.jobs.iter().enumerate() {
            s.queue.push(job.release_time.max(0.0), Ev::JobRelease(j));
        }

        let mut now = 0.0f64;
        // The ready set and the busy map only change on the flagged paths
        // below; while the flag is clear a dispatch could not start anything.
        let mut dispatch_dirty = false;
        // Event and flow-network accounting stays in locals and is flushed
        // to the obs registry once per run, keeping the loop body free of
        // atomics. Every flow start or completion recomputes the fair rates.
        let mut events = 0u64;
        let mut flow_recomputes = 0u64;
        let mut flows_peak = 0usize;

        loop {
            if finished == n {
                break;
            }
            let next_queue = s.queue.peek_time();
            let next_flow = s.flows.next_completion().map(|(t, _)| t);
            let t_next = match (next_queue, next_flow) {
                (None, None) => return Err(SimError::DependencyCycle),
                (None, Some(t)) | (Some(t), None) => t,
                (Some(tq), Some(tf)) => tq.min(tf),
            };
            if t_next > horizon {
                break;
            }
            now = now.max(t_next);
            // Everything scheduled within `eps` of the chosen instant is
            // processed before dispatching, so that simultaneous events
            // (e.g. two application release times) cannot let a low-priority
            // job grab processors a higher-priority one is entitled to.
            let eps = 1e-9 * now.abs().max(1.0);

            // 1. Deliver every transfer completing at this instant.
            while let Some((tf, tid)) = s.flows.next_completion() {
                if tf > now + eps {
                    break;
                }
                s.flows.complete(now, tid);
                events += 1;
                flow_recomputes += 1;
                let tr = &workload.transfers[tid];
                transfer_records[tid] = Some(TransferRecord {
                    transfer: tid,
                    start: s.transfer_start[tid],
                    finish: now,
                    bytes: tr.bytes,
                });
                s.deps_left[tr.to] -= 1;
                if s.deps_left[tr.to] == 0 && s.released[tr.to] {
                    s.insert_ready(&workload.jobs, tr.to);
                    dispatch_dirty = true;
                }
            }

            // 2. Process every queued event at this instant.
            while s.queue.peek_time().is_some_and(|t| t <= now + eps) {
                let ev = s.queue.pop().expect("peeked above");
                events += 1;
                match ev.payload {
                    Ev::JobRelease(j) => {
                        s.released[j] = true;
                        if s.deps_left[j] == 0 {
                            s.insert_ready(&workload.jobs, j);
                            dispatch_dirty = true;
                        }
                    }
                    Ev::FlowStart(tid) => {
                        let route = s.transfer_routes[tid];
                        s.flows
                            .start(now, tid, route.links(), workload.transfers[tid].bytes);
                        flow_recomputes += 1;
                        flows_peak = flows_peak.max(s.flows.len());
                    }
                    Ev::JobFinish(j) => {
                        finished += 1;
                        let procs = &workload.jobs[j].procs;
                        let cluster = procs.cluster();
                        let base = self.cluster_offsets[cluster];
                        for p in procs.iter() {
                            s.busy[base + p] = false;
                        }
                        s.cluster_epoch[cluster] += 1;
                        dispatch_dirty = true;
                        let lo = s.out_off[j] as usize;
                        let hi = s.out_off[j + 1] as usize;
                        for k in lo..hi {
                            let tid = s.out_items[k] as usize;
                            let tr = &workload.transfers[tid];
                            let route = s.transfer_routes[tid];
                            s.transfer_start[tid] = now;
                            if route.is_local() || tr.bytes <= 0.0 {
                                transfer_records[tid] = Some(TransferRecord {
                                    transfer: tid,
                                    start: now,
                                    finish: now,
                                    bytes: tr.bytes,
                                });
                                s.deps_left[tr.to] -= 1;
                                if s.deps_left[tr.to] == 0 && s.released[tr.to] {
                                    s.insert_ready(&workload.jobs, tr.to);
                                }
                            } else {
                                s.queue.push(now + route.latency, Ev::FlowStart(tid));
                            }
                        }
                    }
                }
            }

            // 3. Start every startable job, in (priority, id) order — the
            //    ready set is kept sorted, so this is one in-order sweep.
            //    A job found blocked stays blocked until a processor of its
            //    cluster is freed (starts only make the cluster busier), so
            //    its processor check is skipped while the epoch is unchanged.
            if dispatch_dirty {
                dispatch_dirty = false;
                let mut w = 0usize;
                for r in 0..s.ready.len() {
                    let j = s.ready[r];
                    let procs = &workload.jobs[j].procs;
                    let cluster = procs.cluster();
                    if s.blocked_at[j] == s.cluster_epoch[cluster] {
                        s.ready[w] = j;
                        w += 1;
                        continue;
                    }
                    let base = self.cluster_offsets[cluster];
                    if procs.iter().all(|p| !s.busy[base + p]) {
                        for p in procs.iter() {
                            s.busy[base + p] = true;
                        }
                        let finish = now + workload.jobs[j].duration;
                        job_records[j] = Some(JobRecord {
                            job: j,
                            start: now,
                            finish,
                        });
                        s.queue.push(finish, Ev::JobFinish(j));
                    } else {
                        s.blocked_at[j] = s.cluster_epoch[cluster];
                        s.ready[w] = j;
                        w += 1;
                    }
                }
                s.ready.truncate(w);
            }
        }

        mcsched_obs::counter!("simx.runs").inc();
        mcsched_obs::counter!("simx.events").add(events);
        mcsched_obs::counter!("simx.jobs").add(finished as u64);
        mcsched_obs::counter!("simx.flow_recomputes").add(flow_recomputes);
        mcsched_obs::gauge!("simx.flows_peak").set(flows_peak as u64);
        let trace = ExecutionTrace {
            jobs: job_records,
            transfers: transfer_records,
        };
        let makespan = trace.makespan();
        Ok(PartialOutcome {
            trace,
            finished_jobs: finished,
            complete: finished == n,
            makespan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::SimJob;
    use crate::reference::reference_execute;
    use mcsched_platform::{PlatformBuilder, ProcSet};

    fn platform() -> Platform {
        PlatformBuilder::new("p")
            .cluster("a", 4, 1.0)
            .cluster("b", 4, 1.0)
            .build()
            .unwrap()
    }

    fn pset(cluster: usize, first: usize, n: usize) -> ProcSet {
        ProcSet::contiguous(cluster, first, n)
    }

    #[test]
    fn single_job_runs_for_its_duration() {
        let p = platform();
        let mut w = SimWorkload::new();
        w.add_job(SimJob::new(pset(0, 0, 2), 3.5, 0));
        let out = Engine::new(&p).execute(&w).unwrap();
        assert!((out.makespan - 3.5).abs() < 1e-9);
        let rec = out.trace.job(0).unwrap();
        assert_eq!(rec.start, 0.0);
        assert!((rec.finish - 3.5).abs() < 1e-9);
    }

    #[test]
    fn independent_jobs_run_in_parallel() {
        let p = platform();
        let mut w = SimWorkload::new();
        w.add_job(SimJob::new(pset(0, 0, 2), 3.0, 0));
        w.add_job(SimJob::new(pset(0, 2, 2), 4.0, 1));
        let out = Engine::new(&p).execute(&w).unwrap();
        assert!((out.makespan - 4.0).abs() < 1e-9);
        assert_eq!(out.trace.job(1).unwrap().start, 0.0);
    }

    #[test]
    fn contending_jobs_run_sequentially_by_priority() {
        let p = platform();
        let mut w = SimWorkload::new();
        // Same processors; job 1 has the better (smaller) priority.
        w.add_job(SimJob::new(pset(0, 0, 4), 2.0, 10));
        w.add_job(SimJob::new(pset(0, 0, 4), 3.0, 1));
        let out = Engine::new(&p).execute(&w).unwrap();
        let high = out.trace.job(1).unwrap();
        let low = out.trace.job(0).unwrap();
        assert_eq!(high.start, 0.0);
        assert!(
            (low.start - 3.0).abs() < 1e-9,
            "low priority starts after high"
        );
        assert!((out.makespan - 5.0).abs() < 1e-9);
    }

    #[test]
    fn horizon_capped_run_commits_exactly_the_prefix() {
        let p = platform();
        let mut w = SimWorkload::new();
        // Same processors: high runs [0, 3), low runs [3, 5).
        w.add_job(SimJob::new(pset(0, 0, 4), 2.0, 10));
        w.add_job(SimJob::new(pset(0, 0, 4), 3.0, 1));
        let engine = Engine::new(&p);

        // Horizon 2: only the t = 0 events ran; high started (committed
        // finish 3 > horizon is exact under non-preemption), low did not.
        let early = engine.execute_until(&w, 2.0).unwrap();
        assert_eq!(early.finished_jobs, 0);
        assert!(!early.complete);
        assert!(early.trace.job(0).is_none());
        assert!((early.trace.job(1).unwrap().finish - 3.0).abs() < 1e-9);

        // Horizon 3: high's finish event ran, low's start was committed.
        let mid = engine.execute_until(&w, 3.0).unwrap();
        assert_eq!(mid.finished_jobs, 1);
        assert!(!mid.complete);
        assert!((mid.trace.job(0).unwrap().start - 3.0).abs() < 1e-9);
        assert!((mid.makespan - 5.0).abs() < 1e-9);

        // Infinite horizon reproduces execute bit for bit.
        let full = engine.execute_until(&w, f64::INFINITY).unwrap();
        let reference = engine.execute(&w).unwrap();
        assert!(full.complete);
        assert_eq!(full.finished_jobs, 2);
        assert_eq!(full.trace, reference.trace);
        assert_eq!(full.makespan.to_bits(), reference.makespan.to_bits());
    }

    #[test]
    fn partial_overlap_also_serialises() {
        let p = platform();
        let mut w = SimWorkload::new();
        w.add_job(SimJob::new(pset(0, 0, 3), 2.0, 0));
        w.add_job(SimJob::new(pset(0, 2, 2), 2.0, 1)); // shares proc 2
        let out = Engine::new(&p).execute(&w).unwrap();
        assert!((out.trace.job(1).unwrap().start - 2.0).abs() < 1e-9);
    }

    #[test]
    fn chain_with_intercluster_transfer_waits_for_data() {
        let p = platform();
        let mut w = SimWorkload::new();
        let a = w.add_job(SimJob::new(pset(0, 0, 2), 1.0, 0));
        let b = w.add_job(SimJob::new(pset(1, 0, 2), 1.0, 1));
        // 125 MB over a gigabit bottleneck: 1 second of transfer.
        w.add_transfer(a, b, 1.25e8);
        let out = Engine::new(&p).execute(&w).unwrap();
        let rec_b = out.trace.job(b).unwrap();
        // start of b >= 1 (a) + 1 (transfer) + latency
        assert!(rec_b.start > 2.0);
        assert!(rec_b.start < 2.01);
        assert!((out.makespan - (rec_b.start + 1.0)).abs() < 1e-9);
        // The transfer record must exist and span the gap.
        let tr = out.trace.transfers[0].as_ref().unwrap();
        assert_eq!(tr.start, 1.0);
        assert!((tr.finish - rec_b.start).abs() < 1e-9);
    }

    #[test]
    fn local_transfer_is_instantaneous() {
        let p = platform();
        let mut w = SimWorkload::new();
        let a = w.add_job(SimJob::new(pset(0, 0, 2), 1.0, 0));
        let b = w.add_job(SimJob::new(pset(0, 0, 2), 1.0, 1));
        w.add_transfer(a, b, 1.0e9);
        let out = Engine::new(&p).execute(&w).unwrap();
        assert!((out.trace.job(b).unwrap().start - 1.0).abs() < 1e-9);
        assert!((out.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_transfers_share_bandwidth() {
        let p = platform();
        // Two producer/consumer pairs transferring simultaneously from
        // cluster 0 to cluster 1: both cross cluster 0's uplink and the
        // fabric, so each gets half the bandwidth.
        let mut w = SimWorkload::new();
        let a1 = w.add_job(SimJob::new(pset(0, 0, 1), 1.0, 0));
        let a2 = w.add_job(SimJob::new(pset(0, 1, 1), 1.0, 1));
        let b1 = w.add_job(SimJob::new(pset(1, 0, 1), 1.0, 2));
        let b2 = w.add_job(SimJob::new(pset(1, 1, 1), 1.0, 3));
        w.add_transfer(a1, b1, 1.25e8);
        w.add_transfer(a2, b2, 1.25e8);
        let out = Engine::new(&p).execute(&w).unwrap();
        let t1 = out.trace.transfers[0].as_ref().unwrap();
        // Alone the transfer would take ~1s; with sharing it takes ~2s.
        assert!(t1.finish - t1.start > 1.9);
        assert!(t1.finish - t1.start < 2.1);
    }

    #[test]
    fn release_time_delays_start() {
        let p = platform();
        let mut w = SimWorkload::new();
        let mut job = SimJob::new(pset(0, 0, 1), 1.0, 0);
        job.release_time = 5.0;
        w.add_job(job);
        let out = Engine::new(&p).execute(&w).unwrap();
        assert_eq!(out.trace.job(0).unwrap().start, 5.0);
        assert!((out.makespan - 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_workload_has_zero_makespan() {
        let p = platform();
        let out = Engine::new(&p).execute(&SimWorkload::new()).unwrap();
        assert_eq!(out.makespan, 0.0);
    }

    #[test]
    fn invalid_workload_is_rejected() {
        let p = platform();
        let mut w = SimWorkload::new();
        w.add_job(SimJob::new(ProcSet::empty(0), 1.0, 0));
        assert!(Engine::new(&p).execute(&w).is_err());
    }

    #[test]
    fn non_finite_release_time_is_rejected() {
        let p = platform();
        let engine = Engine::new(&p);
        for bad in [f64::NAN, f64::INFINITY] {
            let mut w = SimWorkload::new();
            let mut job = SimJob::new(pset(0, 0, 1), 1.0, 0);
            job.release_time = bad;
            w.add_job(job);
            for result in [
                engine.execute(&w).map(|o| o.makespan),
                engine.execute_until(&w, 10.0).map(|o| o.makespan),
            ] {
                assert!(matches!(
                    result,
                    Err(SimError::InvalidReleaseTime { job: 0, .. })
                ));
            }
        }
    }

    #[test]
    fn diamond_dependency_waits_for_both_parents() {
        let p = platform();
        let mut w = SimWorkload::new();
        let s = w.add_job(SimJob::new(pset(0, 0, 1), 1.0, 0));
        let a = w.add_job(SimJob::new(pset(0, 1, 1), 1.0, 1));
        let b = w.add_job(SimJob::new(pset(0, 2, 1), 5.0, 2));
        let t = w.add_job(SimJob::new(pset(0, 3, 1), 1.0, 3));
        for (x, y) in [(s, a), (s, b), (a, t), (b, t)] {
            w.add_transfer(x, y, 0.0);
        }
        let out = Engine::new(&p).execute(&w).unwrap();
        // t starts after the slow branch: 1 + 5 = 6.
        assert!((out.trace.job(t).unwrap().start - 6.0).abs() < 1e-9);
        assert!((out.makespan - 7.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_jobs_complete() {
        let p = platform();
        let mut w = SimWorkload::new();
        let a = w.add_job(SimJob::new(pset(0, 0, 1), 0.0, 0));
        let b = w.add_job(SimJob::new(pset(0, 0, 1), 0.0, 1));
        w.add_transfer(a, b, 0.0);
        let out = Engine::new(&p).execute(&w).unwrap();
        assert_eq!(out.makespan, 0.0);
        assert!(out.trace.job(b).is_some());
    }

    #[test]
    fn trace_is_deterministic() {
        let p = platform();
        let mut w = SimWorkload::new();
        for i in 0..6 {
            w.add_job(SimJob::new(
                pset(i % 2, (i / 2) % 4, 1),
                1.0 + i as f64,
                i as u64,
            ));
        }
        w.add_transfer(0, 3, 2.0e7);
        w.add_transfer(1, 4, 3.0e7);
        let e = Engine::new(&p);
        let a = e.execute(&w).unwrap();
        let b = e.execute(&w).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_reuse_stays_bit_identical_to_reference() {
        // Three runs on the same engine reuse the pooled scratch; each run
        // must still match the frozen reference exactly.
        let p = platform();
        let mut w = SimWorkload::new();
        for i in 0..8 {
            let mut job = SimJob::new(
                pset(i % 2, (i / 3) % 4, 1 + i % 2),
                0.5 + i as f64,
                (8 - i) as u64,
            );
            job.release_time = (i % 3) as f64;
            w.add_job(job);
        }
        w.add_transfer(0, 3, 2.0e7);
        w.add_transfer(1, 4, 3.0e8);
        w.add_transfer(2, 5, 0.0);
        w.add_transfer(3, 6, 5.0e7);
        let expected = reference_execute(&p, &w).unwrap();
        let e = Engine::new(&p);
        for _ in 0..3 {
            assert_eq!(e.execute(&w).unwrap(), expected);
        }
    }

    #[test]
    fn pair_route_table_matches_network_routes() {
        let p = platform();
        let e = Engine::new(&p);
        let net = e.network();
        for c1 in 0..p.num_clusters() {
            for c2 in 0..p.num_clusters() {
                let flat = &e.pair_routes[c1 * p.num_clusters() + c2];
                let (src, dst) = if c1 == c2 {
                    (ProcSet::contiguous(c1, 0, 1), ProcSet::contiguous(c2, 1, 1))
                } else {
                    (ProcSet::contiguous(c1, 0, 2), ProcSet::contiguous(c2, 0, 2))
                };
                let route = net.route(&src, &dst);
                assert_eq!(flat.links(), &route.links[..]);
                assert_eq!(flat.latency.to_bits(), route.latency.to_bits());
            }
        }
    }

    #[test]
    fn blocked_job_starts_after_the_right_finish() {
        // Job c needs all 4 processors of cluster 0; a and b each hold 2 and
        // finish at different times. c is re-examined when a finishes (epoch
        // bump), found still blocked, and starts only once b also finishes.
        let p = platform();
        let mut w = SimWorkload::new();
        w.add_job(SimJob::new(pset(0, 0, 2), 1.0, 0));
        w.add_job(SimJob::new(pset(0, 2, 2), 3.0, 1));
        w.add_job(SimJob::new(pset(0, 0, 4), 1.0, 2));
        let out = Engine::new(&p).execute(&w).unwrap();
        assert!((out.trace.job(2).unwrap().start - 3.0).abs() < 1e-9);
        assert!((out.makespan - 4.0).abs() < 1e-9);
    }
}
