//! Mapping step: placing the allocated tasks of several PTGs onto concrete
//! processor sets (Section 5 of the paper).
//!
//! The mapping procedure is a list scheduler working on **ready tasks only**:
//! a task enters the candidate list once all its predecessors have been
//! mapped, and among the candidates the task with the highest *bottom level*
//! (its distance to the end of its own application, computed with the
//! execution times of the current allocation) is mapped first. Restricting
//! the priority comparison to ready tasks prevents the entry tasks of small
//! PTGs from being postponed behind the whole body of larger PTGs, which is
//! what a global ordering does (Figure 1 of the paper).
//!
//! For the selected task the procedure evaluates, on every cluster, the
//! processor set that yields the earliest estimated finish time, translating
//! the task's reference allocation into an equivalent number of processors of
//! that cluster. An **allocation packing** mechanism optionally shrinks the
//! allocation when the task would otherwise wait for processors: the reduced
//! allocation is accepted only if the task starts earlier and finishes no
//! later than with its original allocation.

use crate::allocation::{RefAllocation, ReferencePlatform};
use mcsched_platform::{ClusterId, Platform, ProcId, ProcSet};
use mcsched_ptg::Ptg;
use mcsched_simx::{JobId, SimJob, SimWorkload, SiteNetwork};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the candidate tasks are ordered during mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OrderingMode {
    /// Only ready tasks are ordered (the paper's proposal): a task becomes a
    /// candidate once all its predecessors are mapped, and candidates are
    /// ranked by bottom level.
    ReadyTasks,
    /// All tasks of all applications are ranked by bottom level in one global
    /// list processed in order without backfilling: a task never starts
    /// before the tasks that precede it in the list. This reproduces the
    /// postponing behaviour illustrated by Figure 1 and serves as an
    /// ablation baseline.
    Global,
}

/// Configuration of the mapping step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MappingConfig {
    /// Candidate ordering discipline.
    pub ordering: OrderingMode,
    /// Whether the allocation-packing mechanism is enabled.
    pub packing: bool,
    /// Whether estimated redistribution costs are included in the
    /// earliest-finish-time evaluation (they are always simulated afterwards;
    /// this only affects the mapping decisions).
    pub comm_aware: bool,
}

impl Default for MappingConfig {
    fn default() -> Self {
        Self {
            ordering: OrderingMode::ReadyTasks,
            packing: true,
            comm_aware: true,
        }
    }
}

/// Where one task ended up.
///
/// The processors themselves are kept once, in the generated job:
/// `schedule.workload.jobs[placement.job].procs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskPlacement {
    /// Cluster hosting the task.
    pub cluster: ClusterId,
    /// Estimated start time used by the mapping heuristic.
    pub est_start: f64,
    /// Estimated finish time used by the mapping heuristic.
    pub est_finish: f64,
    /// Identifier of the corresponding job in the generated workload.
    pub job: JobId,
}

/// The outcome of the mapping step: a simulable workload plus per-task
/// placements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// The workload to hand to the simulation engine.
    pub workload: SimWorkload,
    /// Placements indexed by `[application][task]`.
    pub placements: Vec<Vec<TaskPlacement>>,
}

impl Schedule {
    /// Job identifiers belonging to one application.
    pub fn app_jobs(&self, app: usize) -> Vec<JobId> {
        self.placements[app].iter().map(|p| p.job).collect()
    }

    /// Estimated makespan of one application (max estimated finish).
    pub fn estimated_app_makespan(&self, app: usize) -> f64 {
        self.placements[app]
            .iter()
            .map(|p| p.est_finish)
            .fold(0.0, f64::max)
    }

    /// Estimated global makespan (max over all applications).
    pub fn estimated_makespan(&self) -> f64 {
        (0..self.placements.len())
            .map(|a| self.estimated_app_makespan(a))
            .fold(0.0, f64::max)
    }
}

/// Maps the allocated tasks of `ptgs` onto `platform`.
///
/// * `allocations[i]` — reference allocation of `ptgs[i]` (same task
///   indexing);
/// * `release_times[i]` — submission time of `ptgs[i]` (0 for the paper's
///   simultaneous-submission scenario).
///
/// # Panics
///
/// Panics if the slices have inconsistent lengths.
pub fn map_concurrent(
    platform: &Platform,
    ptgs: &[Ptg],
    allocations: &[RefAllocation],
    release_times: &[f64],
    config: &MappingConfig,
) -> Schedule {
    let reference = ReferencePlatform::new(platform);
    let network = SiteNetwork::new(platform);
    map_concurrent_with(
        &reference,
        &network,
        platform,
        ptgs,
        allocations,
        release_times,
        config,
    )
}

/// Like [`map_concurrent`], but reuses pre-built platform views instead of
/// deriving them from scratch.
///
/// The [`crate::context::ScheduleContext`] caches one [`ReferencePlatform`]
/// and one [`SiteNetwork`] per scenario and passes them here for every
/// strategy it evaluates; `map_concurrent` is the convenience wrapper for
/// one-shot callers.
///
/// # Panics
///
/// Panics if the slices have inconsistent lengths.
pub fn map_concurrent_with(
    reference: &ReferencePlatform,
    network: &SiteNetwork,
    platform: &Platform,
    ptgs: &[Ptg],
    allocations: &[RefAllocation],
    release_times: &[f64],
    config: &MappingConfig,
) -> Schedule {
    assert_eq!(ptgs.len(), allocations.len(), "one allocation per PTG");
    assert_eq!(ptgs.len(), release_times.len(), "one release time per PTG");
    let clusters = platform.clusters();
    let nc = clusters.len();

    // Sequential cost of every task, evaluated once. Every execution time
    // below is `flops / speed` scaled by the Amdahl factor (see
    // `parallel_time`), which is bit-identical to
    // `DataParallelTask::parallel_time`.
    let flops: Vec<Vec<f64>> = ptgs
        .iter()
        .map(|g| g.task_ids().map(|t| g.task(t).flops()).collect())
        .collect();

    // Bottom levels under the current allocations (communications ignored, as
    // in the paper's priority definition): one backward pass in reverse
    // topological order over non-negative task times.
    let bottom_levels: Vec<Vec<f64>> = ptgs
        .iter()
        .zip(allocations)
        .zip(&flops)
        .map(|((ptg, alloc), flops)| {
            let mut bottom = vec![0.0f64; ptg.num_tasks()];
            for &t in ptg.topological_order().iter().rev() {
                let tail = ptg
                    .succs(t)
                    .iter()
                    .fold(0.0f64, |b, &(s, _)| b.max(bottom[s]));
                let seq = flops[t] / reference.speed();
                bottom[t] = parallel_time(seq, ptg.task(t).alpha(), alloc.procs_of(t)) + tail;
            }
            bottom
        })
        .collect();

    // Per-processor availability, one run-length profile per cluster: the
    // q-th earliest availability of cluster `k` is found by walking its runs,
    // a reservation pops the earliest processors, and they come back as one
    // run at the task's finish time. Only the runs a reservation touches
    // change, where a sorted per-processor list shifts every entry behind
    // each moved processor.
    let mut profiles: Vec<Profile> = clusters
        .iter()
        .map(|c| Profile::new(c.num_procs()))
        .collect();

    // Estimated redistribution cost between two clusters, tabulated once per
    // ordered pair (row-major) as `(latency, bottleneck capacity)`, the terms
    // of `SiteNetwork::uncontended_time`. The diagonal is never read:
    // same-cluster redistribution is treated as free in the estimate.
    let links: Vec<(f64, f64)> = (0..nc)
        .flat_map(|c1| (0..nc).map(move |c2| (c1, c2)))
        .map(|(c1, c2)| {
            let route = network.route(
                &ProcSet::contiguous(c1, 0, 1),
                &ProcSet::contiguous(c2, 0, 1),
            );
            let min_cap = route
                .links
                .iter()
                .map(|&l| network.capacity(l))
                .fold(f64::MAX, f64::min);
            (route.latency, min_cap)
        })
        .collect();

    // Placement state. Every entry is overwritten when its task is mapped,
    // and a task is only read once mapped (its successors are selected
    // after it).
    let unmapped = TaskPlacement {
        cluster: usize::MAX,
        est_start: f64::NAN,
        est_finish: f64::NAN,
        job: usize::MAX,
    };
    let mut placements: Vec<Vec<TaskPlacement>> = ptgs
        .iter()
        .map(|p| vec![unmapped.clone(); p.num_tasks()])
        .collect();
    let mut unmapped_preds: Vec<Vec<usize>> = ptgs
        .iter()
        .map(|p| p.task_ids().map(|t| p.preds(t).len()).collect())
        .collect();

    let total_tasks: usize = ptgs.iter().map(Ptg::num_tasks).sum();
    assert!(
        ptgs.len() <= u32::MAX as usize && ptgs.iter().all(|p| p.num_tasks() <= u32::MAX as usize),
        "applications and tasks are numbered in 32 bits"
    );
    let mut workload = SimWorkload {
        jobs: Vec::with_capacity(total_tasks),
        transfers: Vec::with_capacity(ptgs.iter().map(Ptg::num_edges).sum()),
    };
    // The job of the `i`-th mapped task has priority `i`.
    let mut priority_counter: u64 = 0;
    // Per mapped task: the cluster, estimated finish time and volume of each
    // incoming edge.
    let mut inputs: Vec<(ClusterId, f64, f64)> = Vec::new();

    // The candidate pool.
    //
    // * In ReadyTasks mode it holds the tasks whose predecessors are all
    //   mapped, together with the time at which they become *ready* (their
    //   predecessors' estimated completion). A simulated clock only lets the
    //   scheduler compare tasks that are ready at the same instant, which is
    //   what prevents a large application's deep tasks from overtaking a
    //   small application's entry tasks (Figure 1).
    // * In Global mode it holds every task up front, sorted once by bottom
    //   level, and is consumed front to back.
    let mut candidates = match config.ordering {
        OrderingMode::ReadyTasks => {
            let mut queue = ReadyQueue::new(&bottom_levels, total_tasks);
            for (app, ptg) in ptgs.iter().enumerate() {
                for t in ptg.task_ids() {
                    if ptg.preds(t).is_empty() {
                        queue.push(app, t, release_times[app]);
                    }
                }
            }
            Candidates::Ready(queue)
        }
        OrderingMode::Global => {
            let mut order: Vec<(usize, usize)> = ptgs
                .iter()
                .enumerate()
                .flat_map(|(app, ptg)| ptg.task_ids().map(move |t| (app, t)))
                .collect();
            // Highest bottom level first; the list is then consumed front to
            // back (respecting precedence inside each application because a
            // predecessor's bottom level always exceeds its successors').
            order.sort_unstable_by(|&(aa, at), &(ba, bt)| {
                bottom_levels[ba][bt]
                    .total_cmp(&bottom_levels[aa][at])
                    .then(aa.cmp(&ba))
                    .then(at.cmp(&bt))
            });
            Candidates::Global(order.into_iter())
        }
    };

    // In Global mode, no task may start before the start time of the tasks
    // mapped before it (no backfilling).
    let mut no_backfill_floor = 0.0f64;

    while let Some((app, task)) = match &mut candidates {
        Candidates::Ready(queue) => queue.pop(),
        Candidates::Global(order) => order.next(),
    } {
        let ptg = &ptgs[app];
        let n_ref = allocations[app].procs_of(task);
        let alpha = ptg.task(task).alpha();
        let task_flops = flops[app][task];
        inputs.clear();
        inputs.extend(ptg.preds(task).iter().map(|&(pred, edge)| {
            let p = &placements[app][pred];
            assert_ne!(
                p.job,
                usize::MAX,
                "predecessors are mapped before their successors"
            );
            (p.cluster, p.est_finish, ptg.edge(edge).bytes)
        }));

        // Evaluate every cluster.
        let mut best: Option<Choice> = None;
        for (k, cluster) in clusters.iter().enumerate() {
            let speed = cluster.speed();
            let seq = task_flops / speed;
            let full = reference.translate(n_ref, speed).min(cluster.num_procs());

            // Data-ready time on cluster k: predecessors' estimated finish
            // plus an estimated redistribution cost when crossing clusters.
            // Same-cluster redistribution is treated as free in the estimate
            // (the simulation still charges it when the processor sets
            // differ).
            let mut ready = release_times[app];
            for &(from, est_finish, bytes) in &inputs {
                let mut t = est_finish;
                if config.comm_aware && from != k {
                    let (latency, min_cap) = links[from * nc + k];
                    t += if bytes <= 0.0 {
                        0.0
                    } else {
                        latency + bytes / min_cap
                    };
                }
                ready = ready.max(t);
            }
            let ready = ready.max(no_backfill_floor);

            // Earliest start with `q` processors on cluster k: the q-th
            // smallest availability time.
            let profile = &profiles[k];
            let (mut run, mut earlier) = profile.locate(full);
            let full_start = ready.max(profile.runs[run].time);
            let full_time = parallel_time(seq, alpha, full);
            let mut chosen = Choice {
                finish: full_start + full_time,
                start: full_start,
                cluster: k,
                nprocs: full,
                duration: full_time,
            };

            // Allocation packing: only when the task is delayed by processor
            // availability rather than by its input data.
            if config.packing && full_start > ready + 1e-12 {
                for q in (1..full).rev() {
                    while q <= earlier {
                        run += 1;
                        earlier -= profile.runs[run].len;
                    }
                    let s = ready.max(profile.runs[run].time);
                    let time = parallel_time(seq, alpha, q);
                    let f = s + time;
                    if s < chosen.start - 1e-12 && f <= chosen.finish + 1e-12 {
                        chosen = Choice {
                            finish: f,
                            start: s,
                            cluster: k,
                            nprocs: q,
                            duration: time,
                        };
                    }
                }
            }

            match &best {
                None => best = Some(chosen),
                Some(b)
                    if chosen.finish < b.finish - 1e-12
                        || ((chosen.finish - b.finish).abs() <= 1e-12
                            && chosen.start < b.start - 1e-12) =>
                {
                    best = Some(chosen)
                }
                _ => {}
            }
        }

        let Choice {
            finish,
            start,
            cluster,
            nprocs,
            duration,
        } = best.expect("a platform always has at least one cluster");

        let job = workload.add_job(SimJob {
            procs: profiles[cluster].reserve(cluster, nprocs, finish),
            duration,
            release_time: release_times[app],
            priority: priority_counter,
        });
        priority_counter += 1;

        placements[app][task] = TaskPlacement {
            cluster,
            est_start: start,
            est_finish: finish,
            job,
        };

        match &mut candidates {
            // Newly ready successors. A successor becomes ready when all its
            // predecessors have *completed* according to the current
            // estimates, not merely when they have been mapped.
            Candidates::Ready(queue) => {
                for &(succ, _) in ptg.succs(task) {
                    unmapped_preds[app][succ] -= 1;
                    if unmapped_preds[app][succ] == 0 {
                        let ready_at = ptg
                            .preds(succ)
                            .iter()
                            .map(|&(p, _)| placements[app][p].est_finish)
                            .fold(release_times[app], f64::max);
                        queue.push(app, succ, ready_at);
                    }
                }
            }
            Candidates::Global(_) => no_backfill_floor = no_backfill_floor.max(start),
        }
    }

    assert_eq!(
        priority_counter as usize, total_tasks,
        "every task is mapped"
    );

    // Materialise the transfers of every application edge.
    for (app, ptg) in ptgs.iter().enumerate() {
        for e in ptg.edges() {
            workload.add_transfer(
                placements[app][e.src].job,
                placements[app][e.dst].job,
                e.bytes,
            );
        }
    }

    Schedule {
        workload,
        placements,
    }
}

/// Execution time of a task of sequential time `seq` and Amdahl fraction
/// `alpha` on `p` processors: the expression of
/// `DataParallelTask::parallel_time`, so the results are bit-identical to it,
/// without re-evaluating the cost model on every call.
fn parallel_time(seq: f64, alpha: f64, p: usize) -> f64 {
    if p == 0 {
        return f64::INFINITY;
    }
    seq * (alpha + (1.0 - alpha) / p as f64)
}

/// One cluster's evaluation for the task being mapped.
struct Choice {
    finish: f64,
    start: f64,
    cluster: ClusterId,
    nprocs: usize,
    duration: f64,
}

/// Availability of one cluster's processors as a run-length profile.
///
/// Each run is an availability time with the processors that become free at
/// that time. Ordering processors by (time, index) and taking the first `q`
/// is what defines "the `q` earliest-available processors"; a run holds a
/// contiguous stretch of that order, so a reservation touches a few run
/// headers instead of shifting every processor it moves.
struct Profile {
    /// Runs in *descending* time order, distinct under `total_cmp`: the
    /// earliest run is last, where reservations pop it.
    runs: Vec<Run>,
    /// The processors of a run form a chain in ascending index order:
    /// `next[p]` follows `p` in its run.
    next: Vec<ProcId>,
}

/// The processors of one cluster that become available at `time`.
struct Run {
    time: f64,
    /// Lowest processor index of the run; the others follow through
    /// [`Profile::next`].
    first: ProcId,
    len: usize,
}

impl Profile {
    /// All `n` processors available at time 0.
    fn new(n: usize) -> Self {
        Self {
            runs: vec![Run {
                time: 0.0,
                first: 0,
                len: n,
            }],
            next: (1..=n).collect(),
        }
    }

    /// The run holding the `q`-th earliest processor (1-based), and the
    /// number of processors in the runs before it.
    fn locate(&self, q: usize) -> (usize, usize) {
        let mut earlier = 0;
        for (i, run) in self.runs.iter().enumerate().rev() {
            if earlier + run.len >= q {
                return (i, earlier);
            }
            earlier += run.len;
        }
        panic!("a task never gets more processors than its cluster has")
    }

    /// Reserves the `n` earliest-available processors of `cluster` (the
    /// profile's cluster) until `finish` and returns them.
    fn reserve(&mut self, cluster: ClusterId, n: usize, finish: f64) -> ProcSet {
        let mut taken = Vec::with_capacity(n);
        while taken.len() < n {
            let run = self
                .runs
                .last_mut()
                .expect("a task never gets more processors than its cluster has");
            let k = run.len.min(n - taken.len());
            let mut p = run.first;
            for _ in 0..k {
                taken.push(p);
                p = self.next[p];
            }
            run.first = p;
            run.len -= k;
            if run.len == 0 {
                self.runs.pop();
            }
        }
        let taken = ProcSet::new(cluster, taken);
        // A task usually finishes after every other reservation, so the
        // position is found by a scan from the latest run.
        let pos = self
            .runs
            .iter()
            .position(|r| r.time.total_cmp(&finish).is_le())
            .unwrap_or(self.runs.len());
        match self.runs.get_mut(pos) {
            Some(run) if run.time.total_cmp(&finish).is_eq() => {
                run.first = merge_chain(&mut self.next, run.first, run.len, taken.procs());
                run.len += n;
            }
            _ => {
                for w in taken.procs().windows(2) {
                    self.next[w[0]] = w[1];
                }
                self.runs.insert(
                    pos,
                    Run {
                        time: finish,
                        first: taken.procs()[0],
                        len: n,
                    },
                );
            }
        }
        taken
    }
}

/// Merges the ascending `extra` processors into the ascending chain of `len`
/// processors starting at `first`; returns the head of the merged chain.
fn merge_chain(next: &mut [ProcId], first: ProcId, len: usize, extra: &[ProcId]) -> ProcId {
    let mut merged = Vec::with_capacity(len + extra.len());
    let mut p = first;
    let mut rest = extra.iter().copied().peekable();
    for _ in 0..len {
        while let Some(q) = rest.next_if(|&q| q < p) {
            merged.push(q);
        }
        merged.push(p);
        p = next[p];
    }
    merged.extend(rest);
    for w in merged.windows(2) {
        next[w[0]] = w[1];
    }
    merged[0]
}

/// The candidate pool of one mapping call.
enum Candidates<'a> {
    Ready(ReadyQueue<'a>),
    /// Every task, sorted once by bottom level.
    Global(std::vec::IntoIter<(usize, usize)>),
}

/// A candidate's heap key: `value` in `total_cmp` order in the high half and
/// `(app, task)` in the low half, so that one integer comparison orders
/// candidates by value, then application, then task.
fn candidate_key(value: f64, app: usize, task: usize) -> u128 {
    let bits = value.to_bits();
    // `total_cmp` as an unsigned order: negative values have every bit
    // flipped, the others only their sign bit.
    let ordered = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    (u128::from(ordered) << 64) | ((app as u128) << 32) | task as u128
}

/// The value and `(app, task)` of a [`candidate_key`].
fn decode_key(key: u128) -> (f64, usize, usize) {
    let ordered = (key >> 64) as u64;
    let bits = if ordered >> 63 == 1 {
        ordered & !(1 << 63)
    } else {
        !ordered
    };
    let id = key as u64;
    (
        f64::from_bits(bits),
        (id >> 32) as usize,
        id as u32 as usize,
    )
}

/// The ready-task candidate pool, `(app, task)` pairs with their ready times.
///
/// The selection rule: advance the clock to the earliest ready time of *all*
/// candidates when that is later than the clock (so it also moves, by less
/// than the tolerance, when the earliest candidate is already within it);
/// among the candidates ready within `1e-9 · max(clock, 1)` of the clock,
/// take the highest bottom level, then the lower application, then the lower
/// task. The clock never decreases and starts at 0, so a candidate once
/// within the tolerance stays within it; candidates therefore move from
/// `waiting` to `ready` once and never back.
struct ReadyQueue<'a> {
    bottom_levels: &'a [Vec<f64>],
    clock: f64,
    /// Candidates not yet within the tolerance, by [`candidate_key`] of
    /// their ready time, earliest first.
    waiting: BinaryHeap<Reverse<u128>>,
    /// Candidates within the tolerance, best first: the [`candidate_key`]
    /// of the bottom level with the `(app, task)` half complemented (so
    /// ties go to the lower application, then the lower task), and the bits
    /// of the ready time, which never decide a comparison.
    ready: BinaryHeap<(u128, u64)>,
    /// How many `ready` candidates have a ready time at or before the clock.
    at_clock: usize,
}

impl<'a> ReadyQueue<'a> {
    fn new(bottom_levels: &'a [Vec<f64>], capacity: usize) -> Self {
        Self {
            bottom_levels,
            clock: 0.0,
            waiting: BinaryHeap::with_capacity(capacity),
            ready: BinaryHeap::with_capacity(capacity),
            at_clock: 0,
        }
    }

    fn horizon(&self) -> f64 {
        self.clock + 1e-9 * self.clock.abs().max(1.0)
    }

    fn push(&mut self, app: usize, task: usize, ready_at: f64) {
        if ready_at <= self.horizon() {
            self.admit(app, task, ready_at);
        } else {
            self.waiting
                .push(Reverse(candidate_key(ready_at, app, task)));
        }
    }

    fn admit(&mut self, app: usize, task: usize, ready_at: f64) {
        if ready_at <= self.clock {
            self.at_clock += 1;
        }
        let key = candidate_key(self.bottom_levels[app][task], app, task) ^ u128::from(u64::MAX);
        self.ready.push((key, ready_at.to_bits()));
    }

    /// Selects the next task.
    fn pop(&mut self) -> Option<(usize, usize)> {
        // A candidate at or before the clock holds it in place, so the
        // `ready` candidates are only scanned when all of them are ahead of
        // the clock (within the tolerance), or there are none.
        if self.at_clock == 0 {
            let earliest = self
                .waiting
                .peek()
                .map_or(f64::INFINITY, |&Reverse(key)| decode_key(key).0);
            let ready_times = self.ready.iter().map(|&(_, r)| f64::from_bits(r));
            let min_ready = ready_times.clone().fold(earliest, f64::min);
            if min_ready > self.clock {
                self.clock = min_ready;
                self.at_clock = ready_times.filter(|&r| r <= min_ready).count();
            }
        }
        let horizon = self.horizon();
        while let Some(&Reverse(key)) = self.waiting.peek() {
            let (ready_at, app, task) = decode_key(key);
            if ready_at > horizon {
                break;
            }
            self.waiting.pop();
            self.admit(app, task, ready_at);
        }
        let (key, ready_at) = self.ready.pop()?;
        if f64::from_bits(ready_at) <= self.clock {
            self.at_clock -= 1;
        }
        let (_, app, task) = decode_key(key ^ u128::from(u64::MAX));
        Some((app, task))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_platform::PlatformBuilder;
    use mcsched_ptg::{CostModel, DataParallelTask, PtgBuilder};

    fn platform() -> Platform {
        PlatformBuilder::new("p")
            .cluster("a", 8, 1.0)
            .cluster("b", 4, 2.0)
            .build()
            .unwrap()
    }

    fn task(name: &str, d: f64, alpha: f64) -> DataParallelTask {
        DataParallelTask::new(name, d, CostModel::MatrixProduct, alpha)
    }

    fn chain(n: usize, d: f64) -> Ptg {
        let mut b = PtgBuilder::new(format!("chain{n}"));
        for i in 0..n {
            b.add_task(task(&format!("t{i}"), d, 0.1));
        }
        for i in 1..n {
            b.add_data_edge(i - 1, i);
        }
        b.build().unwrap()
    }

    fn fork(width: usize, d: f64) -> Ptg {
        let mut b = PtgBuilder::new(format!("fork{width}"));
        let entry = b.add_task(task("in", d, 0.1));
        let exit_d = d;
        let mut mids = Vec::new();
        for i in 0..width {
            mids.push(b.add_task(task(&format!("m{i}"), d, 0.1)));
        }
        let exit = b.add_task(task("out", exit_d, 0.1));
        for &m in &mids {
            b.add_data_edge(entry, m);
            b.add_data_edge(m, exit);
        }
        b.build().unwrap()
    }

    fn one_alloc(ptg: &Ptg) -> RefAllocation {
        RefAllocation::one_per_task(ptg.num_tasks())
    }

    #[test]
    fn single_chain_produces_valid_schedule() {
        let p = platform();
        let g = chain(3, 8.0e6);
        let schedule = map_concurrent(
            &p,
            std::slice::from_ref(&g),
            &[one_alloc(&g)],
            &[0.0],
            &MappingConfig::default(),
        );
        assert_eq!(schedule.placements.len(), 1);
        assert_eq!(schedule.workload.num_jobs(), 3);
        assert_eq!(schedule.workload.transfers.len(), 2);
        assert!(schedule.workload.validate(&p).is_ok());
        // Chain tasks never overlap in the estimates.
        let pl = &schedule.placements[0];
        assert!(pl[0].est_finish <= pl[1].est_start + 1e-9);
        assert!(pl[1].est_finish <= pl[2].est_start + 1e-9);
    }

    #[test]
    fn estimates_respect_precedence_for_every_edge() {
        let p = platform();
        let g = fork(5, 16.0e6);
        let schedule = map_concurrent(
            &p,
            std::slice::from_ref(&g),
            &[RefAllocation::from_counts(vec![2; g.num_tasks()])],
            &[0.0],
            &MappingConfig::default(),
        );
        for e in g.edges() {
            let src = &schedule.placements[0][e.src];
            let dst = &schedule.placements[0][e.dst];
            assert!(src.est_finish <= dst.est_start + 1e-9);
        }
    }

    #[test]
    fn allocation_translates_to_fewer_procs_on_fast_cluster() {
        let p = platform();
        let g = chain(1, 100.0e6);
        // 4 reference processors; if placed on the 2 GFlop/s cluster the
        // translation needs only 2 processors.
        let schedule = map_concurrent(
            &p,
            std::slice::from_ref(&g),
            &[RefAllocation::from_counts(vec![4])],
            &[0.0],
            &MappingConfig::default(),
        );
        let placement = &schedule.placements[0][0];
        let procs = &schedule.workload.jobs[placement.job].procs;
        let nprocs = procs.len();
        let cluster = procs.cluster();
        assert_eq!(cluster, placement.cluster);
        if cluster == 1 {
            assert_eq!(nprocs, 2);
        } else {
            assert_eq!(nprocs, 4);
        }
    }

    #[test]
    fn two_small_apps_run_side_by_side() {
        let p = platform();
        let a = chain(1, 50.0e6);
        let b = chain(1, 50.0e6);
        let schedule = map_concurrent(
            &p,
            &[a, b],
            &[
                RefAllocation::from_counts(vec![4]),
                RefAllocation::from_counts(vec![4]),
            ],
            &[0.0, 0.0],
            &MappingConfig::default(),
        );
        // Platform has 8 + 4 processors; two 4-reference-proc tasks fit
        // concurrently, so both should start at 0.
        assert!(schedule.placements[0][0].est_start < 1e-9);
        assert!(schedule.placements[1][0].est_start < 1e-9);
    }

    #[test]
    fn ready_ordering_does_not_postpone_small_app() {
        // Reproduces the situation of Figure 1: a big chain and a small chain
        // whose whole work fits inside the big chain's first task.
        let p = PlatformBuilder::new("two-proc")
            .cluster("c", 2, 1.0)
            .build()
            .unwrap();
        let big = chain(3, 100.0e6);
        let small = chain(2, 8.0e6);
        let allocs = [one_alloc(&big), one_alloc(&small)];
        let ready = map_concurrent(
            &p,
            &[big.clone(), small.clone()],
            &allocs,
            &[0.0, 0.0],
            &MappingConfig {
                ordering: OrderingMode::ReadyTasks,
                ..MappingConfig::default()
            },
        );
        let global = map_concurrent(
            &p,
            &[big, small],
            &allocs,
            &[0.0, 0.0],
            &MappingConfig {
                ordering: OrderingMode::Global,
                ..MappingConfig::default()
            },
        );
        // With ready ordering the small application starts immediately.
        assert!(ready.placements[1][0].est_start < 1e-9);
        // With the global no-backfilling ordering it is postponed behind the
        // big application's first task.
        assert!(global.placements[1][0].est_start > ready.placements[1][0].est_start);
        // And the small application finishes later under the global ordering.
        assert!(global.estimated_app_makespan(1) > ready.estimated_app_makespan(1));
    }

    #[test]
    fn packing_shrinks_allocation_to_start_earlier() {
        // One cluster with 4 processors; a first task occupies 3 of them for
        // a long time. A second independent task allocated 4 processors can
        // either wait for all 4 or shrink to the single free processor.
        let p = PlatformBuilder::new("small")
            .cluster("c", 4, 1.0)
            .build()
            .unwrap();
        let blocker = chain(1, 121.0e6);
        let flexible = chain(1, 8.0e6);
        let allocs = [
            RefAllocation::from_counts(vec![3]),
            RefAllocation::from_counts(vec![4]),
        ];
        let packed = map_concurrent(
            &p,
            &[blocker.clone(), flexible.clone()],
            &allocs,
            &[0.0, 0.0],
            &MappingConfig {
                packing: true,
                ..MappingConfig::default()
            },
        );
        let unpacked = map_concurrent(
            &p,
            &[blocker, flexible],
            &allocs,
            &[0.0, 0.0],
            &MappingConfig {
                packing: false,
                ..MappingConfig::default()
            },
        );
        let packed_small = &packed.placements[1][0];
        let unpacked_small = &unpacked.placements[1][0];
        assert!(
            packed_small.est_start < unpacked_small.est_start,
            "packing should let the small task start earlier"
        );
        assert!(packed.workload.jobs[packed_small.job].procs.len() < 4);
        assert!(packed_small.est_finish <= unpacked_small.est_finish + 1e-9);
    }

    #[test]
    fn packing_never_delays_finish() {
        let p = platform();
        let ptgs: Vec<Ptg> = (0..4).map(|i| fork(4, 20.0e6 + i as f64 * 1.0e6)).collect();
        let allocs: Vec<RefAllocation> = ptgs
            .iter()
            .map(|g| RefAllocation::from_counts(vec![3; g.num_tasks()]))
            .collect();
        let releases = vec![0.0; ptgs.len()];
        let with = map_concurrent(&p, &ptgs, &allocs, &releases, &MappingConfig::default());
        let without = map_concurrent(
            &p,
            &ptgs,
            &allocs,
            &releases,
            &MappingConfig {
                packing: false,
                ..MappingConfig::default()
            },
        );
        assert!(with.estimated_makespan() <= without.estimated_makespan() + 1e-6);
    }

    #[test]
    fn release_time_shifts_start() {
        let p = platform();
        let g = chain(2, 8.0e6);
        let schedule = map_concurrent(
            &p,
            std::slice::from_ref(&g),
            &[one_alloc(&g)],
            &[42.0],
            &MappingConfig::default(),
        );
        assert!(schedule.placements[0][0].est_start >= 42.0);
        assert!(schedule.workload.jobs[0].release_time == 42.0);
    }

    #[test]
    fn priorities_follow_mapping_order() {
        let p = platform();
        let g = chain(3, 8.0e6);
        let schedule = map_concurrent(
            &p,
            std::slice::from_ref(&g),
            &[one_alloc(&g)],
            &[0.0],
            &MappingConfig::default(),
        );
        let priorities: Vec<u64> = schedule.workload.jobs.iter().map(|j| j.priority).collect();
        let mut sorted = priorities.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), priorities.len(), "priorities are unique");
    }

    #[test]
    fn workload_transfer_count_matches_edges() {
        let p = platform();
        let a = fork(3, 10.0e6);
        let b = chain(4, 10.0e6);
        let total_edges = a.num_edges() + b.num_edges();
        let schedule = map_concurrent(
            &p,
            &[a.clone(), b.clone()],
            &[one_alloc(&a), one_alloc(&b)],
            &[0.0, 0.0],
            &MappingConfig::default(),
        );
        assert_eq!(schedule.workload.transfers.len(), total_edges);
    }

    /// Random multi-PTG inputs on the Grid'5000 sites with non-zero release
    /// times, mapped under every ordering × packing × comm-aware setting.
    /// A platform, its PTGs, their allocations and their release times.
    type Input = (Platform, Vec<Ptg>, Vec<RefAllocation>, Vec<f64>);

    fn random_inputs(seed: u64) -> Vec<Input> {
        use mcsched_platform::grid5000;
        use mcsched_ptg::gen::{random_ptg, RandomPtgConfig};
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sites = grid5000::all_sites();
        (0..12)
            .map(|case| {
                let platform = sites[case % sites.len()].clone();
                let max = platform.clusters().iter().map(|c| c.num_procs()).max();
                let max = max.expect("sites have clusters");
                let napps = rng.gen_range(2..=6);
                let ptgs: Vec<Ptg> = (0..napps)
                    .map(|i| {
                        let cfg = RandomPtgConfig::sample_paper_grid(&mut rng);
                        random_ptg(&cfg, &mut rng, format!("g{i}"))
                    })
                    .collect();
                let allocs = ptgs
                    .iter()
                    .map(|g| {
                        let counts = (0..g.num_tasks()).map(|_| rng.gen_range(1..=max));
                        RefAllocation::from_counts(counts.collect())
                    })
                    .collect();
                let releases = (0..napps).map(|_| rng.gen_range(0.5..100.0)).collect();
                (platform, ptgs, allocs, releases)
            })
            .collect()
    }

    fn all_configs() -> impl Iterator<Item = MappingConfig> {
        [OrderingMode::ReadyTasks, OrderingMode::Global]
            .into_iter()
            .flat_map(|ordering| [false, true].map(|packing| (ordering, packing)))
            .flat_map(|(ordering, packing)| {
                [false, true].map(|comm_aware| MappingConfig {
                    ordering,
                    packing,
                    comm_aware,
                })
            })
    }

    #[test]
    fn estimates_never_overlap_on_a_processor() {
        for (platform, ptgs, allocs, releases) in random_inputs(0x1A7E) {
            for config in all_configs() {
                let s = map_concurrent(&platform, &ptgs, &allocs, &releases, &config);
                // Estimated busy intervals of every (cluster, processor).
                let mut busy: Vec<Vec<Vec<(f64, f64)>>> = platform
                    .clusters()
                    .iter()
                    .map(|c| vec![Vec::new(); c.num_procs()])
                    .collect();
                for (app, ptg) in ptgs.iter().enumerate() {
                    for (t, p) in s.placements[app].iter().enumerate() {
                        let job = &s.workload.jobs[p.job];
                        let cluster = &platform.clusters()[p.cluster];
                        assert_eq!(job.procs.cluster(), p.cluster);
                        assert!(job.procs.iter().all(|q| q < cluster.num_procs()));
                        // The set has exactly the processor count the
                        // estimate and the job's duration were computed for.
                        let time = ptg.task(t).parallel_time(job.procs.len(), cluster.speed());
                        assert_eq!(job.duration.to_bits(), time.to_bits());
                        assert!(p.est_start >= releases[app]);
                        assert_eq!(p.est_finish.to_bits(), (p.est_start + time).to_bits());
                        for q in job.procs.iter() {
                            busy[p.cluster][q].push((p.est_start, p.est_finish));
                        }
                    }
                }
                for intervals in busy.iter_mut().flatten() {
                    intervals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
                    for w in intervals.windows(2) {
                        assert!(
                            w[0].1 <= w[1].0,
                            "{config:?}: {:?} overlaps {:?}",
                            w[0],
                            w[1]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn candidate_keys_follow_total_cmp_and_round_trip() {
        let values = [
            f64::NEG_INFINITY,
            -3.5e10,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            7.25e9,
            f64::INFINITY,
            f64::NAN,
        ];
        for &a in &values {
            let (back, app, task) = decode_key(candidate_key(a, 3, 41));
            assert_eq!((back.to_bits(), app, task), (a.to_bits(), 3, 41));
            for &b in &values {
                let keys = candidate_key(a, 0, 0).cmp(&candidate_key(b, 0, 0));
                assert_eq!(keys, a.total_cmp(&b), "{a} vs {b}");
            }
        }
        // Equal values order by application, then task.
        assert!(candidate_key(2.0, 1, 9) < candidate_key(2.0, 2, 0));
        assert!(candidate_key(2.0, 1, 8) < candidate_key(2.0, 1, 9));
    }

    #[test]
    fn app_jobs_partition_the_workload() {
        let p = platform();
        let a = chain(3, 10.0e6);
        let b = fork(2, 10.0e6);
        let schedule = map_concurrent(
            &p,
            &[a.clone(), b.clone()],
            &[one_alloc(&a), one_alloc(&b)],
            &[0.0, 0.0],
            &MappingConfig::default(),
        );
        let mut all: Vec<JobId> = schedule.app_jobs(0);
        all.extend(schedule.app_jobs(1));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), schedule.workload.num_jobs());
    }
}
