//! SCRAP and SCRAP-MAX constrained allocation procedures.
//!
//! Both procedures (introduced in the authors' earlier PDCS'07 work and
//! recalled in Section 4 of the paper) start from an allocation of one
//! reference processor per task and iteratively give one more processor to
//! the critical-path task that benefits the most from the increase. They
//! differ in how they detect a violation of the resource constraint `β`:
//!
//! * **SCRAP** — violation when the *global* average power usage of the
//!   schedule (sum of the task areas divided by the critical path length)
//!   exceeds a `β` fraction of the platform's power. Note that for `β = 1`
//!   this is exactly the CPA stopping criterion (`T_CP ≤ T_A`): the area/CP
//!   balance is what keeps allocations from growing into the regime where
//!   Amdahl overhead wastes the platform;
//! * **SCRAP-MAX** — additionally requires that the total allocation of any
//!   single *precedence level* never exceeds a `β` fraction of the
//!   platform's power. The rationale is that the ready tasks that the
//!   mapping step considers concurrently mostly belong to the same
//!   precedence level, so bounding each level bounds the instantaneous power
//!   the PTG can grab (and guarantees the concurrent tasks of a level are
//!   never postponed for lack of resources within the PTG's share).
//!
//! When the best candidate's increment would violate the constraint the
//! candidate is frozen and the procedure moves on to the next critical-path
//! task; the procedure stops when every critical-path task is frozen, has
//! reached the largest single-cluster allocation, or no longer benefits from
//! an extra processor.
//!
//! ## Resuming from the β = 1 run
//!
//! A run depends on β only through the violation test `load > budget(β)`,
//! where the *load* of a tentative grant is the average power usage (and,
//! for SCRAP-MAX, the larger of it and the task's level total). Two runs of
//! one PTG under `β < 1` and `β = 1` therefore make the same trials as long
//! as they agree on every outcome, and they can only disagree on a grant
//! that stands at β = 1 with a load above `budget(β)`: a trial violated at
//! β = 1 is violated under any smaller budget. A [`ScrapLog`] records the
//! trials of the β = 1 run; [`ScrapLog::resume`] finds the first granted
//! trial whose load exceeds the smaller budget, rebuilds the state just
//! before it and runs the grant loop on from there. The result is
//! bit-identical to a fresh run under β, and the dedicated baseline of the
//! same PTG — which is the β = 1 run — comes for free.
//!
//! β enters a resumed run only through its threshold `budget(β) + 1e-9`,
//! and the same thresholds come back: the equal-share strategy gives each
//! of `k` applications β = 1/k, and `k` rarely changes between the online
//! scheduler's re-plans. So the log also keeps the last 16 allocations it
//! resumed, keyed by the threshold's bits, and a repeated threshold costs a
//! lookup and a clone.

use super::fast::AllocScratch;
use super::{ConstraintChecker, RefAllocation, ReferencePlatform};
use mcsched_ptg::Ptg;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Which violation test an allocation run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrapVariant {
    /// Global (whole-schedule) constraint only.
    Global,
    /// Global constraint plus the per-precedence-level cap.
    PerLevel,
}

/// Runs the SCRAP procedure (global constraint) on `ptg` under constraint
/// `beta`.
pub fn scrap_allocate(reference: &ReferencePlatform, ptg: &Ptg, beta: f64) -> RefAllocation {
    run(reference, ptg, beta, ScrapVariant::Global)
}

/// Runs the SCRAP-MAX procedure (per-level constraint) on `ptg` under
/// constraint `beta`. This is the variant the paper retains for its
/// evaluation.
pub fn scrap_max_allocate(reference: &ReferencePlatform, ptg: &Ptg, beta: f64) -> RefAllocation {
    run(reference, ptg, beta, ScrapVariant::PerLevel)
}

fn run(
    reference: &ReferencePlatform,
    ptg: &Ptg,
    beta: f64,
    variant: ScrapVariant,
) -> RefAllocation {
    Run::new(reference, ptg, variant).finish(threshold(reference, beta), 0)
}

/// The largest load a grant may reach under `beta`: the power budget in
/// reference processors, plus the tolerance every check allows.
fn threshold(reference: &ReferencePlatform, beta: f64) -> f64 {
    reference.budget_procs(beta) + 1e-9
}

/// Flag of a [`Trials::tasks`] entry whose grant stood.
const GRANTED: u32 = 1 << 31;

/// The tentative grants of a logged run. The *load* of a grant is the
/// quantity the violation test compares with the budget: the average power
/// usage after the grant, and for SCRAP-MAX the larger of it and the task's
/// level total.
#[derive(Debug, Clone, Default)]
struct Trials {
    /// Every trial's task, in order, with [`GRANTED`] set when it stood.
    tasks: Vec<u32>,
    /// Positions in `tasks` of the granted trials whose load exceeds every
    /// earlier granted load, so [`Trials::peak_loads`] increase. The first
    /// grant that a smaller budget violates is always one of them, so the
    /// other loads are not kept.
    peaks: Vec<u32>,
    /// The loads of the `peaks` trials.
    peak_loads: Vec<f64>,
}

impl Trials {
    fn push(&mut self, task: usize, load: f64, granted: bool) {
        // A NaN load is never above a budget, so it is never a peak.
        if granted && load > self.peak_loads.last().copied().unwrap_or(f64::NEG_INFINITY) {
            self.peaks.push(self.tasks.len() as u32);
            self.peak_loads.push(load);
        }
        self.tasks
            .push(task as u32 | if granted { GRANTED } else { 0 });
    }
}

/// The state of a SCRAP or SCRAP-MAX run: the allocation and the caches
/// the grant loop reads, frozen candidates included
/// ([`AllocScratch::freeze`]).
#[derive(Debug, Clone)]
struct Run {
    variant: ScrapVariant,
    speed: f64,
    max_per_task: usize,
    levels: Vec<usize>,
    /// Running per-level allocation totals (SCRAP-MAX's check quantity).
    /// All addends are integers well below 2^53, so the running total is
    /// exactly the ordered `level_usage` sum, bit for bit.
    level_sums: Vec<usize>,
    alloc: RefAllocation,
    scratch: AllocScratch,
}

impl Run {
    /// The state before the first grant: one processor per task.
    fn new(reference: &ReferencePlatform, ptg: &Ptg, variant: ScrapVariant) -> Self {
        let n = ptg.num_tasks();
        let checker = ConstraintChecker::new(reference, ptg);
        let mut level_sums = vec![0usize; checker.num_levels];
        for &level in &checker.levels {
            level_sums[level] += 1;
        }
        Self {
            variant,
            speed: reference.speed(),
            max_per_task: reference.max_task_procs(),
            levels: checker.levels,
            level_sums,
            alloc: RefAllocation::one_per_task(n),
            scratch: AllocScratch::new(reference, ptg),
        }
    }

    /// Runs the grant loop to the end without a log and returns the
    /// allocation.
    fn finish(mut self, threshold: f64, grants_so_far: usize) -> RefAllocation {
        let grants = self.grant(threshold, grants_so_far, None);
        mcsched_obs::histogram!("alloc.grants").record(grants);
        self.alloc
    }

    /// The grant loop: grows the allocation until no critical-path
    /// candidate is left, starting with outer iteration `iter` (one outer
    /// iteration per grant made so far). A grant stands when its load is at
    /// most `threshold`. Every tentative grant is appended to `log` when one
    /// is given. Returns the number of grants made.
    fn grant(&mut self, threshold: f64, mut iter: usize, mut log: Option<&mut Trials>) -> u64 {
        let n = self.alloc.counts().len();
        if n == 0 {
            return 0;
        }
        // Safety bound: each task can gain at most `max_per_task - 1`
        // processors, so the loop terminates after at most n * max_per_task
        // iterations.
        let max_iters = n * self.max_per_task + 1;
        let mut grants = 0u64;
        // Critical path under the current allocation (communication costs
        // are ignored during allocation, as in the paper). The entry task is
        // carried across iterations: after a successful grant the inner loop
        // already computed the new critical path for the constraint check,
        // so the scan is not repeated.
        let (_, mut entry) = self.scratch.cp();
        'outer: while iter < max_iters {
            iter += 1;
            // Candidates: critical-path tasks that are not frozen, still
            // below the single-cluster bound and that actually benefit from
            // one more processor, consumed best-first (largest execution-time
            // gain, then lowest task id). The witness walk picks the first
            // one. A failed candidate is frozen — and a revert restores the
            // scratch bitwise — so re-scanning the path for the argmax after
            // each freeze yields exactly the sorted consumption order
            // without materializing the candidate list.
            let mut best = self.scratch.witness_path(entry);
            loop {
                let Some(t) = best else {
                    // No eligible critical-path task is left: the allocation
                    // is final.
                    break 'outer;
                };
                let level = self.levels[t];
                // A SCRAP-MAX load is at least the level total, so a level
                // that the grant would take over the budget rules the trial
                // out whatever the usage: skip the tentative grant and its
                // revert. A violated load is never read, so the level total
                // stands in for it in the log.
                let level_load = (self.level_sums[level] + 1) as f64;
                if self.variant == ScrapVariant::PerLevel && level_load > threshold {
                    if let Some(log) = log.as_deref_mut() {
                        log.push(t, level_load, false);
                    }
                    self.scratch.freeze(t);
                    best = self.scratch.best_on_path();
                    continue;
                }
                self.alloc.add_proc(t);
                self.level_sums[level] += 1;
                self.scratch.set_procs(t, self.alloc.procs_of(t));
                let (cp, cp_entry, area) = self.scratch.cp_and_area();
                let usage = if cp <= 0.0 {
                    0.0
                } else {
                    area / cp / self.speed
                };
                // `max` keeps the non-NaN operand, so `load > threshold` is
                // exactly "usage or level total over the budget".
                let load = match self.variant {
                    ScrapVariant::Global => usage,
                    ScrapVariant::PerLevel => usage.max(self.level_sums[level] as f64),
                };
                let violated = load > threshold;
                if let Some(log) = log.as_deref_mut() {
                    log.push(t, load, !violated);
                }
                if !violated {
                    grants += 1;
                    entry = cp_entry;
                    continue 'outer;
                }
                self.alloc.remove_proc(t);
                self.level_sums[level] -= 1;
                self.scratch.set_procs(t, self.alloc.procs_of(t));
                self.scratch.freeze(t);
                best = self.scratch.best_on_path();
            }
        }
        grants
    }
}

/// A SCRAP or SCRAP-MAX run at β = 1 together with its trial log, from
/// which the same procedure's run on the same PTG under any β resumes (see
/// the module docs). Its allocation is the PTG's dedicated-platform
/// allocation.
#[derive(Debug, Clone)]
pub struct ScrapLog {
    reference: ReferencePlatform,
    /// The state before the first grant, cloned by every resume.
    start: Run,
    trials: Trials,
    grants: u64,
    allocation: RefAllocation,
    memo: Memo,
}

/// The most allocations a [`ScrapLog`] keeps resumed.
const MEMO_CAPACITY: usize = 16;

/// The allocations a [`ScrapLog`] has resumed, keyed by the bits of their
/// threshold, oldest first; at most [`MEMO_CAPACITY`] of them.
#[derive(Debug, Default)]
struct Memo(Mutex<Vec<(u64, RefAllocation)>>);

impl Memo {
    fn lock(&self) -> MutexGuard<'_, Vec<(u64, RefAllocation)>> {
        // An entry is only pushed once complete, so a panic under the lock
        // leaves nothing half-written.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for Memo {
    fn clone(&self) -> Self {
        Self(Mutex::new(self.lock().clone()))
    }
}

impl ScrapLog {
    /// Runs `variant` on `ptg` at β = 1 and records its trials.
    ///
    /// # Panics
    ///
    /// Panics if the PTG has 2³¹ tasks or more.
    #[must_use]
    pub fn record(reference: &ReferencePlatform, ptg: &Ptg, variant: ScrapVariant) -> Self {
        assert!(ptg.num_tasks() < GRANTED as usize, "too many tasks to log");
        let start = Run::new(reference, ptg, variant);
        let mut run = start.clone();
        let mut trials = Trials::default();
        let grants = run.grant(threshold(reference, 1.0), 0, Some(&mut trials));
        mcsched_obs::histogram!("alloc.grants").record(grants);
        // The log lives as long as its scenario: drop the growth slack.
        trials.tasks.shrink_to_fit();
        trials.peaks.shrink_to_fit();
        trials.peak_loads.shrink_to_fit();
        Self {
            reference: reference.clone(),
            start,
            trials,
            grants,
            allocation: run.alloc,
            memo: Memo::default(),
        }
    }

    /// The procedure that was run.
    #[must_use]
    pub fn variant(&self) -> ScrapVariant {
        self.start.variant
    }

    /// The β = 1 allocation.
    #[must_use]
    pub fn allocation(&self) -> &RefAllocation {
        &self.allocation
    }

    /// The allocation the same procedure computes for the same PTG under
    /// `beta`, bit-identical to a fresh run: the log is replayed up to the
    /// first grant that `beta`'s budget violates and the grant loop goes on
    /// from there. The replayed grants are counted by the
    /// `alloc.replayed_grants` counter, the computed ones by the
    /// `alloc.grants` histogram.
    ///
    /// A run depends on `beta` only through its threshold, so the log keeps
    /// the last few allocations it resumed, keyed by their threshold. A
    /// repeated threshold returns the kept allocation and counts one
    /// `alloc.resume_hits`, and nothing in the two metrics above, which
    /// count computed work. A new threshold is computed under the memo's
    /// lock, so concurrent callers compute each threshold once and the
    /// counts do not depend on how their calls interleave.
    #[must_use]
    pub fn resume(&self, beta: f64) -> RefAllocation {
        let limit = threshold(&self.reference, beta);
        let key = limit.to_bits();
        let mut memo = self.memo.lock();
        if let Some((_, allocation)) = memo.iter().find(|(k, _)| *k == key) {
            mcsched_obs::counter!("alloc.resume_hits").inc();
            return allocation.clone();
        }
        let allocation = self.compute(limit);
        if memo.len() == MEMO_CAPACITY {
            memo.remove(0);
        }
        memo.push((key, allocation.clone()));
        allocation
    }

    /// [`ScrapLog::resume`] under the threshold `limit`, without the memo.
    fn compute(&self, limit: f64) -> RefAllocation {
        if limit.is_nan() {
            // A NaN budget violates nothing, while the log's violations
            // stand: no outcome of the log is known to repeat. Any other β
            // is clamped to at most 1, so its budget is at most the log's.
            return self.start.clone().finish(limit, 0);
        }
        let trials = &self.trials;
        let Some(&split) = trials
            .peaks
            .get(trials.peak_loads.partition_point(|&load| load <= limit))
        else {
            mcsched_obs::counter!("alloc.replayed_grants").add(self.grants);
            mcsched_obs::histogram!("alloc.grants").record(0);
            return self.allocation.clone();
        };
        let mut run = self.start.clone();
        let mut replayed = 0usize;
        let prefix = &trials.tasks[..split as usize];
        for &entry in prefix {
            if entry & GRANTED != 0 {
                let t = (entry & !GRANTED) as usize;
                run.alloc.add_proc(t);
                run.level_sums[run.levels[t]] += 1;
                replayed += 1;
            }
        }
        // The loop goes on within the same outer iteration, whose witness
        // path follows from the rebuilt state: it retries the diverging
        // grant, which `beta`'s budget violates, and freezes its task.
        run.scratch.set_all(&run.alloc);
        for &entry in prefix {
            if entry & GRANTED == 0 {
                run.scratch.freeze(entry as usize);
            }
        }
        mcsched_obs::counter!("alloc.replayed_grants").add(replayed as u64);
        run.finish(limit, replayed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::ConstraintChecker;
    use mcsched_platform::PlatformBuilder;
    use mcsched_ptg::analysis::{analyze, structure};
    use mcsched_ptg::{CostModel, DataParallelTask, Ptg, PtgBuilder};

    fn reference(procs: usize) -> ReferencePlatform {
        ReferencePlatform::from_parts(1.0e9, procs, procs)
    }

    fn hetero_reference() -> ReferencePlatform {
        let p = PlatformBuilder::new("p")
            .cluster("a", 16, 1.0)
            .cluster("b", 16, 2.0)
            .build()
            .unwrap();
        ReferencePlatform::new(&p)
    }

    fn big_task(name: &str) -> DataParallelTask {
        DataParallelTask::new(name, 100.0e6, CostModel::MatrixProduct, 0.05)
    }

    fn chain(n: usize) -> Ptg {
        let mut b = PtgBuilder::new("chain");
        for i in 0..n {
            b.add_task(big_task(&format!("t{i}")));
        }
        for i in 1..n {
            b.add_data_edge(i - 1, i);
        }
        b.build().unwrap()
    }

    fn fork(width: usize) -> Ptg {
        // entry -> {width tasks} -> exit
        let mut b = PtgBuilder::new("fork");
        let entry = b.add_task(big_task("in"));
        let mut mids = Vec::new();
        for i in 0..width {
            mids.push(b.add_task(big_task(&format!("m{i}"))));
        }
        let exit = b.add_task(big_task("out"));
        for &m in &mids {
            b.add_data_edge(entry, m);
            b.add_data_edge(m, exit);
        }
        b.build().unwrap()
    }

    #[test]
    fn chain_with_loose_constraint_gets_large_allocations() {
        let r = reference(32);
        let g = chain(3);
        let a = scrap_max_allocate(&r, &g, 1.0);
        // Each level holds a single task, so each task can use up to the
        // whole budget; Amdahl gains keep it worthwhile up to the bound.
        assert!(a.max() > 1, "allocation should grow beyond 1 processor");
        for t in g.task_ids() {
            assert!(a.procs_of(t) <= 32);
        }
    }

    #[test]
    fn scrap_max_respects_per_level_budget() {
        let r = reference(32);
        let g = fork(8);
        let beta = 0.25; // budget = 8 reference processors per level
        let a = scrap_max_allocate(&r, &g, beta);
        let checker = ConstraintChecker::new(&r, &g);
        for level in 0..checker.num_levels {
            assert!(
                checker.level_usage(&a, level) <= 8.0 + 1e-9,
                "level {level} exceeds its budget"
            );
        }
    }

    #[test]
    fn scrap_respects_global_budget() {
        let r = reference(32);
        let g = fork(8);
        let beta = 0.25;
        let a = scrap_allocate(&r, &g, beta);
        let checker = ConstraintChecker::new(&r, &g);
        assert!(checker.average_usage(&a) <= r.budget_procs(beta) + 1e-9);
    }

    #[test]
    fn tighter_constraint_never_allocates_more() {
        let r = reference(64);
        let g = fork(6);
        let loose = scrap_max_allocate(&r, &g, 1.0);
        let tight = scrap_max_allocate(&r, &g, 0.2);
        assert!(tight.total() <= loose.total());
    }

    #[test]
    fn allocations_never_exceed_largest_cluster() {
        let r = hetero_reference(); // 48 ref procs, max per task 32
        let g = chain(2);
        let a = scrap_max_allocate(&r, &g, 1.0);
        for t in g.task_ids() {
            assert!(a.procs_of(t) <= r.max_task_procs());
        }
    }

    #[test]
    fn beta_zero_keeps_one_proc_per_task() {
        let r = reference(32);
        let g = fork(4);
        let a = scrap_max_allocate(&r, &g, 0.0);
        assert_eq!(a.counts(), vec![1; g.num_tasks()].as_slice());
        let a = scrap_allocate(&r, &g, 0.0);
        assert_eq!(a.counts(), vec![1; g.num_tasks()].as_slice());
    }

    #[test]
    fn allocation_reduces_critical_path() {
        let r = reference(32);
        let g = chain(4);
        let before = analyze(&g, |t| r.task_time(&g, t, 1), |_| 0.0).critical_path_length;
        let a = scrap_max_allocate(&r, &g, 1.0);
        let after =
            analyze(&g, |t| r.task_time(&g, t, a.procs_of(t)), |_| 0.0).critical_path_length;
        assert!(after < before);
    }

    #[test]
    fn scrap_max_spreads_over_wide_level() {
        let r = reference(40);
        let g = fork(10);
        let a = scrap_max_allocate(&r, &g, 0.5); // 20 procs per level
        let s = structure(&g);
        // The wide level (level 1) should not exceed 20 in total.
        let wide_total: usize = g
            .task_ids()
            .filter(|&t| s.levels[t] == 1)
            .map(|t| a.procs_of(t))
            .sum();
        assert!(wide_total <= 20);
        assert!(wide_total >= 10, "every task keeps at least one processor");
    }

    #[test]
    fn fully_parallel_tasks_grow_until_budget_under_scrap() {
        // alpha = 0 means adding processors never increases the area, so the
        // global constraint only stops growth at the per-task bound.
        let mut b = PtgBuilder::new("p");
        b.add_task(DataParallelTask::new(
            "t",
            50.0e6,
            CostModel::MatrixProduct,
            0.0,
        ));
        let g = b.build().unwrap();
        let r = reference(16);
        let a = scrap_allocate(&r, &g, 1.0);
        assert_eq!(a.procs_of(0), 16);
    }

    #[test]
    fn single_task_graph_single_level_budget() {
        let mut b = PtgBuilder::new("p");
        b.add_task(big_task("only"));
        let g = b.build().unwrap();
        let r = reference(20);
        let a = scrap_max_allocate(&r, &g, 0.5);
        assert!(a.procs_of(0) <= 10);
        assert!(a.procs_of(0) >= 1);
    }

    /// The SCRAP loop as it was written before the scratch-cache
    /// optimization: full temporal analyses on every step, the
    /// [`ConstraintChecker`] quantities recomputed from the allocation alone.
    /// Kept as the executable specification the fast path must match.
    fn naive_run(
        reference: &ReferencePlatform,
        ptg: &Ptg,
        beta: f64,
        variant: ScrapVariant,
    ) -> RefAllocation {
        let n = ptg.num_tasks();
        let mut alloc = RefAllocation::one_per_task(n);
        if n == 0 {
            return alloc;
        }
        let checker = ConstraintChecker::new(reference, ptg);
        let budget = reference.budget_procs(beta);
        let max_per_task = reference.max_task_procs();
        let mut frozen = vec![false; n];
        for _ in 0..n * max_per_task + 1 {
            let analysis = analyze(
                ptg,
                |t| reference.task_time(ptg, t, alloc.procs_of(t)),
                |_| 0.0,
            );
            let mut candidates: Vec<(f64, usize)> = analysis
                .critical_path
                .iter()
                .copied()
                .filter(|&t| !frozen[t] && alloc.procs_of(t) < max_per_task)
                .map(|t| {
                    let gain = reference.task_time(ptg, t, alloc.procs_of(t))
                        - reference.task_time(ptg, t, alloc.procs_of(t) + 1);
                    (gain, t)
                })
                .filter(|&(gain, _)| gain > 0.0)
                .collect();
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let mut progressed = false;
            for &(_, t) in &candidates {
                alloc.add_proc(t);
                let global_violated = checker.average_usage(&alloc) > budget + 1e-9;
                let violated = match variant {
                    ScrapVariant::Global => global_violated,
                    ScrapVariant::PerLevel => {
                        global_violated
                            || checker.level_usage(&alloc, checker.levels[t]) > budget + 1e-9
                    }
                };
                if violated {
                    alloc.remove_proc(t);
                    frozen[t] = true;
                } else {
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                break;
            }
        }
        alloc
    }

    /// Deterministic layered DAG with LCG-driven shape, costs and Amdahl
    /// fractions — enough variety to exercise ties, freezes and budget edges.
    fn random_ptg(seed: &mut u64) -> Ptg {
        let mut next = |m: u64| {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*seed >> 33) % m
        };
        let levels = 2 + next(4) as usize;
        let mut b = PtgBuilder::new("rand");
        let mut prev: Vec<usize> = Vec::new();
        for l in 0..levels {
            let width = 1 + next(4) as usize;
            let mut cur = Vec::new();
            for w in 0..width {
                let data = (1.0 + next(100) as f64) * 1.0e6;
                let alpha = next(20) as f64 / 100.0;
                let t = b.add_task(DataParallelTask::new(
                    format!("t{l}_{w}"),
                    data,
                    CostModel::MatrixProduct,
                    alpha,
                ));
                let anchor = next(prev.len().max(1) as u64) as usize;
                for (i, &p) in prev.iter().enumerate() {
                    if i == anchor || next(3) == 0 {
                        b.add_data_edge(p, t);
                    }
                }
                cur.push(t);
            }
            prev = cur;
        }
        b.build().unwrap()
    }

    /// Like [`random_ptg`] but wide and deep enough to exceed 64 tasks, so
    /// the incremental sweeps take the flag-scan fallback instead of the
    /// single-word bitmask frontier.
    fn large_random_ptg(seed: &mut u64) -> Ptg {
        let mut next = |m: u64| {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*seed >> 33) % m
        };
        let levels = 7 + next(3) as usize;
        let mut b = PtgBuilder::new("large");
        let mut prev: Vec<usize> = Vec::new();
        for l in 0..levels {
            let width = 9 + next(4) as usize;
            let mut cur = Vec::new();
            for w in 0..width {
                let data = (1.0 + next(100) as f64) * 1.0e6;
                let alpha = next(20) as f64 / 100.0;
                let t = b.add_task(DataParallelTask::new(
                    format!("t{l}_{w}"),
                    data,
                    CostModel::MatrixProduct,
                    alpha,
                ));
                let anchor = next(prev.len().max(1) as u64) as usize;
                for (i, &p) in prev.iter().enumerate() {
                    if i == anchor || next(4) == 0 {
                        b.add_data_edge(p, t);
                    }
                }
                cur.push(t);
            }
            prev = cur;
        }
        b.build().unwrap()
    }

    /// Checks the fast path and runs resumed from the β = 1 log against the
    /// naive spec at `betas` and at the edges of the log: a β whose budget
    /// is exactly a peak load (the grant stands) or just below it (the run
    /// diverges there), plus a zero, a clamped and a NaN β. Every β is
    /// resumed twice, the second pass in reverse order, so that the second
    /// answers come from the log's memo (or, for the thresholds it has
    /// evicted, are computed again).
    fn check_against_spec(r: &ReferencePlatform, g: &Ptg, betas: &[f64], case: usize) {
        for variant in [ScrapVariant::Global, ScrapVariant::PerLevel] {
            let log = ScrapLog::record(r, g, variant);
            assert_eq!(*log.allocation(), run(r, g, 1.0, variant), "case {case}");
            let loads = &log.trials.peak_loads;
            let procs = r.procs() as f64;
            let mut all = betas.to_vec();
            all.extend([0.0, 1.5, f64::NAN]);
            for &load in loads.iter().step_by((loads.len() / 6).max(1)) {
                all.extend([load / procs, (load - 2e-9) / procs]);
            }
            let naive: Vec<RefAllocation> = all
                .iter()
                .map(|&beta| {
                    let naive = naive_run(r, g, beta, variant);
                    let context = format!("case {case} beta {beta} variant {variant:?}");
                    assert_eq!(run(r, g, beta, variant), naive, "fast path: {context}");
                    naive
                })
                .collect();
            let forward = 0..all.len();
            for (pass, i) in forward
                .clone()
                .map(|i| (1, i))
                .chain(forward.rev().map(|i| (2, i)))
            {
                let beta = all[i];
                assert_eq!(
                    log.resume(beta),
                    naive[i],
                    "resumed, pass {pass}: case {case} beta {beta} variant {variant:?}"
                );
            }
        }
    }

    #[test]
    fn full_level_trials_match_the_spec_fresh_and_resumed() {
        // On 16 processors the middle level of fork(16) is full at β = 1,
        // and that of fork(12) fills at β = 0.75, so SCRAP-MAX rules the
        // middle tasks out on their level total alone.
        let r = reference(16);
        let betas: Vec<f64> = (0..=20).map(|i| f64::from(i) / 20.0).collect();
        for width in [12, 16] {
            let g = fork(width);
            let log = ScrapLog::record(&r, &g, ScrapVariant::PerLevel);
            if width == 16 {
                let middle = 1..=width as u32;
                assert!(
                    log.trials
                        .tasks
                        .iter()
                        .any(|&e| e & GRANTED == 0 && middle.contains(&e)),
                    "a middle task is tried on a full level"
                );
            }
            for &beta in &betas {
                let fresh = scrap_max_allocate(&r, &g, beta);
                let context = format!("width {width} beta {beta}");
                assert_eq!(
                    fresh,
                    naive_run(&r, &g, beta, ScrapVariant::PerLevel),
                    "{context}"
                );
                assert_eq!(log.resume(beta), fresh, "resumed: {context}");
            }
        }
    }

    #[test]
    fn flag_fallback_matches_naive_reference_beyond_64_tasks() {
        let mut seed = 0xFA11_BACCu64;
        for case in 0..4usize {
            let g = large_random_ptg(&mut seed);
            assert!(g.num_tasks() > 64, "case {case} must take the fallback");
            check_against_spec(&hetero_reference(), &g, &[0.3, 1.0], case);
        }
    }

    #[test]
    fn fast_path_matches_naive_reference_on_random_graphs() {
        let mut seed = 0x5EEDu64;
        for case in 0..60usize {
            let g = random_ptg(&mut seed);
            let r = if case % 2 == 0 {
                reference(16 + 4 * (case % 7))
            } else {
                hetero_reference()
            };
            check_against_spec(&r, &g, &[0.1, 0.3, 0.7, 1.0], case);
        }
    }
}
