//! Allocation step: deciding how many processors each task gets.
//!
//! Allocations are expressed in *reference processors*, following the HCPA
//! approach recalled in the paper's related work: the heterogeneous platform
//! is abstracted as a homogeneous *reference cluster* whose per-processor
//! speed is the speed of the slowest processor of the platform and whose
//! size matches the platform's total processing power. The allocation
//! procedures reason on this cluster; the mapping step then translates a
//! reference allocation into an equivalent number of processors of the
//! concrete cluster a task is placed on.

pub mod cpa;
pub(crate) mod fast;
pub mod scrap;

pub use cpa::cpa_allocate;
pub use scrap::{scrap_allocate, scrap_max_allocate, ScrapLog, ScrapVariant};

use mcsched_platform::Platform;
use mcsched_ptg::{Ptg, TaskId};
use serde::{Deserialize, Serialize};

/// The homogeneous reference cluster abstracting a heterogeneous platform.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferencePlatform {
    ref_speed: f64,
    ref_procs: usize,
    max_task_procs: usize,
    total_power: f64,
}

impl ReferencePlatform {
    /// Builds the reference view of a platform.
    pub fn new(platform: &Platform) -> Self {
        let ref_speed = platform.reference_speed();
        let ref_procs = platform.reference_procs().max(1);
        // A task is always mapped inside a single cluster, so its allocation
        // can never exceed the power of the largest cluster (expressed in
        // reference processors).
        let max_task_procs = platform
            .clusters()
            .iter()
            .map(|c| (c.total_power() / ref_speed).floor() as usize)
            .max()
            .unwrap_or(1)
            .max(1);
        Self {
            ref_speed,
            ref_procs,
            max_task_procs,
            total_power: platform.total_power(),
        }
    }

    /// Builds a reference platform directly from its parameters (useful for
    /// tests and for homogeneous platforms).
    pub fn from_parts(ref_speed: f64, ref_procs: usize, max_task_procs: usize) -> Self {
        Self {
            ref_speed,
            ref_procs: ref_procs.max(1),
            max_task_procs: max_task_procs.clamp(1, ref_procs.max(1)),
            total_power: ref_speed * ref_procs as f64,
        }
    }

    /// Speed of one reference processor (flop/s).
    pub fn speed(&self) -> f64 {
        self.ref_speed
    }

    /// Number of reference processors (platform power / reference speed).
    pub fn procs(&self) -> usize {
        self.ref_procs
    }

    /// Maximum reference allocation a single task can receive (power of the
    /// largest cluster).
    pub fn max_task_procs(&self) -> usize {
        self.max_task_procs
    }

    /// Total processing power of the underlying platform (flop/s).
    pub fn total_power(&self) -> f64 {
        self.total_power
    }

    /// Power budget allowed by constraint `beta`, in reference processors
    /// (β is clamped to `[0, 1]`).
    pub fn budget_procs(&self, beta: f64) -> f64 {
        beta.clamp(0.0, 1.0) * self.ref_procs as f64
    }

    /// Execution time of task `t` of `ptg` on `n` reference processors.
    pub fn task_time(&self, ptg: &Ptg, t: TaskId, n: usize) -> f64 {
        ptg.task(t).parallel_time(n, self.ref_speed)
    }

    /// Area (time × power, in flop) of task `t` on `n` reference processors.
    pub fn task_area(&self, ptg: &Ptg, t: TaskId, n: usize) -> f64 {
        ptg.task(t).area(n, self.ref_speed)
    }

    /// Number of processors of speed `cluster_speed` delivering at least as
    /// much power as `n_ref` reference processors (at least 1).
    pub fn translate(&self, n_ref: usize, cluster_speed: f64) -> usize {
        let exact = n_ref as f64 * self.ref_speed / cluster_speed;
        (exact - 1e-9).ceil().max(1.0) as usize
    }
}

/// A per-task allocation in reference processors for one PTG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefAllocation {
    procs: Vec<usize>,
}

impl RefAllocation {
    /// The initial allocation of every procedure: one processor per task.
    pub fn one_per_task(num_tasks: usize) -> Self {
        Self {
            procs: vec![1; num_tasks],
        }
    }

    /// Builds an allocation from explicit per-task counts.
    pub fn from_counts(procs: Vec<usize>) -> Self {
        Self { procs }
    }

    /// Number of reference processors allocated to task `t`.
    pub fn procs_of(&self, t: TaskId) -> usize {
        self.procs[t]
    }

    /// Per-task allocation counts.
    pub fn counts(&self) -> &[usize] {
        &self.procs
    }

    /// Mutable access used by the allocation procedures.
    pub(crate) fn add_proc(&mut self, t: TaskId) {
        self.procs[t] += 1;
    }

    /// Mutable access used by the allocation procedures.
    pub(crate) fn remove_proc(&mut self, t: TaskId) {
        debug_assert!(self.procs[t] > 1);
        self.procs[t] -= 1;
    }

    /// Largest per-task allocation.
    pub fn max(&self) -> usize {
        self.procs.iter().copied().max().unwrap_or(0)
    }

    /// Sum of the per-task allocations.
    pub fn total(&self) -> usize {
        self.procs.iter().sum()
    }
}

/// The β = 1 allocation of one PTG — its dedicated-platform allocation —
/// in the form from which the same procedure's constrained allocations of
/// that PTG are derived
/// ([`crate::policy::AllocationPolicy::allocate_from`]).
#[derive(Debug, Clone)]
pub enum DedicatedAllocation {
    /// The allocation alone: runs under β < 1 start afresh.
    Plain(RefAllocation),
    /// A SCRAP or SCRAP-MAX run with its trial log: runs of the same
    /// procedure under β < 1 resume from it.
    Logged(Box<ScrapLog>),
}

impl DedicatedAllocation {
    /// The β = 1 allocation.
    #[must_use]
    pub fn allocation(&self) -> &RefAllocation {
        match self {
            DedicatedAllocation::Plain(allocation) => allocation,
            DedicatedAllocation::Logged(log) => log.allocation(),
        }
    }

    /// The allocation of a `variant` run under `beta`, resumed from the
    /// log; `None` when there is no log of that procedure.
    #[must_use]
    pub fn resume(&self, variant: ScrapVariant, beta: f64) -> Option<RefAllocation> {
        match self {
            DedicatedAllocation::Logged(log) if log.variant() == variant => Some(log.resume(beta)),
            _ => None,
        }
    }
}

/// Quantities shared by the allocation procedures to check resource
/// constraints on a PTG.
#[derive(Debug, Clone)]
pub(crate) struct ConstraintChecker<'a> {
    pub reference: &'a ReferencePlatform,
    pub ptg: &'a Ptg,
    /// Precedence level of every task.
    pub levels: Vec<usize>,
    /// Number of levels.
    pub num_levels: usize,
}

impl<'a> ConstraintChecker<'a> {
    pub fn new(reference: &'a ReferencePlatform, ptg: &'a Ptg) -> Self {
        let s = mcsched_ptg::analysis::structure(ptg);
        Self {
            reference,
            ptg,
            num_levels: s.level_widths.len(),
            levels: s.levels,
        }
    }

    /// SCRAP's global check: average power usage of the allocation over the
    /// critical path duration, in reference processors.
    ///
    /// The production loop in [`scrap`] evaluates this quantity through its
    /// [`fast::AllocScratch`] caches; this standalone form is the executable
    /// definition the scratch is tested against.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn average_usage(&self, alloc: &RefAllocation) -> f64 {
        let total_area: f64 = self
            .ptg
            .task_ids()
            .map(|t| self.reference.task_area(self.ptg, t, alloc.procs_of(t)))
            .sum();
        let cp = mcsched_ptg::analysis::analyze(
            self.ptg,
            |t| self.reference.task_time(self.ptg, t, alloc.procs_of(t)),
            |_| 0.0,
        )
        .critical_path_length;
        if cp <= 0.0 {
            return 0.0;
        }
        total_area / cp / self.reference.speed()
    }

    /// SCRAP-MAX's per-level check: total allocation of one precedence
    /// level, in reference processors.
    ///
    /// The production loop in [`scrap`] tracks this quantity with running
    /// per-level sums; this standalone form is the executable definition
    /// those sums are tested against.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn level_usage(&self, alloc: &RefAllocation, level: usize) -> f64 {
        self.ptg
            .task_ids()
            .filter(|&t| self.levels[t] == level)
            .map(|t| alloc.procs_of(t) as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{
        AllocationPolicy, CpaAllocation, OneEachAllocation, ScrapAllocation, ScrapMaxAllocation,
    };
    use mcsched_platform::PlatformBuilder;
    use mcsched_ptg::{CostModel, DataParallelTask, PtgBuilder};

    fn platform() -> Platform {
        PlatformBuilder::new("p")
            .cluster("slow", 10, 1.0)
            .cluster("fast", 10, 2.0)
            .build()
            .unwrap()
    }

    fn chain(n: usize) -> Ptg {
        let mut b = PtgBuilder::new("chain");
        for i in 0..n {
            b.add_task(DataParallelTask::new(
                format!("t{i}"),
                4.0e6,
                CostModel::MatrixProduct,
                0.1,
            ));
        }
        for i in 1..n {
            b.add_data_edge(i - 1, i);
        }
        b.build().unwrap()
    }

    #[test]
    fn reference_platform_parameters() {
        let r = ReferencePlatform::new(&platform());
        assert_eq!(r.speed(), 1.0e9);
        // total power = 10*1 + 10*2 = 30 GFlop/s => 30 reference procs
        assert_eq!(r.procs(), 30);
        // largest cluster power = 20 GFlop/s => 20 reference procs per task max
        assert_eq!(r.max_task_procs(), 20);
    }

    #[test]
    fn translate_rounds_up_power_equivalence() {
        let r = ReferencePlatform::new(&platform());
        // 5 reference procs at 1 GFlop/s = 5 GFlop/s => 3 procs at 2 GFlop/s
        assert_eq!(r.translate(5, 2.0e9), 3);
        // exact division
        assert_eq!(r.translate(4, 2.0e9), 2);
        // never zero
        assert_eq!(r.translate(1, 2.0e9), 1);
        // same speed: identity
        assert_eq!(r.translate(7, 1.0e9), 7);
    }

    #[test]
    fn one_per_task_allocation() {
        let a = RefAllocation::one_per_task(5);
        assert_eq!(a.total(), 5);
        assert_eq!(a.max(), 1);
        assert_eq!(a.procs_of(3), 1);
    }

    #[test]
    fn add_remove_procs() {
        let mut a = RefAllocation::one_per_task(3);
        a.add_proc(1);
        a.add_proc(1);
        assert_eq!(a.procs_of(1), 3);
        a.remove_proc(1);
        assert_eq!(a.procs_of(1), 2);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn average_usage_of_one_proc_chain_is_one() {
        // A chain with 1 proc per task: total area equals CP * speed, so the
        // average usage is exactly 1 reference processor.
        let p = platform();
        let r = ReferencePlatform::new(&p);
        let g = chain(4);
        let checker = ConstraintChecker::new(&r, &g);
        let alloc = RefAllocation::one_per_task(4);
        assert!((checker.average_usage(&alloc) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn level_usage_sums_allocations() {
        let p = platform();
        let r = ReferencePlatform::new(&p);
        let g = chain(3);
        let checker = ConstraintChecker::new(&r, &g);
        let mut alloc = RefAllocation::one_per_task(3);
        alloc.add_proc(1);
        assert_eq!(checker.level_usage(&alloc, 0), 1.0);
        assert_eq!(checker.level_usage(&alloc, 1), 2.0);
        assert_eq!(checker.num_levels, 3);
    }

    #[test]
    fn budget_scales_with_beta() {
        let r = ReferencePlatform::new(&platform());
        assert!((r.budget_procs(1.0) - 30.0).abs() < 1e-9);
        assert!((r.budget_procs(0.5) - 15.0).abs() < 1e-9);
        assert!((r.budget_procs(2.0) - 30.0).abs() < 1e-9, "beta is clamped");
    }

    #[test]
    fn procedure_labels() {
        assert_eq!(ScrapAllocation.name(), "SCRAP");
        assert_eq!(ScrapMaxAllocation.name(), "SCRAP-MAX");
        assert_eq!(CpaAllocation.name(), "CPA");
        assert_eq!(OneEachAllocation.name(), "1-proc");
    }

    #[test]
    fn one_each_procedure_allocates_one() {
        let p = platform();
        let r = ReferencePlatform::new(&p);
        let g = chain(5);
        let a = OneEachAllocation.allocate(&r, &g, 1.0);
        assert_eq!(a.counts(), &[1, 1, 1, 1, 1]);
    }
}
