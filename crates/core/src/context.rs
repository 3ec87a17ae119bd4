//! The shared evaluation context: one scenario's platform views and the
//! intermediates every policy compared on it shares.
//!
//! Evaluating one scenario (a platform plus a set of PTGs submitted
//! together) involves several expensive intermediates that older call sites
//! recomputed independently:
//!
//! * the [`ReferencePlatform`] view and the routing tables of the
//!   [`mcsched_simx::Engine`], previously rebuilt by every `allocate`,
//!   `schedule` and `dedicated_makespan` call;
//! * the **dedicated makespans** (`M_own`), previously re-simulated once per
//!   strategy — the N+1 shape of `ConcurrentScheduler::evaluate`;
//! * the **β = 1 allocation** of every application, run once and shared by
//!   its dedicated baseline, by the selfish strategy and — through the
//!   SCRAP trial log — by its constrained allocations under every other
//!   strategy, which resume from the log instead of re-running the shared
//!   prefix of grants;
//! * the **concurrent mapping and simulation**: one per
//!   [`ConcurrentScheduler::evaluate_in`] call, and on the paired path
//!   ([`ScheduleContext::evaluate_policies`]) one per distinct allocation
//!   vector, since strategies that give the same allocations (PS-width and
//!   ES on same-width FFT graphs, ES and S when β does not bind) get the
//!   same schedule. No run outlives the call that made it: the paired path
//!   keeps of each policy only its [`EvaluatedRun`] (per-application
//!   reports, global makespan, dedicated makespans, fairness), and drops
//!   the schedule and trace as soon as the run is read from them.
//!
//! A policy's β vector and allocations are not kept: each policy is
//! evaluated in one pass that holds them.
//!
//! A [`ScheduleContext`] owns all of them for one `(platform, ptgs, base
//! config)` triple. The scheduler, the online re-planner and the
//! `mcsched-exp` campaign harness (the µ sweep is a campaign) all drive
//! their pipelines through it, so a scenario performs **one dedicated
//! simulation per application** no matter how many strategies are compared
//! (asserted by [`ScheduleContext::dedicated_simulations`]-based tests).
//!
//! The dedicated slots use interior mutability (a lock or a once-cell per
//! application), so a context can be shared by reference across the fan-out
//! threads of a campaign.

use crate::allocation::{DedicatedAllocation, RefAllocation, ReferencePlatform};
use crate::error::SchedError;
use crate::mapping::Schedule;
use crate::policy::{AllocationPolicy, ConstraintPolicy, MappingPolicy, MappingRequest};
#[cfg(doc)]
use crate::scheduler::ConcurrentScheduler;
use crate::scheduler::{AppReport, ConcurrentRun, EvaluatedRun, SchedulerConfig};
use crate::workload::Workload;
use mcsched_platform::Platform;
use mcsched_ptg::Ptg;
use mcsched_simx::{Engine, SimOutcome, SimWorkload, SiteNetwork};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The context's engine: owned for one-shot batch scenarios, borrowed when a
/// long-lived caller (the online scheduler) keeps one engine — and its warm
/// scratch arenas and routing tables — across many short-lived contexts.
#[derive(Debug)]
enum EngineStore<'a> {
    Owned(Box<Engine<'a>>),
    Shared(&'a Engine<'a>),
}

/// Shared evaluation state for one scenario: a platform, the set of PTGs
/// submitted together (with their release times), and the base pipeline
/// whose allocation and mapping every strategy compared on that scenario
/// shares.
#[derive(Debug)]
pub struct ScheduleContext<'a> {
    platform: &'a Platform,
    ptgs: &'a [Ptg],
    release_times: Vec<f64>,
    base: SchedulerConfig,
    reference: Cow<'a, ReferencePlatform>,
    engine: EngineStore<'a>,
    /// The β = 1 allocation of every application under the base allocation
    /// policy, computed once and shared by its dedicated baseline and by its
    /// allocations under every strategy.
    dedicated_allocations: Vec<OnceLock<Arc<DedicatedAllocation>>>,
    dedicated_allocation_runs: AtomicUsize,
    /// One slot (and one lock) per application, so concurrent callers of a
    /// shared context can compute different baselines in parallel while each
    /// individual baseline is still simulated exactly once.
    dedicated: Vec<Mutex<Option<f64>>>,
    dedicated_sims: AtomicUsize,
    concurrent_sims: AtomicUsize,
}

impl<'a> ScheduleContext<'a> {
    /// Creates a context with the default base configuration.
    pub fn new(platform: &'a Platform, ptgs: &'a [Ptg]) -> Self {
        Self::with_base(platform, ptgs, SchedulerConfig::default())
    }

    /// Creates a context with an explicit base configuration (allocation
    /// and mapping policies used by the dedicated baselines and by every
    /// strategy evaluated through the context).
    pub fn with_base(platform: &'a Platform, ptgs: &'a [Ptg], base: SchedulerConfig) -> Self {
        Self::from_stores(
            platform,
            ptgs,
            base,
            Cow::Owned(ReferencePlatform::new(platform)),
            EngineStore::Owned(Box::new(Engine::new(platform))),
        )
    }

    /// Creates a context that *borrows* an engine and homogeneous reference
    /// view built once by the caller — the online scheduler's per-event
    /// path. A fresh context still re-derives β vectors, allocations and
    /// dedicated baselines for its (changed) resident set, but the engine's
    /// expensive parts — routing tables and the warm scratch-arena pool —
    /// carry over across every event of a run instead of being rebuilt.
    ///
    /// The engine and the reference view must have been built on the same
    /// platform (debug-asserted).
    pub fn with_shared_engine(
        engine: &'a Engine<'a>,
        reference: &'a ReferencePlatform,
        ptgs: &'a [Ptg],
        base: SchedulerConfig,
    ) -> Self {
        let platform = engine.platform();
        debug_assert_eq!(
            reference,
            &ReferencePlatform::new(platform),
            "engine and reference view must share a platform"
        );
        Self::from_stores(
            platform,
            ptgs,
            base,
            Cow::Borrowed(reference),
            EngineStore::Shared(engine),
        )
    }

    fn from_stores(
        platform: &'a Platform,
        ptgs: &'a [Ptg],
        base: SchedulerConfig,
        reference: Cow<'a, ReferencePlatform>,
        engine: EngineStore<'a>,
    ) -> Self {
        Self {
            reference,
            engine,
            dedicated_allocations: (0..ptgs.len()).map(|_| OnceLock::new()).collect(),
            dedicated_allocation_runs: AtomicUsize::new(0),
            dedicated: (0..ptgs.len()).map(|_| Mutex::new(None)).collect(),
            dedicated_sims: AtomicUsize::new(0),
            concurrent_sims: AtomicUsize::new(0),
            release_times: vec![0.0; ptgs.len()],
            platform,
            ptgs,
            base,
        }
    }

    /// Creates a context for a [`Workload`]: the PTGs are borrowed from the
    /// workload and its release times become the context's default release
    /// times (used by [`crate::scheduler::ConcurrentScheduler::schedule_in`]).
    pub fn for_workload(
        platform: &'a Platform,
        workload: &'a Workload,
        base: SchedulerConfig,
    ) -> Self {
        let mut ctx = Self::with_base(platform, workload.ptgs(), base);
        ctx.release_times = workload.release_times().to_vec();
        ctx
    }

    /// Returns the context with explicit per-application release times, for
    /// callers that borrow a plain PTG slice (e.g. a timed scenario) rather
    /// than a [`Workload`].
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidConfig`] when the lengths differ or a release
    /// time is negative or non-finite (the [`Workload::released`] contract).
    pub fn with_release_times(mut self, release_times: Vec<f64>) -> Result<Self, SchedError> {
        crate::workload::validate_release_times(self.ptgs.len(), &release_times)?;
        self.release_times = release_times;
        Ok(self)
    }

    /// The scenario's platform.
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// The scenario's applications, in submission order.
    pub fn ptgs(&self) -> &'a [Ptg] {
        self.ptgs
    }

    /// The scenario's default release times (all zero unless the context was
    /// built from a [`Workload`] with timed releases).
    pub fn release_times(&self) -> &[f64] {
        &self.release_times
    }

    /// The base pipeline of the scenario. Its allocation and mapping
    /// policies run the dedicated baselines and every policy evaluated by
    /// [`ScheduleContext::evaluate_policies`].
    pub fn base(&self) -> &SchedulerConfig {
        &self.base
    }

    /// The allocation policy used by the dedicated baselines.
    pub fn base_allocation(&self) -> &Arc<dyn AllocationPolicy> {
        &self.base.allocation
    }

    /// The mapping policy used by the dedicated baselines.
    pub fn base_mapping(&self) -> &Arc<dyn MappingPolicy> {
        &self.base.mapping
    }

    /// The homogeneous reference view of the platform, built once.
    pub fn reference(&self) -> &ReferencePlatform {
        &self.reference
    }

    /// The flattened site network (routing and link capacities), built once.
    pub fn network(&self) -> &SiteNetwork {
        self.engine().network()
    }

    /// The simulation engine bound to the scenario's platform.
    pub fn engine(&self) -> &Engine<'a> {
        match &self.engine {
            EngineStore::Owned(e) => e,
            EngineStore::Shared(e) => e,
        }
    }

    /// β constraints of every application under `policy`.
    pub fn betas_for(&self, policy: &dyn ConstraintPolicy) -> Vec<f64> {
        let _p = mcsched_obs::span!("beta+alloc");
        policy.betas(self.ptgs, self.reference())
    }

    /// Constrained allocations of every application under the
    /// `(constraint, allocation)` policy pair. Under the base allocation
    /// policy, an application's β = 1 allocation is its
    /// [`ScheduleContext::dedicated_allocation`], and a smaller β resumes
    /// from that one once it has been computed.
    pub fn allocations_for(
        &self,
        constraint: &dyn ConstraintPolicy,
        allocation: &dyn AllocationPolicy,
    ) -> Vec<RefAllocation> {
        self.allocate(&self.betas_for(constraint), allocation)
    }

    /// Allocates every application under its β of `betas` (one per
    /// application, in submission order) with `allocation`.
    pub(crate) fn allocate(
        &self,
        betas: &[f64],
        allocation: &dyn AllocationPolicy,
    ) -> Vec<RefAllocation> {
        // A β = 1 allocation is the dedicated one. A smaller β resumes from
        // the dedicated allocation when one is at hand but never starts one:
        // a schedule without dedicated baselines would pay for it. The
        // dedicated runs open their own span, so they come first.
        let base = allocation.cache_key() == self.base.allocation.cache_key();
        let dedicated: Vec<Option<Arc<DedicatedAllocation>>> = betas
            .iter()
            .enumerate()
            .map(|(app, &beta)| match (base, beta >= 1.0) {
                (false, _) => None,
                (true, true) => Some(self.dedicated_allocation(app)),
                (true, false) => self.dedicated_allocations[app].get().cloned(),
            })
            .collect();
        let _p = mcsched_obs::span!("beta+alloc");
        self.ptgs
            .iter()
            .zip(betas)
            .zip(&dedicated)
            .map(|((ptg, &beta), dedicated)| match dedicated {
                Some(d) => allocation.allocate_from(d, self.reference(), ptg, beta),
                None => allocation.allocate(self.reference(), ptg, beta),
            })
            .collect()
    }

    /// Maps the allocated applications with `mapping` at the context's
    /// release times, simulates the schedule and reports every application
    /// under its β of `betas`.
    ///
    /// # Errors
    ///
    /// [`SchedError::EmptyWorkload`] for a context without applications;
    /// simulation validation errors otherwise (indicating a scheduler bug).
    pub(crate) fn schedule(
        &self,
        betas: &[f64],
        allocations: &[RefAllocation],
        mapping: &dyn MappingPolicy,
    ) -> Result<ConcurrentRun, SchedError> {
        if self.ptgs.is_empty() {
            return Err(SchedError::EmptyWorkload);
        }
        let release_times = &self.release_times;
        let schedule = self.map_with(mapping, allocations, release_times);
        let outcome = self.execute(&schedule.workload)?;
        let apps = self
            .ptgs
            .iter()
            .enumerate()
            .map(|(i, ptg)| {
                let finish = outcome.trace.makespan_of(schedule.app_jobs(i));
                AppReport {
                    name: ptg.name().to_string(),
                    beta: betas[i],
                    makespan: (finish - release_times[i]).max(0.0),
                    estimated_makespan: schedule.estimated_app_makespan(i) - release_times[i],
                    allocated_procs: allocations[i].total(),
                }
            })
            .collect();
        Ok(ConcurrentRun {
            global_makespan: outcome.makespan,
            trace: outcome.trace,
            schedule,
            apps,
        })
    }

    /// The β = 1 allocation of application `app` under the base allocation
    /// policy ([`AllocationPolicy::dedicated`]): the allocation of its
    /// dedicated baseline, from which its allocations under every strategy
    /// derive. Computed once per application, by the first caller.
    ///
    /// # Panics
    ///
    /// Panics if `app` is out of range for the scenario's applications.
    pub fn dedicated_allocation(&self, app: usize) -> Arc<DedicatedAllocation> {
        Arc::clone(self.dedicated_allocations[app].get_or_init(|| {
            self.dedicated_allocation_runs
                .fetch_add(1, Ordering::Relaxed);
            let _p = mcsched_obs::span!("beta+alloc");
            Arc::new(
                self.base
                    .allocation
                    .dedicated(self.reference(), &self.ptgs[app]),
            )
        }))
    }

    /// Number of β = 1 allocations computed so far (at most one per
    /// application, however many strategies are evaluated).
    #[cfg(test)]
    fn dedicated_allocation_runs(&self) -> usize {
        self.dedicated_allocation_runs.load(Ordering::Relaxed)
    }

    /// Returns the context with the applications' β = 1 allocations given,
    /// one per application in submission order — for a caller that keeps
    /// them across contexts over a changing application set, as the online
    /// scheduler does across re-plans. Each must come from
    /// [`ScheduleContext::dedicated_allocation`] of a context with the same
    /// base allocation policy and platform.
    ///
    /// # Panics
    ///
    /// Panics if the count differs from the number of applications.
    #[must_use]
    pub fn with_dedicated_allocations(
        mut self,
        allocations: Vec<Arc<DedicatedAllocation>>,
    ) -> Self {
        assert_eq!(
            allocations.len(),
            self.ptgs.len(),
            "one dedicated allocation per application"
        );
        self.dedicated_allocations = allocations.into_iter().map(OnceLock::from).collect();
        self
    }

    /// Executes a concurrent workload on the scenario's engine, counting the
    /// simulation.
    ///
    /// # Errors
    ///
    /// Propagates simulation validation errors (wrapped as
    /// [`SchedError::Sim`], indicating a scheduler bug).
    pub fn execute(&self, workload: &SimWorkload) -> Result<SimOutcome, SchedError> {
        self.concurrent_sims.fetch_add(1, Ordering::Relaxed);
        let _p = mcsched_obs::span!("simx-execute");
        self.engine().execute(workload).map_err(SchedError::from)
    }

    /// Maps already-allocated applications onto the platform through an
    /// arbitrary mapping policy, reusing the context's cached views.
    pub fn map_with(
        &self,
        mapping: &dyn MappingPolicy,
        allocations: &[RefAllocation],
        release_times: &[f64],
    ) -> Schedule {
        let _p = mcsched_obs::span!("mapping");
        mapping.map(&MappingRequest {
            reference: self.reference(),
            network: self.engine().network(),
            platform: self.platform,
            ptgs: self.ptgs,
            allocations,
            release_times,
        })
    }

    /// Dedicated-platform makespan of application `app` (`M_own`): the PTG
    /// alone on the whole platform, β = 1, under the base allocation and
    /// mapping policies. Memoized — repeated calls (e.g. one
    /// per strategy of a campaign) simulate only once.
    ///
    /// # Errors
    ///
    /// Propagates simulation validation errors (indicating a scheduler bug).
    ///
    /// # Panics
    ///
    /// Panics if `app` is out of range for the scenario's applications.
    pub fn dedicated_makespan(&self, app: usize) -> Result<f64, SchedError> {
        assert!(app < self.ptgs.len(), "application index out of range");
        // The simulation runs under the slot's own lock: two threads asking
        // for the same application serialize (exactly-once guarantee), while
        // different applications compute in parallel.
        // A slot is written only once its simulation succeeded, so a lock
        // poisoned by a panicking simulation still guards a valid slot.
        let mut slot = self.dedicated[app]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(m) = *slot {
            return Ok(m);
        }
        let m = self.simulate_dedicated(app)?;
        *slot = Some(m);
        Ok(m)
    }

    /// Dedicated makespans of all applications, in submission order.
    ///
    /// # Errors
    ///
    /// Propagates simulation validation errors.
    pub fn dedicated_makespans(&self) -> Result<Vec<f64>, SchedError> {
        (0..self.ptgs.len())
            .map(|i| self.dedicated_makespan(i))
            .collect()
    }

    /// Number of dedicated-platform simulations actually executed so far
    /// (at most one per application, however many strategies are evaluated).
    pub fn dedicated_simulations(&self) -> usize {
        self.dedicated_sims.load(Ordering::Relaxed)
    }

    /// Number of concurrent-schedule simulations executed so far: one per
    /// [`ConcurrentScheduler::evaluate_in`] call, and one per distinct
    /// allocation vector within each [`ScheduleContext::evaluate_policies`]
    /// call.
    pub fn concurrent_simulations(&self) -> usize {
        self.concurrent_sims.load(Ordering::Relaxed)
    }

    /// Evaluates every constraint policy against this context's workload —
    /// the *paired-evaluation path* of the campaign harness. All policies
    /// see the exact same borrowed PTGs and release times (common random
    /// numbers: the workload bytes are drawn once, upstream, per
    /// replication), and share this context's platform views and dedicated
    /// baselines, so per-policy metric vectors are directly pairable
    /// sample-for-sample. Returns one run per policy, in input order, equal
    /// to what [`ConcurrentScheduler::evaluate_in`] returns for that policy
    /// over the base allocation and mapping. Each schedule and trace is
    /// dropped as soon as its run is read.
    ///
    /// Each distinct allocation vector is mapped and simulated once per
    /// call. A policy whose allocations equal an earlier policy's gets a
    /// copy of that run with its own β: the schedule, trace, makespans and
    /// fairness depend only on the PTGs, release times, allocations, base
    /// mapping and engine, all fixed within the call.
    ///
    /// # Errors
    ///
    /// Propagates simulation validation errors (indicating a scheduler bug).
    pub fn evaluate_policies(
        &self,
        policies: &[Arc<dyn ConstraintPolicy>],
    ) -> Result<Vec<EvaluatedRun>, SchedError> {
        // Baselines first, as `evaluate_in` does: the constrained
        // allocations below then resume from their β = 1 runs.
        let dedicated = self.dedicated_makespans()?;
        // The allocations of every run so far, in run order.
        let mut seen: Vec<Vec<RefAllocation>> = Vec::with_capacity(policies.len());
        let mut runs: Vec<EvaluatedRun> = Vec::with_capacity(policies.len());
        for policy in policies {
            let betas = self.betas_for(policy.as_ref());
            let allocations = self.allocate(&betas, self.base.allocation.as_ref());
            let run = match seen.iter().position(|earlier| *earlier == allocations) {
                // Same allocations, same schedule and simulation: only the
                // β the policy reports differs.
                Some(earlier) => {
                    let mut run = runs[earlier].clone();
                    for (app, &beta) in run.apps.iter_mut().zip(&betas) {
                        app.beta = beta;
                    }
                    run
                }
                None => EvaluatedRun::new(
                    self.schedule(&betas, &allocations, self.base.mapping.as_ref())?,
                    dedicated.clone(),
                ),
            };
            seen.push(allocations);
            runs.push(run);
        }
        Ok(runs)
    }

    /// Runs the full dedicated pipeline for one application: β = 1
    /// allocation, single-application mapping, simulation — all through the
    /// context's base policies.
    fn simulate_dedicated(&self, app: usize) -> Result<f64, SchedError> {
        let dedicated = self.dedicated_allocation(app);
        let schedule = {
            let _p = mcsched_obs::span!("mapping");
            self.base.mapping.map(&MappingRequest {
                reference: self.reference(),
                network: self.engine().network(),
                platform: self.platform,
                ptgs: std::slice::from_ref(&self.ptgs[app]),
                allocations: std::slice::from_ref(dedicated.allocation()),
                release_times: &[0.0],
            })
        };
        self.dedicated_sims.fetch_add(1, Ordering::Relaxed);
        let _p = mcsched_obs::span!("simx-execute");
        let outcome = self.engine().execute(&schedule.workload)?;
        Ok(outcome.makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintStrategy;
    use crate::policy::{EqualShare, ScrapAllocation, ScrapMaxAllocation};
    use crate::scheduler::ConcurrentScheduler;
    use mcsched_platform::grid5000;
    use mcsched_ptg::gen::{random::RandomPtgConfig, random_ptg};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ptgs(n: usize, seed: u64) -> Vec<Ptg> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let cfg = RandomPtgConfig {
                    num_tasks: 10,
                    ..RandomPtgConfig::default_config()
                };
                random_ptg(&cfg, &mut rng, format!("app{i}"))
            })
            .collect()
    }

    #[test]
    fn with_release_times_rejects_invalid_release_times() {
        let platform = grid5000::lille();
        let apps = ptgs(2, 6);
        for bad in [
            vec![0.0, f64::NAN],
            vec![-1.0, 0.0],
            vec![0.0, f64::INFINITY],
            vec![0.0],
        ] {
            assert!(matches!(
                ScheduleContext::new(&platform, &apps).with_release_times(bad),
                Err(SchedError::InvalidConfig(_))
            ));
        }
        let ctx = ScheduleContext::new(&platform, &apps)
            .with_release_times(vec![0.0, 2.5])
            .unwrap_or_else(|_| panic!("valid release times are accepted"));
        assert_eq!(ctx.release_times(), [0.0, 2.5]);
    }

    #[test]
    fn allocations_are_memoized_and_match_direct_computation() {
        let platform = grid5000::rennes();
        let apps = ptgs(3, 3);
        let ctx = ScheduleContext::new(&platform, &apps);
        let first = ctx.allocations_for(&EqualShare, &ScrapMaxAllocation);
        assert_eq!(
            ctx.dedicated_allocation_runs(),
            0,
            "β < 1 starts no β = 1 run"
        );

        // Every strategy's allocations — resumed from the base procedure's
        // β = 1 runs once the selfish strategy made them, or run afresh —
        // equal a direct run, and the base procedure runs at β = 1 once per
        // application for all of them and the dedicated baselines.
        let reference = ReferencePlatform::new(&platform);
        let procedures: [&dyn AllocationPolicy; 2] = [&ScrapMaxAllocation, &ScrapAllocation];
        for procedure in procedures {
            for strategy in ConstraintStrategy::paper_set() {
                let strategy = strategy.to_policy();
                let allocations = ctx.allocations_for(strategy.as_ref(), procedure);
                let betas = strategy.betas(&apps, &reference);
                for ((ptg, alloc), &beta) in apps.iter().zip(allocations.iter()).zip(&betas) {
                    assert_eq!(*alloc, procedure.allocate(&reference, ptg, beta));
                }
            }
        }
        ctx.dedicated_makespans().unwrap();
        assert_eq!(ctx.dedicated_allocation_runs(), apps.len());

        // A context given those β = 1 runs computes none of its own.
        let seeded = ScheduleContext::new(&platform, &apps).with_dedicated_allocations(
            (0..apps.len())
                .map(|app| ctx.dedicated_allocation(app))
                .collect(),
        );
        assert_eq!(
            seeded.allocations_for(&EqualShare, &ScrapMaxAllocation),
            first
        );
        assert_eq!(seeded.dedicated_makespans(), ctx.dedicated_makespans());
        assert_eq!(seeded.dedicated_allocation_runs(), 0);
    }

    #[test]
    fn dedicated_makespans_simulate_each_application_once() {
        let platform = grid5000::lille();
        let apps = ptgs(3, 4);
        let ctx = ScheduleContext::new(&platform, &apps);
        assert_eq!(ctx.dedicated_simulations(), 0);
        let first = ctx.dedicated_makespans().unwrap();
        assert_eq!(ctx.dedicated_simulations(), 3);
        // Asking again (as every extra strategy of a campaign does) must not
        // simulate anything new.
        let second = ctx.dedicated_makespans().unwrap();
        assert_eq!(ctx.dedicated_simulations(), 3);
        assert_eq!(first, second);
    }

    #[test]
    fn dedicated_makespan_matches_the_scheduler_path() {
        let platform = grid5000::sophia();
        let apps = ptgs(2, 5);
        let ctx = ScheduleContext::new(&platform, &apps);
        let scheduler = ConcurrentScheduler::default();
        for (i, app) in apps.iter().enumerate() {
            let direct = scheduler.dedicated_makespan(&platform, app).unwrap();
            let cached = ctx.dedicated_makespan(i).unwrap();
            assert!(
                (direct - cached).abs() < 1e-9,
                "app {i}: scheduler {direct} vs context {cached}"
            );
        }
    }

    #[test]
    fn context_is_shareable_across_threads() {
        let platform = grid5000::lille();
        let apps = ptgs(4, 6);
        let ctx = ScheduleContext::new(&platform, &apps);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let d = ctx.dedicated_makespans().unwrap();
                    assert_eq!(d.len(), 4);
                });
            }
        });
        // However the threads interleaved, every application was simulated
        // exactly once (computation happens under the cache lock).
        assert_eq!(ctx.dedicated_simulations(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dedicated_makespan_rejects_bad_index() {
        let platform = grid5000::lille();
        let apps = ptgs(1, 7);
        let ctx = ScheduleContext::new(&platform, &apps);
        let _ = ctx.dedicated_makespan(5);
    }
}
