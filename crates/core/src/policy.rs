//! Pluggable scheduling policies and the name-based [`PolicyRegistry`].
//!
//! The paper evaluates a *family* of interchangeable decisions inside one
//! concurrent-scheduling pipeline. This module makes each decision point a
//! first-class, object-safe trait so that new policies can be plugged in
//! without touching the core pipeline:
//!
//! * [`ConstraintPolicy`] — step 1, computing the resource-constraint vector
//!   β (one fraction of the platform's power per application);
//! * [`AllocationPolicy`] — step 2, turning one β into per-task
//!   reference-processor counts;
//! * [`MappingPolicy`] — step 3, placing the allocated tasks of all
//!   applications onto concrete processor sets.
//!
//! Every strategy of the paper ships as a concrete policy type:
//!
//! | policy | paper |
//! |---|---|
//! | [`Selfish`] (`S`) | §6, baseline: β = 1 |
//! | [`EqualShare`] (`ES`) | §6: β = 1/\|A\| |
//! | [`ProportionalShare`] (`PS-cp/width/work`) | §6: β ∝ γ |
//! | [`WeightedShare`] (`WPS-*`) | §6, Eq. 2: µ·ES + (1−µ)·PS |
//! | [`ScrapAllocation`] | §4: global average-power constraint |
//! | [`ScrapMaxAllocation`] | §4: per-precedence-level constraint (retained) |
//! | [`CpaAllocation`] | related work (HCPA), unconstrained |
//! | [`OneEachAllocation`] | degenerate 1-processor baseline |
//! | [`ListMapping`] | §5: ready-task list mapping (+ packing), Figure 1's global ordering as ablation |
//!
//! A [`crate::SchedulerConfig`] holds one resolved policy per decision
//! point; it is the only representation of a pipeline.
//!
//! The [`PolicyRegistry`] maps *names* to policy factories so experiment
//! configurations, CLI binaries and tests can request `"scrap-max"` or
//! `"wps-work"` as a string — and so downstream users can register policies
//! of their own and drive them through the unchanged evaluation pipeline:
//!
//! ```
//! use mcsched_core::policy::PolicyRegistry;
//!
//! let registry = PolicyRegistry::builtin();
//! let scrap_max = registry.allocation("scrap-max").unwrap();
//! assert_eq!(scrap_max.name(), "SCRAP-MAX");
//! // Parameterised weighted-proportional-share lookup: `wps-work@0.35`.
//! let wps = registry.constraint("wps-work@0.35").unwrap();
//! assert_eq!(wps.name(), "WPS-work");
//! ```

use crate::allocation::{
    cpa_allocate, scrap_allocate, scrap_max_allocate, DedicatedAllocation, RefAllocation,
    ReferencePlatform, ScrapLog, ScrapVariant,
};
use crate::constraint::Characteristic;
use crate::error::{PolicyKind, SchedError};
use crate::mapping::{map_concurrent_with, MappingConfig, OrderingMode, Schedule};
use mcsched_platform::Platform;
use mcsched_ptg::Ptg;
use mcsched_simx::SiteNetwork;
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The three decision-point traits
// ---------------------------------------------------------------------------

/// Step 1: computes the per-application resource constraints β.
///
/// Implementations must be deterministic for a given input: campaign cell
/// caches key a policy's results by [`ConstraintPolicy::cache_key`].
pub trait ConstraintPolicy: std::fmt::Debug + Send + Sync {
    /// Human-readable policy name as used in reports (`S`, `ES`, `WPS-work`,
    /// ...). Registered custom policies should return the name they were
    /// registered under.
    fn name(&self) -> String;

    /// Unique identity key. Defaults to [`ConstraintPolicy::name`];
    /// parameterised policies must include their parameters (the built-in
    /// `WPS-*` policies append `@µ`) so that two configurations of the same
    /// policy never share a cache entry.
    fn cache_key(&self) -> String {
        self.name()
    }

    /// Computes one `β_i ∈ (0, 1]` per application of `ptgs`.
    fn betas(&self, ptgs: &[Ptg], reference: &ReferencePlatform) -> Vec<f64>;
}

/// Step 2: decides how many *reference processors* every task of one PTG
/// gets without violating the application's resource constraint `beta`.
pub trait AllocationPolicy: std::fmt::Debug + Send + Sync {
    /// Human-readable policy name (`SCRAP`, `SCRAP-MAX`, ...).
    fn name(&self) -> String;

    /// Unique identity key (defaults to [`AllocationPolicy::name`]).
    fn cache_key(&self) -> String {
        self.name()
    }

    /// Runs the procedure on one PTG under resource constraint `beta`.
    fn allocate(&self, reference: &ReferencePlatform, ptg: &Ptg, beta: f64) -> RefAllocation;

    /// The β = 1 allocation of `ptg` — its dedicated-platform allocation —
    /// kept in the form [`AllocationPolicy::allocate_from`] derives the
    /// PTG's constrained allocations from. The default keeps the allocation
    /// alone.
    fn dedicated(&self, reference: &ReferencePlatform, ptg: &Ptg) -> DedicatedAllocation {
        DedicatedAllocation::Plain(self.allocate(reference, ptg, 1.0))
    }

    /// Equal to `allocate(reference, ptg, beta)`, given what this policy's
    /// [`AllocationPolicy::dedicated`] returned for the same reference view
    /// and PTG. The default reuses the dedicated allocation at β = 1 and
    /// runs the procedure otherwise.
    fn allocate_from(
        &self,
        dedicated: &DedicatedAllocation,
        reference: &ReferencePlatform,
        ptg: &Ptg,
        beta: f64,
    ) -> RefAllocation {
        if beta == 1.0 {
            dedicated.allocation().clone()
        } else {
            self.allocate(reference, ptg, beta)
        }
    }
}

/// Everything a [`MappingPolicy`] needs to place the allocated tasks of a
/// set of applications: the platform (raw, reference view and flattened
/// network), the applications with their allocations, and the release times.
#[derive(Debug, Clone, Copy)]
pub struct MappingRequest<'a> {
    /// Memoized homogeneous reference view of the platform.
    pub reference: &'a ReferencePlatform,
    /// Memoized flattened site network (routing and link capacities).
    pub network: &'a SiteNetwork,
    /// The concrete heterogeneous platform.
    pub platform: &'a Platform,
    /// The applications, in submission order.
    pub ptgs: &'a [Ptg],
    /// One reference allocation per application (same task indexing).
    pub allocations: &'a [RefAllocation],
    /// One release time per application (all zero for the paper's
    /// simultaneous-submission scenario).
    pub release_times: &'a [f64],
}

/// Step 3: places allocated tasks onto concrete processor sets, producing a
/// simulable [`Schedule`].
pub trait MappingPolicy: std::fmt::Debug + Send + Sync {
    /// Human-readable policy name (`ready-tasks`, `global`, ...).
    fn name(&self) -> String;

    /// Unique identity key (defaults to [`MappingPolicy::name`]);
    /// parameterised policies must include every parameter.
    fn cache_key(&self) -> String {
        self.name()
    }

    /// Maps the request's applications onto the platform.
    fn map(&self, request: &MappingRequest<'_>) -> Schedule;
}

// ---------------------------------------------------------------------------
// Built-in constraint policies (paper §6)
// ---------------------------------------------------------------------------

/// `S` — the selfish baseline: every application behaves as if the platform
/// were dedicated to it (β = 1). Emulates the single-PTG heuristics of the
/// related work (paper §6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Selfish;

impl ConstraintPolicy for Selfish {
    fn name(&self) -> String {
        "S".to_string()
    }

    fn betas(&self, ptgs: &[Ptg], _reference: &ReferencePlatform) -> Vec<f64> {
        vec![1.0; ptgs.len()]
    }
}

/// `ES` — equal share: β = 1/|A| for every application (paper §6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EqualShare;

impl ConstraintPolicy for EqualShare {
    fn name(&self) -> String {
        "ES".to_string()
    }

    fn betas(&self, ptgs: &[Ptg], _reference: &ReferencePlatform) -> Vec<f64> {
        let n = ptgs.len();
        if n == 0 {
            return Vec::new();
        }
        vec![1.0 / n as f64; n]
    }
}

/// Shared implementation of the proportional strategies: the WPS formula
/// `β_i = µ/|A| + (1 − µ)·γ_i/Σγ` (paper §6, Equation 2), of which pure PS
/// is the µ = 0 case. Degenerate inputs (zero total contribution) fall back
/// to the equal share.
fn weighted_proportional_betas(
    ptgs: &[Ptg],
    reference: &ReferencePlatform,
    characteristic: Characteristic,
    mu: f64,
) -> Vec<f64> {
    let n = ptgs.len();
    if n == 0 {
        return Vec::new();
    }
    let equal = 1.0 / n as f64;
    let gammas: Vec<f64> = ptgs
        .iter()
        .map(|p| characteristic.evaluate(p, reference))
        .collect();
    let total: f64 = gammas.iter().sum();
    gammas
        .iter()
        .map(|&g| {
            let proportional = if total > 0.0 { g / total } else { equal };
            (mu * equal + (1.0 - mu) * proportional).clamp(f64::MIN_POSITIVE, 1.0)
        })
        .collect()
}

/// `PS-x` — proportional share: β proportional to the application's
/// contribution to one PTG characteristic γ (critical path, width or work;
/// paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProportionalShare {
    /// The characteristic γ the shares are proportional to.
    pub characteristic: Characteristic,
}

impl ProportionalShare {
    /// Creates the proportional-share policy for one characteristic.
    #[must_use]
    pub fn new(characteristic: Characteristic) -> Self {
        Self { characteristic }
    }
}

impl ConstraintPolicy for ProportionalShare {
    fn name(&self) -> String {
        format!("PS-{}", self.characteristic.label())
    }

    fn betas(&self, ptgs: &[Ptg], reference: &ReferencePlatform) -> Vec<f64> {
        weighted_proportional_betas(ptgs, reference, self.characteristic, 0.0)
    }
}

/// `WPS-x` — weighted proportional share: the tunable compromise
/// `β_i = µ/|A| + (1 − µ)·γ_i/Σγ` between ES (µ = 1) and PS (µ = 0)
/// (paper §6, Equation 2; µ = 0.7 is the calibrated value for `work`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedShare {
    /// The characteristic γ of the proportional component.
    pub characteristic: Characteristic,
    /// The interpolation weight µ ∈ [0, 1] (clamped on evaluation).
    pub mu: f64,
}

impl WeightedShare {
    /// Creates the weighted policy with an explicit µ.
    #[must_use]
    pub fn new(characteristic: Characteristic, mu: f64) -> Self {
        Self { characteristic, mu }
    }

    /// Creates the weighted policy with the paper's recommended µ for
    /// random/workflow PTGs.
    #[must_use]
    pub fn recommended(characteristic: Characteristic) -> Self {
        Self::new(characteristic, characteristic.recommended_mu())
    }
}

impl ConstraintPolicy for WeightedShare {
    fn name(&self) -> String {
        format!("WPS-{}", self.characteristic.label())
    }

    fn cache_key(&self) -> String {
        format!("WPS-{}@{}", self.characteristic.label(), self.mu)
    }

    fn betas(&self, ptgs: &[Ptg], reference: &ReferencePlatform) -> Vec<f64> {
        weighted_proportional_betas(
            ptgs,
            reference,
            self.characteristic,
            self.mu.clamp(0.0, 1.0),
        )
    }
}

// ---------------------------------------------------------------------------
// Built-in allocation policies (paper §4)
// ---------------------------------------------------------------------------

/// SCRAP — the resource constraint bounds the *global* average power usage
/// of the schedule (paper §4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrapAllocation;

impl AllocationPolicy for ScrapAllocation {
    fn name(&self) -> String {
        "SCRAP".to_string()
    }

    fn cache_key(&self) -> String {
        "scrap".to_string()
    }

    fn allocate(&self, reference: &ReferencePlatform, ptg: &Ptg, beta: f64) -> RefAllocation {
        scrap_allocate(reference, ptg, beta)
    }

    fn dedicated(&self, reference: &ReferencePlatform, ptg: &Ptg) -> DedicatedAllocation {
        DedicatedAllocation::Logged(Box::new(ScrapLog::record(
            reference,
            ptg,
            ScrapVariant::Global,
        )))
    }

    fn allocate_from(
        &self,
        dedicated: &DedicatedAllocation,
        reference: &ReferencePlatform,
        ptg: &Ptg,
        beta: f64,
    ) -> RefAllocation {
        dedicated
            .resume(ScrapVariant::Global, beta)
            .unwrap_or_else(|| self.allocate(reference, ptg, beta))
    }
}

/// SCRAP-MAX — the constraint is applied independently to every precedence
/// level; the variant the paper retains (§4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrapMaxAllocation;

impl AllocationPolicy for ScrapMaxAllocation {
    fn name(&self) -> String {
        "SCRAP-MAX".to_string()
    }

    fn cache_key(&self) -> String {
        "scrap-max".to_string()
    }

    fn allocate(&self, reference: &ReferencePlatform, ptg: &Ptg, beta: f64) -> RefAllocation {
        scrap_max_allocate(reference, ptg, beta)
    }

    fn dedicated(&self, reference: &ReferencePlatform, ptg: &Ptg) -> DedicatedAllocation {
        DedicatedAllocation::Logged(Box::new(ScrapLog::record(
            reference,
            ptg,
            ScrapVariant::PerLevel,
        )))
    }

    fn allocate_from(
        &self,
        dedicated: &DedicatedAllocation,
        reference: &ReferencePlatform,
        ptg: &Ptg,
        beta: f64,
    ) -> RefAllocation {
        dedicated
            .resume(ScrapVariant::PerLevel, beta)
            .unwrap_or_else(|| self.allocate(reference, ptg, beta))
    }
}

/// CPA-style unconstrained allocation (related work; stops when the critical
/// path balances the average area). `beta` is ignored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpaAllocation;

impl AllocationPolicy for CpaAllocation {
    fn name(&self) -> String {
        "CPA".to_string()
    }

    fn cache_key(&self) -> String {
        "cpa".to_string()
    }

    fn allocate(&self, reference: &ReferencePlatform, ptg: &Ptg, _beta: f64) -> RefAllocation {
        cpa_allocate(reference, ptg)
    }

    fn allocate_from(
        &self,
        dedicated: &DedicatedAllocation,
        _reference: &ReferencePlatform,
        _ptg: &Ptg,
        _beta: f64,
    ) -> RefAllocation {
        dedicated.allocation().clone()
    }
}

/// Degenerate baseline: every task keeps a single processor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OneEachAllocation;

impl AllocationPolicy for OneEachAllocation {
    fn name(&self) -> String {
        "1-proc".to_string()
    }

    fn cache_key(&self) -> String {
        "one-each".to_string()
    }

    fn allocate(&self, _reference: &ReferencePlatform, ptg: &Ptg, _beta: f64) -> RefAllocation {
        RefAllocation::one_per_task(ptg.num_tasks())
    }
}

// ---------------------------------------------------------------------------
// Built-in mapping policy (paper §5)
// ---------------------------------------------------------------------------

/// The paper's list mapping (§5), parameterised by a [`MappingConfig`]:
/// ready-task or global candidate ordering, optional allocation packing,
/// optional communication-aware finish-time estimates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ListMapping {
    /// The mapping-step options.
    pub config: MappingConfig,
}

impl ListMapping {
    /// Creates the list mapping with explicit options.
    #[must_use]
    pub fn new(config: MappingConfig) -> Self {
        Self { config }
    }

    fn ordering_label(&self) -> &'static str {
        match self.config.ordering {
            OrderingMode::ReadyTasks => "ready-tasks",
            OrderingMode::Global => "global",
        }
    }
}

impl MappingPolicy for ListMapping {
    fn name(&self) -> String {
        let mut name = self.ordering_label().to_string();
        if !self.config.packing {
            name.push_str("-nopack");
        }
        if !self.config.comm_aware {
            name.push_str("-nocomm");
        }
        name
    }

    fn cache_key(&self) -> String {
        format!(
            "order={};packing={};comm={}",
            self.ordering_label(),
            self.config.packing,
            self.config.comm_aware
        )
    }

    fn map(&self, request: &MappingRequest<'_>) -> Schedule {
        map_concurrent_with(
            request.reference,
            request.network,
            request.platform,
            request.ptgs,
            request.allocations,
            request.release_times,
            &self.config,
        )
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// A factory resolving an optional `@parameter` suffix into a policy.
type Factory<T> = Arc<dyn Fn(Option<&str>) -> Result<Arc<T>, SchedError> + Send + Sync>;

/// Name → policy-factory registry for the three policy families.
///
/// Lookup names are case-insensitive; an `@suffix` is split off and handed
/// to the factory as a parameter (the built-in `wps-*` entries parse it as
/// µ, e.g. `"wps-work@0.35"`). [`PolicyRegistry::builtin`] registers every
/// policy of the paper; downstream users add constraint policies of their
/// own with [`PolicyRegistry::register_constraint_instance`] and can then
/// request them by name everywhere a built-in name is accepted (builders,
/// CLI flags, experiment configs).
#[derive(Clone, Default)]
pub struct PolicyRegistry {
    constraints: BTreeMap<String, Factory<dyn ConstraintPolicy>>,
    allocations: BTreeMap<String, Factory<dyn AllocationPolicy>>,
    mappings: BTreeMap<String, Factory<dyn MappingPolicy>>,
}

impl std::fmt::Debug for PolicyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyRegistry")
            .field("constraints", &self.constraint_names())
            .field("allocations", &self.allocation_names())
            .field("mappings", &self.mapping_names())
            .finish()
    }
}

fn normalize(name: &str) -> String {
    name.trim().to_ascii_lowercase()
}

/// Splits `"name@param"` into `("name", Some("param"))`.
fn split_param(name: &str) -> (&str, Option<&str>) {
    match name.split_once('@') {
        Some((base, param)) => (base, Some(param)),
        None => (name, None),
    }
}

fn parse_mu(param: Option<&str>, default: f64) -> Result<f64, SchedError> {
    match param {
        None => Ok(default),
        Some(raw) => {
            let mu: f64 = raw.parse().map_err(|_| {
                SchedError::InvalidConfig(format!("`{raw}` is not a valid µ value"))
            })?;
            if !(0.0..=1.0).contains(&mu) {
                return Err(SchedError::InvalidConfig(format!(
                    "µ = {mu} is outside [0, 1]"
                )));
            }
            Ok(mu)
        }
    }
}

fn reject_param<T>(name: &str, param: Option<&str>, value: Arc<T>) -> Result<Arc<T>, SchedError>
where
    T: ?Sized,
{
    match param {
        Some(p) => Err(SchedError::InvalidConfig(format!(
            "policy `{name}` does not take a parameter (got `@{p}`)"
        ))),
        None => Ok(value),
    }
}

impl PolicyRegistry {
    /// An empty registry with no policies at all.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// A registry pre-populated with every policy of the paper:
    ///
    /// * constraints — `s`/`selfish`, `es`/`equal-share`, `ps-cp`,
    ///   `ps-width`, `ps-work`, `wps-cp`, `wps-width`, `wps-work` (the
    ///   `wps-*` entries default to the paper's recommended µ and accept an
    ///   explicit `@µ` suffix);
    /// * allocations — `scrap`, `scrap-max`, `cpa`, `one-each`/`1-proc`;
    /// * mappings — `ready-tasks` (packing + communication-aware estimates),
    ///   `ready-tasks-nopack`, `global`.
    #[must_use]
    pub fn builtin() -> Self {
        let mut r = Self::default();

        let shares: [(&[&str], Arc<dyn ConstraintPolicy>); 2] = [
            (&["s", "selfish"], Arc::new(Selfish)),
            (&["es", "equal-share"], Arc::new(EqualShare)),
        ];
        for (aliases, policy) in shares {
            for alias in aliases {
                r.register_constraint_instance(alias, Arc::clone(&policy));
            }
        }
        for c in Characteristic::all() {
            r.register_constraint_instance(
                &format!("ps-{}", c.label()),
                Arc::new(ProportionalShare::new(c)),
            );
            r.register_constraint(&format!("wps-{}", c.label()), move |param| {
                let mu = parse_mu(param, c.recommended_mu())?;
                Ok(Arc::new(WeightedShare::new(c, mu)) as Arc<dyn ConstraintPolicy>)
            });
        }

        // The first name of every built-in allocation is its cache key.
        let allocations: [(&[&str], Arc<dyn AllocationPolicy>); 4] = [
            (&["scrap"], Arc::new(ScrapAllocation)),
            (&["scrap-max", "scrapmax"], Arc::new(ScrapMaxAllocation)),
            (&["cpa"], Arc::new(CpaAllocation)),
            (&["one-each", "1-proc"], Arc::new(OneEachAllocation)),
        ];
        for (aliases, policy) in allocations {
            for alias in aliases {
                r.register_allocation_instance(alias, Arc::clone(&policy));
            }
        }

        for config in [
            MappingConfig::default(),
            MappingConfig {
                packing: false,
                ..MappingConfig::default()
            },
            MappingConfig {
                ordering: OrderingMode::Global,
                ..MappingConfig::default()
            },
        ] {
            let policy = ListMapping::new(config);
            r.register_mapping_instance(&policy.name(), Arc::new(policy));
        }

        r
    }

    /// Registers (or replaces) a constraint-policy factory under `name`.
    /// The factory receives the optional `@parameter` suffix of the lookup.
    fn register_constraint<F>(&mut self, name: &str, factory: F)
    where
        F: Fn(Option<&str>) -> Result<Arc<dyn ConstraintPolicy>, SchedError>
            + Send
            + Sync
            + 'static,
    {
        self.constraints.insert(normalize(name), Arc::new(factory));
    }

    /// Registers a ready-made constraint policy under `name` (rejects
    /// `@parameter` suffixes).
    pub fn register_constraint_instance(&mut self, name: &str, policy: Arc<dyn ConstraintPolicy>) {
        let owned = name.to_string();
        self.register_constraint(name, move |param| {
            reject_param(&owned, param, Arc::clone(&policy))
        });
    }

    /// Registers (or replaces) an allocation-policy factory under `name`.
    fn register_allocation<F>(&mut self, name: &str, factory: F)
    where
        F: Fn(Option<&str>) -> Result<Arc<dyn AllocationPolicy>, SchedError>
            + Send
            + Sync
            + 'static,
    {
        self.allocations.insert(normalize(name), Arc::new(factory));
    }

    /// Registers a ready-made allocation policy under `name`.
    fn register_allocation_instance(&mut self, name: &str, policy: Arc<dyn AllocationPolicy>) {
        let owned = name.to_string();
        self.register_allocation(name, move |param| {
            reject_param(&owned, param, Arc::clone(&policy))
        });
    }

    /// Registers (or replaces) a mapping-policy factory under `name`.
    fn register_mapping<F>(&mut self, name: &str, factory: F)
    where
        F: Fn(Option<&str>) -> Result<Arc<dyn MappingPolicy>, SchedError> + Send + Sync + 'static,
    {
        self.mappings.insert(normalize(name), Arc::new(factory));
    }

    /// Registers a ready-made mapping policy under `name`.
    fn register_mapping_instance(&mut self, name: &str, policy: Arc<dyn MappingPolicy>) {
        let owned = name.to_string();
        self.register_mapping(name, move |param| {
            reject_param(&owned, param, Arc::clone(&policy))
        });
    }

    /// Resolves a constraint policy by name (case-insensitive, optional
    /// `@parameter` suffix).
    ///
    /// # Errors
    ///
    /// [`SchedError::UnknownPolicy`] when the name is not registered,
    /// [`SchedError::InvalidConfig`] when the parameter is rejected.
    pub fn constraint(&self, name: &str) -> Result<Arc<dyn ConstraintPolicy>, SchedError> {
        let (base, param) = split_param(name);
        match self.constraints.get(&normalize(base)) {
            Some(factory) => factory(param),
            None => Err(SchedError::UnknownPolicy {
                kind: PolicyKind::Constraint,
                name: name.to_string(),
                known: self.constraint_names(),
            }),
        }
    }

    /// Resolves an allocation policy by name.
    ///
    /// # Errors
    ///
    /// See [`PolicyRegistry::constraint`].
    pub fn allocation(&self, name: &str) -> Result<Arc<dyn AllocationPolicy>, SchedError> {
        let (base, param) = split_param(name);
        match self.allocations.get(&normalize(base)) {
            Some(factory) => factory(param),
            None => Err(SchedError::UnknownPolicy {
                kind: PolicyKind::Allocation,
                name: name.to_string(),
                known: self.allocation_names(),
            }),
        }
    }

    /// Resolves a mapping policy by name.
    ///
    /// # Errors
    ///
    /// See [`PolicyRegistry::constraint`].
    pub fn mapping(&self, name: &str) -> Result<Arc<dyn MappingPolicy>, SchedError> {
        let (base, param) = split_param(name);
        match self.mappings.get(&normalize(base)) {
            Some(factory) => factory(param),
            None => Err(SchedError::UnknownPolicy {
                kind: PolicyKind::Mapping,
                name: name.to_string(),
                known: self.mapping_names(),
            }),
        }
    }

    /// The registered constraint-policy names (normalized, sorted).
    #[must_use]
    pub fn constraint_names(&self) -> Vec<String> {
        self.constraints.keys().cloned().collect()
    }

    /// The registered allocation-policy names (normalized, sorted).
    #[must_use]
    pub fn allocation_names(&self) -> Vec<String> {
        self.allocations.keys().cloned().collect()
    }

    /// The registered mapping-policy names (normalized, sorted).
    #[must_use]
    pub fn mapping_names(&self) -> Vec<String> {
        self.mappings.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintStrategy;
    use mcsched_ptg::{CostModel, DataParallelTask, PtgBuilder};

    fn reference() -> ReferencePlatform {
        ReferencePlatform::from_parts(1.0e9, 100, 50)
    }

    fn chain(n: usize, d: f64) -> Ptg {
        let mut b = PtgBuilder::new("chain");
        for i in 0..n {
            b.add_task(DataParallelTask::new(
                format!("t{i}"),
                d,
                CostModel::MatrixProduct,
                0.0,
            ));
        }
        for i in 1..n {
            b.add_data_edge(i - 1, i);
        }
        b.build().unwrap()
    }

    #[test]
    fn policies_match_their_enum_constructors() {
        let ptgs = vec![chain(3, 8.0e6), chain(2, 64.0e6)];
        let r = reference();
        let mut direct: Vec<Arc<dyn ConstraintPolicy>> =
            vec![Arc::new(Selfish), Arc::new(EqualShare)];
        for c in Characteristic::all() {
            direct.push(Arc::new(ProportionalShare::new(c)));
        }
        for c in Characteristic::all() {
            direct.push(Arc::new(WeightedShare::recommended(c)));
        }
        let strategies = ConstraintStrategy::paper_set();
        assert_eq!(strategies.len(), direct.len());
        for (strategy, policy) in strategies.into_iter().zip(direct) {
            let resolved = strategy.to_policy();
            assert_eq!(resolved.betas(&ptgs, &r), policy.betas(&ptgs, &r));
            assert_eq!(
                resolved.cache_key(),
                policy.cache_key(),
                "{}",
                strategy.name()
            );
        }
    }

    #[test]
    fn every_builtin_strategy_resolves_by_its_paper_name() {
        let registry = PolicyRegistry::builtin();
        for strategy in ConstraintStrategy::paper_set() {
            let policy = registry
                .constraint(&strategy.name())
                .unwrap_or_else(|e| panic!("{}: {e}", strategy.name()));
            assert_eq!(policy.name(), strategy.name());
        }
    }

    #[test]
    fn allocation_labels_round_trip_through_the_registry() {
        let registry = PolicyRegistry::builtin();
        for (key, label) in [
            ("scrap", "SCRAP"),
            ("scrap-max", "SCRAP-MAX"),
            ("cpa", "CPA"),
            ("one-each", "1-proc"),
        ] {
            let policy = registry.allocation(label).unwrap();
            assert_eq!(policy.name(), label);
            assert_eq!(policy.cache_key(), key);
            assert_eq!(registry.allocation(key).unwrap().name(), label);
        }
    }

    #[test]
    fn allocation_aliases_resolve_to_their_policies() {
        let registry = PolicyRegistry::builtin();
        assert_eq!(
            registry.allocation_names(),
            [
                "1-proc",
                "cpa",
                "one-each",
                "scrap",
                "scrap-max",
                "scrapmax"
            ]
        );
        for (alias, key) in [("scrapmax", "scrap-max"), ("1-proc", "one-each")] {
            assert_eq!(registry.allocation(alias).unwrap().cache_key(), key);
        }
        // Every registered name resolves to a policy whose cache key is
        // itself a registered name.
        for name in registry.allocation_names() {
            let key = registry.allocation(&name).unwrap().cache_key();
            assert!(
                registry.allocation_names().contains(&key),
                "{name} -> {key}"
            );
        }
    }

    #[test]
    fn unknown_names_yield_unknown_policy_errors() {
        let registry = PolicyRegistry::builtin();
        match registry.constraint("nope") {
            Err(SchedError::UnknownPolicy { kind, name, known }) => {
                assert_eq!(kind, PolicyKind::Constraint);
                assert_eq!(name, "nope");
                assert!(known.contains(&"wps-work".to_string()));
            }
            other => panic!("expected UnknownPolicy, got {other:?}"),
        }
        assert!(matches!(
            registry.allocation("scrappy"),
            Err(SchedError::UnknownPolicy { .. })
        ));
        assert!(matches!(
            registry.mapping("chaotic"),
            Err(SchedError::UnknownPolicy { .. })
        ));
    }

    #[test]
    fn wps_lookup_accepts_a_mu_parameter() {
        let registry = PolicyRegistry::builtin();
        let ptgs = vec![chain(2, 8.0e6), chain(2, 64.0e6)];
        let r = reference();
        let looked_up = registry.constraint("WPS-work@0.35").unwrap();
        let direct = WeightedShare::new(Characteristic::Work, 0.35);
        assert_eq!(looked_up.betas(&ptgs, &r), direct.betas(&ptgs, &r));
        assert_eq!(looked_up.cache_key(), direct.cache_key());
        // Default µ is the paper's recommendation.
        let default = registry.constraint("wps-work").unwrap();
        assert_eq!(default.cache_key(), "WPS-work@0.7");
    }

    #[test]
    fn invalid_mu_parameters_are_rejected() {
        let registry = PolicyRegistry::builtin();
        assert!(matches!(
            registry.constraint("wps-work@banana"),
            Err(SchedError::InvalidConfig(_))
        ));
        assert!(matches!(
            registry.constraint("wps-work@1.5"),
            Err(SchedError::InvalidConfig(_))
        ));
        assert!(matches!(
            registry.constraint("es@0.5"),
            Err(SchedError::InvalidConfig(_))
        ));
    }

    #[test]
    fn lookups_are_case_insensitive() {
        let registry = PolicyRegistry::builtin();
        assert_eq!(registry.constraint("ES").unwrap().name(), "ES");
        assert_eq!(
            registry.allocation("SCRAP-MAX").unwrap().name(),
            "SCRAP-MAX"
        );
        assert_eq!(registry.mapping("Global").unwrap().name(), "global");
    }

    #[test]
    fn custom_policies_can_be_registered_and_resolved() {
        #[derive(Debug)]
        struct FirstComesFirst;
        impl ConstraintPolicy for FirstComesFirst {
            fn name(&self) -> String {
                "first-comes-first".to_string()
            }
            fn betas(&self, ptgs: &[Ptg], _reference: &ReferencePlatform) -> Vec<f64> {
                let n = ptgs.len();
                (0..n).map(|i| if i == 0 { 1.0 } else { 0.1 }).collect()
            }
        }
        let mut registry = PolicyRegistry::builtin();
        registry.register_constraint_instance("first-comes-first", Arc::new(FirstComesFirst));
        let policy = registry.constraint("first-comes-first").unwrap();
        let betas = policy.betas(&[chain(1, 1.0e6), chain(1, 1.0e6)], &reference());
        assert_eq!(betas, vec![1.0, 0.1]);
        assert!(registry
            .constraint_names()
            .contains(&"first-comes-first".to_string()));
    }

    #[test]
    fn mapping_policy_names_describe_their_options() {
        assert_eq!(
            ListMapping::new(MappingConfig::default()).name(),
            "ready-tasks"
        );
        assert_eq!(
            ListMapping::new(MappingConfig {
                packing: false,
                ..MappingConfig::default()
            })
            .name(),
            "ready-tasks-nopack"
        );
        assert_eq!(
            ListMapping::new(MappingConfig {
                ordering: OrderingMode::Global,
                ..MappingConfig::default()
            })
            .name(),
            "global"
        );
    }

    #[test]
    fn weighted_cache_keys_distinguish_mu() {
        let a = WeightedShare::new(Characteristic::Work, 0.5);
        let b = WeightedShare::new(Characteristic::Work, 0.7);
        assert_ne!(a.cache_key(), b.cache_key());
        assert_eq!(a.name(), b.name());
    }
}
