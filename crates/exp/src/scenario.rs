//! Scenario generation and per-scenario evaluation.
//!
//! Scenarios are produced by a [`WorkloadSource`] (see `mcsched-workload`):
//! each of the paper's classes is the
//! [`GeneratorSource`](mcsched_workload::GeneratorSource) of one
//! [`AppGenerator`](mcsched_workload::AppGenerator), and every other catalog
//! source slots in the same way.

use mcsched_core::policy::ConstraintPolicy;
use mcsched_core::{EvaluatedRun, SchedError, ScheduleContext, SchedulerConfig};
use mcsched_platform::{grid5000, Platform};
use mcsched_ptg::Ptg;
use mcsched_runtime::CellMetrics;
use mcsched_workload::{WorkloadRequest, WorkloadSource};
use std::sync::Arc;

/// One experimental scenario: a platform and a set of PTGs submitted
/// together (with their release times).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human readable identifier (class, combination index, platform).
    pub name: String,
    /// The target platform.
    pub platform: Platform,
    /// The concurrent applications. The four site scenarios of one
    /// generated combination share one slice.
    pub ptgs: Arc<[Ptg]>,
    /// Release time of each application (all zero for the paper's batch
    /// scenarios). Must satisfy the [`Workload::released`] contract — one
    /// finite, non-negative instant per application; [`Scenario::context`]
    /// panics on a hand-built scenario that violates it.
    ///
    /// [`Workload::released`]: mcsched_core::Workload::released
    pub release_times: Vec<f64>,
    /// Seed used to draw the applications (for reproducibility).
    pub seed: u64,
}

/// The base seed of one replication of a paired campaign.
///
/// Replication 0 *is* the configured seed — a single-replication run draws
/// byte-identical workloads to the pre-replication harness — and later
/// replications decorrelate through a SplitMix64-style golden-ratio jump, so
/// every replication is a fresh, deterministic draw while all strategies
/// within a replication still share the exact same scenarios (common random
/// numbers).
#[must_use]
pub fn replication_seed(base_seed: u64, replication: usize) -> u64 {
    if replication == 0 {
        base_seed
    } else {
        base_seed.wrapping_add((replication as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// The deterministic generation requests of one data point: `combinations`
/// draws of `num_ptgs` applications, seeded exactly like the original
/// harness and labelled `{label_prefix}-{combo}`. Campaigns, µ-sweeps and
/// trace export all derive their workloads from this one request list, which
/// is what makes a `--trace` replay line up with a live generation run.
pub fn combo_requests(
    label_prefix: &str,
    num_ptgs: usize,
    combinations: usize,
    base_seed: u64,
) -> Vec<WorkloadRequest> {
    (0..combinations)
        .map(|combo| combo_request(label_prefix, num_ptgs, combo, base_seed))
        .collect()
}

/// Request `combo` of [`combo_requests`].
fn combo_request(
    label_prefix: &str,
    num_ptgs: usize,
    combo: usize,
    base_seed: u64,
) -> WorkloadRequest {
    let seed = base_seed
        .wrapping_mul(1_000_003)
        .wrapping_add((num_ptgs as u64) << 32)
        .wrapping_add(combo as u64);
    WorkloadRequest::new(seed, num_ptgs, format!("{label_prefix}-{combo}"))
}

/// Generates the scenarios of combination `combo` of one data point: the
/// applications of request `combo` of [`combo_requests`], built once and
/// paired with every platform of `platforms` in order, all sharing one
/// [`Scenario::ptgs`] slice. `label` is the source's short label. Every
/// campaign workload is drawn here: the campaign grid calls it once per
/// combination task, [`generate_scenarios_with`] once per combination of a
/// data point.
///
/// # Errors
///
/// Propagates the workload-generation failure of the request.
pub(crate) fn generate_combination(
    source: &dyn WorkloadSource,
    label: &str,
    platforms: &[Platform],
    num_ptgs: usize,
    combo: usize,
    base_seed: u64,
) -> Result<Vec<Scenario>, SchedError> {
    let request = combo_request(label, num_ptgs, combo, base_seed);
    let (ptgs, release_times) = {
        let _p = mcsched_obs::span!("workload-gen");
        source.generate(&request)?.into_parts()
    };
    let ptgs: Arc<[Ptg]> = ptgs.into();
    Ok(platforms
        .iter()
        .map(|platform| Scenario {
            name: format!("{label}-n{num_ptgs}-c{combo}-{}", platform.name()),
            platform: platform.clone(),
            ptgs: Arc::clone(&ptgs),
            release_times: release_times.clone(),
            seed: request.seed,
        })
        .collect())
}

/// Generates the scenarios of one data point from a [`WorkloadSource`]:
/// `combinations` workload requests, each paired with every one of the four
/// Grid'5000 subsets (`combinations × 4` scenarios in total), in
/// combination-major order. Each request's applications are built once:
/// its four site scenarios share one [`Scenario::ptgs`] slice. The
/// campaigns generate one combination per task instead of a data point at
/// once; this function draws the same scenarios for tests, `mcsched-bench`
/// and benchmark set-up.
///
/// # Errors
///
/// Propagates the first workload-generation failure (e.g. a replayed trace
/// that does not contain a requested combination).
pub fn generate_scenarios_with(
    source: &dyn WorkloadSource,
    num_ptgs: usize,
    combinations: usize,
    base_seed: u64,
) -> Result<Vec<Scenario>, SchedError> {
    let platforms = grid5000::all_sites();
    let label = source.short_label();
    let mut scenarios = Vec::with_capacity(combinations * platforms.len());
    for combo in 0..combinations {
        scenarios.extend(generate_combination(
            source, &label, &platforms, num_ptgs, combo, base_seed,
        )?);
    }
    Ok(scenarios)
}

impl Scenario {
    /// Builds the memoized [`ScheduleContext`] for this scenario: the single
    /// entry point through which every strategy evaluation runs, so that the
    /// platform views and the dedicated baselines (`M_own`) are computed once
    /// per scenario. Carries the scenario's release times, so every
    /// evaluation path (including the two-step reference the tests check
    /// the paired path against) schedules timed scenarios identically.
    ///
    /// # Panics
    ///
    /// When [`Scenario::release_times`] violates the
    /// [`Workload::released`](mcsched_core::Workload::released) contract
    /// (generated scenarios always satisfy it).
    pub fn context<'a>(&'a self, base: &SchedulerConfig) -> ScheduleContext<'a> {
        ScheduleContext::with_base(&self.platform, &self.ptgs, base.clone())
            .with_release_times(self.release_times.clone())
            .expect("Scenario::release_times must be finite, non-negative, one per application")
    }

    /// Evaluates every constraint policy on the scenario's workload through
    /// one shared context — the paired-evaluation path
    /// ([`ScheduleContext::evaluate_policies`]): every policy sees the exact
    /// same workload bytes (common random numbers), and the dedicated
    /// baselines are simulated once per application and reused by all
    /// policies. The context borrows the scenario's applications, copying
    /// none. Returns one outcome per policy, in input order; outcome
    /// vectors of different policies are therefore pairable index-for-index
    /// across the scenarios of a campaign.
    pub fn evaluate_policies(
        &self,
        base: &SchedulerConfig,
        policies: &[Arc<dyn ConstraintPolicy>],
    ) -> Vec<CellMetrics> {
        self.context(base)
            .evaluate_policies(policies)
            .expect("scheduler produces valid workloads")
            .iter()
            .map(cell_metrics)
            .collect()
    }
}

/// The campaign-level measurements of one policy's run.
fn cell_metrics(run: &EvaluatedRun) -> CellMetrics {
    CellMetrics {
        unfairness: run.fairness.unfairness,
        makespan: run.global_makespan,
        average_slowdown: run.fairness.average_slowdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignConfig;
    use mcsched_core::PolicyRegistry;
    use mcsched_workload::{AppGenerator, ArrivalProcess, GeneratorSource};

    /// The built-in constraint policies registered under `names`.
    fn policies(names: &[&str]) -> Vec<Arc<dyn ConstraintPolicy>> {
        let registry = PolicyRegistry::builtin();
        names
            .iter()
            .map(|name| registry.constraint(name).unwrap())
            .collect()
    }

    /// Dedicated-platform makespans of every application of the scenario
    /// (`M_own`), shared by every strategy evaluation.
    fn dedicated_makespans(scenario: &Scenario, base: &SchedulerConfig) -> Vec<f64> {
        scenario
            .context(base)
            .dedicated_makespans()
            .expect("scheduler produces valid workloads")
    }

    /// Evaluates one policy on the scenario given precomputed dedicated
    /// makespans: the two-step reference the paired path
    /// ([`Scenario::evaluate_policies`]) is checked against.
    fn evaluate_strategy(
        scenario: &Scenario,
        policy: Arc<dyn ConstraintPolicy>,
        base: &SchedulerConfig,
        dedicated: &[f64],
    ) -> CellMetrics {
        // Borrow the scenario's PTGs (and release times) through a context
        // instead of cloning them into a one-shot `Workload`.
        let run = scenario
            .context(&SchedulerConfig {
                constraint: policy,
                ..base.clone()
            })
            .schedule()
            .expect("scheduler produces valid workloads");
        let fairness = mcsched_core::metrics::fairness_report(dedicated, &run.app_makespans());
        CellMetrics {
            unfairness: fairness.unfairness,
            makespan: run.global_makespan,
            average_slowdown: fairness.average_slowdown,
        }
    }

    #[test]
    fn replication_zero_is_the_configured_seed() {
        assert_eq!(replication_seed(0x5EED, 0), 0x5EED);
        let first = replication_seed(0x5EED, 1);
        let second = replication_seed(0x5EED, 2);
        assert_ne!(first, 0x5EED);
        assert_ne!(first, second);
        // Deterministic and usable as a generation seed: the same
        // replication redraws the exact same scenarios.
        let strassen = GeneratorSource::new(AppGenerator::Strassen);
        let a = generate_scenarios_with(&strassen, 2, 1, first).unwrap();
        let b = generate_scenarios_with(&strassen, 2, 1, first).unwrap();
        assert_eq!(a[0].ptgs, b[0].ptgs);
        let other = generate_scenarios_with(&strassen, 2, 1, second).unwrap();
        assert_ne!(a[0].ptgs, other[0].ptgs);
    }

    #[test]
    fn generates_combinations_times_platforms() {
        let s = generate_scenarios_with(&GeneratorSource::new(AppGenerator::Strassen), 2, 3, 42)
            .unwrap();
        assert_eq!(s.len(), 12);
        assert_eq!(s[0].ptgs.len(), 2);
    }

    #[test]
    fn same_combination_shares_ptgs_across_platforms() {
        let s = generate_scenarios_with(&GeneratorSource::new(AppGenerator::Strassen), 2, 1, 7)
            .unwrap();
        assert_eq!(s.len(), 4);
        for w in s.windows(2) {
            assert_eq!(w[0].seed, w[1].seed);
            assert_eq!(w[0].ptgs.len(), w[1].ptgs.len());
            assert!((w[0].ptgs[0].total_work() - w[1].ptgs[0].total_work()).abs() < 1e-6);
        }
    }

    #[test]
    fn site_scenarios_of_a_combination_share_one_slice() {
        let fft = GeneratorSource::new(AppGenerator::Fft { points: None });
        let s = generate_scenarios_with(&fft, 3, 2, 7).unwrap();
        let sites = grid5000::all_sites().len();
        for (i, scenario) in s.iter().enumerate() {
            let first = &s[i - i % sites];
            assert!(
                Arc::ptr_eq(&scenario.ptgs, &first.ptgs),
                "{}",
                scenario.name
            );
        }
        assert!(!Arc::ptr_eq(&s[0].ptgs, &s[sites].ptgs));
    }

    #[test]
    fn generation_is_deterministic() {
        let fft = GeneratorSource::new(AppGenerator::Fft { points: None });
        let a = generate_scenarios_with(&fft, 3, 2, 99).unwrap();
        let b = generate_scenarios_with(&fft, 3, 2, 99).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.ptgs, y.ptgs);
        }
    }

    #[test]
    fn timed_sources_carry_release_times_into_the_workload() {
        let source =
            GeneratorSource::new(AppGenerator::Strassen).with_arrival(ArrivalProcess::Bursty {
                burst: 1,
                gap: 25.0,
            });
        let scenarios = generate_scenarios_with(&source, 3, 1, 5).unwrap();
        let context = scenarios[0].context(&SchedulerConfig::default());
        assert_eq!(context.release_times(), &[0.0, 25.0, 50.0]);
    }

    #[test]
    fn evaluate_strategy_produces_finite_metrics() {
        let scenarios =
            generate_scenarios_with(&GeneratorSource::new(AppGenerator::Strassen), 2, 1, 5)
                .unwrap();
        let scenario = &scenarios[0];
        let base = SchedulerConfig::default();
        let dedicated = dedicated_makespans(scenario, &base);
        assert_eq!(dedicated.len(), 2);
        let equal_share = PolicyRegistry::builtin().constraint("es").unwrap();
        let out = evaluate_strategy(scenario, equal_share, &base, &dedicated);
        assert!(out.unfairness.is_finite() && out.unfairness >= 0.0);
        assert!(out.makespan > 0.0);
        assert!(out.average_slowdown > 0.0);
    }

    #[test]
    fn evaluate_all_matches_the_two_step_path() {
        let scenarios =
            generate_scenarios_with(&GeneratorSource::new(AppGenerator::Strassen), 3, 1, 13)
                .unwrap();
        let scenario = &scenarios[0];
        let base = SchedulerConfig::default();
        let policies = policies(&["s", "es"]);
        let combined = scenario.evaluate_policies(&base, &policies);
        let dedicated = dedicated_makespans(scenario, &base);
        for (outcome, policy) in combined.iter().zip(&policies) {
            let reference = evaluate_strategy(scenario, Arc::clone(policy), &base, &dedicated);
            assert_eq!(*outcome, reference);
        }
    }

    #[test]
    fn timed_scenarios_evaluate_identically_on_both_paths() {
        // The two-step path (context + evaluate_strategy) must honour the
        // scenario's release times exactly like evaluate_policies does, or
        // the same Scenario would yield two different results.
        let source =
            GeneratorSource::new(AppGenerator::Strassen).with_arrival(ArrivalProcess::Bursty {
                burst: 1,
                gap: 500.0,
            });
        let scenarios = generate_scenarios_with(&source, 3, 1, 11).unwrap();
        let scenario = &scenarios[0];
        assert!(scenario.release_times.iter().any(|&t| t > 0.0));
        let base = SchedulerConfig::default();
        let dedicated = dedicated_makespans(scenario, &base);
        let policies = policies(&["s", "es"]);
        let combined = scenario.evaluate_policies(&base, &policies);
        for (outcome, policy) in combined.iter().zip(&policies) {
            let reference = evaluate_strategy(scenario, Arc::clone(policy), &base, &dedicated);
            assert_eq!(*outcome, reference);
        }
        // A released application cannot start before its release instant.
        assert!(combined[0].makespan >= 1000.0);
    }

    /// The numbers of an outcome as bit patterns, so that equal means bit
    /// for bit: per application its β, makespan, estimated makespan and
    /// allocated processors, then the global makespan, the dedicated
    /// makespans and the fairness report.
    fn outcome_bits(outcome: &EvaluatedRun) -> Vec<u64> {
        let mut bits = Vec::new();
        for app in &outcome.apps {
            bits.extend([
                app.beta.to_bits(),
                app.makespan.to_bits(),
                app.estimated_makespan.to_bits(),
                app.allocated_procs as u64,
            ]);
        }
        bits.push(outcome.global_makespan.to_bits());
        bits.extend(outcome.dedicated_makespans.iter().map(|m| m.to_bits()));
        bits.extend(outcome.fairness.slowdowns.iter().map(|s| s.to_bits()));
        bits.push(outcome.fairness.average_slowdown.to_bits());
        bits.push(outcome.fairness.unfairness.to_bits());
        bits
    }

    /// Checks the paired path on `scenario` bit for bit against each policy
    /// evaluated alone on a fresh context, and
    /// checks that it simulated each distinct allocation vector once, fewer
    /// than one per policy.
    fn assert_paired_path_dedupes(scenario: &Scenario, policies: &[Arc<dyn ConstraintPolicy>]) {
        let base = SchedulerConfig::default();
        let context = scenario.context(&base);
        let paired = context.evaluate_policies(policies).unwrap();
        assert_eq!(paired.len(), policies.len());
        let mut distinct: Vec<Vec<mcsched_core::RefAllocation>> = Vec::new();
        for (policy, outcome) in policies.iter().zip(&paired) {
            let alone = scenario
                .context(&SchedulerConfig {
                    constraint: Arc::clone(policy),
                    ..base.clone()
                })
                .evaluate()
                .unwrap();
            let label = format!("{} on {}", policy.name(), scenario.name);
            assert_eq!(outcome_bits(outcome), outcome_bits(&alone), "{label}");
            assert_eq!(*outcome, alone, "{label}");
            let betas = context.betas_for(policy.as_ref());
            let reported: Vec<f64> = outcome.apps.iter().map(|app| app.beta).collect();
            assert_eq!(reported, betas, "{} reports its own β", policy.name());
            let allocations = context.allocations_for(policy.as_ref(), base.allocation.as_ref());
            if !distinct.contains(&allocations) {
                distinct.push(allocations);
            }
        }
        assert_eq!(context.concurrent_simulations(), distinct.len());
        assert!(distinct.len() < policies.len(), "{}", scenario.name);
    }

    #[test]
    fn paired_path_simulates_each_distinct_allocation_once() {
        // Ten FFT graphs of one size share one width, so PS-width and
        // WPS-width give ES's β. (The class's mixed 4/8/16-point draws do
        // not.)
        let source = GeneratorSource::new(AppGenerator::Fft { points: Some(8) });
        let fft = &generate_scenarios_with(&source, 10, 1, 3).unwrap()[0];
        let policies = CampaignConfig::paper(AppGenerator::Fft { points: None }).strategies;
        assert_paired_path_dedupes(fft, &policies);

        // Two random applications on a site where the equal share does not
        // bind: ES allocates what S does, under half the β.
        let policies = CampaignConfig::paper(AppGenerator::Random).strategies;
        let (selfish, equal) = (&policies[0], &policies[1]);
        let base = SchedulerConfig::default();
        let random = GeneratorSource::new(AppGenerator::Random);
        let unbound = (0..64)
            .flat_map(|seed| generate_scenarios_with(&random, 2, 1, seed).unwrap())
            .find(|scenario| {
                let context = scenario.context(&base);
                context.allocations_for(selfish.as_ref(), base.allocation.as_ref())
                    == context.allocations_for(equal.as_ref(), base.allocation.as_ref())
            })
            .expect("a two-application scenario where ES equals S");
        assert_paired_path_dedupes(&unbound, &policies);
    }

    #[test]
    fn evaluate_all_simulates_dedicated_baselines_once_per_app() {
        let scenarios =
            generate_scenarios_with(&GeneratorSource::new(AppGenerator::Strassen), 2, 1, 21)
                .unwrap();
        let scenario = &scenarios[0];
        let base = SchedulerConfig::default();
        let context = scenario.context(&base);
        let strategies = policies(&["s", "es", "ps-work"]);
        // One policy per call, so that each call simulates its run even
        // where two strategies give the same allocations.
        for policy in &strategies {
            context
                .evaluate_policies(std::slice::from_ref(policy))
                .unwrap();
        }
        assert_eq!(context.dedicated_simulations(), scenario.ptgs.len());
        assert_eq!(context.concurrent_simulations(), strategies.len());
    }
}
