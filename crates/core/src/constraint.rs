//! Strategies for determining the resource constraint β of each PTG
//! (Section 6 of the paper).
//!
//! Given the set `A` of PTGs submitted together, every strategy produces one
//! `β_i ∈ (0, 1]` per application — the fraction of the platform's total
//! processing power the allocation procedure may use when building that
//! application's schedule:
//!
//! * **S** (selfish): `β_i = 1` — each application behaves as if the platform
//!   were dedicated to it (the behaviour of the single-PTG heuristics of the
//!   literature); used as the baseline competitor;
//! * **ES** (equal share): `β_i = 1/|A|`;
//! * **PS-x** (proportional share): `β_i = γ_i / Σ_j γ_j` where `γ` is one of
//!   the three PTG characteristics — critical-path length, maximal width or
//!   total work;
//! * **WPS-x** (weighted proportional share):
//!   `β_i = µ/|A| + (1 − µ)·γ_i/Σ_j γ_j`, a tunable compromise between ES
//!   (µ = 1) and PS (µ = 0). The paper settles on µ = 0.7 for `work`,
//!   µ = 0.5 for `cp` and µ = 0.5 (random PTGs) or 0.3 (FFT) for `width`.

use crate::allocation::ReferencePlatform;
use crate::policy::{ConstraintPolicy, EqualShare, ProportionalShare, Selfish, WeightedShare};
use mcsched_ptg::analysis::{sequential_critical_path, structure};
use mcsched_ptg::Ptg;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The PTG characteristic γ used by the proportional strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Characteristic {
    /// Length of the critical path (sequential task times on the reference
    /// cluster, communications ignored).
    CriticalPath,
    /// Maximal width: size of the precedence level with the most tasks.
    Width,
    /// Total amount of work (sum of the task costs in flop).
    Work,
}

impl Characteristic {
    /// All three characteristics, in the paper's order.
    pub fn all() -> [Characteristic; 3] {
        [
            Characteristic::CriticalPath,
            Characteristic::Width,
            Characteristic::Work,
        ]
    }

    /// Short label used in strategy names (`cp`, `width`, `work`).
    pub fn label(&self) -> &'static str {
        match self {
            Characteristic::CriticalPath => "cp",
            Characteristic::Width => "width",
            Characteristic::Work => "work",
        }
    }

    /// Evaluates γ for one PTG.
    pub fn evaluate(&self, ptg: &Ptg, reference: &ReferencePlatform) -> f64 {
        match self {
            Characteristic::CriticalPath => sequential_critical_path(ptg, reference.speed()),
            Characteristic::Width => structure(ptg).max_width() as f64,
            Characteristic::Work => ptg.total_work(),
        }
    }

    /// The µ value the paper recommends for the WPS variant of this
    /// characteristic (random/workflow PTGs).
    pub fn recommended_mu(&self) -> f64 {
        match self {
            Characteristic::CriticalPath => 0.5,
            Characteristic::Width => 0.5,
            Characteristic::Work => 0.7,
        }
    }

    /// The µ value the paper recommends for FFT PTGs (only `width` differs).
    fn recommended_mu_fft(&self) -> f64 {
        match self {
            Characteristic::Width => 0.3,
            other => other.recommended_mu(),
        }
    }
}

/// A strategy for computing the per-PTG resource constraints.
///
/// This enum builds the paper's strategy sets ([`ConstraintStrategy::paper_set`]
/// and friends); [`ConstraintStrategy::to_policy`] resolves each variant to
/// its concrete [`ConstraintPolicy`], the one form the pipeline runs. The
/// [`crate::policy::PolicyRegistry`] resolves the same policies by name
/// (`"es"`, `"wps-work@0.7"`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ConstraintStrategy {
    /// `S`: every application may use the whole platform (β = 1).
    Selfish,
    /// `ES`: every application gets an equal share (β = 1/|A|).
    EqualShare,
    /// `PS-x`: β proportional to the application's contribution to the
    /// chosen characteristic.
    Proportional(Characteristic),
    /// `WPS-x`: weighted compromise between `ES` and `PS-x` with parameter
    /// µ ∈ [0, 1] (µ = 1 ⇒ ES, µ = 0 ⇒ PS).
    Weighted(Characteristic, f64),
}

impl ConstraintStrategy {
    /// The eight strategies compared in the paper's evaluation, using the
    /// recommended µ values for random/workflow PTGs.
    pub fn paper_set() -> Vec<ConstraintStrategy> {
        let mut v = vec![ConstraintStrategy::Selfish, ConstraintStrategy::EqualShare];
        for c in Characteristic::all() {
            v.push(ConstraintStrategy::Proportional(c));
        }
        for c in Characteristic::all() {
            v.push(ConstraintStrategy::Weighted(c, c.recommended_mu()));
        }
        v
    }

    /// The six strategies that remain meaningful for Strassen PTGs (all
    /// instances share the same width, so the width-based strategies
    /// degenerate to ES and are omitted, as in Figure 5).
    pub fn strassen_set() -> Vec<ConstraintStrategy> {
        Self::paper_set()
            .into_iter()
            .filter(|s| {
                !matches!(
                    s,
                    ConstraintStrategy::Proportional(Characteristic::Width)
                        | ConstraintStrategy::Weighted(Characteristic::Width, _)
                )
            })
            .collect()
    }

    /// Same as [`ConstraintStrategy::paper_set`] but with the FFT-specific µ
    /// for the width characteristic.
    pub fn paper_set_fft() -> Vec<ConstraintStrategy> {
        let mut v = vec![ConstraintStrategy::Selfish, ConstraintStrategy::EqualShare];
        for c in Characteristic::all() {
            v.push(ConstraintStrategy::Proportional(c));
        }
        for c in Characteristic::all() {
            v.push(ConstraintStrategy::Weighted(c, c.recommended_mu_fft()));
        }
        v
    }

    /// Human readable name (`S`, `ES`, `PS-cp`, `WPS-work`, ...).
    pub fn name(&self) -> String {
        match self {
            ConstraintStrategy::Selfish => "S".to_string(),
            ConstraintStrategy::EqualShare => "ES".to_string(),
            ConstraintStrategy::Proportional(c) => format!("PS-{}", c.label()),
            ConstraintStrategy::Weighted(c, _) => format!("WPS-{}", c.label()),
        }
    }

    /// Resolves this strategy to its concrete policy. Every β the policy
    /// returns lies in `(0, 1]`; degenerate inputs (zero total contribution)
    /// fall back to the equal share.
    #[must_use]
    pub fn to_policy(self) -> Arc<dyn ConstraintPolicy> {
        match self {
            ConstraintStrategy::Selfish => Arc::new(Selfish),
            ConstraintStrategy::EqualShare => Arc::new(EqualShare),
            ConstraintStrategy::Proportional(c) => Arc::new(ProportionalShare::new(c)),
            ConstraintStrategy::Weighted(c, mu) => Arc::new(WeightedShare::new(c, mu)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_ptg::{CostModel, DataParallelTask, PtgBuilder};

    fn reference() -> ReferencePlatform {
        ReferencePlatform::from_parts(1.0e9, 100, 50)
    }

    /// A chain of `n` tasks of `d` elements each.
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

    /// `width` independent tasks (single level).
    fn bag(width: usize, d: f64) -> Ptg {
        let mut b = PtgBuilder::new("bag");
        for i in 0..width {
            b.add_task(DataParallelTask::new(
                format!("t{i}"),
                d,
                CostModel::MatrixProduct,
                0.0,
            ));
        }
        b.build().unwrap()
    }

    #[test]
    fn selfish_gives_one_to_everyone() {
        let ptgs = vec![chain(3, 8.0e6), bag(4, 8.0e6)];
        let betas = ConstraintStrategy::Selfish
            .to_policy()
            .betas(&ptgs, &reference());
        assert_eq!(betas, vec![1.0, 1.0]);
    }

    #[test]
    fn equal_share_splits_evenly() {
        let ptgs = vec![
            chain(3, 8.0e6),
            bag(4, 8.0e6),
            chain(2, 8.0e6),
            bag(2, 8.0e6),
        ];
        let betas = ConstraintStrategy::EqualShare
            .to_policy()
            .betas(&ptgs, &reference());
        for b in betas {
            assert!((b - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn proportional_work_matches_work_ratio() {
        // Same structure, one PTG has 8x datasets => (8^1.5 = ~22.6)x work.
        let small = chain(2, 8.0e6);
        let big = chain(2, 64.0e6);
        let ptgs = vec![small.clone(), big.clone()];
        let betas = ConstraintStrategy::Proportional(Characteristic::Work)
            .to_policy()
            .betas(&ptgs, &reference());
        let expected_small = small.total_work() / (small.total_work() + big.total_work());
        assert!((betas[0] - expected_small).abs() < 1e-9);
        assert!((betas[0] + betas[1] - 1.0).abs() < 1e-9);
        assert!(betas[1] > betas[0]);
    }

    #[test]
    fn proportional_width_favours_wider_ptg() {
        let narrow = chain(4, 8.0e6);
        let wide = bag(8, 8.0e6);
        let betas = ConstraintStrategy::Proportional(Characteristic::Width)
            .to_policy()
            .betas(&[narrow, wide], &reference());
        // widths: 1 vs 8
        assert!((betas[0] - 1.0 / 9.0).abs() < 1e-9);
        assert!((betas[1] - 8.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn proportional_cp_favours_longer_critical_path() {
        let short = chain(1, 8.0e6);
        let long = chain(6, 8.0e6);
        let betas = ConstraintStrategy::Proportional(Characteristic::CriticalPath)
            .to_policy()
            .betas(&[short, long], &reference());
        assert!(betas[1] > betas[0]);
        assert!((betas[0] + betas[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_interpolates_between_ps_and_es() {
        let ptgs = vec![chain(2, 8.0e6), chain(2, 64.0e6)];
        let r = reference();
        let ps = ConstraintStrategy::Proportional(Characteristic::Work)
            .to_policy()
            .betas(&ptgs, &r);
        let es = ConstraintStrategy::EqualShare.to_policy().betas(&ptgs, &r);
        let w0 = ConstraintStrategy::Weighted(Characteristic::Work, 0.0)
            .to_policy()
            .betas(&ptgs, &r);
        let w1 = ConstraintStrategy::Weighted(Characteristic::Work, 1.0)
            .to_policy()
            .betas(&ptgs, &r);
        let whalf = ConstraintStrategy::Weighted(Characteristic::Work, 0.5)
            .to_policy()
            .betas(&ptgs, &r);
        for i in 0..2 {
            assert!((w0[i] - ps[i]).abs() < 1e-9, "mu=0 equals PS");
            assert!((w1[i] - es[i]).abs() < 1e-9, "mu=1 equals ES");
            assert!((whalf[i] - 0.5 * (ps[i] + es[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn weighted_gives_small_ptg_more_than_ps() {
        let ptgs = vec![chain(2, 8.0e6), chain(2, 100.0e6)];
        let r = reference();
        let ps = ConstraintStrategy::Proportional(Characteristic::Work)
            .to_policy()
            .betas(&ptgs, &r);
        let wps = ConstraintStrategy::Weighted(Characteristic::Work, 0.7)
            .to_policy()
            .betas(&ptgs, &r);
        assert!(wps[0] > ps[0], "WPS protects the small application");
    }

    #[test]
    fn betas_always_in_unit_interval() {
        let ptgs = vec![chain(1, 4.0e6), bag(10, 121.0e6), chain(5, 50.0e6)];
        let r = reference();
        for strategy in ConstraintStrategy::paper_set() {
            for b in strategy.to_policy().betas(&ptgs, &r) {
                assert!(b > 0.0 && b <= 1.0, "{} produced β={b}", strategy.name());
            }
        }
    }

    #[test]
    fn names_follow_paper_convention() {
        assert_eq!(ConstraintStrategy::Selfish.name(), "S");
        assert_eq!(ConstraintStrategy::EqualShare.name(), "ES");
        assert_eq!(
            ConstraintStrategy::Proportional(Characteristic::Width).name(),
            "PS-width"
        );
        assert_eq!(
            ConstraintStrategy::Weighted(Characteristic::Work, 0.7).name(),
            "WPS-work"
        );
    }

    #[test]
    fn paper_set_has_eight_strategies() {
        assert_eq!(ConstraintStrategy::paper_set().len(), 8);
        assert_eq!(ConstraintStrategy::paper_set_fft().len(), 8);
        assert_eq!(ConstraintStrategy::strassen_set().len(), 6);
    }

    #[test]
    fn identical_ptgs_get_identical_shares_under_all_strategies() {
        let ptgs = vec![chain(3, 20.0e6), chain(3, 20.0e6), chain(3, 20.0e6)];
        let r = reference();
        for strategy in ConstraintStrategy::paper_set() {
            let betas = strategy.to_policy().betas(&ptgs, &r);
            assert!((betas[0] - betas[1]).abs() < 1e-9);
            assert!((betas[1] - betas[2]).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_application_set_yields_no_betas() {
        assert!(ConstraintStrategy::EqualShare
            .to_policy()
            .betas(&[], &reference())
            .is_empty());
    }

    #[test]
    fn recommended_mu_values_match_paper() {
        assert_eq!(Characteristic::Work.recommended_mu(), 0.7);
        assert_eq!(Characteristic::CriticalPath.recommended_mu(), 0.5);
        assert_eq!(Characteristic::Width.recommended_mu(), 0.5);
        assert_eq!(Characteristic::Width.recommended_mu_fft(), 0.3);
        assert_eq!(Characteristic::Work.recommended_mu_fft(), 0.7);
    }
}
