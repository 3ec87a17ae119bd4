//! DAGGEN-style random-DAG generator.
//!
//! Reproduces the parameterisation of the DAG generation program used by the
//! paper's authors (DAGGEN): tasks are spread over precedence levels whose
//! *mean* size is `fat · √n`, and every task draws its parents from a window
//! of preceding levels. This differs from the legacy
//! [`mcsched_ptg::gen::random`] generator, whose mean level width is
//! `n^width` — much wider for the paper's parameter values (see the crate
//! docs and [`crate::calibration`] for the quantified gap).
//!
//! Algorithm, for a configuration `cfg` and a seeded RNG:
//!
//! 1. **Levels** — while tasks remain, draw the next level size uniformly in
//!    `[regularity · w̄, (2 − regularity) · w̄]` (integer, clamped to the
//!    remaining task budget), where `w̄ = max(1, fat · √n)`;
//! 2. **Tasks** — every task draws its dataset size `d` uniformly in the
//!    paper's `[4·10⁶, 121·10⁶]` range, its Amdahl fraction in `[0, 0.25]`
//!    and its complexity from the configured [`CostScenario`];
//! 3. **Edges** — every non-entry task receives one mandatory parent from
//!    the immediately preceding level (keeping the generated level structure
//!    intact) plus up to `⌊density · (window − 1)⌋` additional distinct
//!    parents drawn from the `jump` preceding levels;
//! 4. **Communication** — each edge carries `ccr · 8 · d_src` bytes
//!    (`ccr = 1` reproduces the paper's `8·d` data volumes).

use mcsched_core::SchedError;
use mcsched_ptg::gen::CostScenario;
use mcsched_ptg::{Ptg, PtgBuilder, TaskId};
use rand::Rng;

/// Configuration of the DAGGEN-style generator. See the [module
/// docs](self) for the generation algorithm and the crate docs for the
/// mapping to the paper's parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaggenConfig {
    /// Number of data-parallel tasks `n` (the paper uses 10, 20 and 50).
    pub num_tasks: usize,
    /// Width of the DAG: the mean number of tasks per precedence level is
    /// `fat · √n`. The paper's *width* values {0.2, 0.5, 0.8} are `fat`
    /// values in this parameterisation.
    pub fat: f64,
    /// Regularity of the level-size distribution, in `[0, 1]` (1 = all
    /// levels have the mean size).
    pub regularity: f64,
    /// Density of inter-level dependencies, in `[0, 1]`: each task draws up
    /// to `⌊density · (window − 1)⌋` parents beyond the mandatory one.
    pub density: f64,
    /// Number of preceding levels a dependency may span (1 = consecutive
    /// levels only; the paper uses 1, 2 and 4).
    pub jump: usize,
    /// Communication scaling: edge volumes are `ccr · 8 · d` bytes. `1.0`
    /// reproduces the paper's data volumes.
    pub ccr: f64,
    /// Computational complexity scenario of the tasks.
    pub cost_scenario: CostScenario,
}

impl DaggenConfig {
    /// A mid-range default configuration: 20 tasks, fat 0.5, regularity 0.8,
    /// density 0.5, jump 1, the paper's communication volumes and mixed
    /// costs.
    #[must_use]
    pub fn new(num_tasks: usize) -> Self {
        Self {
            num_tasks,
            fat: 0.5,
            regularity: 0.8,
            density: 0.5,
            jump: 1,
            ccr: 1.0,
            cost_scenario: CostScenario::Mixed,
        }
    }

    /// Builds a configuration from the paper's parameter names: the paper's
    /// *width* is DAGGEN's `fat` (mean level width `fat · √n`).
    #[must_use]
    pub fn from_paper(
        num_tasks: usize,
        width: f64,
        regularity: f64,
        density: f64,
        jump: usize,
    ) -> Self {
        Self {
            num_tasks,
            fat: width,
            regularity,
            density,
            jump,
            ..Self::new(num_tasks)
        }
    }

    /// The mean number of tasks per precedence level, `max(1, fat · √n)`.
    #[must_use]
    pub fn mean_width(&self) -> f64 {
        (self.fat * (self.num_tasks as f64).sqrt()).max(1.0)
    }

    /// The full parameter grid of the paper's evaluation, expressed for this
    /// generator: sizes {10, 20, 50} × fat {0.2, 0.5, 0.8} × regularity
    /// {0.2, 0.8} × density {0.2, 0.8} × jump {1, 2, 4}, mixed costs.
    #[must_use]
    pub fn paper_grid() -> Vec<Self> {
        let mut grid = Vec::new();
        for &num_tasks in &[10usize, 20, 50] {
            for &fat in &[0.2, 0.5, 0.8] {
                for &regularity in &[0.2, 0.8] {
                    for &density in &[0.2, 0.8] {
                        for &jump in &[1usize, 2, 4] {
                            grid.push(Self::from_paper(num_tasks, fat, regularity, density, jump));
                        }
                    }
                }
            }
        }
        grid
    }

    /// Draws one configuration uniformly from [`DaggenConfig::paper_grid`]
    /// with the cost scenario also drawn uniformly, mirroring
    /// `RandomPtgConfig::sample_paper_grid` for the calibrated generator.
    pub fn sample_paper_grid<R: Rng>(rng: &mut R) -> Self {
        let num_tasks = [10usize, 20, 50][rng.gen_range(0..3)];
        let fat = [0.2, 0.5, 0.8][rng.gen_range(0..3)];
        let regularity = [0.2, 0.8][rng.gen_range(0..2)];
        let density = [0.2, 0.8][rng.gen_range(0..2)];
        let jump = [1usize, 2, 4][rng.gen_range(0..3)];
        let cost_scenario = CostScenario::all()[rng.gen_range(0..4)];
        Self {
            num_tasks,
            fat,
            regularity,
            density,
            jump,
            ccr: 1.0,
            cost_scenario,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidConfig`] when a parameter is outside its domain.
    pub fn validate(&self) -> Result<(), SchedError> {
        let err = |what: String| Err(SchedError::InvalidConfig(what));
        if self.num_tasks == 0 {
            return err("daggen: a PTG needs at least one task".into());
        }
        if !(self.fat > 0.0 && self.fat.is_finite()) {
            return err(format!("daggen: fat {} must be finite and > 0", self.fat));
        }
        if !(0.0..=1.0).contains(&self.regularity) {
            return err(format!(
                "daggen: regularity {} outside [0, 1]",
                self.regularity
            ));
        }
        if !(0.0..=1.0).contains(&self.density) {
            return err(format!("daggen: density {} outside [0, 1]", self.density));
        }
        if self.jump == 0 {
            return err("daggen: jump must be at least 1".into());
        }
        if !(self.ccr > 0.0 && self.ccr.is_finite()) {
            return err(format!("daggen: ccr {} must be finite and > 0", self.ccr));
        }
        Ok(())
    }
}

/// Generates one random PTG with the DAGGEN parameterisation. The result is
/// a valid DAG in which every non-entry task has a parent in the immediately
/// preceding level (so the generated level structure is exactly the
/// precedence-level structure).
///
/// # Panics
///
/// Panics when `cfg` fails [`DaggenConfig::validate`]; the catalog and the
/// workload sources validate before generating.
pub fn daggen_ptg<R: Rng>(cfg: &DaggenConfig, rng: &mut R, name: impl Into<String>) -> Ptg {
    cfg.validate().expect("daggen configuration must be valid");

    // 1. Level sizes: uniform integers around the DAGGEN mean width.
    let n = cfg.num_tasks;
    let mean = cfg.mean_width();
    let lo = (cfg.regularity * mean).max(1.0).round() as usize;
    let hi = ((2.0 - cfg.regularity) * mean).round().max(lo as f64) as usize;
    let mut level_sizes: Vec<usize> = Vec::new();
    let mut assigned = 0usize;
    while assigned < n {
        let size = rng.gen_range(lo..=hi).clamp(1, n - assigned);
        level_sizes.push(size);
        assigned += size;
    }

    // 2. Tasks, level by level, with the paper's cost model: level `l` is
    //    tasks `bounds[l]..bounds[l + 1]`.
    let mut builder = PtgBuilder::new(name);
    let mut bounds: Vec<TaskId> = vec![0];
    for (lvl, &size) in level_sizes.iter().enumerate() {
        for i in 0..size {
            let d = rng.gen_range(mcsched_ptg::MIN_DATA_ELEMS..=mcsched_ptg::MAX_DATA_ELEMS);
            let alpha = rng.gen_range(0.0..=0.25);
            let model = cfg.cost_scenario.draw_model(rng);
            let task = mcsched_ptg::DataParallelTask::new(format!("t{lvl}_{i}"), d, model, alpha);
            builder.add_task(task);
        }
        bounds.push(builder.num_tasks());
    }

    // 3. Parents: one mandatory from level l-1, extras from the jump window.
    let mut pool: Vec<TaskId> = Vec::new();
    let mut parents: Vec<TaskId> = Vec::new();
    for l in 1..level_sizes.len() {
        let window = bounds[l.saturating_sub(cfg.jump)]..bounds[l];
        let prev = bounds[l - 1]..bounds[l];
        let max_extra = (cfg.density * (window.len().saturating_sub(1)) as f64).floor() as usize;
        for dst in bounds[l]..bounds[l + 1] {
            let mandatory = prev.start + rng.gen_range(0..prev.len());
            parents.clear();
            parents.push(mandatory);
            let extra = if max_extra > 0 {
                rng.gen_range(0..=max_extra)
            } else {
                0
            };
            // Partial Fisher-Yates over the window to draw distinct parents.
            pool.clear();
            pool.extend(window.clone());
            for slot in 0..pool.len() {
                if parents.len() > extra {
                    break;
                }
                let pick = rng.gen_range(slot..pool.len());
                pool.swap(slot, pick);
                let candidate = pool[slot];
                if candidate != mandatory {
                    parents.push(candidate);
                }
            }
            for &src in &parents {
                let bytes = builder.tasks_slice()[src].output_bytes() * cfg.ccr;
                builder.add_edge(src, dst, bytes);
            }
        }
    }

    builder
        .build()
        .expect("daggen produces valid acyclic graphs by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_ptg::analysis::structure;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn respects_task_count() {
        for &n in &[1usize, 10, 20, 50] {
            let g = daggen_ptg(&DaggenConfig::new(n), &mut rng(n as u64), "g");
            assert_eq!(g.num_tasks(), n);
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = DaggenConfig::from_paper(50, 0.5, 0.2, 0.8, 2);
        assert_eq!(
            daggen_ptg(&cfg, &mut rng(9), "g"),
            daggen_ptg(&cfg, &mut rng(9), "g")
        );
    }

    #[test]
    fn every_non_entry_task_has_a_parent_in_the_previous_level() {
        let cfg = DaggenConfig::from_paper(50, 0.8, 0.2, 0.8, 4);
        let g = daggen_ptg(&cfg, &mut rng(3), "g");
        let s = structure(&g);
        for t in g.task_ids() {
            let lvl = s.levels[t];
            if lvl > 0 {
                assert!(
                    g.preds(t).iter().any(|&(p, _)| s.levels[p] == lvl - 1),
                    "task {t} at level {lvl} has no parent at level {}",
                    lvl - 1
                );
            }
        }
    }

    #[test]
    fn mean_width_tracks_fat_sqrt_n() {
        // fat = 0.8, n = 50 → mean width ≈ 5.7, far below the legacy
        // generator's n^0.8 ≈ 22.9. Average the realized max width over a
        // few seeds and check it lands near the DAGGEN mean, not the legacy
        // one.
        let cfg = DaggenConfig::from_paper(50, 0.8, 0.8, 0.5, 1);
        let avg: f64 = (0..16)
            .map(|s| structure(&daggen_ptg(&cfg, &mut rng(s), "g")).max_width() as f64)
            .sum::<f64>()
            / 16.0;
        assert!(
            avg < 12.0,
            "realized width {avg:.1} should be near fat·√n ≈ 5.7, not n^0.8 ≈ 22.9"
        );
        assert!(avg > 2.0, "realized width {avg:.1} suspiciously thin");
    }

    #[test]
    fn wider_fat_yields_wider_graphs() {
        let narrow = DaggenConfig::from_paper(50, 0.2, 0.8, 0.5, 1);
        let wide = DaggenConfig::from_paper(50, 0.8, 0.8, 0.5, 1);
        let avg = |cfg: &DaggenConfig| -> f64 {
            (0..8)
                .map(|s| structure(&daggen_ptg(cfg, &mut rng(s), "g")).max_width() as f64)
                .sum::<f64>()
                / 8.0
        };
        assert!(avg(&wide) > avg(&narrow));
    }

    #[test]
    fn denser_config_has_more_edges() {
        let sparse = DaggenConfig {
            density: 0.2,
            ..DaggenConfig::new(50)
        };
        let dense = DaggenConfig {
            density: 0.8,
            ..DaggenConfig::new(50)
        };
        let avg = |cfg: &DaggenConfig| -> f64 {
            (0..8)
                .map(|s| daggen_ptg(cfg, &mut rng(100 + s), "g").num_edges() as f64)
                .sum::<f64>()
                / 8.0
        };
        assert!(avg(&dense) > avg(&sparse));
    }

    #[test]
    fn jump_edges_stay_within_the_window_and_acyclic() {
        let cfg = DaggenConfig::from_paper(50, 0.8, 0.2, 0.8, 4);
        let g = daggen_ptg(&cfg, &mut rng(77), "g");
        let s = structure(&g);
        for e in g.edges() {
            assert!(s.levels[e.src] < s.levels[e.dst]);
            assert!(s.levels[e.dst] - s.levels[e.src] <= 4);
        }
    }

    #[test]
    fn ccr_scales_edge_volumes() {
        let base = DaggenConfig::new(20);
        let scaled = DaggenConfig { ccr: 2.5, ..base };
        let g1 = daggen_ptg(&base, &mut rng(5), "g");
        let g2 = daggen_ptg(&scaled, &mut rng(5), "g");
        assert!((g2.total_communication() - 2.5 * g1.total_communication()).abs() < 1e-3);
    }

    #[test]
    fn costs_follow_the_paper_ranges() {
        let g = daggen_ptg(&DaggenConfig::new(50), &mut rng(5), "g");
        for t in g.tasks() {
            assert!(t.data_elems() >= mcsched_ptg::MIN_DATA_ELEMS);
            assert!(t.data_elems() <= mcsched_ptg::MAX_DATA_ELEMS);
            assert!(t.alpha() >= 0.0 && t.alpha() <= 0.25);
            assert!(t.flops() > 0.0);
        }
    }

    #[test]
    fn rows_match_the_edge_list() {
        // Edges are added per consumer, drawn from the whole jump window,
        // so a producer's successors sit far apart in the edge list.
        for (i, cfg) in DaggenConfig::paper_grid().iter().enumerate() {
            let g = daggen_ptg(cfg, &mut rng(i as u64), "g");
            let n = g.num_tasks();
            let mut preds = vec![Vec::new(); n];
            let mut succs = vec![Vec::new(); n];
            for (eid, e) in g.edges().iter().enumerate() {
                succs[e.src].push((e.dst, eid));
                preds[e.dst].push((e.src, eid));
            }
            let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
            let mut order: Vec<TaskId> = (0..n).filter(|&t| indeg[t] == 0).collect();
            assert_eq!(g.entries(), order);
            let mut head = 0;
            while let Some(&t) = order.get(head) {
                head += 1;
                for &(s, _) in &succs[t] {
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        order.push(s);
                    }
                }
            }
            assert_eq!(g.topological_order(), order);
            let exits: Vec<TaskId> = (0..n).filter(|&t| succs[t].is_empty()).collect();
            assert_eq!(g.exits(), exits);
            for t in 0..n {
                assert_eq!(g.preds(t), preds[t]);
                assert_eq!(g.succs(t), succs[t]);
            }
        }
    }

    #[test]
    fn paper_grid_has_expected_cardinality() {
        assert_eq!(DaggenConfig::paper_grid().len(), 108);
        for cfg in DaggenConfig::paper_grid() {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let bad = |f: fn(&mut DaggenConfig)| {
            let mut cfg = DaggenConfig::new(10);
            f(&mut cfg);
            assert!(matches!(cfg.validate(), Err(SchedError::InvalidConfig(_))));
        };
        bad(|c| c.num_tasks = 0);
        bad(|c| c.fat = 0.0);
        bad(|c| c.fat = f64::NAN);
        bad(|c| c.regularity = 1.5);
        bad(|c| c.density = -0.1);
        bad(|c| c.jump = 0);
        bad(|c| c.ccr = 0.0);
    }
}
