//! Fast Fourier Transform task graphs.
//!
//! The FFT PTG is the classical two-phase graph used throughout the
//! heterogeneous-scheduling literature (e.g. Topcuoglu et al., HEFT): a
//! binary *recursive-call* tree that splits the input vector, followed by
//! `log2(m)` levels of `m` *butterfly* tasks each, where `m` is the number of
//! points of the transform.
//!
//! For `m` points the graph contains `2m − 1 + m·log2(m)` tasks:
//! 15 tasks for `m = 4`, 39 for `m = 8` and 95 for `m = 16`. The paper
//! reports 15, 37 and 95 tasks for FFT PTGs of "4, 8 or 16 levels"; the
//! 2-task difference for the middle size comes from a different counting of
//! the recursion roots and does not affect the structural properties the
//! scheduler reacts to (regular levels, identical per-level costs, limited
//! task parallelism).
//!
//! Every task in a given level has the same cost, matching the paper's
//! remark that FFT graphs are "very regular as every tasks in a given level
//! have the same cost".

use crate::graph::{Ptg, PtgBuilder, TaskId};
use crate::task::{CostModel, DataParallelTask};
use rand::Rng;

/// Generates an FFT PTG for a transform over `points` points
/// (`points` must be a power of two, the paper uses 4, 8 and 16).
///
/// Costs: the root task operates on a dataset `D` drawn uniformly so that the
/// leaves still hold at least the paper's minimal dataset size; a recursive
/// task at depth `i` operates on `D / 2^i` elements, butterfly tasks on
/// `D / m` elements. All tasks use the `a·d·log d` complexity with `a` drawn
/// once per graph, and all tasks of a level share the same Amdahl fraction.
pub fn fft_ptg<R: Rng>(points: usize, rng: &mut R, name: impl Into<String>) -> Ptg {
    assert!(points >= 2, "an FFT needs at least 2 points");
    assert!(
        points.is_power_of_two(),
        "the number of points must be a power of two"
    );
    let stages = points.trailing_zeros() as usize; // log2(points)

    // Root dataset: leaves (D / points) must stay >= MIN_DATA_ELEMS and the
    // root must stay <= MAX_DATA_ELEMS.
    let min_root = (crate::MIN_DATA_ELEMS * points as f64).min(crate::MAX_DATA_ELEMS);
    let root_d = rng.gen_range(min_root..=crate::MAX_DATA_ELEMS);
    let a = rng.gen_range(64.0..=512.0);

    let mut builder = PtgBuilder::new(name);

    // Phase 1: recursive-call binary tree, depth 0 (root) .. `stages` (leaves).
    let mut tree_levels: Vec<Vec<TaskId>> = Vec::with_capacity(stages + 1);
    for depth in 0..=stages {
        let count = 1usize << depth;
        let d = root_d / count as f64;
        let alpha = rng.gen_range(0.0..=0.25);
        let mut ids = Vec::with_capacity(count);
        for i in 0..count {
            let t = DataParallelTask::new(
                format!("rec{depth}_{i}"),
                d,
                CostModel::LogLinear { a },
                alpha,
            );
            ids.push(builder.add_task(t));
        }
        if depth > 0 {
            let parent_level = tree_levels.last().expect("depth > 0 has a parent level");
            for (i, &child) in ids.iter().enumerate() {
                let parent = parent_level[i / 2];
                builder.add_edge(parent, child, 8.0 * d);
            }
        }
        tree_levels.push(ids);
    }

    // Phase 2: `stages` butterfly levels of `points` tasks each.
    let leaf_d = root_d / points as f64;
    let mut prev: Vec<TaskId> = Vec::with_capacity(points);
    // Leaves of the tree feed the first butterfly level; with `points` leaves
    // this is a one-to-one plus partner wiring.
    let leaves = tree_levels
        .last()
        .expect("tree has at least the root level")
        .clone();
    prev.extend_from_slice(&leaves);

    for stage in 0..stages {
        let alpha = rng.gen_range(0.0..=0.25);
        let mut ids = Vec::with_capacity(points);
        for i in 0..points {
            let t = DataParallelTask::new(
                format!("bfly{stage}_{i}"),
                leaf_d,
                CostModel::LogLinear { a },
                alpha,
            );
            ids.push(builder.add_task(t));
        }
        let stride = 1usize << stage;
        for i in 0..points {
            let partner = i ^ stride;
            builder.add_edge(prev[i], ids[i], 8.0 * leaf_d);
            if partner != i {
                builder.add_edge(prev[partner], ids[i], 8.0 * leaf_d);
            }
        }
        prev = ids;
    }

    builder
        .build()
        .expect("FFT generator produces valid acyclic graphs by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::structure;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Number of tasks of an FFT PTG over `points` points.
    fn fft_task_count(points: usize) -> usize {
        let stages = points.trailing_zeros() as usize;
        2 * points - 1 + points * stages
    }

    #[test]
    fn task_counts_match_formula() {
        assert_eq!(fft_task_count(4), 15);
        assert_eq!(fft_task_count(8), 39);
        assert_eq!(fft_task_count(16), 95);
        for &m in &[4usize, 8, 16] {
            let g = fft_ptg(m, &mut rng(1), "fft");
            assert_eq!(g.num_tasks(), fft_task_count(m));
        }
    }

    #[test]
    fn single_entry_task() {
        let g = fft_ptg(8, &mut rng(2), "fft");
        assert_eq!(g.entries().len(), 1, "the recursion root is the only entry");
    }

    #[test]
    fn level_structure_is_regular() {
        let g = fft_ptg(8, &mut rng(3), "fft");
        let s = structure(&g);
        // tree levels: 1, 2, 4, 8 then butterfly levels: 8, 8, 8
        assert_eq!(s.level_widths, vec![1, 2, 4, 8, 8, 8, 8]);
        assert_eq!(s.max_width(), 8);
    }

    #[test]
    fn tasks_in_a_level_share_costs() {
        let g = fft_ptg(16, &mut rng(4), "fft");
        let s = structure(&g);
        for level_tasks in &s.tasks_by_level {
            let first = g.task(level_tasks[0]);
            for &t in level_tasks {
                let task = g.task(t);
                assert!((task.flops() - first.flops()).abs() < 1e-6);
                assert!((task.alpha() - first.alpha()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn butterfly_tasks_have_two_parents() {
        let g = fft_ptg(8, &mut rng(5), "fft");
        let s = structure(&g);
        // Butterfly levels start after the tree (level index > stages).
        let stages = 3;
        for (t, &lvl) in s.levels.iter().enumerate() {
            if lvl > stages {
                assert_eq!(
                    g.preds(t).len(),
                    2,
                    "butterfly task {t} must have 2 parents"
                );
            }
        }
    }

    #[test]
    fn datasets_respect_minimum() {
        for seed in 0..10 {
            let g = fft_ptg(16, &mut rng(seed), "fft");
            for t in g.tasks() {
                assert!(t.data_elems() >= crate::MIN_DATA_ELEMS * 0.999);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_is_rejected() {
        fft_ptg(6, &mut rng(0), "bad");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = fft_ptg(8, &mut rng(9), "fft");
        let b = fft_ptg(8, &mut rng(9), "fft");
        assert_eq!(a, b);
    }
}
