//! Shared scratch state for the iterative allocation procedures.
//!
//! SCRAP, SCRAP-MAX and CPA all run the same inner loop: recompute the
//! critical path of the PTG under the current allocation, pick a
//! critical-path task, tentatively grow its allocation and re-check the
//! critical path / area balance. Written naively (as the procedures read in
//! the paper) every step performs two full temporal analyses, and every
//! analysis re-evaluates the Amdahl cost model — including a `powf` per
//! task — and allocates five fresh vectors.
//!
//! [`AllocScratch`] removes all of that from the loop while keeping the
//! results *bit-identical* to `mcsched_ptg::analysis::analyze` with zero
//! edge costs:
//!
//! * per-task execution times and areas are cached and only refreshed for
//!   the one task whose allocation changed — the cached value comes from
//!   the same pure function call the analysis closure would make;
//! * top/bottom levels live in reusable buffers; the passes use only `max`
//!   and `+`, which are order-insensitive here, so the values match the
//!   allocating implementation bit for bit (edge costs are identically
//!   zero during allocation, and `x + 0.0` only differs from `x` for
//!   `x = -0.0`, which cannot arise from non-negative times);
//! * the constraint check needs the critical-path *length* only, so the
//!   witness path is walked once per outer iteration, and that walk also
//!   picks the best grant candidate from a cached per-task gain (one load
//!   per path task); the path is scanned again only after a candidate is
//!   frozen.

use super::{RefAllocation, ReferencePlatform};
use mcsched_ptg::{Ptg, TaskId};

/// Reusable per-PTG state for one allocation run.
///
/// The graph is flattened into CSR-style adjacency arrays (preserving the
/// iteration order of `Ptg::preds` / `Ptg::succs` and of the topological
/// order, so tie-breaking is unchanged) — the level passes then run over
/// contiguous `u32` index arrays instead of chasing per-node vectors.
#[derive(Debug, Clone)]
pub(crate) struct AllocScratch {
    /// Execution time of each task under the current allocation.
    pub times: Vec<f64>,
    /// Execution time of each task with one extra processor.
    pub next_times: Vec<f64>,
    /// Area of each task under the current allocation.
    pub areas: Vec<f64>,
    /// What one more processor saves a grant candidate:
    /// `times[t] - next_times[t]` while `t` is below `max_procs`, and 0
    /// once it is capped or [frozen](AllocScratch::freeze), so that a
    /// positive (or NaN) gain alone marks a candidate.
    gain: Vec<f64>,
    /// The single-cluster bound on a task's allocation.
    max_procs: usize,
    top: Vec<f64>,
    bottom: Vec<f64>,
    /// Cached `top[t] + times[t]` — the one quantity the forward pass and
    /// the upward witness walk read for every predecessor. Maintaining it
    /// alongside `top` halves the scattered loads of the hottest loop.
    finish: Vec<f64>,
    /// Witness critical path of the latest [`AllocScratch::witness_path`].
    pub path: Vec<TaskId>,
    /// Sequential time of each task at the reference speed. The cost-model
    /// evaluation (`flops()`, a `powf` for matrix-product tasks) happens
    /// once here; [`AllocScratch::refresh`] then applies the same Amdahl
    /// expression as `DataParallelTask::parallel_time` to this cached value.
    seq: Vec<f64>,
    alpha: Vec<f64>,
    speed: f64,
    topo: Vec<u32>,
    /// Position of each task in `topo`.
    pos: Vec<u32>,
    /// Per-task "recompute me" flags used by the incremental sweeps (the
    /// fallback for graphs with more than 64 tasks).
    dirty: Vec<bool>,
    /// For graphs of at most 64 tasks: bit `pos[s]` set for every successor
    /// `s` of the task. The sweep frontier is then a single `u64` — seeding
    /// is one OR and the next dirty node is one `trailing_zeros` — instead
    /// of per-flag bookkeeping plus a linear scan of the topological order.
    succ_pos_mask: Vec<u64>,
    /// Same for predecessors (bit `pos[p]` per predecessor `p`).
    pred_pos_mask: Vec<u64>,
    pred_off: Vec<u32>,
    preds: Vec<u32>,
    succ_off: Vec<u32>,
    succs: Vec<u32>,
}

impl AllocScratch {
    /// Initializes the caches for the one-processor-per-task allocation.
    pub fn new(reference: &ReferencePlatform, ptg: &Ptg) -> Self {
        let n = ptg.num_tasks();
        let mut pred_off = Vec::with_capacity(n + 1);
        let mut preds = Vec::with_capacity(ptg.num_edges());
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succs = Vec::with_capacity(ptg.num_edges());
        pred_off.push(0);
        succ_off.push(0);
        for t in 0..n {
            preds.extend(ptg.preds(t).iter().map(|&(p, _)| p as u32));
            pred_off.push(preds.len() as u32);
            succs.extend(ptg.succs(t).iter().map(|&(s, _)| s as u32));
            succ_off.push(succs.len() as u32);
        }
        let mut s = Self {
            times: vec![0.0; n],
            next_times: vec![0.0; n],
            areas: vec![0.0; n],
            gain: vec![0.0; n],
            max_procs: reference.max_task_procs(),
            top: vec![0.0; n],
            bottom: vec![0.0; n],
            finish: vec![0.0; n],
            path: Vec::new(),
            seq: (0..n)
                .map(|t| ptg.task(t).sequential_time(reference.speed()))
                .collect(),
            alpha: (0..n).map(|t| ptg.task(t).alpha()).collect(),
            speed: reference.speed(),
            topo: ptg.topological_order().iter().map(|&t| t as u32).collect(),
            pos: vec![0; n],
            dirty: vec![false; n],
            succ_pos_mask: Vec::new(),
            pred_pos_mask: Vec::new(),
            pred_off,
            preds,
            succ_off,
            succs,
        };
        for (i, &t) in s.topo.iter().enumerate() {
            s.pos[t as usize] = i as u32;
        }
        if n <= 64 {
            s.succ_pos_mask = (0..n)
                .map(|t| {
                    s.succs_of(t)
                        .iter()
                        .fold(0u64, |m, &x| m | 1u64 << s.pos[x as usize])
                })
                .collect();
            s.pred_pos_mask = (0..n)
                .map(|t| {
                    s.preds_of(t)
                        .iter()
                        .fold(0u64, |m, &x| m | 1u64 << s.pos[x as usize])
                })
                .collect();
        }
        for t in 0..n {
            s.refresh(t, 1);
        }
        s.full_levels();
        s
    }

    /// Execution time of task `t` on `p ≥ 1` reference processors —
    /// `DataParallelTask::parallel_time` evaluated over the cached
    /// sequential time (bit-identical: same expression, same inputs).
    fn time(&self, t: TaskId, p: usize) -> f64 {
        self.seq[t] * (self.alpha[t] + (1.0 - self.alpha[t]) / p as f64)
    }

    /// Refreshes the cached time/area of `t` after its allocation changed.
    fn refresh(&mut self, t: TaskId, procs: usize) {
        self.times[t] = self.time(t, procs);
        self.next_times[t] = self.time(t, procs + 1);
        self.areas[t] = self.times[t] * procs as f64 * self.speed;
        self.gain[t] = if procs < self.max_procs {
            self.times[t] - self.next_times[t]
        } else {
            0.0
        };
    }

    /// Removes `t` from the grant candidates until its allocation changes
    /// again: a grant that violated the constraint freezes its task.
    pub fn freeze(&mut self, t: TaskId) {
        self.gain[t] = 0.0;
    }

    /// `best` with `t` considered: the larger gain by `total_cmp`, then the
    /// lower task id. A gain of at most 0 is not a candidate; a NaN gain is.
    #[inline]
    fn pick(&self, best: Option<(f64, TaskId)>, t: TaskId) -> Option<(f64, TaskId)> {
        let gain = self.gain[t];
        if gain <= 0.0 {
            return best;
        }
        match best {
            Some((bg, bt)) if gain.total_cmp(&bg).then(bt.cmp(&t)).is_le() => best,
            _ => Some((gain, t)),
        }
    }

    fn preds_of(&self, t: usize) -> &[u32] {
        &self.preds[self.pred_off[t] as usize..self.pred_off[t + 1] as usize]
    }

    fn succs_of(&self, t: usize) -> &[u32] {
        &self.succs[self.succ_off[t] as usize..self.succ_off[t + 1] as usize]
    }

    fn recompute_top(&mut self, t: usize) -> f64 {
        let mut best: f64 = 0.0;
        for &p in &self.preds[self.pred_off[t] as usize..self.pred_off[t + 1] as usize] {
            best = best.max(self.finish[p as usize]);
        }
        self.top[t] = best;
        self.finish[t] = best + self.times[t];
        best
    }

    fn recompute_bottom(&mut self, t: usize) -> f64 {
        let mut best: f64 = 0.0;
        for &s in &self.succs[self.succ_off[t] as usize..self.succ_off[t + 1] as usize] {
            best = best.max(self.bottom[s as usize]);
        }
        let b = self.times[t] + best;
        self.bottom[t] = b;
        b
    }

    /// Full forward/backward level passes under the cached times.
    fn full_levels(&mut self) {
        for i in 0..self.topo.len() {
            let t = self.topo[i] as usize;
            self.recompute_top(t);
        }
        for i in (0..self.topo.len()).rev() {
            let t = self.topo[i] as usize;
            self.recompute_bottom(t);
        }
    }

    /// Updates the cached times/areas of `t` for its new allocation and
    /// repairs the level arrays incrementally: only the descendant cone of
    /// `t` can see a different top level and only `t` and its ancestor cone
    /// a different bottom level. A node whose recomputed value is bitwise
    /// unchanged stops the propagation — unchanged inputs can only produce
    /// unchanged outputs downstream, so the repaired arrays are bit-identical
    /// to what the full passes would compute.
    pub fn set_procs(&mut self, t: TaskId, procs: usize) {
        self.refresh(t, procs);
        // `top[t]` is unaffected by `t`'s own allocation, but the cached
        // finish time reads the new execution time.
        self.finish[t] = self.top[t] + self.times[t];
        if !self.succ_pos_mask.is_empty() {
            // Bitmask frontier (n ≤ 64): dirty topological positions live in
            // one word. The forward sweep consumes them in ascending order
            // (`trailing_zeros`), the backward sweep in descending order
            // (`leading_zeros`) — exactly the processing order of the
            // flag-based sweeps below, so the repaired values are identical.
            // A propagated bit is always on the far side of the bit being
            // cleared (edges advance in topological order), so no position
            // is ever processed twice.
            let mut mask = self.succ_pos_mask[t];
            while mask != 0 {
                let u = self.topo[mask.trailing_zeros() as usize] as usize;
                mask &= mask - 1;
                let old = self.top[u];
                if self.recompute_top(u).to_bits() != old.to_bits() {
                    mask |= self.succ_pos_mask[u];
                }
            }
            let old = self.bottom[t];
            if self.recompute_bottom(t).to_bits() != old.to_bits() {
                let mut mask = self.pred_pos_mask[t];
                while mask != 0 {
                    let i = 63 - mask.leading_zeros() as usize;
                    let u = self.topo[i] as usize;
                    mask &= !(1u64 << i);
                    let old = self.bottom[u];
                    if self.recompute_bottom(u).to_bits() != old.to_bits() {
                        mask |= self.pred_pos_mask[u];
                    }
                }
            }
            return;
        }
        let n = self.topo.len();
        let pt = self.pos[t] as usize;
        // `pending` counts the dirty flags currently set, so each sweep can
        // stop as soon as the propagation frontier dies out instead of
        // scanning the rest of the topological order.
        let mut pending = 0usize;
        // Forward: the contribution `top[t] + times[t]` changed.
        for j in self.succ_off[t]..self.succ_off[t + 1] {
            let s = self.succs[j as usize] as usize;
            if !self.dirty[s] {
                self.dirty[s] = true;
                pending += 1;
            }
        }
        for i in pt + 1..n {
            if pending == 0 {
                break;
            }
            let u = self.topo[i] as usize;
            if !self.dirty[u] {
                continue;
            }
            self.dirty[u] = false;
            pending -= 1;
            let old = self.top[u];
            if self.recompute_top(u).to_bits() != old.to_bits() {
                for j in self.succ_off[u]..self.succ_off[u + 1] {
                    let s = self.succs[j as usize] as usize;
                    if !self.dirty[s] {
                        self.dirty[s] = true;
                        pending += 1;
                    }
                }
            }
        }
        // Backward: `bottom[t]` changed with `times[t]`.
        let old = self.bottom[t];
        if self.recompute_bottom(t).to_bits() != old.to_bits() {
            for j in self.pred_off[t]..self.pred_off[t + 1] {
                let p = self.preds[j as usize] as usize;
                if !self.dirty[p] {
                    self.dirty[p] = true;
                    pending += 1;
                }
            }
            for i in (0..pt).rev() {
                if pending == 0 {
                    break;
                }
                let u = self.topo[i] as usize;
                if !self.dirty[u] {
                    continue;
                }
                self.dirty[u] = false;
                pending -= 1;
                let old = self.bottom[u];
                if self.recompute_bottom(u).to_bits() != old.to_bits() {
                    for j in self.pred_off[u]..self.pred_off[u + 1] {
                        let p = self.preds[j as usize] as usize;
                        if !self.dirty[p] {
                            self.dirty[p] = true;
                            pending += 1;
                        }
                    }
                }
            }
        }
    }

    /// Sets every task's allocation at once and rebuilds the levels with the
    /// full passes: the same values, bit for bit, as
    /// [`AllocScratch::set_procs`] task by task, in one pass.
    pub fn set_all(&mut self, alloc: &RefAllocation) {
        for t in 0..self.times.len() {
            self.refresh(t, alloc.procs_of(t));
        }
        self.full_levels();
    }

    /// Critical-path length and its arg-max task under the current levels
    /// (same scan order — hence same tie-breaking — as the full analysis).
    pub fn cp(&self) -> (f64, TaskId) {
        let mut cp_len: f64 = 0.0;
        let mut cp_entry = 0usize;
        for t in 0..self.times.len() {
            let l = self.top[t] + self.bottom[t];
            if l > cp_len {
                cp_len = l;
                cp_entry = t;
            }
        }
        (cp_len, cp_entry)
    }

    /// Total area of the PTG under the current allocation, summed in task
    /// order (the same order — hence the same rounding — as the naive sum).
    /// Kept as the executable spec of the area half of
    /// [`AllocScratch::cp_and_area`], which the procedures call instead.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn total_area(&self) -> f64 {
        self.areas.iter().sum()
    }

    /// Fused [`AllocScratch::cp`] + [`AllocScratch::total_area`]: one pass
    /// over the task arrays instead of two. Same scan order (hence the same
    /// arg-max tie-breaking) and the same left-to-right area sum (hence the
    /// same rounding), so the results are bit-identical to the separate
    /// calls. SCRAP needs all three values after every tentative grant, and
    /// grants number in the thousands per β=1 allocation.
    pub fn cp_and_area(&self) -> (f64, TaskId, f64) {
        let mut cp_len: f64 = 0.0;
        let mut cp_entry = 0usize;
        let mut area: f64 = 0.0;
        for t in 0..self.times.len() {
            let l = self.top[t] + self.bottom[t];
            if l > cp_len {
                cp_len = l;
                cp_entry = t;
            }
            area += self.areas[t];
        }
        (cp_len, cp_entry, area)
    }

    /// Rebuilds the witness critical path into [`AllocScratch::path`],
    /// replicating the walk of `mcsched_ptg::analysis::analyze` (with zero
    /// edge costs) exactly, and returns its best grant candidate (the one
    /// [`AllocScratch::best_on_path`] would return). Requires the levels
    /// for the current times and their arg-max task, which
    /// [`AllocScratch::cp`] and [`AllocScratch::cp_and_area`] return.
    pub fn witness_path(&mut self, cp_entry: TaskId) -> Option<TaskId> {
        let mut start = cp_entry;
        loop {
            let target = self.top[start];
            let eps = 1e-9 * target.max(1.0);
            let mut better = None;
            for &p in self.preds_of(start) {
                let p = p as usize;
                if (self.finish[p] - target).abs() <= eps {
                    better = Some(p);
                    break;
                }
            }
            match better {
                Some(p) if target > 0.0 => start = p,
                _ => break,
            }
        }
        self.path.clear();
        self.path.push(start);
        let mut best = self.pick(None, start);
        let mut cur = start;
        loop {
            let target = self.bottom[cur] - self.times[cur];
            let eps = 1e-9 * self.bottom[cur].max(1.0);
            let mut next = None;
            for &s in self.succs_of(cur) {
                let s = s as usize;
                if (self.bottom[s] - target).abs() <= eps {
                    next = Some(s);
                    break;
                }
            }
            match next {
                Some(s) => {
                    self.path.push(s);
                    best = self.pick(best, s);
                    cur = s;
                }
                None => break,
            }
        }
        best.map(|(_, t)| t)
    }

    /// The best grant candidate on [`AllocScratch::path`]: the task with
    /// the largest gain, then the lowest id, among those whose gain is
    /// positive or NaN.
    pub fn best_on_path(&self) -> Option<TaskId> {
        self.path
            .iter()
            .fold(None, |best, &t| self.pick(best, t))
            .map(|(_, t)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::RefAllocation;
    use mcsched_ptg::analysis::analyze;
    use mcsched_ptg::{CostModel, DataParallelTask, PtgBuilder};

    fn reference(procs: usize) -> ReferencePlatform {
        ReferencePlatform::from_parts(1.0e9, procs, procs)
    }

    fn diamond() -> Ptg {
        let mut b = PtgBuilder::new("d");
        for i in 0..4 {
            b.add_task(DataParallelTask::new(
                format!("t{i}"),
                (20.0 + 7.0 * i as f64) * 1.0e6,
                CostModel::MatrixProduct,
                0.08,
            ));
        }
        b.add_data_edge(0, 1);
        b.add_data_edge(0, 2);
        b.add_data_edge(1, 3);
        b.add_data_edge(2, 3);
        b.build().unwrap()
    }

    #[test]
    fn matches_analyze_bit_for_bit() {
        let r = reference(32);
        let g = diamond();
        let mut alloc = RefAllocation::one_per_task(4);
        alloc.add_proc(1);
        alloc.add_proc(1);
        alloc.add_proc(3);
        let mut s = AllocScratch::new(&r, &g);
        for t in g.task_ids() {
            s.set_procs(t, alloc.procs_of(t));
        }
        let (cp, entry) = s.cp();
        s.witness_path(entry);
        let a = analyze(&g, |t| r.task_time(&g, t, alloc.procs_of(t)), |_| 0.0);
        assert_eq!(cp.to_bits(), a.critical_path_length.to_bits());
        assert_eq!(s.path, a.critical_path);
        for t in g.task_ids() {
            assert_eq!(s.top[t].to_bits(), a.top_levels[t].to_bits());
            assert_eq!(s.bottom[t].to_bits(), a.bottom_levels[t].to_bits());
        }
    }

    #[test]
    fn fused_scan_matches_separate_calls_bit_for_bit() {
        let r = reference(32);
        let g = diamond();
        let mut s = AllocScratch::new(&r, &g);
        for (t, procs) in [(1usize, 3usize), (3, 2), (0, 4)] {
            s.set_procs(t, procs);
            let (cp, entry, area) = s.cp_and_area();
            let (cp2, entry2) = s.cp();
            assert_eq!(cp.to_bits(), cp2.to_bits());
            assert_eq!(entry, entry2);
            assert_eq!(area.to_bits(), s.total_area().to_bits());
        }
    }

    #[test]
    fn refresh_tracks_allocation_changes() {
        let r = reference(16);
        let g = diamond();
        let mut s = AllocScratch::new(&r, &g);
        assert_eq!(s.times[2].to_bits(), r.task_time(&g, 2, 1).to_bits());
        s.set_procs(2, 5);
        assert_eq!(s.times[2].to_bits(), r.task_time(&g, 2, 5).to_bits());
        assert_eq!(s.next_times[2].to_bits(), r.task_time(&g, 2, 6).to_bits());
        assert_eq!(s.areas[2].to_bits(), r.task_area(&g, 2, 5).to_bits());
    }

    /// Random DAG of 12 tasks whose Amdahl fractions include 0 and 1 (a
    /// task that gains nothing from one more processor).
    fn random_graph(next: &mut impl FnMut(u64) -> u64) -> Ptg {
        let mut b = PtgBuilder::new("r");
        for i in 0..12 {
            let alpha = [0.0, 0.05, 0.3, 1.0][next(4) as usize];
            let data = (1.0 + next(50) as f64) * 1.0e6;
            b.add_task(DataParallelTask::new(
                format!("t{i}"),
                data,
                CostModel::MatrixProduct,
                alpha,
            ));
            for p in 0..i {
                if next(4) == 0 {
                    b.add_data_edge(p, i);
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn gain_cache_and_pick_track_allocation_and_freezes() {
        let r = reference(6);
        let mut seed = 0x6A1Au64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        for case in 0..20 {
            let g = random_graph(&mut next);
            let n = g.num_tasks();
            let mut s = AllocScratch::new(&r, &g);
            let mut alloc = RefAllocation::one_per_task(n);
            let mut frozen = vec![false; n];
            for step in 0..200 {
                let t = next(n as u64) as usize;
                match next(10) {
                    0..=5 => {
                        let procs = 1 + next(r.max_task_procs() as u64) as usize;
                        alloc = RefAllocation::from_counts(
                            (0..n)
                                .map(|u| if u == t { procs } else { alloc.procs_of(u) })
                                .collect(),
                        );
                        s.set_procs(t, procs);
                        frozen[t] = false;
                    }
                    6..=8 => {
                        s.freeze(t);
                        frozen[t] = true;
                    }
                    _ => {
                        s.set_all(&alloc);
                        frozen.fill(false);
                    }
                }
                let context = format!("case {case} step {step}");
                for (u, &frozen) in frozen.iter().enumerate() {
                    let open = !frozen && alloc.procs_of(u) < r.max_task_procs();
                    let expected = if open {
                        s.times[u] - s.next_times[u]
                    } else {
                        0.0
                    };
                    assert_eq!(
                        s.gain[u].to_bits(),
                        expected.to_bits(),
                        "{context} task {u}"
                    );
                }
                let (_, entry) = s.cp();
                let pick = s.witness_path(entry);
                // The candidate scan as the grant loop wrote it before the
                // gain cache.
                let mut best: Option<(f64, usize)> = None;
                for &u in &s.path {
                    if frozen[u] || alloc.procs_of(u) >= r.max_task_procs() {
                        continue;
                    }
                    let gain = s.times[u] - s.next_times[u];
                    if gain <= 0.0 {
                        continue;
                    }
                    best = match best {
                        Some((bg, bt)) if gain.total_cmp(&bg).then(bt.cmp(&u)).is_le() => {
                            Some((bg, bt))
                        }
                        _ => Some((gain, u)),
                    };
                }
                assert_eq!(pick, best.map(|(_, u)| u), "{context}");
                assert_eq!(s.best_on_path(), pick, "{context}");
            }
        }
    }
}
