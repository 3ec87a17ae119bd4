//! The parallel task graph (PTG) data structure.

use crate::error::PtgError;
use crate::task::DataParallelTask;
use serde::{Deserialize, Serialize};

/// Index of a task within a [`Ptg`].
pub type TaskId = usize;

/// Index of an edge within a [`Ptg`].
pub type EdgeId = usize;

/// A precedence/communication edge between two tasks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Producing task.
    pub src: TaskId,
    /// Consuming task.
    pub dst: TaskId,
    /// Amount of data transferred, in bytes.
    pub bytes: f64,
}

/// A parallel task graph: a DAG of moldable data-parallel tasks.
///
/// The structure is immutable once built (use [`PtgBuilder`]); the
/// predecessors and successors of every task (two compressed sparse rows of
/// `(task, edge)` items, each task's in edge order) and a topological order
/// are precomputed at build time so that the scheduler's inner loops never
/// re-derive them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ptg {
    name: String,
    tasks: Vec<DataParallelTask>,
    edges: Vec<Edge>,
    preds: Csr,
    succs: Csr,
    topo_order: Vec<TaskId>,
}

/// One direction of the adjacency in compressed sparse row form: the items
/// of task `t` are `items[offsets[t]..offsets[t + 1]]`, in edge order.
#[derive(Debug, Clone, PartialEq)]
struct Csr {
    offsets: Vec<usize>,
    items: Vec<(TaskId, EdgeId)>,
}

impl Csr {
    /// Groups `edges` under task `ends(edge).0` by a counting sort; each
    /// item names the task `ends(edge).1` and the edge's index.
    fn new(n: usize, edges: &[Edge], ends: impl Fn(&Edge) -> (TaskId, TaskId)) -> Self {
        let mut offsets = vec![0; n + 1];
        for e in edges {
            offsets[ends(e).0 + 1] += 1;
        }
        for t in 0..n {
            offsets[t + 1] += offsets[t];
        }
        let mut next = offsets[..n].to_vec();
        let mut items = vec![(0, 0); edges.len()];
        for (eid, e) in edges.iter().enumerate() {
            let (row, other) = ends(e);
            items[next[row]] = (other, eid);
            next[row] += 1;
        }
        Self { offsets, items }
    }

    fn row(&self, t: TaskId) -> &[(TaskId, EdgeId)] {
        &self.items[self.offsets[t]..self.offsets[t + 1]]
    }
}

impl Ptg {
    /// Name of the application.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The tasks, indexed by [`TaskId`].
    pub fn tasks(&self) -> &[DataParallelTask] {
        &self.tasks
    }

    /// A task by index.
    pub fn task(&self, id: TaskId) -> &DataParallelTask {
        &self.tasks[id]
    }

    /// The edges, indexed by [`EdgeId`].
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// An edge by index.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id]
    }

    /// Predecessors of a task, as `(task, edge)` pairs.
    pub fn preds(&self, id: TaskId) -> &[(TaskId, EdgeId)] {
        self.preds.row(id)
    }

    /// Successors of a task, as `(task, edge)` pairs.
    pub fn succs(&self, id: TaskId) -> &[(TaskId, EdgeId)] {
        self.succs.row(id)
    }

    /// Tasks without predecessors (entry tasks).
    pub fn entries(&self) -> Vec<TaskId> {
        (0..self.num_tasks())
            .filter(|&t| self.preds(t).is_empty())
            .collect()
    }

    /// Tasks without successors (exit tasks).
    pub fn exits(&self) -> Vec<TaskId> {
        (0..self.num_tasks())
            .filter(|&t| self.succs(t).is_empty())
            .collect()
    }

    /// A topological order of the tasks (entry tasks first).
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo_order
    }

    /// Total amount of work of the PTG in floating-point operations
    /// (the `work` characteristic of the PS/WPS strategies).
    pub fn total_work(&self) -> f64 {
        self.tasks.iter().map(DataParallelTask::flops).sum()
    }

    /// Total number of bytes carried by the edges.
    pub fn total_communication(&self) -> f64 {
        self.edges.iter().map(|e| e.bytes).sum()
    }

    /// Iterator over task identifiers.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        0..self.tasks.len()
    }
}

/// Incremental builder for [`Ptg`] values; validates the graph on
/// [`PtgBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct PtgBuilder {
    name: String,
    tasks: Vec<DataParallelTask>,
    edges: Vec<Edge>,
}

impl PtgBuilder {
    /// Starts building a PTG with the given application name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tasks: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a task and returns its identifier.
    pub fn add_task(&mut self, task: DataParallelTask) -> TaskId {
        self.tasks.push(task);
        self.tasks.len() - 1
    }

    /// Adds an edge carrying `bytes` bytes from `src` to `dst`.
    pub fn add_edge(&mut self, src: TaskId, dst: TaskId, bytes: f64) -> &mut Self {
        self.edges.push(Edge { src, dst, bytes });
        self
    }

    /// Adds an edge whose volume is the producing task's output size (`8·d`
    /// bytes), the default of the paper's model.
    pub fn add_data_edge(&mut self, src: TaskId, dst: TaskId) -> &mut Self {
        let bytes = self
            .tasks
            .get(src)
            .map(DataParallelTask::output_bytes)
            .unwrap_or(0.0);
        self.add_edge(src, dst, bytes)
    }

    /// Number of tasks added so far.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// The edges added so far (in insertion order).
    pub fn edges_slice(&self) -> &[Edge] {
        &self.edges
    }

    /// The tasks added so far (in insertion order).
    pub fn tasks_slice(&self) -> &[DataParallelTask] {
        &self.tasks
    }

    /// Validates the graph (non-empty, indices in range, no self-loop, no
    /// duplicate edge, acyclic) and freezes it into a [`Ptg`].
    ///
    /// # Errors
    ///
    /// Returns the corresponding [`PtgError`] when a validation rule fails.
    pub fn build(self) -> Result<Ptg, PtgError> {
        let n = self.tasks.len();
        if n == 0 {
            return Err(PtgError::Empty);
        }
        // Each edge is checked for an unknown task, then a self-loop, then
        // a repeat of an earlier edge, and the first failing edge is
        // reported. Repeats are found by scanning the successor rows of the
        // edges before the first malformed one.
        let malformed = self.edges.iter().enumerate().find_map(|(eid, e)| {
            let error = if let Some(&index) = [e.src, e.dst].iter().find(|&&t| t >= n) {
                PtgError::UnknownTask { index, tasks: n }
            } else if e.src == e.dst {
                PtgError::SelfLoop { task: e.src }
            } else {
                return None;
            };
            Some((eid, error))
        });
        let valid = malformed.as_ref().map_or(self.edges.len(), |(eid, _)| *eid);
        let succs = Csr::new(n, &self.edges[..valid], |e| (e.src, e.dst));
        let mut last_src = vec![usize::MAX; n];
        let mut repeat = valid;
        for src in 0..n {
            for &(dst, eid) in succs.row(src) {
                if last_src[dst] == src {
                    repeat = repeat.min(eid);
                }
                last_src[dst] = src;
            }
        }
        if repeat < valid {
            let e = &self.edges[repeat];
            return Err(PtgError::DuplicateEdge {
                src: e.src,
                dst: e.dst,
            });
        }
        if let Some((_, error)) = malformed {
            return Err(error);
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if !t.data_elems().is_finite() || t.data_elems() < 0.0 {
                return Err(PtgError::InvalidTask {
                    task: i,
                    reason: format!(
                        "dataset size {} is not a finite non-negative value",
                        t.data_elems()
                    ),
                });
            }
            if !(0.0..=1.0).contains(&t.alpha()) {
                return Err(PtgError::InvalidTask {
                    task: i,
                    reason: format!("Amdahl fraction {} outside [0, 1]", t.alpha()),
                });
            }
        }

        let preds = Csr::new(n, &self.edges, |e| (e.dst, e.src));

        // Kahn's algorithm to produce a topological order and detect cycles.
        let mut indeg: Vec<usize> = (0..n).map(|t| preds.row(t).len()).collect();
        let mut topo: Vec<TaskId> = (0..n).filter(|&t| indeg[t] == 0).collect();
        let mut head = 0;
        while head < topo.len() {
            let t = topo[head];
            head += 1;
            for &(s, _) in succs.row(t) {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    topo.push(s);
                }
            }
        }
        if topo.len() != n {
            return Err(PtgError::Cyclic);
        }

        Ok(Ptg {
            name: self.name,
            tasks: self.tasks,
            edges: self.edges,
            preds,
            succs,
            topo_order: topo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::CostModel;

    fn task(name: &str) -> DataParallelTask {
        DataParallelTask::new(name, 4.0e6, CostModel::MatrixProduct, 0.1)
    }

    fn diamond() -> Ptg {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = PtgBuilder::new("diamond");
        for i in 0..4 {
            b.add_task(task(&format!("t{i}")));
        }
        b.add_data_edge(0, 1);
        b.add_data_edge(0, 2);
        b.add_data_edge(1, 3);
        b.add_data_edge(2, 3);
        b.build().unwrap()
    }

    #[test]
    fn diamond_structure() {
        let g = diamond();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.entries(), vec![0]);
        assert_eq!(g.exits(), vec![3]);
        assert_eq!(g.preds(3).len(), 2);
        assert_eq!(g.succs(0).len(), 2);
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = diamond();
        let order = g.topological_order();
        let pos: Vec<usize> = (0..4)
            .map(|t| order.iter().position(|&x| x == t).unwrap())
            .collect();
        for e in g.edges() {
            assert!(pos[e.src] < pos[e.dst]);
        }
    }

    #[test]
    fn cycles_are_rejected() {
        let mut b = PtgBuilder::new("cyc");
        b.add_task(task("a"));
        b.add_task(task("b"));
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 1.0);
        assert_eq!(b.build().unwrap_err(), PtgError::Cyclic);
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut b = PtgBuilder::new("loop");
        b.add_task(task("a"));
        b.add_edge(0, 0, 1.0);
        assert!(matches!(b.build(), Err(PtgError::SelfLoop { task: 0 })));
    }

    #[test]
    fn empty_graph_is_rejected() {
        assert_eq!(PtgBuilder::new("e").build().unwrap_err(), PtgError::Empty);
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let mut b = PtgBuilder::new("x");
        b.add_task(task("a"));
        b.add_edge(0, 5, 1.0);
        assert!(matches!(
            b.build(),
            Err(PtgError::UnknownTask { index: 5, .. })
        ));
    }

    #[test]
    fn duplicate_edge_is_rejected() {
        let mut b = PtgBuilder::new("x");
        b.add_task(task("a"));
        b.add_task(task("b"));
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 1, 2.0);
        assert!(matches!(b.build(), Err(PtgError::DuplicateEdge { .. })));
    }

    #[test]
    fn the_first_failing_edge_is_reported() {
        // Per edge the checks run unknown task, self-loop, duplicate; the
        // first edge that fails one decides the error.
        let build = |edges: &[(TaskId, TaskId)]| {
            let mut b = PtgBuilder::new("x");
            b.add_task(task("a"));
            b.add_task(task("b"));
            for &(src, dst) in edges {
                b.add_edge(src, dst, 1.0);
            }
            b.build().unwrap_err()
        };
        let duplicate = |src, dst| PtgError::DuplicateEdge { src, dst };
        let unknown = PtgError::UnknownTask { index: 7, tasks: 2 };
        assert_eq!(build(&[(0, 1), (0, 1), (1, 1)]), duplicate(0, 1));
        assert_eq!(
            build(&[(0, 1), (1, 1), (0, 1)]),
            PtgError::SelfLoop { task: 1 }
        );
        assert_eq!(build(&[(0, 1), (7, 7), (0, 1)]), unknown);
        assert_eq!(
            build(&[(0, 1), (1, 1), (0, 7)]),
            PtgError::SelfLoop { task: 1 }
        );
        assert_eq!(build(&[(0, 1), (0, 1), (0, 7)]), duplicate(0, 1));
        // The earliest repeat wins, whichever row it sits in.
        assert_eq!(build(&[(0, 1), (1, 0), (1, 0), (0, 1)]), duplicate(1, 0));
    }

    /// Checks `g`'s rows against adjacency rebuilt from `edges()` as one
    /// list per task in edge order, and its entries, exits and topological
    /// order against those derived from the lists (Kahn's algorithm, queue
    /// seeded in task order).
    fn assert_rows_match_edge_lists(g: &Ptg) {
        let n = g.num_tasks();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for (eid, e) in g.edges().iter().enumerate() {
            succs[e.src].push((e.dst, eid));
            preds[e.dst].push((e.src, eid));
        }
        for t in 0..n {
            assert_eq!(g.preds(t), preds[t], "{}: preds of {t}", g.name());
            assert_eq!(g.succs(t), succs[t], "{}: succs of {t}", g.name());
        }
        let entries: Vec<TaskId> = (0..n).filter(|&t| preds[t].is_empty()).collect();
        let exits: Vec<TaskId> = (0..n).filter(|&t| succs[t].is_empty()).collect();
        assert_eq!(g.entries(), entries, "{}", g.name());
        assert_eq!(g.exits(), exits, "{}", g.name());
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut order = entries;
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
        assert_eq!(g.topological_order(), order, "{}", g.name());
    }

    #[test]
    fn rows_match_the_edge_lists_on_generated_graphs() {
        use crate::gen::{fft_ptg, random_ptg, strassen_ptg, RandomPtgConfig};
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xC52);
        for (i, cfg) in RandomPtgConfig::paper_grid().iter().enumerate() {
            assert_rows_match_edge_lists(&random_ptg(cfg, &mut rng, format!("random-{i}")));
        }
        for points in [2, 4, 8, 16, 32] {
            assert_rows_match_edge_lists(&fft_ptg(points, &mut rng, format!("fft-{points}")));
        }
        for i in 0..4 {
            assert_rows_match_edge_lists(&strassen_ptg(&mut rng, format!("strassen-{i}")));
        }
        // Forward edges in a shuffled order, so no row is contiguous in the
        // edge list.
        for i in 0..20 {
            let n = rng.gen_range(2..40);
            let mut b = PtgBuilder::new(format!("shuffled-{i}"));
            for t in 0..n {
                b.add_task(task(&format!("t{t}")));
            }
            let mut pairs: Vec<(TaskId, TaskId)> = (0..n)
                .flat_map(|src| (src + 1..n).map(move |dst| (src, dst)))
                .filter(|_| rng.gen_bool(0.3))
                .collect();
            for k in (1..pairs.len()).rev() {
                pairs.swap(k, rng.gen_range(0..=k));
            }
            for (src, dst) in pairs {
                b.add_edge(src, dst, 1.0);
            }
            assert_rows_match_edge_lists(&b.build().unwrap());
        }
    }

    #[test]
    fn invalid_alpha_is_rejected() {
        let mut b = PtgBuilder::new("x");
        b.add_task(DataParallelTask::new(
            "a",
            4.0e6,
            CostModel::MatrixProduct,
            1.5,
        ));
        assert!(matches!(b.build(), Err(PtgError::InvalidTask { .. })));
    }

    #[test]
    fn data_edge_uses_producer_output() {
        let g = diamond();
        let bytes = g.task(0).output_bytes();
        assert!((g.edge(0).bytes - bytes).abs() < 1e-9);
    }

    #[test]
    fn total_work_sums_flops() {
        let g = diamond();
        let expected: f64 = g.tasks().iter().map(|t| t.flops()).sum();
        assert!((g.total_work() - expected).abs() < 1e-6);
    }

    #[test]
    fn total_communication_sums_bytes() {
        let g = diamond();
        let expected: f64 = g.edges().iter().map(|e| e.bytes).sum();
        assert!((g.total_communication() - expected).abs() < 1e-9);
    }

    #[test]
    fn single_task_graph_is_valid() {
        let mut b = PtgBuilder::new("single");
        b.add_task(task("only"));
        let g = b.build().unwrap();
        assert_eq!(g.entries(), vec![0]);
        assert_eq!(g.exits(), vec![0]);
        assert_eq!(g.topological_order(), &[0]);
    }
}
