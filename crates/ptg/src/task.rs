//! Moldable data-parallel task model.
//!
//! A task operates on a dataset of `d` double-precision elements. Its
//! sequential cost in floating-point operations is given by a
//! [`CostModel`], and its parallel execution time on `p` processors of speed
//! `s` flop/s follows Amdahl's law with a non-parallelizable fraction `α`:
//!
//! ```text
//! T(v, p) = (flops(v) / s) · (α + (1 − α) / p)
//! ```

use serde::{Deserialize, Serialize};

/// Computational complexity of a data-parallel task, as a function of the
/// dataset size `d` (number of double-precision elements).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CostModel {
    /// `a · d` operations — e.g. a stencil sweep over a `√d × √d` domain,
    /// repeated `a` times.
    Linear {
        /// Iteration multiplier `a` (the paper draws it in `[2^6, 2^9]`).
        a: f64,
    },
    /// `a · d · log2 d` operations — e.g. sorting an array of `d` elements.
    LogLinear {
        /// Iteration multiplier `a` (the paper draws it in `[2^6, 2^9]`).
        a: f64,
    },
    /// `d^{3/2}` operations — e.g. multiplying two `√d × √d` matrices.
    MatrixProduct,
}

impl CostModel {
    /// Number of floating point operations for a dataset of `d` elements.
    pub fn flops(&self, d: f64) -> f64 {
        match *self {
            CostModel::Linear { a } => a * d,
            CostModel::LogLinear { a } => a * d * d.log2(),
            CostModel::MatrixProduct => d.powf(1.5),
        }
    }

    /// Short human-readable label (used by DOT export and reports).
    pub fn label(&self) -> &'static str {
        match self {
            CostModel::Linear { .. } => "a*d",
            CostModel::LogLinear { .. } => "a*d*log(d)",
            CostModel::MatrixProduct => "d^1.5",
        }
    }
}

/// A moldable data-parallel task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataParallelTask {
    name: String,
    data_elems: f64,
    cost: CostModel,
    alpha: f64,
}

impl DataParallelTask {
    /// Creates a new task.
    ///
    /// * `name` — task label.
    /// * `data_elems` — dataset size `d` in double-precision elements.
    /// * `cost` — computational complexity model.
    /// * `alpha` — Amdahl non-parallelizable fraction, in `[0, 1]`.
    pub fn new(name: impl Into<String>, data_elems: f64, cost: CostModel, alpha: f64) -> Self {
        Self {
            name: name.into(),
            data_elems,
            cost,
            alpha,
        }
    }

    /// A zero-cost task, useful as virtual entry/exit node.
    pub fn zero(name: impl Into<String>) -> Self {
        Self::new(name, 0.0, CostModel::Linear { a: 0.0 }, 0.0)
    }

    /// Task label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dataset size `d` (double-precision elements).
    pub fn data_elems(&self) -> f64 {
        self.data_elems
    }

    /// Amdahl non-parallelizable fraction `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Cost model of the task.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Sequential cost in floating-point operations.
    pub fn flops(&self) -> f64 {
        if self.data_elems <= 0.0 {
            0.0
        } else {
            self.cost.flops(self.data_elems)
        }
    }

    /// Size in bytes of the task's output dataset (`8·d`), i.e. the volume
    /// carried by each outgoing edge unless overridden.
    pub fn output_bytes(&self) -> f64 {
        crate::BYTES_PER_ELEMENT * self.data_elems.max(0.0)
    }

    /// Sequential execution time on one processor of speed `speed` flop/s.
    pub fn sequential_time(&self, speed: f64) -> f64 {
        self.flops() / speed
    }

    /// Parallel execution time on `p` processors of speed `speed` flop/s,
    /// following the Amdahl model of the paper.
    ///
    /// `p = 0` is treated as "not allocated" and returns infinity so that
    /// such configurations never look attractive to the allocator.
    pub fn parallel_time(&self, p: usize, speed: f64) -> f64 {
        if p == 0 {
            return f64::INFINITY;
        }
        let seq = self.sequential_time(speed);
        seq * (self.alpha + (1.0 - self.alpha) / p as f64)
    }

    /// The *area* (resource consumption) of the task on `p` processors of
    /// speed `speed`: execution time × processing power used, in flop.
    ///
    /// Areas are what the SCRAP procedure sums up to detect violations of the
    /// resource constraint.
    pub fn area(&self, p: usize, speed: f64) -> f64 {
        if p == 0 {
            return 0.0;
        }
        self.parallel_time(p, speed) * (p as f64) * speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GF: f64 = 1.0e9;

    #[test]
    fn linear_cost() {
        let m = CostModel::Linear { a: 100.0 };
        assert!((m.flops(1.0e6) - 1.0e8).abs() < 1.0);
    }

    #[test]
    fn loglinear_cost() {
        let m = CostModel::LogLinear { a: 2.0 };
        let d = 1024.0;
        assert!((m.flops(d) - 2.0 * d * 10.0).abs() < 1e-6);
    }

    #[test]
    fn matrix_cost() {
        let m = CostModel::MatrixProduct;
        // d = 10^6 => (10^6)^1.5 = 10^9
        assert!((m.flops(1.0e6) - 1.0e9).abs() < 1.0);
    }

    #[test]
    fn amdahl_perfect_when_alpha_zero() {
        let t = DataParallelTask::new("t", 1.0e6, CostModel::MatrixProduct, 0.0);
        let t1 = t.parallel_time(1, GF);
        let t4 = t.parallel_time(4, GF);
        assert!((t1 / t4 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn amdahl_saturates_with_alpha() {
        let t = DataParallelTask::new("t", 1.0e6, CostModel::MatrixProduct, 0.25);
        let t1 = t.parallel_time(1, GF);
        let tinf = t.parallel_time(1_000_000, GF);
        // limit is alpha * seq
        assert!((tinf / t1 - 0.25).abs() < 1e-3);
    }

    #[test]
    fn parallel_time_monotonically_decreases() {
        let t = DataParallelTask::new("t", 4.0e6, CostModel::Linear { a: 300.0 }, 0.1);
        let mut prev = t.parallel_time(1, GF);
        for p in 2..=64 {
            let cur = t.parallel_time(p, GF);
            assert!(cur <= prev + 1e-12, "time must not increase with p");
            prev = cur;
        }
    }

    #[test]
    fn zero_procs_is_infinite() {
        let t = DataParallelTask::new("t", 4.0e6, CostModel::MatrixProduct, 0.1);
        assert!(t.parallel_time(0, GF).is_infinite());
        assert_eq!(t.area(0, GF), 0.0);
    }

    #[test]
    fn area_grows_with_processors_under_amdahl() {
        // With alpha > 0 the area strictly grows with p (wasted cycles).
        let t = DataParallelTask::new("t", 4.0e6, CostModel::MatrixProduct, 0.2);
        assert!(t.area(2, GF) > t.area(1, GF));
        assert!(t.area(16, GF) > t.area(2, GF));
    }

    #[test]
    fn area_constant_when_fully_parallel() {
        let t = DataParallelTask::new("t", 4.0e6, CostModel::MatrixProduct, 0.0);
        assert!((t.area(1, GF) - t.area(8, GF)).abs() < 1e-3);
    }

    #[test]
    fn marginal_gain_non_negative_and_decreasing() {
        let t = DataParallelTask::new("t", 9.0e6, CostModel::MatrixProduct, 0.15);
        // The time saved by the (p + 1)-th processor.
        let marginal_gain = |p| t.parallel_time(p, GF) - t.parallel_time(p + 1, GF);
        let mut prev = marginal_gain(1);
        assert!(prev >= 0.0);
        for p in 2..32 {
            let g = marginal_gain(p);
            assert!(g >= 0.0);
            assert!(g <= prev + 1e-12, "diminishing returns expected");
            prev = g;
        }
    }

    #[test]
    fn efficiency_bounds() {
        let t = DataParallelTask::new("t", 9.0e6, CostModel::MatrixProduct, 0.15);
        // Parallel efficiency: speedup divided by `p`.
        let efficiency = |p: usize| t.sequential_time(GF) / t.parallel_time(p, GF) / p as f64;
        for p in 1..32 {
            let e = efficiency(p);
            assert!(e > 0.0 && e <= 1.0 + 1e-12);
        }
        assert!((efficiency(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn output_bytes_is_8d() {
        let t = DataParallelTask::new("t", 5.0e6, CostModel::MatrixProduct, 0.0);
        assert!((t.output_bytes() - 4.0e7).abs() < 1e-6);
    }

    #[test]
    fn zero_task_has_no_cost() {
        let z = DataParallelTask::zero("entry");
        assert_eq!(z.flops(), 0.0);
        assert_eq!(z.output_bytes(), 0.0);
        assert_eq!(z.parallel_time(3, GF), 0.0);
    }
}
