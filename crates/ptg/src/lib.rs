//! # mcsched-ptg
//!
//! Parallel Task Graph (PTG) model for mixed-parallel applications, following
//! Section 2 of N'Takpé & Suter (INRIA RR-6774 / IPDPS 2009).
//!
//! A PTG is a DAG whose nodes are **moldable data-parallel tasks** and whose
//! edges carry the amount of data (bytes) exchanged between tasks. Each task
//! operates on a dataset of `d` double-precision elements and has one of
//! three computational complexities (`a·d`, `a·d·log d`, `d^3/2`); its
//! parallel execution time on `p` processors follows **Amdahl's law** with a
//! non-parallelizable fraction `α` drawn uniformly in `[0, 0.25]`.
//!
//! The crate provides:
//!
//! * the task and graph data structures ([`task`], [`graph`]);
//! * cost-model evaluation ([`task::CostModel`], [`task::DataParallelTask`]);
//! * structural and temporal graph analysis — precedence levels, widths,
//!   bottom levels, critical path, total work ([`analysis`]);
//! * the three PTG generators used in the paper's evaluation — random
//!   "workflow-like" DAGs parameterised by width/regularity/density/jumps,
//!   FFT graphs and Strassen graphs ([`gen`]).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
pub mod error;
pub mod gen;
pub mod graph;
pub mod task;

pub use analysis::{GraphAnalysis, StructuralInfo};
pub use error::PtgError;
pub use graph::{Edge, EdgeId, Ptg, PtgBuilder, TaskId};
pub use task::{CostModel, DataParallelTask};

/// Number of bytes per double-precision element (the paper's datasets are
/// matrices/arrays of doubles, transferred as `8·d` bytes).
pub const BYTES_PER_ELEMENT: f64 = 8.0;

/// Lower bound on the dataset size `d` used by the paper's generators
/// (4 million elements).
pub const MIN_DATA_ELEMS: f64 = 4.0e6;

/// Upper bound on the dataset size `d` used by the paper's generators
/// (121 million elements, i.e. ≤ 1 GByte of doubles per processor).
pub const MAX_DATA_ELEMS: f64 = 121.0e6;
