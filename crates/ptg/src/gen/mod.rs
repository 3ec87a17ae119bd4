//! PTG generators used in the paper's evaluation.
//!
//! Three application classes are considered:
//!
//! * [`random`] — synthetic "workflow-like" DAGs of 10, 20 or 50 tasks whose
//!   shape is controlled by four parameters (width, regularity, density,
//!   jumps). It follows the paper's description of the authors' DAG
//!   generation program but not its level widths (see the fidelity caveat
//!   of [`random`]): prefer the calibrated DAGGEN-style generator of the
//!   `mcsched-workload` crate (`daggen-grid` spec) when reproducing the
//!   paper's random-PTG figures;
//! * [`fft`] — Fast Fourier Transform task graphs (regular, limited task
//!   parallelism, 15/39/95 tasks for 4/8/16-point transforms);
//! * [`strassen`] — Strassen matrix multiplication task graphs (25 tasks,
//!   fixed shape and maximal width of 10).
//!
//! The `mcsched-workload` crate's `AppGenerator` names and samples the
//! classes.

pub mod fft;
pub mod random;
pub mod strassen;

pub use fft::fft_ptg;
pub use random::{random_ptg, CostScenario, RandomPtgConfig};
pub use strassen::strassen_ptg;
