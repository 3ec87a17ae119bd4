//! # mcsched-workload
//!
//! Everything *upstream* of the scheduler: workload generation, arrival
//! processes and replayable traces. The crate owns the production of
//! [`mcsched_core::Workload`] values so that campaigns, benchmarks and user
//! programs all draw their concurrent applications through one
//! name-resolvable interface (mirroring the policy registry of
//! `mcsched-core`).
//!
//! ## Modules
//!
//! * [`daggen`] — a faithful DAGGEN-style random-DAG generator parameterised
//!   like the generation program used by the paper's authors (see the
//!   parameter mapping below);
//! * [`calibration`] — width-distribution statistics comparing the DAGGEN
//!   generator, the legacy `mcsched_ptg::gen::random` generator and the
//!   paper's nominal widths, closing the ROADMAP fidelity item;
//! * [`arrival`] — seeded arrival processes (batch, Poisson, uniform,
//!   bursty) producing deterministic per-application release times;
//! * [`source`] — the [`WorkloadSource`] trait and the built-in generator
//!   sources;
//! * [`stream`] — lazy unbounded [`stream::JobStream`]s splitting arrival
//!   timing from on-demand graph materialisation, the bounded-memory feed
//!   of the online scheduler;
//! * [`catalog`] — the [`WorkloadCatalog`] resolving spec strings such as
//!   `daggen@n=50,width=0.5` or `poisson@lambda=0.1` into sources;
//! * [`trace`] — JSON export/import of complete workloads (graphs, costs,
//!   release times and seed provenance) so campaigns are replayable and
//!   shareable.
//!
//! ## Parameter mapping to the paper's generator
//!
//! The paper (conf_ipps_NTakpeS09, Section 2) generates its synthetic PTGs
//! with the authors' DAG generation program (DAGGEN). The table below maps
//! every knob of [`daggen::DaggenConfig`] to the corresponding parameter of
//! that program:
//!
//! | `DaggenConfig` field | paper / DAGGEN parameter | semantics |
//! |----------------------|--------------------------|-----------|
//! | `num_tasks`          | `n` (10, 20, 50)         | number of data-parallel tasks |
//! | `fat`                | `fat` / *width* (0.2, 0.5, 0.8) | mean tasks per precedence level is `fat · √n` |
//! | `regularity`         | `regular` (0.2, 0.8)     | level sizes drawn uniformly in `[r·w̄, (2−r)·w̄]` |
//! | `density`            | `density` (0.2, 0.8)     | extra parents per task: up to `density · (window − 1)` |
//! | `jump`               | `jump` (1, 2, 4)         | parents may come from the `jump` previous levels |
//! | `ccr`                | `ccr`                    | edge bytes are `ccr · 8 · d` (1 = the paper's `8·d`) |
//! | `cost_scenario`      | complexity scenarios     | `a·d`, `a·d·log d`, `d^{3/2}` or mixed |
//!
//! The crucial fidelity difference with the legacy
//! [`mcsched_ptg::gen::random`] generator: DAGGEN's mean level width is
//! `fat · √n`, while the legacy generator uses `n^width`. For `n = 50` and
//! the paper's width values this yields mean widths of 1.4/3.5/5.7
//! (DAGGEN) versus 2.2/7.1/22.9 (legacy) — the legacy DAGs are much wider,
//! which distorts the width-proportional (`PS-width`/`WPS-width`) and
//! work-proportional fairness orderings of Figures 2 and 3. The
//! [`calibration`] module quantifies this gap.
//!
//! ## Quick start
//!
//! ```
//! use mcsched_workload::{WorkloadCatalog, WorkloadRequest};
//!
//! let catalog = WorkloadCatalog::builtin();
//! let source = catalog.resolve("daggen@n=20,width=0.5/poisson@lambda=0.01").unwrap();
//! let workload = source
//!     .generate(&WorkloadRequest::new(42, 4, "demo"))
//!     .unwrap();
//! assert_eq!(workload.len(), 4);
//! assert!(!workload.is_batch()); // Poisson arrivals → timed releases
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod arrival;
pub mod calibration;
pub mod catalog;
pub mod daggen;
pub mod source;
pub mod stream;
pub mod trace;

pub use arrival::ArrivalProcess;
pub use calibration::{compare_paper_widths, width_report, WidthComparison, WidthReport};
pub use catalog::WorkloadCatalog;
pub use daggen::{daggen_ptg, DaggenConfig};
pub use source::{AppGenerator, GeneratorSource, WorkloadRequest, WorkloadSource};
pub use stream::{Arrival, GeneratorStream, JobStream, StreamRequest};
pub use trace::{Trace, TraceEntry, TraceSource};

// The JSON codec lives in `mcsched_obs::json`. This alias, reached through
// `mcsched-core` (which already depends on obs), serves the traces below
// and the `mcsched-benchmark` package's imports without a new dependency
// edge.
pub use mcsched_core::json;
