//! # mcsched — concurrent scheduling of parallel task graphs on multi-clusters
//!
//! A reproduction, as a reusable Rust library, of N'Takpé & Suter,
//! *Concurrent Scheduling of Parallel Task Graphs on Multi-Clusters Using
//! Constrained Resource Allocations* (INRIA RR-6774, IPDPS 2009).
//!
//! This façade crate re-exports the workspace crates under a single name and
//! offers a [`prelude`] with the types most programs need:
//!
//! * [`platform`] — heterogeneous multi-cluster platform model and the
//!   Grid'5000 subsets of Table 1;
//! * [`ptg`] — parallel task graph model, moldable-task cost model and the
//!   random/FFT/Strassen generators;
//! * [`simx`] — discrete-event simulation engine (space-shared processors,
//!   max-min fair link sharing);
//! * [`core`] — constrained allocation (SCRAP/SCRAP-MAX), the β-determination
//!   strategies (S, ES, PS-*, WPS-*), the ready-task mapping procedure and
//!   the fairness metrics;
//! * [`workload`] — workload generation upstream of the scheduler: the
//!   DAGGEN-calibrated random-DAG generator, arrival processes, the
//!   spec-resolvable [`workload::WorkloadCatalog`] and replayable JSON
//!   traces;
//! * [`stats`] — paired-replication statistics downstream of the scheduler:
//!   streaming summaries, seeded bootstrap confidence intervals, sign-test
//!   ordering verdicts and a seeded property-test harness;
//! * [`runtime`] — the execution runtime under the harness: a scoped
//!   fan-out (deterministic index order, nested calls inline, panic
//!   propagation) and the content-addressed cell cache behind
//!   `--cache-dir`/resume;
//! * [`online`] — the event-driven online scheduling service: streamed
//!   arrivals, admission control with backpressure, and open-system
//!   metrics (response, stretch, shed rate) over the same pipeline;
//! * [`obs`] — observability across all of the above: span-based structured
//!   tracing (zero-cost when off), the named-metrics registry, per-phase
//!   profiling, the virtual-time series recorder and the Chrome-trace /
//!   JSONL / metrics exporters behind the binaries' `--obs-*` flags;
//! * [`exp`] — the experiment harness regenerating every table and figure of
//!   the paper's evaluation.
//!
//! ## Quick start
//!
//! A [`core::ScheduleContext`] runs one [`core::SchedulerConfig`] (a
//! constraint, an allocation and a mapping policy, picked by name from the
//! [`core::policy::PolicyRegistry`] or given as trait objects) on one
//! scenario, submitted as a [`core::Workload`] or a borrowed PTG slice:
//!
//! ```
//! use mcsched::prelude::*;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! // A Grid'5000 site and three random applications submitted together.
//! let platform = grid5000::lille();
//! let mut rng = ChaCha8Rng::seed_from_u64(42);
//! let apps: Vec<Ptg> = (0..3)
//!     .map(|i| PtgClass::Random.sample(&mut rng, format!("app{i}")))
//!     .collect();
//!
//! // Schedule them with the paper's recommended WPS-width strategy.
//! let registry = PolicyRegistry::builtin();
//! let config = SchedulerConfig {
//!     constraint: registry.constraint("wps-width@0.5").unwrap(),
//!     allocation: registry.allocation("scrap-max").unwrap(),
//!     ..SchedulerConfig::default()
//! };
//! let workload = Workload::batch(apps).with_label("quickstart");
//! let evaluation = ScheduleContext::for_workload(&platform, &workload, config)
//!     .evaluate()
//!     .unwrap();
//! assert_eq!(evaluation.fairness.slowdowns.len(), 3);
//! assert!(evaluation.global_makespan > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use mcsched_core as core;
pub use mcsched_exp as exp;
pub use mcsched_obs as obs;
pub use mcsched_online as online;
pub use mcsched_platform as platform;
pub use mcsched_ptg as ptg;
pub use mcsched_runtime as runtime;
pub use mcsched_simx as simx;
pub use mcsched_stats as stats;
pub use mcsched_workload as workload;

/// The most commonly used items, re-exported for `use mcsched::prelude::*`.
pub mod prelude {
    pub use mcsched_core::{
        AllocationPolicy, Characteristic, ConcurrentRun, ConstraintPolicy, ConstraintStrategy,
        EvaluatedRun, MappingConfig, MappingPolicy, MappingRequest, OrderingMode, PolicyKind,
        PolicyRegistry, RefAllocation, ReferencePlatform, SchedError, Schedule, ScheduleContext,
        SchedulerConfig, Workload,
    };
    pub use mcsched_exp::CampaignConfig;
    pub use mcsched_online::{
        AdmissionPolicy, OnlineConfig, OnlineReport, OnlineScheduler, ReschedulePolicy,
    };
    pub use mcsched_platform::{
        grid5000, Cluster, NetworkTopology, Platform, PlatformBuilder, ProcSet,
    };
    pub use mcsched_ptg::gen::{
        fft_ptg, random_ptg, strassen_ptg, CostScenario, PtgClass, RandomPtgConfig,
    };
    pub use mcsched_ptg::{CostModel, DataParallelTask, Ptg, PtgBuilder};
    pub use mcsched_simx::{Engine, ExecutionTrace, SimJob, SimWorkload};
    pub use mcsched_stats::{
        BootstrapConfig, Ci, OrderingVerdict, PairedSamples, QuickCheck, Samples, Summary,
    };
    pub use mcsched_workload::{
        AppGenerator, ArrivalProcess, DaggenConfig, GeneratorSource, Trace, TraceSource,
        WorkloadCatalog, WorkloadRequest, WorkloadSource,
    };
}
