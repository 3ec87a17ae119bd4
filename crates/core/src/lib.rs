//! # mcsched-core
//!
//! The paper's primary contribution: concurrent two-step scheduling of
//! parallel task graphs (PTGs) on heterogeneous multi-cluster platforms
//! under **constrained resource allocations**.
//!
//! The pipeline, for a set `A` of PTGs submitted together:
//!
//! 1. a [`policy::ConstraintPolicy`] computes a resource constraint
//!    `β_i` for every PTG — the fraction of the platform's total processing
//!    power its schedule may use (strategies `S`, `ES`, `PS-*`, `WPS-*`);
//! 2. an [`allocation`] procedure (SCRAP or SCRAP-MAX) decides how many
//!    *reference processors* every task gets without violating `β_i`;
//! 3. the [`mapping`] step — a ready-task list scheduler with allocation
//!    packing — places the allocated tasks of all PTGs onto concrete
//!    processor sets of the platform;
//! 4. the resulting schedule is executed by the `mcsched-simx` engine, and
//!    [`metrics`] turns the observed per-application makespans into the
//!    paper's **slowdown / unfairness / relative makespan** figures.
//!
//! The [`scheduler::ConcurrentScheduler`] type drives the whole pipeline
//! through a [`context::ScheduleContext`], which holds the platform views
//! and the dedicated-platform baselines of one scenario so that comparing
//! many strategies never repeats a dedicated simulation.
//!
//! Each of the three steps is a pluggable, object-safe [`policy`] trait
//! ([`policy::ConstraintPolicy`], [`policy::AllocationPolicy`],
//! [`policy::MappingPolicy`]); the paper's strategies are concrete policy
//! types resolvable by name through a [`policy::PolicyRegistry`], and
//! user-defined policies registered there run through the identical
//! pipeline. A [`scheduler::SchedulerConfig`] holds one resolved policy per
//! step. Work is submitted as a [`workload::Workload`] (batch or timed
//! releases), schedulers are assembled from a configuration or with a
//! [`scheduler::SchedulerBuilder`], and every fallible entry point returns a
//! typed [`error::SchedError`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod allocation;
pub mod constraint;
pub mod context;
pub mod error;
pub mod mapping;
pub mod metrics;
pub mod policy;
pub mod scheduler;
pub mod workload;

pub use allocation::{DedicatedAllocation, RefAllocation, ReferencePlatform};
pub use constraint::{Characteristic, ConstraintStrategy};
pub use context::ScheduleContext;
pub use error::{PolicyKind, SchedError};
pub use mapping::{MappingConfig, OrderingMode, Schedule};
pub use metrics::{average_slowdown, slowdown, unfairness};
pub use policy::{
    AllocationPolicy, ConstraintPolicy, MappingPolicy, MappingRequest, PolicyRegistry,
};
pub use scheduler::{
    ConcurrentRun, ConcurrentScheduler, EvaluatedRun, SchedulerBuilder, SchedulerConfig,
};
pub use workload::Workload;

// The JSON codec lives in `mcsched-obs`. Re-exported here only so that
// `mcsched_workload::json` keeps resolving without a new workload → obs
// dependency edge; new code imports `mcsched_obs::json`.
pub use mcsched_obs::json;
