//! # mcsched-runtime
//!
//! The execution runtime under the experiment harness: how campaign work
//! *runs*, as opposed to what it computes. Three pillars:
//!
//! * [`pool`] — one scoped fan-out: [`run_indexed`] runs `f(0..count)` on
//!   the caller plus `threads − 1` scoped workers that claim indices from
//!   one counter, returns results by input index, never by completion
//!   order, so campaign output is byte-identical at any worker count, and
//!   runs a nested fan-out inline on its caller's thread;
//! * [`digest`] — stable 128-bit FNV-1a/SplitMix64 content digests
//!   identifying each evaluated cell by *what determines its result*
//!   (workload spec + seed, platform, pipeline configuration, policy
//!   `cache_key()`, code-version salt [`CACHE_SALT`]), one state at a
//!   time ([`DigestBuilder`]) or four in lockstep ([`DigestLanes`]);
//! * [`cache`] — the content-addressed [`CellCache`]: an in-memory layer
//!   plus an on-disk JSON shard store (atomic-rename flushes, corruption-
//!   and salt-tolerant loads) that lets re-runs skip every already-computed
//!   cell and lets interrupted campaigns resume from completed shards,
//!   while keeping warm-run output byte-identical to cold runs (floats are
//!   stored as shortest-round-trip raw tokens).
//!
//! [`progress::Progress`] adds the coarse `--progress` narration campaigns
//! print on stderr.
//!
//! The crate is deliberately independent of the scheduler: it knows about
//! threads, hashes and files, not about PTGs or platforms. `mcsched-exp`
//! composes the digests and drives the fan-out; this keeps the runtime
//! reusable for any future embarrassingly-parallel tier (calibration
//! sweeps, benchmark harnesses, trace validation).
//!
//! ## When is serving a cell from cache safe?
//!
//! Exactly when every input that can influence the cell's metrics is part
//! of its digest. The digest composed by `mcsched-exp` covers the workload
//! source spec (which pins generator parameters *and* arrival processes),
//! the request seed/count/label, the platform name, the allocation +
//! mapping configuration, and the policy's parameter-carrying
//! `cache_key()`. What it cannot see is a change to the *code* that turns
//! those inputs into metrics — that is what [`CACHE_SALT`] is for: bump it
//! in any PR that intentionally changes scheduling or simulation output,
//! and every existing cache directory misses cleanly.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod digest;
pub mod pool;
pub mod progress;

pub use cache::{merge_cache_dirs, CellCache, CellMetrics, MergeError, MergeReport};
pub use digest::{CellDigest, DigestBuilder, DigestFields, DigestLanes, CACHE_SALT};
pub use pool::{pool_for, resolve_threads, run_indexed};
pub use progress::Progress;
