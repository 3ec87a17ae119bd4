//! The five workloads, the interface the measurement loop drives them
//! through, and their scales.
//!
//! | name | one iteration | op |
//! |---|---|---|
//! | `daggen-paper` | the Fig-3 grid, 1 thread | a cell |
//! | `daggen-paper-2t` | the same grid on two pool threads | a cell |
//! | `fft32-dense` | ten `fft@points=32` PTGs per scenario, 1 thread | a cell |
//! | `cache-merge-replay` | merge three shard caches, replay the grid warm | the iteration |
//! | `online-steady` | one online run of a Poisson stream on lille | an arriving job |
//!
//! A cell is one (scenario, policy) evaluation. Iteration `k` of a run
//! draws its inputs from [`iteration_seed`], so a run averages over several
//! draws; `cache-merge-replay` replays the one cache its set-up filled.

use crate::campaign::CampaignBench;
use crate::online::OnlineBench;
use crate::replay::ReplayBench;
use crate::span::Tracer;
use mcsched_core::ConstraintStrategy;
use std::path::Path;

/// Workload names, in the order of `BENCHMARK.json`.
pub const NAMES: [&str; 5] = [
    "daggen-paper",
    "daggen-paper-2t",
    "fft32-dense",
    "cache-merge-replay",
    "online-steady",
];

/// What one iteration did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, produced non-finite metrics or failed a
    /// correctness gate.
    pub failed: u64,
    /// Operations completed (the numerator of `ops_per_s`): attempted minus
    /// failed, except that a shed online job is neither.
    pub completed: u64,
    /// Wall time of the measured work, in seconds (clean-up excluded).
    pub wall_s: f64,
}

impl Tally {
    /// A tally of `attempted` operations of which `failed` failed.
    #[must_use]
    pub fn of(attempted: u64, failed: u64, wall_s: f64) -> Self {
        Self {
            attempted,
            failed,
            completed: attempted - failed,
            wall_s,
        }
    }
}

/// One benchmark workload. The measurement loop calls `setup` once, then
/// `run(k)` for k = 0, 1, …; in a traced run each `run(k)` is followed by
/// `run_traced`, which repeats the iteration through per-layer calls and
/// checks its output against the untraced one.
pub trait Workload {
    /// Worker threads of the untraced iterations.
    fn threads(&self) -> usize;

    /// Prepares what the iterations need — at least the first iteration's
    /// inputs, drawn from the seed — returning one wall time (seconds) per
    /// repetition of the set-up work.
    ///
    /// # Errors
    ///
    /// Any failure of the scheduler's API.
    fn setup(&mut self) -> Result<Vec<f64>, String>;

    /// Runs untraced iteration `k`.
    ///
    /// # Errors
    ///
    /// Any failure of the scheduler's API.
    fn run(&mut self, k: u64) -> Result<Tally, String>;

    /// Repeats the iteration under `tracer`. Its operations fail where the
    /// output differs from the untraced `run` just before.
    ///
    /// # Errors
    ///
    /// Any failure of the scheduler's API.
    fn run_traced(&mut self, tracer: &Tracer) -> Result<Tally, String>;

    /// Digest of the last iteration's rendered output (figure table or job
    /// CSV): equal digests mean byte-identical output.
    fn output_digest(&self) -> String;

    /// Workload-specific per-layer values of iteration 0, by metric name.
    fn extras(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Where a campaign grid's applications come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inputs {
    /// The paper's DAGGEN parameter grid, drawn like `daggen-grid` except
    /// that the task count cycles through 10, 20 and 50.
    StratifiedDaggen,
    /// A workload-catalog spec.
    Spec(&'static str),
}

/// A campaign grid: its applications, PTG counts, combinations per count
/// (each paired with the four Grid'5000 sites) and strategies.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Where the applications come from.
    pub inputs: Inputs,
    /// Numbers of concurrent PTGs.
    pub ptg_counts: Vec<usize>,
    /// Combinations per PTG count.
    pub combinations: usize,
    /// Constraint strategies compared.
    pub strategies: Vec<ConstraintStrategy>,
}

/// The Fig-3 grid: PTG counts 2–10, the 8-strategy paper set and 5
/// combinations, 800 cells per iteration. The paper's 25 combinations take
/// about 10 s at one thread; a run of five iterations draws as many cells.
#[must_use]
pub fn daggen_grid(smoke: bool) -> Grid {
    Grid {
        inputs: Inputs::StratifiedDaggen,
        ptg_counts: if smoke {
            vec![2, 4]
        } else {
            vec![2, 4, 6, 8, 10]
        },
        combinations: if smoke { 1 } else { 5 },
        strategies: ConstraintStrategy::paper_set(),
    }
}

/// Ten dense FFT graphs per scenario, one combination: 32 cells,
/// simulation-bound.
#[must_use]
pub fn fft_grid(smoke: bool) -> Grid {
    Grid {
        inputs: Inputs::Spec("fft@points=32"),
        ptg_counts: vec![if smoke { 2 } else { 10 }],
        combinations: 1,
        strategies: ConstraintStrategy::paper_set_fft(),
    }
}

/// The seed of iteration `k`'s inputs: iteration 0 uses `seed` itself.
#[must_use]
pub fn iteration_seed(seed: u64, k: u64) -> u64 {
    mcsched_exp::replication_seed(seed, usize::try_from(k).unwrap_or(usize::MAX))
}

/// Builds workload `name`. The second value is set when the host cannot
/// run the workload as specified (a two-thread workload on one core): its
/// numbers are then not evidence of what it measures.
///
/// # Errors
///
/// An unknown name, or a spec that does not resolve.
pub fn build(
    name: &str,
    seed: u64,
    smoke: bool,
    work: &Path,
) -> Result<(Box<dyn Workload>, Option<String>), String> {
    let two = crate::host::two_threads();
    let unresolved = (two < 2).then(|| format!("{name} needs 2 cores, ran on 1"));
    Ok(match name {
        "daggen-paper" => (
            Box::new(CampaignBench::new(&daggen_grid(smoke), seed, 1)?),
            None,
        ),
        "daggen-paper-2t" => (
            Box::new(CampaignBench::new(&daggen_grid(smoke), seed, two)?),
            unresolved,
        ),
        "fft32-dense" => (
            Box::new(CampaignBench::new(&fft_grid(smoke), seed, 1)?),
            None,
        ),
        "cache-merge-replay" => (
            Box::new(ReplayBench::new(&daggen_grid(smoke), seed, two, work)?),
            unresolved,
        ),
        "online-steady" => (
            Box::new(OnlineBench::new(seed, if smoke { 40 } else { 2000 })?),
            None,
        ),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                NAMES.join(", ")
            ))
        }
    })
}
