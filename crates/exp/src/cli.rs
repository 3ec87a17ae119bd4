//! The command line of `mcsched-exp`: `mcsched-exp <command> [flags]`.
//!
//! The command comes first, then its flags. A command is one experiment of
//! the paper's evaluation or one of the three fleet tools (`merge`,
//! `obs-merge`, `top`). Each flag is accepted only by the commands it
//! applies to; an unknown command, an unknown flag or a flag the command
//! would ignore is an error (exit status 2) naming the culprit. Only the
//! fleet tools take positional directories. `mcsched-exp --help` (or `-h`)
//! as the only argument prints the usage and exits 0.
//!
//! Every experiment and `merge` take the observability flags:
//!
//! * `--profile` — print per-phase wall-clock timings (workload generation,
//!   β + allocation, mapping, simulation, statistics) to stderr at the end
//!   of the run (equivalent to setting `MCSCHED_PROFILE=1`). The timings
//!   are the run's span durations summed by name, aggregated across worker
//!   threads; without a trace export only those sums are kept, so memory
//!   stays bounded;
//! * `--obs-trace PATH` — enable structured tracing and write the span
//!   timeline as Chrome-trace JSON (loadable in Perfetto /
//!   `chrome://tracing`) at the end of the run;
//! * `--obs-journal PATH` — enable tracing and write the deterministic
//!   JSONL event journal (no timestamps or thread ids; byte-identical
//!   across reruns of one configuration);
//! * `--obs-metrics PATH` — write the metrics-registry snapshot (counters,
//!   gauges, histograms) as an aligned table, or CSV when `PATH` ends in
//!   `.csv`;
//! * `--obs-dir PATH` — fleet observability: write a
//!   `run-<shard>.manifest.json` + heartbeat into `PATH` while the run is
//!   active (refreshed per completed data point) and the per-shard
//!   deterministic journal + metrics JSON exports at the end. All shards of
//!   a fleet share one directory; `top` renders the live aggregate view
//!   and `obs-merge` unions the finished exports;
//! * `--quiet` — silence informational stderr lines (progress, cache
//!   summaries, profile output); genuine warnings still print.
//!
//! Each `--obs-*`/`--quiet` flag has an environment equivalent
//! (`MCSCHED_OBS_TRACE`, `MCSCHED_OBS_JOURNAL`, `MCSCHED_OBS_METRICS`,
//! `MCSCHED_OBS_DIR`, `MCSCHED_QUIET`; flags win) — see
//! [`mcsched_obs::ObsOptions`].
//!
//! `table1` and `fig1` take nothing else. The campaign experiments (`fig2`
//! to `fig5`, `ablation-scrap`, `ablation-packing`) take:
//!
//! * `--full` — run the paper's full configuration (25 combinations,
//!   2/4/6/8/10 PTGs); without it a reduced "quick" configuration is used so
//!   that runs finish in seconds;
//! * `--combinations N` — override the number of random combinations;
//! * `--ptgs a,b,c` — override the list of concurrent-PTG counts;
//! * `--strategies a,b,c` (not `fig2`, whose policies are its µ grid) —
//!   compare only the named constraint policies, resolved through the
//!   built-in [`PolicyRegistry`] (e.g. `--strategies es,wps-work@0.5`);
//! * `--allocation NAME` (not `ablation-scrap`, which compares allocation
//!   procedures) — override the allocation procedure by name (e.g.
//!   `--allocation scrap`);
//! * `--workload SPEC` — override the workload source with a spec resolved
//!   through the [`WorkloadCatalog`] (e.g. `daggen@n=50,width=0.5`,
//!   `random/poisson@lambda=0.1`);
//! * `--trace PATH` — replay the workloads recorded in a trace file instead
//!   of generating them (see `--export-trace`);
//! * `--export-trace PATH` — write every workload the run would consume as
//!   a replayable JSON trace to `PATH`;
//! * `--replications N` — number of paired replications (at least 1; `0`
//!   is an error here and for `online`): the whole grid is
//!   redrawn `N` times on deterministically derived seeds (common random
//!   numbers within each replication); with `N > 1` the tables print
//!   `mean ±ci` cells instead of bare means. A replayed `--trace` holds one
//!   fixed workload per combination, so `--replications > 1` would only
//!   duplicate the same draws and fabricate precision — the combination is
//!   clamped to one replication with a warning;
//! * `--ci LEVEL` — confidence level of the bootstrap intervals (default
//!   0.95), e.g. `--ci 0.99`;
//! * `--threads N` — number of worker threads (0 = all cores);
//! * `--seed S` — base random seed;
//! * `--csv PATH` (figures only) — also write the raw results as CSV to
//!   `PATH`;
//! * `--cache-dir PATH` — persist every evaluated (scenario, policy) cell
//!   in the content-addressed cell cache at `PATH` (see `mcsched-runtime`):
//!   re-runs with overlapping cells skip finished work byte-identically and
//!   interrupted runs resume from completed shards;
//! * `--no-resume` — clear the cache directory instead of serving from it
//!   (escape hatch for a cache suspected stale);
//! * `--shard i/N` — evaluate only partition `i` of a deterministic `N`-way
//!   split of the scenarios (scenario digest modulo `N`, any `N`): the
//!   sharded-run half of a multi-process campaign. All cells of a scenario
//!   go to one shard, so the fleet computes each dedicated baseline once.
//!   Each of the `N` processes points its own `--cache-dir` at a separate
//!   directory; afterwards `merge` unions the directories and a final warm
//!   unsharded run renders tables byte-identical to a single-process run
//!   (a sharded run's own tables contain NaN placeholders for the cells it
//!   skipped). Every shard of one fleet must run the same build;
//! * `--progress` — narrate one stderr line per completed data point.
//!
//! `online` streams PTG arrivals through the event-driven online scheduler
//! and takes:
//!
//! * `--workload SPEC` — catalog spec (default
//!   `daggen@n=20/poisson@lambda=0.02`);
//! * `--platform NAME` — `lille` (default), `nancy`, `rennes` or `sophia`;
//! * `--jobs N` / `--duration SECS` — observation window (whichever closes
//!   the stream first; 200 jobs by default);
//! * `--queue-cap N` / `--in-flight N` — admission bounds;
//! * `--reschedule P` — `on-arrival`, `on-completion` or `quantum=SECS`;
//! * `--admission P` — `drop-newest` or `drop-oldest`;
//! * `--strategies a,b,c` — constraint policies resolved through the
//!   built-in [`PolicyRegistry`], as for the figures (`es` by default; e.g.
//!   `--strategies s,es,wps-work@0.5`);
//! * `--replications N` — independent streams per strategy (paired verdicts
//!   are printed when at least two strategies run);
//! * `--threads N` / `--seed S` / `--csv PATH`;
//! * `--obs-series PATH` (env `MCSCHED_OBS_SERIES`) — turn on the per-epoch
//!   virtual-time recorder and write one CSV row per rescheduling epoch of
//!   every (strategy, replication) run:
//!   `strategy,replication,time,queue_depth,resident,utilization,shed_rate`.
//!   Virtual-time quantities only, so the file is bit-exact across reruns
//!   at any `--threads` count.
//!
//! The fleet tools collect and watch a sharded campaign (`--shard i/N`).
//! Each takes at least one directory:
//!
//! * `merge --into DEST SRC...` — union the shards' cell-cache directories
//!   into `DEST` (see `mcsched_runtime::merge_cache_dirs`). A source written
//!   under a foreign cache salt is a hard error, and so is one digest with
//!   different metrics in two sources; nothing is written then. The
//!   destination is rendered key-sorted, so merging a sharded campaign
//!   gives the directory an unsharded run would have written, and an
//!   existing `DEST` acts as one more source. It takes the observability
//!   flags above (`--obs-metrics` exports the `cache.merge.*` counters);
//!   `--quiet` also silences the one-line summary on stdout;
//! * `obs-merge --into DEST DIR...` — union the shards' `--obs-dir`
//!   exports into `DEST/fleet.journal.jsonl` (every journal line, in the
//!   journal's canonical order) and `DEST/fleet.metrics.{json,txt}`
//!   (counters summed, gauges maxed, histograms added bucket-wise; see
//!   [`mcsched_obs::fleet::merge_obs_dirs`]). Every shard must carry this
//!   binary's cache salt and one config digest, and no shard label may
//!   appear twice; shards not `done` are warned about but merged. Any
//!   source order gives byte-identical files. `--quiet` silences the
//!   summary;
//! * `top [--snapshot | --watch] DIR...` — the fleet monitor: one progress
//!   bar and liveness verdict per shard, fleet-wide cell and cache totals,
//!   the merged counters and any `.tmp` debris of a killed shard.
//!   `--snapshot` (the default) prints one frame; `--watch` repaints every
//!   `--interval SECS` (default 2, at least 0.1) until no shard can still
//!   make progress. A `running` shard whose pid is gone is `DEAD`, one
//!   whose heartbeat is older than `--stale-after SECS` (default 30) is
//!   `STALLED`. A finished fleet never consults the clock, so its snapshot
//!   is byte-identical in any directory order. `top` is a monitor, not a
//!   gate: stalled or dead shards still exit 0.
//!
//! Both merges exit 2 when a source is not a directory and 1 on a merge
//! error. `obs-merge` and `top` read no `MCSCHED_OBS_*` or `MCSCHED_QUIET`
//! variable and record no run of their own, so they never write into the
//! directories they watch or merge.
//!
//! Malformed values (`--threads abc`, `--ci 1.5`, `--interval inf`, a
//! missing value) are hard errors too: the binary prints the problem and
//! exits with status 2 instead of silently falling back to defaults.

use crate::campaign::CampaignConfig;
use crate::scenario::combo_requests;
use mcsched_core::{AllocationPolicy, PolicyRegistry, SchedError};
use mcsched_online::{AdmissionPolicy, ReschedulePolicy};
use mcsched_stats::BootstrapConfig;
use mcsched_workload::{Trace, TraceSource, WorkloadCatalog, WorkloadRequest, WorkloadSource};
use std::path::PathBuf;
use std::sync::Arc;

/// The usage printed after a command-line error and by `--help`.
const USAGE: &str = "usage: mcsched-exp <command> [flags]\n\
     experiments: table1 fig1 fig2 fig3 fig4 fig5 ablation-scrap ablation-packing online\n\
     every experiment and merge: --profile --quiet --obs-trace P --obs-journal P --obs-metrics P \
     --obs-dir P\n\
     fig2..fig5, ablation-*: --full --combinations N --ptgs a,b --strategies a,b \
     --allocation NAME --workload SPEC --trace P --export-trace P --replications N --ci L \
     --threads N --seed S --csv P --cache-dir P --no-resume --shard i/N --progress\n\
     online: --workload SPEC --platform NAME --jobs N --duration S --queue-cap N \
     --in-flight N --reschedule P --admission P --strategies a,b --replications N \
     --threads N --seed S --csv P --obs-series P\n\
     (fig2 takes no --strategies, ablation-scrap no --allocation, the ablations no --csv)\n\
     fleet tools:\n  \
     merge --into DEST SRC...\n  \
     obs-merge --into DEST [--quiet] DIR...\n  \
     top [--snapshot | --watch] [--interval SECS] [--stale-after SECS] DIR...";

/// One subcommand: an experiment of the paper's evaluation or a fleet tool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Command {
    /// `table1`: the four Grid'5000 multi-cluster subsets.
    #[default]
    Table1,
    /// `fig1`: ready-task versus global ordering on two PTGs.
    Fig1,
    /// `fig2`: the µ calibration of WPS-work.
    Fig2,
    /// `fig3`: the strategies on random PTGs.
    Fig3,
    /// `fig4`: the strategies on FFT PTGs.
    Fig4,
    /// `fig5`: the strategies on Strassen PTGs.
    Fig5,
    /// `ablation-scrap`: SCRAP versus SCRAP-MAX allocation.
    AblationScrap,
    /// `ablation-packing`: allocation packing on and off.
    AblationPacking,
    /// `online`: open-system streaming through the online scheduler.
    Online,
    /// `merge`: union shard cell-cache directories.
    Merge,
    /// `obs-merge`: union shard obs exports into one fleet view.
    ObsMerge,
    /// `top`: the fleet monitor.
    Top,
}

impl Command {
    /// Every command: the experiments in the order of the paper's
    /// evaluation, then the fleet tools.
    pub const ALL: [Command; 12] = [
        Command::Table1,
        Command::Fig1,
        Command::Fig2,
        Command::Fig3,
        Command::Fig4,
        Command::Fig5,
        Command::AblationScrap,
        Command::AblationPacking,
        Command::Online,
        Command::Merge,
        Command::ObsMerge,
        Command::Top,
    ];

    /// The subcommand's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Command::Table1 => "table1",
            Command::Fig1 => "fig1",
            Command::Fig2 => "fig2",
            Command::Fig3 => "fig3",
            Command::Fig4 => "fig4",
            Command::Fig5 => "fig5",
            Command::AblationScrap => "ablation-scrap",
            Command::AblationPacking => "ablation-packing",
            Command::Online => "online",
            Command::Merge => "merge",
            Command::ObsMerge => "obs-merge",
            Command::Top => "top",
        }
    }

    /// Whether the command records an observed run: every experiment and
    /// `merge` do, while `obs-merge` and `top` neither read the
    /// `MCSCHED_OBS_*` environment nor write into the directories they
    /// merge or watch.
    #[must_use]
    fn is_observed(self) -> bool {
        !matches!(self, Command::ObsMerge | Command::Top)
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CliOptions {
    /// The command to run (the subcommand).
    pub command: Command,
    /// Run the paper-scale configuration.
    pub full: bool,
    /// Override for the number of combinations.
    pub combinations: Option<usize>,
    /// Override for the PTG counts.
    pub ptg_counts: Option<Vec<usize>>,
    /// Constraint-policy names to compare (resolved through the registry).
    pub strategies: Option<Vec<String>>,
    /// Allocation-procedure name override.
    pub allocation: Option<String>,
    /// Workload-source spec override (resolved through the catalog).
    pub workload: Option<String>,
    /// Trace file to replay instead of generating workloads.
    pub trace: Option<PathBuf>,
    /// Path to export the run's workloads as a replayable trace.
    pub export_trace: Option<PathBuf>,
    /// Number of paired replications (`--replications`).
    pub replications: Option<usize>,
    /// Confidence level for bootstrap intervals (`--ci`).
    pub ci: Option<f64>,
    /// Worker threads (0 = all cores).
    pub threads: Option<usize>,
    /// Base random seed override.
    pub seed: Option<u64>,
    /// Optional CSV output path.
    pub csv: Option<PathBuf>,
    /// Cell-cache directory (`--cache-dir`).
    pub cache_dir: Option<PathBuf>,
    /// Clear the cache directory instead of resuming from it
    /// (`--no-resume`).
    pub no_resume: bool,
    /// `Some((index, of))` evaluates only one partition of the campaign's
    /// scenarios, every cell of each (`--shard i/N`).
    pub shard: Option<(usize, usize)>,
    /// Narrate per-data-point progress on stderr (`--progress`).
    pub progress: bool,
    /// Online platform name (`--platform`).
    pub platform: Option<String>,
    /// Online job budget (`--jobs`).
    pub jobs: Option<usize>,
    /// Online time window in seconds (`--duration`).
    pub duration: Option<f64>,
    /// Online pending-queue capacity (`--queue-cap`).
    pub queue_cap: Option<usize>,
    /// Online in-flight PTG bound (`--in-flight`).
    pub in_flight: Option<usize>,
    /// Online reschedule policy (`--reschedule`).
    pub reschedule: Option<ReschedulePolicy>,
    /// Online admission policy (`--admission`).
    pub admission: Option<AdmissionPolicy>,
    /// Online per-epoch series CSV path (`--obs-series`).
    pub obs_series: Option<PathBuf>,
    /// Observability exports, the phase report and sink verbosity
    /// (`--obs-trace`, `--obs-journal`, `--obs-metrics`, `--obs-dir`,
    /// `--profile`, `--quiet`).
    pub obs: mcsched_obs::ObsOptions,
    /// Fleet-tool destination directory (`--into`).
    pub into: Option<PathBuf>,
    /// Fleet-tool source or obs directories (the positional arguments).
    pub dirs: Vec<PathBuf>,
    /// `top` repaints until the fleet is done (`--watch`) instead of
    /// printing one frame (`--snapshot`).
    pub watch: bool,
    /// `top --watch` repaint period in milliseconds (`--interval`).
    pub interval_ms: Option<u64>,
    /// `top` heartbeat age in milliseconds past which a running shard is
    /// stalled (`--stale-after`).
    pub stale_after_ms: Option<u64>,
}

/// Parses the value of a numeric flag, erroring out on malformed input —
/// `--threads abc` must abort the run, not silently fall back to the
/// default thread count.
fn numeric<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| {
        format!(
            "flag `{flag}` expects a {}, got `{raw}`",
            std::any::type_name::<T>()
                .rsplit("::")
                .next()
                .unwrap_or("number")
        )
    })
}

/// Parses a `top` duration flag given in seconds into milliseconds. NaN,
/// infinite and negative values are errors: they would otherwise clamp to
/// 0 ms or saturate to `u64::MAX` ms.
fn millis(flag: &str, raw: &str) -> Result<u64, String> {
    let secs: f64 = numeric(flag, raw)?;
    if !(secs.is_finite() && secs >= 0.0) {
        return Err(format!(
            "flag `{flag}` expects a finite, non-negative number of seconds, got `{raw}`"
        ));
    }
    Ok((secs * 1000.0) as u64)
}

impl CliOptions {
    /// Parses options from an iterator of argument strings (without the
    /// program name): the command, then its flags.
    ///
    /// # Errors
    ///
    /// A human-readable description naming the culprit: a missing or
    /// unknown command, an unknown flag or one the command does not take, a
    /// missing value or a malformed one, or a fleet tool missing `--into` or
    /// its directories (the binary reports it and exits with status 2 — see
    /// [`CliOptions::from_env`]).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut it = args.into_iter();
        let name = it.next().ok_or("missing command")?;
        let command = Command::ALL
            .into_iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| format!("unknown command `{name}`"))?;
        use Command::{
            AblationPacking, AblationScrap, Fig2, Fig3, Fig4, Fig5, Merge, ObsMerge, Online, Top,
        };
        let grid = matches!(
            command,
            Fig2 | Fig3 | Fig4 | Fig5 | AblationScrap | AblationPacking
        );
        let online = command == Online;
        let strategies = (grid && command != Fig2) || online;
        let allocation = grid && command != AblationScrap;
        let csv = matches!(command, Fig2 | Fig3 | Fig4 | Fig5 | Online);
        let observed = command.is_observed();
        let merges = matches!(command, Merge | ObsMerge);
        let top = command == Top;
        let fleet = merges || top;
        let mut opts = CliOptions {
            command,
            ..CliOptions::default()
        };
        while let Some(arg) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("flag `{arg}` expects a value"))
            };
            match arg.as_str() {
                "--full" if grid => opts.full = true,
                "--no-resume" if grid => opts.no_resume = true,
                "--progress" if grid => opts.progress = true,
                "--combinations" if grid => {
                    opts.combinations = Some(numeric(&arg, &value()?)?);
                }
                "--ptgs" if grid => {
                    opts.ptg_counts = Some(
                        value()?
                            .split(',')
                            .map(|x| numeric(&arg, x.trim()))
                            .collect::<Result<_, _>>()?,
                    );
                }
                "--strategies" if strategies => {
                    opts.strategies =
                        Some(value()?.split(',').map(|s| s.trim().to_string()).collect());
                }
                "--allocation" if allocation => opts.allocation = Some(value()?),
                "--workload" if grid || online => opts.workload = Some(value()?),
                "--trace" if grid => opts.trace = Some(PathBuf::from(value()?)),
                "--export-trace" if grid => opts.export_trace = Some(PathBuf::from(value()?)),
                "--replications" if grid || online => {
                    let replications = numeric(&arg, &value()?)?;
                    if replications == 0 {
                        return Err("flag `--replications` expects at least 1, got `0`".into());
                    }
                    opts.replications = Some(replications);
                }
                "--ci" if grid => {
                    let raw = value()?;
                    let level: f64 = numeric(&arg, &raw)?;
                    if !(level > 0.0 && level < 1.0) {
                        return Err(format!(
                            "flag `--ci` expects a confidence level strictly between 0 and 1, \
                             got `{raw}`"
                        ));
                    }
                    opts.ci = Some(level);
                }
                "--threads" if grid || online => opts.threads = Some(numeric(&arg, &value()?)?),
                "--seed" if grid || online => opts.seed = Some(numeric(&arg, &value()?)?),
                "--csv" if csv => opts.csv = Some(PathBuf::from(value()?)),
                "--cache-dir" if grid => opts.cache_dir = Some(PathBuf::from(value()?)),
                "--shard" if grid => {
                    let raw = value()?;
                    let (index, of) = raw.split_once('/').ok_or_else(|| {
                        format!("flag `--shard` expects `i/N` (e.g. `0/3`), got `{raw}`")
                    })?;
                    let index: usize = numeric(&arg, index.trim())?;
                    let of: usize = numeric(&arg, of.trim())?;
                    if of == 0 || index >= of {
                        return Err(format!(
                            "flag `--shard` expects an index below the shard count \
                             (i < N, N > 0), got `{raw}`"
                        ));
                    }
                    opts.shard = Some((index, of));
                }
                "--platform" if online => opts.platform = Some(value()?),
                "--jobs" if online => opts.jobs = Some(numeric(&arg, &value()?)?),
                "--duration" if online => opts.duration = Some(numeric(&arg, &value()?)?),
                "--queue-cap" if online => opts.queue_cap = Some(numeric(&arg, &value()?)?),
                "--in-flight" if online => opts.in_flight = Some(numeric(&arg, &value()?)?),
                "--reschedule" if online => {
                    let raw = value()?;
                    opts.reschedule =
                        Some(ReschedulePolicy::parse(&raw).map_err(|e| e.to_string())?);
                }
                "--admission" if online => {
                    let raw = value()?;
                    opts.admission = Some(AdmissionPolicy::parse(&raw).map_err(|e| e.to_string())?);
                }
                "--obs-series" if online => opts.obs_series = Some(PathBuf::from(value()?)),
                "--profile" if observed => opts.obs.profile = true,
                "--quiet" if !top => opts.obs.quiet = true,
                "--obs-trace" if observed => opts.obs.trace = Some(PathBuf::from(value()?)),
                "--obs-journal" if observed => opts.obs.journal = Some(PathBuf::from(value()?)),
                "--obs-metrics" if observed => opts.obs.metrics = Some(PathBuf::from(value()?)),
                "--obs-dir" if observed => opts.obs.dir = Some(PathBuf::from(value()?)),
                "--into" if merges => opts.into = Some(PathBuf::from(value()?)),
                "--snapshot" if top => opts.watch = false,
                "--watch" if top => opts.watch = true,
                "--interval" if top => {
                    opts.interval_ms = Some(millis(&arg, &value()?)?.max(100));
                }
                "--stale-after" if top => {
                    opts.stale_after_ms = Some(millis(&arg, &value()?)?);
                }
                dir if fleet && !dir.starts_with("--") => opts.dirs.push(PathBuf::from(dir)),
                other => return Err(format!("`{name}` does not take `{other}`")),
            }
        }
        if merges && opts.into.is_none() {
            return Err(format!(
                "`{name}` requires `--into` (the destination directory)"
            ));
        }
        if fleet && opts.dirs.is_empty() {
            return Err(format!("`{name}` requires at least one directory"));
        }
        Ok(opts)
    }

    /// Parses the current process arguments, exiting with status 2 and the
    /// usage on any error, or with status 0 after printing the usage when
    /// the only argument is `--help` or `-h`. For every command but
    /// `obs-merge` and `top` it then merges the environment into the
    /// observability options (flags take precedence over `MCSCHED_OBS_*`,
    /// `MCSCHED_PROFILE`, `MCSCHED_QUIET` and, for `online`,
    /// `MCSCHED_OBS_SERIES`). The binary then brackets its work with
    /// `opts.obs.start()` and `ObsRun::finish`.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if let [only] = args.as_slice() {
            if only == "--help" || only == "-h" {
                println!("{USAGE}");
                std::process::exit(0);
            }
        }
        let mut opts = Self::parse(args).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        });
        if !opts.command.is_observed() {
            return opts;
        }
        opts.obs = opts.obs.or(mcsched_obs::ObsOptions::from_env());
        opts.obs.run = Some(mcsched_obs::manifest::shard_label(opts.shard));
        if opts.command == Command::Online && opts.obs_series.is_none() {
            opts.obs_series = std::env::var_os("MCSCHED_OBS_SERIES")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from);
        }
        opts
    }

    /// Resolves the `--allocation` override through the built-in
    /// [`PolicyRegistry`].
    fn resolve_allocation(&self) -> Result<Option<Arc<dyn AllocationPolicy>>, SchedError> {
        self.allocation
            .as_deref()
            .map(|name| PolicyRegistry::builtin().allocation(name))
            .transpose()
    }

    /// Resolves the `--trace` / `--workload` overrides into a workload
    /// source: a replayed trace takes precedence over a generated spec.
    fn resolve_source(&self) -> Result<Option<Arc<dyn WorkloadSource>>, SchedError> {
        if let Some(path) = &self.trace {
            let trace = Trace::read_file(path)?;
            return Ok(Some(Arc::new(TraceSource::new(trace))));
        }
        match &self.workload {
            None => Ok(None),
            Some(spec) => WorkloadCatalog::builtin().resolve(spec).map(Some),
        }
    }

    /// Applies the options to a campaign configuration built from
    /// `paper`/`quick` defaults. `--strategies` names are resolved through
    /// the built-in [`PolicyRegistry`], `--workload`/`--trace` through the
    /// [`WorkloadCatalog`].
    ///
    /// # Errors
    ///
    /// [`SchedError::UnknownPolicy`] for unresolvable `--strategies`,
    /// `--allocation` or `--workload` names; [`SchedError::InvalidConfig`]
    /// for malformed specs or unreadable traces.
    pub fn configure_campaign(
        &self,
        mut config: CampaignConfig,
    ) -> Result<CampaignConfig, SchedError> {
        if let Some(c) = self.combinations {
            config.combinations = c;
        }
        if let Some(source) = self.resolve_source()? {
            config.source = source;
        }
        if let Some(p) = &self.ptg_counts {
            config.ptg_counts = p.clone();
        }
        if let Some(names) = &self.strategies {
            let registry = PolicyRegistry::builtin();
            config.strategies = names
                .iter()
                .map(|n| registry.constraint(n))
                .collect::<Result<_, _>>()?;
        }
        if let Some(a) = self.resolve_allocation()? {
            config.base.allocation = a;
        }
        if let Some(r) = self.replications {
            config.replications = r;
        }
        config.replications = self.clamp_trace_replications(config.replications);
        if let Some(t) = self.threads {
            config.threads = t;
        }
        if let Some(s) = self.seed {
            config.seed = s;
        }
        if let Some(dir) = &self.cache_dir {
            config.cache_dir = Some(dir.clone());
        }
        if self.no_resume {
            config.resume = false;
        }
        if self.progress {
            config.progress = true;
        }
        if let Some(shard) = self.shard {
            self.warn_uncached_shard(config.cache_dir.is_none());
            config.shard = Some(shard);
        }
        config.obs_dir = self.obs.dir.clone();
        Ok(config)
    }

    /// A sharded run's stdout tables are partial (NaN placeholders for
    /// skipped cells); its *product* is the cache directory the merge step
    /// collects. Sharding without `--cache-dir` therefore computes a
    /// partition and throws it away — legal (e.g. for timing), but worth a
    /// loud warning.
    fn warn_uncached_shard(&self, uncached: bool) {
        if uncached {
            eprintln!(
                "warning: --shard without --cache-dir computes a partition but persists \
                 nothing; the skipped cells render as NaN and cannot be merged later"
            );
        }
    }

    /// A replayed trace holds one fixed workload per combination: extra
    /// replications would re-evaluate byte-identical draws and shrink the
    /// printed intervals on zero new information. Clamp to one replication
    /// (with a warning) whenever `--trace` is in effect.
    fn clamp_trace_replications(&self, replications: usize) -> usize {
        if self.trace.is_some() && replications > 1 {
            eprintln!(
                "warning: --trace replays fixed workloads; --replications {replications} would \
                 only duplicate them — running a single replication"
            );
            1
        } else {
            replications
        }
    }

    /// Whether the run asked for interval estimates: more than one
    /// replication (the single-replication tables stay byte-identical to the
    /// pre-statistics harness) or an explicit `--ci` level.
    #[must_use]
    fn wants_ci(&self, replications: usize) -> bool {
        replications > 1 || self.ci.is_some()
    }

    /// The bootstrap configuration of the run's reports: default resamples,
    /// the `--ci` level (default 0.95) and a seed derived from the campaign
    /// seed, so a rerun with the same flags reprints identical intervals.
    #[must_use]
    pub fn ci_config(&self, seed: u64) -> BootstrapConfig {
        BootstrapConfig::seeded(seed).with_level(self.ci.unwrap_or(0.95))
    }

    /// [`CliOptions::ci_config`] for a configured campaign when the run
    /// asked for intervals (more than one replication or an explicit
    /// `--ci`), `None` for the plain tables.
    #[must_use]
    pub fn report_ci(&self, config: &CampaignConfig) -> Option<BootstrapConfig> {
        self.wants_ci(config.replications)
            .then(|| self.ci_config(config.seed))
    }

    /// Unwraps a result for the binary: prints the error (e.g. an unknown
    /// `--strategies` name with the list of registered policies) and exits
    /// with status 2 on failure.
    pub fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
        result.unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Exports every workload a *single-replication* run of `config` would
    /// consume — `ptg_counts × combinations` generation requests against
    /// its source — as a replayable JSON trace to the `--export-trace`
    /// path, if any. Traces are a single-replication format (replay
    /// identifies workloads by combination label, which replications
    /// share), so `replications > 1` records replication 0 only and warns.
    /// Errors are reported on stderr rather than panicking, mirroring
    /// [`CliOptions::maybe_write_csv`].
    pub fn maybe_export_trace(&self, config: &CampaignConfig) {
        let Some(path) = &self.export_trace else {
            return;
        };
        if config.replications > 1 {
            eprintln!(
                "warning: traces hold one workload per combination; exporting replication 0 of \
                 {} (a --trace replay runs a single replication)",
                config.replications
            );
        }
        let label = config.source.short_label();
        let requests: Vec<WorkloadRequest> = config
            .ptg_counts
            .iter()
            .flat_map(|&count| combo_requests(&label, count, config.combinations, config.seed))
            .collect();
        match Trace::record(config.source.as_ref(), &requests, config.seed)
            .and_then(|t| t.write_file(path))
        {
            Ok(()) => println!(
                "trace with {} workloads written to {}",
                requests.len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not export trace {}: {e}", path.display()),
        }
    }

    /// Writes `csv` to the configured path, if any, reporting errors on
    /// stderr rather than panicking.
    pub fn maybe_write_csv(&self, csv: &str) {
        if let Some(path) = &self.csv {
            if let Err(e) = std::fs::write(path, csv) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("CSV written to {}", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mu_sweep::mu_campaign;
    use mcsched_workload::AppGenerator;

    fn parse(args: &[&str]) -> CliOptions {
        CliOptions::parse(args.iter().map(|s| s.to_string())).expect("arguments parse")
    }

    fn parse_err(args: &[&str]) -> String {
        CliOptions::parse(args.iter().map(|s| s.to_string()))
            .expect_err("arguments must be rejected")
    }

    fn fig3() -> CampaignConfig {
        CampaignConfig::quick(AppGenerator::Random)
    }

    #[test]
    fn every_experiment_parses_by_name() {
        for command in Command::ALL {
            let fleet: &[&str] = match command {
                Command::Merge | Command::ObsMerge => &["--into", "dest", "src"],
                Command::Top => &["src"],
                _ => &[],
            };
            assert_eq!(
                parse(&[&[command.name()][..], fleet].concat()).command,
                command
            );
        }
        assert!(parse_err(&[]).contains("missing command"));
        assert!(parse_err(&["fig3_random"]).contains("unknown command `fig3_random`"));
    }

    #[test]
    fn parses_all_flags() {
        let o = parse(&[
            "fig3",
            "--full",
            "--combinations",
            "7",
            "--ptgs",
            "2,6",
            "--threads",
            "3",
            "--seed",
            "11",
            "--csv",
            "/tmp/out.csv",
            "--cache-dir",
            "/tmp/cells",
            "--no-resume",
            "--progress",
        ]);
        assert_eq!(o.command, Command::Fig3);
        assert!(o.full);
        assert_eq!(o.combinations, Some(7));
        assert_eq!(o.ptg_counts, Some(vec![2, 6]));
        assert_eq!(o.threads, Some(3));
        assert_eq!(o.seed, Some(11));
        assert_eq!(o.csv, Some(PathBuf::from("/tmp/out.csv")));
        assert_eq!(o.cache_dir, Some(PathBuf::from("/tmp/cells")));
        assert!(o.no_resume);
        assert!(o.progress);
    }

    #[test]
    fn online_flags_parse() {
        let o = parse(&[
            "online",
            "--workload",
            "random/poisson@lambda=0.1",
            "--platform",
            "nancy",
            "--jobs",
            "30",
            "--duration",
            "500.5",
            "--queue-cap",
            "4",
            "--in-flight",
            "2",
            "--reschedule",
            "quantum=50",
            "--admission",
            "drop-oldest",
            "--strategies",
            "es, ps-work",
            "--replications",
            "2",
            "--obs-series",
            "series.csv",
        ]);
        assert_eq!(o.platform.as_deref(), Some("nancy"));
        assert_eq!((o.jobs, o.duration), (Some(30), Some(500.5)));
        assert_eq!((o.queue_cap, o.in_flight), (Some(4), Some(2)));
        assert_eq!(
            o.reschedule,
            Some(ReschedulePolicy::parse("quantum=50").unwrap())
        );
        assert_eq!(o.admission, Some(AdmissionPolicy::DropOldest));
        assert_eq!(o.strategies, Some(vec!["es".into(), "ps-work".into()]));
        assert_eq!(o.obs_series, Some(PathBuf::from("series.csv")));
        assert!(parse_err(&["online", "--reschedule", "sometimes"]).contains("sometimes"));
        assert!(parse_err(&["online", "--jobs", "many"]).contains("--jobs"));
    }

    #[test]
    fn malformed_numeric_values_are_hard_errors() {
        // The original parser swallowed `--threads abc` into the default
        // thread count; that must be a loud failure instead.
        assert!(parse_err(&["fig3", "--threads", "abc"]).contains("--threads"));
        assert!(parse_err(&["fig3", "--combinations", "-1"]).contains("--combinations"));
        assert!(parse_err(&["fig3", "--replications", "2.5"]).contains("--replications"));
        assert!(parse_err(&["fig3", "--seed", "0x5EED"]).contains("--seed"));
        assert!(parse_err(&["fig3", "--ptgs", "2,x,6"]).contains("--ptgs"));
        assert!(parse_err(&["fig3", "--ci", "nope"]).contains("--ci"));
        // Out-of-range confidence levels are as wrong as non-numbers.
        assert!(parse_err(&["fig3", "--ci", "1.5"]).contains("between 0 and 1"));
        assert!(parse_err(&["fig3", "--ci", "0"]).contains("between 0 and 1"));
    }

    #[test]
    fn missing_flag_values_are_hard_errors() {
        assert!(parse_err(&["fig3", "--threads"]).contains("expects a value"));
        assert!(parse_err(&["fig3", "--cache-dir"]).contains("expects a value"));
        assert!(parse_err(&["fig3", "--workload"]).contains("expects a value"));
        assert!(parse_err(&["fig3", "--full", "--seed"]).contains("--seed"));
    }

    #[test]
    fn cache_flags_apply_to_both_configs() {
        let cache = ["--cache-dir", "/tmp/cells", "--no-resume", "--progress"];
        for (experiment, base) in [("fig3", fig3()), ("fig2", mu_campaign(false).0)] {
            let o = parse(&[&[experiment][..], &cache].concat());
            let cfg = o.configure_campaign(base).unwrap();
            assert_eq!(cfg.cache_dir, Some(PathBuf::from("/tmp/cells")));
            assert!(!cfg.resume);
            assert!(cfg.progress);
        }
        // Defaults leave caching off and resume on.
        let plain = parse(&["fig3"]).configure_campaign(fig3()).unwrap();
        assert_eq!(plain.cache_dir, None);
        assert!(plain.resume);
        assert!(!plain.progress);
    }

    #[test]
    fn shard_flag_parses_and_applies_to_both_configs() {
        let shard = ["--shard", "1/3", "--cache-dir", "/tmp/cells"];
        for (experiment, base) in [("fig3", fig3()), ("fig2", mu_campaign(false).0)] {
            let o = parse(&[&[experiment][..], &shard].concat());
            assert_eq!(o.shard, Some((1, 3)));
            assert_eq!(o.configure_campaign(base).unwrap().shard, Some((1, 3)));
        }
        // Whitespace tolerated, like the other list-ish flags.
        assert_eq!(parse(&["fig3", "--shard", "0 / 16"]).shard, Some((0, 16)));
        // Unsharded runs keep the default.
        let plain = parse(&["fig3"]).configure_campaign(fig3()).unwrap();
        assert_eq!(plain.shard, None);
    }

    #[test]
    fn malformed_shard_specs_are_hard_errors() {
        assert!(parse_err(&["fig3", "--shard", "3"]).contains("i/N"));
        assert!(parse_err(&["fig3", "--shard", "a/b"]).contains("--shard"));
        assert!(parse_err(&["fig3", "--shard", "3/3"]).contains("i < N"));
        assert!(parse_err(&["fig3", "--shard", "0/0"]).contains("i < N"));
        assert!(parse_err(&["fig3", "--shard"]).contains("expects a value"));
    }

    #[test]
    fn malformed_top_seconds_are_hard_errors() {
        for flag in ["--interval", "--stale-after"] {
            for raw in ["nan", "NaN", "-3", "inf", "-inf", "1e400"] {
                let err = parse_err(&["top", flag, raw, "obs"]);
                assert_eq!(
                    err,
                    format!(
                        "flag `{flag}` expects a finite, non-negative number of seconds, \
                         got `{raw}`"
                    )
                );
            }
            assert!(parse_err(&["top", flag, "soon", "obs"]).contains(flag));
            assert!(parse_err(&["top", "obs", flag]).contains("expects a value"));
        }
    }

    #[test]
    fn top_flags_parse_into_milliseconds() {
        let o = parse(&["top", "a", "--watch", "--interval", "0.5", "b"]);
        assert!(o.watch);
        assert_eq!(o.dirs, [PathBuf::from("a"), PathBuf::from("b")]);
        assert_eq!((o.interval_ms, o.stale_after_ms), (Some(500), None));
        // The repaint period keeps its 100 ms floor; the last mode wins.
        let o = parse(&["top", "--watch", "--snapshot", "--interval", "0", "a"]);
        assert!(!o.watch);
        assert_eq!(o.interval_ms, Some(100));
        let o = parse(&["top", "--stale-after", "0", "a", "--stale-after", "2.5"]);
        assert_eq!(o.stale_after_ms, Some(2500));
    }

    #[test]
    fn merge_flags_and_directories_parse() {
        let o = parse(&[
            "merge",
            "--into",
            "m",
            "s0",
            "--obs-metrics",
            "merge.txt",
            "s1",
            "--quiet",
        ]);
        assert_eq!(o.into, Some(PathBuf::from("m")));
        assert_eq!(o.dirs, [PathBuf::from("s0"), PathBuf::from("s1")]);
        assert_eq!(o.obs.metrics, Some(PathBuf::from("merge.txt")));
        assert!(o.obs.quiet);
        let o = parse(&["obs-merge", "d1", "--quiet", "--into", "fleet", "d0"]);
        assert_eq!(o.into, Some(PathBuf::from("fleet")));
        assert_eq!(o.dirs, [PathBuf::from("d1"), PathBuf::from("d0")]);
        assert!(o.obs.quiet);
    }

    #[test]
    fn fleet_tools_require_a_destination_and_directories() {
        for command in ["merge", "obs-merge"] {
            assert_eq!(
                parse_err(&[command, "s0"]),
                format!("`{command}` requires `--into` (the destination directory)")
            );
            assert_eq!(
                parse_err(&[command, "--into", "m"]),
                format!("`{command}` requires at least one directory")
            );
            assert!(parse_err(&[command, "s0", "--into"]).contains("expects a value"));
        }
        assert_eq!(
            parse_err(&["top", "--watch"]),
            "`top` requires at least one directory"
        );
        // Only the fleet tools take positional arguments.
        for experiment in ["table1", "fig3", "online"] {
            assert_eq!(
                parse_err(&[experiment, "dir"]),
                format!("`{experiment}` does not take `dir`")
            );
        }
    }

    #[test]
    fn obs_flags_parse_into_the_options() {
        let obs = [
            "--obs-trace",
            "/tmp/t.json",
            "--obs-journal",
            "/tmp/j.jsonl",
            "--obs-metrics",
            "/tmp/m.csv",
            "--obs-dir",
            "/tmp/fleet",
            "--quiet",
            "--profile",
        ];
        // Every experiment and `merge` take the observability flags.
        let observed = Command::ALL.into_iter().filter(|c| c.is_observed());
        for command in observed {
            let fleet: &[&str] = match command {
                Command::Merge => &["--into", "dest", "src"],
                _ => &[],
            };
            let o = parse(&[&[command.name()][..], fleet, &obs].concat());
            assert_eq!(o.obs.trace, Some(PathBuf::from("/tmp/t.json")));
            assert_eq!(o.obs.journal, Some(PathBuf::from("/tmp/j.jsonl")));
            assert_eq!(o.obs.metrics, Some(PathBuf::from("/tmp/m.csv")));
            assert_eq!(o.obs.dir, Some(PathBuf::from("/tmp/fleet")));
            assert!(o.obs.quiet && o.obs.profile);
        }
        assert!(parse_err(&["fig3", "--obs-trace"]).contains("expects a value"));
        assert!(parse_err(&["fig3", "--obs-dir"]).contains("expects a value"));
        let plain = parse(&["fig3"]);
        assert!(!plain.obs.quiet && !plain.obs.profile);
    }

    #[test]
    fn obs_dir_applies_to_both_configs() {
        for (experiment, base) in [("fig3", fig3()), ("fig2", mu_campaign(false).0)] {
            let o = parse(&[experiment, "--obs-dir", "/tmp/fleet"]);
            let cfg = o.configure_campaign(base).unwrap();
            assert_eq!(cfg.obs_dir, Some(PathBuf::from("/tmp/fleet")));
        }
        let plain = parse(&["fig3"]).configure_campaign(fig3()).unwrap();
        assert_eq!(plain.obs_dir, None);
    }

    #[test]
    fn defaults_are_quick() {
        let o = parse(&["fig3"]);
        assert!(!o.full);
        assert_eq!(o.combinations, None);
    }

    #[test]
    fn unknown_and_inapplicable_flags_are_hard_errors() {
        assert_eq!(
            parse_err(&["fig3", "--bogus", "--full"]),
            "`fig3` does not take `--bogus`"
        );
        assert!(parse_err(&["fig3", "extra"]).contains("`extra`"));
        // Flags another experiment uses are errors where they would be
        // ignored.
        for (experiment, flag) in [
            ("table1", "--combinations"),
            ("fig1", "--threads"),
            ("table1", "--csv"),
            ("fig1", "--csv"),
            ("ablation-scrap", "--csv"),
            ("ablation-packing", "--csv"),
            ("ablation-scrap", "--allocation"),
            ("fig2", "--strategies"),
            ("online", "--full"),
            ("online", "--ci"),
            ("online", "--trace"),
            ("online", "--shard"),
            ("fig3", "--platform"),
            ("fig3", "--obs-series"),
            ("fig3", "--into"),
            ("fig3", "--watch"),
            ("merge", "--dest"),
            ("merge", "--threads"),
            ("merge", "--interval"),
            ("obs-merge", "--dest"),
            ("obs-merge", "--obs-metrics"),
            ("obs-merge", "--profile"),
            ("top", "--quiet"),
            ("top", "--into"),
            ("top", "--obs-dir"),
        ] {
            assert_eq!(
                parse_err(&[experiment, flag, "x"]),
                format!("`{experiment}` does not take `{flag}`")
            );
        }
    }

    #[test]
    fn configure_campaign_applies_overrides() {
        let o = parse(&["fig3", "--combinations", "3", "--ptgs", "4", "--seed", "9"]);
        let cfg = o.configure_campaign(fig3()).unwrap();
        assert_eq!(cfg.combinations, 3);
        assert_eq!(cfg.ptg_counts, vec![4]);
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn mu_campaign_applies_overrides() {
        let o = parse(&["fig2", "--combinations", "2", "--threads", "1"]);
        let cfg = o.configure_campaign(mu_campaign(false).0).unwrap();
        assert_eq!(cfg.combinations, 2);
        assert_eq!(cfg.threads, 1);
    }

    #[test]
    fn strategies_resolve_by_registry_name() {
        let o = parse(&["fig3", "--strategies", "es, wps-work@0.5"]);
        let cfg = o.configure_campaign(fig3()).unwrap();
        let names: Vec<String> = cfg.strategies.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["ES".to_string(), "WPS-work".to_string()]);
    }

    #[test]
    fn unknown_strategy_or_allocation_names_error_out() {
        let o = parse(&["fig3", "--strategies", "bogus"]);
        assert!(matches!(
            o.configure_campaign(fig3()),
            Err(SchedError::UnknownPolicy { .. })
        ));
        let o = parse(&["fig2", "--allocation", "bogus"]);
        assert!(matches!(
            o.configure_campaign(mu_campaign(false).0),
            Err(SchedError::UnknownPolicy { .. })
        ));
    }

    #[test]
    fn workload_spec_overrides_the_campaign_source() {
        for (experiment, base) in [("fig3", fig3()), ("fig2", mu_campaign(false).0)] {
            let o = parse(&[experiment, "--workload", "daggen@n=10,width=0.5"]);
            let cfg = o.configure_campaign(base).unwrap();
            assert_eq!(cfg.source.short_label(), "daggen");
        }
    }

    #[test]
    fn bogus_workload_specs_and_missing_traces_error_out() {
        let o = parse(&["fig3", "--workload", "bogus@x=1"]);
        assert!(matches!(
            o.configure_campaign(fig3()),
            Err(SchedError::UnknownPolicy { .. })
        ));
        let o = parse(&["fig3", "--trace", "/nonexistent/trace.json"]);
        assert!(matches!(
            o.configure_campaign(fig3()),
            Err(SchedError::InvalidConfig(_))
        ));
    }

    #[test]
    fn trace_flags_parse() {
        let o = parse(&[
            "fig3",
            "--workload",
            "strassen",
            "--trace",
            "in.json",
            "--export-trace",
            "out.json",
        ]);
        assert_eq!(o.workload.as_deref(), Some("strassen"));
        assert_eq!(o.trace, Some(PathBuf::from("in.json")));
        assert_eq!(o.export_trace, Some(PathBuf::from("out.json")));
    }

    #[test]
    fn replications_and_ci_flags_parse_and_apply() {
        let o = parse(&["fig3", "--replications", "4", "--ci", "0.99"]);
        assert_eq!(o.replications, Some(4));
        assert_eq!(o.ci, Some(0.99));
        let cfg = o.configure_campaign(fig3()).unwrap();
        assert_eq!(cfg.replications, 4);
        let o2 = parse(&["fig2", "--replications", "4", "--ci", "0.99"]);
        let sweep = o2.configure_campaign(mu_campaign(false).0).unwrap();
        assert_eq!(sweep.replications, 4);
        assert!(o.wants_ci(cfg.replications));
        let bc = o.ci_config(cfg.seed);
        assert_eq!(bc.level, 0.99);
        assert_eq!(bc, o.ci_config(cfg.seed), "derived CI config is stable");
        assert_eq!(o.report_ci(&cfg), Some(bc));
    }

    #[test]
    fn trace_replay_clamps_replications_to_one() {
        // A trace replays fixed draws; extra replications would fabricate
        // precision, so the combination clamps (the --trace resolution
        // itself fails on the missing file, which is irrelevant here — the
        // clamp is observable through the helper).
        let o = parse(&["fig3", "--trace", "in.json", "--replications", "4"]);
        assert_eq!(o.clamp_trace_replications(4), 1);
        let o = parse(&["fig3", "--replications", "4"]);
        assert_eq!(o.clamp_trace_replications(4), 4);
    }

    #[test]
    fn default_run_does_not_want_ci_and_rejects_zero_replications() {
        let o = parse(&["fig3"]);
        assert!(!o.wants_ci(1));
        assert!(o.wants_ci(2), "replications alone enable intervals");
        assert_eq!(o.ci_config(0).level, 0.95);
        assert_eq!(o.report_ci(&fig3()), None);
        // --replications 0 is an error at parse time, for every experiment
        // that takes the flag.
        for experiment in ["fig2", "fig3", "ablation-scrap", "online"] {
            assert_eq!(
                parse_err(&[experiment, "--replications", "0"]),
                "flag `--replications` expects at least 1, got `0`"
            );
        }
        assert_eq!(
            parse(&["online", "--replications", "1"]).replications,
            Some(1)
        );
    }

    #[test]
    fn allocation_override_resolves_through_the_registry() {
        let configure =
            |name: &str| parse(&["fig3", "--allocation", name]).configure_campaign(fig3());
        let cfg = configure("scrap").unwrap();
        assert_eq!(cfg.base.allocation.name(), "SCRAP");
        assert_eq!(
            cfg.base.pipeline_cache_key(),
            "alloc=scrap;order=ready-tasks;packing=true;comm=true"
        );
        for (alias, key) in [
            ("SCRAP-MAX", "scrap-max"),
            ("scrapmax", "scrap-max"),
            ("1-proc", "one-each"),
        ] {
            let cfg = configure(alias).unwrap();
            assert_eq!(cfg.base.allocation.cache_key(), key, "{alias}");
        }
        match configure("scrappy").err() {
            Some(SchedError::UnknownPolicy { kind, name, known }) => {
                assert_eq!(kind, mcsched_core::PolicyKind::Allocation);
                assert_eq!(name, "scrappy");
                assert_eq!(
                    known,
                    [
                        "1-proc",
                        "cpa",
                        "one-each",
                        "scrap",
                        "scrap-max",
                        "scrapmax"
                    ]
                );
            }
            other => panic!("expected UnknownPolicy, got {other:?}"),
        }
        assert!(matches!(
            configure("scrap@x").err(),
            Some(SchedError::InvalidConfig(_))
        ));
    }
}
