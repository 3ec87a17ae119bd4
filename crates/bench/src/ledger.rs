//! The one `BENCH_*.json` schema and the pieces every benchmark family
//! shares: the [`Row`] and [`Ledger`] types (written and read only through
//! [`mcsched_obs::json`]), the warm-up-then-time loop ([`time_with`]), the
//! command-line parser ([`Args::parse`]), and the row-by-row comparison
//! behind `mcsched-bench diff` ([`diff`]). Every ledger carries the
//! [`host`] metadata of the machine it was measured on.
//!
//! A ledger document is
//!
//! ```text
//! {"params": {..}, "host": {..},
//!  "rows": [{"family": "..", "case": "..", "mean_ms": .., "min_ms": ..,
//!            "max_ms": .., "samples": N, "values": {"name": number, ..}}, ..]}
//! ```
//!
//! A row is identified by its `(family, case)` pair, unique within a
//! ledger; `values` holds the row's named numbers (event counts, peaks,
//! throughputs, stretches, ...).

use crate::host;
use mcsched_obs::json::Json;
use std::time::Instant;

/// Every subcommand of `mcsched-bench`: the benchmark families, then the
/// ledger comparison.
pub const COMMANDS: &[&str] = &[
    "policies",
    "workload",
    "runtime",
    "simx",
    "online",
    "mapping",
    "allocation",
    "diff",
];

/// The command line of `mcsched-bench`.
pub const USAGE: &str =
    "usage: mcsched-bench <policies|workload|runtime|simx|online|mapping|allocation> \
     [--iterations N] [--smoke] [--out PATH]\n\
     \x20      mcsched-bench runtime [..] [--threads N,N,..]\n\
     \x20      mcsched-bench diff <baseline.json> <candidate.json> [--max-regress PCT]";

/// Rounds to four decimals, so a re-recorded ledger stays diff-friendly.
/// Magnitudes of 10¹¹ and more have no decimals to spare and are kept.
fn round4(v: f64) -> f64 {
    if v.abs() < 1e11 {
        (v * 1e4).round() / 1e4
    } else {
        v
    }
}

/// One timed case of a ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The group of related cases the row belongs to.
    pub family: String,
    /// The case within its family.
    pub case: String,
    /// Mean wall-clock time per sample.
    pub mean_ms: f64,
    /// Fastest sample.
    pub min_ms: f64,
    /// Slowest sample.
    pub max_ms: f64,
    /// Number of timed samples (the warm-up is not one).
    pub samples: usize,
    /// Named numbers describing the case or its outcome.
    pub values: Vec<(String, f64)>,
}

/// Times `run` as the row `family/case`: one untimed warm-up run, then
/// `iterations` timed samples (at least one). Each run gets a fresh state
/// from `setup`, built outside the timed region and dropped after it.
pub fn time_with<S>(
    family: &str,
    case: impl Into<String>,
    iterations: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S),
) -> Row {
    run(&mut setup());
    let samples = iterations.max(1);
    let mut row = Row {
        family: family.into(),
        case: case.into(),
        mean_ms: 0.0,
        min_ms: f64::INFINITY,
        max_ms: 0.0,
        samples,
        values: Vec::new(),
    };
    for _ in 0..samples {
        let mut state = setup();
        let start = Instant::now();
        run(&mut state);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        row.mean_ms += ms / samples as f64;
        row.min_ms = row.min_ms.min(ms);
        row.max_ms = row.max_ms.max(ms);
    }
    row
}

/// [`time_with`] for a run that needs no per-sample state.
pub fn time(family: &str, case: impl Into<String>, iters: usize, mut run: impl FnMut()) -> Row {
    time_with(family, case, iters, || (), |()| run())
}

impl Row {
    /// The row of one of `n` equal repetitions inside each sample.
    #[must_use]
    pub fn per(mut self, n: usize) -> Row {
        for ms in [&mut self.mean_ms, &mut self.min_ms, &mut self.max_ms] {
            *ms /= n.max(1) as f64;
        }
        self
    }

    /// The mean sample in seconds, bounded away from zero so that rates
    /// derived from it stay finite.
    #[must_use]
    pub fn mean_s(&self) -> f64 {
        (self.mean_ms / 1e3).max(1e-12)
    }

    /// Appends the named value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite (JSON has no literal for it).
    #[must_use]
    pub fn value(mut self, name: &str, value: f64) -> Row {
        assert!(value.is_finite(), "{name} = {value} is not finite");
        self.values.push((name.to_string(), value));
        self
    }

    /// The row's identity, `family/case`.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{}/{}", self.family, self.case)
    }

    fn to_json(&self) -> Json {
        let values = self
            .values
            .iter()
            .map(|(k, v)| (k.clone(), Json::num_f64(*v)));
        Json::Obj(vec![
            ("family".into(), Json::Str(self.family.clone())),
            ("case".into(), Json::Str(self.case.clone())),
            ("mean_ms".into(), Json::num_f64(self.mean_ms)),
            ("min_ms".into(), Json::num_f64(self.min_ms)),
            ("max_ms".into(), Json::num_f64(self.max_ms)),
            ("samples".into(), Json::num_usize(self.samples)),
            ("values".into(), Json::Obj(values.collect())),
        ])
    }

    fn from_json(row: &Json) -> Result<Row, String> {
        let text = |field: &str| {
            row.get(field)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("row without a string `{field}`"))
        };
        let ms = |field: &str| {
            row.get(field)
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("row without a finite, non-negative `{field}`"))
        };
        let values = row
            .get("values")
            .and_then(Json::as_obj)
            .ok_or("row without a `values` object")?
            .iter()
            .map(|(name, v)| {
                v.as_f64()
                    .filter(|v| v.is_finite())
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("value `{name}` is not a finite number"))
            })
            .collect::<Result<_, _>>()?;
        let samples = row.get("samples").and_then(Json::as_usize);
        Ok(Row {
            family: text("family")?,
            case: text("case")?,
            mean_ms: ms("mean_ms")?,
            min_ms: ms("min_ms")?,
            max_ms: ms("max_ms")?,
            samples: samples.ok_or("row without an integer `samples`")?,
            values,
        })
    }
}

/// One `BENCH_*.json` document: the family's parameters, the host it ran
/// on, and its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// The settings the rows were measured under.
    pub params: Vec<(String, Json)>,
    /// The machine the rows were measured on (see [`host::host`]).
    pub host: Vec<(String, Json)>,
    /// The timed cases, each `(family, case)` at most once.
    pub rows: Vec<Row>,
}

impl Ledger {
    /// An empty ledger of this host under `params`.
    #[must_use]
    pub fn new(params: Vec<(String, Json)>) -> Ledger {
        Ledger {
            params,
            host: host::host(),
            rows: Vec::new(),
        }
    }

    /// Appends `row`, its times and values rounded to four decimals, and
    /// prints it on stderr.
    pub fn push(&mut self, mut row: Row) {
        let times = [&mut row.mean_ms, &mut row.min_ms, &mut row.max_ms];
        for v in times
            .into_iter()
            .chain(row.values.iter_mut().map(|(_, v)| v))
        {
            *v = round4(*v);
        }
        let (key, mean) = (row.key(), row.mean_ms);
        eprintln!("{key:<44} {mean:>11.4} ms  {:?}", row.values);
        self.rows.push(row);
    }

    /// The row `family/case`, if there is one.
    #[must_use]
    pub fn row(&self, family: &str, case: &str) -> Option<&Row> {
        self.rows
            .iter()
            .find(|r| r.family == family && r.case == case)
    }

    /// The document, as one line of compact JSON plus a newline.
    #[must_use]
    pub fn render(&self) -> String {
        let rows = self.rows.iter().map(Row::to_json).collect();
        let mut out = Json::Obj(vec![
            ("params".into(), Json::Obj(self.params.clone())),
            ("host".into(), Json::Obj(self.host.clone())),
            ("rows".into(), Json::Arr(rows)),
        ])
        .render();
        out.push('\n');
        out
    }

    /// Parses a document written by [`Ledger::render`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema error: a
    /// missing or mistyped field, a non-finite or negative time, a
    /// non-finite value, or a repeated `(family, case)` pair.
    pub fn parse(text: &str) -> Result<Ledger, String> {
        let doc = Json::parse(text)?;
        let object = |field: &str| {
            doc.get(field)
                .and_then(Json::as_obj)
                .map(<[(String, Json)]>::to_vec)
                .ok_or_else(|| format!("ledger without a `{field}` object"))
        };
        let mut ledger = Ledger {
            params: object("params")?,
            host: object("host")?,
            rows: Vec::new(),
        };
        let rows = doc.get("rows").and_then(Json::as_arr);
        for row in rows.ok_or("ledger without a `rows` array")? {
            let row = Row::from_json(row)?;
            if ledger.row(&row.family, &row.case).is_some() {
                return Err(format!("row `{}` appears twice", row.key()));
            }
            ledger.rows.push(row);
        }
        Ok(ledger)
    }

    /// Reads and parses the ledger at `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O or parse error, naming the file.
    pub fn load(path: &str) -> Result<Ledger, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        Ledger::parse(&text).map_err(|e| format!("`{path}`: {e}"))
    }
}

/// The parsed command line of `mcsched-bench`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Args {
    /// The subcommand, one of [`COMMANDS`].
    pub command: String,
    /// `--iterations N`: timed samples per case (the family's default when
    /// absent).
    pub iterations: Option<usize>,
    /// `--smoke`: the family's reduced inputs, for CI.
    pub smoke: bool,
    /// `--out PATH`: where to write the ledger (`BENCH_<family>.json` when
    /// absent).
    pub out: Option<String>,
    /// `--threads N,N,..`: the runtime family's thread counts.
    pub threads: Option<Vec<usize>>,
    /// `--max-regress PCT`: the diff's regression threshold.
    pub max_regress: Option<f64>,
    /// The diff's two ledger paths, baseline first.
    pub files: Vec<String>,
}

impl Args {
    /// Parses the arguments after the program name. Flags apply only to
    /// the subcommands that use them: `--iterations`, `--smoke` and `--out`
    /// to every family, `--threads` to `runtime`, `--max-regress` to
    /// `diff`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending argument for an unknown
    /// subcommand or flag, a flag without its value, a malformed value, or
    /// a `diff` without exactly two files.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut it = args.into_iter();
        let command = it.next().ok_or("missing subcommand")?;
        if !COMMANDS.contains(&command.as_str()) {
            return Err(format!("unknown subcommand `{command}`"));
        }
        let diff = command == "diff";
        let runtime = command == "runtime";
        let mut parsed = Args {
            command,
            ..Args::default()
        };
        while let Some(arg) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("flag `{arg}` expects a value"))
            };
            match arg.as_str() {
                "--iterations" if !diff => {
                    let raw = value()?;
                    parsed.iterations = Some(positive(&arg, &raw)?);
                }
                "--smoke" if !diff => parsed.smoke = true,
                "--out" if !diff => parsed.out = Some(value()?),
                "--threads" if runtime => {
                    let raw = value()?;
                    parsed.threads = Some(
                        raw.split(',')
                            .map(|n| positive(&arg, n.trim()))
                            .collect::<Result<_, _>>()?,
                    );
                }
                "--max-regress" if diff => {
                    let raw = value()?;
                    let pct = raw.parse::<f64>().ok().filter(|p| p.is_finite());
                    parsed.max_regress = Some(pct.ok_or_else(|| {
                        format!("flag `{arg}` expects a percentage, got `{raw}`")
                    })?);
                }
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown flag `{flag}` for `{}`", parsed.command));
                }
                file if diff => parsed.files.push(file.to_string()),
                other => return Err(format!("unexpected argument `{other}`")),
            }
        }
        if diff && parsed.files.len() != 2 {
            return Err(format!(
                "`diff` expects two ledgers, got {}",
                parsed.files.len()
            ));
        }
        Ok(parsed)
    }
}

/// Parses a count of at least 1 given to `flag`.
fn positive(flag: &str, raw: &str) -> Result<usize, String> {
    raw.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("flag `{flag}` expects a positive integer, got `{raw}`"))
}

/// Compares `candidate` with `baseline` row by row, keyed by
/// `(family, case)`, on `mean_ms`. Returns the printable report and the
/// rows more than `max_regress` percent slower (none without a
/// threshold). Rows on one side only are reported as `gone` or `new`,
/// never as regressions.
#[must_use]
pub fn diff(
    baseline: &Ledger,
    candidate: &Ledger,
    max_regress: Option<f64>,
) -> (String, Vec<(String, f64)>) {
    let mut lines = vec![format!(
        "{:<44} {:>12} {:>12} {:>8}",
        "row", "baseline ms", "candidate ms", "delta"
    )];
    let mut regressions = Vec::new();
    for row in &baseline.rows {
        let (key, base) = (row.key(), row.mean_ms);
        lines.push(match candidate.row(&row.family, &row.case) {
            Some(cand) => {
                let cand = cand.mean_ms;
                let delta = if base > 0.0 {
                    (cand - base) / base * 100.0
                } else {
                    0.0
                };
                if max_regress.is_some_and(|threshold| delta > threshold) {
                    regressions.push((key.clone(), delta));
                }
                format!("{key:<44} {base:>12.4} {cand:>12.4} {delta:>+7.1}%")
            }
            None => format!("{key:<44} {base:>12.4} {:>12} {:>8}", "-", "gone"),
        });
    }
    for row in &candidate.rows {
        if baseline.row(&row.family, &row.case).is_none() {
            let (key, cand) = (row.key(), row.mean_ms);
            lines.push(format!("{key:<44} {:>12} {cand:>12.4} {:>8}", "-", "new"));
        }
    }
    lines.push(String::new());
    (lines.join("\n"), regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_string))
    }

    fn ledger() -> Ledger {
        Ledger::parse(
            r#"{"params": {"seed": 7}, "host": {"os": "linux"}, "rows": [
            {"family": "pool-cold", "case": "threads=1", "mean_ms": 4, "min_ms": 2,
             "max_ms": 8, "samples": 3, "values": {"threads": 1}},
            {"family": "pool-cold", "case": "threads=2", "mean_ms": 2, "min_ms": 1,
             "max_ms": 4, "samples": 3, "values": {}},
            {"family": "pool-warm", "case": "threads=1", "mean_ms": 0.05, "min_ms": 0.04,
             "max_ms": 0.06, "samples": 2, "values": {}}]}"#,
        )
        .expect("the test ledger parses")
    }

    /// Each command line is rejected with a message naming its culprit.
    fn rejected(cases: &[(&str, &str)]) {
        for (line, culprit) in cases {
            let err = parse(line).expect_err("arguments must be rejected");
            assert!(err.contains(culprit), "{line}: {err}");
        }
    }

    #[test]
    fn parses_every_flag_where_it_applies() {
        let a = parse("runtime --iterations 4 --smoke --out x --threads 1,8").expect("parses");
        assert_eq!(
            (a.iterations, a.smoke, a.out.as_deref()),
            (Some(4), true, Some("x"))
        );
        assert_eq!(
            (a.command.as_str(), a.threads),
            ("runtime", Some(vec![1, 8]))
        );
        let d = parse("diff a --max-regress 15 b").expect("parses");
        assert_eq!(
            (d.files.join(" "), d.max_regress),
            ("a b".into(), Some(15.0))
        );
        let plain = Args {
            command: "simx".into(),
            ..Args::default()
        };
        assert_eq!(parse("simx"), Ok(plain));
    }

    #[test]
    fn malformed_flag_values_are_hard_errors() {
        rejected(&[
            ("policies --iterations abc", "--iterations"),
            ("workload --iterations 0", "--iterations"),
            ("online --iterations -1", "--iterations"),
            ("runtime --threads 1,x", "--threads"),
            ("runtime --threads ,", "--threads"),
            ("diff a b --max-regress ten", "--max-regress"),
            ("diff a b --max-regress inf", "--max-regress"),
        ]);
    }

    #[test]
    fn missing_flag_values_are_hard_errors() {
        rejected(&[
            ("simx --iterations", "`--iterations` expects a value"),
            ("simx --out", "`--out` expects a value"),
            ("runtime --threads", "`--threads` expects a value"),
            ("diff a b --max-regress", "`--max-regress` expects a value"),
        ]);
    }

    #[test]
    fn unknown_flags_and_arguments_are_hard_errors() {
        rejected(&[
            ("online --jobs 400", "--jobs"),
            ("policies --seed 1", "--seed"),
            ("simx --threads 2", "--threads"),
            ("runtime --scale paper", "--scale"),
            ("runtime --max-regress 5", "--max-regress"),
            ("diff a b --smoke", "--smoke"),
            ("mapping stray", "stray"),
            ("bench_simx", "bench_simx"),
            ("", "subcommand"),
            ("diff a", "two ledgers"),
        ]);
    }

    #[test]
    fn ledgers_round_trip_and_schema_errors_are_rejected() {
        let text = ledger().render();
        assert!(text.ends_with('\n') && text.lines().count() == 1);
        assert_eq!(Ledger::parse(&text), Ok(ledger()));
        let mut doubled = ledger();
        doubled.rows.push(doubled.rows[0].clone());
        assert!(Ledger::parse(&doubled.render())
            .unwrap_err()
            .contains("twice"));
        for (from, to) in [
            ("\"rows\"", "\"results\""),
            ("\"host\"", "\"hostname\""),
            ("\"mean_ms\":4", "\"mean_ms\":-4"),
            ("\"mean_ms\":4", "\"mean_ms\":1e999"),
            ("\"samples\":3", "\"samples\":2.5"),
            ("\"threads\":1", "\"threads\":\"1\""),
            ("\"case\":\"threads=1\"", "\"case\":1"),
        ] {
            let broken = text.replacen(from, to, 1);
            assert_ne!(broken, text, "{from} occurs");
            assert!(Ledger::parse(&broken).is_err(), "accepted {broken}");
        }
    }

    #[test]
    fn diff_keys_rows_by_family_and_case() {
        let base = ledger();
        let (report, regressions) = diff(&base, &base, Some(0.0));
        assert!(regressions.is_empty());
        assert_eq!(report.matches("+0.0%").count(), base.rows.len());
        let mut cand = ledger();
        cand.rows[1].mean_ms = 3.0; // 50% slower
        cand.rows[2].family = "shard-cold".into();
        let (report, regressions) = diff(&base, &cand, Some(20.0));
        assert_eq!(regressions, [("pool-cold/threads=2".to_string(), 50.0)]);
        assert!(report.contains("gone") && report.contains("new"));
        assert!(diff(&base, &cand, None).1.is_empty());
    }

    #[test]
    fn the_loop_warms_up_then_times_fresh_states() {
        let (mut setups, mut runs) = (0, 0);
        let fresh = || {
            setups += 1;
            Vec::<u8>::new()
        };
        let row = time_with("f", "c", 3, fresh, |state| {
            assert!(state.is_empty(), "each run gets a fresh state");
            state.push(1);
            runs += 1;
        });
        assert_eq!(
            (setups, runs, row.samples, row.key()),
            (4, 4, 3, "f/c".into())
        );
        assert!(
            row.min_ms <= row.mean_ms * (1.0 + 1e-9) && row.mean_ms <= row.max_ms * (1.0 + 1e-9)
        );
        assert_eq!(time("f", "c", 0, || {}).samples, 1);
        assert!(row.clone().per(4).mean_ms <= row.mean_ms);
    }
}
