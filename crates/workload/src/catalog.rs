//! Name-resolvable catalog of workload sources, mirroring the scheduler's
//! `PolicyRegistry`.
//!
//! ## Spec grammar
//!
//! ```text
//! spec      := sources [ "/" arrival ]         e.g.  daggen@n=50,width=0.5/poisson@lambda=0.1
//! sources   := generator { "+" generator }     e.g.  random+fft@points=8
//! generator := name [ "@" params ]             e.g.  daggen@n=50,width=0.5
//! arrival   := name [ "@" params ]             e.g.  poisson@lambda=0.1
//! params    := key "=" value { "," key "=" value }
//! ```
//!
//! Built-in generator names: `random` (legacy paper-grid sampler), `daggen`
//! (DAGGEN-style, parameters `n`, `width`/`fat`, `regularity`, `density`,
//! `jump`, `ccr`, `costs`), `daggen-grid` (DAGGEN-style with a fresh
//! paper-grid configuration per application — the calibrated counterpart of
//! `random`), `fft` (`points`), `strassen`. Built-in arrival
//! names: `batch`, `poisson` (`lambda`), `uniform` (`lo`, `hi`), `bursty`
//! (`burst`, `gap`). A bare arrival spec such as `poisson@lambda=0.1`
//! resolves to the default `random` source with that arrival, so the catalog
//! answers both of the ISSUE's example names. Names are case-insensitive;
//! user sources register with [`WorkloadCatalog::register`].

use crate::arrival::ArrivalProcess;
use crate::daggen::DaggenConfig;
use crate::source::{AppGenerator, GeneratorSource, WorkloadSource};
use mcsched_core::{PolicyKind, SchedError};
use mcsched_ptg::gen::CostScenario;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Factory of a user-registered source: receives the parameter fragment
/// (everything after `@`, possibly empty) and the arrival process of the
/// spec.
pub type SourceFactory =
    Arc<dyn Fn(&str, ArrivalProcess) -> Result<Arc<dyn WorkloadSource>, SchedError> + Send + Sync>;

/// A registry resolving workload spec strings to [`WorkloadSource`]s.
#[derive(Clone, Default)]
pub struct WorkloadCatalog {
    custom: BTreeMap<String, SourceFactory>,
}

impl std::fmt::Debug for WorkloadCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadCatalog")
            .field("sources", &self.source_names())
            .field("arrivals", &Self::arrival_names())
            .finish()
    }
}

impl WorkloadCatalog {
    /// The catalog with the built-in generators and arrival processes.
    #[must_use]
    pub fn builtin() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a custom source under `name`
    /// (case-insensitive). Custom names shadow built-ins and cannot
    /// participate in `+` mixtures.
    pub fn register(&mut self, name: impl Into<String>, factory: SourceFactory) {
        self.custom.insert(name.into().to_lowercase(), factory);
    }

    /// The resolvable source names: built-in generators, arrival shortcuts
    /// and custom registrations.
    #[must_use]
    fn source_names(&self) -> Vec<String> {
        let mut names: Vec<String> = ["random", "daggen", "daggen-grid", "fft", "strassen"]
            .iter()
            .map(ToString::to_string)
            .collect();
        names.extend(Self::arrival_names());
        names.extend(self.custom.keys().cloned());
        names.sort();
        names.dedup();
        names
    }

    /// The built-in arrival-process names.
    #[must_use]
    fn arrival_names() -> Vec<String> {
        ["batch", "poisson", "uniform", "bursty"]
            .iter()
            .map(ToString::to_string)
            .collect()
    }

    /// Resolves a spec string (see the [module docs](self) for the grammar).
    ///
    /// # Errors
    ///
    /// [`SchedError::UnknownPolicy`] for unknown names,
    /// [`SchedError::InvalidConfig`] for malformed parameters.
    pub fn resolve(&self, spec: &str) -> Result<Arc<dyn WorkloadSource>, SchedError> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err(SchedError::InvalidConfig("empty workload spec".to_string()));
        }
        let (source_part, arrival_part) = match spec.split_once('/') {
            Some((s, a)) => (s.trim(), Some(a.trim())),
            None => (spec, None),
        };
        let arrival = match arrival_part {
            Some(a) => parse_arrival(a)?,
            None => ArrivalProcess::Batch,
        };

        if !source_part.contains('+') {
            let head = head_of(source_part);
            // Custom sources shadow built-ins — including the bare-arrival
            // shortcut names below (single-generator specs only).
            if let Some(factory) = self.custom.get(&head) {
                arrival.validate()?;
                let params = source_part.split_once('@').map_or("", |(_, params)| params);
                return factory(params, arrival);
            }
            // A bare arrival spec (`poisson@lambda=0.1`) selects the default
            // random source with that arrival.
            if arrival_part.is_none() && Self::arrival_names().contains(&head) {
                let arrival = parse_arrival(source_part)?;
                arrival.validate()?;
                return Ok(Arc::new(
                    GeneratorSource::new(AppGenerator::Random).with_arrival(arrival),
                ));
            }
        }
        arrival.validate()?;

        let generators = source_part
            .split('+')
            .map(|fragment| self.parse_generator(fragment.trim()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Arc::new(
            GeneratorSource::mixed(generators)?.with_arrival(arrival),
        ))
    }

    fn parse_generator(&self, fragment: &str) -> Result<AppGenerator, SchedError> {
        let (name, _) = split_name(fragment);
        let params = Params::parse(&params_str(fragment))?;
        let generator = match name.as_str() {
            "random" => {
                params.expect_keys(&[])?;
                AppGenerator::Random
            }
            "strassen" => {
                params.expect_keys(&[])?;
                AppGenerator::Strassen
            }
            "daggen-grid" => {
                params.expect_keys(&[])?;
                AppGenerator::DaggenGrid
            }
            "fft" => {
                params.expect_keys(&["points"])?;
                AppGenerator::Fft {
                    points: params.get_usize("points")?,
                }
            }
            "daggen" => {
                params.expect_keys(&[
                    "n",
                    "width",
                    "fat",
                    "regularity",
                    "density",
                    "jump",
                    "ccr",
                    "costs",
                ])?;
                let mut cfg = DaggenConfig::new(params.get_usize("n")?.unwrap_or(20));
                // `width` is the paper's name for DAGGEN's `fat`.
                if let Some(fat) = params.get_f64("width")?.or(params.get_f64("fat")?) {
                    cfg.fat = fat;
                }
                if let Some(v) = params.get_f64("regularity")? {
                    cfg.regularity = v;
                }
                if let Some(v) = params.get_f64("density")? {
                    cfg.density = v;
                }
                if let Some(v) = params.get_usize("jump")? {
                    cfg.jump = v;
                }
                if let Some(v) = params.get_f64("ccr")? {
                    cfg.ccr = v;
                }
                if let Some(costs) = params.get_str("costs") {
                    cfg.cost_scenario = match costs {
                        "linear" => CostScenario::Linear,
                        "loglinear" => CostScenario::LogLinear,
                        "matrix" => CostScenario::MatrixProduct,
                        "mixed" => CostScenario::Mixed,
                        other => {
                            return Err(SchedError::InvalidConfig(format!(
                                "daggen: unknown cost scenario `{other}` \
                                 (expected linear, loglinear, matrix or mixed)"
                            )))
                        }
                    };
                }
                AppGenerator::Daggen(cfg)
            }
            _ => {
                return Err(SchedError::UnknownPolicy {
                    kind: PolicyKind::WorkloadSource,
                    name: name.clone(),
                    known: self.source_names(),
                })
            }
        };
        generator.validate()?;
        Ok(generator)
    }
}

fn head_of(fragment: &str) -> String {
    split_name(fragment).0
}

fn split_name(fragment: &str) -> (String, Option<String>) {
    match fragment.split_once('@') {
        Some((name, params)) => (name.trim().to_lowercase(), Some(params.to_string())),
        None => (fragment.trim().to_lowercase(), None),
    }
}

fn params_str(fragment: &str) -> String {
    fragment
        .split_once('@')
        .map_or(String::new(), |(_, p)| p.to_string())
}

fn parse_arrival(fragment: &str) -> Result<ArrivalProcess, SchedError> {
    let (name, _) = split_name(fragment);
    let params = Params::parse(&params_str(fragment))?;
    let arrival = match name.as_str() {
        "batch" => {
            params.expect_keys(&[])?;
            ArrivalProcess::Batch
        }
        "poisson" => {
            params.expect_keys(&["lambda"])?;
            ArrivalProcess::Poisson {
                lambda: params.get_f64("lambda")?.unwrap_or(0.01),
            }
        }
        "uniform" => {
            params.expect_keys(&["lo", "hi"])?;
            ArrivalProcess::Uniform {
                lo: params.get_f64("lo")?.unwrap_or(0.0),
                hi: params.get_f64("hi")?.unwrap_or(100.0),
            }
        }
        "bursty" => {
            params.expect_keys(&["burst", "gap"])?;
            ArrivalProcess::Bursty {
                burst: params.get_usize("burst")?.unwrap_or(2),
                gap: params.get_f64("gap")?.unwrap_or(100.0),
            }
        }
        _ => {
            return Err(SchedError::UnknownPolicy {
                kind: PolicyKind::WorkloadSource,
                name,
                known: WorkloadCatalog::arrival_names(),
            })
        }
    };
    arrival.validate()?;
    Ok(arrival)
}

/// Parsed `key=value` parameter list.
struct Params {
    entries: Vec<(String, String)>,
}

impl Params {
    fn parse(text: &str) -> Result<Self, SchedError> {
        let mut entries = Vec::new();
        for item in text.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = item.split_once('=').ok_or_else(|| {
                SchedError::InvalidConfig(format!(
                    "malformed parameter `{item}` (expected key=value)"
                ))
            })?;
            entries.push((key.trim().to_lowercase(), value.trim().to_string()));
        }
        Ok(Self { entries })
    }

    fn expect_keys(&self, allowed: &[&str]) -> Result<(), SchedError> {
        for (key, _) in &self.entries {
            if !allowed.contains(&key.as_str()) {
                return Err(SchedError::InvalidConfig(format!(
                    "unknown parameter `{key}` (expected one of: {})",
                    if allowed.is_empty() {
                        "none".to_string()
                    } else {
                        allowed.join(", ")
                    }
                )));
            }
        }
        Ok(())
    }

    fn get_str(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_f64(&self, key: &str) -> Result<Option<f64>, SchedError> {
        self.get_str(key)
            .map(|v| {
                v.parse::<f64>().map_err(|_| {
                    SchedError::InvalidConfig(format!("parameter `{key}={v}` is not a number"))
                })
            })
            .transpose()
    }

    fn get_usize(&self, key: &str) -> Result<Option<usize>, SchedError> {
        self.get_str(key)
            .map(|v| {
                v.parse::<usize>().map_err(|_| {
                    SchedError::InvalidConfig(format!("parameter `{key}={v}` is not an integer"))
                })
            })
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::WorkloadRequest;

    #[test]
    fn resolves_the_issue_example_specs() {
        let catalog = WorkloadCatalog::builtin();
        let daggen = catalog.resolve("daggen@n=50,width=0.5").unwrap();
        assert_eq!(daggen.short_label(), "daggen");
        let w = daggen.generate(&WorkloadRequest::new(1, 2, "d")).unwrap();
        assert_eq!(w.ptgs()[0].num_tasks(), 50);

        let poisson = catalog.resolve("poisson@lambda=0.1").unwrap();
        let w = poisson.generate(&WorkloadRequest::new(1, 3, "p")).unwrap();
        assert!(!w.is_batch());
        assert_eq!(poisson.short_label(), "random");
    }

    #[test]
    fn resolves_mixtures_and_arrival_suffixes() {
        let catalog = WorkloadCatalog::builtin();
        let source = catalog
            .resolve("strassen+fft@points=4/bursty@burst=2,gap=10")
            .unwrap();
        let w = source.generate(&WorkloadRequest::new(3, 4, "m")).unwrap();
        assert_eq!(w.ptgs()[0].num_tasks(), 25);
        assert_eq!(w.ptgs()[1].num_tasks(), 15);
        assert_eq!(w.release_times(), &[0.0, 0.0, 10.0, 10.0]);
    }

    #[test]
    fn canonical_specs_round_trip_through_the_catalog() {
        let catalog = WorkloadCatalog::builtin();
        for spec in [
            "random",
            "strassen",
            "fft@points=8",
            "daggen@n=10,width=0.2,regularity=0.2,density=0.8,jump=2,ccr=1,costs=mixed",
            "random+fft@points=8/poisson@lambda=0.5",
        ] {
            let source = catalog.resolve(spec).unwrap();
            let canonical = source.spec();
            let again = catalog.resolve(&canonical).unwrap();
            assert_eq!(again.spec(), canonical, "spec `{spec}`");
        }
    }

    #[test]
    fn unknown_names_report_the_known_catalog() {
        let catalog = WorkloadCatalog::builtin();
        match catalog.resolve("bogus@x=1") {
            Err(SchedError::UnknownPolicy { kind, name, known }) => {
                assert_eq!(kind, PolicyKind::WorkloadSource);
                assert_eq!(name, "bogus");
                assert!(known.contains(&"daggen".to_string()));
            }
            other => panic!("expected UnknownPolicy, got {other:?}"),
        }
    }

    #[test]
    fn malformed_parameters_are_rejected() {
        let catalog = WorkloadCatalog::builtin();
        assert!(matches!(
            catalog.resolve("daggen@n"),
            Err(SchedError::InvalidConfig(_))
        ));
        assert!(matches!(
            catalog.resolve("daggen@n=abc"),
            Err(SchedError::InvalidConfig(_))
        ));
        assert!(matches!(
            catalog.resolve("daggen@bogus=1"),
            Err(SchedError::InvalidConfig(_))
        ));
        assert!(matches!(
            catalog.resolve("fft@points=5"),
            Err(SchedError::InvalidConfig(_))
        ));
        assert!(matches!(
            catalog.resolve("poisson@lambda=-1"),
            Err(SchedError::InvalidConfig(_))
        ));
        assert!(matches!(
            catalog.resolve(""),
            Err(SchedError::InvalidConfig(_))
        ));
        assert!(matches!(
            catalog.resolve("random/never@x=1"),
            Err(SchedError::UnknownPolicy { .. })
        ));
    }

    #[test]
    fn case_insensitive_names() {
        let catalog = WorkloadCatalog::builtin();
        assert!(catalog.resolve("DAGGEN@N=10").is_ok());
        assert!(catalog.resolve("Random").is_ok());
    }

    #[test]
    fn custom_sources_register_and_shadow() {
        let mut catalog = WorkloadCatalog::builtin();
        catalog.register(
            "fixture",
            Arc::new(|params, arrival| {
                assert_eq!(params, "k=1");
                Ok(Arc::new(
                    GeneratorSource::new(AppGenerator::Strassen).with_arrival(arrival),
                ))
            }),
        );
        assert!(catalog.source_names().contains(&"fixture".to_string()));
        let source = catalog.resolve("fixture@k=1/poisson@lambda=1").unwrap();
        let w = source.generate(&WorkloadRequest::new(2, 2, "f")).unwrap();
        assert_eq!(w.ptgs()[0].num_tasks(), 25);
        assert!(!w.is_batch());
    }

    #[test]
    fn custom_sources_shadow_arrival_shortcut_names() {
        // A registration under an arrival name must win over the bare-arrival
        // shortcut, or the user's workload would silently be replaced by the
        // default random source.
        let mut catalog = WorkloadCatalog::builtin();
        catalog.register(
            "poisson",
            Arc::new(|params, arrival| {
                assert_eq!(params, "lambda=5");
                assert_eq!(arrival, ArrivalProcess::Batch);
                Ok(Arc::new(GeneratorSource::new(AppGenerator::Strassen)))
            }),
        );
        let source = catalog.resolve("poisson@lambda=5").unwrap();
        let w = source.generate(&WorkloadRequest::new(2, 1, "p")).unwrap();
        assert_eq!(w.ptgs()[0].num_tasks(), 25); // Strassen, not random
    }

    #[test]
    fn debug_lists_names() {
        let catalog = WorkloadCatalog::builtin();
        let dbg = format!("{catalog:?}");
        assert!(dbg.contains("daggen"));
        assert!(dbg.contains("poisson"));
    }
}
