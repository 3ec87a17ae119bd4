//! The [`WorkloadSource`] trait and the built-in generator-backed sources.
//!
//! A workload source turns a *request* — seed, application count, label —
//! into a submission-ready [`Workload`]. Sources are deterministic: the same
//! request always yields the same workload, which is what makes campaigns
//! reproducible and traces replayable. The experiment harness drives
//! everything (campaigns, µ-sweeps, trace export) through this trait, in the
//! same way the scheduler drives policies through the policy traits.

use crate::arrival::ArrivalProcess;
use crate::daggen::{daggen_ptg, DaggenConfig};
use crate::stream::{GeneratorStream, JobStream, StreamRequest};
use mcsched_core::{SchedError, Workload};
use mcsched_ptg::gen::{fft_ptg, random_ptg, strassen_ptg, RandomPtgConfig};
use mcsched_ptg::Ptg;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One deterministic workload request: which seed to draw from, how many
/// applications, and the name prefix of the generated applications
/// (application `i` is named `{label}-{i}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadRequest {
    /// Seed of the per-request RNG.
    pub seed: u64,
    /// Number of applications to produce.
    pub count: usize,
    /// Name prefix of the generated applications, also attached to the
    /// produced workload as its label.
    pub label: String,
}

impl WorkloadRequest {
    /// Builds a request.
    pub fn new(seed: u64, count: usize, label: impl Into<String>) -> Self {
        Self {
            seed,
            count,
            label: label.into(),
        }
    }
}

/// A deterministic producer of [`Workload`]s.
///
/// Implementations must be pure functions of the request: two calls with an
/// identical [`WorkloadRequest`] return identical workloads.
pub trait WorkloadSource: std::fmt::Debug + Send + Sync {
    /// The canonical spec string of the source, resolvable back through the
    /// [`crate::catalog::WorkloadCatalog`] (e.g. `daggen@n=50,width=0.5`).
    fn spec(&self) -> String;

    /// A short label for scenario names and report headers: the spec up to
    /// the first parameter/arrival separator (e.g. `daggen`).
    fn short_label(&self) -> String {
        let spec = self.spec();
        spec.split(['@', '/', '+'])
            .next()
            .unwrap_or_default()
            .to_string()
    }

    /// Produces the workload of one request.
    ///
    /// # Errors
    ///
    /// [`SchedError`] when the source cannot satisfy the request (invalid
    /// configuration, or a trace that does not contain the request).
    fn generate(&self, request: &WorkloadRequest) -> Result<Workload, SchedError>;

    /// Opens an unbounded lazy [`JobStream`] over the source — the online
    /// scheduler's entry point (see [`crate::stream`] for the determinism
    /// contract). Sources that can only replay finite materialised data
    /// (traces) keep the default refusal.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidConfig`] when the source does not support
    /// streaming or its parameters fail validation.
    fn stream(&self, request: &StreamRequest) -> Result<Box<dyn JobStream>, SchedError> {
        let _ = request;
        Err(SchedError::InvalidConfig(format!(
            "workload source `{}` does not support streaming",
            self.spec()
        )))
    }
}

/// One application-graph generator usable inside a [`GeneratorSource`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AppGenerator {
    /// The legacy paper-grid sampler of [`mcsched_ptg::gen::random`]: each
    /// application draws a configuration uniformly from the paper grid.
    Random,
    /// The DAGGEN-style generator with a fixed configuration.
    Daggen(DaggenConfig),
    /// The DAGGEN-style generator drawing a fresh configuration per
    /// application uniformly from the paper grid — the *calibrated*
    /// counterpart of [`AppGenerator::Random`] for reproducing the paper's
    /// random-PTG figures.
    DaggenGrid,
    /// FFT task graphs; `points` fixes the transform size, `None` draws
    /// uniformly from the paper's {4, 8, 16}.
    Fft {
        /// Number of points of the transform (a power of two ≥ 2).
        points: Option<usize>,
    },
    /// Strassen matrix-multiplication task graphs (fixed 25-task shape).
    Strassen,
}

impl AppGenerator {
    /// Short class label (used in scenario names).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AppGenerator::Random => "random",
            AppGenerator::Daggen(_) => "daggen",
            AppGenerator::DaggenGrid => "daggen-grid",
            AppGenerator::Fft { .. } => "fft",
            AppGenerator::Strassen => "strassen",
        }
    }

    /// The canonical spec fragment of this generator.
    #[must_use]
    pub fn spec(&self) -> String {
        match self {
            AppGenerator::Daggen(cfg) => {
                let costs = match cfg.cost_scenario {
                    mcsched_ptg::gen::CostScenario::Linear => "linear",
                    mcsched_ptg::gen::CostScenario::LogLinear => "loglinear",
                    mcsched_ptg::gen::CostScenario::MatrixProduct => "matrix",
                    mcsched_ptg::gen::CostScenario::Mixed => "mixed",
                };
                format!(
                    "daggen@n={},width={},regularity={},density={},jump={},ccr={},costs={costs}",
                    cfg.num_tasks, cfg.fat, cfg.regularity, cfg.density, cfg.jump, cfg.ccr
                )
            }
            AppGenerator::Fft {
                points: Some(points),
            } => format!("fft@points={points}"),
            AppGenerator::Random
            | AppGenerator::DaggenGrid
            | AppGenerator::Fft { points: None }
            | AppGenerator::Strassen => self.label().to_string(),
        }
    }

    /// Validates the generator parameters.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidConfig`] when a parameter is outside its domain.
    pub fn validate(&self) -> Result<(), SchedError> {
        match self {
            AppGenerator::Daggen(cfg) => cfg.validate(),
            AppGenerator::Fft {
                points: Some(points),
            } if *points < 2 || !points.is_power_of_two() => Err(SchedError::InvalidConfig(
                format!("fft: points {points} must be a power of two ≥ 2"),
            )),
            _ => Ok(()),
        }
    }

    /// Draws one application graph.
    ///
    /// * `Random` — a configuration drawn uniformly from the paper's
    ///   parameter grid (10/20/50 tasks, width/regularity/density/jumps).
    /// * `Fft { points: None }` — 4, 8 or 16 points, drawn uniformly.
    /// * `Strassen` — the fixed 25-task shape with random costs.
    pub fn sample<R: Rng>(&self, rng: &mut R, name: impl Into<String>) -> Ptg {
        match self {
            AppGenerator::Random => {
                let cfg = RandomPtgConfig::sample_paper_grid(rng);
                random_ptg(&cfg, rng, name)
            }
            AppGenerator::Daggen(cfg) => daggen_ptg(cfg, rng, name),
            AppGenerator::DaggenGrid => {
                let cfg = DaggenConfig::sample_paper_grid(rng);
                daggen_ptg(&cfg, rng, name)
            }
            AppGenerator::Fft { points: None } => {
                let points = [4usize, 8, 16][rng.gen_range(0..3)];
                fft_ptg(points, rng, name)
            }
            AppGenerator::Fft {
                points: Some(points),
            } => fft_ptg(*points, rng, name),
            AppGenerator::Strassen => strassen_ptg(rng, name),
        }
    }
}

/// A [`WorkloadSource`] backed by one or more [`AppGenerator`]s and an
/// [`ArrivalProcess`]. With several generators, application `i` of a request
/// uses generator `i mod k` (a deterministic round-robin mixture, e.g.
/// `random+fft`); release times are drawn after all graphs from the same
/// request RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorSource {
    generators: Vec<AppGenerator>,
    arrival: ArrivalProcess,
}

impl GeneratorSource {
    /// A single-generator batch source.
    #[must_use]
    pub fn new(generator: AppGenerator) -> Self {
        Self {
            generators: vec![generator],
            arrival: ArrivalProcess::Batch,
        }
    }

    /// A round-robin mixture of generators.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidConfig`] when `generators` is empty or one of
    /// them fails validation.
    pub fn mixed(generators: Vec<AppGenerator>) -> Result<Self, SchedError> {
        if generators.is_empty() {
            return Err(SchedError::InvalidConfig(
                "a workload source needs at least one generator".into(),
            ));
        }
        for g in &generators {
            g.validate()?;
        }
        Ok(Self {
            generators,
            arrival: ArrivalProcess::Batch,
        })
    }

    /// Replaces the arrival process.
    #[must_use]
    pub fn with_arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.arrival = arrival;
        self
    }

    /// The generators of the source, in round-robin order.
    #[must_use]
    pub fn generators(&self) -> &[AppGenerator] {
        &self.generators
    }

    /// The arrival process of the source.
    #[must_use]
    pub fn arrival(&self) -> ArrivalProcess {
        self.arrival
    }
}

impl WorkloadSource for GeneratorSource {
    fn spec(&self) -> String {
        let apps: Vec<String> = self.generators.iter().map(AppGenerator::spec).collect();
        let mut spec = apps.join("+");
        if self.arrival != ArrivalProcess::Batch {
            spec.push('/');
            spec.push_str(&self.arrival.spec());
        }
        spec
    }

    fn short_label(&self) -> String {
        if self.generators.len() == 1 {
            self.generators[0].label().to_string()
        } else {
            "mixed".to_string()
        }
    }

    fn generate(&self, request: &WorkloadRequest) -> Result<Workload, SchedError> {
        for g in &self.generators {
            g.validate()?;
        }
        self.arrival.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(request.seed);
        let ptgs: Vec<Ptg> = (0..request.count)
            .map(|i| {
                let generator = &self.generators[i % self.generators.len()];
                generator.sample(&mut rng, format!("{}-{}", request.label, i))
            })
            .collect();
        let release_times = self.arrival.release_times(request.count, &mut rng);
        Ok(Workload::released(ptgs, release_times)?.with_label(request.label.clone()))
    }

    fn stream(&self, request: &StreamRequest) -> Result<Box<dyn JobStream>, SchedError> {
        Ok(Box::new(GeneratorStream::new(self, request)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(AppGenerator::Random.label(), "random");
        assert_eq!(
            AppGenerator::Daggen(DaggenConfig::new(20)).label(),
            "daggen"
        );
        assert_eq!(AppGenerator::DaggenGrid.label(), "daggen-grid");
        assert_eq!(AppGenerator::Fft { points: None }.label(), "fft");
        assert_eq!(AppGenerator::Strassen.label(), "strassen");
    }

    #[test]
    fn sample_each_class_produces_valid_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for generator in [
            AppGenerator::Random,
            AppGenerator::DaggenGrid,
            AppGenerator::Fft { points: None },
            AppGenerator::Strassen,
        ] {
            let g = generator.sample(&mut rng, "app");
            assert!(g.num_tasks() > 0, "{}", generator.spec());
            assert!(g.total_work() > 0.0, "{}", generator.spec());
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        for generator in [AppGenerator::Random, AppGenerator::Fft { points: None }] {
            let g1 = generator.sample(&mut ChaCha8Rng::seed_from_u64(3), "a");
            let g2 = generator.sample(&mut ChaCha8Rng::seed_from_u64(3), "a");
            assert_eq!(g1, g2, "{}", generator.spec());
        }
    }

    #[test]
    fn legacy_class_source_matches_direct_sampling() {
        // The contract with the committed figures: the random class makes
        // these generator calls, in this order, on the request RNG.
        let request = WorkloadRequest::new(1234, 3, "random-0");
        let workload = GeneratorSource::new(AppGenerator::Random)
            .generate(&request)
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1234);
        let direct: Vec<Ptg> = (0..3)
            .map(|i| {
                let cfg = RandomPtgConfig::sample_paper_grid(&mut rng);
                random_ptg(&cfg, &mut rng, format!("random-0-{i}"))
            })
            .collect();
        assert_eq!(workload.ptgs(), direct.as_slice());
        assert!(workload.is_batch());
        assert_eq!(workload.label(), Some("random-0"));
    }

    #[test]
    fn generation_is_deterministic_across_runs() {
        let source = GeneratorSource::new(AppGenerator::Daggen(DaggenConfig::new(20)))
            .with_arrival(ArrivalProcess::Poisson { lambda: 0.01 });
        let request = WorkloadRequest::new(77, 4, "w");
        assert_eq!(
            source.generate(&request).unwrap(),
            source.generate(&request).unwrap()
        );
    }

    #[test]
    fn mixture_round_robins_generators() {
        let source = GeneratorSource::mixed(vec![
            AppGenerator::Strassen,
            AppGenerator::Fft { points: Some(4) },
        ])
        .unwrap();
        let workload = source.generate(&WorkloadRequest::new(5, 4, "mix")).unwrap();
        // Strassen graphs have 25 tasks, 4-point FFTs 15.
        let sizes: Vec<usize> = workload.ptgs().iter().map(Ptg::num_tasks).collect();
        assert_eq!(sizes, vec![25, 15, 25, 15]);
        assert_eq!(source.short_label(), "mixed");
    }

    #[test]
    fn fixed_fft_points_are_honoured() {
        let source = GeneratorSource::new(AppGenerator::Fft { points: Some(8) });
        let workload = source.generate(&WorkloadRequest::new(9, 2, "fft")).unwrap();
        for ptg in workload.ptgs() {
            assert_eq!(ptg.num_tasks(), 39); // 2m−1 + m·log2(m) for m = 8
        }
    }

    #[test]
    fn timed_arrivals_produce_released_workloads() {
        let source =
            GeneratorSource::new(AppGenerator::Strassen).with_arrival(ArrivalProcess::Bursty {
                burst: 2,
                gap: 50.0,
            });
        let workload = source.generate(&WorkloadRequest::new(3, 4, "b")).unwrap();
        assert!(!workload.is_batch());
        assert_eq!(workload.release_times(), &[0.0, 0.0, 50.0, 50.0]);
    }

    #[test]
    fn invalid_generators_error_out() {
        assert!(GeneratorSource::mixed(vec![]).is_err());
        let source = GeneratorSource::new(AppGenerator::Fft { points: Some(3) });
        assert!(matches!(
            source.generate(&WorkloadRequest::new(1, 1, "x")),
            Err(SchedError::InvalidConfig(_))
        ));
    }

    #[test]
    fn specs_are_canonical_and_carry_the_arrival() {
        let source = GeneratorSource::new(AppGenerator::Random);
        assert_eq!(source.spec(), "random");
        assert_eq!(source.short_label(), "random");
        let timed = GeneratorSource::mixed(vec![
            AppGenerator::Random,
            AppGenerator::Fft { points: Some(8) },
        ])
        .unwrap()
        .with_arrival(ArrivalProcess::Poisson { lambda: 0.5 });
        assert_eq!(timed.spec(), "random+fft@points=8/poisson@lambda=0.5");
    }
}
