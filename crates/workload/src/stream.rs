//! Lazy, bounded-memory job streaming for the online scheduler.
//!
//! The batch path ([`crate::WorkloadSource::generate`]) materialises every
//! PTG of a request up front — fine for the paper's 2–30 application
//! snapshots, fatal for an open-system run that streams 10⁵–10⁶ jobs. A
//! [`JobStream`] splits arrival *timing* from graph *materialisation*:
//!
//! * [`JobStream::next_arrival`] advances the arrival process one job and
//!   returns only its index and release time (a few bytes);
//! * [`JobStream::materialize`] builds the PTG of one arrival on demand, as
//!   a pure function of `(stream seed, job index)`.
//!
//! The split is what makes admission control free: a job shed by the online
//! scheduler's bounded queue is *never generated*, and a completed job's
//! graph can be dropped immediately, so peak resident graphs are bounded by
//! queue capacity plus the in-flight set no matter how long the run is.
//!
//! ## Determinism contract
//!
//! A stream is a pure function of `(source spec, seed, label)`: the `i`-th
//! arrival and the `i`-th graph are reproduced exactly across runs, threads
//! and processes. Graph seeding is *per job* (a SplitMix64 stream derived
//! from the stream seed and the job index) rather than one shared RNG, so
//! materialisation order cannot matter. This intentionally differs from the
//! batch draw sequence of [`crate::WorkloadSource::generate`], which threads
//! one RNG through all graphs of a request — batch figures keep their bytes,
//! streaming gets order-independence.

use crate::arrival::ReleaseIter;
use crate::source::{AppGenerator, GeneratorSource};
use mcsched_core::SchedError;
use mcsched_ptg::Ptg;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One streamed job request: the seed of the stream and the name prefix of
/// the generated applications (job `i` is named `{label}-{i}`), mirroring
/// [`crate::WorkloadRequest`] minus the up-front count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRequest {
    /// Seed of the stream; arrival draws and per-job graph seeds both derive
    /// from it (through distinct SplitMix64 domains).
    pub seed: u64,
    /// Name prefix of the generated applications.
    pub label: String,
}

impl StreamRequest {
    /// Builds a stream request.
    pub fn new(seed: u64, label: impl Into<String>) -> Self {
        Self {
            seed,
            label: label.into(),
        }
    }
}

/// One arrival announced by a [`JobStream`]: which job, and when. The graph
/// itself is materialised separately (or never, if the job is shed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Zero-based stream index of the job.
    pub index: u64,
    /// Absolute release time of the job (non-decreasing along the stream).
    pub release_time: f64,
}

/// A lazy, unbounded stream of arriving jobs (see the module docs for the
/// determinism contract and the timing/materialisation split).
pub trait JobStream: Send {
    /// Advances the arrival process one job. Generator-backed streams never
    /// end; `None` is reserved for finite streams (e.g. trace replay).
    fn next_arrival(&mut self) -> Option<Arrival>;

    /// Materialises the PTG of one announced arrival — a pure function of
    /// the stream seed and `arrival.index`, so it may be called lazily, out
    /// of order, or not at all.
    fn materialize(&self, arrival: &Arrival) -> Ptg;
}

/// SplitMix64 finalizer: the per-domain / per-job seed mixer.
const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Domain separator for the arrival-time RNG stream.
const ARRIVAL_DOMAIN: u64 = 0x6172_7269_7661_6c73; // "arrivals"
/// Domain separator for per-job graph RNG streams.
const GRAPH_DOMAIN: u64 = 0x6772_6170_6873_2121; // "graphs!!"

/// The [`JobStream`] of a [`GeneratorSource`]: an unbounded
/// [`ReleaseIter`] for timing plus per-job seeded graph draws, round-robin
/// across the source's generators exactly like the batch path.
#[derive(Debug)]
pub struct GeneratorStream {
    generators: Vec<AppGenerator>,
    releases: ReleaseIter<ChaCha8Rng>,
    seed: u64,
    label: String,
    next_index: u64,
}

impl GeneratorStream {
    /// Builds the stream of `source` for one request, validating the
    /// generators and the arrival process.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidConfig`] when a generator or the arrival process
    /// fails validation.
    pub fn new(source: &GeneratorSource, request: &StreamRequest) -> Result<Self, SchedError> {
        for g in source.generators() {
            g.validate()?;
        }
        source.arrival().validate()?;
        let arrival_rng = ChaCha8Rng::seed_from_u64(splitmix64(request.seed ^ ARRIVAL_DOMAIN));
        Ok(Self {
            generators: source.generators().to_vec(),
            releases: source.arrival().release_iter(arrival_rng),
            seed: request.seed,
            label: request.label.clone(),
            next_index: 0,
        })
    }
}

impl JobStream for GeneratorStream {
    fn next_arrival(&mut self) -> Option<Arrival> {
        let index = self.next_index;
        self.next_index += 1;
        // ReleaseIter is unbounded; `expect` documents the invariant.
        let release_time = self.releases.next().expect("release_iter is unbounded");
        Some(Arrival {
            index,
            release_time,
        })
    }

    fn materialize(&self, arrival: &Arrival) -> Ptg {
        let generator = &self.generators[(arrival.index % self.generators.len() as u64) as usize];
        let job_seed = splitmix64(self.seed ^ GRAPH_DOMAIN ^ splitmix64(arrival.index));
        let mut rng = ChaCha8Rng::seed_from_u64(job_seed);
        generator.sample(&mut rng, format!("{}-{}", self.label, arrival.index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use crate::daggen::DaggenConfig;
    use crate::source::{WorkloadRequest, WorkloadSource};
    use mcsched_core::Workload;

    /// Collects the first `count` jobs of a stream into a [`Workload`], to
    /// inspect a stream prefix with the batch tooling.
    fn collect_prefix(
        source: &dyn WorkloadSource,
        request: &StreamRequest,
        count: usize,
    ) -> Result<Workload, SchedError> {
        let mut stream = source.stream(request)?;
        let mut ptgs = Vec::with_capacity(count);
        let mut release_times = Vec::with_capacity(count);
        for _ in 0..count {
            let Some(arrival) = stream.next_arrival() else {
                break;
            };
            ptgs.push(stream.materialize(&arrival));
            release_times.push(arrival.release_time);
        }
        Ok(Workload::released(ptgs, release_times)?.with_label(request.label.clone()))
    }

    fn poisson_source() -> GeneratorSource {
        GeneratorSource::new(AppGenerator::Daggen(DaggenConfig::new(10)))
            .with_arrival(ArrivalProcess::Poisson { lambda: 0.5 })
    }

    #[test]
    fn stream_is_deterministic_and_order_independent() {
        let source = poisson_source();
        let request = StreamRequest::new(11, "s");
        let mut a = GeneratorStream::new(&source, &request).unwrap();
        let mut b = GeneratorStream::new(&source, &request).unwrap();
        let arrivals_a: Vec<Arrival> = (0..20).map(|_| a.next_arrival().unwrap()).collect();
        let arrivals_b: Vec<Arrival> = (0..20).map(|_| b.next_arrival().unwrap()).collect();
        assert_eq!(arrivals_a, arrivals_b);
        // Materialisation out of order (and skipping sheds) changes nothing.
        let forward: Vec<Ptg> = arrivals_a.iter().map(|x| a.materialize(x)).collect();
        let backward: Vec<Ptg> = arrivals_b.iter().rev().map(|x| b.materialize(x)).collect();
        for (i, ptg) in forward.iter().enumerate() {
            assert_eq!(*ptg, backward[19 - i]);
        }
    }

    #[test]
    fn arrivals_are_non_decreasing_and_anchored_at_zero() {
        let source = poisson_source();
        let mut stream = GeneratorStream::new(&source, &StreamRequest::new(3, "s")).unwrap();
        let mut last = 0.0;
        for i in 0..100u64 {
            let arrival = stream.next_arrival().unwrap();
            assert_eq!(arrival.index, i);
            assert!(arrival.release_time >= last);
            last = arrival.release_time;
        }
        assert!(last > 0.0);
    }

    #[test]
    fn mixtures_round_robin_like_the_batch_path() {
        let source = GeneratorSource::mixed(vec![
            AppGenerator::Strassen,
            AppGenerator::Fft { points: Some(4) },
        ])
        .unwrap();
        let workload = collect_prefix(&source, &StreamRequest::new(5, "mix"), 4).unwrap();
        let sizes: Vec<usize> = workload.ptgs().iter().map(Ptg::num_tasks).collect();
        assert_eq!(sizes, vec![25, 15, 25, 15]);
        assert_eq!(workload.ptgs()[3].name(), "mix-3");
    }

    #[test]
    fn different_seeds_diverge() {
        let source = poisson_source();
        let a = collect_prefix(&source, &StreamRequest::new(1, "s"), 5).unwrap();
        let b = collect_prefix(&source, &StreamRequest::new(2, "s"), 5).unwrap();
        assert_ne!(a.ptgs(), b.ptgs());
        assert_ne!(a.release_times(), b.release_times());
    }

    #[test]
    fn invalid_sources_refuse_to_stream() {
        let source = GeneratorSource::new(AppGenerator::Fft { points: Some(3) });
        assert!(GeneratorStream::new(&source, &StreamRequest::new(1, "x")).is_err());
    }

    #[test]
    fn batch_request_bridge_matches_stream_prefix() {
        // collect_prefix mirrors WorkloadRequest labelling conventions.
        let source = poisson_source();
        let request = StreamRequest::new(8, "w");
        let workload = collect_prefix(&source, &request, 3).unwrap();
        assert_eq!(workload.label(), Some("w"));
        assert_eq!(workload.ptgs().len(), 3);
        let batch = source.generate(&WorkloadRequest::new(8, 3, "w")).unwrap();
        // Streaming is per-job seeded, intentionally NOT the batch bytes.
        assert_ne!(workload.ptgs(), batch.ptgs());
    }
}
