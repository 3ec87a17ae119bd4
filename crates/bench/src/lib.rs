//! # mcsched-bench
//!
//! The benchmark snapshot binaries and their comparison tool:
//!
//! * `bench_policies`, `bench_workload`, `bench_runtime`, `bench_simx` and
//!   `bench_online` time one layer or one end-to-end path each and write
//!   the committed `BENCH_*.json` ledgers;
//! * `mcsched-bench-diff` compares a fresh snapshot against a committed one.
//!
//! Every snapshot embeds [`host`] metadata, so each committed record names
//! the machine — and the measured disabled-observability overhead — it
//! came from.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod host {
    //! Host metadata embedded in every `BENCH_*.json` snapshot: the
    //! machine's shape (parallelism, OS, architecture) plus a measured
    //! per-call cost of a *disabled* `mcsched_obs::span!` site — the
    //! "zero-cost when off" claim as a number in the committed record.

    use mcsched_obs::json::Json;
    use std::time::Instant;

    /// Mean cost, in nanoseconds, of one **disabled** `span!` call site
    /// (no collector installed on the thread: one thread-local read plus a
    /// jump), measured over `iters` calls. Fields are not evaluated on the
    /// disabled path, so this is the overhead every instrumented hot loop
    /// pays when observability is off.
    #[must_use]
    pub fn obs_disabled_span_ns(iters: u64) -> f64 {
        mcsched_obs::disable_tracing();
        let start = Instant::now();
        for i in 0..iters {
            let span = mcsched_obs::span!("bench-probe", "i" = i);
            std::hint::black_box(&span);
        }
        start.elapsed().as_nanos() as f64 / iters.max(1) as f64
    }

    /// The `"host"` object of a snapshot. The overhead probe runs 10⁶
    /// disabled span sites (sub-millisecond on anything).
    #[must_use]
    pub fn host_json() -> Json {
        let parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let ns = obs_disabled_span_ns(1_000_000);
        Json::Obj(vec![
            ("available_parallelism".into(), Json::num_usize(parallelism)),
            ("os".into(), Json::Str(std::env::consts::OS.into())),
            ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
            (
                "obs_disabled_span_ns".into(),
                Json::num_f64((ns * 100.0).round() / 100.0),
            ),
        ])
    }

    /// [`host_json`] rendered as a compact JSON string, for the snapshot
    /// writers that hand-roll their documents.
    #[must_use]
    pub fn host_json_string() -> String {
        host_json().render()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn host_metadata_is_well_formed() {
            let rendered = host_json_string();
            let parsed = Json::parse(&rendered).expect("host metadata parses");
            assert!(parsed.get("available_parallelism").unwrap().as_usize() >= Some(1));
            assert_eq!(
                parsed.get("os").unwrap().as_str(),
                Some(std::env::consts::OS)
            );
            let ns = parsed
                .get("obs_disabled_span_ns")
                .unwrap()
                .as_f64()
                .unwrap();
            assert!(
                (0.0..1e4).contains(&ns),
                "disabled span cost {ns} ns is sane"
            );
        }
    }
}
