//! # mcsched-bench
//!
//! One binary, `mcsched-bench`, times one layer or one end-to-end path per
//! subcommand and writes it as a `BENCH_<family>.json` ledger, or compares
//! two ledgers:
//!
//! ```text
//! mcsched-bench <policies|workload|runtime|simx|online|mapping|allocation>
//!               [--iterations N] [--smoke] [--out PATH]
//! mcsched-bench runtime [..] [--threads N,N,..]
//! mcsched-bench diff <baseline.json> <candidate.json> [--max-regress PCT]
//! ```
//!
//! Every family writes the one schema of the [`ledger`] module through
//! [`mcsched_obs::json`], with the [`host`] it ran on, and keeps its safety
//! gate on every run, `--smoke` included: `simx` checks the engine against
//! the reference bit for bit before timing, `online` checks that every run
//! reproduces the first. `diff` keys rows by `(family, case)` and compares
//! `mean_ms`. Exit status: 0 ok, 1 a row slower than `--max-regress`
//! percent, 2 a usage or parse error.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ledger;

pub mod host {
    //! Host metadata embedded in every ledger: the machine's shape
    //! (parallelism, OS, architecture) plus a measured per-call cost of a
    //! *disabled* `mcsched_obs::span!` site — the "zero-cost when off"
    //! claim as a number in the committed record.

    use mcsched_obs::json::Json;
    use std::time::Instant;

    /// The `"host"` object of a ledger. `obs_disabled_span_ns` is the mean
    /// cost of one **disabled** `span!` call site (no collector installed on
    /// the thread: one thread-local read plus a jump) over 10⁶ calls: the
    /// overhead every instrumented hot loop pays when observability is off.
    #[must_use]
    pub fn host() -> Vec<(String, Json)> {
        mcsched_obs::disable_tracing();
        let start = Instant::now();
        for i in 0..1_000_000u64 {
            let span = mcsched_obs::span!("bench-probe", "i" = i);
            std::hint::black_box(&span);
        }
        let ns = start.elapsed().as_nanos() as f64 / 1e6;
        let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
        vec![
            ("available_parallelism".into(), Json::num_usize(parallelism)),
            ("os".into(), Json::Str(std::env::consts::OS.into())),
            ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
            (
                "obs_disabled_span_ns".into(),
                Json::num_f64((ns * 100.0).round() / 100.0),
            ),
        ]
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn host_metadata_is_well_formed() {
            let host = Json::Obj(host());
            let parsed = Json::parse(&host.render()).expect("host metadata parses");
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
