//! The measurement loops and the metrics they report.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) reports the per-layer metrics. Both run set-up once and
//! then iterations until `--seconds` have passed (at least one), with the
//! `mcsched-obs` tracing layer off.

use crate::span::Tracer;
use crate::workload::{Tally, Workload};
use mcsched_obs::metrics::{counter, histogram};
use std::time::Instant;

/// End-to-end metrics, with their units, in the order of `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The traced layers, named after the modules whose calls they wrap.
/// `core.allocation.dedicated` is the β = 1 allocation of the dedicated
/// baselines, a span of its own beside `core.allocation`.
pub const LAYERS: [&str; 15] = [
    "workload",
    "core.context",
    "core.constraint",
    "core.allocation",
    "core.allocation.dedicated",
    "core.mapping",
    "simx",
    "core.metrics",
    "runtime.cache.merge",
    "runtime.cache.open",
    "runtime.cache.lookup",
    "runtime.cache.flush",
    "runtime.digest",
    "exp.report",
    "online",
];

/// Per-layer metrics besides each layer's `.share` and `.calls`, with
/// their units.
pub const LAYER_COUNTS: [(&str, &str); 20] = [
    ("core.allocation.grants", "count"),
    ("simx.events", "count"),
    ("simx.jobs", "count"),
    ("runtime.pool.tasks", "count"),
    ("runtime.pool.steals", "count"),
    ("runtime.pool.parks", "count"),
    ("runtime.pool.parallel_eff", "fraction"),
    ("runtime.cache.hits", "count"),
    ("runtime.cache.misses", "count"),
    ("runtime.cache.bytes", "bytes"),
    ("online.reschedules", "count"),
    ("online.queue_depth.p90", "count"),
    ("online.virtual.mean_stretch", "ratio"),
    ("online.virtual.shed_rate", "fraction"),
    ("online.virtual.utilization", "fraction"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "fraction"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("obs.disabled_span_ns", "ns"),
];

/// Every per-layer metric name with its unit.
#[must_use]
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    LAYERS
        .iter()
        .flat_map(|layer| {
            [
                (format!("{layer}.share"), "fraction"),
                (format!("{layer}.calls"), "count"),
            ]
        })
        .chain(LAYER_COUNTS.iter().map(|&(n, u)| (n.to_string(), u)))
        .collect()
}

/// What a run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Iterations run.
    pub iterations: u64,
    /// Wall time of each set-up repetition, seconds.
    pub setup_samples: Vec<f64>,
    /// Context numbers that are not metrics, by name.
    pub notes: Vec<(&'static str, f64)>,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(String, f64, &'static str)>,
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Runs `step(k)` for k = 0, 1, … until `seconds` have passed; returns the
/// number of iterations.
fn iterate(
    workload: &mut dyn Workload,
    seconds: f64,
    mut step: impl FnMut(&mut dyn Workload, u64) -> Result<(), String>,
) -> Result<u64, String> {
    let start = Instant::now();
    let mut k = 0;
    loop {
        step(workload, k)?;
        k += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(k);
        }
    }
}

/// How often the untraced run times the calibration loop.
const CALIBRATE_EVERY_S: f64 = 0.25;

/// Calibration samples taken on each side of set-up.
const SETUP_CALIBRATIONS: usize = 3;

/// The host's slowdown over the calibration `samples`: their median time
/// over the loop's nominal time.
fn slowdown(samples: &[f64]) -> f64 {
    median(samples) / crate::host::CALIBRATION_NOMINAL_S
}

/// The untraced run: end-to-end metrics.
///
/// `ops_per_s` is completed ops over the iterations' wall time and
/// `setup_s` the median set-up repetition, both rescaled to the baseline
/// host's speed by the host's slowdown: the calibration loop's median time
/// over its nominal time, sampled every quarter second during the
/// iterations and three times on each side of set-up. Other tenants of a
/// shared host change its speed by tens of percent within minutes, which
/// the rescaling largely cancels. The raw numbers go to the context record.
///
/// # Errors
///
/// Any failure of the workload, or an unreadable peak RSS.
pub fn untraced(workload: &mut dyn Workload, seconds: f64) -> Result<Outcome, String> {
    mcsched_obs::disable_tracing();
    let calibrate = |n| {
        (0..n)
            .map(|_| crate::host::calibration_s())
            .collect::<Vec<_>>()
    };
    let mut around_setup = calibrate(SETUP_CALIBRATIONS);
    let setup = workload.setup()?;
    around_setup.extend(calibrate(SETUP_CALIBRATIONS));

    let mut total = Tally::default();
    let mut during = Vec::new();
    let mut calibrated = Instant::now();
    let iterations = iterate(workload, seconds, |w, k| {
        if calibrated.elapsed().as_secs_f64() >= CALIBRATE_EVERY_S {
            during.push(crate::host::calibration_s());
            calibrated = Instant::now();
        }
        add(&mut total, w.run(k)?);
        Ok(())
    })?;
    during.push(crate::host::calibration_s());

    let (ops_per_s, setup_s) = (total.completed as f64 / total.wall_s, median(&setup));
    let (loop_slowdown, setup_slowdown) = (slowdown(&during), slowdown(&around_setup));
    let values = [
        ops_per_s * loop_slowdown,
        setup_s / setup_slowdown,
        crate::host::peak_rss_mb()?,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_string(), value, unit))
        .collect();
    Ok(Outcome {
        attempted: total.attempted,
        failed: total.failed,
        iterations,
        setup_samples: setup,
        notes: vec![
            ("host_slowdown", loop_slowdown),
            ("setup_host_slowdown", setup_slowdown),
            ("raw_ops_per_s", ops_per_s),
            ("raw_setup_s", setup_s),
        ],
        metrics,
    })
}

fn add(total: &mut Tally, t: Tally) {
    total.attempted += t.attempted;
    total.failed += t.failed;
    total.completed += t.completed;
    total.wall_s += t.wall_s;
}

/// The always-on `mcsched-obs` counters behind per-layer count metrics,
/// by metric name.
fn counters() -> [(&'static str, u64); 8] {
    [
        ("core.allocation.grants", histogram("alloc.grants").sum()),
        ("simx.events", counter("simx.events").get()),
        ("simx.jobs", counter("simx.jobs").get()),
        ("runtime.pool.tasks", counter("pool.task").get()),
        ("runtime.pool.steals", counter("pool.steal").get()),
        ("runtime.pool.parks", counter("pool.park").get()),
        ("runtime.cache.hits", counter("cache.hit").get()),
        ("runtime.cache.misses", counter("cache.miss").get()),
    ]
}

/// The traced run: each untraced iteration is followed by its traced
/// repeat; per-layer metrics.
///
/// Shares are layer self time over the traced wall time of all iterations.
/// Calls and counts are those of iteration 0, which is the same draw on
/// every run with the same seed, so they repeat exactly.
///
/// # Errors
///
/// Any failure of the workload.
pub fn traced(
    workload: &mut dyn Workload,
    seconds: f64,
    tracer: &Tracer,
    disabled_span_ns: f64,
) -> Result<Outcome, String> {
    let mut untraced_total = Tally::default();
    let mut traced_total = Tally::default();
    let mut counts = Vec::new();
    let mut calls: Vec<u64> = Vec::new();
    let mut extras = Vec::new();
    mcsched_obs::disable_tracing();
    let setup = workload.setup()?;
    let iterations = iterate(workload, seconds, |w, k| {
        let before = counters();
        let untraced = w.run(k)?;
        if k == 0 {
            counts = counters()
                .iter()
                .zip(before)
                .map(|(&(name, after), (_, before))| (name, after.wrapping_sub(before) as f64))
                .collect();
            extras = w.extras();
        }
        let traced = w.run_traced(tracer)?;
        if k == 0 {
            calls = LAYERS.iter().map(|l| tracer.totals(l).calls).collect();
        }
        add(&mut untraced_total, untraced);
        add(&mut traced_total, traced);
        Ok(())
    })?;

    if let Some(unknown) = tracer
        .layer_names()
        .into_iter()
        .find(|name| !LAYERS.contains(name))
        .or_else(|| {
            extras
                .iter()
                .map(|&(name, _)| name)
                .find(|name| LAYER_COUNTS.iter().all(|&(n, _)| n != *name))
        })
    {
        return Err(format!("`{unknown}` is not a listed per-layer metric"));
    }
    let traced_wall = traced_total.wall_s;
    let untraced_wall = untraced_total.wall_s;
    let self_total = tracer.total_self_s();
    let mut values: Vec<(String, f64)> = Vec::new();
    for (layer, calls) in LAYERS.iter().zip(&calls) {
        values.push((
            format!("{layer}.share"),
            tracer.totals(layer).self_s / traced_wall,
        ));
        values.push((format!("{layer}.calls"), *calls as f64));
    }
    for (name, value) in counts.into_iter().chain(extras) {
        values.push((name.to_string(), value));
    }
    let threads = workload.threads() as f64;
    values.extend([
        (
            "runtime.pool.parallel_eff".to_string(),
            self_total / (threads * untraced_wall),
        ),
        ("trace.coverage".to_string(), self_total / traced_wall),
        (
            "trace.overhead".to_string(),
            traced_wall / untraced_wall - 1.0,
        ),
        ("trace.wall_s".to_string(), traced_wall),
        ("trace.untraced_wall_s".to_string(), untraced_wall),
        ("obs.disabled_span_ns".to_string(), disabled_span_ns),
    ]);

    // Every listed metric, in list order; a layer or count the workload
    // does not exercise reads 0.
    let metrics = per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, value, unit)
        })
        .collect();
    Ok(Outcome {
        attempted: untraced_total.attempted + traced_total.attempted,
        failed: untraced_total.failed + traced_total.failed,
        iterations,
        setup_samples: setup,
        notes: Vec::new(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<String> = per_layer_metrics().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| (*n).to_string()));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
