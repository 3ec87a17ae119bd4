//! Process-wide metrics registry: named counters, gauges and log-scale
//! histograms.
//!
//! Metrics are registered once by name (first use wins) and live for the
//! whole process, so hot paths hold a `&'static` handle and update it with
//! one relaxed atomic — no locking, no lookup. The [`crate::counter!`],
//! [`crate::gauge!`] and [`crate::histogram!`] macros cache the lookup in a
//! call-site `OnceLock`, which is the recommended way to touch a metric
//! from a hot loop.
//!
//! [`snapshot`] reads every metric and returns them sorted by name, so the
//! rendered table/CSV is deterministic regardless of registration order or
//! thread interleaving (the *values* of wall-clock-free metrics are
//! themselves deterministic for a fixed workload).

use crate::json::{write_str, Json};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of log2 buckets in a [`Histogram`] (covers the full `u64` range).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins instantaneous value (also tracks the maximum seen).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    max: AtomicU64,
}

impl Gauge {
    /// Sets the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Largest value ever set.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A log2-bucketed histogram of `u64` samples: sample `v` lands in bucket
/// `bit_width(v)` (bucket 0 holds zeros, bucket `k` holds
/// `[2^(k-1), 2^k)`), so 65 buckets cover the whole range with ≤ 2×
/// resolution — plenty for "grants per allocation" or "queue depth" style
/// distributions, at the cost of two atomic adds per sample.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
        }
    }
}

/// Which bucket a sample lands in: `0 → 0`, otherwise `bit_width(v)`.
#[must_use]
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (`u64::MAX` for the last).
#[must_use]
fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Reads a consistent-enough copy of the state for rendering.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Per-bucket sample counts: bucket 0 counts the zeros, bucket `i > 0`
    /// the samples of bit width `i`.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`; 0 when empty).
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn register<T: Default + 'static>(
    table: &Mutex<BTreeMap<String, &'static T>>,
    name: &str,
) -> &'static T {
    let mut table = table.lock().unwrap();
    if let Some(&m) = table.get(name) {
        return m;
    }
    // Metrics are process-lived by design; a handful of small leaked
    // allocations (one per distinct metric name) buys lock-free updates.
    let m: &'static T = Box::leak(Box::default());
    table.insert(name.to_owned(), m);
    m
}

/// Returns (registering on first use) the counter called `name`.
/// Prefer [`crate::counter!`] in hot paths — it caches this lookup.
#[must_use]
pub fn counter(name: &str) -> &'static Counter {
    register(&registry().counters, name)
}

/// Returns (registering on first use) the gauge called `name`.
#[must_use]
pub fn gauge(name: &str) -> &'static Gauge {
    register(&registry().gauges, name)
}

/// Returns (registering on first use) the histogram called `name`.
#[must_use]
pub fn histogram(name: &str) -> &'static Histogram {
    register(&registry().histograms, name)
}

/// Call-site-cached [`counter`] lookup: resolves the registry entry once
/// per call site, then costs one relaxed atomic per update.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Call-site-cached [`gauge`] lookup (see [`crate::counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// Call-site-cached [`histogram`] lookup (see [`crate::counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, current, max)` for every gauge.
    pub gauges: Vec<(String, u64, u64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Snapshots the whole registry (each metric read atomically, names
/// sorted).
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let r = registry();
    MetricsSnapshot {
        counters: r
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect(),
        gauges: r
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(n, g)| (n.clone(), g.get(), g.max()))
            .collect(),
        histograms: r
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect(),
    }
}

/// Zeroes every registered metric (registrations persist). Test hook and
/// campaign-boundary reset.
pub fn reset() {
    let r = registry();
    for c in r.counters.lock().unwrap().values() {
        c.reset();
    }
    for g in r.gauges.lock().unwrap().values() {
        g.reset();
    }
    for h in r.histograms.lock().unwrap().values() {
        h.reset();
    }
}

/// Escapes one CSV field: fields containing a comma, a double quote or a
/// line break are wrapped in double quotes with inner quotes doubled
/// (RFC 4180), so merged fleet snapshots with arbitrary metric names still
/// diff cleanly line by line.
fn csv_field(raw: &str) -> String {
    if raw.contains(',') || raw.contains('"') || raw.contains('\n') || raw.contains('\r') {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw.to_string()
    }
}

impl MetricsSnapshot {
    /// Renders the aligned, human-readable summary table.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::from("metrics snapshot\n");
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _, _)| n.len()))
            .chain(self.histograms.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0)
            .max(6);
        for (name, value) in &self.counters {
            out.push_str(&format!("counter    {name:<width$}  {value}\n"));
        }
        for (name, value, max) in &self.gauges {
            out.push_str(&format!("gauge      {name:<width$}  {value} (max {max})\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram  {name:<width$}  count={} sum={} mean={:.2} p50<={} p90<={} p99<={}\n",
                h.count,
                h.sum,
                h.mean(),
                h.quantile_upper_bound(0.50),
                h.quantile_upper_bound(0.90),
                h.quantile_upper_bound(0.99),
            ));
        }
        out
    }

    /// Renders the machine-readable CSV form (`kind,name,value,max,count,
    /// sum,mean,p50_ub,p90_ub,p99_ub`; inapplicable cells empty). Rows are
    /// name-sorted (the snapshot is) and fields are RFC 4180-escaped, so
    /// two snapshots of the same fleet diff cleanly.
    #[must_use]
    pub fn render_csv(&self) -> String {
        let mut out = String::from("kind,name,value,max,count,sum,mean,p50_ub,p90_ub,p99_ub\n");
        for (name, value) in &self.counters {
            out.push_str(&format!("counter,{},{value},,,,,,,\n", csv_field(name)));
        }
        for (name, value, max) in &self.gauges {
            out.push_str(&format!("gauge,{},{value},{max},,,,,,\n", csv_field(name)));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram,{},,,{},{},{},{},{},{}\n",
                csv_field(name),
                h.count,
                h.sum,
                h.mean(),
                h.quantile_upper_bound(0.50),
                h.quantile_upper_bound(0.90),
                h.quantile_upper_bound(0.99),
            ));
        }
        out
    }

    /// Renders the snapshot as key-sorted JSON, the exchange format of the
    /// fleet tools (`mcsched-exp obs-merge` and `top`). Histogram
    /// buckets are stored sparsely (`{"index": count}` for non-empty
    /// buckets only), and every `u64` keeps full precision (no `f64`
    /// intermediate). Deterministic: equal snapshots render equal bytes.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_str(&mut out, name);
            out.push_str(&format!(": {value}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, value, max)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_str(&mut out, name);
            out.push_str(&format!(": {{\"value\": {value}, \"max\": {max}}}"));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_str(&mut out, name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"sum\": {}, \"buckets\": {{",
                h.count, h.sum
            ));
            let mut first = true;
            for (index, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("\"{index}\": {n}"));
            }
            out.push_str("}}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a snapshot previously written by
    /// [`MetricsSnapshot::render_json`].
    ///
    /// # Errors
    ///
    /// A description of the first malformed construct (invalid JSON, a
    /// missing section, a non-integer value, a bucket index out of range).
    pub fn parse_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        // Name-sorted and unique, the invariant `merge` and `render_json`
        // rely on, whatever order the document lists the metrics in.
        let section = |key: &str| {
            let mut members: Vec<&(String, Json)> = doc
                .get(key)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("missing `{key}` object"))?
                .iter()
                .collect();
            members.sort_by(|a, b| a.0.cmp(&b.0));
            match members.windows(2).find(|pair| pair[0].0 == pair[1].0) {
                Some(pair) => Err(format!("duplicate {key} name `{}`", pair[0].0)),
                None => Ok(members),
            }
        };
        let uint =
            |v: &Json, what: &str| v.as_u64().ok_or_else(|| format!("`{what}` is not a u64"));
        let mut snapshot = MetricsSnapshot::default();
        for (name, value) in section("counters")? {
            snapshot.counters.push((name.clone(), uint(value, name)?));
        }
        for (name, body) in section("gauges")? {
            let field = |key: &str| {
                body.get(key)
                    .ok_or_else(|| format!("gauge `{name}` misses `{key}`"))
                    .and_then(|v| uint(v, key))
            };
            snapshot
                .gauges
                .push((name.clone(), field("value")?, field("max")?));
        }
        for (name, body) in section("histograms")? {
            let field = |key: &str| {
                body.get(key)
                    .ok_or_else(|| format!("histogram `{name}` misses `{key}`"))
                    .and_then(|v| uint(v, key))
            };
            let mut h = HistogramSnapshot {
                count: field("count")?,
                sum: field("sum")?,
                buckets: [0; HISTOGRAM_BUCKETS],
            };
            let buckets = body
                .get("buckets")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("histogram `{name}` misses `buckets`"))?;
            for (index, n) in buckets {
                let index: usize = index
                    .parse()
                    .ok()
                    .filter(|&i| i < HISTOGRAM_BUCKETS)
                    .ok_or_else(|| format!("histogram `{name}` bucket `{index}` out of range"))?;
                h.buckets[index] = uint(n, "bucket count")?;
            }
            snapshot.histograms.push((name.clone(), h));
        }
        Ok(snapshot)
    }

    /// Unions `other` into `self`, the metric-wise fleet merge: counters
    /// **sum**, gauges keep the **max** (of both the last value and the
    /// running max — per-process "current" values are meaningless across a
    /// fleet), histograms add **bucket-wise** (counts, sums and every
    /// bucket). Counts read from disk may be anything, so every count sum
    /// saturates at `u64::MAX`; a histogram's `sum` wraps, as
    /// [`Histogram::sum`] does. Metrics present in only one side carry over
    /// unchanged; the result stays name-sorted, so merging in any order
    /// yields identical snapshots.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let mut counters: BTreeMap<String, u64> = self.counters.drain(..).collect();
        for (name, value) in &other.counters {
            let slot = counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*value);
        }
        self.counters = counters.into_iter().collect();

        let mut gauges: BTreeMap<String, (u64, u64)> =
            self.gauges.drain(..).map(|(n, v, m)| (n, (v, m))).collect();
        for (name, value, max) in &other.gauges {
            let slot = gauges.entry(name.clone()).or_insert((0, 0));
            slot.0 = slot.0.max(*value);
            slot.1 = slot.1.max(*max);
        }
        self.gauges = gauges.into_iter().map(|(n, (v, m))| (n, v, m)).collect();

        let mut histograms: BTreeMap<String, HistogramSnapshot> =
            self.histograms.drain(..).collect();
        for (name, h) in &other.histograms {
            let slot = histograms
                .entry(name.clone())
                .or_insert_with(|| HistogramSnapshot {
                    count: 0,
                    sum: 0,
                    buckets: [0; HISTOGRAM_BUCKETS],
                });
            slot.count = slot.count.saturating_add(h.count);
            slot.sum = slot.sum.wrapping_add(h.sum);
            for (dst, src) in slot.buckets.iter_mut().zip(&h.buckets) {
                *dst = dst.saturating_add(*src);
            }
        }
        self.histograms = histograms.into_iter().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 5, 8, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, 120);
        assert!((s.mean() - 15.0).abs() < 1e-12);
        // Rank 4 of 8 (p50) is the sample 2, in bucket [2,3].
        assert_eq!(s.quantile_upper_bound(0.50), 3);
        // p99 → rank 8 → the sample 100, bucket [64,127].
        assert_eq!(s.quantile_upper_bound(0.99), 127);
        assert_eq!(s.quantile_upper_bound(0.0), 0);
        let empty = Histogram::default().snapshot();
        assert_eq!(empty.quantile_upper_bound(0.5), 0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn registry_dedups_and_snapshots_sorted() {
        let _lock = crate::test_guard();
        let a = counter("test.registry.b");
        let b = counter("test.registry.b");
        assert!(std::ptr::eq(a, b));
        a.reset();
        a.add(7);
        counter("test.registry.a").reset();
        counter("test.registry.a").inc();
        gauge("test.registry.g").set(3);
        gauge("test.registry.g").set(2);
        histogram("test.registry.h").record(9);
        let snap = snapshot();
        let names: Vec<&str> = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("test.registry."))
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["test.registry.a", "test.registry.b"]);
        let g = snap
            .gauges
            .iter()
            .find(|(n, _, _)| n == "test.registry.g")
            .unwrap();
        assert_eq!((g.1, g.2), (2, 3));
        let table = snap.render_table();
        assert!(table.contains("counter"));
        assert!(table.contains("test.registry.b"));
        let csv = snap.render_csv();
        assert!(csv.starts_with("kind,name,"));
        assert!(csv.contains("counter,test.registry.b,7,,,,,,,\n"));
    }

    #[test]
    fn csv_fields_are_escaped_and_tables_show_three_percentiles() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = MetricsSnapshot {
            counters: vec![("weird,\"name\"".to_string(), 3)],
            gauges: vec![],
            histograms: vec![("h".to_string(), h.snapshot())],
        };
        let csv = snap.render_csv();
        assert!(csv.contains("counter,\"weird,\"\"name\"\"\",3,,,,,,,\n"));
        // p50 ≤ 63 (rank 50 lands in [32,63]), p90 in [64,127], p99 too.
        assert!(csv.contains("histogram,h,,,100,5050,50.5,63,127,127\n"));
        let table = snap.render_table();
        assert!(table.contains("p50<=63 p90<=127 p99<=127"));
    }

    #[test]
    fn json_snapshot_round_trips_exactly() {
        let h = Histogram::default();
        for v in [0u64, 1, 5, u64::MAX] {
            h.record(v);
        }
        let snap = MetricsSnapshot {
            counters: vec![("a".to_string(), u64::MAX), ("b \"x\"".to_string(), 0)],
            gauges: vec![("g".to_string(), 2, 9)],
            histograms: vec![("h".to_string(), h.snapshot())],
        };
        let json = snap.render_json();
        let parsed = MetricsSnapshot::parse_json(&json).unwrap();
        assert_eq!(parsed, snap);
        // Determinism: rendering the parsed snapshot reproduces the bytes.
        assert_eq!(parsed.render_json(), json);
        // Malformed documents are rejected with a reason.
        assert!(MetricsSnapshot::parse_json("{}").is_err());
        assert!(MetricsSnapshot::parse_json("{\"counters\":{},\"gauges\":{}}").is_err());
        assert!(MetricsSnapshot::parse_json(
            "{\"counters\":{\"c\":-1},\"gauges\":{},\"histograms\":{}}"
        )
        .is_err());
        assert!(MetricsSnapshot::parse_json(
            "{\"counters\":{},\"gauges\":{},\"histograms\":{\"h\":{\"count\":1,\"sum\":1,\
             \"buckets\":{\"65\":1}}}}"
        )
        .is_err());
    }

    #[test]
    fn parsed_sections_are_name_sorted_and_unique() {
        let parsed = MetricsSnapshot::parse_json(
            "{\"counters\":{\"b\":2,\"a\":1},\"gauges\":{\"z\":{\"value\":1,\"max\":3},\
             \"y\":{\"value\":2,\"max\":2}},\"histograms\":{}}",
        )
        .unwrap();
        assert_eq!(
            parsed.counters,
            vec![("a".to_string(), 1), ("b".to_string(), 2)]
        );
        assert_eq!(
            parsed.gauges,
            vec![("y".to_string(), 2, 2), ("z".to_string(), 1, 3)]
        );
        let err = MetricsSnapshot::parse_json(
            "{\"counters\":{\"a\":1,\"b\":2,\"a\":3},\"gauges\":{},\"histograms\":{}}",
        )
        .unwrap_err();
        assert!(err.contains("duplicate counters name `a`"), "{err}");
        let hist = "{\"count\":0,\"sum\":0,\"buckets\":{}}";
        assert!(MetricsSnapshot::parse_json(&format!(
            "{{\"counters\":{{}},\"gauges\":{{}},\"histograms\":{{\"h\":{hist},\"h\":{hist}}}}}"
        ))
        .is_err());
    }

    #[test]
    fn merge_sums_counters_maxes_gauges_and_adds_buckets() {
        let hist = |values: &[u64]| {
            let h = Histogram::default();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let mut a = MetricsSnapshot {
            counters: vec![("c.both".to_string(), 2), ("c.only_a".to_string(), 5)],
            gauges: vec![("g".to_string(), 7, 9)],
            histograms: vec![("h".to_string(), hist(&[1, 2]))],
        };
        let b = MetricsSnapshot {
            counters: vec![("c.both".to_string(), 3), ("c.only_b".to_string(), 1)],
            gauges: vec![("g".to_string(), 8, 8)],
            histograms: vec![("h".to_string(), hist(&[2, 100]))],
        };
        let mut ba = b.clone();
        ba.merge(&a);
        a.merge(&b);
        assert_eq!(a, ba, "merge is order-independent");
        assert_eq!(
            a.counters,
            vec![
                ("c.both".to_string(), 5),
                ("c.only_a".to_string(), 5),
                ("c.only_b".to_string(), 1)
            ]
        );
        assert_eq!(a.gauges, vec![("g".to_string(), 8, 9)]);
        let (_, h) = &a.histograms[0];
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 105);
        assert_eq!(h.buckets[bucket_index(2)], 2);
        assert_eq!(h.buckets[bucket_index(100)], 1);
    }

    #[test]
    fn merge_saturates_counts_read_from_disk() {
        let max = u64::MAX;
        let snapshot = |n: u64| {
            let mut buckets = [0; HISTOGRAM_BUCKETS];
            buckets[1] = n;
            MetricsSnapshot {
                counters: vec![("c".to_string(), n)],
                gauges: vec![("g".to_string(), n, n)],
                histograms: vec![(
                    "h".to_string(),
                    HistogramSnapshot {
                        count: n,
                        sum: max,
                        buckets,
                    },
                )],
            }
        };
        let mut merged = snapshot(max);
        merged.merge(&snapshot(1));
        let mut expected = snapshot(max);
        expected.histograms[0].1.sum = max - 1; // the sum wraps
        assert_eq!(merged, expected);
        // Buckets that sum past u64::MAX still render a quantile.
        let (_, h) = &mut merged.histograms[0];
        h.buckets[1] = max - 1;
        h.buckets[2] = 2;
        assert_eq!(h.quantile_upper_bound(1.0), bucket_upper_bound(2));
    }

    #[test]
    fn macro_caches_lookup() {
        let c1 = crate::counter!("test.macro.counter");
        let c2 = crate::counter!("test.macro.counter");
        assert!(std::ptr::eq(c1, c2));
        crate::histogram!("test.macro.hist").record(1);
        crate::gauge!("test.macro.gauge").set(1);
    }
}
