//! The benchmark's own span recorder for traced runs.
//!
//! Every call into a layer of the scheduler is wrapped in a span named after
//! that layer. Spans nest: a span's *self time* is its duration minus the
//! time its child spans cover. The recorder lives in the benchmark process
//! only, keeps everything in memory and is single-threaded (traced runs are
//! serial); it deliberately does not use the process-global span and phase
//! registries of `mcsched-obs`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Accumulated self time and span count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Self time, in seconds.
    pub self_s: f64,
    /// Number of spans recorded.
    pub calls: u64,
}

/// One finished span, kept only when a span log was requested.
#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    layer: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Open {
    layer: usize,
    record: Option<usize>,
    start: Instant,
    child_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    names: Vec<&'static str>,
    self_ns: Vec<u64>,
    calls: Vec<u64>,
    stack: Vec<Open>,
    log: Option<Vec<SpanRecord>>,
}

/// In-memory span recorder. `span` takes `&self`, so spans nest by calling
/// `span` again inside the closure.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: RefCell<State>,
}

impl Tracer {
    /// A recorder that aggregates per-layer totals and, with `keep_log`,
    /// also keeps every span for [`Tracer::write_chrome_trace`].
    #[must_use]
    pub fn new(keep_log: bool) -> Self {
        Self {
            origin: Instant::now(),
            state: RefCell::new(State {
                log: keep_log.then(Vec::new),
                ..State::default()
            }),
        }
    }

    /// Runs `f` inside a span of layer `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let result = f();
        self.exit();
        result
    }

    fn enter(&self, name: &'static str) {
        let mut state = self.state.borrow_mut();
        let layer = match state.names.iter().position(|&n| n == name) {
            Some(i) => i,
            None => {
                state.names.push(name);
                state.self_ns.push(0);
                state.calls.push(0);
                state.names.len() - 1
            }
        };
        let parent = state.stack.last().and_then(|open| open.record);
        let record = state.log.as_mut().map(|log| {
            log.push(SpanRecord {
                layer,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            log.len() - 1
        });
        // The clock is read last, so the bookkeeping above is not charged
        // to the span.
        let start = Instant::now();
        if let (Some(i), Some(log)) = (record, state.log.as_mut()) {
            log[i].start_ns = nanos_between(self.origin, start);
        }
        state.stack.push(Open {
            layer,
            record,
            start,
            child_ns: 0,
        });
    }

    fn exit(&self) {
        let end = Instant::now();
        let mut state = self.state.borrow_mut();
        let open = state.stack.pop().expect("exit matches an enter");
        let duration = nanos_between(open.start, end);
        state.self_ns[open.layer] += duration.saturating_sub(open.child_ns);
        state.calls[open.layer] += 1;
        if let Some(parent) = state.stack.last_mut() {
            parent.child_ns += duration;
        }
        if let (Some(i), Some(log)) = (open.record, state.log.as_mut()) {
            log[i].end_ns = nanos_between(self.origin, end);
        }
    }

    /// Totals of layer `name` (zero when it never ran).
    #[must_use]
    pub fn totals(&self, name: &str) -> LayerTotals {
        let state = self.state.borrow();
        state
            .names
            .iter()
            .position(|&n| n == name)
            .map_or(LayerTotals::default(), |i| LayerTotals {
                self_s: state.self_ns[i] as f64 / 1e9,
                calls: state.calls[i],
            })
    }

    /// Sum of every layer's self time, in seconds.
    #[must_use]
    pub fn total_self_s(&self) -> f64 {
        self.state.borrow().self_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Every recorded layer name, in first-seen order.
    #[must_use]
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.state.borrow().names.clone()
    }

    /// Writes the kept spans as a Chrome trace (`chrome://tracing`,
    /// Perfetto): one complete event per span, with its parent's index.
    ///
    /// # Errors
    ///
    /// I/O failures writing `path`.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let state = self.state.borrow();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, span) in state.log.iter().flatten().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { "," },
                state.names[span.layer],
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

fn nanos_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let until = Instant::now() + std::time::Duration::from_millis(ms);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_child_spans() {
        let tracer = Tracer::new(true);
        tracer.span("outer", || {
            spin(4);
            tracer.span("inner", || spin(6));
        });
        let outer = tracer.totals("outer");
        let inner = tracer.totals("inner");
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.self_s >= 0.006, "{inner:?}");
        // Charging the child to the parent would make this at least 10 ms.
        assert!(outer.self_s >= 0.004 && outer.self_s < 0.009, "{outer:?}");
        assert!((tracer.total_self_s() - outer.self_s - inner.self_s).abs() < 1e-12);
        assert_eq!(tracer.totals("never").calls, 0);
        assert_eq!(tracer.layer_names(), vec!["outer", "inner"]);
    }

    #[test]
    fn chrome_trace_lists_every_span_with_its_parent() {
        let tracer = Tracer::new(true);
        tracer.span("a", || tracer.span("b", || ()));
        let dir = crate::host::WorkDir::create().unwrap();
        let path = dir.path().join("trace.json");
        tracer.write_chrome_trace(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = mcsched_workload::json::Json::parse(&text).expect("valid JSON");
        let Some(mcsched_workload::json::Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents array");
        };
        assert_eq!(events.len(), 2);
        let parent_of_b = events[1].get("args").unwrap().get("parent").unwrap();
        assert_eq!(parent_of_b.as_u64(), Some(0));
    }
}
