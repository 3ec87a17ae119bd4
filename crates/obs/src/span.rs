//! Span-based structured tracing into a scoped [`Collector`].
//!
//! A *span* is a named interval of work carried out by one thread, opened
//! with [`crate::span!`] and closed when the returned guard drops. Spans
//! carry typed `key = value` fields and nest: because begin/end events are
//! recorded in program order on each thread, the parent of a span is simply
//! the innermost span still open on the same thread — no ids need to be
//! threaded through APIs.
//!
//! Spans record into the [`Collector`] installed on the current thread,
//! and only while one is: there is no process-wide on/off switch. A run
//! installs its collector with [`Collector::install`], whose guard
//! restores the previous installation on drop; the runtime's fan-out carries
//! the caller's collector into every task of a fan-out. Each closed span
//! adds its duration to a per-name [`SpanTotal`] (the `--profile` report
//! is those sums); a collector made with [`Collector::new`] also keeps the
//! event log behind the trace and journal exports.
//!
//! Recording is buffered per thread and moves into the collector when the
//! installation ends. The **disabled** hot path — the common case — is
//! one thread-local read in [`tracing_enabled`].

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

/// A typed span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer field.
    U64(u64),
    /// Signed integer field.
    I64(i64),
    /// Floating-point field.
    F64(f64),
    /// Borrowed string field (the common case for policy names etc.).
    Static(&'static str),
    /// Owned string field.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Static(v)
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// What a recorded [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`ph: "B"` in Chrome-trace terms).
    Begin,
    /// A span closed (`ph: "E"`).
    End,
}

/// One recorded trace event on one thread.
#[derive(Debug, Clone)]
pub struct Event {
    /// Span or event name (static — names form a small fixed taxonomy).
    pub name: &'static str,
    /// Begin or end.
    pub kind: EventKind,
    /// Nanoseconds since the collector was created.
    pub t_ns: u64,
    /// Typed fields, in call-site order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// The drained events of one thread, in program order.
#[derive(Debug, Clone)]
pub struct ThreadEvents {
    /// The thread's ordinal within its collector (used as Chrome-trace
    /// `tid`).
    pub ordinal: usize,
    /// The thread's name (`main`, `mcsched-worker-0-3`, …), or `thread-N`
    /// for an unnamed thread.
    pub label: String,
    /// Events in the order the thread recorded them.
    pub events: Vec<Event>,
}

/// Everything [`Collector::drain`] took out of a collector, sorted by
/// thread ordinal.
#[derive(Debug, Clone, Default)]
pub struct TraceDump {
    /// Per-thread event streams (threads that recorded nothing are omitted).
    pub threads: Vec<ThreadEvents>,
}

/// Summed wall time and count of the closed spans of one name: what a
/// [`Collector`] keeps for every span, with or without an event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanTotal {
    /// Span name.
    pub name: &'static str,
    /// Summed wall time in nanoseconds; spans on different threads
    /// overlap, so this can exceed the run's wall time.
    pub nanos: u64,
    /// Number of closed spans.
    pub calls: u64,
}

fn add_total(totals: &mut Vec<SpanTotal>, total: SpanTotal) {
    match totals.iter_mut().find(|t| t.name == total.name) {
        Some(t) => {
            t.nanos += total.nanos;
            t.calls += total.calls;
        }
        None => totals.push(total),
    }
}

/// The recording target of one run: per-name [`SpanTotal`]s of every span
/// closed under it and, optionally, the begin/end event log. A cheap,
/// cloneable handle; two runs with two collectors in one process never
/// see each other's spans.
#[derive(Debug, Clone)]
pub struct Collector(Arc<Shared>);

#[derive(Debug)]
struct Shared {
    /// Zero of the event timestamps.
    epoch: Instant,
    keep_events: bool,
    recorded: Mutex<Recorded>,
}

/// Per-thread event streams, indexed by ordinal, and the span totals.
type Recorded = (Vec<(ThreadId, ThreadEvents)>, Vec<SpanTotal>);

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// A collector that keeps the event log (for trace and journal
    /// exports) as well as the per-name totals.
    #[must_use]
    pub fn new() -> Self {
        Self::with_events(true)
    }

    /// A collector that keeps only the per-name totals, so its memory
    /// stays bounded however long the run (what `--profile` alone needs).
    #[must_use]
    pub fn totals_only() -> Self {
        Self::with_events(false)
    }

    fn with_events(keep_events: bool) -> Self {
        Self(Arc::new(Shared {
            epoch: Instant::now(),
            keep_events,
            recorded: Mutex::default(),
        }))
    }

    fn recorded(&self) -> MutexGuard<'_, Recorded> {
        self.0
            .recorded
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Installs this collector on the current thread until the guard drops.
    pub fn install(&self) -> CollectorGuard {
        install(Some(self.clone()))
    }

    /// The collector installed on the current thread, if any.
    #[must_use]
    pub fn current() -> Option<Self> {
        CURRENT.with(|c| c.borrow().as_ref().map(|f| f.collector.clone()))
    }

    /// Takes the event log flushed so far (by finished pool tasks and
    /// dropped [`CollectorGuard`]s), one stream per thread sorted by
    /// ordinal. Spans still open land in the next drain.
    #[must_use]
    pub fn drain(&self) -> TraceDump {
        let threads = (self.recorded().0.iter_mut())
            .filter(|(_, t)| !t.events.is_empty())
            .map(|(_, t)| ThreadEvents {
                ordinal: t.ordinal,
                label: t.label.clone(),
                events: std::mem::take(&mut t.events),
            })
            .collect();
        TraceDump { threads }
    }

    /// The per-name totals flushed so far, in first-seen order.
    #[must_use]
    pub fn totals(&self) -> Vec<SpanTotal> {
        self.recorded().1.clone()
    }
}

/// What one thread records into its installed collector, buffered and
/// flushed into the collector when the install ends or before a nested
/// install (which keeps each thread's stream in program order).
#[derive(Debug)]
struct Frame {
    collector: Collector,
    events: Vec<Event>,
    totals: Vec<SpanTotal>,
}

impl Frame {
    fn push(&mut self, name: &'static str, kind: EventKind, at: Instant, fields: Fields) {
        if self.collector.0.keep_events {
            let since = at.saturating_duration_since(self.collector.0.epoch);
            let t_ns = u64::try_from(since.as_nanos()).unwrap_or(u64::MAX);
            self.events.push(Event {
                name,
                kind,
                t_ns,
                fields,
            });
        }
    }

    fn flush(&mut self) {
        if self.events.is_empty() && self.totals.is_empty() {
            return;
        }
        let mut recorded = self.collector.recorded();
        let (threads, totals) = &mut *recorded;
        for total in self.totals.drain(..) {
            add_total(totals, total);
        }
        if self.events.is_empty() {
            return;
        }
        let thread = std::thread::current();
        let index = threads.iter().position(|(id, _)| *id == thread.id());
        let index = index.unwrap_or_else(|| {
            let ordinal = threads.len();
            let label = match thread.name() {
                Some(name) => name.to_owned(),
                None => format!("thread-{ordinal}"),
            };
            let events = Vec::new();
            let stream = ThreadEvents {
                ordinal,
                label,
                events,
            };
            threads.push((thread.id(), stream));
            ordinal
        });
        threads[index].1.events.append(&mut self.events);
    }
}

thread_local! {
    /// The current thread's recording frame; `None` means spans are off.
    static CURRENT: RefCell<Option<Frame>> = const { RefCell::new(None) };
    /// Whether `CURRENT` holds a frame: the disabled check reads this
    /// destructor-free flag rather than the frame itself.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Replaces the current thread's frame, keeping `ACTIVE` in step.
fn swap_frame(frame: Option<Frame>) -> Option<Frame> {
    ACTIVE.with(|active| active.set(frame.is_some()));
    CURRENT.try_with(|c| c.replace(frame)).ok().flatten()
}

/// Installs `collector` (or, with `None`, no collector) on the current
/// thread until the guard drops, which flushes what the thread recorded
/// and restores the previous installation.
pub fn install(collector: Option<Collector>) -> CollectorGuard {
    let frame = collector.map(|collector| Frame {
        collector,
        events: Vec::new(),
        totals: Vec::new(),
    });
    let mut prev = swap_frame(frame);
    if let Some(prev) = prev.as_mut() {
        prev.flush();
    }
    CollectorGuard {
        prev,
        _not_send: PhantomData,
    }
}

/// Restores the previous installation on drop; see [`install`].
#[derive(Debug)]
#[must_use = "the collector is uninstalled when the guard drops"]
pub struct CollectorGuard {
    prev: Option<Frame>,
    /// Installs are per thread: the guard must drop where it was made.
    _not_send: PhantomData<*const ()>,
}

impl Drop for CollectorGuard {
    fn drop(&mut self) {
        if let Some(mut frame) = swap_frame(self.prev.take()) {
            frame.flush();
        }
    }
}

/// Whether a collector is installed on the current thread: one
/// thread-local read, the whole cost of a `span!` site when none is.
#[inline]
#[must_use]
pub fn tracing_enabled() -> bool {
    ACTIVE.with(Cell::get)
}

/// Uninstalls the current thread's collector, flushing what the thread
/// recorded into it. An enclosing [`CollectorGuard`] still restores its
/// previous installation when it drops.
pub fn disable_tracing() {
    if let Some(mut frame) = swap_frame(None) {
        frame.flush();
    }
}

/// Runs `f` on the current thread's frame, if a collector is installed.
fn with_frame(f: impl FnOnce(&mut Frame)) {
    let _ = CURRENT.try_with(|c| c.borrow_mut().as_mut().map(f));
}

type Fields = Vec<(&'static str, FieldValue)>;

/// An open span; on drop it adds its duration to its name's total and, if
/// the collector keeps events, records its `End` event. Construct through
/// [`crate::span!`], which performs the enabled check first.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
}

impl SpanGuard {
    /// Records the `Begin` event (when the collector keeps events) and
    /// starts the clock.
    #[must_use]
    pub fn begin(name: &'static str, fields: Fields) -> Self {
        let start = Instant::now();
        with_frame(|frame| frame.push(name, EventKind::Begin, start, fields));
        SpanGuard { name, start }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = Instant::now();
        with_frame(|frame| {
            let nanos = end.saturating_duration_since(self.start).as_nanos();
            let total = SpanTotal {
                name: self.name,
                nanos: u64::try_from(nanos).unwrap_or(u64::MAX),
                calls: 1,
            };
            add_total(&mut frame.totals, total);
            frame.push(self.name, EventKind::End, end, Vec::new());
        });
    }
}

/// Opens a span if a collector is installed on the current thread. Fields
/// are `"key" = value` pairs; values go through [`FieldValue::from`] and
/// are **not evaluated** when no collector is installed. Bind the result
/// to keep the span open:
///
/// ```
/// let collector = mcsched_obs::Collector::new();
/// let _installed = collector.install();
/// let _span = mcsched_obs::span!("cell", "policy" = "hcpa", "rep" = 3u64);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::span::tracing_enabled() {
            Some($crate::span::SpanGuard::begin($name, ::std::vec::Vec::new()))
        } else {
            None
        }
    };
    ($name:expr, $($key:literal = $value:expr),+ $(,)?) => {
        if $crate::span::tracing_enabled() {
            Some($crate::span::SpanGuard::begin(
                $name,
                ::std::vec![$(($key, $crate::span::FieldValue::from($value))),+],
            ))
        } else {
            None
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(dump: &TraceDump) -> Vec<(&'static str, EventKind)> {
        let events = dump.threads.iter().flat_map(|t| &t.events);
        events.map(|e| (e.name, e.kind)).collect()
    }

    #[test]
    fn spans_nest_and_carry_fields() {
        let collector = Collector::new();
        {
            let _g = crate::span!("before-install");
        }
        {
            let _installed = collector.install();
            let _outer = crate::span!("outer", "n" = 2u64);
            let _inner = crate::span!("inner", "policy" = "hcpa");
        }
        assert!(!tracing_enabled(), "the guard uninstalled the collector");
        let dump = collector.drain();
        assert_eq!(dump.threads.len(), 1);
        let t = &dump.threads[0];
        assert_eq!(Some(t.label.as_str()), std::thread::current().name());
        assert_eq!(
            names(&dump),
            vec![
                ("outer", EventKind::Begin),
                ("inner", EventKind::Begin),
                ("inner", EventKind::End),
                ("outer", EventKind::End),
            ]
        );
        assert_eq!(t.events[0].fields, vec![("n", FieldValue::U64(2))]);
        // Timestamps are monotone within a thread.
        assert!(t.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        let calls: Vec<(&str, u64)> = (collector.totals().iter())
            .map(|t| (t.name, t.calls))
            .collect();
        assert_eq!(calls, vec![("inner", 1), ("outer", 1)]);
        assert!(collector.drain().threads.is_empty(), "drain takes the log");
    }

    #[test]
    fn nested_installs_restore_and_keep_program_order() {
        let (a, b) = (Collector::new(), Collector::totals_only());
        let in_a = a.install();
        {
            let _outer = crate::span!("outer");
            {
                let _in_b = b.install();
                {
                    let _span = crate::span!("in-b");
                }
                {
                    let _none = install(None);
                    let _lost = crate::span!("lost");
                }
                disable_tracing();
                let _off = crate::span!("off");
            }
            assert!(tracing_enabled(), "A is back");
            // A nested install of the same collector keeps the thread's
            // stream in order.
            let _again = a.install();
            let _inner = crate::span!("inner");
        }
        drop(in_a);
        let names_of = |c: &Collector| c.totals().iter().map(|t| t.name).collect::<Vec<_>>();
        assert_eq!(names_of(&a), vec!["inner", "outer"]);
        assert_eq!(names_of(&b), vec!["in-b"]);
        assert!(b.drain().threads.is_empty(), "totals-only keeps no events");
        assert_eq!(
            names(&a.drain()),
            vec![
                ("outer", EventKind::Begin),
                ("inner", EventKind::Begin),
                ("inner", EventKind::End),
                ("outer", EventKind::End),
            ]
        );
    }
}
