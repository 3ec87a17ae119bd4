//! Trace exporters: Chrome-trace/Perfetto JSON and the deterministic
//! JSONL event journal.
//!
//! Two views of the same [`TraceDump`], with opposite contracts:
//!
//! * [`chrome_trace`] keeps everything — wall-clock timestamps in
//!   microseconds and one named track per thread — and loads directly in
//!   `chrome://tracing` or <https://ui.perfetto.dev>. It is *valid* every
//!   run but not byte-reproducible (timestamps are real).
//! * [`journal_jsonl`] strips timestamps and thread identity and sorts the
//!   remaining span/instant lines lexicographically, so the journal for a
//!   fixed workload is byte-identical across runs, thread counts and
//!   task-to-thread assignments — it answers "*what* ran, with *which* fields,
//!   *how many* times", never "when/where".
//!
//! Both lay out their lines by hand for a stable byte format and quote
//! strings with the codec's [`write_str`].

use crate::json::write_str;
use crate::span::{EventKind, FieldValue, TraceDump};

fn push_field_value(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(v) => out.push_str(&format!("{v}")),
        FieldValue::I64(v) => out.push_str(&format!("{v}")),
        FieldValue::F64(v) if v.is_finite() => out.push_str(&format!("{v}")),
        FieldValue::F64(v) => write_str(out, &format!("{v}")),
        FieldValue::Static(s) => write_str(out, s),
        FieldValue::Str(s) => write_str(out, s),
    }
}

fn push_fields_object(out: &mut String, fields: &[(&'static str, FieldValue)]) {
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, key);
        out.push(':');
        push_field_value(out, value);
    }
    out.push('}');
}

/// Renders the dump as a Chrome-trace JSON object (`traceEvents` array
/// with `B`/`E` events plus `thread_name` metadata), loadable in
/// Perfetto. Timestamps are microseconds since the collector was created;
/// `tid` is the thread's ordinal in the collector.
#[must_use]
pub fn chrome_trace(dump: &TraceDump) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push_event = |text: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&text);
    };
    for thread in &dump.threads {
        let mut meta = String::from("{\"ph\":\"M\",\"pid\":1,\"tid\":");
        meta.push_str(&format!("{}", thread.ordinal));
        meta.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":");
        write_str(&mut meta, &thread.label);
        meta.push_str("}}");
        push_event(meta, &mut first);
        for event in &thread.events {
            let ph = match event.kind {
                EventKind::Begin => "B",
                EventKind::End => "E",
            };
            let mut line = format!(
                "{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"name\":",
                thread.ordinal,
                event.t_ns as f64 / 1e3,
            );
            write_str(&mut line, event.name);
            if !event.fields.is_empty() {
                line.push_str(",\"args\":");
                push_fields_object(&mut line, &event.fields);
            }
            line.push('}');
            push_event(line, &mut first);
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Renders the dump as the deterministic JSONL event journal: one JSON
/// object per span begin (`{"event":"span","name":…,"fields":{…}}`),
/// with no timestamps or thread ids, sorted
/// lexicographically. Byte-identical across runs and thread counts for a
/// fixed workload.
#[must_use]
pub fn journal_jsonl(dump: &TraceDump) -> String {
    let mut lines: Vec<String> = Vec::new();
    for thread in &dump.threads {
        for event in &thread.events {
            if event.kind == EventKind::End {
                continue;
            }
            let mut line = String::from("{\"event\":\"span\",\"name\":");
            write_str(&mut line, event.name);
            line.push_str(",\"fields\":");
            push_fields_object(&mut line, &event.fields);
            line.push('}');
            lines.push(line);
        }
    }
    lines.sort_unstable();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Event, ThreadEvents};

    fn sample_dump() -> TraceDump {
        TraceDump {
            threads: vec![
                ThreadEvents {
                    ordinal: 1,
                    label: "worker-1".into(),
                    events: vec![
                        Event {
                            name: "cell",
                            kind: EventKind::Begin,
                            t_ns: 1_500,
                            fields: vec![("policy", FieldValue::Static("hcpa"))],
                        },
                        Event {
                            name: "cell",
                            kind: EventKind::End,
                            t_ns: 2_500,
                            fields: vec![],
                        },
                    ],
                },
                ThreadEvents {
                    ordinal: 0,
                    label: "main".into(),
                    events: vec![Event {
                        name: "tick \"q\"",
                        kind: EventKind::Begin,
                        t_ns: 10,
                        fields: vec![("n", FieldValue::U64(3))],
                    }],
                },
            ],
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let json = chrome_trace(&sample_dump());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"args\":{\"name\":\"worker-1\"}"));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"args\":{\"policy\":\"hcpa\"}"));
        // Escaped names survive.
        assert!(json.contains("tick \\\"q\\\""));
    }

    #[test]
    fn journal_is_sorted_and_threadless() {
        let journal = journal_jsonl(&sample_dump());
        let lines: Vec<&str> = journal.lines().collect();
        assert_eq!(lines.len(), 2, "end events are folded into their span");
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        assert!(journal
            .contains("{\"event\":\"span\",\"name\":\"cell\",\"fields\":{\"policy\":\"hcpa\"}}"));
        assert!(!journal.contains("t_ns"));
        assert!(!journal.contains("ts"));
        assert!(journal.ends_with('\n'));
        assert_eq!(journal_jsonl(&TraceDump::default()), "");
    }

    #[test]
    fn field_values_render_as_json() {
        let mut s = String::new();
        push_fields_object(
            &mut s,
            &[
                ("u", FieldValue::U64(7)),
                ("i", FieldValue::I64(-2)),
                ("f", FieldValue::F64(0.5)),
                ("nan", FieldValue::F64(f64::NAN)),
                ("s", FieldValue::Str("a\"b".into())),
            ],
        );
        assert_eq!(
            s,
            "{\"u\":7,\"i\":-2,\"f\":0.5,\"nan\":\"NaN\",\"s\":\"a\\\"b\"}"
        );
    }
}
