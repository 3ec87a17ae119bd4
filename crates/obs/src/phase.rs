//! The per-phase wall-clock report (`--profile` / `MCSCHED_PROFILE=1`).
//!
//! A *phase* is a span name worth a line in the report: the pipeline
//! stages below, opened with plain [`crate::span!`]s at their call sites.
//! There is no separate timing registry: the report renders the by-name
//! [`SpanTotal`]s of the run's [`crate::Collector`], so its totals are
//! *aggregate* busy time across threads (they can exceed wall time when
//! fan-out threads overlap). Other span names (`pool-task`, `cell-eval`, …)
//! are summed too but not reported.

use crate::span::SpanTotal;

/// The reported phases, in report order:
///
/// * `workload-gen` — drawing the PTGs / workloads of a scenario;
/// * `beta+alloc` — constraint β vectors plus constrained allocations;
/// * `mapping` — the concurrent mapping step (list scheduling + packing);
/// * `simx-execute` — simulated executions (concurrent and dedicated);
/// * `stats` — summaries, bootstrap CIs, paired analysis;
/// * `online-loop` — the online scheduler's event loop proper, *excluding*
///   the nested phases it triggers, which report under their own names.
pub const PHASE_NAMES: [&str; 6] = [
    "workload-gen",
    "beta+alloc",
    "mapping",
    "simx-execute",
    "stats",
    "online-loop",
];

/// Renders the report over `totals`: a header, then one line per phase of
/// [`PHASE_NAMES`] that ran, in that order, with its share of the phases'
/// summed time. `None` when no phase recorded any time.
#[must_use]
fn render_report(totals: &[SpanTotal]) -> Option<String> {
    let phase = |name: &str| {
        totals
            .iter()
            .find(|t| t.name == name)
            .map_or((0, 0), |t| (t.nanos, t.calls))
    };
    let total: u64 = PHASE_NAMES.iter().map(|&n| phase(n).0).sum();
    if total == 0 {
        return None;
    }
    let mut out = String::from("profile: phase timings (aggregate across threads)\n");
    for name in PHASE_NAMES {
        let (nanos, calls) = phase(name);
        if calls == 0 {
            continue;
        }
        out.push_str(&format!(
            "profile:   {:<13} {:>10.3} ms  {:>9} calls  {:>5.1}%\n",
            name,
            nanos as f64 / 1e6,
            calls,
            100.0 * nanos as f64 / total as f64
        ));
    }
    Some(out)
}

/// Prints the report over `totals` line by line through the stderr sink, so
/// `--quiet` silences it.
pub fn report(totals: &[SpanTotal]) {
    if let Some(text) = render_report(totals) {
        for line in text.lines() {
            crate::note!("{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;

    #[test]
    fn span_sums_report_in_byte_format_and_phase_order() {
        let collector = Collector::totals_only();
        {
            let _installed = collector.install();
            let _g = crate::span!("mapping");
            let _other = crate::span!("not-a-phase");
        }
        let line = render_report(&collector.totals()).unwrap();
        let line = line.lines().nth(1).unwrap();
        assert!(line.starts_with("profile:   mapping       "), "{line:?}");
        assert!(line.ends_with(" 1 calls  100.0%"), "{line:?}");
        assert!(render_report(&[]).is_none());

        let total = |name, nanos| SpanTotal {
            name,
            nanos,
            calls: 1,
        };
        let totals = [total("stats", 1_000_000), total("workload-gen", 3_000_000)];
        assert_eq!(
            render_report(&totals).unwrap(),
            "profile: phase timings (aggregate across threads)\n\
             profile:   workload-gen       3.000 ms          1 calls   75.0%\n\
             profile:   stats              1.000 ms          1 calls   25.0%\n",
            "phases in report order; those with zero calls omitted"
        );
    }
}
