//! Tour of the `mcsched-workload` subsystem: resolve spec strings from the
//! catalog, generate timed workloads, export/replay a trace, and print the
//! width-calibration table behind the DAGGEN generator.
//!
//! Run with `cargo run --release --example workloads_and_traces`.

use mcsched::prelude::*;
use mcsched::workload::compare_paper_widths;

fn main() {
    let catalog = WorkloadCatalog::builtin();

    // 1. Resolve a calibrated DAGGEN source with Poisson arrivals and
    //    generate a deterministic workload.
    let source = catalog
        .resolve("daggen@n=50,width=0.5/poisson@lambda=0.001")
        .expect("spec resolves");
    let request = WorkloadRequest::new(42, 4, "demo");
    let workload = source.generate(&request).expect("generation succeeds");
    println!(
        "spec `{}` produced {} applications:",
        source.spec(),
        workload.len()
    );
    for (ptg, release) in workload.ptgs().iter().zip(workload.release_times()) {
        println!(
            "  {:<8} {:>3} tasks, {:>6.1} Gflop, released at t = {release:.1} s",
            ptg.name(),
            ptg.num_tasks(),
            ptg.total_work() / 1e9
        );
    }

    // 2. Schedule it, export it as a trace, re-import, and verify the
    //    replayed schedule is identical.
    let platform = grid5000::lille();
    let config = SchedulerConfig {
        constraint: PolicyRegistry::builtin()
            .constraint("wps-work@0.7")
            .expect("policy names resolve"),
        ..SchedulerConfig::default()
    };
    let evaluate = |workload: &Workload| {
        ScheduleContext::for_workload(&platform, workload, config.clone())
            .evaluate()
            .expect("scheduling succeeds")
    };
    let live = evaluate(&workload);

    let trace =
        Trace::record(source.as_ref(), std::slice::from_ref(&request), 42).expect("record ok");
    let replayed_workload =
        TraceSource::new(Trace::from_json(&trace.to_json()).expect("trace round-trips"))
            .generate(&request)
            .expect("replay succeeds");
    let replayed = evaluate(&replayed_workload);
    println!(
        "\nlive makespan {:.1} s, replayed-from-JSON makespan {:.1} s (identical: {})",
        live.global_makespan,
        replayed.global_makespan,
        live.global_makespan == replayed.global_makespan
    );

    // 3. The width-calibration table: why the DAGGEN generator exists.
    println!(
        "\nwidth calibration (realized max width, 64 samples/cell; the paper's \
         generator targets fat*sqrt(n)):"
    );
    println!(
        "{:>4} {:>6} {:>12} {:>16} {:>16}",
        "n", "width", "paper target", "daggen realized", "legacy realized"
    );
    for row in compare_paper_widths(64, 0xCAFE) {
        println!(
            "{:>4} {:>6.1} {:>12.1} {:>13.1} +- {:<4.1} {:>12.1} +- {:<4.1}",
            row.num_tasks,
            row.width,
            row.paper_mean_width,
            row.daggen.mean_max_width,
            row.daggen.std_max_width,
            row.legacy.mean_max_width,
            row.legacy.std_max_width,
        );
    }
}
