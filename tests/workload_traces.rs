//! Integration tests for the `mcsched-workload` subsystem: trace round-trips
//! must preserve schedules bit-exactly, generation must be deterministic per
//! seed, and invalid workloads must be rejected at every boundary.

use mcsched::exp::{run_campaign, CampaignConfig};
use mcsched::prelude::*;
use std::sync::Arc;

fn quick_campaign() -> CampaignConfig {
    CampaignConfig {
        ptg_counts: vec![2, 4],
        combinations: 2,
        strategies: CampaignConfig::policies(&[
            ConstraintStrategy::EqualShare,
            ConstraintStrategy::Proportional(Characteristic::Work),
        ]),
        threads: 2,
        ..CampaignConfig::paper(PtgClass::Random)
    }
}

/// Records every workload of a campaign configuration, mirroring the
/// `--export-trace` request list.
fn record_trace(config: &CampaignConfig) -> Trace {
    let label = config.source.short_label();
    let requests: Vec<WorkloadRequest> = config
        .ptg_counts
        .iter()
        .flat_map(|&count| {
            mcsched::exp::combo_requests(&label, count, config.combinations, config.seed)
        })
        .collect();
    Trace::record(config.source.as_ref(), &requests, config.seed).unwrap()
}

#[test]
fn trace_round_trip_preserves_schedule_output() {
    // Generate → export JSON → import → the replayed campaign must produce
    // identical reports (the acceptance criterion of the subsystem).
    let live_config = quick_campaign();
    let live = run_campaign(&live_config).unwrap();

    let trace = record_trace(&live_config);
    let imported = Trace::from_json(&trace.to_json()).unwrap();
    assert_eq!(trace, imported);

    let replay_config = CampaignConfig {
        source: Arc::new(TraceSource::new(imported)),
        ..quick_campaign()
    };
    let replayed = run_campaign(&replay_config).unwrap();
    assert_eq!(live, replayed);
}

#[test]
fn single_workload_trace_round_trip_schedules_identically() {
    // Down at the scheduler level: one workload exported and re-imported
    // produces the same evaluated run, slowdown by slowdown.
    let catalog = WorkloadCatalog::builtin();
    let source = catalog
        .resolve("daggen@n=20,width=0.5/poisson@lambda=0.001")
        .unwrap();
    let request = WorkloadRequest::new(0xABCDEF, 4, "rt");
    let workload = source.generate(&request).unwrap();

    let trace = Trace::record(source.as_ref(), std::slice::from_ref(&request), 1).unwrap();
    let imported = Trace::from_json(&trace.to_json()).unwrap();
    let replayed = TraceSource::new(imported).generate(&request).unwrap();
    assert_eq!(workload, replayed);

    let platform = grid5000::lille();
    let evaluate = |workload: &Workload| {
        ScheduleContext::for_workload(&platform, workload, SchedulerConfig::default())
            .evaluate()
            .unwrap()
    };
    let live = evaluate(&workload);
    let again = evaluate(&replayed);
    assert_eq!(live.global_makespan, again.global_makespan);
    assert_eq!(live.fairness.slowdowns, again.fairness.slowdowns);
    assert_eq!(live.fairness.unfairness, again.fairness.unfairness);
}

#[test]
fn generators_are_deterministic_across_two_runs_with_the_same_seed() {
    let catalog = WorkloadCatalog::builtin();
    for spec in [
        "random",
        "daggen@n=50,width=0.2,regularity=0.2,density=0.8,jump=4",
        "fft@points=8",
        "strassen",
        "random+strassen/uniform@lo=1,hi=10",
        "poisson@lambda=0.1",
    ] {
        let source = catalog.resolve(spec).unwrap();
        let request = WorkloadRequest::new(2024, 5, "det");
        let a = source.generate(&request).unwrap();
        let b = source.generate(&request).unwrap();
        assert_eq!(a, b, "spec `{spec}` is not deterministic");
        // A different seed must change the draws.
        let c = source
            .generate(&WorkloadRequest::new(2025, 5, "det"))
            .unwrap();
        assert_ne!(a.ptgs(), c.ptgs(), "spec `{spec}` ignores the seed");
    }
}

#[test]
fn workload_released_rejects_invalid_release_times() {
    // The satellite fix: non-finite or negative release times must be
    // rejected with `InvalidConfig`, never silently accepted — at the API
    // boundary and through trace import alike.
    let mk = || {
        let mut b = PtgBuilder::new("app");
        b.add_task(DataParallelTask::new(
            "t",
            5.0e6,
            CostModel::MatrixProduct,
            0.1,
        ));
        b.build().unwrap()
    };
    for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(
            matches!(
                Workload::released(vec![mk()], vec![bad]),
                Err(SchedError::InvalidConfig(_))
            ),
            "release time {bad} must be rejected"
        );
    }
    // Valid times are accepted and preserved.
    let w = Workload::released(vec![mk(), mk()], vec![0.0, 3.5]).unwrap();
    assert_eq!(w.release_times(), &[0.0, 3.5]);

    // A trace that smuggles a NaN release time is rejected on import.
    let source = GeneratorSource::new(AppGenerator::Strassen);
    let trace = Trace::record(&source, &[WorkloadRequest::new(3, 1, "s-0")], 3).unwrap();
    let text = trace
        .to_json()
        .replacen("\"release\":0", "\"release\":1e999", 1);
    assert!(matches!(
        Trace::from_json(&text),
        Err(SchedError::InvalidConfig(_))
    ));
}

#[test]
fn catalog_specs_resolve_from_the_facade() {
    let catalog = WorkloadCatalog::builtin();
    let source = catalog.resolve("daggen@n=50,width=0.5").unwrap();
    let w = source
        .generate(&WorkloadRequest::new(7, 3, "facade"))
        .unwrap();
    assert_eq!(w.len(), 3);
    for ptg in w.ptgs() {
        assert_eq!(ptg.num_tasks(), 50);
    }
    assert!(matches!(
        catalog.resolve("nope"),
        Err(SchedError::UnknownPolicy {
            kind: PolicyKind::WorkloadSource,
            ..
        })
    ));
}

#[test]
fn trace_round_trip_is_lossless_for_arbitrary_daggen_workloads() {
    // Property, on the QuickCheck harness: whatever (bounded) DAGGEN
    // configuration, arrival process and seed, export → JSON → import is
    // lossless and the replayed trace regenerates the workload bit-exactly.
    // Counterexamples shrink by halving (smaller graphs, fewer apps) and the
    // failure message prints the reproducing seed.
    use rand::Rng;
    QuickCheck::new(0x77ACE).cases(12).run(|rng, size| {
        let n = rng.gen_range(4..=(size as usize).clamp(4, 40));
        let width = [0.2, 0.5, 0.8][rng.gen_range(0..3usize)];
        let arrival =
            ["", "/poisson@lambda=0.01", "/bursty@burst=2,gap=100"][rng.gen_range(0..3usize)];
        let spec = format!("daggen@n={n},width={width}{arrival}");
        let source = WorkloadCatalog::builtin().resolve(&spec).unwrap();

        let apps = rng.gen_range(1..=((size as usize).clamp(1, 4)));
        let request = WorkloadRequest::new(rng.gen_range(0..u64::MAX), apps, "prop");
        let live = source.generate(&request).unwrap();

        let trace = Trace::record(
            source.as_ref(),
            std::slice::from_ref(&request),
            request.seed,
        )
        .unwrap();
        let imported = Trace::from_json(&trace.to_json()).unwrap();
        assert_eq!(trace, imported, "JSON round trip must be lossless ({spec})");

        let replayed = TraceSource::new(imported).generate(&request).unwrap();
        assert_eq!(live, replayed, "replay must be bit-exact ({spec})");
        assert_eq!(replayed.len(), apps);
    });
}

#[test]
fn timed_workloads_flow_through_the_scheduler() {
    // Arrival processes must reach the simulation: a workload with staggered
    // releases cannot finish earlier than its last release time.
    let catalog = WorkloadCatalog::builtin();
    let source = catalog.resolve("strassen/bursty@burst=1,gap=500").unwrap();
    let workload = source
        .generate(&WorkloadRequest::new(11, 3, "timed"))
        .unwrap();
    assert_eq!(workload.release_times(), &[0.0, 500.0, 1000.0]);
    let platform = grid5000::lille();
    let run = ScheduleContext::for_workload(&platform, &workload, SchedulerConfig::default())
        .schedule()
        .unwrap();
    assert!(run.global_makespan >= 1000.0);
}
