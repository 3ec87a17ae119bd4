//! `simx`: the flat-arena kernel (`mcsched_simx::Engine`) against the
//! frozen pre-refactor reference (`mcsched_simx::reference_execute`) on
//! four synthetic families over Lille: `wide-ready` (independent jobs, no
//! transfers: ready set and dispatch order), `layered-dag` (mixed local,
//! zero-byte and remote transfers: event queue and routes),
//! `contended-links` (many large cross-cluster transfers: the max-min fair
//! flow network) and `dense-fanout` (stage-to-stage all-to-all, over 100
//! flows in flight at once: per-event rate recomputation).
//!
//! Before any timing, engine and reference makespans must be bit-identical.
//! A row times one execute (the mean over a batch of 32, 4 with `--smoke`);
//! its values are the simulated `jobs` and `transfers`, the `events` per
//! execute (a start and a completion per job and per transfer),
//! `flows_peak` (the `simx.flows_peak` gauge after the engine's run) and
//! `events_per_s`. The speedup over the reference goes to stderr.

use mcsched_bench::ledger::{time, Args, Ledger};
use mcsched_obs::json::Json;
use mcsched_platform::{grid5000, Platform, ProcSet};
use mcsched_simx::{reference_execute, Engine, SimJob, SimWorkload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic pseudo-random job: a contiguous processor set on a random
/// cluster, a duration in [0.1, 10), a shared-priority band and a release
/// time drawn from a small discrete set (forcing simultaneity windows).
fn push_job(w: &mut SimWorkload, rng: &mut ChaCha8Rng, platform: &Platform, max_procs: usize) {
    let cluster = rng.gen_range(0..platform.num_clusters());
    let nprocs = platform.clusters()[cluster].num_procs().min(max_procs);
    let first = rng.gen_range(0..platform.clusters()[cluster].num_procs() - nprocs + 1);
    let count = rng.gen_range(1..=nprocs);
    let mut job = SimJob::new(
        ProcSet::contiguous(cluster, first, count),
        rng.gen_range(0.1..10.0),
        rng.gen_range(0..8),
    );
    job.release_time = [0.0, 0.0, 0.5, 1.0, 2.5][rng.gen_range(0..5)];
    w.add_job(job);
}

/// Builds one workload of the named family at roughly `n` jobs.
fn build_family(family: &str, n: usize, platform: &Platform, seed: u64) -> SimWorkload {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut w = SimWorkload::new();
    match family {
        "wide-ready" => {
            for _ in 0..n {
                push_job(&mut w, &mut rng, platform, 4);
            }
        }
        "layered-dag" => {
            for _ in 0..n {
                push_job(&mut w, &mut rng, platform, 8);
            }
            for j in 1..n {
                for _ in 0..rng.gen_range(0..=2.min(j)) {
                    let i = rng.gen_range(0..j);
                    let bytes = match rng.gen_range(0..4) {
                        0 => 0.0,
                        1 => 1.0e3,
                        2 => 1.0e7,
                        _ => rng.gen_range(1.0e6..2.0e8),
                    };
                    w.add_transfer(i, j, bytes);
                }
            }
        }
        "contended-links" => {
            for _ in 0..n {
                push_job(&mut w, &mut rng, platform, 16);
            }
            // Dense forward edges with large volumes: many concurrent flows
            // share the same backbone links.
            for j in 1..n {
                for _ in 0..rng.gen_range(1..=3.min(j)) {
                    let i = rng.gen_range(0..j);
                    w.add_transfer(i, j, rng.gen_range(1.0e8..8.0e8));
                }
            }
        }
        "dense-fanout" => {
            // Stage `s` job `i` runs alone on one processor of cluster
            // `(s + i) mod nc`, so a stage's jobs start and finish together
            // and its `WIDTH²` transfers to the next stage are all in flight
            // at once, crossing at most `nc²` distinct routes.
            const WIDTH: usize = 12;
            let nc = platform.num_clusters();
            let stages = (n / WIDTH).max(2);
            for s in 0..stages {
                for i in 0..WIDTH {
                    w.add_job(SimJob::new(
                        ProcSet::contiguous((s + i) % nc, i / nc, 1),
                        1.0,
                        s as u64,
                    ));
                }
            }
            for s in 1..stages {
                for i in 0..WIDTH {
                    for j in 0..WIDTH {
                        let bytes = rng.gen_range(1.0e7..4.0e8);
                        w.add_transfer((s - 1) * WIDTH + i, s * WIDTH + j, bytes);
                    }
                }
            }
        }
        other => unreachable!("unknown family {other}"),
    }
    w
}

pub fn run(args: &Args) -> Ledger {
    let iterations = args.iterations.unwrap_or(if args.smoke { 2 } else { 5 });
    let batch = if args.smoke { 4 } else { 32 };
    let platform = grid5000::lille();
    let sizes = if args.smoke {
        [24, 24, 16, 24]
    } else {
        [256, 256, 128, 96]
    };
    let families = [
        "wide-ready",
        "layered-dag",
        "contended-links",
        "dense-fanout",
    ];
    let mut ledger = Ledger::new(vec![
        ("iterations".into(), Json::num_usize(iterations)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("batch".into(), Json::num_usize(batch)),
        ("platform".into(), Json::Str(platform.name().into())),
    ]);

    for (family, n) in families.into_iter().zip(sizes) {
        let workload = build_family(family, n, &platform, 0x51AF_0000 ^ n as u64);
        let engine = Engine::new(&platform);

        // Bit-identity gate: a speedup over a diverging simulation would be
        // meaningless, so check before timing.
        let fast = engine.execute(&workload).expect("engine runs");
        // The gauge's current value is the peak of the run just made.
        let flows_peak = mcsched_obs::metrics::gauge("simx.flows_peak").get();
        let reference = reference_execute(&platform, &workload).expect("reference runs");
        assert_eq!(
            fast.makespan.to_bits(),
            reference.makespan.to_bits(),
            "{family}: engine and reference makespans diverge"
        );
        let jobs = fast.trace.jobs.iter().flatten().count();
        let transfers = fast.trace.transfers.iter().flatten().count();
        let events = 2 * (jobs + transfers);

        let engine_run = || {
            std::hint::black_box(engine.execute(&workload).expect("engine runs"));
        };
        let reference_run = || {
            std::hint::black_box(reference_execute(&platform, &workload).expect("reference runs"));
        };
        let runs: [(&str, &dyn Fn()); 2] = [("engine", &engine_run), ("reference", &reference_run)];
        for (implementation, execute) in runs {
            let row = time(family, implementation, iterations, || {
                (0..batch).for_each(|_| execute());
            })
            .per(batch);
            let events_per_s = events as f64 / row.mean_s();
            let row = row
                .value("jobs", jobs as f64)
                .value("transfers", transfers as f64)
                .value("events", events as f64)
                .value("flows_peak", flows_peak as f64)
                .value("events_per_s", events_per_s);
            ledger.push(row);
        }
        let mean = |case| ledger.row(family, case).map_or(f64::NAN, |r| r.mean_ms);
        let speedup = mean("reference") / mean("engine");
        eprintln!("{family}: engine {speedup:.2}x faster than reference");
    }
    ledger
}
