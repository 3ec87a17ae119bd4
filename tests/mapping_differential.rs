//! Differential equivalence between the mapping step and its frozen
//! specification.
//!
//! `map_concurrent_with` keeps per-processor availability as a run-length
//! profile, selects ready tasks through heaps, evaluates each task's cost
//! model once per cluster and tabulates cross-cluster costs once per call.
//! None of that may change a decision: the straightforward list scheduler
//! below (sorted availability vectors, linear candidate scans, `analyze` for
//! bottom levels, one `Route` per cluster pair), written against the public
//! API only, is the specification, and the two must agree **bit for bit** on
//! every job, transfer and placement, for every ordering × packing ×
//! comm-aware combination.

use mcsched_core::allocation::{RefAllocation, ReferencePlatform};
use mcsched_core::mapping::{map_concurrent_with, MappingConfig, OrderingMode, Schedule};
use mcsched_platform::{grid5000, NetworkTopology, Platform, PlatformBuilder, ProcSet};
use mcsched_ptg::analysis::analyze;
use mcsched_ptg::gen::{random_ptg, RandomPtgConfig};
use mcsched_ptg::{CostModel, DataParallelTask, Ptg, PtgBuilder};
use mcsched_simx::{JobId, Route, SimJob, SimWorkload, SiteNetwork};
use mcsched_stats::QuickCheck;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// The specification's placement: the processor set is kept inline.
struct SpecPlacement {
    procs: ProcSet,
    est_start: f64,
    est_finish: f64,
    job: JobId,
}

/// The specification's schedule.
struct SpecSchedule {
    workload: SimWorkload,
    placements: Vec<Vec<SpecPlacement>>,
}

/// The reference mapper: a plain ready-task list scheduler with allocation
/// packing, kept deliberately naive.
fn spec_map(
    reference: &ReferencePlatform,
    network: &SiteNetwork,
    platform: &Platform,
    ptgs: &[Ptg],
    allocations: &[RefAllocation],
    release_times: &[f64],
    config: &MappingConfig,
) -> SpecSchedule {
    assert_eq!(ptgs.len(), allocations.len(), "one allocation per PTG");
    assert_eq!(ptgs.len(), release_times.len(), "one release time per PTG");
    let bottom_levels: Vec<Vec<f64>> = ptgs
        .iter()
        .zip(allocations)
        .map(|(ptg, alloc)| {
            analyze(
                ptg,
                |t| reference.task_time(ptg, t, alloc.procs_of(t)),
                |_| 0.0,
            )
            .bottom_levels
        })
        .collect();

    // `avail_sorted[k][q - 1].0` is the q-th smallest availability of
    // cluster `k`, ties broken by processor index.
    let mut avail_sorted: Vec<Vec<(f64, usize)>> = platform
        .clusters()
        .iter()
        .map(|c| (0..c.num_procs()).map(|p| (0.0f64, p)).collect())
        .collect();

    let nc = platform.num_clusters();
    let cluster_routes: Vec<Route> = (0..nc)
        .flat_map(|c1| {
            (0..nc).map(move |c2| (ProcSet::contiguous(c1, 0, 1), ProcSet::contiguous(c2, 0, 1)))
        })
        .map(|(src, dst)| network.route(&src, &dst))
        .collect();

    let mut placements: Vec<Vec<Option<SpecPlacement>>> = ptgs
        .iter()
        .map(|p| (0..p.num_tasks()).map(|_| None).collect())
        .collect();
    let mut unmapped_preds: Vec<Vec<usize>> = ptgs
        .iter()
        .map(|p| p.task_ids().map(|t| p.preds(t).len()).collect())
        .collect();

    let mut workload = SimWorkload::new();
    let mut priority_counter: u64 = 0;

    let mut candidates: Vec<(usize, usize, f64)> = Vec::new();
    match config.ordering {
        OrderingMode::ReadyTasks => {
            for (app, ptg) in ptgs.iter().enumerate() {
                for t in ptg.task_ids() {
                    if ptg.preds(t).is_empty() {
                        candidates.push((app, t, release_times[app]));
                    }
                }
            }
        }
        OrderingMode::Global => {
            for (app, ptg) in ptgs.iter().enumerate() {
                for t in ptg.task_ids() {
                    candidates.push((app, t, release_times[app]));
                }
            }
            candidates.sort_by(|&(aa, at, _), &(ba, bt, _)| {
                bottom_levels[ba][bt]
                    .total_cmp(&bottom_levels[aa][at])
                    .then(aa.cmp(&ba))
                    .then(at.cmp(&bt))
            });
        }
    }

    let mut no_backfill_floor = 0.0f64;
    let mut clock = 0.0f64;

    let total_tasks: usize = ptgs.iter().map(Ptg::num_tasks).sum();
    for _ in 0..total_tasks {
        let (app, task, _ready_at) = match config.ordering {
            OrderingMode::ReadyTasks => {
                let min_ready = candidates
                    .iter()
                    .map(|&(_, _, r)| r)
                    .fold(f64::INFINITY, f64::min);
                if min_ready > clock {
                    clock = min_ready;
                }
                let eps = 1e-9 * clock.abs().max(1.0);
                let best = candidates
                    .iter()
                    .enumerate()
                    .filter(|&(_, &(_, _, r))| r <= clock + eps)
                    .max_by(|&(_, &(aa, at, _)), &(_, &(ba, bt, _))| {
                        bottom_levels[aa][at]
                            .total_cmp(&bottom_levels[ba][bt])
                            .then(ba.cmp(&aa))
                            .then(bt.cmp(&at))
                    })
                    .map(|(i, _)| i)
                    .expect("at least one candidate is ready at the clock");
                candidates.swap_remove(best)
            }
            OrderingMode::Global => candidates.remove(0),
        };

        let ptg = &ptgs[app];
        let alloc = &allocations[app];
        let n_ref = alloc.procs_of(task);

        let data_ready = |dst_cluster: usize| -> f64 {
            let mut ready = release_times[app];
            for &(pred, edge) in ptg.preds(task) {
                let placement = placements[app][pred]
                    .as_ref()
                    .expect("predecessors are mapped before their successors");
                let mut t = placement.est_finish;
                if config.comm_aware && placement.procs.cluster() != dst_cluster {
                    let route = &cluster_routes[placement.procs.cluster() * nc + dst_cluster];
                    t += network.uncontended_time(route, ptg.edge(edge).bytes);
                }
                ready = ready.max(t);
            }
            ready
        };

        let mut best: Option<(f64, f64, usize, usize)> = None;
        for (k, cluster) in platform.clusters().iter().enumerate() {
            let full = reference
                .translate(n_ref, cluster.speed())
                .min(cluster.num_procs());
            let ready = data_ready(k).max(no_backfill_floor);

            let sorted_avail = &avail_sorted[k];
            let start_with = |q: usize| -> f64 { ready.max(sorted_avail[q - 1].0) };

            let full_start = start_with(full);
            let full_finish = full_start + ptg.task(task).parallel_time(full, cluster.speed());
            let mut chosen = (full_finish, full_start, k, full);

            if config.packing && full_start > ready + 1e-12 {
                for q in (1..full).rev() {
                    let s = start_with(q);
                    let f = s + ptg.task(task).parallel_time(q, cluster.speed());
                    if s < chosen.1 - 1e-12 && f <= chosen.0 + 1e-12 {
                        chosen = (f, s, k, q);
                    }
                }
            }

            match best {
                None => best = Some(chosen),
                Some(b)
                    if chosen.0 < b.0 - 1e-12
                        || ((chosen.0 - b.0).abs() <= 1e-12 && chosen.1 < b.1 - 1e-12) =>
                {
                    best = Some(chosen)
                }
                _ => {}
            }
        }

        let (finish, start, cluster_id, nprocs) =
            best.expect("a platform always has at least one cluster");

        let list = &mut avail_sorted[cluster_id];
        let chosen_procs: Vec<usize> = list[..nprocs].iter().map(|&(_, p)| p).collect();
        list.drain(..nprocs);
        for &p in &chosen_procs {
            let pos = list.partition_point(|&(v, i)| v.total_cmp(&finish).then(i.cmp(&p)).is_lt());
            list.insert(pos, (finish, p));
        }
        let procs = ProcSet::new(cluster_id, chosen_procs);

        let duration = ptg
            .task(task)
            .parallel_time(nprocs, platform.clusters()[cluster_id].speed());
        let job = workload.add_job(SimJob {
            procs: procs.clone(),
            duration,
            release_time: release_times[app],
            priority: priority_counter,
        });
        priority_counter += 1;

        placements[app][task] = Some(SpecPlacement {
            procs,
            est_start: start,
            est_finish: finish,
            job,
        });
        if config.ordering == OrderingMode::Global {
            no_backfill_floor = no_backfill_floor.max(start);
        }

        for &(succ, _) in ptg.succs(task) {
            unmapped_preds[app][succ] -= 1;
            if config.ordering == OrderingMode::ReadyTasks && unmapped_preds[app][succ] == 0 {
                let ready_at = ptg
                    .preds(succ)
                    .iter()
                    .map(|&(p, _)| {
                        placements[app][p]
                            .as_ref()
                            .expect("all predecessors are mapped")
                            .est_finish
                    })
                    .fold(release_times[app], f64::max);
                candidates.push((app, succ, ready_at));
            }
        }
    }

    for (app, ptg) in ptgs.iter().enumerate() {
        for e in ptg.edges() {
            let from = placements[app][e.src]
                .as_ref()
                .expect("all tasks mapped")
                .job;
            let to = placements[app][e.dst]
                .as_ref()
                .expect("all tasks mapped")
                .job;
            workload.add_transfer(from, to, e.bytes);
        }
    }

    SpecSchedule {
        workload,
        placements: placements
            .into_iter()
            .map(|v| {
                v.into_iter()
                    .map(|p| p.expect("all tasks mapped"))
                    .collect()
            })
            .collect(),
    }
}

/// Every ordering × packing × comm-aware combination.
fn all_configs() -> Vec<MappingConfig> {
    let mut configs = Vec::new();
    for ordering in [OrderingMode::ReadyTasks, OrderingMode::Global] {
        for packing in [false, true] {
            for comm_aware in [false, true] {
                configs.push(MappingConfig {
                    ordering,
                    packing,
                    comm_aware,
                });
            }
        }
    }
    configs
}

/// Asserts that the mapper and the specification agree bit for bit.
fn assert_same(fast: &Schedule, spec: &SpecSchedule, config: &MappingConfig) {
    let (w, s) = (&fast.workload, &spec.workload);
    assert_eq!(w.jobs.len(), s.jobs.len(), "{config:?}: job count");
    for (j, (a, b)) in w.jobs.iter().zip(&s.jobs).enumerate() {
        assert_eq!(a.procs, b.procs, "{config:?}: job {j} procs");
        assert_eq!(
            a.duration.to_bits(),
            b.duration.to_bits(),
            "{config:?}: job {j} duration"
        );
        assert_eq!(
            a.release_time.to_bits(),
            b.release_time.to_bits(),
            "{config:?}: job {j} release time"
        );
        assert_eq!(a.priority, b.priority, "{config:?}: job {j} priority");
    }
    assert_eq!(
        w.transfers.len(),
        s.transfers.len(),
        "{config:?}: transfers"
    );
    for (t, (a, b)) in w.transfers.iter().zip(&s.transfers).enumerate() {
        assert_eq!((a.from, a.to), (b.from, b.to), "{config:?}: transfer {t}");
        assert_eq!(
            a.bytes.to_bits(),
            b.bytes.to_bits(),
            "{config:?}: transfer {t} bytes"
        );
    }
    assert_eq!(fast.placements.len(), spec.placements.len());
    for (app, (pa, pb)) in fast.placements.iter().zip(&spec.placements).enumerate() {
        assert_eq!(pa.len(), pb.len(), "{config:?}: app {app} task count");
        for (t, (a, b)) in pa.iter().zip(pb).enumerate() {
            let at = format!("{config:?}: app {app} task {t}");
            assert_eq!(a.job, b.job, "{at}: job");
            assert_eq!(a.cluster, b.procs.cluster(), "{at}: cluster");
            assert_eq!(w.jobs[a.job].procs, b.procs, "{at}: procs");
            assert_eq!(
                a.est_start.to_bits(),
                b.est_start.to_bits(),
                "{at}: est_start"
            );
            assert_eq!(
                a.est_finish.to_bits(),
                b.est_finish.to_bits(),
                "{at}: est_finish"
            );
        }
    }
}

/// Maps one input with both implementations under every configuration.
fn check_all_configs(
    platform: &Platform,
    ptgs: &[Ptg],
    allocs: &[RefAllocation],
    releases: &[f64],
) {
    let reference = ReferencePlatform::new(platform);
    let network = SiteNetwork::new(platform);
    for config in all_configs() {
        let fast = map_concurrent_with(
            &reference, &network, platform, ptgs, allocs, releases, &config,
        );
        let spec = spec_map(
            &reference, &network, platform, ptgs, allocs, releases, &config,
        );
        assert_same(&fast, &spec, &config);
    }
}

/// A Grid'5000 site, or a random 2–4-cluster platform of either topology.
fn random_platform(rng: &mut ChaCha8Rng) -> Platform {
    if rng.gen_bool(0.5) {
        let mut sites = grid5000::all_sites();
        let k = rng.gen_range(0..sites.len());
        sites.swap_remove(k)
    } else {
        let mut b = PlatformBuilder::new("rand").topology(if rng.gen_bool(0.5) {
            NetworkTopology::shared_gigabit()
        } else {
            NetworkTopology::per_cluster_ten_gigabit()
        });
        for c in 0..rng.gen_range(2..=4) {
            b = b.cluster(
                format!("c{c}"),
                rng.gen_range(2..=40),
                1.0 + rng.gen_range(0..4) as f64,
            );
        }
        b.build().expect("random platform is valid")
    }
}

/// Release times: all zero, independent, or tied to within 1e-9 relative of
/// one base value (so the clock's tolerance window decides the order).
fn random_releases(rng: &mut ChaCha8Rng, n: usize) -> Vec<f64> {
    match rng.gen_range(0..3) {
        0 => vec![0.0; n],
        1 => (0..n)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    0.0
                } else {
                    rng.gen_range(0.0..200.0)
                }
            })
            .collect(),
        _ => {
            let base: f64 = rng.gen_range(0.0..50.0);
            (0..n)
                .map(|_| base * (1.0 + rng.gen_range(-1.0e-9..1.0e-9)) + rng.gen_range(0.0..2.0e-9))
                .collect()
        }
    }
}

#[test]
fn mapping_matches_spec_bit_for_bit_on_random_inputs() {
    QuickCheck::new(0x4D41_5050).cases(40).run(|rng, size| {
        let platform = random_platform(rng);
        let max_procs = platform
            .clusters()
            .iter()
            .map(|c| c.num_procs())
            .max()
            .expect("a platform has clusters");
        let napps = rng.gen_range(1..=(size as usize).clamp(1, 10));
        let ptgs: Vec<Ptg> = (0..napps)
            .map(|i| {
                let mut cfg = RandomPtgConfig::sample_paper_grid(rng);
                if rng.gen_bool(0.2) {
                    cfg.num_tasks = rng.gen_range(65..=100);
                }
                random_ptg(&cfg, rng, format!("g{i}"))
            })
            .collect();
        // Counts up to 1.5× the largest cluster, so translation caps them.
        let allocs: Vec<RefAllocation> = ptgs
            .iter()
            .map(|g| {
                RefAllocation::from_counts(
                    (0..g.num_tasks())
                        .map(|_| rng.gen_range(1..=max_procs + max_procs / 2))
                        .collect(),
                )
            })
            .collect();
        let releases = random_releases(rng, napps);
        check_all_configs(&platform, &ptgs, &allocs, &releases);
    });
}

fn chain(name: &str, n: usize, d: f64) -> Ptg {
    let mut b = PtgBuilder::new(name);
    for i in 0..n {
        b.add_task(DataParallelTask::new(
            format!("t{i}"),
            d,
            CostModel::MatrixProduct,
            0.1,
        ));
    }
    for i in 1..n {
        b.add_data_edge(i - 1, i);
    }
    b.build().expect("chain is valid")
}

#[test]
fn clock_creeps_by_less_than_the_tolerance() {
    // Releases spaced by a fraction of ε, growing bottom levels: each
    // selection moves the clock by a sub-ε step, which changes the window
    // the next one sees. With 0.5 ε steps, every other release lands exactly
    // on the edge of the window, which is inside it.
    let platform = grid5000::lille();
    for (base, step) in [(0.0, 0.4), (1.0e3, 0.4), (0.0, 0.5), (1.0e3, 0.5)] {
        let eps = 1e-9 * f64::max(base, 1.0);
        let ptgs: Vec<Ptg> = (0..8)
            .map(|i| chain(&format!("c{i}"), 3, 4.0e6 * (1.0 + i as f64)))
            .collect();
        let allocs: Vec<RefAllocation> = ptgs
            .iter()
            .map(|g| RefAllocation::from_counts(vec![6; g.num_tasks()]))
            .collect();
        let releases: Vec<f64> = (0..ptgs.len())
            .map(|i| base + step * eps * i as f64)
            .collect();
        check_all_configs(&platform, &ptgs, &allocs, &releases);
    }
}

#[test]
fn equal_bottom_levels_across_applications() {
    // Identical applications: every selection is decided by the (app, task)
    // tie-break.
    let platform = grid5000::nancy();
    let mut rng_cfg = RandomPtgConfig::default_config();
    rng_cfg.num_tasks = 20;
    let proto = {
        use rand::SeedableRng;
        random_ptg(&rng_cfg, &mut ChaCha8Rng::seed_from_u64(11), "proto")
    };
    let ptgs = vec![proto; 6];
    let allocs: Vec<RefAllocation> = ptgs
        .iter()
        .map(|g| RefAllocation::from_counts(vec![3; g.num_tasks()]))
        .collect();
    check_all_configs(&platform, &ptgs, &allocs, &[0.0; 6]);
    check_all_configs(&platform, &ptgs, &allocs, &[5.0, 5.0, 0.0, 0.0, 5.0, 0.0]);
}

#[test]
fn long_equal_availability_plateaus() {
    // Many identical one-processor tasks leave long runs of processors free
    // at the same instant; wide tasks then pack across those plateaus.
    let platform = PlatformBuilder::new("plateau")
        .cluster("big", 120, 1.0)
        .cluster("small", 16, 2.0)
        .build()
        .expect("platform is valid");
    let mut ptgs: Vec<Ptg> = (0..6).map(|i| chain(&format!("n{i}"), 4, 2.0e6)).collect();
    ptgs.push(chain("wide", 3, 64.0e6));
    let mut allocs: Vec<RefAllocation> = (0..6)
        .map(|_| RefAllocation::from_counts(vec![1; 4]))
        .collect();
    allocs.push(RefAllocation::from_counts(vec![110, 90, 200]));
    check_all_configs(&platform, &ptgs, &allocs, &[0.0; 7]);
    let releases: Vec<f64> = (0..7).map(|i| if i == 6 { 0.5 } else { 0.0 }).collect();
    check_all_configs(&platform, &ptgs, &allocs, &releases);
}
