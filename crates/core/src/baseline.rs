//! Single-PTG baseline heuristics from the related work.
//!
//! The paper's `S` (selfish) strategy emulates the behaviour of heuristics
//! designed for a *dedicated* platform. This module provides two such
//! heuristics explicitly so that the claim can be checked directly and so
//! that dedicated-platform reference makespans can be produced with
//! algorithms independent of the constrained pipeline:
//!
//! * **HCPA-like** — CPA allocation on the reference cluster followed by the
//!   ready-task earliest-finish-time mapping of this crate;
//! * **MHEFT-like** — no separate allocation step: each task, visited in
//!   bottom-level order, greedily picks the (cluster, processor count) pair
//!   minimising its earliest finish time, trying power-of-two processor
//!   counts on every cluster. This mirrors the moldable extension of HEFT
//!   used as a comparator in the authors' earlier work.

use crate::allocation::{cpa_allocate, RefAllocation, ReferencePlatform};
use crate::mapping::{map_concurrent, MappingConfig, Schedule};
use mcsched_platform::{Platform, ProcSet};
use mcsched_ptg::analysis::analyze;
use mcsched_ptg::Ptg;
use mcsched_simx::{SimJob, SimWorkload};

/// Schedules a single PTG on a dedicated platform with the HCPA-like
/// pipeline (CPA allocation + earliest-finish-time ready-list mapping).
pub fn hcpa_schedule(platform: &Platform, ptg: &Ptg) -> Schedule {
    let reference = ReferencePlatform::new(platform);
    let alloc = cpa_allocate(&reference, ptg);
    map_concurrent(
        platform,
        std::slice::from_ref(ptg),
        &[alloc],
        &[0.0],
        &MappingConfig::default(),
    )
}

/// Schedules a single PTG on a dedicated platform with an MHEFT-like greedy
/// heuristic: tasks are visited by decreasing bottom level (computed with
/// sequential times) and each picks the `(cluster, p)` pair — `p` a power of
/// two capped by the cluster size — that minimises its finish time given the
/// current processor availabilities.
pub fn mheft_schedule(platform: &Platform, ptg: &Ptg) -> Schedule {
    let reference = ReferencePlatform::new(platform);
    // Priorities from sequential bottom levels.
    let analysis = analyze(
        ptg,
        |t| ptg.task(t).sequential_time(reference.speed()),
        |_| 0.0,
    );
    let mut order: Vec<usize> = ptg.task_ids().collect();
    order.sort_by(|&a, &b| {
        analysis.bottom_levels[b]
            .total_cmp(&analysis.bottom_levels[a])
            .then(a.cmp(&b))
    });

    let mut avail: Vec<Vec<f64>> = platform
        .clusters()
        .iter()
        .map(|c| vec![0.0f64; c.num_procs()])
        .collect();
    let mut finish_time = vec![0.0f64; ptg.num_tasks()];
    let mut placements: Vec<Option<(usize, f64, f64)>> = vec![None; ptg.num_tasks()];
    let mut workload = SimWorkload::new();
    let mut jobs = vec![0usize; ptg.num_tasks()];

    for (rank, &t) in order.iter().enumerate() {
        let ready = ptg
            .preds(t)
            .iter()
            .map(|&(p, _)| finish_time[p])
            .fold(0.0f64, f64::max);
        let mut best: Option<(f64, f64, usize, usize)> = None; // finish, start, cluster, nprocs
        for (k, cluster) in platform.clusters().iter().enumerate() {
            let mut sorted = avail[k].clone();
            sorted.sort_by(f64::total_cmp);
            let mut p = 1usize;
            loop {
                let start = ready.max(sorted[p - 1]);
                let finish = start + ptg.task(t).parallel_time(p, cluster.speed());
                let candidate = (finish, start, k, p);
                match best {
                    None => best = Some(candidate),
                    Some(b) if candidate.0 < b.0 - 1e-12 => best = Some(candidate),
                    _ => {}
                }
                if p >= cluster.num_procs() {
                    break;
                }
                p = (p * 2).min(cluster.num_procs());
            }
        }
        let (finish, start, k, nprocs) = best.expect("at least one cluster");
        let mut indexed: Vec<(f64, usize)> = avail[k]
            .iter()
            .copied()
            .enumerate()
            .map(|(p, t)| (t, p))
            .collect();
        indexed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let chosen: Vec<usize> = indexed.iter().take(nprocs).map(|&(_, p)| p).collect();
        for &p in &chosen {
            avail[k][p] = finish;
        }
        finish_time[t] = finish;
        let duration = ptg
            .task(t)
            .parallel_time(nprocs, platform.clusters()[k].speed());
        jobs[t] = workload.add_job(SimJob {
            procs: ProcSet::new(k, chosen),
            duration,
            release_time: 0.0,
            priority: rank as u64,
        });
        placements[t] = Some((k, start, finish));
    }

    for e in ptg.edges() {
        workload.add_transfer(jobs[e.src], jobs[e.dst], e.bytes);
    }

    Schedule {
        workload,
        placements: vec![placements
            .into_iter()
            .enumerate()
            .map(|(t, p)| {
                let (cluster, est_start, est_finish) = p.expect("all tasks mapped");
                crate::mapping::TaskPlacement {
                    cluster,
                    est_start,
                    est_finish,
                    job: jobs[t],
                }
            })
            .collect()],
    }
}

/// Reference allocation chosen by the HCPA baseline (exposed for inspection).
pub fn hcpa_allocation(platform: &Platform, ptg: &Ptg) -> RefAllocation {
    cpa_allocate(&ReferencePlatform::new(platform), ptg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_platform::grid5000;
    use mcsched_ptg::gen::{random::RandomPtgConfig, random_ptg};
    use mcsched_simx::Engine;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_ptg(seed: u64, tasks: usize) -> Ptg {
        let cfg = RandomPtgConfig {
            num_tasks: tasks,
            ..RandomPtgConfig::default_config()
        };
        random_ptg(&cfg, &mut ChaCha8Rng::seed_from_u64(seed), "app")
    }

    #[test]
    fn hcpa_schedule_is_simulable() {
        let p = grid5000::lille();
        let g = sample_ptg(1, 20);
        let s = hcpa_schedule(&p, &g);
        assert!(s.workload.validate(&p).is_ok());
        let out = Engine::new(&p).execute(&s.workload).unwrap();
        assert!(out.makespan > 0.0);
    }

    #[test]
    fn mheft_schedule_is_simulable() {
        let p = grid5000::nancy();
        let g = sample_ptg(2, 20);
        let s = mheft_schedule(&p, &g);
        assert!(s.workload.validate(&p).is_ok());
        assert_eq!(s.workload.num_jobs(), 20);
        let out = Engine::new(&p).execute(&s.workload).unwrap();
        assert!(out.makespan > 0.0);
    }

    #[test]
    fn mheft_respects_precedence_in_estimates() {
        let p = grid5000::sophia();
        let g = sample_ptg(3, 10);
        let s = mheft_schedule(&p, &g);
        for e in g.edges() {
            assert!(s.placements[0][e.src].est_finish <= s.placements[0][e.dst].est_start + 1e-9);
        }
    }

    #[test]
    fn parallel_heuristics_beat_sequential_execution() {
        // Both baselines should comfortably beat running every task on a
        // single slow processor back to back.
        let p = grid5000::rennes();
        let g = sample_ptg(4, 20);
        let sequential: f64 = g
            .tasks()
            .iter()
            .map(|t| t.sequential_time(p.reference_speed()))
            .sum();
        for schedule in [hcpa_schedule(&p, &g), mheft_schedule(&p, &g)] {
            let out = Engine::new(&p).execute(&schedule.workload).unwrap();
            assert!(out.makespan < sequential);
        }
    }

    #[test]
    fn hcpa_allocation_gives_every_task_at_least_one_proc() {
        let p = grid5000::lille();
        let g = sample_ptg(5, 10);
        let a = hcpa_allocation(&p, &g);
        assert!(a.counts().iter().all(|&c| c >= 1));
    }
}
