//! `allocation`: the allocation step alone, over 64 fixed paper-grid random
//! PTGs (16 with `--smoke`) on the first four Grid'5000 sites. Rows:
//!
//! * `dedicated/scrap-max` — `scrap_max_allocate` at β = 1, the dedicated
//!   baseline's allocation, once per (site, PTG);
//! * `constrained/fresh` — `scrap_max_allocate` at β ∈ {1/2, 1/4, 1/10};
//! * `constrained/resumed` — the same allocations resumed from fresh β = 1
//!   `ScrapLog`s (recorded outside the timed region);
//! * `constrained/memo-hit` — the same resumes repeated on those logs,
//!   answered from their memo.
//!
//! Values: `calls` per sample, and for the dedicated row the granted
//! processors beyond one per task (`grants`) and `ns_per_grant`.

use mcsched_bench::ledger::{time, time_with, Args, Ledger};
use mcsched_core::allocation::{scrap_max_allocate, ScrapLog, ScrapVariant};
use mcsched_core::ReferencePlatform;
use mcsched_obs::json::Json;
use mcsched_platform::grid5000;
use mcsched_ptg::gen::{random_ptg, RandomPtgConfig};
use mcsched_ptg::Ptg;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SEED: u64 = 0xBEEF;
const BETAS: [f64; 3] = [0.5, 0.25, 0.1];

pub fn run(args: &Args) -> Ledger {
    let iterations = args.iterations.unwrap_or(if args.smoke { 2 } else { 5 });
    let num_ptgs = if args.smoke { 16 } else { 64 };
    let mut ledger = Ledger::new(vec![
        ("iterations".into(), Json::num_usize(iterations)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("ptgs".into(), Json::num_usize(num_ptgs)),
        ("sites".into(), Json::num_usize(4)),
        ("seed".into(), Json::num_u64(SEED)),
    ]);

    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let refs: Vec<ReferencePlatform> = grid5000::all_sites()
        .iter()
        .take(4)
        .map(ReferencePlatform::new)
        .collect();
    let ptgs: Vec<Ptg> = (0..num_ptgs)
        .map(|i| {
            let cfg = RandomPtgConfig::sample_paper_grid(&mut rng);
            random_ptg(&cfg, &mut rng, format!("g{i}"))
        })
        .collect();
    let pairs: Vec<(&ReferencePlatform, &Ptg)> = refs
        .iter()
        .flat_map(|r| ptgs.iter().map(move |g| (r, g)))
        .collect();

    let grants: usize = pairs
        .iter()
        .map(|&(r, g)| {
            let a = scrap_max_allocate(r, g, 1.0);
            (0..g.num_tasks()).map(|t| a.procs_of(t)).sum::<usize>() - g.num_tasks()
        })
        .sum();
    let dedicated = time("dedicated", "scrap-max", iterations, || {
        for &(r, g) in &pairs {
            std::hint::black_box(scrap_max_allocate(r, g, 1.0));
        }
    });
    let ns_per_grant = dedicated.mean_s() * 1e9 / grants.max(1) as f64;
    ledger.push(
        dedicated
            .value("calls", pairs.len() as f64)
            .value("grants", grants as f64)
            .value("ns_per_grant", ns_per_grant),
    );

    let calls = (pairs.len() * BETAS.len()) as f64;
    let fresh = time("constrained", "fresh", iterations, || {
        for &(r, g) in &pairs {
            for beta in BETAS {
                std::hint::black_box(scrap_max_allocate(r, g, beta));
            }
        }
    });
    ledger.push(fresh.value("calls", calls));

    let fresh_logs = || -> Vec<ScrapLog> {
        let record = |&(r, g): &(_, _)| ScrapLog::record(r, g, ScrapVariant::PerLevel);
        pairs.iter().map(record).collect()
    };
    let resume = |logs: &mut Vec<ScrapLog>| {
        for log in logs.iter() {
            for beta in BETAS {
                std::hint::black_box(log.resume(beta));
            }
        }
    };
    let resumed_logs = || {
        let mut logs = fresh_logs();
        resume(&mut logs);
        logs
    };
    let resumed = time_with("constrained", "resumed", iterations, fresh_logs, resume);
    ledger.push(resumed.value("calls", calls));
    let memo = time_with("constrained", "memo-hit", iterations, resumed_logs, resume);
    ledger.push(memo.value("calls", calls));
    ledger
}
