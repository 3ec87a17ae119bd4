//! `mapping`: the mapping step alone. Each Grid'5000 site gets eight fixed
//! sets of ten paper-grid random PTGs (one with `--smoke`), allocated by
//! SCRAP-MAX under β = 1/10 — the shape of one campaign scenario — and a
//! row times one `map_concurrent_with` pass over every set, for one
//! ordering (the row's family) with packing on or off (its case),
//! communication-aware. Values: the mapped `tasks` per pass and
//! `ns_per_task`.

use mcsched_bench::ledger::{time, Args, Ledger};
use mcsched_core::allocation::scrap_max_allocate;
use mcsched_core::mapping::map_concurrent_with;
use mcsched_core::{MappingConfig, OrderingMode, RefAllocation, ReferencePlatform};
use mcsched_obs::json::Json;
use mcsched_platform::grid5000;
use mcsched_ptg::gen::{random_ptg, RandomPtgConfig};
use mcsched_ptg::Ptg;
use mcsched_simx::SiteNetwork;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SEED: u64 = 0xBEEF;
const BETA: f64 = 0.1;

pub fn run(args: &Args) -> Ledger {
    let iterations = args.iterations.unwrap_or(if args.smoke { 2 } else { 30 });
    let sets_per_site = if args.smoke { 1 } else { 8 };
    let mut ledger = Ledger::new(vec![
        ("iterations".into(), Json::num_usize(iterations)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("sets_per_site".into(), Json::num_usize(sets_per_site)),
        ("ptgs_per_set".into(), Json::num_usize(10)),
        ("beta".into(), Json::num_f64(BETA)),
        ("seed".into(), Json::num_u64(SEED)),
    ]);

    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let inputs: Vec<_> = grid5000::all_sites()
        .into_iter()
        .flat_map(|site| std::iter::repeat_n(site, sets_per_site))
        .map(|site| {
            let ptgs: Vec<Ptg> = (0..10)
                .map(|i| {
                    let cfg = RandomPtgConfig::sample_paper_grid(&mut rng);
                    random_ptg(&cfg, &mut rng, format!("g{i}"))
                })
                .collect();
            let reference = ReferencePlatform::new(&site);
            let allocs: Vec<RefAllocation> = ptgs
                .iter()
                .map(|g| scrap_max_allocate(&reference, g, BETA))
                .collect();
            let network = SiteNetwork::new(&site);
            let releases = vec![0.0; ptgs.len()];
            (site, reference, network, ptgs, allocs, releases)
        })
        .collect();
    let tasks: usize = inputs
        .iter()
        .map(|(_, _, _, ptgs, _, _)| ptgs.iter().map(Ptg::num_tasks).sum::<usize>())
        .sum();

    for (family, ordering) in [
        ("ready-tasks", OrderingMode::ReadyTasks),
        ("global", OrderingMode::Global),
    ] {
        for (case, packing) in [("packing", true), ("no-packing", false)] {
            let config = MappingConfig {
                ordering,
                packing,
                comm_aware: true,
            };
            let row = time(family, case, iterations, || {
                for (platform, reference, network, ptgs, allocs, releases) in &inputs {
                    std::hint::black_box(map_concurrent_with(
                        reference, network, platform, ptgs, allocs, releases, &config,
                    ));
                }
            });
            let ns_per_task = row.mean_s() * 1e9 / tasks as f64;
            let row = row
                .value("tasks", tasks as f64)
                .value("ns_per_task", ns_per_task);
            ledger.push(row);
        }
    }
    ledger
}
