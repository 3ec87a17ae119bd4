//! Anatomy of the constraint strategies: for a fixed set of applications the
//! example prints the β attributed to each application by every strategy and
//! the resulting allocation sizes, makespans and slowdowns — a compact view
//! of Section 6 of the paper.
//!
//! Run with `cargo run --release --example fairness_strategies`.

use mcsched::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let platform = grid5000::sophia();
    let mut rng = ChaCha8Rng::seed_from_u64(99);

    // Deliberately unbalanced mix: a tiny, a medium and a huge application.
    let mk = |tasks: usize, width: f64, rng: &mut ChaCha8Rng, name: &str| {
        let cfg = RandomPtgConfig {
            num_tasks: tasks,
            width,
            ..RandomPtgConfig::default_config()
        };
        random_ptg(&cfg, rng, name)
    };
    let apps = vec![
        mk(10, 0.2, &mut rng, "tiny-chain"),
        mk(20, 0.5, &mut rng, "medium"),
        mk(50, 0.8, &mut rng, "huge-wide"),
    ];

    let reference = ReferencePlatform::new(&platform);
    println!(
        "Platform {}: {} reference processors of {:.2} GFlop/s\n",
        platform.name(),
        reference.procs(),
        reference.speed() / 1e9
    );

    println!("Per-strategy resource constraints (beta):");
    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "strategy", "tiny-chain", "medium", "huge-wide"
    );
    let policies = CampaignConfig::paper(PtgClass::Random).strategies;
    for policy in &policies {
        let betas = policy.betas(&apps, &reference);
        println!(
            "{:<12} {:>12.3} {:>12.3} {:>12.3}",
            policy.name(),
            betas[0],
            betas[1],
            betas[2]
        );
    }

    println!("\nEnd-to-end outcome per strategy:");
    println!(
        "{:<12} {:>22} {:>14} {:>12}",
        "strategy", "allocated ref procs", "makespan (s)", "unfairness"
    );
    // Every strategy on one shared context: the dedicated baselines are
    // simulated once, not once per strategy.
    let context = ScheduleContext::new(&platform, &apps);
    let evaluations = context
        .evaluate_policies(&policies)
        .expect("valid schedule");
    for (policy, evaluation) in policies.iter().zip(&evaluations) {
        let allocations =
            context.allocations_for(policy.as_ref(), context.base_allocation().as_ref());
        let alloc_str = allocations
            .iter()
            .map(|a| a.total().to_string())
            .collect::<Vec<_>>()
            .join("/");
        println!(
            "{:<12} {:>22} {:>14.1} {:>12.3}",
            policy.name(),
            alloc_str,
            evaluation.global_makespan,
            evaluation.fairness.unfairness
        );
    }
    println!(
        "\nPS-work starves the tiny application (small beta, few processors) which hurts\n\
         fairness, while ES wastes processors on it; the WPS strategies sit in between."
    );
}
