//! A workflow-server scenario: a mix of small and large scientific workflows
//! (random DAGs, an FFT and a Strassen multiplication) are submitted to a
//! shared multi-cluster site. The example shows how the choice of the
//! resource-constraint strategy changes what each user experiences.
//!
//! Run with `cargo run --release --example concurrent_workflows`.

use mcsched::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let platform = grid5000::rennes();
    let mut rng = ChaCha8Rng::seed_from_u64(7);

    // A heterogeneous job mix: two small workflows, one large workflow, an
    // FFT solver and a Strassen matrix product.
    let small_cfg = RandomPtgConfig {
        num_tasks: 10,
        width: 0.5,
        ..RandomPtgConfig::default_config()
    };
    let large_cfg = RandomPtgConfig {
        num_tasks: 50,
        width: 0.8,
        ..RandomPtgConfig::default_config()
    };
    let apps: Vec<Ptg> = vec![
        random_ptg(&small_cfg, &mut rng, "ingest-A"),
        random_ptg(&small_cfg, &mut rng, "ingest-B"),
        random_ptg(&large_cfg, &mut rng, "analysis"),
        fft_ptg(16, &mut rng, "fft-solver"),
        strassen_ptg(&mut rng, "strassen"),
    ];

    println!(
        "{} applications submitted to {} ({} processors)\n",
        apps.len(),
        platform.name(),
        platform.total_procs()
    );
    println!(
        "{:<12} {:>6} {:>7} {:>12} {:>10}",
        "application", "tasks", "width", "work (GFlop)", "cp (s)"
    );
    let reference = ReferencePlatform::new(&platform);
    for app in &apps {
        let s = mcsched::ptg::analysis::structure(app);
        let cp = mcsched::ptg::analysis::sequential_critical_path(app, reference.speed());
        println!(
            "{:<12} {:>6} {:>7} {:>12.1} {:>10.1}",
            app.name(),
            app.num_tasks(),
            s.max_width(),
            app.total_work() / 1e9,
            cp
        );
    }

    println!();
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "strategy", "unfairness", "makespan(s)", "min slow.", "max slow."
    );
    // The paper's strategies compared on one shared context: the dedicated
    // baselines are simulated once, not once per strategy.
    let policies = CampaignConfig::paper(PtgClass::Random).strategies;
    let evaluations = ScheduleContext::new(&platform, &apps)
        .evaluate_policies(&policies)
        .expect("valid schedule");
    for (policy, evaluation) in policies.iter().zip(&evaluations) {
        let min = evaluation
            .fairness
            .slowdowns
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = evaluation
            .fairness
            .slowdowns
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        println!(
            "{:<12} {:>12.3} {:>12.1} {:>12.2} {:>12.2}",
            policy.name(),
            evaluation.fairness.unfairness,
            evaluation.global_makespan,
            min,
            max
        );
    }
    println!(
        "\nA low unfairness with a competitive makespan (the WPS strategies) means no user\n\
         pays disproportionately for sharing the platform."
    );
}
