//! Quickstart: simulate an OODB with the Table 3 defaults.
//!
//! Builds a small OCB object base, runs the Table 5 workload through the
//! VOODB model (page server, 500-page LRU buffer), and prints the metrics
//! the paper reports — mean I/Os first, the rest as supporting criteria.
//! The intervals come from the scenario runner, so they are what
//! `voodb run` prints for a one-point scenario with the same keys.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use desp::NoProbe;
use ocb::{DatabaseParams, ObjectBase, WorkloadParams};
use scenario::{run_sweep, RunOptions, Scenario};
use voodb::{run_replication, ExperimentConfig, VoodbParams};

fn main() {
    let config = ExperimentConfig {
        system: VoodbParams::default(), // Table 3 defaults: page server, LRU
        database: DatabaseParams {
            objects: 5_000,
            ..DatabaseParams::default()
        },
        workload: WorkloadParams {
            hot_transactions: 200,
            ..WorkloadParams::default()
        },
    };

    // One replication, for a quick look.
    let base = ObjectBase::generate(&config.database, 42);
    let (result, _) = run_replication(&base, &config, 42, NoProbe);
    println!("single replication (seed 42):");
    println!("  transactions        {:>10}", result.transactions);
    println!("  total I/Os          {:>10}", result.total_ios());
    println!(
        "  I/Os per tx         {:>10.2}",
        result.ios_per_transaction()
    );
    println!("  mean response       {:>10.2} ms", result.mean_response_ms);
    println!("  throughput          {:>10.2} tx/s", result.throughput_tps);
    println!("  buffer hit ratio    {:>10.4}", result.hit_ratio);

    // The paper's protocol: replications with 95% confidence intervals,
    // run as a one-point scenario.
    let scenario = Scenario {
        name: "quickstart".to_owned(),
        description: String::new(),
        replications: 10,
        seed: 42,
        config,
        sweep: Vec::new(),
    };
    let sweep = run_sweep(&scenario, &RunOptions::default()).expect("valid scenario");
    let metric = |name: &str| {
        sweep.points[0]
            .metrics
            .iter()
            .find(|m| m.name == name)
            .expect("metric reported")
    };
    let (ios, response) = (metric("ios"), metric("response_ms"));
    println!("\n{} replications, 95% confidence:", sweep.replications);
    println!(
        "  mean I/Os           {:>10.1} ± {:.1}",
        ios.mean, ios.half_width
    );
    println!(
        "  mean response       {:>10.2} ± {:.2} ms",
        response.mean, response.half_width
    );
}
