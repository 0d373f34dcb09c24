//! Clustering study: measure what DSTC buys — and what it costs.
//!
//! Reproduces the §4.4 protocol in miniature, on both sides of the
//! paper's validation: the VOODB simulation *and* the Texas-like engine,
//! on one object base and one transaction stream (cold + hot run),
//! including the physical-OID overhead anomaly of Table 6 (the engine
//! must scan the whole database to patch references; the simulator's
//! logical OIDs make the same reorganisation ~30× cheaper).
//!
//! ```text
//! cargo run --release --example clustering_study
//! ```

use clustering::{ClusteringKind, DstcParams};
use ocb::{DatabaseParams, ObjectBase, WorkloadParams};
use scenario::harness::{dstc_bench_once, dstc_sim_once, DstcSide};
use voodb::{ExperimentConfig, VoodbParams};

fn main() {
    let dstc = DstcParams {
        observation_period: 5_000,
        tfa: 1.0,
        tfc: 0.5,
        tfe: 1.0,
        w: 0.8,
        max_unit_size: 64,
        trigger_threshold: usize::MAX, // external demand, as in §4.4
    };
    let mut system = VoodbParams::texas(64);
    system.clustering = ClusteringKind::Dstc(dstc);
    let config = ExperimentConfig {
        system,
        database: DatabaseParams {
            objects: 5_000,
            ..DatabaseParams::default()
        },
        workload: WorkloadParams {
            hot_transactions: 400,
            ..WorkloadParams::dstc_favorable()
        },
    };
    let seed = 7;
    let base = ObjectBase::generate(&config.database, seed);
    let sim = dstc_sim_once(&base, &config, seed);
    let bench = dstc_bench_once(&base, &config, seed);

    println!("VOODB simulation (logical OIDs):");
    print_side(&sim);
    println!("\nTexas engine (physical OIDs):");
    print_side(&bench);

    let anomaly = bench.overhead / sim.overhead.max(1.0);
    println!(
        "\nthe Table 6 anomaly — physical/logical overhead ratio: {anomaly:.1}x \
         (paper observed 36.1x)"
    );
    println!(
        "moral (the paper's): a dynamic clustering technique is perfectly \
         viable in a system with logical OIDs, and painful with physical ones."
    );
}

fn print_side(side: &DstcSide) {
    println!("  pre-clustering I/Os   {:>8}", side.pre);
    println!("  clustering overhead   {:>8}", side.overhead);
    println!("  post-clustering I/Os  {:>8}", side.post);
    println!(
        "  gain                  {:>8.2}x",
        side.pre / side.post.max(1.0)
    );
    println!(
        "  clusters              {:>8} (mean {:.1} objects)",
        side.clusters, side.objects_per_cluster
    );
}
