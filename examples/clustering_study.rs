//! Clustering study: measure what DSTC buys — and what it costs.
//!
//! Reproduces the §4.4 protocol in miniature, on both sides of the
//! paper's validation: the VOODB simulation *and* the Texas-like engine,
//! including the physical-OID overhead anomaly of Table 6 (the engine
//! must scan the whole database to patch references; the simulator's
//! logical OIDs make the same reorganisation ~30× cheaper).
//!
//! ```text
//! cargo run --release --example clustering_study
//! ```

use clustering::{ClusteringKind, DstcParams};
use ocb::{DatabaseParams, ObjectBase, WorkloadGenerator, WorkloadParams};
use oostore::{run_workload, StorageEngine, TexasConfig, TexasEngine};
use voodb::{run_dstc_study, ExperimentConfig, VoodbParams};

fn main() {
    let database = DatabaseParams {
        objects: 5_000,
        ..DatabaseParams::default()
    };
    let workload = WorkloadParams {
        hot_transactions: 400,
        ..WorkloadParams::dstc_favorable()
    };
    let dstc = DstcParams {
        observation_period: 5_000,
        tfa: 1.0,
        tfc: 0.5,
        tfe: 1.0,
        w: 0.8,
        max_unit_size: 64,
        trigger_threshold: usize::MAX, // external demand, as in §4.4
    };
    let seed = 7;
    let base = ObjectBase::generate(&database, seed);

    // ----- simulation side (logical OIDs) ------------------------------
    let mut system = VoodbParams::texas(64);
    system.clustering = ClusteringKind::Dstc(dstc.clone());
    let config = ExperimentConfig {
        system,
        database,
        workload: workload.clone(),
    };
    let study = run_dstc_study(&base, &config, seed);
    println!("VOODB simulation (logical OIDs):");
    println!("  pre-clustering I/Os   {:>8}", study.pre.total_ios());
    println!("  clustering overhead   {:>8}", study.reorg.io.total());
    println!("  post-clustering I/Os  {:>8}", study.post.total_ios());
    println!("  gain                  {:>8.2}x", study.gain());
    println!(
        "  clusters              {:>8} (mean {:.1} objects)",
        study.reorg.cluster_count, study.reorg.mean_cluster_size
    );

    // ----- benchmark side (Texas engine, physical OIDs) ----------------
    let mut generator = WorkloadGenerator::new(&base, workload.clone(), seed ^ 0xC0B);
    let transactions: Vec<_> = (0..workload.hot_transactions)
        .map(|_| generator.next_transaction())
        .collect();
    let mut engine_config = TexasConfig::with_memory_mb(64);
    engine_config.clustering = ClusteringKind::Dstc(dstc);
    let mut engine = TexasEngine::new(&base, engine_config);
    let pre = run_workload(&mut engine, &transactions);
    engine.reset_counters();
    let reorg = engine.reorganize();
    engine.flush_memory();
    engine.reset_counters();
    let post = run_workload(&mut engine, &transactions);
    println!("\nTexas engine (physical OIDs):");
    println!("  pre-clustering I/Os   {:>8}", pre.total_ios());
    println!(
        "  clustering overhead   {:>8}  (scanned {} pages, patched {})",
        reorg.total_ios(),
        reorg.pages_scanned,
        reorg.pages_patched
    );
    println!("  post-clustering I/Os  {:>8}", post.total_ios());
    println!(
        "  gain                  {:>8.2}x",
        pre.total_ios() as f64 / post.total_ios().max(1) as f64
    );

    let anomaly = reorg.total_ios() as f64 / study.reorg.io.total().max(1) as f64;
    println!(
        "\nthe Table 6 anomaly — physical/logical overhead ratio: {anomaly:.1}x \
         (paper observed 36.1x)"
    );
    println!(
        "moral (the paper's): a dynamic clustering technique is perfectly \
         viable in a system with logical OIDs, and painful with physical ones."
    );
}
