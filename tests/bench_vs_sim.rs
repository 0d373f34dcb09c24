//! Cross-crate integration: the paper's validation methodology in test
//! form.
//!
//! "To validate VOODB, performance results obtained by simulation for a
//! given experiment have been compared to the results obtained by
//! benchmarking the real systems in the same conditions" (abstract).
//! These tests run scaled-down versions of every §4 experiment and assert
//! the properties the paper reports: consistency of the two columns, the
//! figures' tendencies, and the Table 6 physical-OID anomaly.

use ocb::{DatabaseParams, ObjectBase, WorkloadGenerator, WorkloadParams};
use oostore::{
    run_workload, PageServerConfig, PageServerEngine, StorageEngine, TexasConfig, TexasEngine,
};
use voodb::{Simulation, VoodbParams};

fn generate(base: &ObjectBase, workload: &WorkloadParams, seed: u64) -> Vec<ocb::Transaction> {
    let mut generator = WorkloadGenerator::new(base, workload.clone(), seed);
    (0..workload.hot_transactions)
        .map(|_| generator.next_transaction())
        .collect()
}

fn small_db() -> DatabaseParams {
    DatabaseParams {
        classes: 20,
        objects: 2_000,
        ..DatabaseParams::default()
    }
}

fn small_workload(n: usize) -> WorkloadParams {
    WorkloadParams {
        hot_transactions: n,
        ..WorkloadParams::default()
    }
}

#[test]
fn o2_bench_and_sim_are_consistent() {
    let base = ObjectBase::generate(&small_db(), 1);
    let workload = small_workload(100);
    let transactions = generate(&base, &workload, 2);

    let mut engine = PageServerEngine::new(&base, PageServerConfig::with_cache_mb(2));
    let bench = run_workload(&mut engine, &transactions);

    let mut simulation = Simulation::new(&base, VoodbParams::o2(2), 0.0, 2);
    let sim = simulation.run_phase(transactions, 0);

    let ratio = bench.total_ios() as f64 / sim.total_ios() as f64;
    assert!(
        (0.95..1.25).contains(&ratio),
        "bench {} vs sim {} (ratio {ratio:.3})",
        bench.total_ios(),
        sim.total_ios()
    );
    // The engine pays the persistent OID table on top of the model.
    assert!(bench.total_ios() > sim.total_ios());
}

#[test]
fn texas_bench_and_sim_are_consistent() {
    let base = ObjectBase::generate(&small_db(), 3);
    let workload = small_workload(100);
    let transactions = generate(&base, &workload, 4);

    let mut engine = TexasEngine::new(&base, TexasConfig::with_memory_mb(2));
    let bench = run_workload(&mut engine, &transactions);

    let mut simulation = Simulation::new(&base, VoodbParams::texas(2), 0.0, 4);
    let sim = simulation.run_phase(transactions, 0);

    let ratio = bench.total_ios() as f64 / sim.total_ios() as f64;
    assert!(
        (0.9..1.3).contains(&ratio),
        "bench {} vs sim {} (ratio {ratio:.3})",
        bench.total_ios(),
        sim.total_ios()
    );
}

#[test]
fn figure_6_tendency_ios_grow_with_base_size() {
    // Mini Fig. 6: I/Os grow monotonically with the instance count on
    // both sides.
    let workload = small_workload(60);
    let mut previous_bench = 0.0;
    let mut previous_sim = 0.0;
    for objects in [500usize, 1_000, 2_000] {
        let db = DatabaseParams {
            classes: 20,
            objects,
            ..DatabaseParams::default()
        };
        let base = ObjectBase::generate(&db, 5);
        let transactions = generate(&base, &workload, 6);
        let mut engine = PageServerEngine::new(&base, PageServerConfig::with_cache_mb(16));
        let bench = run_workload(&mut engine, &transactions).total_ios() as f64;
        let mut simulation = Simulation::new(&base, VoodbParams::o2(16), 0.0, 6);
        let sim = simulation.run_phase(transactions, 0).total_ios() as f64;
        assert!(bench > previous_bench, "bench not monotone at NO={objects}");
        assert!(sim > previous_sim, "sim not monotone at NO={objects}");
        previous_bench = bench;
        previous_sim = sim;
    }
}

#[test]
fn figure_8_tendency_ios_fall_with_cache_size() {
    // Mini Fig. 8: larger caches mean fewer I/Os, on both sides, with the
    // curve flattening once the base fits.
    let db = small_db();
    let base = ObjectBase::generate(&db, 7);
    let workload = small_workload(60);
    let transactions = generate(&base, &workload, 8);
    let mut bench_series = Vec::new();
    let mut sim_series = Vec::new();
    for cache_mb in [1usize, 2, 8] {
        let mut engine = PageServerEngine::new(&base, PageServerConfig::with_cache_mb(cache_mb));
        bench_series.push(run_workload(&mut engine, &transactions).total_ios());
        let mut simulation = Simulation::new(&base, VoodbParams::o2(cache_mb), 0.0, 8);
        sim_series.push(simulation.run_phase(transactions.clone(), 0).total_ios());
    }
    assert!(bench_series[0] > bench_series[1], "{bench_series:?}");
    assert!(bench_series[1] > bench_series[2], "{bench_series:?}");
    assert!(sim_series[0] > sim_series[1], "{sim_series:?}");
    assert!(sim_series[1] > sim_series[2], "{sim_series:?}");
}

#[test]
fn figure_11_tendency_texas_blows_up_under_memory_pressure() {
    // Mini Fig. 11: the swizzle-swap mechanism makes the pressure regime
    // far worse than the comfortable one, on both sides.
    let db = small_db();
    let base = ObjectBase::generate(&db, 9);
    let workload = small_workload(60);
    let transactions = generate(&base, &workload, 10);

    let run_bench = |memory_mb: usize| {
        let mut engine = TexasEngine::new(&base, TexasConfig::with_memory_mb(memory_mb));
        run_workload(&mut engine, &transactions).total_ios()
    };
    let run_sim = |memory_mb: usize| {
        let mut simulation = Simulation::new(&base, VoodbParams::texas(memory_mb), 0.0, 10);
        simulation.run_phase(transactions.clone(), 0).total_ios()
    };
    let (bench_tight, bench_ample) = (run_bench(1), run_bench(16));
    let (sim_tight, sim_ample) = (run_sim(1), run_sim(16));
    assert!(
        bench_tight > bench_ample * 3,
        "bench blow-up missing: {bench_tight} vs {bench_ample}"
    );
    assert!(
        sim_tight > sim_ample * 3,
        "sim blow-up missing: {sim_tight} vs {sim_ample}"
    );
}

#[test]
fn table_6_anomaly_physical_oids_dwarf_logical_oids() {
    let db = small_db();
    let base = ObjectBase::generate(&db, 11);
    let workload = WorkloadParams {
        hot_transactions: 300,
        ..WorkloadParams::dstc_favorable()
    };
    let transactions = generate(&base, &workload, 12);
    let dstc = clustering::DstcParams {
        observation_period: 5_000,
        tfa: 1.0,
        tfc: 0.5,
        tfe: 1.0,
        w: 0.8,
        max_unit_size: 64,
        trigger_threshold: usize::MAX,
    };

    // Physical-OID engine.
    let mut config = TexasConfig::with_memory_mb(64);
    config.clustering = clustering::ClusteringKind::Dstc(dstc.clone());
    let mut engine = TexasEngine::new(&base, config);
    run_workload(&mut engine, &transactions);
    engine.reset_counters();
    let engine_reorg = engine.reorganize();
    assert!(engine_reorg.outcome.cluster_count() > 0);
    assert!(engine_reorg.pages_scanned > 0);

    // Logical-OID simulation, same statistics.
    let mut system = VoodbParams::texas(64);
    system.clustering = clustering::ClusteringKind::Dstc(dstc);
    let mut simulation = Simulation::new(&base, system, 0.0, 12);
    simulation.run_phase(transactions, 0);
    let sim_reorg = simulation.external_reorganize();
    assert!(sim_reorg.cluster_count > 0);

    let anomaly = engine_reorg.total_ios() as f64 / sim_reorg.io.total().max(1) as f64;
    assert!(
        anomaly > 5.0,
        "the physical-OID patch scan must dominate: {anomaly:.1}x \
         (engine {} vs sim {})",
        engine_reorg.total_ios(),
        sim_reorg.io.total()
    );
    // Both sides build identical clusters from identical statistics
    // (Table 7's consistency).
    assert_eq!(
        engine_reorg.outcome.cluster_count(),
        sim_reorg.cluster_count
    );
}

#[test]
fn clustering_gain_holds_on_both_sides() {
    let db = small_db();
    let base = ObjectBase::generate(&db, 13);
    let workload = WorkloadParams {
        hot_transactions: 300,
        ..WorkloadParams::dstc_favorable()
    };
    let transactions = generate(&base, &workload, 14);
    let dstc = clustering::DstcParams {
        observation_period: 5_000,
        tfa: 1.0,
        tfc: 0.5,
        tfe: 1.0,
        w: 0.8,
        max_unit_size: 64,
        trigger_threshold: usize::MAX,
    };

    // Engine side.
    let mut config = TexasConfig::with_memory_mb(64);
    config.clustering = clustering::ClusteringKind::Dstc(dstc.clone());
    let mut engine = TexasEngine::new(&base, config);
    let pre = run_workload(&mut engine, &transactions);
    engine.reset_counters();
    engine.reorganize();
    engine.flush_memory();
    engine.reset_counters();
    let post = run_workload(&mut engine, &transactions);
    assert!(
        post.total_ios() < pre.total_ios(),
        "engine: {} !< {}",
        post.total_ios(),
        pre.total_ios()
    );

    // Simulation side.
    let mut system = VoodbParams::texas(64);
    system.clustering = clustering::ClusteringKind::Dstc(dstc);
    let config = voodb::ExperimentConfig {
        system,
        database: db,
        workload,
    };
    let study = voodb::run_dstc_study(&base, &config, 13);
    let gain = study.pre.total_ios() as f64 / study.post.total_ios() as f64;
    assert!(gain > 1.0, "sim gain {gain}");
}
