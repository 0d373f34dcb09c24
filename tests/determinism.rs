//! Full-stack determinism: every replication is a pure function of its
//! seed, because every random draw comes from a seeded stream (the
//! prerequisite for the paper's replication-based output analysis).

use ocb::{DatabaseParams, ObjectBase, WorkloadGenerator, WorkloadParams};
use oostore::{run_workload, PageServerConfig, PageServerEngine, TexasConfig, TexasEngine};
use voodb::{run_once, ExperimentConfig, Simulation, VoodbParams};

fn db() -> DatabaseParams {
    DatabaseParams {
        classes: 10,
        objects: 1_000,
        ..DatabaseParams::default()
    }
}

fn workload() -> WorkloadParams {
    WorkloadParams {
        hot_transactions: 50,
        ..WorkloadParams::default()
    }
}

fn transactions(base: &ObjectBase, seed: u64) -> Vec<ocb::Transaction> {
    let mut generator = WorkloadGenerator::new(base, workload(), seed);
    (0..50).map(|_| generator.next_transaction()).collect()
}

#[test]
fn object_base_is_seed_deterministic() {
    let a = ObjectBase::generate(&db(), 17);
    let b = ObjectBase::generate(&db(), 17);
    assert_eq!(a.total_bytes(), b.total_bytes());
    for ((_, oa), (_, ob)) in a.iter().zip(b.iter()) {
        assert_eq!(oa.class, ob.class);
        assert_eq!(oa.size, ob.size);
        assert_eq!(oa.refs, ob.refs);
    }
}

#[test]
fn engines_are_seed_deterministic() {
    let base = ObjectBase::generate(&db(), 19);
    let txs = transactions(&base, 23);

    let run_pageserver = || {
        let mut engine = PageServerEngine::new(&base, PageServerConfig::with_cache_mb(1));
        run_workload(&mut engine, &txs).total_ios()
    };
    assert_eq!(run_pageserver(), run_pageserver());

    let run_texas = || {
        let mut engine = TexasEngine::new(&base, TexasConfig::with_memory_mb(1));
        run_workload(&mut engine, &txs).total_ios()
    };
    assert_eq!(run_texas(), run_texas());
}

#[test]
fn simulation_is_seed_deterministic() {
    let base = ObjectBase::generate(&db(), 29);
    let txs = transactions(&base, 31);
    let run = || {
        let mut simulation = Simulation::new(&base, VoodbParams::default(), 0.0, 31);
        let result = simulation.run_phase(txs.clone(), 0);
        (result.total_ios(), result.mean_response_ms.to_bits())
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_give_different_workloads() {
    let config = ExperimentConfig {
        system: VoodbParams {
            buffer_pages: 64,
            ..VoodbParams::default()
        },
        database: db(),
        workload: workload(),
    };
    let a = run_once(&config, 1);
    let b = run_once(&config, 2);
    // Different bases + workloads: astronomically unlikely to coincide on
    // both metrics.
    assert!(
        a.total_ios() != b.total_ios() || (a.mean_response_ms - b.mean_response_ms).abs() > 1e-9,
        "seeds 1 and 2 produced identical results"
    );
}

#[test]
fn facade_reexports_are_usable() {
    // The facade crate must expose every sub-crate.
    let _ = voodb_repro::desp::SimTime::ZERO;
    let _ = voodb_repro::ocb::DatabaseParams::small();
    let _ = voodb_repro::bufmgr::PolicyKind::Lru;
    let _ = voodb_repro::clustering::InitialPlacement::Sequential;
    let _ = voodb_repro::oostore::DiskTimings::o2();
    let _ = voodb_repro::voodb::VoodbParams::default();
}
