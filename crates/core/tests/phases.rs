//! Integration tests of the multi-phase simulation driver.

use clustering::{ClusteringKind, DstcParams};
use ocb::{DatabaseParams, ObjectBase, WorkloadGenerator, WorkloadParams};
use voodb::{Simulation, SystemClass, VoodbParams};

fn base() -> ObjectBase {
    ObjectBase::generate(&DatabaseParams::small(), 61)
}

fn transactions(base: &ObjectBase, n: usize, seed: u64) -> Vec<ocb::Transaction> {
    let params = WorkloadParams {
        hot_transactions: n,
        ..WorkloadParams::default()
    };
    let mut generator = WorkloadGenerator::new(base, params, seed);
    (0..n).map(|_| generator.next_transaction()).collect()
}

#[test]
fn second_phase_benefits_from_warm_buffer() {
    let base = base();
    let txs = transactions(&base, 40, 1);
    let mut simulation = Simulation::new(
        &base,
        VoodbParams {
            buffer_pages: 10_000,
            ..VoodbParams::default()
        },
        0.0,
        1,
    );
    let cold = simulation.run_phase(txs.clone(), 0);
    let warm = simulation.run_phase(txs, 0);
    assert!(
        warm.total_ios() < cold.total_ios() / 2,
        "warm phase should mostly hit: cold {} warm {}",
        cold.total_ios(),
        warm.total_ios()
    );
    assert!(warm.hit_ratio > cold.hit_ratio);
}

#[test]
fn flush_buffers_restores_cold_behaviour() {
    let base = base();
    let txs = transactions(&base, 40, 2);
    let mut simulation = Simulation::new(
        &base,
        VoodbParams {
            buffer_pages: 10_000,
            ..VoodbParams::default()
        },
        0.0,
        2,
    );
    let first = simulation.run_phase(txs.clone(), 0);
    simulation.flush_buffers();
    let second = simulation.run_phase(txs, 0);
    assert_eq!(
        first.total_ios(),
        second.total_ios(),
        "a cold restart must reproduce the cold run exactly"
    );
}

#[test]
fn automatic_trigger_reorganises_mid_phase() {
    let base = base();
    // Hot hierarchy workload; aggressive trigger threshold.
    let workload = WorkloadParams {
        hot_transactions: 400,
        ..WorkloadParams::dstc_favorable()
    };
    let mut generator = WorkloadGenerator::new(&base, workload, 3);
    let txs: Vec<_> = (0..400).map(|_| generator.next_transaction()).collect();
    let mut simulation = Simulation::new(
        &base,
        VoodbParams {
            system_class: SystemClass::Centralized,
            buffer_pages: 10_000,
            clustering: ClusteringKind::Dstc(DstcParams {
                observation_period: 500,
                tfa: 1.0,
                tfc: 0.5,
                tfe: 1.0,
                w: 0.8,
                max_unit_size: 16,
                // The small test base has few hierarchy edges per root;
                // a handful of flagged objects suffices to demonstrate
                // automatic triggering.
                trigger_threshold: 10,
            }),
            ..VoodbParams::default()
        },
        0.0,
        3,
    );
    let result = simulation.run_phase(txs, 0);
    assert!(
        !result.reorgs.is_empty(),
        "automatic triggering should have fired at least once"
    );
    assert!(result.reorgs[0].cluster_count > 0);
    assert_eq!(result.transactions, 400);
}

#[test]
fn external_reorganisation_between_phases_reduces_ios() {
    let base = base();
    let workload = WorkloadParams {
        hot_transactions: 300,
        ..WorkloadParams::dstc_favorable()
    };
    let mut generator = WorkloadGenerator::new(&base, workload, 4);
    let txs: Vec<_> = (0..300).map(|_| generator.next_transaction()).collect();
    let mut system = VoodbParams::texas(64);
    system.clustering = ClusteringKind::Dstc(DstcParams {
        observation_period: 2_000,
        tfa: 1.0,
        tfc: 0.5,
        tfe: 1.0,
        w: 0.8,
        max_unit_size: 32,
        trigger_threshold: usize::MAX,
    });
    let mut simulation = Simulation::new(&base, system, 0.0, 4);
    let pre = simulation.run_phase(txs.clone(), 0);
    let reorg = simulation.external_reorganize();
    assert!(reorg.cluster_count > 0);
    simulation.flush_buffers();
    let post = simulation.run_phase(txs, 0);
    assert!(
        post.total_ios() < pre.total_ios(),
        "pre {} post {}",
        pre.total_ios(),
        post.total_ios()
    );
}

#[test]
fn think_time_stretches_simulated_time_not_ios() {
    let base = base();
    let txs = transactions(&base, 30, 5);
    let run = |think_ms: f64| {
        let mut simulation = Simulation::new(
            &base,
            VoodbParams {
                buffer_pages: 256,
                ..VoodbParams::default()
            },
            think_ms,
            5,
        );
        simulation.run_phase(txs.clone(), 0)
    };
    let eager = run(0.0);
    let lazy = run(500.0);
    assert_eq!(eager.total_ios(), lazy.total_ios());
    assert!(lazy.sim_elapsed_ms > eager.sim_elapsed_ms);
    assert!(lazy.throughput_tps < eager.throughput_tps);
}

#[test]
fn mpl_one_serialises_but_preserves_ios() {
    let base = base();
    let txs = transactions(&base, 40, 6);
    let run = |mpl: usize, users: usize| {
        let mut simulation = Simulation::new(
            &base,
            VoodbParams {
                buffer_pages: 256,
                multiprogramming_level: mpl,
                users,
                ..VoodbParams::default()
            },
            0.0,
            6,
        );
        simulation.run_phase(txs.clone(), 0)
    };
    let serial = run(1, 4);
    let parallel = run(8, 4);
    assert_eq!(serial.transactions, 40);
    assert_eq!(parallel.transactions, 40);
    // Same single buffer → same I/O count either way; response times
    // differ (queueing at the scheduler vs at the disk).
    assert_eq!(serial.total_ios(), parallel.total_ios());
}
