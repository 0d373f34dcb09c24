//! Table benches: scaled-down DSTC studies (Tables 6–8 of the paper),
//! timing the full three-phase protocol on both sides of the validation.

use clustering::{ClusteringKind, DstcParams};
use criterion::{criterion_group, criterion_main, Criterion};
use ocb::{DatabaseParams, ObjectBase, WorkloadParams};
use std::hint::black_box;
use voodb::{ExperimentConfig, VoodbParams};
use voodb_bench::{dstc_bench_once, dstc_sim_once};

fn setup() -> (ObjectBase, ExperimentConfig) {
    let database = DatabaseParams {
        objects: 2_000,
        ..DatabaseParams::default()
    };
    let mut system = VoodbParams::texas(64);
    system.clustering = ClusteringKind::Dstc(DstcParams {
        observation_period: 5_000,
        tfa: 1.0,
        tfc: 0.5,
        tfe: 1.0,
        w: 0.8,
        max_unit_size: 64,
        trigger_threshold: usize::MAX,
    });
    let config = ExperimentConfig {
        system,
        database,
        workload: WorkloadParams {
            hot_transactions: 200,
            ..WorkloadParams::dstc_favorable()
        },
    };
    (ObjectBase::generate(&config.database, 42), config)
}

fn bench_dstc_protocol(c: &mut Criterion) {
    let (base, config) = setup();
    let mut group = c.benchmark_group("tab6_protocol_2k_objects");
    group.sample_size(10);
    group.bench_function("texas_engine_with_patch_scan", |b| {
        b.iter(|| black_box(dstc_bench_once(&base, &config, black_box(7))))
    });
    group.bench_function("voodb_sim_logical_oids", |b| {
        b.iter(|| black_box(dstc_sim_once(&base, &config, black_box(7))))
    });
    group.finish();
}

criterion_group!(benches, bench_dstc_protocol);
criterion_main!(benches);
