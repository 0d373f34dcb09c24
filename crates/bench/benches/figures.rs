//! Figure benches: scaled-down single replications of the paper's figure
//! experiments, measuring how long one bench-vs-sim comparison takes.
//!
//! The full sweeps live in the `fig*` binaries; these criterion targets
//! keep one representative point of each figure under continuous timing
//! so regressions in the engines or the simulator show up in `cargo
//! bench`. One iteration is one [`twin_job`]: stream generation, the
//! engine replay and the traced simulation.

use criterion::{criterion_group, criterion_main, Criterion};
use ocb::ObjectBase;
use scenario::{Scenario, SweepPoint};
use std::hint::black_box;
use voodb_bench::twin_job;

/// A 2000-object, 20-class base under 100 Table 5 transactions on the
/// given system.
fn small_point(system: &str) -> (ObjectBase, SweepPoint) {
    let scenario = Scenario::parse(&format!(
        "[scenario]\nname = \"point\"\n\n[system]\n{system}\n\n\
         [database]\nclasses = 20\nobjects = 2000\n\n[workload]\nhot_transactions = 100\n"
    ))
    .unwrap();
    let point = scenario.grid().remove(0);
    (ObjectBase::generate(&point.config.database, 42), point)
}

fn bench_o2_point(c: &mut Criterion) {
    let (base, point) = small_point(
        "system_class = \"page-server\"\nnetwork_throughput_mbps = inf\ncache_mb = 2\ndisk = \"o2\"",
    );
    let mut group = c.benchmark_group("fig6_point_2k_objects");
    group.sample_size(10);
    group.bench_function("twin", |b| {
        b.iter(|| black_box(twin_job(&base, &point, black_box(7))))
    });
    group.finish();
}

fn bench_texas_point(c: &mut Criterion) {
    // 1 MB of memory → pressure regime, the expensive end of Fig. 11.
    let (base, point) = small_point(
        "system_class = \"centralized\"\nnetwork_throughput_mbps = inf\nmemory_mb = 1\n\
         disk = \"texas\"\nmultiprogramming_level = 1\nget_lock_ms = 0.0\n\
         release_lock_ms = 0.0\nswizzle = true",
    );
    let mut group = c.benchmark_group("fig11_point_2k_objects");
    group.sample_size(10);
    group.bench_function("twin_pressure", |b| {
        b.iter(|| black_box(twin_job(&base, &point, black_box(7))))
    });
    group.finish();
}

criterion_group!(benches, bench_o2_point, bench_texas_point);
criterion_main!(benches);
