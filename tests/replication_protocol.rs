//! End-to-end test of the §4.2.2 output-analysis protocol through the
//! public API: pilot study, `n* = n·(h/h*)²` extrapolation, Student-t
//! confidence intervals.

use desp::{ReplicationPolicy, Replicator};
use ocb::{DatabaseParams, WorkloadParams};
use voodb::{run_once, run_replicated, ExperimentConfig, VoodbParams};

fn config() -> ExperimentConfig {
    ExperimentConfig {
        system: VoodbParams {
            buffer_pages: 64,
            ..VoodbParams::default()
        },
        database: DatabaseParams {
            classes: 10,
            objects: 800,
            ..DatabaseParams::default()
        },
        workload: WorkloadParams {
            hot_transactions: 40,
            ..WorkloadParams::default()
        },
    }
}

#[test]
fn fixed_replications_produce_all_metrics() {
    let report = run_replicated(&config(), ReplicationPolicy::Fixed(12), 5);
    assert_eq!(report.replications(), 12);
    for metric in [
        "ios",
        "reads",
        "writes",
        "ios_per_tx",
        "response_ms",
        "throughput_tps",
        "hit_ratio",
    ] {
        let ci = report.interval(metric);
        assert!(ci.mean.is_finite(), "{metric} mean not finite");
        assert!(ci.half_width.is_finite(), "{metric} half-width not finite");
    }
}

#[test]
fn adaptive_protocol_reaches_requested_precision_or_cap() {
    let report = run_replicated(
        &config(),
        ReplicationPolicy::Adaptive {
            pilot: 5,
            relative_precision: 0.10,
            max: 30,
        },
        7,
    );
    assert!(report.replications() >= 5);
    assert!(report.replications() <= 30);
    let ci = report.interval("ios");
    let precision = ci.half_width / ci.mean.abs();
    // Either precision was reached or the cap was hit.
    assert!(
        precision <= 0.10 || report.replications() == 30,
        "precision {precision:.3} with {} replications",
        report.replications()
    );
}

#[test]
fn interval_covers_the_long_run_mean() {
    // The CI from 30 replications should cover the mean of a disjoint
    // 30-replication sample (a sanity check, not a strict coverage test).
    let config = config();
    let report = run_replicated(&config, ReplicationPolicy::Fixed(30), 100);
    let ci = report.interval("ios");
    let replicator = Replicator::new(ReplicationPolicy::Fixed(30), 200);
    let other = replicator.run(|seed| run_once(&config, seed).to_metrics());
    let other_mean = other.interval("ios").mean;
    // Allow 3 half-widths of slack (both estimates are noisy).
    assert!(
        (other_mean - ci.mean).abs() < 3.0 * ci.half_width.max(1.0),
        "disjoint sample mean {other_mean} too far from CI {ci:?}"
    );
}
