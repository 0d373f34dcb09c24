//! End-to-end test of the §4.2.2 output-analysis protocol through the
//! product path: the scenario runner's fixed-count replications and
//! their 95% Student-t intervals.

use desp::NoProbe;
use ocb::{DatabaseParams, ObjectBase, WorkloadParams};
use scenario::{run_sweep, MetricEstimate, RunOptions, Scenario, SweepResult};
use voodb::{run_replication, ExperimentConfig, VoodbParams};

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

/// `config()` as a one-point scenario of `replications` on `seed`.
fn one_point(replications: usize, seed: u64) -> Scenario {
    Scenario {
        name: "protocol".to_owned(),
        description: String::new(),
        replications,
        seed,
        config: config(),
        sweep: Vec::new(),
    }
}

/// The sweep's estimate of `name` at its only point.
fn estimate(sweep: &SweepResult, name: &str) -> MetricEstimate {
    sweep.points[0]
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} reported"))
        .clone()
}

#[test]
fn fixed_replications_produce_all_metrics() {
    let sweep = run_sweep(&one_point(12, 5), &RunOptions::default()).expect("valid scenario");
    assert_eq!(sweep.replications, 12);
    for metric in [
        "ios",
        "reads",
        "writes",
        "ios_per_tx",
        "response_ms",
        "throughput_tps",
        "hit_ratio",
    ] {
        let ci = estimate(&sweep, metric);
        assert_eq!(ci.n, 12);
        assert!(ci.mean.is_finite(), "{metric} mean not finite");
        assert!(ci.half_width.is_finite(), "{metric} half-width not finite");
    }
}

#[test]
fn interval_covers_the_long_run_mean() {
    // The CI from 30 runner replications should cover the mean of a
    // disjoint 30-replication sample on the same base (a sanity check,
    // not a strict coverage test).
    const SEED: u64 = 100;
    const REPS: u64 = 30;
    let scenario = one_point(REPS as usize, SEED);
    let sweep = run_sweep(&scenario, &RunOptions::default()).expect("valid scenario");
    let ci = estimate(&sweep, "ios");
    assert_eq!(ci.n, REPS as usize);

    // The runner put replication r on seed SEED + 1 + r, so seeds
    // SEED + REPS + 1 ..= SEED + 2 * REPS are disjoint from its sample.
    let base = ObjectBase::generate(&scenario.config.database, SEED);
    let other: Vec<f64> = (SEED + REPS + 1..=SEED + 2 * REPS)
        .map(|seed| {
            let (phase, _) = run_replication(&base, &scenario.config, seed, NoProbe);
            phase.total_ios() as f64
        })
        .collect();
    let other_mean = other.iter().sum::<f64>() / other.len() as f64;
    // Allow 3 half-widths of slack (both estimates are noisy).
    assert!(
        (other_mean - ci.mean).abs() < 3.0 * ci.half_width.max(1.0),
        "disjoint sample mean {other_mean} too far from CI {ci:?}"
    );
}
