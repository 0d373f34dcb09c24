//! Workspace smoke test: one tiny end-to-end VOODB run.
//!
//! Fast (< 1 s) and fully deterministic from a fixed seed: generates a
//! miniature OCB object base, pushes a short transaction stream through
//! the full simulation stack (Users → Transaction Manager → Object
//! Manager → Buffering Manager → I/O Subsystem), and sanity-checks every
//! headline metric the paper reports. If this fails, nothing downstream
//! is worth debugging.

use desp::NoProbe;
use ocb::{DatabaseParams, ObjectBase, WorkloadParams};
use voodb::{run_replication, ExperimentConfig, PhaseResult, VoodbParams};

const SEED: u64 = 0x5EED;

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        system: VoodbParams::default(), // Table 3 defaults: page server, LRU
        database: DatabaseParams {
            classes: 10,
            objects: 500,
            ..DatabaseParams::default()
        },
        workload: WorkloadParams {
            hot_transactions: 25,
            ..WorkloadParams::default()
        },
    }
}

/// One replication of the tiny configuration on its own base.
fn run_tiny() -> PhaseResult {
    let config = tiny_config();
    let base = ObjectBase::generate(&config.database, SEED);
    run_replication(&base, &config, SEED, NoProbe).0
}

#[test]
fn tiny_simulation_end_to_end() {
    let result = run_tiny();

    assert!(result.transactions > 0, "no transactions completed");
    assert!(result.total_ios() > 0, "a cold-buffer run must perform I/O");
    assert!(
        result.throughput_tps > 0.0 && result.throughput_tps.is_finite(),
        "throughput must be positive and finite, got {}",
        result.throughput_tps
    );
    assert!(
        result.mean_response_ms > 0.0 && result.mean_response_ms.is_finite(),
        "mean response must be positive and finite, got {} ms",
        result.mean_response_ms
    );
    assert!(
        (0.0..=1.0).contains(&result.hit_ratio),
        "hit ratio {} outside [0, 1]",
        result.hit_ratio
    );
}

#[test]
fn tiny_simulation_is_deterministic() {
    let a = run_tiny();
    let b = run_tiny();
    assert_eq!(a.transactions, b.transactions);
    assert_eq!(a.total_ios(), b.total_ios());
    assert_eq!(a.mean_response_ms.to_bits(), b.mean_response_ms.to_bits());
    assert_eq!(a.throughput_tps.to_bits(), b.throughput_tps.to_bits());
}
