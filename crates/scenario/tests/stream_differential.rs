//! Streaming differential tests, in the style of the scheduler
//! oracle: the streamed workload pipeline (lazy generation into a
//! recycled transaction slab) must be **bit-identical** to the
//! materialized oracle (the pre-streaming implementation: the whole
//! run built as a `Vec<Transaction>` up front, in `support`) on every
//! configuration where both exist — count-based phases — across sweep
//! points, replications, schedulers and thread counts.

mod support;

use scenario::{run_sweep, sweep_table, RunOptions, SchedulerKind};
use support::{preset, run_replication_materialized, sched_job, tables, tables_with};

#[test]
fn streamed_sweep_is_bit_identical_to_materialized_oracle() {
    // The full smoke scenario: object-base generation, workload
    // streams, the whole VOODB model. Several seeds vary buffer
    // contention and clustering decisions.
    let scenario = preset("smoke.toml");
    for seed in [11u64, 42, 97] {
        let options = RunOptions {
            threads: Some(2),
            reps: Some(2),
            seed: Some(seed),
            ..RunOptions::default()
        };
        let (streamed_csv, streamed_json) = tables(&scenario, &options);
        let (oracle_csv, oracle_json) = tables_with(&scenario, &options, |base, point, seed| {
            run_replication_materialized(base, point, seed, SchedulerKind::default())
        });
        assert_eq!(
            streamed_csv, oracle_csv,
            "seed {seed}: streamed CSV diverged from the materialized oracle"
        );
        assert_eq!(streamed_json, oracle_json, "seed {seed}: JSON diverged");
    }
}

#[test]
fn streamed_oracle_equivalence_holds_on_the_heap_scheduler_too() {
    let scenario = preset("smoke.toml");
    let options = RunOptions {
        reps: Some(2),
        seed: Some(7),
        ..RunOptions::default()
    };
    let streamed = tables_with(&scenario, &options, sched_job(SchedulerKind::Heap));
    let oracle = tables_with(&scenario, &options, |base, point, seed| {
        run_replication_materialized(base, point, seed, SchedulerKind::Heap)
    });
    assert_eq!(streamed, oracle);
}

#[test]
fn materializing_a_horizon_phase_is_rejected() {
    let scenario = preset("open_arrival.toml");
    let point = &scenario.grid()[0];
    let base = ocb::ObjectBase::generate(&point.config.database, 1);
    let outcome = std::panic::catch_unwind(|| {
        run_replication_materialized(&base, point, 2, SchedulerKind::default())
    });
    let payload = outcome.expect_err("horizon phases cannot be materialized");
    let message = payload
        .downcast_ref::<&str>()
        .map(|m| m.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(message.contains("materialize"), "{message}");
}

#[test]
fn duration_override_turns_a_count_phase_into_a_horizon_phase() {
    let mut scenario = preset("smoke.toml");
    scenario.shrink_for_smoke(400, 20, 2);
    let count = run_sweep(
        &scenario,
        &RunOptions {
            reps: Some(1),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let horizon = run_sweep(
        &scenario,
        &RunOptions {
            reps: Some(1),
            duration_ms: Some(1_000.0),
            warmup_ms: Some(100.0),
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(count.points.len(), horizon.points.len());
    // The horizon run is a different experiment (time-bounded window),
    // but remains deterministic.
    let again = run_sweep(
        &scenario,
        &RunOptions {
            reps: Some(1),
            duration_ms: Some(1_000.0),
            warmup_ms: Some(100.0),
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(
        sweep_table(&horizon).to_csv(),
        sweep_table(&again).to_csv(),
        "horizon runs must reproduce"
    );
    assert_ne!(
        sweep_table(&count).to_csv(),
        sweep_table(&horizon).to_csv(),
        "a 1s horizon must cut the run short"
    );
}
