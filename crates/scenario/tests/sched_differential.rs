//! End-to-end scheduler differential fuzz: the full smoke scenario —
//! object-base generation, workload streams, the complete VOODB model
//! with buffering, locking, clustering and telemetry — run under the
//! production calendar-queue scheduler and under the binary-heap oracle
//! (passed to the sweep runner as a job) must produce byte-identical
//! CSV and JSON reports. Any divergence means the calendar queue
//! reordered at least one event pair somewhere in the millions of
//! dispatches behind these numbers.

mod support;

use scenario::{RunOptions, SchedulerKind};
use support::{preset, sched_job, tables, tables_with};

#[test]
fn smoke_scenario_is_bit_identical_across_schedulers() {
    let scenario = preset("smoke.toml");
    // Several seeds: each draws a different object base and transaction
    // stream, so buffer hits, I/O batches and resource queueing (the
    // event interleavings the kernel orders) differ.
    for seed in [11u64, 42, 97] {
        let options = RunOptions {
            threads: Some(2),
            reps: Some(2),
            seed: Some(seed),
            ..RunOptions::default()
        };
        let (calendar_csv, calendar_json) = tables(&scenario, &options);
        let (heap_csv, heap_json) =
            tables_with(&scenario, &options, sched_job(SchedulerKind::Heap));
        assert_eq!(calendar_csv, heap_csv, "seed {seed}: heap CSV diverged");
        assert_eq!(calendar_json, heap_json, "seed {seed}: heap JSON diverged");
    }
}
