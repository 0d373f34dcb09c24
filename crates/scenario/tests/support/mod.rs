//! Oracle jobs shared by the differential tests. Each oracle runs on
//! the sweep runner as an ordinary job ([`scenario::run_sweep_jobs`]),
//! so a test compares the reports of the production path
//! ([`scenario::run_sweep`]) with the reports of the oracle, byte for
//! byte.

#![allow(dead_code)] // each test crate uses its own subset of the oracles

use desp::{NoProbe, SchedulerKind};
use ocb::{ObjectBase, WorkloadGenerator};
use scenario::runner::{run_replication_sched, WORKLOAD_SEED_SALT};
use scenario::{run_sweep_jobs, sweep_table, RunOptions, Scenario, SweepPoint};
use std::path::PathBuf;
use voodb::{PhaseMode, PhaseResult, Simulation};

/// A shipped preset from `scenarios/`.
pub fn preset(name: &str) -> Scenario {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../scenarios/{name}"));
    let text = std::fs::read_to_string(&path).expect("scenario readable");
    Scenario::parse(&text).expect("scenario valid")
}

/// The CSV and JSON reports of `scenario` run with `job` on every
/// (point × replication).
pub fn tables_with<J>(scenario: &Scenario, options: &RunOptions, job: J) -> (String, String)
where
    J: Fn(&ObjectBase, &SweepPoint, u64) -> PhaseResult + Sync,
{
    let (result, _) = run_sweep_jobs(
        scenario,
        options,
        |_, base, point, seed| job(base, point, seed),
        PhaseResult::to_metrics,
    )
    .expect("sweep runs");
    let table = sweep_table(&result);
    (table.to_csv(), table.to_json())
}

/// The CSV and JSON reports of the production path, [`scenario::run_sweep`].
pub fn tables(scenario: &Scenario, options: &RunOptions) -> (String, String) {
    let result = scenario::run_sweep(scenario, options).expect("sweep runs");
    let table = sweep_table(&result);
    (table.to_csv(), table.to_json())
}

/// The streamed replication on an explicit event-list implementation.
pub fn sched_job(
    sched: SchedulerKind,
) -> impl Fn(&ObjectBase, &SweepPoint, u64) -> PhaseResult + Sync {
    move |base, point, seed| run_replication_sched(base, point, seed, NoProbe, sched).0
}

/// The materialized oracle: generates the whole count-based run up
/// front (the pre-streaming implementation) and replays it on `sched`.
///
/// # Panics
/// Panics on a time-horizon point: an unbounded stream cannot be
/// materialized.
pub fn run_replication_materialized(
    base: &ObjectBase,
    point: &SweepPoint,
    seed: u64,
    sched: SchedulerKind,
) -> PhaseResult {
    let workload = &point.config.workload;
    assert!(
        workload.duration_ms == 0.0,
        "cannot materialize a time-horizon phase"
    );
    let mut generator = WorkloadGenerator::new(base, workload.clone(), seed ^ WORKLOAD_SEED_SALT);
    let (cold, hot) = generator.generate_run();
    let cold_count = cold.len();
    let mut transactions = cold;
    transactions.extend(hot);
    let mut simulation = Simulation::new(
        base,
        point.config.effective_system(),
        workload.think_time_ms,
        seed,
    );
    simulation.configure_users(workload.user_model, &workload.cohorts);
    simulation
        .run_phase_source_sched(
            Box::new(ocb::MaterializedSource::new(transactions)),
            PhaseMode::Count { cold: cold_count },
            workload.arrival,
            NoProbe,
            sched,
        )
        .0
}
