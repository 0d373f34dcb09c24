//! Fixtures and oracle jobs shared by the scenario tests. Each oracle
//! runs on the sweep runner as an ordinary job
//! ([`scenario::run_sweep_jobs`]), so a test compares the reports of the
//! production path ([`scenario::run_sweep`]) with the reports of the
//! oracle, byte for byte.

#![allow(
    dead_code,
    reason = "each test crate uses its own subset of the oracles"
)]

use desp::{NoProbe, SchedulerKind};
use ocb::ObjectBase;
use scenario::runner::run_replication_sched;
use scenario::{run_sweep_jobs, sweep_table, RunOptions, Scenario, SweepPoint, Value};
use std::path::PathBuf;
use voodb::{PhaseMode, PhaseResult, Simulation};

/// A shipped preset from `scenarios/`.
pub fn preset(name: &str) -> Scenario {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../scenarios/{name}"));
    let text = std::fs::read_to_string(&path).expect("scenario readable");
    Scenario::parse(&text).expect("scenario valid")
}

/// Shrinks the scenario so tests and CI smoke runs finish quickly:
/// clamps the object base to `max_objects`, the measured run to
/// `max_transactions`, a time-horizon phase to a few simulated
/// seconds (warm-up scaled along), truncates every axis to
/// `max_axis_points` values, and clamps swept `database.objects` /
/// `workload.hot_transactions` values to the same caps (deduplicated,
/// order preserved).
pub fn shrink_for_smoke(
    scenario: &mut Scenario,
    max_objects: usize,
    max_transactions: usize,
    max_axis_points: usize,
) {
    /// Horizon cap: long enough for tens of commits at preset
    /// arrival rates, short enough for debug-profile test runs.
    const MAX_DURATION_MS: f64 = 2_000.0;
    let db = &mut scenario.config.database;
    db.objects = db.objects.min(max_objects);
    db.classes = db.classes.min(db.objects.max(1));
    scenario.config.workload.hot_transactions = scenario
        .config
        .workload
        .hot_transactions
        .min(max_transactions);
    let wl = &mut scenario.config.workload;
    if wl.duration_ms > MAX_DURATION_MS {
        wl.warmup_ms *= MAX_DURATION_MS / wl.duration_ms;
        wl.duration_ms = MAX_DURATION_MS;
    }
    for axis in &mut scenario.sweep {
        axis.values.truncate(max_axis_points.max(1));
        let cap = match axis.param.as_str() {
            "database.objects" => Some(max_objects as i64),
            "workload.hot_transactions" => Some(max_transactions as i64),
            _ => None,
        };
        if let Some(cap) = cap {
            let mut seen = Vec::new();
            for value in std::mem::take(&mut axis.values) {
                let clamped = match value {
                    Value::Integer(n) => Value::Integer(n.min(cap)),
                    other => other,
                };
                if !seen.contains(&clamped) {
                    seen.push(clamped);
                }
            }
            axis.values = seen;
        }
    }
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
    let (transactions, cold_count) = voodb::generate_workload(base, workload, seed);
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
