//! User-model differential tests, in the `stream_differential.rs`
//! discipline: the cohort-batched user population (per-cohort wake
//! heaps + admission ring, O(in-flight + cohorts) memory) must be
//! **bit-identical** to the per-user oracle (one engine event and one
//! wait-queue entry per user — the paper's literal Users sub-model) on
//! every closed configuration, across sweep points, replications, seeds,
//! schedulers and thread counts.

mod support;

use ocb::{UserCohort, UserModel};
use scenario::{RunOptions, Scenario, SchedulerKind};
use support::{preset, sched_job, tables, tables_with};

/// The smoke sweep, reshaped into a closed multi-user workload: more
/// users than MPL seats so the admission ring actually queues, and a
/// positive think time so the wake machinery runs.
fn closed_smoke(user_model: UserModel) -> Scenario {
    let mut scenario = preset("smoke.toml");
    scenario.config.workload.users = 6;
    scenario.config.workload.think_time_ms = 25.0;
    scenario.config.workload.user_model = user_model;
    scenario
}

#[test]
fn cohort_sweep_is_bit_identical_to_per_user_oracle() {
    for seed in [11u64, 42, 97] {
        let options = RunOptions {
            threads: Some(2),
            reps: Some(2),
            seed: Some(seed),
            ..RunOptions::default()
        };
        let (oracle_csv, oracle_json) = tables(&closed_smoke(UserModel::PerUser), &options);
        let (cohort_csv, cohort_json) = tables(&closed_smoke(UserModel::Cohort), &options);
        assert_eq!(
            cohort_csv, oracle_csv,
            "seed {seed}: cohort CSV diverged from the per-user oracle"
        );
        assert_eq!(cohort_json, oracle_json, "seed {seed}: JSON diverged");
    }
}

#[test]
fn user_model_equivalence_holds_on_every_scheduler() {
    let options = RunOptions {
        reps: Some(2),
        seed: Some(7),
        ..RunOptions::default()
    };
    for sched in SchedulerKind::ALL {
        let oracle = tables_with(
            &closed_smoke(UserModel::PerUser),
            &options,
            sched_job(sched),
        )
        .0;
        let cohort = tables_with(&closed_smoke(UserModel::Cohort), &options, sched_job(sched)).0;
        assert_eq!(
            cohort,
            oracle,
            "scheduler {}: cohort diverged from the per-user oracle",
            sched.name()
        );
    }
}

#[test]
fn explicit_cohort_partition_matches_across_representations() {
    // A heterogeneous population — two cohorts with different think
    // times — exercised through the sweep runner end to end.
    let build = |user_model: UserModel| {
        let mut scenario = closed_smoke(user_model);
        scenario.config.workload.cohorts = vec![
            UserCohort {
                size: 2,
                think_time_ms: 10.0,
            },
            UserCohort {
                size: 4,
                think_time_ms: 40.0,
            },
        ];
        scenario
    };
    for seed in [11u64, 42] {
        let options = RunOptions {
            threads: Some(2),
            reps: Some(2),
            seed: Some(seed),
            ..RunOptions::default()
        };
        let (oracle_csv, oracle_json) = tables(&build(UserModel::PerUser), &options);
        let (cohort_csv, cohort_json) = tables(&build(UserModel::Cohort), &options);
        assert_eq!(
            cohort_csv, oracle_csv,
            "seed {seed}: explicit cohorts diverged across representations"
        );
        assert_eq!(cohort_json, oracle_json, "seed {seed}: JSON diverged");
    }
}

/// A saturated closed horizon phase: far more users than MPL seats,
/// thinking briefly, so the admission ring is never empty after the
/// first instants and cohort mode queues whole runs of wakes without
/// dispatching them. Two cohorts with different think times interleave
/// their wakes, and a warm-up cuts the window.
fn saturated_horizon(user_model: UserModel) -> Scenario {
    let mut scenario = closed_smoke(user_model);
    let workload = &mut scenario.config.workload;
    workload.duration_ms = 1_500.0;
    workload.warmup_ms = 300.0;
    workload.cohorts = vec![
        UserCohort {
            size: 300,
            think_time_ms: 5.0,
        },
        UserCohort {
            size: 500,
            think_time_ms: 40.0,
        },
    ];
    scenario
}

#[test]
fn saturated_horizon_cohorts_match_the_per_user_oracle_on_every_scheduler() {
    for seed in [11u64, 42] {
        let options = RunOptions {
            reps: Some(2),
            seed: Some(seed),
            ..RunOptions::default()
        };
        let production = tables(&saturated_horizon(UserModel::Cohort), &options);
        for sched in SchedulerKind::ALL {
            let oracle = tables_with(
                &saturated_horizon(UserModel::PerUser),
                &options,
                sched_job(sched),
            );
            let cohort = tables_with(
                &saturated_horizon(UserModel::Cohort),
                &options,
                sched_job(sched),
            );
            let what = format!("seed {seed}, scheduler {}", sched.name());
            assert_eq!(cohort.0, oracle.0, "{what}: cohort CSV diverged");
            assert_eq!(cohort.1, oracle.1, "{what}: cohort JSON diverged");
            assert_eq!(production, cohort, "{what}: run_sweep diverged");
        }
    }
}
