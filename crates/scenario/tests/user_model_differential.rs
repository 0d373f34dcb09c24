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
            cohort, oracle,
            "scheduler {sched:?}: cohort diverged from the per-user oracle"
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

/// Asserts that `build(Cohort)` reports byte for byte what
/// `build(PerUser)` does on every event list and seed, and that the
/// production path agrees with the explicit-scheduler job.
fn assert_cohort_matches_oracle_on_every_scheduler(
    build: impl Fn(UserModel) -> Scenario,
    seeds: &[u64],
) {
    for &seed in seeds {
        let options = RunOptions {
            reps: Some(2),
            seed: Some(seed),
            ..RunOptions::default()
        };
        let production = tables(&build(UserModel::Cohort), &options);
        for sched in SchedulerKind::ALL {
            let oracle = tables_with(&build(UserModel::PerUser), &options, sched_job(sched));
            let cohort = tables_with(&build(UserModel::Cohort), &options, sched_job(sched));
            let what = format!("seed {seed}, scheduler {sched:?}");
            assert_eq!(cohort.0, oracle.0, "{what}: cohort CSV diverged");
            assert_eq!(cohort.1, oracle.1, "{what}: cohort JSON diverged");
            assert_eq!(production, cohort, "{what}: run_sweep diverged");
        }
    }
}

#[test]
fn saturated_horizon_cohorts_match_the_per_user_oracle_on_every_scheduler() {
    assert_cohort_matches_oracle_on_every_scheduler(saturated_horizon, &[11, 42]);
}

/// A closed population that saturates MPL and then drains: short
/// three-access transactions and a 20 s horizon admit every queued
/// user many times over, so admission order and stamps deep into each
/// queued run reach the report.
fn draining(user_model: UserModel, cohorts: Vec<UserCohort>) -> Scenario {
    let mut scenario = closed_smoke(user_model);
    let workload = &mut scenario.config.workload;
    workload.p_set = 0.0;
    workload.p_simple = 0.0;
    workload.p_hierarchy = 0.0;
    workload.p_stochastic = 1.0;
    workload.stochastic_depth = 3;
    workload.duration_ms = 20_000.0;
    workload.warmup_ms = 300.0;
    workload.cohorts = cohorts;
    scenario
}

#[test]
fn saturated_count_phase_exhausting_with_queued_runs_matches_the_oracle() {
    // A count phase of 300 short transactions against 600 users at
    // MPL 4: the queue drains for a while, then the source runs dry
    // while hundreds of users wait in queued ring runs, which must all
    // be dropped unadmitted.
    let build = |user_model: UserModel| {
        let mut scenario = draining(
            user_model,
            vec![
                UserCohort {
                    size: 200,
                    think_time_ms: 2.0,
                },
                UserCohort {
                    size: 400,
                    think_time_ms: 15.0,
                },
            ],
        );
        let workload = &mut scenario.config.workload;
        workload.duration_ms = 0.0;
        workload.warmup_ms = 0.0;
        workload.cold_transactions = 20;
        workload.hot_transactions = 280;
        scenario
    };
    assert_cohort_matches_oracle_on_every_scheduler(build, &[11, 42]);
}

#[test]
fn cohorts_with_equal_think_means_match_the_oracle() {
    // Three cohorts draw from one mean, so their wakes interleave
    // closely and each saturated drain splits every cohort's run.
    let build = |user_model: UserModel| {
        let cohorts = [100, 160, 80].map(|size| UserCohort {
            size,
            think_time_ms: 1.0,
        });
        draining(user_model, cohorts.to_vec())
    };
    assert_cohort_matches_oracle_on_every_scheduler(build, &[11, 42]);
}

#[test]
fn zero_think_cohorts_match_the_oracle() {
    // Zero-think users all wake at 0 and resubmit at their commit
    // instant, so wakes tie within and across the two zero-think
    // cohorts, and the due-now wakes that find no seat queue as runs.
    let build = |user_model: UserModel| {
        let cohort = |size, think_time_ms| UserCohort {
            size,
            think_time_ms,
        };
        draining(
            user_model,
            vec![cohort(120, 0.0), cohort(150, 3.0), cohort(80, 0.0)],
        )
    };
    assert_cohort_matches_oracle_on_every_scheduler(build, &[11, 42]);
}
