//! The parallel sweep runner.
//!
//! A scenario expands into a grid of sweep points (cartesian product of
//! its axes); each point runs `replications` independent replications.
//! The runner shards the **(point × replication)** job grid across std
//! scoped threads via a work-stealing counter, so a 4-point × 25-rep
//! sweep keeps every core busy even when points cost wildly different
//! amounts.
//!
//! ## Seeding
//!
//! Seeds follow the configuration, not the grid position. Every point's
//! object base is generated from the scenario seed `s`, and replication
//! `r` of every point runs on seed `s + 1 + r` (its workload stream on
//! that seed `^` [`WORKLOAD_SEED_SALT`]). So points that differ only in
//! `[system]` or `[workload]` keys share one base and common random
//! streams: a cache sweep compares caches, not databases. Replications
//! still vary only the transaction stream (the paper's §4
//! methodology), and the twin jobs of [`crate::harness`] use the same
//! scheme, so `voodb run` on a figure's preset prints that figure's
//! simulation column.
//!
//! ## Determinism
//!
//! Results are **identical at any thread count** because no random state
//! crosses jobs:
//!
//! * seeds are pure functions of the scenario seed and the replication
//!   index;
//! * each point's base is built lazily via a per-point `OnceLock`, so
//!   whichever thread gets there first builds the identical base;
//! * every job writes into its own pre-allocated slot, and aggregation
//!   walks the slots in index order.
//!
//! The determinism test in `tests/golden.rs` asserts byte-identical CSV
//! output for `threads = 1` vs `threads = 8`.

use crate::spec::{Scenario, SweepPoint};
use desp::{ConfidenceInterval, MetricSet, NoProbe};
use ocb::{Arrival, ObjectBase};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use voodb::{run_replication, PhaseResult};
use vtrace::{RecorderConfig, TraceRecorder};

pub use voodb::WORKLOAD_SEED_SALT;

/// Confidence level of the reported intervals (the paper's c = 0.95).
pub const CONFIDENCE: f64 = 0.95;

/// The most worker threads a sweep accepts. The count comes from outside
/// the program (`--threads`) and each worker is an OS thread, so an
/// absurd count is refused before any starts, instead of panicking when
/// the OS refuses one.
pub const MAX_THREADS: usize = 1024;

/// Runtime overrides from the CLI.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Worker threads; `None` = one per available core. At most
    /// [`MAX_THREADS`].
    pub threads: Option<usize>,
    /// Override the scenario's replication count.
    pub reps: Option<usize>,
    /// Override the scenario's base seed.
    pub seed: Option<u64>,
    /// Override the base `workload.duration_ms` (`--duration`): a
    /// positive value turns every point into a time-horizon phase.
    pub duration_ms: Option<f64>,
    /// Override the base `workload.warmup_ms` (`--warmup`).
    pub warmup_ms: Option<f64>,
    /// Override the base `workload.arrival` (`--arrival`).
    pub arrival: Option<Arrival>,
}

/// One metric's replication estimate at one sweep point.
#[derive(Clone, Debug)]
pub struct MetricEstimate {
    /// Metric name (see [`voodb::PhaseResult::to_metrics`]).
    pub name: String,
    /// Sample mean over replications.
    pub mean: f64,
    /// 95% Student-t half-width (infinite when n < 2).
    pub half_width: f64,
    /// Replications the estimate is based on.
    pub n: usize,
}

/// All estimates of one sweep point.
#[derive(Clone, Debug)]
pub struct PointSummary {
    /// `(param, value-as-plain-string)` coordinates in axis order.
    pub coords: Vec<(String, String)>,
    /// Compact human label.
    pub label: String,
    /// Per-metric estimates, in a fixed metric order.
    pub metrics: Vec<MetricEstimate>,
}

/// The outcome of a full sweep.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Scenario name (report files are named after it).
    pub scenario: String,
    /// Scenario description.
    pub description: String,
    /// Replications actually run per point.
    pub replications: usize,
    /// Base seed actually used.
    pub seed: u64,
    /// Axis parameter names, in axis order.
    pub axes: Vec<String>,
    /// One summary per grid point, in grid order.
    pub points: Vec<PointSummary>,
}

/// SplitMix64 — the standard 64-bit mixer; enough to decorrelate
/// index-derived seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed decorrelated per grid index, for callers that want a distinct
/// base for every point of a grid (the end-to-end benchmark's jobs).
/// The sweep runner itself seeds by configuration (see the module
/// docs).
pub fn point_seed(base_seed: u64, point_index: usize) -> u64 {
    splitmix64(base_seed ^ splitmix64(0x5CE2_A810_0000_0000 ^ point_index as u64))
}

/// A replication seed decorrelated per index within a [`point_seed`].
pub fn replication_seed(point_seed: u64, rep: usize) -> u64 {
    splitmix64(point_seed ^ splitmix64(0x7E11_CA7E_0000_0000 ^ rep as u64))
}

/// The telemetry of one traced (point × replication) job.
#[derive(Clone, Debug)]
pub struct JobTrace {
    /// Sweep-point index.
    pub point: usize,
    /// Replication index within the point.
    pub rep: usize,
    /// Human label of the sweep point.
    pub label: String,
    /// The job's phase result (identical to the untraced run).
    pub result: PhaseResult,
    /// The recorded spans, histograms and series.
    pub recorder: TraceRecorder,
}

/// Runs the whole sweep. See the module docs for the seeding and
/// determinism contract.
///
/// # Errors
/// Returns the first validation error; the run itself cannot fail.
pub fn run_sweep(scenario: &Scenario, options: &RunOptions) -> Result<SweepResult, String> {
    let (result, _) = run_sweep_jobs(
        scenario,
        options,
        |_, base, point, seed| run_replication(base, &point.config, seed, NoProbe).0,
        PhaseResult::to_metrics,
    )?;
    Ok(result)
}

/// Runs the whole sweep with a default-configured [`TraceRecorder`] on
/// every job, returning the aggregated result plus one [`JobTrace`] per
/// (point × replication) in job order. The [`SweepResult`] is identical
/// to an untraced [`run_sweep`].
///
/// # Errors
/// Returns the first validation error.
pub fn run_sweep_traced(
    scenario: &Scenario,
    options: &RunOptions,
) -> Result<(SweepResult, Vec<JobTrace>), String> {
    run_sweep_traced_with(scenario, options, &RecorderConfig::new())
}

/// [`run_sweep_traced`] with an explicit [`RecorderConfig`]
/// (sampling, watch sinks). Each job's recorder comes from
/// [`RecorderConfig::build_for_job`], so sampling seeds and watch
/// labels are deterministic per (point × replication); recorders are
/// flushed before being returned.
///
/// # Errors
/// Returns the first validation error.
pub fn run_sweep_traced_with(
    scenario: &Scenario,
    options: &RunOptions,
    config: &RecorderConfig,
) -> Result<(SweepResult, Vec<JobTrace>), String> {
    let (result, outcomes) = run_sweep_jobs(
        scenario,
        options,
        |job, base, point, seed| {
            run_replication(base, &point.config, seed, config.build_for_job(job))
        },
        |(phase, _)| phase.to_metrics(),
    )?;
    let reps = result.replications;
    let traces = outcomes
        .into_iter()
        .enumerate()
        .map(|(job, (phase, mut recorder))| {
            recorder.flush();
            let point = job / reps;
            JobTrace {
                point,
                rep: job % reps,
                label: result.points[point].label.clone(),
                result: phase,
                recorder,
            }
        })
        .collect();
    Ok((result, traces))
}

/// `scenario` with the CLI overrides of `options` applied, once the
/// result and the thread count are known to be valid: the checks
/// [`run_sweep_jobs`] makes before it starts a worker, for callers that
/// must refuse a run before printing anything.
///
/// # Errors
/// Returns the first validation error.
pub fn apply_run_options(scenario: &Scenario, options: &RunOptions) -> Result<Scenario, String> {
    let mut scenario = scenario.clone();
    if let Some(reps) = options.reps {
        scenario.replications = reps;
    }
    if let Some(seed) = options.seed {
        scenario.seed = seed;
    }
    if let Some(duration) = options.duration_ms {
        scenario.config.workload.duration_ms = duration;
    }
    if let Some(warmup) = options.warmup_ms {
        scenario.config.workload.warmup_ms = warmup;
    }
    if let Some(arrival) = options.arrival {
        scenario.config.workload.arrival = arrival;
    }
    scenario.validate()?;
    if let Some(threads) = options.threads.filter(|&n| n > MAX_THREADS) {
        return Err(format!(
            "{threads} worker threads requested; the limit is {MAX_THREADS}"
        ));
    }
    Ok(scenario)
}

/// The sweep engine behind [`run_sweep`] and [`run_sweep_traced`], open
/// to any per-replication job: shards the (point × replication) grid
/// over scoped threads and calls `job(index, base, point, seed)` once
/// per job, where `index` is the job's (point × replication) position
/// (for per-job state such as a recorder's sampling seed), `base` the
/// point's object base and `seed` the replication seed. `metrics` maps
/// each outcome to the metrics aggregated into the [`SweepResult`]. The
/// outcomes come back in job order (point-major).
///
/// `voodb repro` passes twin jobs (engine and simulation on one
/// stream); the differential tests pass oracle jobs (another scheduler,
/// a materialized workload).
///
/// # Errors
/// Returns the first validation error.
pub fn run_sweep_jobs<T, J, M>(
    scenario: &Scenario,
    options: &RunOptions,
    job: J,
    metrics: M,
) -> Result<(SweepResult, Vec<T>), String>
where
    T: Send,
    J: Fn(usize, &ObjectBase, &SweepPoint, u64) -> T + Sync,
    M: Fn(&T) -> MetricSet,
{
    let scenario = apply_run_options(scenario, options)?;
    let reps = scenario.replications;
    let base_seed = scenario.seed;
    let grid = scenario.grid();
    let jobs = grid.len() * reps;
    let threads = options
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .max(1)
        .min(jobs.max(1));

    // Per-point lazily generated object bases and per-job result slots.
    let bases: Vec<OnceLock<ObjectBase>> = (0..grid.len()).map(|_| OnceLock::new()).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= jobs {
                    break;
                }
                let (p, r) = (index / reps, index % reps);
                let point = &grid[p];
                let base = bases[p]
                    .get_or_init(|| ObjectBase::generate(&point.config.database, base_seed));
                let outcome = job(index, base, point, base_seed.wrapping_add(1 + r as u64));
                *slots[index].lock().expect("job slot poisoned") = Some(outcome);
            });
        }
    });
    let outcomes: Vec<T> = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("job slot poisoned")
                .expect("every job ran")
        })
        .collect();

    // Aggregate replications into per-metric estimates, in index order.
    let points = grid
        .iter()
        .enumerate()
        .map(|(p, point)| {
            let metric_sets: Vec<MetricSet> = outcomes[p * reps..(p + 1) * reps]
                .iter()
                .map(&metrics)
                .collect();
            let names: Vec<String> = metric_sets[0].iter().map(|(n, _)| n.to_owned()).collect();
            let estimates = names
                .iter()
                .map(|name| {
                    let samples: Vec<f64> = metric_sets
                        .iter()
                        .map(|m| m.get(name).expect("metric present in every replication"))
                        .collect();
                    let ci = ConfidenceInterval::from_samples(&samples, CONFIDENCE);
                    MetricEstimate {
                        name: name.clone(),
                        mean: ci.mean,
                        half_width: ci.half_width,
                        n: ci.n,
                    }
                })
                .collect();
            PointSummary {
                coords: point
                    .coords
                    .iter()
                    .map(|(param, value)| {
                        (param.clone(), crate::spec::value_to_plain_string(value))
                    })
                    .collect(),
                label: point.label(),
                metrics: estimates,
            }
        })
        .collect();
    let result = SweepResult {
        scenario: scenario.name.clone(),
        description: scenario.description.clone(),
        replications: reps,
        seed: base_seed,
        axes: scenario.sweep.iter().map(|a| a.param.clone()).collect(),
        points,
    };
    Ok((result, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = r#"
[scenario]
name = "tiny"
replications = 3
seed = 11

[database]
classes = 8
objects = 300

[workload]
hot_transactions = 20

[[sweep]]
param = "system.buffer_pages"
values = [32, 256]
"#;

    #[test]
    fn sweep_runs_and_aggregates() {
        let scenario = Scenario::parse(TINY).unwrap();
        let result = run_sweep(&scenario, &RunOptions::default()).unwrap();
        assert_eq!(result.points.len(), 2);
        assert_eq!(result.replications, 3);
        for point in &result.points {
            let ios = point.metrics.iter().find(|m| m.name == "ios").unwrap();
            assert!(ios.mean > 0.0);
            assert_eq!(ios.n, 3);
        }
        // A bigger buffer cannot cost more I/Os on the same stream.
        let ios = |i: usize| {
            result.points[i]
                .metrics
                .iter()
                .find(|m| m.name == "ios")
                .unwrap()
                .mean
        };
        assert!(
            ios(1) <= ios(0),
            "256 pages {} vs 32 pages {}",
            ios(1),
            ios(0)
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let scenario = Scenario::parse(TINY).unwrap();
        let one = run_sweep(
            &scenario,
            &RunOptions {
                threads: Some(1),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let eight = run_sweep(
            &scenario,
            &RunOptions {
                threads: Some(8),
                ..RunOptions::default()
            },
        )
        .unwrap();
        for (a, b) in one.points.iter().zip(&eight.points) {
            for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
                assert_eq!(ma.name, mb.name);
                assert_eq!(ma.mean.to_bits(), mb.mean.to_bits());
                assert_eq!(ma.half_width.to_bits(), mb.half_width.to_bits());
            }
        }
    }

    #[test]
    fn overrides_take_effect() {
        let scenario = Scenario::parse(TINY).unwrap();
        let result = run_sweep(
            &scenario,
            &RunOptions {
                reps: Some(2),
                seed: Some(99),
                threads: Some(2),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(result.replications, 2);
        assert_eq!(result.seed, 99);
        assert_eq!(result.points[0].metrics[0].n, 2);
    }

    #[test]
    fn seeds_are_decorrelated() {
        let p0 = point_seed(42, 0);
        let p1 = point_seed(42, 1);
        assert_ne!(p0, p1);
        assert_ne!(replication_seed(p0, 0), replication_seed(p0, 1));
        assert_ne!(replication_seed(p0, 0), replication_seed(p1, 0));
    }

    fn ios_means(result: &SweepResult) -> Vec<f64> {
        result
            .points
            .iter()
            .map(|p| p.metrics.iter().find(|m| m.name == "ios").unwrap().mean)
            .collect()
    }

    #[test]
    fn points_with_equal_configurations_get_identical_results() {
        // Equal configurations share their base and streams, whatever
        // their grid position.
        let text = TINY.replace(
            "param = \"system.buffer_pages\"\nvalues = [32, 256]",
            "param = \"system.multiprogramming_level\"\nvalues = [10, 10]",
        );
        let scenario = Scenario::parse(&text).unwrap();
        let result = run_sweep(&scenario, &RunOptions::default()).unwrap();
        let [a, b] = &result.points[..] else {
            panic!("two points expected");
        };
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(ma.name, mb.name);
            assert_eq!(ma.mean.to_bits(), mb.mean.to_bits(), "{}", ma.name);
            assert_eq!(ma.half_width.to_bits(), mb.half_width.to_bits());
        }
    }

    #[test]
    fn o2_cache_ios_do_not_grow_with_the_cache() {
        let mut scenario =
            Scenario::parse(include_str!("../../../scenarios/o2_cache.toml")).unwrap();
        scenario.config.workload.hot_transactions = 100;
        let options = RunOptions {
            reps: Some(2),
            ..RunOptions::default()
        };
        let ios = ios_means(&run_sweep(&scenario, &options).unwrap());
        assert_eq!(ios.len(), 6);
        for pair in ios.windows(2) {
            assert!(pair[1] <= pair[0], "more cache cost more I/Os: {ios:?}");
        }
    }
}
