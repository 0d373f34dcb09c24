//! Benchmark-vs-simulation jobs for the scenario runner.
//!
//! Every validation artifact of the paper compares two columns measured
//! under the *same* OCB workload:
//!
//! * **Bench** — the real mini-engine (`oostore`): O2-like page server or
//!   Texas-like store, counting actual virtual-disk I/Os;
//! * **Sim** — the VOODB model (`voodb`) parameterised per Table 4.
//!
//! Each artifact is a scenario (its system, base, workload and sweep)
//! run by [`scenario::run_sweep_jobs`] with one of the jobs below, so the
//! bench binaries share the runner's threads, seeding and confidence
//! intervals with `voodb run`. The methodology notes of §4 hold by
//! construction:
//!
//! * the object base is generated once per configuration from the
//!   scenario seed, and replications vary only the transaction stream;
//! * one replication runs both sides on the **identical transaction
//!   stream** ("the objective here was to use the same workload model in
//!   both sets of experiments", §4.1), generated once;
//! * the engine twin is built from the point's own simulated system
//!   (system class, buffer frames, clustering), so the simulation column
//!   of a figure is exactly what `voodb run` prints for its scenario.

use desp::MetricSet;
use ocb::{ObjectBase, Transaction, WorkloadGenerator, WorkloadParams};
use oostore::{
    run_workload, PageServerConfig, PageServerEngine, StorageEngine, TexasConfig, TexasEngine,
};
use scenario::runner::{run_replication_probed, WORKLOAD_SEED_SALT};
use scenario::{MetricEstimate, PointSummary, SweepPoint, SweepResult};
use voodb::{run_dstc_study, ExperimentConfig, PhaseResult, Simulation, SystemClass, VoodbParams};
use vtrace::{Histogram, RecorderConfig};

/// Generates the workload run for one replication seed over a shared
/// base: the whole cold + hot stream, and the cold count.
pub fn generate_workload(
    base: &ObjectBase,
    wl: &WorkloadParams,
    seed: u64,
) -> (Vec<Transaction>, usize) {
    let mut generator = WorkloadGenerator::new(base, wl.clone(), seed ^ WORKLOAD_SEED_SALT);
    let (cold, hot) = generator.generate_run();
    let cold_count = cold.len();
    let mut transactions = cold;
    transactions.extend(hot);
    (transactions, cold_count)
}

/// The Texas engine configuration twinning `system`: its buffer frames
/// become the host's VM frames, its clustering the engine's.
fn texas_config(system: &VoodbParams) -> TexasConfig {
    TexasConfig {
        memory_pages: system.buffer_pages,
        clustering: system.clustering.clone(),
        ..TexasConfig::paper_default()
    }
}

/// The real mini-engine twinning `system`: Texas for a centralized
/// system, the O2 page server for a page server.
///
/// # Panics
/// Panics on a system class without an engine twin.
fn engine_twin<'a>(base: &'a ObjectBase, system: &VoodbParams) -> Box<dyn StorageEngine + 'a> {
    match system.system_class {
        SystemClass::Centralized => Box::new(TexasEngine::new(base, texas_config(system))),
        SystemClass::PageServer => Box::new(PageServerEngine::new(
            base,
            PageServerConfig {
                buffer_pages: system.buffer_pages,
                clustering: system.clustering.clone(),
                ..PageServerConfig::paper_default()
            },
        )),
        ref other => panic!("no engine twin for system class {other:?}"),
    }
}

/// The outcome of one [`twin_job`].
#[derive(Clone, Debug)]
pub struct Twin {
    /// `bench_ios` and `sim_ios`: total I/Os of the measured run on the
    /// engine twin and in the model.
    pub metrics: MetricSet,
    /// The model's response-time histogram over the phase.
    pub latency: Histogram,
}

/// One replication of a figure point on both columns: the stream is
/// generated once, replayed on the engine twin (cold run, counters
/// reset, measured run) and run through the model with a recorder
/// attached (probes only observe, so the I/Os are the untraced ones).
pub fn twin_job(base: &ObjectBase, point: &SweepPoint, seed: u64) -> Twin {
    let workload = &point.config.workload;
    let system = point.config.effective_system();
    let (transactions, cold_count) = generate_workload(base, workload, seed);
    let mut engine = engine_twin(base, &system);
    run_workload(engine.as_mut(), &transactions[..cold_count]);
    engine.reset_counters();
    let bench = run_workload(engine.as_mut(), &transactions[cold_count..]);
    let mut simulation = Simulation::new(base, system, workload.think_time_ms, seed);
    let (sim, recorder) =
        simulation.run_phase_probed(transactions, cold_count, RecorderConfig::new().build());
    let metrics = [
        ("bench_ios", bench.total_ios() as f64),
        ("sim_ios", sim.total_ios() as f64),
    ]
    .into_iter()
    .collect();
    Twin {
        metrics,
        latency: response_histogram(recorder),
    }
}

/// One simulated replication, as `voodb run` runs it, with the model's
/// response-time histogram.
pub fn latency_job(base: &ObjectBase, point: &SweepPoint, seed: u64) -> (PhaseResult, Histogram) {
    let (result, recorder) =
        run_replication_probed(base, point, seed, RecorderConfig::new().build());
    (result, response_histogram(recorder))
}

fn response_histogram(mut recorder: vtrace::TraceRecorder) -> Histogram {
    recorder.flush();
    recorder
        .stage_histograms()
        .get("response_ms")
        .cloned()
        .unwrap_or_default()
}

/// One side of one §4.4 replication: pre-clustering usage, clustering
/// overhead, post-clustering usage (Tables 6 and 8) and the cluster
/// statistics (Table 7).
#[derive(Clone, Copy, Debug, Default)]
pub struct DstcSide {
    /// I/Os of the pre-clustering run.
    pub pre: f64,
    /// I/Os of the reorganisation.
    pub overhead: f64,
    /// I/Os of the post-clustering run.
    pub post: f64,
    /// Clusters built.
    pub clusters: f64,
    /// Mean objects per cluster.
    pub objects_per_cluster: f64,
}

impl DstcSide {
    /// Adds the side's rows to `metrics` as `<prefix>pre_ios`,
    /// `<prefix>overhead_ios`, `<prefix>post_ios`, `<prefix>clusters` and
    /// `<prefix>objects_per_cluster`.
    pub fn push_metrics(&self, prefix: &str, metrics: &mut MetricSet) {
        for (name, value) in [
            ("pre_ios", self.pre),
            ("overhead_ios", self.overhead),
            ("post_ios", self.post),
            ("clusters", self.clusters),
            ("objects_per_cluster", self.objects_per_cluster),
        ] {
            metrics.insert(format!("{prefix}{name}"), value);
        }
    }
}

/// One replication of the §4.4 protocol on the Texas *engine* twinning
/// `config`'s system: pre-clustering run, reorganisation, cold restart,
/// post-clustering run of the same transactions.
pub fn dstc_bench_once(base: &ObjectBase, config: &ExperimentConfig, seed: u64) -> DstcSide {
    let (transactions, cold_count) = generate_workload(base, &config.workload, seed);
    let mut engine = TexasEngine::new(base, texas_config(&config.effective_system()));
    run_workload(&mut engine, &transactions[..cold_count]);
    engine.reset_counters();
    let pre = run_workload(&mut engine, &transactions[cold_count..]);
    engine.reset_counters();
    let report = engine.reorganize();
    engine.flush_memory();
    engine.reset_counters();
    let post = run_workload(&mut engine, &transactions[cold_count..]);
    DstcSide {
        pre: pre.total_ios() as f64,
        overhead: report.total_ios() as f64,
        post: post.total_ios() as f64,
        clusters: report.outcome.cluster_count() as f64,
        objects_per_cluster: report.outcome.mean_cluster_size(),
    }
}

/// One replication of the §4.4 protocol in the VOODB *simulation*
/// ([`voodb::run_dstc_study`]).
pub fn dstc_sim_once(base: &ObjectBase, config: &ExperimentConfig, seed: u64) -> DstcSide {
    let study = run_dstc_study(base, config, seed);
    DstcSide {
        pre: study.pre.total_ios() as f64,
        overhead: study.reorg.io.total() as f64,
        post: study.post.total_ios() as f64,
        clusters: study.reorg.cluster_count as f64,
        objects_per_cluster: study.reorg.mean_cluster_size,
    }
}

/// One replication of a DSTC table point on both columns: the
/// [`DstcSide`] rows prefixed `bench_` and `sim_`.
pub fn dstc_twin_job(base: &ObjectBase, point: &SweepPoint, seed: u64) -> MetricSet {
    let mut metrics = MetricSet::new();
    dstc_bench_once(base, &point.config, seed).push_metrics("bench_", &mut metrics);
    dstc_sim_once(base, &point.config, seed).push_metrics("sim_", &mut metrics);
    metrics
}

/// One simulated replication of the §4.4 protocol: the unprefixed
/// [`DstcSide`] rows.
pub fn dstc_sim_job(base: &ObjectBase, point: &SweepPoint, seed: u64) -> MetricSet {
    let mut metrics = MetricSet::new();
    dstc_sim_once(base, &point.config, seed).push_metrics("", &mut metrics);
    metrics
}

/// The replication mean of metric `name` at `point`.
///
/// # Panics
/// Panics if the point has no such metric.
pub fn mean_of(point: &PointSummary, name: &str) -> f64 {
    point
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric '{name}' at point '{}'", point.label))
        .mean
}

/// Appends a derived column without an interval (its half-width is NaN)
/// to one point.
fn push_derived(point: &mut PointSummary, replications: usize, name: &str, value: f64) {
    point.metrics.push(MetricEstimate {
        name: name.to_owned(),
        mean: value,
        half_width: f64::NAN,
        n: replications,
    });
}

/// Appends `name` = mean of `numerator` / mean of `denominator` to every
/// point: the paper's bench/sim ratio and pre/post gain are ratios of
/// means, not means of ratios.
pub fn push_ratio(result: &mut SweepResult, name: &str, numerator: &str, denominator: &str) {
    let reps = result.replications;
    for point in &mut result.points {
        let den = mean_of(point, denominator);
        let ratio = if den == 0.0 {
            f64::INFINITY
        } else {
            mean_of(point, numerator) / den
        };
        push_derived(point, reps, name, ratio);
    }
}

/// Appends response-time columns (`response_p50_ms` … `response_max_ms`,
/// `response_mean_ms`) to every point, each from the merge of the point's
/// replication histograms (`latencies`, in job order).
pub fn push_latency<'a>(
    result: &mut SweepResult,
    latencies: impl IntoIterator<Item = &'a Histogram>,
) {
    let reps = result.replications;
    let mut latencies = latencies.into_iter();
    for point in &mut result.points {
        let mut merged = Histogram::new();
        for hist in latencies.by_ref().take(reps) {
            merged.merge(hist);
        }
        for (name, value) in [
            ("response_p50_ms", merged.p50()),
            ("response_p90_ms", merged.p90()),
            ("response_p99_ms", merged.p99()),
            ("response_max_ms", merged.max_or_zero()),
            ("response_mean_ms", merged.mean()),
        ] {
            push_derived(point, reps, name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::{run_sweep_jobs, RunOptions, Scenario};

    const O2_1MB: &str =
        "system_class = \"page-server\"\nnetwork_throughput_mbps = inf\ncache_mb = 1\ndisk = \"o2\"";
    const TEXAS_1MB: &str = "system_class = \"centralized\"\nmemory_mb = 1\ndisk = \"texas\"\n\
                             multiprogramming_level = 1\nswizzle = true";

    /// A 500-object base under 30 Table 5 transactions on `system`.
    fn tiny(system: &str) -> Scenario {
        Scenario::parse(&format!(
            "[scenario]\nname = \"tiny\"\nreplications = 3\nseed = 11\n\n[system]\n{system}\n\n\
             [database]\nclasses = 10\nobjects = 500\n\n[workload]\nhot_transactions = 30\n"
        ))
        .unwrap()
    }

    fn twins(scenario: &Scenario, options: &RunOptions) -> (SweepResult, Vec<Twin>) {
        run_sweep_jobs(
            scenario,
            options,
            |_, base, point, seed| twin_job(base, point, seed),
            |t: &Twin| t.metrics.clone(),
        )
        .unwrap()
    }

    fn twin_means(system: &str) -> (f64, f64) {
        let (result, _) = twins(&tiny(system), &RunOptions::default());
        let point = &result.points[0];
        (mean_of(point, "bench_ios"), mean_of(point, "sim_ios"))
    }

    #[test]
    fn bench_and_sim_columns_are_comparable() {
        let (bench, sim) = twin_means(O2_1MB);
        assert!(bench > 0.0 && sim > 0.0);
        // Same workload, independent implementations: within 3× of each
        // other (the paper's "lightly different in absolute value").
        let ratio = bench / sim;
        assert!((0.33..3.0).contains(&ratio), "bench/sim ratio {ratio}");
    }

    #[test]
    fn texas_columns_are_comparable() {
        let (bench, sim) = twin_means(TEXAS_1MB);
        assert!(bench > 0.0 && sim > 0.0);
        let ratio = bench / sim;
        assert!((0.25..4.0).contains(&ratio), "bench/sim ratio {ratio}");
    }

    #[test]
    fn engine_metadata_ios_separate_bench_from_sim() {
        // With the persistent OID table, the benchmark column must sit
        // strictly above the simulation column on the same stream.
        let (bench, sim) = twin_means(&O2_1MB.replace("cache_mb = 1", "cache_mb = 4"));
        assert!(bench > sim, "bench {bench} should exceed sim {sim}");
    }

    #[test]
    fn generic_runner_matches_wrappers() {
        // The twin's simulation column is `voodb run`'s `ios`, bit for
        // bit, and its latency columns are the traced runner's.
        for system in [O2_1MB, TEXAS_1MB] {
            let scenario = tiny(system);
            let options = RunOptions::default();
            let (mut twin, outcomes) = twins(&scenario, &options);
            let plain = scenario::run_sweep(&scenario, &options).unwrap();
            assert_eq!(
                mean_of(&twin.points[0], "sim_ios").to_bits(),
                mean_of(&plain.points[0], "ios").to_bits()
            );
            let (mut traced, latencies) = run_sweep_jobs(
                &scenario,
                &options,
                |_, base, point, seed| latency_job(base, point, seed),
                |(phase, _)| phase.to_metrics(),
            )
            .unwrap();
            push_latency(&mut twin, outcomes.iter().map(|t| &t.latency));
            push_latency(&mut traced, latencies.iter().map(|(_, hist)| hist));
            let p99 = |r: &SweepResult| mean_of(&r.points[0], "response_p99_ms");
            assert_eq!(p99(&twin).to_bits(), p99(&traced).to_bits());
            assert!(p99(&twin) > 0.0);
        }
    }

    #[test]
    fn measure_point_produces_intervals() {
        let options = RunOptions {
            reps: Some(5),
            ..RunOptions::default()
        };
        let (mut result, _) = twins(&tiny(O2_1MB), &options);
        push_ratio(&mut result, "ratio", "bench_ios", "sim_ios");
        let point = &result.points[0];
        for m in &point.metrics {
            assert_eq!(m.n, 5, "{}", m.name);
        }
        let ratio = point.metrics.last().unwrap();
        assert_eq!(ratio.name, "ratio");
        assert!(ratio.mean > 0.0 && ratio.half_width.is_nan());
        assert!(point.metrics[0].half_width.is_finite());
    }

    #[test]
    fn dstc_protocol_runs_both_sides() {
        let scenario = Scenario::parse(
            r#"
[scenario]
name = "tiny_dstc"
replications = 1
seed = 13

[system]
system_class = "centralized"
memory_mb = 64
disk = "texas"
multiprogramming_level = 1
get_lock_ms = 0.0
release_lock_ms = 0.0
swizzle = true
clustering = "dstc"
dstc_observation_period = 2000
dstc_tfa = 2.0
dstc_tfc = 1.0
dstc_tfe = 2.0
dstc_w = 0.8
dstc_max_unit_size = 32

[database]
classes = 10
objects = 500

[workload]
hot_transactions = 200
p_set = 0.0
p_simple = 0.0
p_hierarchy = 1.0
p_stochastic = 0.0
hierarchy_depth = 3
root_dist = "hotset-0.015-1.0"
"#,
        )
        .unwrap();
        let point = &scenario.grid()[0];
        let base = ObjectBase::generate(&point.config.database, 7);
        let bench = dstc_bench_once(&base, &point.config, 13);
        let sim = dstc_sim_once(&base, &point.config, 13);
        assert!(bench.clusters > 0.0);
        assert!(sim.clusters > 0.0);
        assert!(bench.pre > bench.post, "bench {bench:?}");
        assert!(sim.pre > sim.post, "sim {sim:?}");
        // The Table 6 anomaly: physical-OID overhead ≫ logical-OID
        // overhead.
        assert!(
            bench.overhead > 3.0 * sim.overhead,
            "bench overhead {} should dwarf sim overhead {}",
            bench.overhead,
            sim.overhead
        );
        let metrics = dstc_twin_job(&base, point, 13);
        assert_eq!(metrics.get("bench_pre_ios"), Some(bench.pre));
        assert_eq!(
            metrics.get("sim_objects_per_cluster"),
            Some(sim.objects_per_cluster)
        );
    }
}
