//! # voodb-bench — the binaries regenerating the paper's evaluation
//!
//! One binary per table/figure of *VOODB* (VLDB 1999), §4. Each artifact
//! is a scenario file run on the scenario runner with a twin job (the
//! `oostore` engine and the `voodb` model on one transaction stream):
//!
//! | Binary | Artifact | Scenario |
//! |---|---|---|
//! | `fig06_07_o2_base_size` | Figs. 6 & 7: mean I/Os vs. instances (O2) | `crates/bench/scenarios/fig06_o2_base_size_20c.toml`, `scenarios/o2_base_size.toml` |
//! | `fig08_o2_cache` | Fig. 8: mean I/Os vs. server cache size (O2) | `scenarios/o2_cache.toml` |
//! | `fig09_10_texas_base_size` | Figs. 9 & 10: mean I/Os vs. instances (Texas) | `crates/bench/scenarios/fig09_texas_base_size_20c.toml`, `scenarios/texas_base_size.toml` |
//! | `fig11_texas_memory` | Fig. 11: mean I/Os vs. available memory (Texas) | `scenarios/texas_memory.toml` |
//! | `tab06_07_dstc_mid` | Tables 6 & 7: DSTC on the mid-sized base | `crates/bench/scenarios/tab06_07_dstc_mid.toml` |
//! | `tab08_dstc_large` | Table 8: DSTC on the "large" base (3 MB) | `crates/bench/scenarios/tab08_dstc_large.toml` |
//! | `dstc_sweep` | DSTC parameters one at a time (simulated) | `crates/bench/scenarios/dstc_sweep.toml` |
//! | `strategy_compare` | Clustering strategies compared (simulated) | `crates/bench/scenarios/strategy_compare.toml` |
//! | `policy_sweep` | Ablation: replacement policies (simulated) | `crates/bench/scenarios/policy_sweep.toml` |
//! | `repro_all` | Figures 6–11 and Tables 6–8, persisted as CSV/JSON | all of the paper's above |
//!
//! Every binary takes `--reps N` and `--seed S` (defaults: the
//! scenario's) and prints the sweep's report table as CSV: Benchmark
//! and Simulation columns with 95% confidence intervals, mirroring the
//! paper's figures. The figure tables add the bench/sim ratio of means
//! and the model's response-time percentiles. Every other knob lives in
//! the scenario file. Timing lives in one place: the standalone
//! `e2ebench/` package, the end-to-end benchmark of record (job times,
//! peak RSS, per-layer costs, scheduler hold times, recorder overhead),
//! which CI also runs as its base-vs-head perf gate.

pub mod args;
pub mod harness;
pub mod report;

pub use args::{Args, COMMON_KEYS};
pub use harness::{
    dstc_bench_once, dstc_sim_job, dstc_sim_once, latency_job, mean_of, push_latency, push_ratio,
    twin_job, DstcSide, Twin,
};
pub use report::check_same_tendency;

use desp::MetricSet;
use ocb::ObjectBase;
use scenario::{run_sweep_jobs, sweep_table, RunOptions, Scenario, SweepPoint, SweepResult};
use std::path::Path;

/// The scenario of each artifact, embedded at build time.
pub mod scenarios {
    /// Fig. 6: O2, instances sweep, 20 classes.
    pub const FIG06: &str = include_str!("../scenarios/fig06_o2_base_size_20c.toml");
    /// Fig. 7: O2, instances sweep, 50 classes.
    pub const FIG07: &str = include_str!("../../../scenarios/o2_base_size.toml");
    /// Fig. 8: O2, server cache sweep.
    pub const FIG08: &str = include_str!("../../../scenarios/o2_cache.toml");
    /// Fig. 9: Texas, instances sweep, 20 classes.
    pub const FIG09: &str = include_str!("../scenarios/fig09_texas_base_size_20c.toml");
    /// Fig. 10: Texas, instances sweep, 50 classes.
    pub const FIG10: &str = include_str!("../../../scenarios/texas_base_size.toml");
    /// Fig. 11: Texas, memory sweep.
    pub const FIG11: &str = include_str!("../../../scenarios/texas_memory.toml");
    /// Tables 6 & 7: DSTC, mid-sized base, 64 MB.
    pub const TAB06: &str = include_str!("../scenarios/tab06_07_dstc_mid.toml");
    /// Table 8: DSTC, 3 MB.
    pub const TAB08: &str = include_str!("../scenarios/tab08_dstc_large.toml");
    /// DSTC parameters, one axis at a time.
    pub const DSTC_SWEEP: &str = include_str!("../scenarios/dstc_sweep.toml");
    /// Clustering strategies × memory.
    pub const STRATEGY_COMPARE: &str = include_str!("../scenarios/strategy_compare.toml");
    /// Replacement policies.
    pub const POLICY_SWEEP: &str = include_str!("../scenarios/policy_sweep.toml");
}

/// The runner overrides of the common keys: `--reps` and `--seed`
/// replace the scenario's values when given.
pub fn run_options(args: &Args) -> RunOptions {
    RunOptions {
        reps: args.has("reps").then(|| args.get("reps", 0)),
        seed: args.has("seed").then(|| args.get("seed", 0)),
        ..RunOptions::default()
    }
}

/// Parses an embedded scenario and runs it with `job` on every
/// replication, aggregating the metrics `metrics` extracts; the
/// outcomes come back in job order.
///
/// # Panics
/// Panics if the scenario does not parse or validate.
pub fn run<T, J, M>(text: &str, options: &RunOptions, job: J, metrics: M) -> (SweepResult, Vec<T>)
where
    T: Send,
    J: Fn(&ObjectBase, &SweepPoint, u64) -> T + Sync,
    M: Fn(&T) -> MetricSet,
{
    let scenario = Scenario::parse(text).unwrap_or_else(|e| panic!("embedded scenario: {e}"));
    run_sweep_jobs(
        &scenario,
        options,
        |_, base, point, seed| job(base, point, seed),
        metrics,
    )
    .unwrap_or_else(|e| panic!("scenario '{}': {e}", scenario.name))
}

/// Runs a figure's scenario with [`twin_job`]: per point, the bench and
/// sim I/Os, their `ratio` of means and the model's response-time
/// percentiles. Warns on stderr when the two series trend apart.
pub fn figure(text: &str, options: &RunOptions) -> SweepResult {
    let (mut result, twins) = run(text, options, twin_job, |t: &Twin| t.metrics.clone());
    push_ratio(&mut result, "ratio", "bench_ios", "sim_ios");
    push_latency(&mut result, twins.iter().map(|t| &t.latency));
    if let Err(e) = check_same_tendency(&result, 0.10) {
        eprintln!("WARNING [{}]: tendency check failed: {e}", result.scenario);
    }
    result
}

/// Runs a DSTC table's scenario with [`harness::dstc_twin_job`], adding the
/// `bench_gain`/`sim_gain` (pre/post) and `overhead_ratio` (bench/sim
/// reorganisation I/Os, the physical-OID anomaly) ratios of means.
pub fn dstc_table(text: &str, options: &RunOptions) -> SweepResult {
    let (mut result, _) = run(text, options, harness::dstc_twin_job, MetricSet::clone);
    push_ratio(&mut result, "bench_gain", "bench_pre_ios", "bench_post_ios");
    push_ratio(&mut result, "sim_gain", "sim_pre_ios", "sim_post_ios");
    push_ratio(
        &mut result,
        "overhead_ratio",
        "bench_overhead_ios",
        "sim_overhead_ios",
    );
    result
}

/// Prints a result's report table as CSV, then persists it as
/// `<dir>/<stem>.csv` and `.json` when `out` is `Some((dir, stem))`.
pub fn print_report(result: &SweepResult, out: Option<(&Path, &str)>) {
    let table = sweep_table(result);
    println!("{}", table.to_csv());
    if let Some((dir, stem)) = out {
        match table.write(dir, stem) {
            Ok((csv, json)) => println!("wrote {} and {}\n", csv.display(), json.display()),
            Err(e) => eprintln!("WARNING: persisting {stem}: {e}"),
        }
    }
}
