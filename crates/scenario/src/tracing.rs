//! Trace-directory writing for traced sweep runs.
//!
//! `voodb run <file> --trace` runs the sweep with a
//! [`vtrace::TraceRecorder`] on every (point × replication) job and
//! persists a **trace directory** next to the CSV/JSON reports:
//!
//! ```text
//! target/voodb-out/<scenario>.trace/
//!   point-000-rep-00.spans.jsonl    one JSON object per transaction
//!   point-000-rep-00.series.csv     series,t_ms,value samples
//!   …
//!   summary.json                    per-job scalar metrics + aggregate
//! ```
//!
//! `voodb analyze` and `voodb compare` consume these files (see
//! [`vtrace::analyze`]); the summary metrics combine each job's
//! [`voodb::PhaseResult`] scalars with percentile columns derived from
//! its stage histograms.

use crate::runner::{JobTrace, SweepResult};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use vtrace::{write_job_trace, RunMetrics, RunSummary, STAGE_METRICS};

/// The trace directory of a scenario under `out_dir`.
pub fn trace_dir_for(out_dir: &Path, scenario: &str) -> PathBuf {
    out_dir.join(format!("{scenario}.trace"))
}

/// Flattens one traced job into its summary metrics: the phase scalars
/// plus `p50`/`p90`/`p99`/`max`/`mean` columns per exercised stage.
pub fn job_metrics(job: &JobTrace) -> BTreeMap<String, f64> {
    let mut metrics: BTreeMap<String, f64> = job
        .result
        .to_metrics()
        .iter()
        .map(|(name, value)| (name.to_owned(), value))
        .collect();
    metrics.insert("events".into(), job.result.events as f64);
    metrics.insert("spans".into(), job.recorder.spans_offered() as f64);
    let recorded = job.recorder.spans_recorded();
    if recorded < job.recorder.spans_offered() {
        // Bounded-loss sampling dropped spans: report the loss instead
        // of silently under-counting.
        metrics.insert("spans_recorded".into(), recorded as f64);
        metrics.insert(
            "span_sample_loss".into(),
            (job.recorder.spans_offered() - recorded) as f64,
        );
    }
    for (stage, hist) in STAGE_METRICS.iter().zip(job.recorder.stage_histograms()) {
        if hist.count() == 0 {
            continue;
        }
        let stem = stage.strip_suffix("_ms").unwrap_or(stage);
        metrics.insert(format!("{stem}_p50_ms"), hist.p50());
        metrics.insert(format!("{stem}_p90_ms"), hist.p90());
        metrics.insert(format!("{stem}_p99_ms"), hist.p99());
        metrics.insert(format!("{stem}_max_ms"), hist.max());
        metrics.insert(format!("{stem}_mean_ms"), hist.mean());
    }
    metrics
}

/// Writes the full trace directory for a traced run: per-job span JSONL
/// and series CSV plus `summary.json`. Returns the directory path.
///
/// # Errors
/// Propagates I/O errors as strings.
pub fn write_trace_reports(
    result: &SweepResult,
    traces: &[JobTrace],
    out_dir: &Path,
) -> Result<PathBuf, String> {
    let dir = trace_dir_for(out_dir, &result.scenario);
    let mut runs = Vec::with_capacity(traces.len());
    for job in traces {
        write_job_trace(&dir, job.point, job.rep, &job.recorder)?;
        runs.push(RunMetrics {
            point: job.point,
            rep: job.rep,
            label: job.label.clone(),
            metrics: job_metrics(job),
        });
    }
    let summary = RunSummary {
        scenario: result.scenario.clone(),
        seed: result.seed,
        replications: result.replications,
        runs,
    };
    summary.write(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_sweep, run_sweep_traced, RunOptions};
    use crate::spec::Scenario;
    use vtrace::{RunSummary, TraceAnalysis, RESPONSE};

    const TINY: &str = r#"
[scenario]
name = "trace_tiny"
replications = 2
seed = 5

[system]
system_class = "page-server"
multiprogramming_level = 2

[database]
classes = 8
objects = 300

[workload]
hot_transactions = 15

[[sweep]]
param = "system.buffer_pages"
values = [32, 128]
"#;

    #[test]
    fn traced_sweep_matches_untraced_and_round_trips() {
        let scenario = Scenario::parse(TINY).unwrap();
        let options = RunOptions {
            threads: Some(2),
            ..RunOptions::default()
        };
        let plain = run_sweep(&scenario, &options).unwrap();
        let (traced, traces) = run_sweep_traced(&scenario, &options).unwrap();

        // Tracing must not change the aggregated result.
        for (a, b) in plain.points.iter().zip(&traced.points) {
            for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
                assert_eq!(ma.name, mb.name);
                assert_eq!(ma.mean.to_bits(), mb.mean.to_bits(), "{}", ma.name);
            }
        }
        assert_eq!(traces.len(), 4, "2 points x 2 reps");
        for job in &traces {
            assert!(job.recorder.spans().len() >= 15);
            assert_eq!(job.recorder.open_spans(), 0);
        }

        // Round-trip through the trace directory.
        let out = std::env::temp_dir().join(format!("voodb-tracing-test-{}", std::process::id()));
        let dir = write_trace_reports(&traced, &traces, &out).unwrap();
        let summary = RunSummary::load(&dir).unwrap();
        assert_eq!(summary.scenario, "trace_tiny");
        assert_eq!(summary.runs.len(), 4);
        let aggregate = summary.aggregate();
        assert!(aggregate["response_p50_ms"] > 0.0);
        assert!(aggregate["ios"] > 0.0);

        let analysis = TraceAnalysis::load(&dir).unwrap();
        assert_eq!(analysis.files, 4);
        let total_spans: usize = traces.iter().map(|j| j.recorder.spans().len()).sum();
        assert_eq!(analysis.spans.len(), total_spans);
        let rendered = analysis.render();
        assert!(rendered.contains(STAGE_METRICS[RESPONSE]), "{rendered}");
        assert!(rendered.contains("p99"), "{rendered}");
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn compare_flags_only_real_regressions() {
        let scenario = Scenario::parse(TINY).unwrap();
        let options = |seed| RunOptions {
            threads: Some(2),
            seed: Some(seed),
            ..RunOptions::default()
        };
        let summarize = |seed| {
            let (result, traces) = run_sweep_traced(&scenario, &options(seed)).unwrap();
            RunSummary {
                scenario: result.scenario.clone(),
                seed: result.seed,
                replications: result.replications,
                runs: traces
                    .iter()
                    .map(|job| RunMetrics {
                        point: job.point,
                        rep: job.rep,
                        label: job.label.clone(),
                        metrics: job_metrics(job),
                    })
                    .collect(),
            }
        };
        let a = summarize(5);
        let b = summarize(6);
        // Identical runs never regress, at any threshold.
        assert_eq!(vtrace::compare(&a, &a, 0.0).regressions, 0);
        // Different seeds wiggle within noise: a generous threshold
        // passes, an impossible one (-epsilon on any change) flags.
        let loose = vtrace::compare(&a, &b, 5.0);
        assert_eq!(
            loose.regressions,
            0,
            "seed noise exceeded 500%:\n{}",
            loose.render()
        );
        assert!(!loose.rows.is_empty());
    }
}
