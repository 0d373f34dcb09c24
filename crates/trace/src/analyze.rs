//! Trace-directory analysis and run comparison.
//!
//! `voodb analyze <run-dir>` loads every `*.spans.jsonl` a traced run
//! wrote, rebuilds the per-stage latency histograms from the raw spans
//! (proving the JSONL round-trips), and prints the p50/p90/p99/max
//! table. `voodb compare <a> <b>` diffs two runs' `summary.json`
//! aggregates and flags **regressions**: metrics whose change in the
//! *worse* direction exceeds a relative threshold. Whether bigger is
//! worse depends on the metric ([`direction_of`]): latencies and I/O
//! counts regress upwards, hit ratio and throughput regress downwards,
//! and bookkeeping counts (spans, transactions) never regress.

use crate::export::{spans_from_jsonl, RunSummary};
use crate::hist::Histogram;
use crate::recorder::{stage_of, SpanRecord, STAGE_METRICS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The spans of one trace directory, with rebuilt histograms.
#[derive(Debug, Default)]
pub struct TraceAnalysis {
    /// Span files found (sorted by name).
    pub files: usize,
    /// All spans across the run's jobs.
    pub spans: Vec<SpanRecord>,
    /// Per-stage histograms rebuilt from the spans
    /// ([`STAGE_METRICS`] order when iterated via that constant).
    pub stages: BTreeMap<String, Histogram>,
    /// The run summary, when `summary.json` is present.
    pub summary: Option<RunSummary>,
}

impl TraceAnalysis {
    /// Loads a trace directory: every `*.spans.jsonl` plus the optional
    /// `summary.json`.
    ///
    /// # Errors
    /// Returns I/O and parse errors as strings; a directory without any
    /// span file is an error (wrong path is the common cause).
    pub fn load(dir: &Path) -> Result<Self, String> {
        let mut span_files: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.to_string_lossy().ends_with(".spans.jsonl"))
            .collect();
        span_files.sort();
        if span_files.is_empty() {
            return Err(format!(
                "{}: no *.spans.jsonl files (not a trace directory?)",
                dir.display()
            ));
        }
        let mut analysis = TraceAnalysis {
            files: span_files.len(),
            // Pre-created like TraceRecorder's, so the per-span loop
            // below never allocates keys.
            stages: STAGE_METRICS
                .iter()
                .map(|&metric| (metric.to_owned(), Histogram::new()))
                .collect(),
            ..TraceAnalysis::default()
        };
        for path in &span_files {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let spans = spans_from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            analysis.spans.extend(spans);
        }
        for span in &analysis.spans {
            for (metric, hist) in &mut analysis.stages {
                hist.record(stage_of(span, metric));
            }
        }
        analysis.summary = RunSummary::load(dir).ok();
        Ok(analysis)
    }

    /// Renders the percentile table (one row per stage metric).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(summary) = &self.summary {
            let _ = writeln!(
                out,
                "# {} (seed {}, {} replications) — {} spans from {} trace file{}",
                summary.scenario,
                summary.seed,
                summary.replications,
                self.spans.len(),
                self.files,
                if self.files == 1 { "" } else { "s" },
            );
        } else {
            let _ = writeln!(
                out,
                "# {} spans from {} trace file{}",
                self.spans.len(),
                self.files,
                if self.files == 1 { "" } else { "s" },
            );
        }
        let _ = writeln!(
            out,
            "{:<20} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "metric", "p50", "p90", "p99", "max", "mean"
        );
        for &metric in STAGE_METRICS {
            let Some(hist) = self.stages.get(metric) else {
                continue;
            };
            let _ = writeln!(
                out,
                "{:<20} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                metric,
                hist.p50(),
                hist.p90(),
                hist.p99(),
                hist.max_or_zero(),
                hist.mean()
            );
        }
        if let Some(summary) = &self.summary {
            let aggregate = summary.aggregate();
            let _ = writeln!(out, "\naggregate metrics over {} runs:", summary.runs.len());
            for (name, value) in &aggregate {
                let _ = writeln!(out, "  {name:<28} {value:>14.4}");
            }
        }
        out
    }
}

/// Which direction of change makes a metric *worse*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Growth is a regression (latencies, I/O counts, waits).
    HigherWorse,
    /// Shrinkage is a regression (hit ratio, throughput).
    LowerWorse,
    /// Never flagged (bookkeeping counts).
    Neutral,
}

/// How a [`DirectionRule`] matches a metric name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricPattern {
    /// The whole name equals the pattern.
    Exact(&'static str),
    /// The name ends with the pattern.
    Suffix(&'static str),
    /// The name contains the pattern anywhere. (Used where a trailing
    /// qualifier follows the unit, e.g. `…_events_per_sec_heap`.)
    Contains(&'static str),
}

impl MetricPattern {
    /// Whether `metric` matches this pattern.
    pub fn matches(&self, metric: &str) -> bool {
        match self {
            MetricPattern::Exact(p) => metric == *p,
            MetricPattern::Suffix(p) => metric.ends_with(p),
            MetricPattern::Contains(p) => metric.contains(p),
        }
    }
}

/// One entry of the metric-direction registry.
#[derive(Clone, Copy, Debug)]
pub struct DirectionRule {
    /// Name pattern this rule covers.
    pub pattern: MetricPattern,
    /// Regression direction for matching metrics.
    pub direction: Direction,
}

const fn rule(pattern: MetricPattern, direction: Direction) -> DirectionRule {
    DirectionRule { pattern, direction }
}

/// The one metric-direction registry, in priority order (first match
/// wins): consumed by `voodb compare`, `voodb bench-summary` and the CI
/// perf gate alike, so a metric can never regress in one tool's
/// direction and improve in another's. Latencies and I/O counts regress
/// upwards; hit ratio, throughput and speedups regress downwards;
/// bookkeeping counts are neutral. Unmatched names are
/// [`Direction::Neutral`].
pub const DIRECTION_RULES: &[DirectionRule] = &[
    rule(MetricPattern::Exact("hit_ratio"), Direction::LowerWorse),
    rule(
        MetricPattern::Exact("throughput_tps"),
        Direction::LowerWorse,
    ),
    rule(MetricPattern::Exact("spans"), Direction::Neutral),
    rule(MetricPattern::Exact("transactions"), Direction::Neutral),
    rule(
        MetricPattern::Exact("traced_spans_per_run"),
        Direction::Neutral,
    ),
    rule(MetricPattern::Suffix("_ms"), Direction::HigherWorse),
    // engine_bench measurements (see `RunSummary::from_bench_json`):
    // throughput regresses downwards, overhead and speedup have their
    // natural directions. `Contains`, not `Suffix`: the scheduler
    // variants ("..._events_per_sec_heap"/"_noop") carry a trailing
    // qualifier.
    rule(
        MetricPattern::Contains("_events_per_sec"),
        Direction::LowerWorse,
    ),
    rule(
        MetricPattern::Contains("_tx_per_sec"),
        Direction::LowerWorse,
    ),
    // Simulated population per host second: the event-count-free rate
    // of the million-user phase.
    rule(
        MetricPattern::Contains("_users_per_sec"),
        Direction::LowerWorse,
    ),
    rule(
        MetricPattern::Suffix("_overhead_pct"),
        Direction::HigherWorse,
    ),
    rule(MetricPattern::Suffix("_speedup_x"), Direction::LowerWorse),
    // Streaming-pipeline memory: peak in-flight transaction slots
    // growing means the O(MPL) guarantee is eroding.
    rule(MetricPattern::Suffix("_peak_slots"), Direction::HigherWorse),
    // Process high-water memory (the million-user phase's witness that
    // cohort state stays O(in-flight + cohorts), not O(NUSERS) events).
    rule(
        MetricPattern::Suffix("_peak_rss_mb"),
        Direction::HigherWorse,
    ),
    rule(MetricPattern::Exact("ios"), Direction::HigherWorse),
    rule(MetricPattern::Exact("reads"), Direction::HigherWorse),
    rule(MetricPattern::Exact("writes"), Direction::HigherWorse),
    rule(MetricPattern::Exact("ios_per_tx"), Direction::HigherWorse),
    rule(MetricPattern::Exact("events"), Direction::HigherWorse),
    rule(MetricPattern::Exact("restarts"), Direction::HigherWorse),
];

/// Classifies a metric name for regression checking: the first matching
/// [`DIRECTION_RULES`] entry wins.
pub fn direction_of(metric: &str) -> Direction {
    DIRECTION_RULES
        .iter()
        .find(|rule| rule.pattern.matches(metric))
        .map_or(Direction::Neutral, |rule| rule.direction)
}

/// One metric's comparison between two runs.
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// Metric name.
    pub metric: String,
    /// Baseline value (run A).
    pub a: f64,
    /// Candidate value (run B).
    pub b: f64,
    /// Relative change `(b − a) / |a|` (`±∞` when `a` is 0 and `b`
    /// differs).
    pub delta: f64,
    /// The metric's regression direction.
    pub direction: Direction,
    /// True when the worse-direction change exceeds the threshold.
    pub regressed: bool,
}

/// The outcome of `voodb compare`.
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// Baseline scenario name.
    pub scenario_a: String,
    /// Candidate scenario name.
    pub scenario_b: String,
    /// The relative regression threshold applied.
    pub threshold: f64,
    /// Per-metric rows (metrics present in both runs, name order).
    pub rows: Vec<CompareRow>,
    /// Number of flagged regressions.
    pub regressions: usize,
}

/// Absolute change below which a metric is never flagged, whatever the
/// relative delta (guards `0 → ε` waits).
const ABSOLUTE_FLOOR: f64 = 1e-6;

/// Compares two run summaries' aggregates at a relative `threshold`.
pub fn compare(a: &RunSummary, b: &RunSummary, threshold: f64) -> CompareReport {
    assert!(threshold >= 0.0, "threshold must be non-negative");
    let agg_a = a.aggregate();
    let agg_b = b.aggregate();
    let mut rows = Vec::new();
    let mut regressions = 0;
    for (metric, &va) in &agg_a {
        let Some(&vb) = agg_b.get(metric) else {
            continue;
        };
        let delta = if va == 0.0 {
            if vb == 0.0 {
                0.0
            } else {
                vb.signum() * f64::INFINITY
            }
        } else {
            (vb - va) / va.abs()
        };
        let direction = direction_of(metric);
        let worse = match direction {
            Direction::HigherWorse => delta,
            Direction::LowerWorse => -delta,
            Direction::Neutral => f64::NEG_INFINITY,
        };
        let regressed = worse > threshold && (vb - va).abs() > ABSOLUTE_FLOOR;
        regressions += usize::from(regressed);
        rows.push(CompareRow {
            metric: metric.clone(),
            a: va,
            b: vb,
            delta,
            direction,
            regressed,
        });
    }
    CompareReport {
        scenario_a: a.scenario.clone(),
        scenario_b: b.scenario.clone(),
        threshold,
        rows,
        regressions,
    }
}

impl CompareReport {
    /// Renders the comparison table; regressed rows carry a
    /// `REGRESSION` flag.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# compare: {} (A) vs {} (B), threshold {:.1}%",
            self.scenario_a,
            self.scenario_b,
            self.threshold * 100.0
        );
        let _ = writeln!(
            out,
            "{:<28} {:>14} {:>14} {:>9}  flag",
            "metric", "A", "B", "delta"
        );
        for row in &self.rows {
            let delta = if row.delta.is_finite() {
                format!("{:>+8.1}%", row.delta * 100.0)
            } else {
                format!("{:>9}", "new")
            };
            let _ = writeln!(
                out,
                "{:<28} {:>14.4} {:>14.4} {}  {}",
                row.metric,
                row.a,
                row.b,
                delta,
                if row.regressed { "REGRESSION" } else { "" }
            );
        }
        // The final line is what a CI failure log shows: name the
        // offending metrics and their deltas so the log is actionable
        // without downloading artifacts.
        let offenders: Vec<String> = self
            .rows
            .iter()
            .filter(|r| r.regressed)
            .map(|r| {
                if r.delta.is_finite() {
                    format!("{} {:+.1}%", r.metric, r.delta * 100.0)
                } else {
                    format!("{} (new)", r.metric)
                }
            })
            .collect();
        let _ = writeln!(
            out,
            "\n{} metric{} compared, {} regression{}{}",
            self.rows.len(),
            if self.rows.len() == 1 { "" } else { "s" },
            self.regressions,
            if self.regressions == 1 { "" } else { "s" },
            if offenders.is_empty() {
                String::new()
            } else {
                format!(": {}", offenders.join(", "))
            },
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::RunMetrics;

    fn summary(scenario: &str, metrics: &[(&str, f64)]) -> RunSummary {
        RunSummary {
            scenario: scenario.into(),
            seed: 1,
            replications: 1,
            runs: vec![RunMetrics {
                point: 0,
                rep: 0,
                label: "base".into(),
                metrics: metrics.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            }],
        }
    }

    #[test]
    fn directions_are_sensible() {
        assert_eq!(direction_of("response_p99_ms"), Direction::HigherWorse);
        assert_eq!(direction_of("ios"), Direction::HigherWorse);
        assert_eq!(direction_of("hit_ratio"), Direction::LowerWorse);
        assert_eq!(direction_of("throughput_tps"), Direction::LowerWorse);
        assert_eq!(direction_of("spans"), Direction::Neutral);
    }

    #[test]
    fn regression_flags_only_worse_direction_beyond_threshold() {
        let a = summary(
            "a",
            &[("response_ms", 100.0), ("hit_ratio", 0.9), ("ios", 50.0)],
        );
        let b = summary(
            "b",
            &[("response_ms", 125.0), ("hit_ratio", 0.89), ("ios", 30.0)],
        );
        let report = compare(&a, &b, 0.10);
        let row = |name: &str| report.rows.iter().find(|r| r.metric == name).unwrap();
        assert!(row("response_ms").regressed, "latency +25% regresses");
        assert!(!row("hit_ratio").regressed, "−1.1% is within threshold");
        assert!(!row("ios").regressed, "an improvement never regresses");
        assert_eq!(report.regressions, 1);
    }

    #[test]
    fn improvements_and_identical_runs_pass() {
        let a = summary("a", &[("response_ms", 100.0), ("throughput_tps", 10.0)]);
        let b = summary("b", &[("response_ms", 80.0), ("throughput_tps", 12.0)]);
        assert_eq!(compare(&a, &b, 0.05).regressions, 0);
        assert_eq!(compare(&a, &a, 0.0).regressions, 0);
    }

    #[test]
    fn lower_is_worse_metrics_flag_drops() {
        let a = summary("a", &[("throughput_tps", 10.0)]);
        let b = summary("b", &[("throughput_tps", 7.0)]);
        let report = compare(&a, &b, 0.10);
        assert_eq!(report.regressions, 1);
        assert!(report.render().contains("REGRESSION"));
    }

    #[test]
    fn bench_metric_directions() {
        assert_eq!(
            direction_of("kernel_mm1_events_per_sec"),
            Direction::LowerWorse
        );
        assert_eq!(
            direction_of("kernel_mm1_events_per_sec_heap"),
            Direction::LowerWorse
        );
        assert_eq!(
            direction_of("voodb_model_events_per_sec_noop"),
            Direction::LowerWorse
        );
        assert_eq!(
            direction_of("trace_recorder_overhead_pct"),
            Direction::HigherWorse
        );
        assert_eq!(
            direction_of("kernel_calendar_speedup_x"),
            Direction::LowerWorse
        );
        assert_eq!(
            direction_of("workload_gen_tx_per_sec"),
            Direction::LowerWorse
        );
        assert_eq!(
            direction_of("stream_phase_tx_per_sec"),
            Direction::LowerWorse
        );
        assert_eq!(
            direction_of("stream_slab_peak_slots"),
            Direction::HigherWorse
        );
        assert_eq!(
            direction_of("users_1m_users_per_sec"),
            Direction::LowerWorse
        );
        assert_eq!(direction_of("users_1m_peak_rss_mb"), Direction::HigherWorse);
        assert_eq!(direction_of("traced_spans_per_run"), Direction::Neutral);
    }

    #[test]
    fn registry_covers_every_bench_engine_metric() {
        // Every metric engine_bench emits into BENCH_engine.json, with
        // the direction the CI perf gate relies on. A new bench metric
        // must be added here (and to DIRECTION_RULES if a fresh shape).
        let expected = [
            ("kernel_mm1_events_per_sec", Direction::LowerWorse),
            ("kernel_mm1_events_per_sec_heap", Direction::LowerWorse),
            ("kernel_calendar_speedup_x", Direction::LowerWorse),
            ("voodb_model_events_per_sec_noop", Direction::LowerWorse),
            ("voodb_model_events_per_sec_heap", Direction::LowerWorse),
            ("voodb_model_events_per_sec_traced", Direction::LowerWorse),
            ("trace_recorder_overhead_pct", Direction::HigherWorse),
            ("traced_spans_per_run", Direction::Neutral),
            ("workload_gen_tx_per_sec", Direction::LowerWorse),
            ("stream_phase_tx_per_sec", Direction::LowerWorse),
            ("stream_slab_peak_slots", Direction::HigherWorse),
            ("users_1m_users_per_sec", Direction::LowerWorse),
            ("users_1m_peak_rss_mb", Direction::HigherWorse),
        ];
        for (metric, direction) in expected {
            assert_eq!(direction_of(metric), direction, "{metric}");
            assert!(
                DIRECTION_RULES
                    .iter()
                    .any(|rule| rule.pattern.matches(metric)),
                "{metric} must match a registry rule"
            );
        }
    }

    #[test]
    fn first_matching_rule_wins() {
        // A name matching several rules takes the earliest: the "_ms"
        // suffix rule precedes "_overhead_pct", and exact names precede
        // every pattern rule.
        assert_eq!(direction_of("x_overhead_pct_ms"), Direction::HigherWorse);
        assert_eq!(direction_of("spans"), Direction::Neutral);
        assert_eq!(direction_of("unknown_metric"), Direction::Neutral);
    }

    #[test]
    fn summary_line_names_offending_metrics() {
        let a = summary(
            "a",
            &[("response_ms", 100.0), ("kernel_mm1_events_per_sec", 3e7)],
        );
        let b = summary(
            "b",
            &[("response_ms", 130.0), ("kernel_mm1_events_per_sec", 1e7)],
        );
        let report = compare(&a, &b, 0.10);
        assert_eq!(report.regressions, 2);
        let rendered = report.render();
        let last = rendered.trim_end().lines().last().unwrap();
        assert!(
            last.contains("kernel_mm1_events_per_sec -66.7%"),
            "summary line must carry the metric and delta: {last}"
        );
        assert!(
            last.contains("response_ms +30.0%"),
            "summary line must carry every offender: {last}"
        );
    }

    #[test]
    fn zero_baseline_epsilon_is_not_flagged() {
        let a = summary("a", &[("lock_wait_ms", 0.0)]);
        let b = summary("b", &[("lock_wait_ms", 1e-9)]);
        assert_eq!(compare(&a, &b, 0.10).regressions, 0);
        // A real new wait is flagged.
        let b = summary("b", &[("lock_wait_ms", 2.0)]);
        assert_eq!(compare(&a, &b, 0.10).regressions, 1);
    }
}
