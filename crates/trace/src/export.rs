//! Trace artifact formats: span JSONL, series CSV, and the run summary.
//!
//! One traced scenario run produces a **trace directory** holding:
//!
//! * `point-<p>-rep-<r>.spans.jsonl` — one flat JSON object per
//!   committed transaction ([`SpanRecord`] fields, fixed key order);
//! * `point-<p>-rep-<r>.series.csv` — `series,t_ms,value` rows of every
//!   retained time-series sample;
//! * `summary.json` — a [`RunSummary`]: per-(point, replication) scalar
//!   metrics (I/Os, response percentiles, hit ratio, events, …) plus
//!   their aggregate, the unit `voodb compare` diffs.
//!
//! Writers and readers live together so the schema cannot drift: the
//! `voodb analyze` path re-reads the JSONL this module wrote and
//! rebuilds the histograms from it (round-trip asserted in tests).
//!
//! # Schema versioning
//!
//! Both formats carry [`SCHEMA_VERSION`] since v2: `summary.json` as a
//! leading `"schema_version"` member, span JSONL as a header record
//! (`{"schema_version":2,"spans_offered":…,"spans_recorded":…}` — the
//! header also reports the sampling loss). Readers
//! accept v1 documents (no version marker) and v2, and error cleanly on
//! anything newer, so old traces stay comparable and unknown futures
//! fail loudly instead of misparsing.

use crate::json::{parse, write_json_string, Json};
use crate::recorder::{SpanRecord, TraceRecorder};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Version of the trace-directory formats this build writes.
pub const SCHEMA_VERSION: u32 = 2;

/// Validates a document's `"schema_version"` member: absent (v1) and
/// anything up to [`SCHEMA_VERSION`] pass; newer versions error.
fn check_schema_version(doc: &Json, what: &str) -> Result<(), String> {
    match doc.get("schema_version") {
        None => Ok(()), // v1 wrote no marker
        Some(v) => match v.as_f64() {
            Some(n) if n >= 1.0 && n <= SCHEMA_VERSION as f64 => Ok(()),
            Some(n) => Err(format!(
                "{what}: unsupported schema_version {n} (this build reads up to {SCHEMA_VERSION})"
            )),
            None => Err(format!("{what}: 'schema_version' is not a number")),
        },
    }
}

/// The `SpanRecord` JSONL fields, in line order.
const SPAN_FIELDS: &[&str] = &[
    "tid",
    "submit_ms",
    "end_ms",
    "response_ms",
    "admission_wait_ms",
    "lock_wait_ms",
    "cpu_ms",
    "disk_wait_ms",
    "disk_service_ms",
    "net_wait_ms",
    "net_service_ms",
    "accesses",
    "restarts",
];

fn span_field(span: &SpanRecord, field: &str) -> f64 {
    match field {
        "tid" => span.tid as f64,
        "submit_ms" => span.submit_ms,
        "end_ms" => span.end_ms,
        "response_ms" => span.response_ms,
        "admission_wait_ms" => span.admission_wait_ms,
        "lock_wait_ms" => span.lock_wait_ms,
        "cpu_ms" => span.cpu_ms,
        "disk_wait_ms" => span.disk_wait_ms,
        "disk_service_ms" => span.disk_service_ms,
        "net_wait_ms" => span.net_wait_ms,
        "net_service_ms" => span.net_service_ms,
        "accesses" => span.accesses as f64,
        "restarts" => span.restarts as f64,
        other => panic!("unknown span field '{other}'"),
    }
}

fn span_field_mut(span: &mut SpanRecord, field: &str, value: f64) {
    match field {
        "tid" => span.tid = value as u64,
        "submit_ms" => span.submit_ms = value,
        "end_ms" => span.end_ms = value,
        "response_ms" => span.response_ms = value,
        "admission_wait_ms" => span.admission_wait_ms = value,
        "lock_wait_ms" => span.lock_wait_ms = value,
        "cpu_ms" => span.cpu_ms = value,
        "disk_wait_ms" => span.disk_wait_ms = value,
        "disk_service_ms" => span.disk_service_ms = value,
        "net_wait_ms" => span.net_wait_ms = value,
        "net_service_ms" => span.net_service_ms = value,
        "accesses" => span.accesses = value as u64,
        "restarts" => span.restarts = value as u64,
        _ => {} // Unknown fields are ignored: forward compatibility.
    }
}

/// Renders spans as JSONL (one flat object per line, trailing newline).
pub fn spans_to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for span in spans {
        for (i, &field) in SPAN_FIELDS.iter().enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            write_json_string(&mut out, field);
            let _ = write!(out, ":{}", span_field(span, field));
        }
        out.push_str("}\n");
    }
    out
}

/// The v2 span-file header record, carrying the schema version and the
/// sampling accounting (`spans_offered` − `spans_recorded` is the
/// reported reservoir loss; zero without sampling).
pub fn trace_header_jsonl(recorder: &TraceRecorder) -> String {
    format!(
        "{{\"schema_version\":{},\"spans_offered\":{},\"spans_recorded\":{}}}\n",
        SCHEMA_VERSION,
        recorder.spans_offered(),
        recorder.spans_recorded()
    )
}

/// Parses a JSONL span file back into records. Blank lines are skipped;
/// unknown fields are ignored. A line containing `"schema_version"` is
/// a header record (v2+), validated and skipped; v1 files (no header)
/// parse unchanged.
///
/// # Errors
/// Returns the first malformed line's number and parse error, or an
/// unsupported-version error from the header.
pub fn spans_from_jsonl(text: &str) -> Result<Vec<SpanRecord>, String> {
    let mut spans = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let Json::Obj(members) = value else {
            return Err(format!("line {}: expected a JSON object", lineno + 1));
        };
        if members.iter().any(|(key, _)| key == "schema_version") {
            check_schema_version(&Json::Obj(members), "spans jsonl")
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            continue;
        }
        let mut span = SpanRecord::default();
        for (key, value) in &members {
            let number = value
                .as_f64()
                .ok_or_else(|| format!("line {}: '{key}' is not a number", lineno + 1))?;
            span_field_mut(&mut span, key, number);
        }
        spans.push(span);
    }
    Ok(spans)
}

/// Renders a recorder's time series as CSV (`series,t_ms,value`),
/// series in name order, samples in time order.
pub fn series_to_csv(recorder: &TraceRecorder) -> String {
    let mut out = String::from("series,t_ms,value\n");
    for (name, series) in recorder.series_sorted() {
        for &(t, v) in series.samples() {
            let _ = writeln!(out, "{name},{t},{v}");
        }
    }
    out
}

/// Scalar metrics of one traced (point, replication) job.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Sweep-point index within the run.
    pub point: usize,
    /// Replication index within the point.
    pub rep: usize,
    /// Human label of the sweep point.
    pub label: String,
    /// Metric name → value (scalars and percentile columns alike).
    pub metrics: BTreeMap<String, f64>,
}

/// The `summary.json` of one traced run: every job's scalar metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSummary {
    /// Scenario name.
    pub scenario: String,
    /// Base seed of the run.
    pub seed: u64,
    /// Replications per point.
    pub replications: usize,
    /// One entry per traced job, in (point, rep) order.
    pub runs: Vec<RunMetrics>,
}

/// File name of the run summary inside a trace directory.
pub const SUMMARY_FILE: &str = "summary.json";

impl RunSummary {
    /// Mean of every metric over all runs — the unit `voodb compare`
    /// diffs. Metrics missing from some runs average over the runs that
    /// have them.
    pub fn aggregate(&self) -> BTreeMap<String, f64> {
        let mut sums: BTreeMap<String, (f64, u64)> = BTreeMap::new();
        for run in &self.runs {
            for (name, value) in &run.metrics {
                let slot = sums.entry(name.clone()).or_insert((0.0, 0));
                slot.0 += value;
                slot.1 += 1;
            }
        }
        sums.into_iter()
            .map(|(name, (sum, n))| (name, sum / n as f64))
            .collect()
    }

    /// Serializes to the `summary.json` document.
    pub fn to_json(&self) -> Json {
        let runs = self
            .runs
            .iter()
            .map(|run| {
                Json::Obj(vec![
                    ("point".into(), Json::Num(run.point as f64)),
                    ("rep".into(), Json::Num(run.rep as f64)),
                    ("label".into(), Json::Str(run.label.clone())),
                    (
                        "metrics".into(),
                        Json::Obj(
                            run.metrics
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let aggregate = self
            .aggregate()
            .into_iter()
            .map(|(k, v)| (k, Json::Num(v)))
            .collect();
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Num(f64::from(SCHEMA_VERSION)),
            ),
            ("scenario".into(), Json::Str(self.scenario.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("replications".into(), Json::Num(self.replications as f64)),
            ("runs".into(), Json::Arr(runs)),
            ("aggregate".into(), Json::Obj(aggregate)),
        ])
    }

    /// Parses a `summary.json` document — v1 (no `schema_version`
    /// member) or v2; newer versions error cleanly.
    ///
    /// # Errors
    /// Returns a message naming the malformed member.
    pub fn from_json_text(text: &str) -> Result<Self, String> {
        let doc = parse(text)?;
        check_schema_version(&doc, "summary")?;
        let scenario = doc
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or("summary: 'scenario' missing")?
            .to_owned();
        let seed = doc
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or("summary: 'seed' missing")? as u64;
        let replications = doc
            .get("replications")
            .and_then(Json::as_f64)
            .ok_or("summary: 'replications' missing")? as usize;
        let mut runs = Vec::new();
        for run in doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("summary: 'runs' missing")?
        {
            let mut metrics = BTreeMap::new();
            if let Some(Json::Obj(members)) = run.get("metrics") {
                for (key, value) in members {
                    let number = value
                        .as_f64()
                        .ok_or_else(|| format!("summary: metric '{key}' is not a number"))?;
                    metrics.insert(key.clone(), number);
                }
            }
            runs.push(RunMetrics {
                point: run.get("point").and_then(Json::as_f64).unwrap_or(0.0) as usize,
                rep: run.get("rep").and_then(Json::as_f64).unwrap_or(0.0) as usize,
                label: run
                    .get("label")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned(),
                metrics,
            });
        }
        Ok(RunSummary {
            scenario,
            seed,
            replications,
            runs,
        })
    }

    /// Writes `<dir>/summary.json`, creating the directory as needed.
    ///
    /// # Errors
    /// Propagates I/O errors as strings.
    pub fn write(&self, dir: &Path) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(SUMMARY_FILE);
        std::fs::write(&path, self.to_json().to_string_compact() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Loads `<dir>/summary.json`.
    ///
    /// # Errors
    /// Returns I/O or parse errors as strings.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let path = dir.join(SUMMARY_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::from_json_text(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// File stem of one traced job inside a trace directory.
pub fn job_stem(point: usize, rep: usize) -> String {
    format!("point-{point:03}-rep-{rep:02}")
}

/// Writes a job's span JSONL and series CSV into `dir`. Returns the
/// JSONL path.
///
/// # Errors
/// Propagates I/O errors as strings.
pub fn write_job_trace(
    dir: &Path,
    point: usize,
    rep: usize,
    recorder: &TraceRecorder,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = job_stem(point, rep);
    let spans_path = dir.join(format!("{stem}.spans.jsonl"));
    let spans_text = trace_header_jsonl(recorder) + &spans_to_jsonl(recorder.spans());
    std::fs::write(&spans_path, spans_text)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    let series_path = dir.join(format!("{stem}.series.csv"));
    std::fs::write(&series_path, series_to_csv(recorder))
        .map_err(|e| format!("writing {}: {e}", series_path.display()))?;
    Ok(spans_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RecorderConfig;
    use crate::recorder::TraceRecorder;
    use desp::{Probe, SpanPoint, SpanStage};

    fn demo_recorder() -> TraceRecorder {
        let mut r = RecorderConfig::new().build();
        let hit = r.intern_series("hit_ratio");
        for tid in 0..3u64 {
            let base = tid as f64 * 10.0;
            let slot = tid as u32;
            r.on_span(slot, tid, SpanPoint::Submit, base);
            r.on_span(slot, tid, SpanPoint::Admitted, base + 1.0);
            r.on_span_stage(slot, tid, SpanStage::DiskWait, 1.0);
            r.on_span_stage(slot, tid, SpanStage::DiskService, 5.0);
            r.on_span_stage(slot, tid, SpanStage::Accesses, 1.0);
            r.on_span(slot, tid, SpanPoint::Committed, base + 8.0);
        }
        r.on_sample(hit, 5.0, 0.5);
        r.on_sample(hit, 15.0, 0.75);
        r.flush();
        r
    }

    #[test]
    fn spans_round_trip_through_jsonl() {
        let recorder = demo_recorder();
        let text = spans_to_jsonl(recorder.spans());
        assert_eq!(text.lines().count(), 3);
        let parsed = spans_from_jsonl(&text).unwrap();
        assert_eq!(parsed, recorder.spans());
        // With the v2 header prepended the spans still round-trip.
        let with_header = trace_header_jsonl(&recorder) + &text;
        assert_eq!(spans_from_jsonl(&with_header).unwrap(), recorder.spans());
    }

    #[test]
    fn span_header_reports_sampling_loss() {
        let recorder = demo_recorder();
        assert_eq!(
            trace_header_jsonl(&recorder),
            "{\"schema_version\":2,\"spans_offered\":3,\"spans_recorded\":3}\n"
        );
    }

    #[test]
    fn unknown_schema_versions_error_cleanly() {
        let err = spans_from_jsonl("{\"schema_version\":3}\n").unwrap_err();
        assert!(err.contains("unsupported schema_version 3"), "{err}");
        let err = RunSummary::from_json_text(
            r#"{"schema_version":99,"scenario":"x","seed":0,"replications":1,"runs":[]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unsupported schema_version 99"), "{err}");
    }

    #[test]
    fn golden_v1_summary_still_parses() {
        // Pinned v1 shape: no schema_version member.
        let v1 = r#"{"scenario":"demo","seed":7,"replications":1,"runs":[{"point":0,"rep":0,"label":"base","metrics":{"ios":100}}],"aggregate":{"ios":100}}"#;
        let summary = RunSummary::from_json_text(v1).unwrap();
        assert_eq!(summary.scenario, "demo");
        assert_eq!(summary.runs[0].metrics["ios"], 100.0);
        // Pinned v1 span file: records only, no header line.
        let spans = spans_from_jsonl("{\"tid\":4,\"response_ms\":2.5}\n").unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].tid, 4);
    }

    #[test]
    fn golden_v2_summary_shape_is_pinned() {
        let summary = RunSummary {
            scenario: "demo".into(),
            seed: 7,
            replications: 1,
            runs: vec![RunMetrics {
                point: 0,
                rep: 0,
                label: "base".into(),
                metrics: [("ios".to_owned(), 100.0)].into_iter().collect(),
            }],
        };
        let text = summary.to_json().to_string_compact();
        assert_eq!(
            text,
            r#"{"schema_version":2,"scenario":"demo","seed":7,"replications":1,"runs":[{"point":0,"rep":0,"label":"base","metrics":{"ios":100}}],"aggregate":{"ios":100}}"#
        );
        assert_eq!(RunSummary::from_json_text(&text).unwrap(), summary);
    }

    #[test]
    fn series_csv_has_header_and_rows() {
        let csv = series_to_csv(&demo_recorder());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,t_ms,value");
        assert!(lines.iter().any(|l| l.starts_with("hit_ratio,5,")));
    }

    #[test]
    fn summary_round_trips_and_aggregates() {
        let summary = RunSummary {
            scenario: "demo".into(),
            seed: 7,
            replications: 2,
            runs: vec![
                RunMetrics {
                    point: 0,
                    rep: 0,
                    label: "base".into(),
                    metrics: [
                        ("ios".to_owned(), 100.0),
                        ("response_p50_ms".to_owned(), 8.0),
                    ]
                    .into_iter()
                    .collect(),
                },
                RunMetrics {
                    point: 0,
                    rep: 1,
                    label: "base".into(),
                    metrics: [
                        ("ios".to_owned(), 120.0),
                        ("response_p50_ms".to_owned(), 10.0),
                    ]
                    .into_iter()
                    .collect(),
                },
            ],
        };
        let text = summary.to_json().to_string_compact();
        let parsed = RunSummary::from_json_text(&text).unwrap();
        assert_eq!(parsed, summary);
        let aggregate = parsed.aggregate();
        assert_eq!(aggregate["ios"], 110.0);
        assert_eq!(aggregate["response_p50_ms"], 9.0);
    }

    #[test]
    fn write_job_trace_produces_both_files() {
        let dir = std::env::temp_dir().join(format!("voodb-trace-test-{}", std::process::id()));
        let recorder = demo_recorder();
        let spans_path = write_job_trace(&dir, 1, 0, &recorder).unwrap();
        assert!(spans_path.ends_with("point-001-rep-00.spans.jsonl"));
        assert!(dir.join("point-001-rep-00.series.csv").exists());
        let text = std::fs::read_to_string(&spans_path).unwrap();
        assert_eq!(spans_from_jsonl(&text).unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
