//! Golden test of a trace directory: a traced run of the shrunk
//! `trace_demo` preset must write the committed files byte for byte, on
//! one worker and on two, and `voodb analyze` must render that directory
//! as the committed table. Its series include every resource queue
//! (`queue:cpu`, `queue:disk-0`, `queue:network`, `queue:scheduler`)
//! and `pending_events`, so the kernel's probe hooks are pinned along
//! with the recorder's formats and the analysis rebuilt from them.
//!
//! The span JSONL and series CSV files are too large to commit (~80 KB),
//! so `tests/trace_golden/` holds `summary.json` verbatim, `fnv64.txt`,
//! one FNV-1a hash per file of the directory, and `analyze.txt`, the
//! `voodb analyze` text. When a change is meant to move the trace, the
//! failing test leaves the new directory under the system temporary
//! directory (and prints the analysis): review it, then copy its
//! `summary.json`, the printed hash list and the printed analysis over
//! the golden files.
//!
//! A second run samples the span reservoir (`voodb run --trace-sample`)
//! and checks what the sampling promises: the span files report the loss
//! that `summary.json` reports, and the percentile columns are those of
//! the unsampled run, because histograms see every span.

mod support;

use scenario::{
    run_sweep_traced, run_sweep_traced_with, write_trace_reports, RunOptions, Scenario,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use vtrace::{job_stem, RecorderConfig, RunSummary, TraceAnalysis};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The files of a trace directory, sorted by name, with their bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

/// The shrunk `trace_demo`: 400 objects, 20 transactions, both MPL
/// points.
fn shrunk_trace_demo() -> Scenario {
    let mut scenario = support::preset("trace_demo.toml");
    support::shrink_for_smoke(&mut scenario, 400, 20, 2);
    scenario
}

/// One replication per point on `threads` workers.
fn one_rep(threads: usize) -> RunOptions {
    RunOptions {
        threads: Some(threads),
        reps: Some(1),
        ..RunOptions::default()
    }
}

/// A fresh output directory under the system temporary directory.
fn temp_out(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("voodb-trace-golden-{}-{tag}", std::process::id()))
}

#[test]
fn trace_demo_writes_its_golden_trace_directory() {
    let scenario = shrunk_trace_demo();
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/trace_golden");
    let read = |name: &str| {
        let path = golden_dir.join(name);
        std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let (golden_summary, golden_hashes, golden_analysis) =
        (read("summary.json"), read("fnv64.txt"), read("analyze.txt"));
    for threads in [1, 2] {
        let (result, traces) = run_sweep_traced(&scenario, &one_rep(threads)).expect("traced run");
        let out = temp_out(&format!("t{threads}"));
        let dir = write_trace_reports(&result, &traces, &out).expect("trace directory written");
        let written = files(&dir);
        let hashes: String = written
            .iter()
            .map(|(name, bytes)| format!("{:016x}  {name}\n", fnv1a(bytes)))
            .collect();
        assert!(
            hashes.as_bytes() == golden_hashes,
            "{threads} thread(s): the trace directory {} differs from the golden; its hashes:\n{hashes}",
            dir.display()
        );
        let summary = &written.iter().find(|(name, _)| name == "summary.json");
        assert!(
            summary.is_some_and(|(_, bytes)| *bytes == golden_summary),
            "{threads} thread(s): summary.json differs from the golden"
        );
        for name in [
            "pending_events",
            "queue:cpu",
            "queue:disk-0",
            "queue:network",
            "queue:scheduler",
        ] {
            let prefix = format!("{name},");
            let sampled = written.iter().any(|(file, bytes)| {
                file.ends_with(".series.csv")
                    && String::from_utf8_lossy(bytes)
                        .lines()
                        .any(|line| line.starts_with(&prefix))
            });
            assert!(sampled, "no {name} samples in the trace");
        }
        let analysis = TraceAnalysis::load(&dir).expect("analyze loads").render();
        assert!(
            analysis.as_bytes() == golden_analysis,
            "{threads} thread(s): `voodb analyze` differs from the golden; it printed:\n{analysis}"
        );
        std::fs::remove_dir_all(&out).ok();
    }
}

/// `spans_offered − spans_recorded` of a span file's header record.
fn header_loss(spans_jsonl: &str) -> f64 {
    let header = vtrace::json::parse(spans_jsonl.lines().next().expect("header line"))
        .expect("header parses");
    let count = |key: &str| {
        header
            .get(key)
            .and_then(vtrace::Json::as_f64)
            .unwrap_or_else(|| panic!("header lacks {key}"))
    };
    count("spans_offered") - count("spans_recorded")
}

/// The `*_{p50,p90,p99,max,mean}_ms` columns of one summary run.
fn percentile_columns(metrics: &BTreeMap<String, f64>) -> BTreeMap<&str, f64> {
    metrics
        .iter()
        .filter(|(name, _)| {
            ["_p50_ms", "_p90_ms", "_p99_ms", "_max_ms", "_mean_ms"]
                .iter()
                .any(|suffix| name.ends_with(suffix))
        })
        .map(|(name, &value)| (name.as_str(), value))
        .collect()
}

#[test]
fn sampled_trace_reports_its_loss_and_keeps_exact_percentiles() {
    const RESERVOIR: usize = 5;
    let scenario = shrunk_trace_demo();
    let write = |tag: &str, config: &RecorderConfig| {
        let (result, traces) =
            run_sweep_traced_with(&scenario, &one_rep(2), config).expect("traced run");
        let out = temp_out(tag);
        let dir = write_trace_reports(&result, &traces, &out).expect("trace directory written");
        (out, dir)
    };
    let (full_out, full_dir) = write("full", &RecorderConfig::new());
    let (sampled_out, sampled_dir) = write("sampled", &RecorderConfig::new().sample(RESERVOIR));
    let full = RunSummary::load(&full_dir).expect("full summary");
    let sampled = RunSummary::load(&sampled_dir).expect("sampled summary");
    assert_eq!(sampled.runs.len(), full.runs.len());
    for (run, full_run) in sampled.runs.iter().zip(&full.runs) {
        let path = sampled_dir.join(format!("{}.spans.jsonl", job_stem(run.point, run.rep)));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let loss = header_loss(&text);
        assert!(
            loss > 0.0,
            "{}: the reservoir dropped no span",
            path.display()
        );
        assert_eq!(
            Some(&loss),
            run.metrics.get("span_sample_loss"),
            "{}: the header's loss is not the summary's",
            path.display()
        );
        assert_eq!(
            text.lines().count() - 1,
            RESERVOIR,
            "{}: one header plus the reservoir",
            path.display()
        );
        let columns = percentile_columns(&run.metrics);
        assert!(!columns.is_empty(), "no percentile columns");
        assert_eq!(
            columns,
            percentile_columns(&full_run.metrics),
            "point {} rep {}: sampling moved a percentile column",
            run.point,
            run.rep
        );
    }
    let analysis = TraceAnalysis::load(&sampled_dir).expect("analyze loads the sampled trace");
    assert_eq!(analysis.spans.len(), RESERVOIR * sampled.runs.len());
    std::fs::remove_dir_all(&full_out).ok();
    std::fs::remove_dir_all(&sampled_out).ok();
}
