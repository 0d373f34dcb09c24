//! Golden test of a trace directory: a traced run of the shrunk
//! `trace_demo` preset must write the committed files byte for byte, on
//! one worker and on two. Its series include every resource queue
//! (`queue:cpu`, `queue:disk-0`, `queue:network`, `queue:scheduler`)
//! and `pending_events`, so the kernel's probe hooks are pinned along
//! with the recorder's formats.
//!
//! The span JSONL and series CSV files are too large to commit (~80 KB),
//! so `tests/trace_golden/` holds `summary.json` verbatim and
//! `fnv64.txt`, one FNV-1a hash per file of the directory. When a change
//! is meant to move the trace, the failing test leaves the new directory
//! under the system temporary directory: review it, then copy its
//! `summary.json` and the printed hash list over the golden files.

mod support;

use scenario::{run_sweep_traced, write_trace_reports, RunOptions};
use std::path::{Path, PathBuf};

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

#[test]
fn trace_demo_writes_its_golden_trace_directory() {
    let mut scenario = support::preset("trace_demo.toml");
    support::shrink_for_smoke(&mut scenario, 400, 20, 2);
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/trace_golden");
    let read = |name: &str| {
        let path = golden_dir.join(name);
        std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let (golden_summary, golden_hashes) = (read("summary.json"), read("fnv64.txt"));
    for threads in [1, 2] {
        let options = RunOptions {
            threads: Some(threads),
            reps: Some(1),
            ..RunOptions::default()
        };
        let (result, traces) = run_sweep_traced(&scenario, &options).expect("traced run");
        let out = std::env::temp_dir().join(format!(
            "voodb-trace-golden-{}-t{threads}",
            std::process::id()
        ));
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
        std::fs::remove_dir_all(&out).ok();
    }
}
