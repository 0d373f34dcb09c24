//! The live-watch path end to end: `voodb run --watch-jsonl` streams
//! well-formed samples. Every line is a JSON object whose `job`,
//! `t_ms`, `throughput_tps`, `p99_ms`, `mpl_queue` and `hit_ratio` are
//! finite numbers, simulated time never goes backwards within a job,
//! and the stream is not empty.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use vtrace::Json;

#[test]
fn watch_jsonl_stream_is_well_formed() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_watch");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("scratch directory");
    let stream = tmp.join("watch.jsonl");
    let smoke = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/smoke.toml");
    // 5 s of simulated time at a 250 ms interval guarantees samples (the
    // scenario's default horizon is too short to emit any).
    let out = Command::new(env!("CARGO_BIN_EXE_voodb"))
        .args([
            "run",
            smoke,
            "--reps",
            "1",
            "--duration",
            "5000",
            "--watch-jsonl",
            stream.to_str().expect("UTF-8 path"),
            "--watch-interval",
            "250",
            "--out",
            tmp.join("out").to_str().expect("UTF-8 path"),
        ])
        .output()
        .expect("voodb runs");
    assert!(out.status.success(), "{out:?}");

    let text = std::fs::read_to_string(&stream).expect("watch stream written");
    let mut last_t: BTreeMap<u64, f64> = BTreeMap::new();
    let mut samples = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let doc = vtrace::json::parse(line)
            .unwrap_or_else(|e| panic!("line {lineno} is not JSON ({e}): {line}"));
        let field = |key: &str| -> f64 {
            let value = doc
                .get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("line {lineno}: no numeric '{key}': {line}"));
            assert!(
                value.is_finite(),
                "line {lineno}: non-finite '{key}': {line}"
            );
            value
        };
        for key in ["throughput_tps", "p99_ms", "mpl_queue", "hit_ratio"] {
            field(key);
        }
        let (job, t_ms) = (field("job") as u64, field("t_ms"));
        if let Some(&prev) = last_t.get(&job) {
            assert!(
                t_ms >= prev,
                "line {lineno}: job {job} went backwards in simulated time ({prev} -> {t_ms})"
            );
        }
        last_t.insert(job, t_ms);
        samples += 1;
    }
    assert!(samples > 0, "no watch samples in {}", stream.display());
}

/// Two runs at one seed write byte-identical watch streams, on the
/// terminal and in the JSONL file, in (job, simulated time) order
/// however their parallel jobs interleave.
#[test]
fn watch_streams_repeat_byte_for_byte() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_watch_repeat");
    let _ = std::fs::remove_dir_all(&tmp);
    let smoke = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/smoke.toml");
    let run = |name: &str| -> (String, String) {
        let dir = tmp.join(name);
        std::fs::create_dir_all(&dir).expect("run directory");
        // Relative output paths, so both runs print the same lines.
        let out = Command::new(env!("CARGO_BIN_EXE_voodb"))
            .current_dir(&dir)
            .args([
                "run",
                smoke,
                "--reps",
                "1",
                "--duration",
                "5000",
                "--watch-interval",
                "250",
                "--watch",
                "--watch-jsonl",
                "watch.jsonl",
                "--out",
                "out",
            ])
            .output()
            .expect("voodb runs");
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
        let stream = std::fs::read_to_string(dir.join("watch.jsonl")).expect("watch stream");
        (stdout, stream)
    };
    let (first, second) = (run("first"), run("second"));
    assert_eq!(first.0, second.0, "--watch stdout differs between runs");
    assert_eq!(first.1, second.1, "--watch-jsonl differs between runs");

    let jobs: Vec<u64> = first
        .1
        .lines()
        .map(|line| {
            let doc = vtrace::json::parse(line).expect("JSON line");
            doc.get("job").and_then(Json::as_f64).expect("numeric job") as u64
        })
        .collect();
    assert!(jobs.is_sorted(), "jobs out of order: {jobs:?}");
    assert!(jobs.first() != jobs.last(), "one job only: {jobs:?}");
}
