//! `voodb repro` rejects bad arguments before running anything, naming
//! what it does know.

use std::process::{Command, Output};

fn voodb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_voodb"))
        .args(args)
        .output()
        .expect("voodb runs")
}

#[test]
fn unknown_artifact_fails_naming_the_known_ones() {
    let out = voodb(&["repro", "no_such_artifact"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown artifact 'no_such_artifact'"),
        "{stderr}"
    );
    for artifact in &scenario::ARTIFACTS {
        assert!(stderr.contains(artifact.stem), "{stderr}");
    }
}

#[test]
fn unknown_option_fails_naming_the_known_ones() {
    let out = voodb(&["repro", "--bogus", "1"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option '--bogus'"), "{stderr}");
    for option in ["--reps", "--seed", "--out", "--threads"] {
        assert!(stderr.contains(option), "{stderr}");
    }
}

#[test]
fn missing_or_malformed_values_fail() {
    for (args, message) in [
        (&["repro", "--reps"][..], "missing value for --reps"),
        (
            &["repro", "--reps", "banana"][..],
            "invalid value 'banana' for --reps",
        ),
    ] {
        let out = voodb(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}
