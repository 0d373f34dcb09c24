//! `voodb validate` and `voodb run` refuse a closed population whose
//! initial wakes cannot fit the pre-flight memory bound, before
//! allocating anything: exit 1 with an error naming the estimated bytes.
//! They likewise refuse an open horizon phase expecting more arrivals
//! than the pre-flight bound, before running anything.

use std::path::PathBuf;
use std::process::{Command, Output};

fn voodb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_voodb"))
        .args(args)
        .output()
        .expect("voodb runs")
}

/// A scenario file of 10^11 cohort users (800 GB of wake keys).
fn absurd_population() -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("absurd_population.toml");
    std::fs::write(
        &path,
        "[scenario]\n\
         name = \"absurd_population\"\n\
         \n\
         [workload]\n\
         user_model = \"cohort\"\n\
         users = 100000000000\n\
         think_time_ms = 50.0\n\
         duration_ms = 100.0\n",
    )
    .expect("scenario file written");
    path
}

#[test]
fn validate_and_run_refuse_an_absurd_cohort_population() {
    let path = absurd_population();
    let file = path.to_str().expect("UTF-8 path");
    for command in ["validate", "run"] {
        let out = voodb(&[command, file]);
        assert_eq!(out.status.code(), Some(1), "{command}: {out:?}");
        assert!(out.stdout.is_empty(), "{command}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("closed population of 100000000000 users")
                && stderr.contains("estimated 800000000000 bytes"),
            "{command}: {stderr}"
        );
    }
}

/// A scenario file of Poisson arrivals at 10^9/s over a 100 s horizon
/// (10^11 expected transactions).
fn absurd_arrival_rate() -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("absurd_arrival_rate.toml");
    std::fs::write(
        &path,
        "[scenario]\n\
         name = \"absurd_arrival_rate\"\n\
         \n\
         [workload]\n\
         arrival = \"poisson-1e9\"\n\
         duration_ms = 100000.0\n",
    )
    .expect("scenario file written");
    path
}

#[test]
fn validate_and_run_refuse_an_absurd_open_arrival_rate() {
    let path = absurd_arrival_rate();
    let file = path.to_str().expect("UTF-8 path");
    for command in ["validate", "run"] {
        let out = voodb(&[command, file]);
        assert_eq!(out.status.code(), Some(1), "{command}: {out:?}");
        assert!(out.stdout.is_empty(), "{command}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("100000 ms horizon expect 100000000000 transactions"),
            "{command}: {stderr}"
        );
    }
}
