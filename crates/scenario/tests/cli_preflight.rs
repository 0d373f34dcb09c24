//! `voodb validate` and `voodb run` refuse a closed population whose
//! initial wakes cannot fit the pre-flight memory bound, before
//! allocating anything: exit 1 with an error naming the estimated bytes.
//! They likewise refuse an open horizon phase expecting more arrivals
//! than the pre-flight bound, before running anything, and `run` and
//! `repro` refuse a worker-thread count above the runner's limit before
//! starting a worker. `run` refuses every bad override, and a warm-up on
//! a count-based phase, before it prints its banner. Both refuse the
//! settings that are gone (`[system] prefetch`, `[system] users` and
//! deterministic arrivals), naming the key or the form.

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

#[test]
fn run_and_repro_refuse_a_thread_count_above_the_limit() {
    let smoke = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/smoke.toml");
    for args in [
        &["run", smoke, "--threads", "100000"][..],
        &["repro", "fig08_o2_cache", "--threads", "100000"],
    ] {
        let out = voodb(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("100000 worker threads requested; the limit is 1024"),
            "{args:?}: {stderr}"
        );
    }
}

/// Runs `voodb run scenarios/smoke.toml` with `extra` arguments and
/// checks that it is refused before printing anything: exit 1, empty
/// stdout, and `message` on stderr.
fn assert_run_refused(extra: &[&str], message: &str) {
    let smoke = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/smoke.toml");
    let mut args = vec!["run", smoke];
    args.extend_from_slice(extra);
    let out = voodb(&args);
    assert_eq!(out.status.code(), Some(1), "{extra:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{extra:?}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(message), "{extra:?}: {stderr}");
}

#[test]
fn run_refuses_bad_overrides_before_printing() {
    assert_run_refused(&["--reps", "0"], "replications must be positive");
    assert_run_refused(
        &["--duration", "-5"],
        "duration_ms must be non-negative and finite, got -5",
    );
    // Refused before any worker starts: no thread is spawned.
    assert_run_refused(
        &["--threads", "100000"],
        "100000 worker threads requested; the limit is 1024",
    );
    let sink = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("no-such-directory")
        .join("watch.jsonl");
    let sink = sink.to_str().expect("UTF-8 path");
    assert_run_refused(&["--watch-jsonl", sink], sink);
}

#[test]
fn run_refuses_a_warmup_on_a_count_based_phase() {
    // smoke.toml is count-based (no duration_ms): a warm-up has no
    // window to cut, and the error names both keys.
    assert_run_refused(
        &["--warmup", "1e9"],
        "warmup_ms (1000000000) needs a time horizon: set duration_ms",
    );
}

#[test]
fn validate_and_run_refuse_removed_settings_by_name() {
    for (stem, section, line, name) in [
        (
            "prefetch",
            "system",
            "prefetch = \"none\"",
            "system.prefetch",
        ),
        ("system_users", "system", "users = 8", "system.users"),
        (
            "deterministic",
            "workload",
            "arrival = \"deterministic-5\"",
            "deterministic-5",
        ),
    ] {
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("removed_{stem}.toml"));
        std::fs::write(
            &path,
            format!("[scenario]\nname = \"removed_{stem}\"\n\n[{section}]\n{line}\n"),
        )
        .expect("scenario file written");
        let file = path.to_str().expect("UTF-8 path");
        for command in ["validate", "run"] {
            let out = voodb(&[command, file]);
            assert_eq!(out.status.code(), Some(1), "{command} {line}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(name), "{command} {line}: {stderr}");
        }
    }
    assert_run_refused(&["--arrival", "deterministic-5"], "deterministic-5");
}
