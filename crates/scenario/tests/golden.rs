//! Golden tests over the shipped `scenarios/` library, plus the
//! thread-count determinism guarantee.
//!
//! Every preset must (a) parse and validate as committed, (b) run
//! end-to-end, and (c) reproduce its committed report in `golden/`
//! byte for byte. Full-size presets would take minutes in debug builds,
//! so the run checks use [`Scenario::shrink_for_smoke`] — same axes,
//! same machinery, smaller base/run — while validation covers the files
//! exactly as shipped.

use scenario::{run_sweep, sweep_table, RunOptions, Scenario};
use std::path::PathBuf;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn all_scenarios() -> Vec<(String, Scenario)> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    entries.sort();
    entries
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("scenario readable");
            let scenario =
                Scenario::parse(&text).unwrap_or_else(|e| panic!("{name} failed to parse: {e}"));
            (name, scenario)
        })
        .collect()
}

#[test]
fn library_is_present_and_valid() {
    let scenarios = all_scenarios();
    assert!(
        scenarios.len() >= 8,
        "expected at least 8 presets, found {}",
        scenarios.len()
    );
    let names: Vec<&str> = scenarios.iter().map(|(_, s)| s.name.as_str()).collect();
    for expected in [
        "o2_base_size",
        "o2_cache",
        "texas_base_size",
        "texas_memory",
        "dstc_mid",
        "multiserver_mpl",
        "open_arrival",
        "smoke",
    ] {
        assert!(names.contains(&expected), "missing preset '{expected}'");
    }
    for (file, scenario) in &scenarios {
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("{file} failed validation: {e}"));
        assert!(
            !scenario.description.is_empty(),
            "{file}: description required for `voodb list`"
        );
        // File stem matches the scenario name, so report files are
        // predictable.
        assert_eq!(
            file.trim_end_matches(".toml"),
            scenario.name,
            "{file}: name mismatch"
        );
    }
}

/// `scenario` cut to test size, one replication at its own seed.
fn shrunk_smoke(file: &str, mut scenario: Scenario) -> (Scenario, RunOptions) {
    scenario.shrink_for_smoke(400, 20, 2);
    scenario
        .validate()
        .unwrap_or_else(|e| panic!("{file} invalid after shrink: {e}"));
    let options = RunOptions {
        reps: Some(1),
        ..RunOptions::default()
    };
    (scenario, options)
}

#[test]
fn every_preset_runs_one_replication_deterministically() {
    for (file, scenario) in all_scenarios() {
        let (shrunk, options) = shrunk_smoke(&file, scenario);
        let a = run_sweep(&shrunk, &options).unwrap_or_else(|e| panic!("{file} run failed: {e}"));
        assert_eq!(a.points.len(), shrunk.grid().len(), "{file}: grid size");
        for point in &a.points {
            let ios = point
                .metrics
                .iter()
                .find(|m| m.name == "ios")
                .unwrap_or_else(|| panic!("{file}: ios metric missing"));
            assert!(
                ios.mean > 0.0,
                "{file} point '{}': no I/O measured",
                point.label
            );
            assert_eq!(ios.n, 1, "{file}: one replication requested");
        }
        // Deterministic: the same run again yields byte-identical CSV.
        let b = run_sweep(&shrunk, &options).unwrap();
        assert_eq!(
            sweep_table(&a).to_csv(),
            sweep_table(&b).to_csv(),
            "{file}: re-run differs"
        );
    }
}

#[test]
fn sweep_is_thread_count_invariant() {
    // The acceptance guarantee: identical output at --threads 1 vs
    // --threads 8 with the same seed. Run on the shrunken
    // multiserver_mpl preset (2-axis closed workload), open_arrival
    // (2-axis open workload over a time-horizon phase) and smoke.
    for name in ["multiserver_mpl.toml", "open_arrival.toml", "smoke.toml"] {
        let path = scenarios_dir().join(name);
        let text = std::fs::read_to_string(&path).expect("scenario readable");
        let mut scenario = Scenario::parse(&text).unwrap();
        scenario.shrink_for_smoke(400, 15, 2);
        let run = |threads: usize| {
            let result = run_sweep(
                &scenario,
                &RunOptions {
                    threads: Some(threads),
                    reps: Some(2),
                    seed: Some(7),
                    ..RunOptions::default()
                },
            )
            .unwrap();
            (
                sweep_table(&result).to_csv(),
                sweep_table(&result).to_json(),
            )
        };
        let (csv1, json1) = run(1);
        let (csv8, json8) = run(8);
        assert_eq!(csv1, csv8, "{name}: CSV differs between 1 and 8 threads");
        assert_eq!(json1, json8, "{name}: JSON differs between 1 and 8 threads");
    }
}

/// The committed reports: a change to how the model dispatches events
/// (not what it simulates) must leave every preset's CSV untouched, in
/// debug and release builds alike. When a change is meant to move the
/// results, regenerate the files from the new output and review the
/// diff.
#[test]
fn every_preset_matches_its_committed_csv() {
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let scenarios = all_scenarios();
    for (file, scenario) in &scenarios {
        let (shrunk, options) = shrunk_smoke(file, scenario.clone());
        let result = run_sweep(&shrunk, &options).unwrap_or_else(|e| panic!("{file}: {e}"));
        let path = golden_dir.join(file.replace(".toml", ".csv"));
        let golden =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            sweep_table(&result).to_csv(),
            golden,
            "{file}: report differs from {}",
            path.display()
        );
    }
    let goldens = std::fs::read_dir(&golden_dir)
        .expect("golden/ directory exists")
        .count();
    assert_eq!(goldens, scenarios.len(), "one golden CSV per preset");
}
