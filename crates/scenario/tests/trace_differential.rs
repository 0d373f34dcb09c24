//! Telemetry differential: recording must observe, never perturb. Over
//! the full smoke scenario, traced sweep results are bit-identical to
//! the untraced run, and every traced job closes all of its spans.

use scenario::{run_sweep, run_sweep_traced, RunOptions, Scenario, SweepResult};
use std::path::PathBuf;

fn smoke() -> Scenario {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/smoke.toml");
    let text = std::fs::read_to_string(&path).expect("smoke scenario readable");
    Scenario::parse(&text).expect("smoke scenario valid")
}

fn options() -> RunOptions {
    RunOptions {
        threads: Some(2),
        reps: Some(2),
        seed: Some(42),
        ..RunOptions::default()
    }
}

fn assert_results_identical(a: &SweepResult, b: &SweepResult, what: &str) {
    assert_eq!(a.points.len(), b.points.len(), "{what}");
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.label, pb.label, "{what}");
        for (ma, mb) in pa.metrics.iter().zip(&pb.metrics) {
            assert_eq!(ma.name, mb.name, "{what}");
            assert_eq!(
                ma.mean.to_bits(),
                mb.mean.to_bits(),
                "{what}: {} / {}: {} vs {}",
                pa.label,
                ma.name,
                ma.mean,
                mb.mean
            );
            assert_eq!(
                ma.half_width.to_bits(),
                mb.half_width.to_bits(),
                "{what}: {} / {} (half-width)",
                pa.label,
                ma.name
            );
        }
    }
}

#[test]
fn traced_sweep_matches_untraced() {
    let untraced = run_sweep(&smoke(), &options()).expect("untraced run");
    let (traced, traces) = run_sweep_traced(&smoke(), &options()).expect("traced run");
    assert_results_identical(&untraced, &traced, "traced vs untraced");
    for job in &traces {
        assert_eq!(job.recorder.open_spans(), 0);
    }
}
