//! The shape check of the figure binaries.

use crate::harness::mean_of;
use scenario::SweepResult;

/// Checks the tendency the paper's figures show: the `bench_ios` and
/// `sim_ios` series of a sweep must be monotone in the same direction
/// (within `slack` relative tolerance for replication noise). Returns an
/// error message when the shapes disagree.
pub fn check_same_tendency(result: &SweepResult, slack: f64) -> Result<(), String> {
    let points = &result.points;
    if points.len() < 2 {
        return Ok(());
    }
    let direction = |name: &str| {
        if mean_of(&points[points.len() - 1], name) > mean_of(&points[0], name) {
            1
        } else {
            -1
        }
    };
    if direction("bench_ios") != direction("sim_ios") {
        return Err("benchmark and simulation trend in opposite directions".into());
    }
    // Within each series, successive points may wiggle by the slack but
    // the overall direction must hold pairwise across the span.
    for name in ["bench_ios", "sim_ios"] {
        let d = direction(name) as f64;
        for w in points.windows(2) {
            let (a, b) = (mean_of(&w[0], name), mean_of(&w[1], name));
            if d * (b - a) < -slack * a.abs() {
                return Err(format!(
                    "{name} series reverses tendency between {} and {}",
                    w[0].label, w[1].label
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::{MetricEstimate, PointSummary};

    fn sweep(series: &[(f64, f64, f64)]) -> SweepResult {
        let estimate = |name: &str, mean: f64| MetricEstimate {
            name: name.to_owned(),
            mean,
            half_width: 1.0,
            n: 10,
        };
        SweepResult {
            scenario: "test".into(),
            description: String::new(),
            replications: 10,
            seed: 42,
            axes: vec!["x".into()],
            points: series
                .iter()
                .map(|&(x, bench, sim)| PointSummary {
                    coords: vec![("x".into(), x.to_string())],
                    label: format!("x={x}"),
                    metrics: vec![estimate("bench_ios", bench), estimate("sim_ios", sim)],
                })
                .collect(),
        }
    }

    #[test]
    fn same_tendency_accepts_monotone_series() {
        let result = sweep(&[(1.0, 10.0, 12.0), (2.0, 20.0, 22.0), (3.0, 30.0, 33.0)]);
        assert!(check_same_tendency(&result, 0.05).is_ok());
    }

    #[test]
    fn same_tendency_accepts_decreasing_series() {
        let result = sweep(&[(8.0, 50.0, 55.0), (16.0, 20.0, 22.0), (64.0, 5.0, 6.0)]);
        assert!(check_same_tendency(&result, 0.05).is_ok());
    }

    #[test]
    fn opposite_directions_rejected() {
        let result = sweep(&[(1.0, 10.0, 30.0), (2.0, 20.0, 15.0)]);
        assert!(check_same_tendency(&result, 0.05).is_err());
    }

    #[test]
    fn big_reversal_rejected_small_wiggle_tolerated() {
        // Wiggle within slack.
        let result = sweep(&[(1.0, 10.0, 10.0), (2.0, 9.9, 10.1), (3.0, 30.0, 31.0)]);
        assert!(check_same_tendency(&result, 0.05).is_ok());
        // Hard reversal.
        let result = sweep(&[(1.0, 10.0, 10.0), (2.0, 5.0, 11.0), (3.0, 30.0, 31.0)]);
        assert!(check_same_tendency(&result, 0.05).is_err());
    }
}
