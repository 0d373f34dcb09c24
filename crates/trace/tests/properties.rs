//! Property-based tests of the telemetry primitives.

use proptest::prelude::*;
use vtrace::{Histogram, TimeSeries, MIN_VALUE_MS, SUB_BUCKETS};

/// The ratio between consecutive bucket edges, `2^(1/SUB_BUCKETS)`: a
/// quantile overstates the exact value by at most this factor.
fn growth() -> f64 {
    2f64.powf(1.0 / f64::from(SUB_BUCKETS))
}

fn hist_of(xs: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &x in xs {
        h.record(x);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The log-bucket guarantee: for any quantile, the estimate brackets
    /// the exact order statistic within one bucket ratio.
    #[test]
    fn histogram_quantiles_bracket_exact_quantiles(
        samples in prop::collection::vec(0.01f64..1e5, 1..400),
        q in 0.01f64..1.0,
    ) {
        let hist = hist_of(&samples);
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let estimate = hist.quantile(q);
        prop_assert!(
            estimate >= exact * (1.0 - 1e-12),
            "q={q}: estimate {estimate} understates exact {exact}"
        );
        prop_assert!(
            estimate <= exact * growth() * (1.0 + 1e-12),
            "q={q}: estimate {estimate} overstates exact {exact} beyond one bucket"
        );
    }

    /// Exact statistics are exact regardless of bucketing.
    #[test]
    fn histogram_count_mean_min_max_are_exact(
        samples in prop::collection::vec(0.0f64..1e5, 1..300),
    ) {
        let hist = hist_of(&samples);
        prop_assert_eq!(hist.count(), samples.len() as u64);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!((hist.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(hist.min(), min);
        prop_assert_eq!(hist.max(), max);
        // The maximum clamps every quantile.
        prop_assert!(hist.quantile(1.0) <= max);
    }

    /// Merging two histograms equals bucketing the concatenation, for
    /// every quantile (buckets align by construction).
    #[test]
    fn histogram_merge_equals_single_pass(
        a in prop::collection::vec(0.0f64..1e5, 0..200),
        b in prop::collection::vec(0.0f64..1e5, 0..200),
        q in 0.0f64..1.0,
    ) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let whole: Vec<f64> = a.iter().chain(&b).copied().collect();
        let single = hist_of(&whole);
        prop_assert_eq!(merged.count(), single.count());
        prop_assert_eq!(merged.quantile(q), single.quantile(q));
    }

    /// Sub-threshold observations report as zero, never as a bucket edge.
    #[test]
    fn histogram_zero_bucket_is_exact(zeros in 1u32..200, q in 0.0f64..1.0) {
        let samples = vec![MIN_VALUE_MS / 2.0; zeros as usize];
        let hist = hist_of(&samples);
        prop_assert_eq!(hist.quantile(q), 0.0);
    }

    /// Decimation keeps the buffer bounded, the samples time-ordered,
    /// and the retained points an exact subset of what was offered.
    #[test]
    fn series_decimation_is_bounded_and_ordered(
        values in prop::collection::vec(-1e3f64..1e3, 1..2_000),
        capacity in 4usize..64,
    ) {
        let mut series = TimeSeries::with_capacity(capacity);
        for (i, &v) in values.iter().enumerate() {
            series.record(i as f64, v);
        }
        prop_assert!(series.samples().len() <= capacity);
        prop_assert_eq!(series.offered(), values.len() as u64);
        for window in series.samples().windows(2) {
            prop_assert!(window[1].0 > window[0].0, "samples out of order");
        }
        for &(t, v) in series.samples() {
            prop_assert_eq!(values[t as usize], v, "retained point was never offered");
        }
    }
}
