//! Replication control.
//!
//! The paper runs every experiment as a set of independent replications and
//! reports 95% confidence intervals (§4.2.2): a pilot study of `n = 10`
//! replications, then `n* = n·(h/h*)²` additional replications until the
//! half-width is within 5% of the sample mean; the authors observed
//! `n + n* ≥ 100` always sufficed and standardised on 100 replications.
//!
//! [`Replicator`] automates exactly that protocol for any closure producing
//! a [`MetricSet`] per replication.

use crate::stats::{required_replications, ConfidenceInterval};
use std::collections::BTreeMap;

/// Named scalar results of a single replication (mean I/Os, response time,
/// throughput …). Insertion order is irrelevant; metrics are keyed by name.
#[derive(Clone, Debug, Default)]
pub struct MetricSet {
    values: BTreeMap<String, f64>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `value` under `name` (overwrites a previous value).
    pub fn insert(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.values.insert(name.into(), value);
        self
    }

    /// Fetches a metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no metric was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl<S: Into<String>> FromIterator<(S, f64)> for MetricSet {
    fn from_iter<T: IntoIterator<Item = (S, f64)>>(iter: T) -> Self {
        let mut set = MetricSet::new();
        for (k, v) in iter {
            set.insert(k, v);
        }
        set
    }
}

/// How many replications to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReplicationPolicy {
    /// Exactly `n` replications (the paper's production setting: 100).
    Fixed(usize),
    /// Pilot study then `n* = n·(h/h*)²`, targeting a relative half-width,
    /// capped at `max`.
    Adaptive {
        /// Pilot size (paper: 10).
        pilot: usize,
        /// Desired relative half-width `h*/X̄` (paper: 0.05).
        relative_precision: f64,
        /// Upper bound on total replications (paper: 100 "with a broad
        /// security margin").
        max: usize,
    },
}

/// Aggregated replication results: per-metric samples and intervals.
#[derive(Clone, Debug)]
pub struct ReplicationReport {
    samples: BTreeMap<String, Vec<f64>>,
    level: f64,
    replications: usize,
}

impl ReplicationReport {
    /// Number of replications actually run.
    pub fn replications(&self) -> usize {
        self.replications
    }

    /// Raw samples of a metric across replications.
    pub fn samples(&self, name: &str) -> Option<&[f64]> {
        self.samples.get(name).map(Vec::as_slice)
    }

    /// Names of all recorded metrics.
    pub fn metric_names(&self) -> impl Iterator<Item = &str> {
        self.samples.keys().map(String::as_str)
    }

    /// Confidence interval for a metric.
    ///
    /// # Panics
    /// Panics if the metric was never recorded.
    pub fn interval(&self, name: &str) -> ConfidenceInterval {
        let samples = self
            .samples
            .get(name)
            .unwrap_or_else(|| panic!("unknown metric '{name}'"));
        ConfidenceInterval::from_samples(samples, self.level)
    }

    /// Sample mean of a metric.
    ///
    /// # Panics
    /// Panics if the metric was never recorded.
    pub fn mean(&self, name: &str) -> f64 {
        self.interval(name).mean
    }
}

/// Drives replications of an experiment closure under a
/// [`ReplicationPolicy`].
#[derive(Clone, Debug)]
pub struct Replicator {
    policy: ReplicationPolicy,
    level: f64,
    base_seed: u64,
}

impl Replicator {
    /// Creates a driver; replication `i` receives seed `base_seed + i` so
    /// results are reproducible and replications are independent.
    pub fn new(policy: ReplicationPolicy, base_seed: u64) -> Self {
        Replicator {
            policy,
            level: 0.95,
            base_seed,
        }
    }

    /// Runs the experiment. `f(seed)` must perform one complete replication
    /// and return its metrics; the metric names must be identical across
    /// replications.
    pub fn run<F>(&self, mut f: F) -> ReplicationReport
    where
        F: FnMut(u64) -> MetricSet,
    {
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut count = 0usize;

        let mut run_one = |samples: &mut BTreeMap<String, Vec<f64>>, count: &mut usize| {
            let seed = self.base_seed + *count as u64;
            let metrics = f(seed);
            assert!(
                !metrics.is_empty(),
                "replication produced no metrics; every replication must \
                 return at least one"
            );
            for (name, value) in metrics.iter() {
                samples.entry(name.to_owned()).or_default().push(value);
            }
            *count += 1;
        };

        match self.policy {
            ReplicationPolicy::Fixed(n) => {
                assert!(n > 0, "fixed replication count must be positive");
                for _ in 0..n {
                    run_one(&mut samples, &mut count);
                }
            }
            ReplicationPolicy::Adaptive {
                pilot,
                relative_precision,
                max,
            } => {
                assert!(pilot >= 2, "pilot must have at least 2 replications");
                assert!(relative_precision > 0.0);
                assert!(max >= pilot);
                for _ in 0..pilot {
                    run_one(&mut samples, &mut count);
                }
                // The pilot sizing rule, applied to the worst metric.
                let mut target = pilot;
                for series in samples.values() {
                    let ci = ConfidenceInterval::from_samples(series, self.level);
                    if ci.mean == 0.0 && ci.half_width == 0.0 {
                        continue; // Degenerate constant-zero metric.
                    }
                    let h_star = relative_precision * ci.mean.abs();
                    let needed = if h_star > 0.0 {
                        required_replications(pilot, ci.half_width, h_star)
                    } else {
                        max
                    };
                    target = target.max(needed.min(max));
                }
                while count < target {
                    run_one(&mut samples, &mut count);
                }
            }
        }

        ReplicationReport {
            samples,
            level: self.level,
            replications: count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomStream;

    #[test]
    fn fixed_policy_runs_exactly_n() {
        let replicator = Replicator::new(ReplicationPolicy::Fixed(25), 1);
        let report = replicator.run(|seed| {
            let mut m = MetricSet::new();
            m.insert("x", seed as f64);
            m
        });
        assert_eq!(report.replications(), 25);
        assert_eq!(report.samples("x").unwrap().len(), 25);
        // Seeds are base..base+n.
        assert_eq!(report.samples("x").unwrap()[0], 1.0);
        assert_eq!(report.samples("x").unwrap()[24], 25.0);
    }

    #[test]
    fn adaptive_policy_stops_when_precise() {
        // Nearly constant metric → pilot alone suffices.
        let replicator = Replicator::new(
            ReplicationPolicy::Adaptive {
                pilot: 10,
                relative_precision: 0.05,
                max: 100,
            },
            7,
        );
        let report = replicator.run(|seed| {
            let mut s = RandomStream::new(seed);
            let mut m = MetricSet::new();
            m.insert("io", 1000.0 + (-1.0 + 2.0 * s.uniform01()));
            m
        });
        assert_eq!(report.replications(), 10);
        let ci = report.interval("io");
        assert!(ci.half_width / ci.mean.abs() < 0.05);
    }

    #[test]
    fn adaptive_policy_extends_noisy_metrics() {
        // Very noisy metric → needs more than the pilot, capped at max.
        let replicator = Replicator::new(
            ReplicationPolicy::Adaptive {
                pilot: 10,
                relative_precision: 0.01,
                max: 60,
            },
            11,
        );
        let report = replicator.run(|seed| {
            let mut s = RandomStream::new(seed);
            let mut m = MetricSet::new();
            m.insert("noisy", 100.0 * s.uniform01());
            m
        });
        assert!(report.replications() > 10);
        assert!(report.replications() <= 60);
    }

    #[test]
    fn report_interval_covers_true_mean() {
        let replicator = Replicator::new(ReplicationPolicy::Fixed(100), 3);
        let report = replicator.run(|seed| {
            let mut s = RandomStream::new(seed);
            let mut m = MetricSet::new();
            // Mean 50 uniform noise.
            m.insert("v", 50.0 + (-5.0 + 10.0 * s.uniform01()));
            m
        });
        let ci = report.interval("v");
        assert!(ci.contains(50.0), "CI {ci:?} should contain 50");
        assert_eq!(ci.n, 100);
    }

    #[test]
    fn metric_set_round_trip() {
        let m: MetricSet = [("a", 1.0), ("b", 2.0)].into_iter().collect();
        assert_eq!(m.get("a"), Some(1.0));
        assert_eq!(m.get("b"), Some(2.0));
        assert_eq!(m.get("c"), None);
        assert_eq!(m.len(), 2);
        let names: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_metric_panics() {
        let replicator = Replicator::new(ReplicationPolicy::Fixed(2), 0);
        let report = replicator.run(|_| {
            let mut m = MetricSet::new();
            m.insert("x", 1.0);
            m
        });
        let _ = report.interval("nope");
    }
}
