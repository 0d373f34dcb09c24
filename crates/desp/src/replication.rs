//! Replication results.
//!
//! The paper runs every experiment as a set of independent replications and
//! reports 95% confidence intervals (§4.2.2): a pilot study of `n = 10`
//! replications, then `n* = n·(h/h*)²` additional replications until the
//! half-width is within 5% of the sample mean; the authors observed
//! `n + n* ≥ 100` always sufficed and standardised on 100 replications.
//!
//! A replication reports its scalar results as a [`MetricSet`]; the
//! scenario runner (`scenario::run_sweep_jobs`) runs a fixed count of
//! replications per configuration and turns each metric's samples into a
//! [`ConfidenceInterval`](crate::stats::ConfidenceInterval).

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_set_round_trip() {
        let m: MetricSet = [("a", 1.0), ("b", 2.0)].into_iter().collect();
        assert_eq!(m.get("a"), Some(1.0));
        assert_eq!(m.get("b"), Some(2.0));
        assert_eq!(m.get("c"), None);
        assert_eq!(m.iter().count(), 2);
        let names: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
