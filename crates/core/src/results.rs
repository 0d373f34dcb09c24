//! Simulation results.
//!
//! The paper's performance criterion throughout §4 is the **mean number of
//! I/Os** needed to perform the transaction workload; response time,
//! throughput and buffer hit ratios are the supporting criteria a
//! simulation provides for free. A [`PhaseResult`] captures one measured
//! run (e.g. the warm transactions of Table 5, or one side of the
//! pre-/post-clustering comparison of Table 6).

use crate::cman::SimReorgReport;
use bufmgr::IoCounts;
use desp::MetricSet;

/// Metrics of one measured simulation phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseResult {
    /// Measured transactions completed.
    pub transactions: usize,
    /// I/Os in the measurement window.
    pub io: IoCounts,
    /// Mean transaction response time, in simulated ms.
    pub mean_response_ms: f64,
    /// Transactions per simulated second.
    pub throughput_tps: f64,
    /// Buffer hit ratio over the phase.
    pub hit_ratio: f64,
    /// Simulated duration of the measurement window, in ms.
    pub sim_elapsed_ms: f64,
    /// Events the kernel dispatched for the phase. The one field that
    /// is not part of the simulated result: the model runs events
    /// certain to be dispatched next without the event list (see
    /// [`crate::model`]), and cohort mode dispatches fewer events than
    /// the per-user oracle, so the count reflects the implementation,
    /// not the system simulated.
    pub events: u64,
    /// Reorganisations automatically triggered during the phase.
    pub reorgs: Vec<SimReorgReport>,
}

impl PhaseResult {
    /// Total I/Os of the phase.
    pub fn total_ios(&self) -> u64 {
        self.io.total()
    }

    /// Mean I/Os per measured transaction.
    pub fn ios_per_transaction(&self) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            self.io.total() as f64 / self.transactions as f64
        }
    }

    /// Flattens the phase into a [`MetricSet`] for replication analysis.
    pub fn to_metrics(&self) -> MetricSet {
        let mut metrics = MetricSet::new();
        metrics.insert("ios", self.io.total() as f64);
        metrics.insert("reads", self.io.reads as f64);
        metrics.insert("writes", self.io.writes as f64);
        metrics.insert("ios_per_tx", self.ios_per_transaction());
        metrics.insert("response_ms", self.mean_response_ms);
        metrics.insert("throughput_tps", self.throughput_tps);
        metrics.insert("hit_ratio", self.hit_ratio);
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_transaction_maths() {
        let result = PhaseResult {
            transactions: 100,
            io: IoCounts {
                reads: 900,
                writes: 100,
            },
            ..PhaseResult::default()
        };
        assert_eq!(result.total_ios(), 1000);
        assert!((result.ios_per_transaction() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_phase_is_zero() {
        let result = PhaseResult::default();
        assert_eq!(result.ios_per_transaction(), 0.0);
        assert_eq!(result.total_ios(), 0);
    }

    #[test]
    fn metric_set_round_trip() {
        let result = PhaseResult {
            transactions: 10,
            io: IoCounts {
                reads: 40,
                writes: 10,
            },
            mean_response_ms: 12.5,
            throughput_tps: 80.0,
            hit_ratio: 0.9,
            ..PhaseResult::default()
        };
        let metrics = result.to_metrics();
        assert_eq!(metrics.get("ios"), Some(50.0));
        assert_eq!(metrics.get("ios_per_tx"), Some(5.0));
        assert_eq!(metrics.get("response_ms"), Some(12.5));
        assert_eq!(metrics.get("hit_ratio"), Some(0.9));
    }
}
