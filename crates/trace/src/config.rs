//! Recorder construction: the [`RecorderConfig`] builder.
//!
//! Every recorder knob (bounded-loss sampling, watch sinks) is a builder
//! method rather than another constructor variant. This builder is the
//! one construction path used by the library, the scenario runner and
//! the `voodb` CLI alike; `TraceRecorder::default()` is shorthand for
//! `RecorderConfig::new().build()`.

use crate::recorder::TraceRecorder;
use crate::watch::WatchSink;

/// Seed for the span reservoir sampler (mixed per job by
/// [`RecorderConfig::build_for_job`]).
pub const DEFAULT_SAMPLE_SEED: u64 = 0x5EED_CAB1_E5D1_CE64;

/// Builder for [`TraceRecorder`]s: bounded-loss span sampling and live
/// watch sinks.
///
/// The default configuration (`RecorderConfig::new().build()`) retains
/// every span and attaches no watch sink. Series keep at most
/// [`crate::series::DEFAULT_CAPACITY`] points and `pending_events` is
/// sampled every [`TraceRecorder::DISPATCH_SAMPLE_EVERY`] dispatches.
#[derive(Clone, Debug, Default)]
pub struct RecorderConfig {
    sample: Option<usize>,
    watch: Option<WatchSink>,
}

impl RecorderConfig {
    /// The default configuration: no sampling, no watch sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounded-loss reservoir sampling: retain at most `cap` raw span
    /// records (uniformly over commits, Algorithm R). Histograms and
    /// percentiles still see *every* span; only the exported raw
    /// records are sampled, and the loss is reported
    /// (`spans_offered` − `spans_recorded`), never silent.
    pub fn sample(mut self, cap: usize) -> Self {
        self.sample = Some(cap);
        self
    }

    /// Attaches a live watch sink.
    ///
    /// # Panics
    /// Panics if the sink's `interval_ms` is not positive.
    pub fn watch(mut self, sink: WatchSink) -> Self {
        assert!(sink.interval_ms > 0.0, "watch interval must be positive");
        self.watch = Some(sink);
        self
    }

    /// Builds a recorder for job 0.
    pub fn build(&self) -> TraceRecorder {
        self.build_for_job(0)
    }

    /// Builds a recorder for the given (point × replication) job index:
    /// the reservoir seed is mixed with `job` (so replications sample
    /// independently but deterministically) and watch samples are
    /// tagged with it.
    pub fn build_for_job(&self, job: usize) -> TraceRecorder {
        let seed = mix_seed(DEFAULT_SAMPLE_SEED, job as u64);
        TraceRecorder::from_config(self.sample, seed, self.watch.clone(), job)
    }
}

/// SplitMix64-style seed mixing: deterministic, stateless, and well
/// spread even for consecutive job indices.
fn mix_seed(seed: u64, job: u64) -> u64 {
    let mut z = seed ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_seeds_differ_but_are_deterministic() {
        assert_ne!(mix_seed(1, 0), mix_seed(1, 1));
        assert_eq!(mix_seed(7, 3), mix_seed(7, 3));
    }
}
