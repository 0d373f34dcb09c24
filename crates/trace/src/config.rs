//! Recorder construction: the [`RecorderConfig`] builder.
//!
//! Every recorder knob (shard count, sampling, series decimation, watch
//! sinks) is a builder method rather than another constructor variant.
//! This builder is the one construction path used by the library, the
//! scenario runner and the `voodb` CLI alike; `TraceRecorder::default()`
//! is shorthand for `RecorderConfig::new().build()`.

use crate::recorder::TraceRecorder;
use crate::series;
use crate::watch::WatchSink;

/// Default seed for the span reservoir sampler.
pub const DEFAULT_SAMPLE_SEED: u64 = 0x5EED_CAB1_E5D1_CE64;

/// Builder for [`TraceRecorder`]s: shards, bounded-loss span sampling,
/// series decimation, dispatch decimation and live watch sinks.
///
/// The default configuration (`RecorderConfig::new().build()`) is
/// byte-compatible with the v1 recorder: one shard, no sampling,
/// 512-point series, `pending_events` sampled every 64 dispatches.
#[derive(Clone, Debug)]
pub struct RecorderConfig {
    shards: usize,
    sample: Option<usize>,
    sample_seed: u64,
    series_capacity: usize,
    dispatch_sample_every: u64,
    watch: Option<WatchSink>,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl RecorderConfig {
    /// The v1-compatible default configuration.
    pub fn new() -> Self {
        RecorderConfig {
            shards: 1,
            sample: None,
            sample_seed: DEFAULT_SAMPLE_SEED,
            series_capacity: series::DEFAULT_CAPACITY,
            dispatch_sample_every: TraceRecorder::DISPATCH_SAMPLE_EVERY,
            watch: None,
        }
    }

    /// Number of span shards (rounded up to a power of two, min 1).
    /// Shard routing is `serial & (shards - 1)`, so percentile output
    /// is merge-order invariant; see the recorder docs for what can
    /// legitimately differ above one shard.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1).next_power_of_two();
        self
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

    /// Seed for the reservoir sampler (mixed per job by
    /// [`RecorderConfig::build_for_job`]).
    pub fn sample_seed(mut self, seed: u64) -> Self {
        self.sample_seed = seed;
        self
    }

    /// Maximum retained points per time series (min 2); older points
    /// are decimated deterministically past this.
    pub fn series_capacity(mut self, capacity: usize) -> Self {
        self.series_capacity = capacity.max(2);
        self
    }

    /// `pending_events` is sampled once per this many dispatches
    /// (min 1).
    pub fn dispatch_sample_every(mut self, every: u64) -> Self {
        self.dispatch_sample_every = every.max(1);
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

    /// Configured shard count (post power-of-two rounding).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Configured reservoir capacity, if sampling is on.
    pub fn sample_cap(&self) -> Option<usize> {
        self.sample
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
        let seed = mix_seed(self.sample_seed, job as u64);
        TraceRecorder::from_config(
            self.shards,
            self.sample,
            seed,
            self.series_capacity,
            self.dispatch_sample_every,
            self.watch.clone(),
            job,
        )
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
    fn shards_round_up_to_powers_of_two() {
        assert_eq!(RecorderConfig::new().shards(0).shard_count(), 1);
        assert_eq!(RecorderConfig::new().shards(1).shard_count(), 1);
        assert_eq!(RecorderConfig::new().shards(3).shard_count(), 4);
        assert_eq!(RecorderConfig::new().shards(8).shard_count(), 8);
    }

    #[test]
    fn job_seeds_differ_but_are_deterministic() {
        assert_ne!(mix_seed(1, 0), mix_seed(1, 1));
        assert_eq!(mix_seed(7, 3), mix_seed(7, 3));
    }
}
