//! # voodb-trace — telemetry for the VOODB simulation
//!
//! VOODB's purpose is *measuring* OODB behaviour, yet scalar end-of-run
//! means hide everything interesting: tail latencies, where a
//! transaction's time actually goes, how utilisation evolves. This crate
//! is the recording side of the `desp` kernel's [`Probe`](desp::Probe)
//! seam:
//!
//! * [`TraceRecorder`] — a probe assembling per-transaction lifecycle
//!   [`SpanRecord`]s (arrive → admission → lock → CPU → disk → network
//!   → done) plus per-stage latency [`Histogram`]s and bounded
//!   [`TimeSeries`] (resource queues among them), built via the
//!   [`RecorderConfig`] builder (bounded-loss sampling, live [`watch`]
//!   sinks);
//! * [`hist::Histogram`] — log-bucketed (≤ 9% relative error)
//!   p50/p90/p99/max estimation with exact count/mean/min/max;
//! * [`series::TimeSeries`] — deterministic decimating samplers for
//!   queue lengths, hit ratio and utilisation over simulated time;
//! * [`export`] — the trace directory formats: span JSONL, series CSV
//!   and the [`RunSummary`] that `voodb compare` diffs;
//! * [`analyze`] — `voodb analyze` / `voodb compare`: percentile tables
//!   rebuilt from JSONL, and regression flagging between two runs.
//!
//! Untraced runs pay nothing: the kernel's hooks are monomorphised away
//! under [`desp::NoProbe`]. The end-to-end benchmark (`e2ebench/`)
//! measures what a recording run costs: `vtrace.overhead_pct` times a
//! traced `voodb run` sweep against an untraced one, and CI caps it at
//! 10%.

#![warn(missing_docs)]

pub mod analyze;
pub mod config;
pub mod export;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod series;
pub mod watch;

pub use analyze::{
    compare, direction_of, CompareReport, CompareRow, Direction, DirectionRule, MetricPattern,
    TraceAnalysis, DIRECTION_RULES,
};
pub use config::{RecorderConfig, DEFAULT_SAMPLE_SEED};
pub use export::{
    job_stem, series_to_csv, spans_from_jsonl, spans_to_jsonl, trace_header_jsonl, write_job_trace,
    RunMetrics, RunSummary, SCHEMA_VERSION, SUMMARY_FILE,
};
pub use hist::{Histogram, MIN_VALUE_MS, SUB_BUCKETS};
pub use json::Json;
pub use recorder::{
    SpanRecord, TraceRecorder, ADMISSION_WAIT, MODEL_STAGES, RESPONSE, STAGE_METRICS,
};
pub use series::TimeSeries;
pub use watch::{WatchSample, WatchSink};
