//! # voodb-scenario — declarative experiments for the VOODB model
//!
//! VOODB's whole point is *genericity*: "a set of parameters that help
//! tuning the model in a variety of configurations" (§3.3 of the paper).
//! This crate exposes that genericity without writing Rust: an
//! experiment is a **scenario file** — a small TOML document declaring
//! the simulated system (Table 3), the OCB object base and workload, a
//! replication protocol, and one or more swept parameter axes — and the
//! `voodb` CLI runs it in parallel and persists CSV/JSON reports.
//!
//! ```toml
//! [scenario]
//! name = "mpl_study"
//! replications = 10
//! seed = 42
//!
//! [database]
//! classes = 20
//! objects = 2000
//!
//! [[sweep]]
//! param = "system.multiprogramming_level"
//! values = [1, 2, 5, 10]
//! ```
//!
//! ```bash
//! voodb run scenarios/mpl_study.toml --threads 8
//! ```
//!
//! The pieces:
//!
//! * [`toml`] — a hand-rolled parser for the TOML subset scenario
//!   files use (the workspace builds fully offline; no external TOML
//!   crate), with line/column error reporting;
//! * [`spec`] — [`Scenario`]: the spec type, parameter application
//!   (every settable key is also a sweep axis), validation, and the
//!   cartesian sweep grid;
//! * [`runner`] — the parallel sweep runner: shards the
//!   (point × replication) grid over std scoped threads, seeding by
//!   configuration (every base from the scenario seed `s`, replication
//!   `r` on `s + 1 + r`), so equal configurations get equal results and
//!   results are **identical at any thread count**; any per-replication
//!   job (the bench-vs-sim twins, the differential oracles) runs on it
//!   through [`run_sweep_jobs`];
//! * [`harness`] — the bench-vs-sim twin jobs: the `oostore` engine and
//!   the model on one transaction stream;
//! * [`paper`] — the artifact table `voodb repro` runs: every figure and
//!   table of the paper's evaluation, plus three simulated studies;
//! * [`report`] — deterministic CSV/JSON writers
//!   (`target/voodb-out/<scenario>.{csv,json}`), also the output of
//!   `voodb repro`;
//! * [`tracing`] — `--trace` support: runs every job under a
//!   `voodb-trace` recorder and writes the trace directory
//!   (`<scenario>.trace/` with span JSONL, series CSV and
//!   `summary.json`) that `voodb analyze` / `voodb compare` consume;
//! * [`listing`] — the deterministic `voodb list` rendering.
//!
//! The `scenarios/` directory at the workspace root ships presets
//! mirroring the paper's experiments plus new workloads (see
//! `voodb list`).

#![warn(missing_docs)]

pub mod harness;
pub mod listing;
pub mod paper;
pub mod report;
pub mod runner;
pub mod spec;
pub mod toml;
pub mod tracing;

pub use desp::SchedulerKind;
pub use listing::library_listing;
pub use paper::{Artifact, JobKind, Report, ARTIFACTS};
pub use report::{
    check_same_tendency, sweep_table, write_sweep_reports, Cell, ReportTable, DEFAULT_OUT_DIR,
};
pub use runner::{
    run_sweep, run_sweep_jobs, run_sweep_traced, run_sweep_traced_with, JobTrace, MetricEstimate,
    PointSummary, RunOptions, SweepResult, CONFIDENCE,
};
pub use spec::{
    apply_param, params_help_text, parse_arrival, Scenario, SweepAxis, SweepPoint, PARAM_HELP,
};
pub use toml::{parse, Table, TomlError, Value};
pub use tracing::{job_metrics, trace_dir_for, write_trace_reports};
