//! # voodb-repro — reproduction of *VOODB* (Darmont & Schneider, VLDB 1999)
//!
//! Facade crate re-exporting the whole workspace. The pieces:
//!
//! | Crate | Paper role |
//! |---|---|
//! | [`desp`] | DESP-C++: the discrete-event simulation kernel (§3.2.1) |
//! | [`ocb`] | The OCB object base and workload model (§3.3, Table 5) |
//! | [`bufmgr`] | Buffering Manager substrate: page-replacement policies (Table 3) |
//! | [`clustering`] | Clustering strategies incl. DSTC, and object placement |
//! | [`oostore`] | Miniature *real* engines standing in for O2 / Texas (§4.2.1) |
//! | [`voodb`] | The generic evaluation model itself (§3) |
//! | [`scenario`] | Declarative experiment specs, the parallel sweep runner, the paper's artifact table, and the `voodb` CLI |
//! | [`vtrace`] | Telemetry: trace recorder, latency histograms, time-series, `voodb analyze`/`compare` |
//!
//! See `examples/` for runnable studies, `voodb repro` for every table
//! and figure of the paper's evaluation, and `scenarios/` for
//! declarative experiment presets runnable with
//! `cargo run --release --bin voodb -- run <file>`.

pub use bufmgr;
pub use clustering;
pub use desp;
pub use ocb;
pub use oostore;
pub use scenario;
pub use voodb;
pub use vtrace;
