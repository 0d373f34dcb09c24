//! # VOODB — a generic discrete-event random simulation model for OODBs
//!
//! Rust reproduction of **Darmont & Schneider, "VOODB: A Generic
//! Discrete-Event Random Simulation Model to Evaluate the Performances of
//! OODBs", VLDB 1999**.
//!
//! VOODB evaluates object-oriented database performance *a priori*: instead
//! of building a system (or buying one), you parameterise a generic model —
//! system class, buffer size and replacement policy, clustering policy,
//! disk timings, multiprogramming level (Table 3 of the paper) — execute an
//! OCB workload against it, and read off mean I/O counts, response times
//! and throughput with confidence intervals.
//!
//! The crate follows the paper's modelling approach literally:
//!
//! * the **knowledge model** (Fig. 4) maps onto the component modules:
//!   [`oman`] (Object Manager), [`bman`] (Buffering Manager), [`cman`]
//!   (Clustering Manager), [`iosub`] (I/O Subsystem), with Users and the
//!   Transaction Manager living in [`model`];
//! * the **evaluation model** is [`model::VoodbModel`], a [`desp::Model`]
//!   dispatched by the DESP kernel (the paper's DESP-C++);
//! * **genericity** comes from [`VoodbParams`] (Table 3) with presets
//!   [`VoodbParams::o2`] and [`VoodbParams::texas`] (Table 4), pluggable
//!   replacement policies (`bufmgr`), clustering strategies
//!   (`clustering`, including DSTC), and the OCB workload (`ocb`);
//! * **output analysis** follows §4.2.2: [`run_replication`] runs one
//!   replication, and the scenario runner (`scenario::run_sweep`) runs a
//!   fixed count of them per configuration with 95% Student-t intervals.
//!
//! ## Quickstart
//!
//! ```
//! use desp::NoProbe;
//! use ocb::{DatabaseParams, ObjectBase, WorkloadParams};
//! use voodb::{run_replication, ExperimentConfig, VoodbParams};
//!
//! let config = ExperimentConfig {
//!     system: VoodbParams::default(),              // Table 3 defaults
//!     database: DatabaseParams::small(),           // small OCB base
//!     workload: WorkloadParams { hot_transactions: 20, ..WorkloadParams::default() },
//! };
//! let base = ObjectBase::generate(&config.database, 42);
//! let (result, _) = run_replication(&base, &config, 42, NoProbe);
//! assert!(result.total_ios() > 0);
//! println!("mean I/Os per transaction: {:.1}", result.ios_per_transaction());
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod bman;
pub mod cman;
pub mod experiment;
pub mod iosub;
pub mod lockmgr;
pub mod model;
pub mod oman;
pub mod params;
pub mod results;
pub mod txslab;
mod wakes;

pub use admission::{AdmissionRing, PendingArrival};
pub use bman::{BmanStats, BufferDemand, BufferingManager};
pub use cman::{ClusteringManager, SimReorgReport};
pub use experiment::{
    generate_workload, run_dstc_study, run_replication, workload_phase, DstcStudyResult,
    ExperimentConfig, Simulation, WORKLOAD_SEED_SALT,
};
pub use iosub::IoSubsystem;
pub use lockmgr::{DeadlockPolicy, LockManager, LockMode, LockOutcome, LockStats};
pub use model::{Event, PhaseMode, VoodbModel};
pub use oman::ObjectManager;
pub use params::{ConcurrencyControl, SystemClass, VoodbParams};
pub use results::PhaseResult;
