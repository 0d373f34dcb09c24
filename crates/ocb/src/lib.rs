//! # OCB — the Object Clustering Benchmark object base and workload
//!
//! VOODB does not invent its own workload: it embeds the workload model of
//! **OCB**, the generic object-oriented benchmark by Darmont et al.
//! (EDBT 1998), which the paper also used to benchmark the real O2 and
//! Texas systems ("using the same workload (e.g., OCB) in simulation and on
//! the real system is essential", §5).
//!
//! This crate provides:
//!
//! * [`DatabaseParams`] / [`WorkloadParams`] — the tunable OCB parameter
//!   set (Table 5 of the VOODB paper supplies the validation defaults);
//! * [`Schema`] / [`ObjectBase`] — deterministic generation of the class
//!   graph and the object/reference graph from a seed. The references
//!   live in the base, not in each [`Object`]: one array of targets in
//!   compressed rows ([`ObjectBase::refs`]), and its transpose
//!   ([`ObjectBase::referrers`]), built once per base on first use, so a
//!   run that never asks for referrers never pays for them;
//! * [`WorkloadGenerator`] — a reproducible stream of [`Transaction`]s
//!   mixing the four OCB access patterns (set-oriented access, simple
//!   traversal, hierarchy traversal, stochastic traversal);
//! * [`IntHash`] — the multiplicative hasher of maps keyed by the
//!   program's own dense ids ([`Oid`]s, transaction ids).
//!
//! Both the real mini-engines (`oostore`) and the simulator (`voodb`)
//! consume these types, so a benchmark run and a simulation run can replay
//! the *identical* transaction stream.
//!
//! ```
//! use ocb::{DatabaseParams, WorkloadParams, ObjectBase, WorkloadGenerator};
//!
//! let base = ObjectBase::generate(&DatabaseParams::small(), 42);
//! let mut workload = WorkloadGenerator::new(&base, WorkloadParams::small(), 7);
//! let transaction = workload.next_transaction();
//! assert!(!transaction.accesses.is_empty());
//! ```

#![warn(missing_docs)]

pub mod database;
pub mod hash;
pub mod params;
pub mod schema;
pub mod source;
pub mod workload;

pub use database::{Object, ObjectBase, Oid};
pub use hash::{IntHash, IntHasher};
pub use params::{
    Arrival, DatabaseParams, PopulationTooLarge, Selection, TooManyArrivals, TransactionKind,
    UserCohort, UserModel, WorkloadParams, MAX_OPEN_ARRIVALS, MAX_WAKE_RUN_BYTES, WAKE_KEY_BYTES,
};
pub use schema::{Class, ClassId, ClassRef, RefType, Schema, BYTES_PER_REF, OBJECT_HEADER_BYTES};
pub use source::{LazySource, MaterializedSource, TransactionSource};
pub use workload::{
    hierarchy_traversal_steps, set_oriented_steps, simple_traversal_steps,
    stochastic_traversal_steps, Access, Step, Transaction, WorkloadGenerator, HIERARCHY_REF_TYPE,
    MAX_ACCESSES_PER_TRANSACTION,
};
