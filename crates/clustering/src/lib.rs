//! # clustering — object clustering substrate for VOODB
//!
//! "The principle of clustering is to store related objects close together
//! on secondary storage … however, clustering induces an overhead for the
//! system, so it is important to gauge its true impact on the overall
//! performances" (§1 of the paper). Comparing clustering techniques is the
//! motivating application of VOODB, and the Clustering Manager is its only
//! algorithm-specific component.
//!
//! This crate provides that component's building blocks:
//!
//! * [`Placement`] / [`InitialPlacement`] — the OID → page map and the
//!   Table 3 initial placements (Sequential, Optimized Sequential,
//!   Random);
//! * [`ClusteringStrategy`] — the interchangeable-module interface
//!   (observe accesses → trigger → build clusters);
//! * [`Dstc`] — a full reimplementation of the DSTC technique evaluated in
//!   §4.4 (observation matrices, consolidation with ageing, flagging,
//!   greedy unit construction);
//! * [`StaticGraphClustering`] — a statistics-free static baseline.
//!
//! ```
//! use clustering::{InitialPlacement, ClusteringKind, DstcParams};
//! use ocb::{DatabaseParams, ObjectBase};
//!
//! let base = ObjectBase::generate(&DatabaseParams::small(), 1);
//! let placement = InitialPlacement::OptimizedSequential.build(&base, 4096);
//! assert_eq!(placement.len(), base.len());
//!
//! let mut dstc = ClusteringKind::Dstc(DstcParams::default()).build();
//! dstc.on_access(None, 0);
//! ```

#![warn(missing_docs)]

pub mod dstc;
pub mod placement;
pub mod static_graph;
pub mod strategy;

pub use dstc::{Dstc, DstcCounters, DstcParams};
pub use placement::{InitialPlacement, PageId, Placement, PAGE_HEADER_BYTES, SLOT_ENTRY_BYTES};
pub use static_graph::StaticGraphClustering;
pub use strategy::{ClusteringKind, ClusteringOutcome, ClusteringStrategy, NoClustering};
