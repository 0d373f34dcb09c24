//! # oostore — miniature real storage engines (the "benchmark" side)
//!
//! The paper validates VOODB by benchmarking two **real systems** with the
//! OCB workload and comparing against simulation: the O2 page server and
//! the Texas persistent store (§4.2.1). Those systems are unobtainable
//! today, so this crate implements miniature but *real* engines that
//! execute every OCB transaction object-by-object against a virtual disk
//! and count actual physical I/Os (the paper's metric everywhere):
//!
//! * [`TexasEngine`] — a centralized, virtual-memory-mapped persistent
//!   store: page-fault loading, **pointer swizzling** (a faulted page is
//!   dirty, so each eviction is a swap write: the mechanism behind the
//!   Fig. 11 memory blow-up; the page reservations the paper also names
//!   are not modelled), and **physical OIDs** (the mechanism behind the Table 6 clustering
//!   overhead anomaly — see [`TexasEngine::reorganize`]);
//! * [`PageServerEngine`] — an O2-like page server: an LRU server
//!   buffer, page shipping, **logical OIDs** whose reorganisation needs
//!   no database scan;
//! * both engines fix Table 4's constants (4 KB pages, optimized-sequential
//!   initial placement, their own disk timings); [`TexasConfig`] and
//!   [`PageServerConfig`] set only the frames, the clustering and, on
//!   Texas, the mechanisms its unit tests isolate;
//! * [`VirtualDisk`] — slotted pages plus the Fig. 5 timing model
//!   (search + latency + transfer, short-circuited for contiguous reads).
//!   An engine's object pages are rendered in one pass on the first
//!   access to their content, from the base, the initial placement and
//!   the reorganisations logged since: counting I/Os needs none, so in
//!   release neither an O2 run nor a Texas run with DSTC reorganisation
//!   ever serialises the base;
//! * in-place byte work: a page stores only the bytes the engines read
//!   (object headers and references; the attribute area is implied),
//!   payloads are encoded straight into their slots and their
//!   references decoded and patched where they lie
//!   ([`write_object`], [`payload_refs`], [`patch_refs`]), and both
//!   engines' reorganisations execute one plan held in dense tables
//!   (`reorg`), so no per-object or per-reference step allocates or
//!   hashes. A reorganisation counts its I/Os from that plan and logs
//!   its byte edits on the disk, replayed when the image is rendered;
//! * the [`StorageEngine`] trait and [`run_workload`] driver shared by the
//!   bench harness.
//!
//! ```
//! use oostore::{PageServerConfig, PageServerEngine, run_workload, StorageEngine};
//! use ocb::{DatabaseParams, ObjectBase, WorkloadGenerator, WorkloadParams};
//!
//! let base = ObjectBase::generate(&DatabaseParams::small(), 1);
//! let mut engine = PageServerEngine::new(&base, PageServerConfig::with_cache_mb(1));
//! let mut workload = WorkloadGenerator::new(&base, WorkloadParams::small(), 2);
//! let txs: Vec<_> = (0..10).map(|_| workload.next_transaction()).collect();
//! let report = run_workload(&mut engine, &txs);
//! assert!(report.total_ios() > 0);
//! ```

#![warn(missing_docs)]

pub mod disk;
pub mod engine;
pub mod oid;
pub mod page;
pub mod pageserver;
pub mod reorg;
pub mod storage;
pub mod texas;

pub use disk::VirtualDisk;
pub use engine::{run_workload, StorageEngine, WorkloadReport};
pub use oid::PhysicalOid;
pub use page::{SlotId, SlottedPage};
pub use pageserver::{PageServerConfig, PageServerEngine};
pub use reorg::ReorgReport;
pub use storage::{
    assign_physical_oids, patch_refs, payload_oid, payload_refs, serialize_pages, write_object,
};
pub use texas::{TexasConfig, TexasCounters, TexasEngine};
