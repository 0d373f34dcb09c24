//! # bufmgr — buffer management substrate for VOODB
//!
//! The paper's Buffering Manager "checks if the page is present in the
//! memory buffer; if not, it requests the page from the I/O Subsystem"
//! (knowledge model, Fig. 4), using "a page replacement policy (FIFO, LRU,
//! LFU, etc.)". Table 3 makes the policy a first-class parameter:
//! `PGREP ∈ {RANDOM | FIFO | LFU | LRU-K | CLOCK | GCLOCK | Other}`, and a
//! prefetching slot `PREFETCH ∈ {None | Other}`.
//!
//! This crate implements that whole substrate:
//!
//! * [`BufferPool`] — frames, residency and dirty tracking; each access
//!   returns its [`AccessOutcome`] and the caller does the counting;
//! * [`PolicyKind`] — factory for every Table 3 replacement policy, each a
//!   standalone module implementing [`ReplacementPolicy`];
//! * [`PrefetchKind`] — the `None` policy the paper uses plus a sequential
//!   read-ahead exercising the extension point.
//!
//! The same pool drives both the *real* storage engines (`oostore`), where
//! a miss triggers an actual virtual-disk transfer, and the simulator
//! (`voodb`), where a miss schedules a simulated I/O — so the paper's
//! benchmark-vs-simulation comparison exercises identical replacement
//! behaviour on both sides.
//!
//! ```
//! use bufmgr::{BufferPool, PolicyKind};
//!
//! let mut pool = BufferPool::new(3, PolicyKind::Lru);
//! assert!(!pool.access(7, false).is_hit()); // cold miss
//! assert!(pool.access(7, false).is_hit());  // now resident
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod fifo;
pub mod lfu;
pub mod lru;
pub mod lruk;
pub mod policy;
pub mod pool;
pub mod prefetch;
pub mod random;

pub use policy::{PageId, PolicyKind, ReplacementPolicy};
pub use pool::{AccessOutcome, BufferPool};
pub use prefetch::{NoPrefetch, PrefetchKind, PrefetchPolicy, SequentialPrefetch};

/// O2 server-buffer frames per MB of cache.
///
/// Table 4 parameterises O2's 16 MB server cache as 3840 pages of 4 KB —
/// i.e. 240 frames per MB; the cache sweep of Fig. 8 scales with the same
/// calibration. The model (`VoodbParams::o2`), the page-server engine and
/// the scenario key `system.cache_mb` all size their pools with it.
pub const O2_FRAMES_PER_MB: usize = 240;

/// Texas usable page frames per MB of host memory.
///
/// Calibrated to the *knee* of Fig. 11: the paper observes that Texas's
/// performance "rapidly degrades when the main memory size becomes smaller
/// than the database size (about 21 MB)" — i.e. on the 64 MB host the
/// mapped store effectively enjoys most of RAM as page cache, and
/// degradation starts between the 24 MB and 16 MB sweep points. 230
/// frames/MB (≈ 90% of RAM) places the knee exactly there. (Table 4's
/// literal `BUFFSIZE = 3275` pages ≈ 13 MB would contradict the knee the
/// paper itself reports.) The model (`VoodbParams::texas`), the Texas
/// engine and the scenario key `system.memory_mb` all size their frame
/// tables with it.
pub const TEXAS_FRAMES_PER_MB: usize = 230;
