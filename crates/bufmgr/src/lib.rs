//! # bufmgr — buffer management substrate for VOODB
//!
//! The paper's Buffering Manager "checks if the page is present in the
//! memory buffer; if not, it requests the page from the I/O Subsystem"
//! (knowledge model, Fig. 4), using "a page replacement policy (FIFO, LRU,
//! LFU, etc.)". Table 3 makes the policy a first-class parameter:
//! `PGREP ∈ {RANDOM | FIFO | LFU | LRU-K | CLOCK | GCLOCK | Other}`.
//! Table 3's prefetching slot `PREFETCH ∈ {None | Other}` stays at
//! `None`, as in every run of the paper (§5 leaves prefetching to future
//! work), so this crate has no prefetching policy.
//!
//! This crate implements that whole substrate:
//!
//! * [`BufferPool`] — frames, residency and dirty tracking; each access
//!   returns its [`AccessOutcome`] and the caller does the counting;
//! * [`PolicyKind`] — factory for every Table 3 replacement policy, each a
//!   standalone module implementing [`ReplacementPolicy`];
//! * [`DiskTimings`] and [`IoCounts`] — the Table 3/4 disk timings and
//!   the page read/write counters behind a miss, one type each for the
//!   model and the engines.
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
pub mod random;

pub use policy::{PageId, PolicyKind, ReplacementPolicy};
pub use pool::{AccessOutcome, BufferPool};

/// O2 server-buffer frames per MB of cache.
///
/// Table 4 parameterises O2's 16 MB server cache as 3840 pages of 4 KB —
/// i.e. 240 frames per MB; the cache sweep of Fig. 8 scales with the same
/// calibration. The model (`VoodbParams::o2`), the page-server engine and
/// the scenario key `system.cache_mb` all size their pools with it.
pub const O2_FRAMES_PER_MB: usize = 240;

/// Disk timing parameters, in milliseconds (Table 3: `DISKSEA`,
/// `DISKLAT`, `DISKTRA`; Table 4 presets). The model's I/O subsystem and
/// the engines' virtual disk price every page transfer with them, each
/// with its own Fig. 5 accounting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskTimings {
    /// `DISKSEA` — head search (seek) time.
    pub search_ms: f64,
    /// `DISKLAT` — rotational latency.
    pub latency_ms: f64,
    /// `DISKTRA` — page transfer time.
    pub transfer_ms: f64,
}

impl DiskTimings {
    /// Table 3 defaults (7.4 / 4.3 / 0.5 ms).
    pub fn table3_default() -> Self {
        DiskTimings {
            search_ms: 7.4,
            latency_ms: 4.3,
            transfer_ms: 0.5,
        }
    }

    /// The O2 server disk of Table 4 (6.3 / 2.99 / 0.7 ms).
    pub fn o2() -> Self {
        DiskTimings {
            search_ms: 6.3,
            latency_ms: 2.99,
            transfer_ms: 0.7,
        }
    }

    /// The Texas host disk of Table 4 (the Table 3 defaults).
    pub fn texas() -> Self {
        DiskTimings::table3_default()
    }

    /// Cost of a random page access (Fig. 5 full path).
    pub fn random_access_ms(&self) -> f64 {
        self.search_ms + self.latency_ms + self.transfer_ms
    }

    /// Cost of an access contiguous with the previous one (Fig. 5
    /// short-circuit).
    pub fn contiguous_access_ms(&self) -> f64 {
        self.transfer_ms
    }
}

/// Page read/write counters, of the simulated disk and of the engines'
/// virtual disk alike.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// Page reads.
    pub reads: u64,
    /// Page writes.
    pub writes: u64,
}

impl IoCounts {
    /// Reads plus writes.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Component-wise difference (`self - earlier`), for interval
    /// measurements.
    pub fn since(&self, earlier: IoCounts) -> IoCounts {
        IoCounts {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
        }
    }
}

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
