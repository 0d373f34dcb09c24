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
