//! The page-replacement policy abstraction.
//!
//! Table 3 of the paper enumerates the replacement strategies the Buffering
//! Manager can be configured with: `{RANDOM | FIFO | LFU | LRU-K | CLOCK |
//! GCLOCK | Other}`, with LRU-1 as the default. Each is implemented as a
//! [`ReplacementPolicy`] behind the [`PolicyKind`] factory, so a policy is
//! an interchangeable module exactly as in the VOODB knowledge model.

use std::fmt;

/// Identifier of a disk page.
pub type PageId = u32;

/// A page-replacement policy.
///
/// The [`crate::BufferPool`] owns residency bookkeeping; the policy only
/// ranks resident pages for eviction. Protocol:
///
/// * [`on_admit`](Self::on_admit) — a missing page was brought into a frame;
/// * [`on_access`](Self::on_access) — a resident page was referenced
///   (called for the admitting reference too, after `on_admit`);
/// * [`select_victim`](Self::select_victim) — choose a resident page to
///   evict (the pool guarantees at least one page is resident);
/// * [`on_evict`](Self::on_evict) — the chosen page left its frame.
pub trait ReplacementPolicy: Send {
    /// Human-readable policy name (for reports).
    fn name(&self) -> &'static str;

    /// A page was admitted into a free frame.
    fn on_admit(&mut self, page: PageId);

    /// A resident page was referenced.
    fn on_access(&mut self, page: PageId);

    /// Chooses the page to evict. Must return a currently resident page.
    fn select_victim(&mut self) -> PageId;

    /// The page was evicted.
    fn on_evict(&mut self, page: PageId);
}

/// Factory enumeration of the built-in policies (Table 3 `PGREP`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PolicyKind {
    /// Evict a uniformly random resident page.
    Random {
        /// Seed of the policy's private random stream.
        seed: u64,
    },
    /// Evict the page resident longest (insertion order).
    Fifo,
    /// Evict the least recently used page (LRU-1, the Table 3/4 default).
    Lru,
    /// Evict the page whose K-th most recent reference is oldest
    /// (O'Neil's LRU-K).
    LruK {
        /// History depth K (K = 1 degenerates to LRU).
        k: usize,
    },
    /// Evict the least frequently used page (ties broken by recency).
    Lfu,
    /// Second-chance clock with one reference bit.
    Clock,
    /// Generalized clock: a reference counter decremented on each sweep,
    /// evicting at zero.
    GClock {
        /// Counter value given to a page on reference.
        weight: u8,
    },
}

impl PolicyKind {
    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Random { seed } => Box::new(crate::random::RandomPolicy::new(seed)),
            PolicyKind::Fifo => Box::new(crate::fifo::FifoPolicy::new()),
            PolicyKind::Lru => Box::new(crate::lru::LruPolicy::new()),
            PolicyKind::LruK { k } => Box::new(crate::lruk::LruKPolicy::new(k)),
            PolicyKind::Lfu => Box::new(crate::lfu::LfuPolicy::new()),
            PolicyKind::Clock => Box::new(crate::clock::ClockPolicy::new()),
            PolicyKind::GClock { weight } => Box::new(crate::clock::GClockPolicy::new(weight)),
        }
    }

    /// All kinds with default parameters.
    #[cfg(test)]
    pub fn all_default() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Random { seed: 0xBEEF },
            PolicyKind::Fifo,
            PolicyKind::Lru,
            PolicyKind::LruK { k: 2 },
            PolicyKind::Lfu,
            PolicyKind::Clock,
            PolicyKind::GClock { weight: 3 },
        ]
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::Random { .. } => write!(f, "RANDOM"),
            PolicyKind::Fifo => write!(f, "FIFO"),
            PolicyKind::Lru => write!(f, "LRU"),
            PolicyKind::LruK { k } => write!(f, "LRU-{k}"),
            PolicyKind::Lfu => write!(f, "LFU"),
            PolicyKind::Clock => write!(f, "CLOCK"),
            PolicyKind::GClock { weight } => write!(f, "GCLOCK({weight})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(PolicyKind::Lru.to_string(), "LRU");
        assert_eq!(PolicyKind::LruK { k: 2 }.to_string(), "LRU-2");
        assert_eq!(PolicyKind::GClock { weight: 3 }.to_string(), "GCLOCK(3)");
        assert_eq!(PolicyKind::Random { seed: 1 }.to_string(), "RANDOM");
    }

    #[test]
    fn factory_builds_every_kind() {
        for kind in PolicyKind::all_default() {
            let policy = kind.build();
            assert!(!policy.name().is_empty());
        }
    }
}
