//! Prefetching policies.
//!
//! Table 3 lists `PREFETCH ∈ {None | Other}` — the paper's experiments all
//! run without prefetching ("it currently only provides … no prefetching
//! strategy", §5, flagged as future work). We implement `None` plus a
//! sequential read-ahead as the natural "Other", so the extension point the
//! paper describes is exercised by tests and an ablation bench.

use crate::policy::PageId;

/// A prefetching policy: given the page just fetched on a miss, propose
/// additional pages to stage into the buffer.
pub trait PrefetchPolicy: Send {
    /// Human-readable name (for reports).
    fn name(&self) -> &'static str;

    /// Pages to prefetch after a miss on `page` (out of `total_pages`).
    fn after_miss(&mut self, page: PageId, total_pages: u32) -> Vec<PageId>;
}

/// Factory enumeration of prefetching policies (Table 3 `PREFETCH`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchKind {
    /// No prefetching (the paper's setting).
    None,
    /// Sequential read-ahead of the next `window` pages.
    Sequential {
        /// Number of consecutive pages to stage.
        window: u32,
    },
}

impl PrefetchKind {
    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn PrefetchPolicy> {
        match self {
            PrefetchKind::None => Box::new(NoPrefetch),
            PrefetchKind::Sequential { window } => Box::new(SequentialPrefetch { window }),
        }
    }
}

/// The no-op prefetcher.
#[derive(Debug, Default)]
pub struct NoPrefetch;

impl PrefetchPolicy for NoPrefetch {
    fn name(&self) -> &'static str {
        "None"
    }

    fn after_miss(&mut self, _page: PageId, _total_pages: u32) -> Vec<PageId> {
        Vec::new()
    }
}

/// Sequential read-ahead: on a miss of page `p`, stage `p+1 … p+window`.
#[derive(Debug)]
pub struct SequentialPrefetch {
    window: u32,
}

impl PrefetchPolicy for SequentialPrefetch {
    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn after_miss(&mut self, page: PageId, total_pages: u32) -> Vec<PageId> {
        (1..=self.window)
            .map(|d| page + d)
            .filter(|&p| p < total_pages)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_prefetches_nothing() {
        let mut p = PrefetchKind::None.build();
        assert!(p.after_miss(10, 100).is_empty());
        assert_eq!(p.name(), "None");
    }

    #[test]
    fn sequential_prefetches_window() {
        let mut p = PrefetchKind::Sequential { window: 3 }.build();
        assert_eq!(p.after_miss(10, 100), vec![11, 12, 13]);
    }

    #[test]
    fn sequential_clips_at_end_of_disk() {
        let mut p = PrefetchKind::Sequential { window: 4 }.build();
        assert_eq!(p.after_miss(98, 100), vec![99]);
        assert!(p.after_miss(99, 100).is_empty());
    }
}
