//! LRU-K replacement (O'Neil, O'Neil & Weikum, SIGMOD 1993).
//!
//! Ranks pages by **backward K-distance**: the recency of their K-th most
//! recent reference. Pages referenced fewer than K times have infinite
//! backward K-distance and are preferred victims; among them the
//! subsidiary policy is LRU on the last reference, as the original paper
//! suggests. K = 1 degenerates to classical LRU.
//!
//! This is what gives LRU-K its *scan resistance*: a long sequential scan
//! creates pages with a single (recent) reference, all of which rank below
//! a hot page that was referenced twice — even long ago.

use crate::policy::{PageId, ReplacementPolicy};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Eviction-order group: infinite backward K-distance evicts first.
const GROUP_INFINITE: u8 = 0;
/// Pages with a full K-length history.
const GROUP_FINITE: u8 = 1;

/// LRU-K replacement, O(log n) per operation.
#[derive(Debug)]
pub struct LruKPolicy {
    k: usize,
    history: HashMap<PageId, VecDeque<u64>>,
    /// Ordered by (group, key stamp, page); the minimum is the victim.
    index: BTreeSet<(u8, u64, PageId)>,
    next_stamp: u64,
}

impl LruKPolicy {
    /// Creates the policy with history depth `k`.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "LRU-K requires k >= 1");
        LruKPolicy {
            k,
            history: HashMap::new(),
            index: BTreeSet::new(),
            next_stamp: 0,
        }
    }

    /// Eviction key of a page given its reference history.
    fn key_of(k: usize, history: &VecDeque<u64>) -> (u8, u64) {
        debug_assert!(!history.is_empty());
        if history.len() < k {
            // Infinite backward K-distance; subsidiary LRU on the last
            // (most recent) reference.
            (GROUP_INFINITE, *history.back().expect("non-empty"))
        } else {
            // Finite: ranked by the K-th most recent reference (= oldest
            // entry of the K-length window).
            (GROUP_FINITE, *history.front().expect("non-empty"))
        }
    }

    fn touch(&mut self, page: PageId) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let history = self.history.entry(page).or_default();
        if !history.is_empty() {
            let (group, key) = Self::key_of(self.k, history);
            self.index.remove(&(group, key, page));
        }
        history.push_back(stamp);
        if history.len() > self.k {
            history.pop_front();
        }
        let (group, key) = Self::key_of(self.k, history);
        self.index.insert((group, key, page));
    }
}

impl ReplacementPolicy for LruKPolicy {
    fn name(&self) -> &'static str {
        "LRU-K"
    }

    fn on_admit(&mut self, page: PageId) {
        // A page re-admitted after eviction starts with a fresh history
        // (the pool-level variant; the retained-history refinement of the
        // original paper is a tuning choice left open).
        self.history.remove(&page);
        self.touch(page);
    }

    fn on_access(&mut self, page: PageId) {
        self.touch(page);
    }

    fn select_victim(&mut self) -> PageId {
        self.index
            .first()
            .map(|&(_, _, page)| page)
            .expect("LRU-K victim requested on empty pool")
    }

    fn on_evict(&mut self, page: PageId) {
        if let Some(history) = self.history.remove(&page) {
            let (group, key) = Self::key_of(self.k, &history);
            self.index.remove(&(group, key, page));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k1_behaves_like_lru() {
        let mut p = LruKPolicy::new(1);
        p.on_admit(1);
        p.on_admit(2);
        p.on_admit(3);
        p.on_access(1);
        assert_eq!(p.select_victim(), 2);
    }

    #[test]
    fn singly_referenced_pages_evict_before_doubly_referenced() {
        let mut p = LruKPolicy::new(2);
        // Page 1: two references → finite K-distance.
        p.on_admit(1);
        p.on_access(1);
        // Page 2: one (more recent) reference → infinite K-distance.
        p.on_admit(2);
        // LRU would evict page 1; LRU-2 must evict page 2.
        assert_eq!(p.select_victim(), 2);
    }

    #[test]
    fn scan_resistance() {
        // A hot page referenced repeatedly must survive a scan of
        // once-touched pages under LRU-2.
        let mut p = LruKPolicy::new(2);
        p.on_admit(100);
        for _ in 0..5 {
            p.on_access(100);
        }
        for scan in 0..10 {
            p.on_admit(scan);
        }
        let victim = p.select_victim();
        assert_ne!(victim, 100, "hot page must not be the victim");
        assert_eq!(victim, 0, "oldest scan page goes first");
    }

    #[test]
    fn infinite_distance_group_is_lru_ordered() {
        let mut p = LruKPolicy::new(3);
        p.on_admit(1);
        p.on_admit(2);
        p.on_admit(3);
        p.on_access(1); // 1 now more recent than 2 and 3 (all still < K refs).
        assert_eq!(p.select_victim(), 2);
        p.on_evict(2);
        assert_eq!(p.select_victim(), 3);
    }

    #[test]
    fn finite_group_ranked_by_kth_reference() {
        let mut p = LruKPolicy::new(2);
        // Page 1 window: stamps [0, 1]; page 2 window: stamps [2, 3].
        p.on_admit(1);
        p.on_access(1);
        p.on_admit(2);
        p.on_access(2);
        assert_eq!(p.select_victim(), 1);
        // Re-reference 1: window [1, 4] — now page 2's window start (2) is
        // older than page 1's (1)? No: 1 < 2, page 1 still the victim.
        p.on_access(1);
        assert_eq!(p.select_victim(), 1);
        // Another reference: window [4, 5] → page 2 (window start 2) evicts.
        p.on_access(1);
        assert_eq!(p.select_victim(), 2);
    }

    #[test]
    fn eviction_clears_history() {
        let mut p = LruKPolicy::new(2);
        p.on_admit(1);
        p.on_admit(2);
        p.on_evict(1);
        assert_eq!(p.select_victim(), 2);
        // Re-admission starts fresh (infinite distance again).
        p.on_admit(1);
        // Page 2 has the older single reference → still the victim.
        assert_eq!(p.select_victim(), 2);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_rejected() {
        let _ = LruKPolicy::new(0);
    }
}
