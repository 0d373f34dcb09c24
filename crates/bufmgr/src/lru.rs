//! LRU replacement: evict the least recently used page.
//!
//! This is the Table 3 default (`LRU-1`) and the policy both O2 and Texas
//! are parameterised with in Table 4 of the paper.

use crate::policy::{PageId, ReplacementPolicy};

/// Node index of the list's sentinel; page `p` is node `p + 1`.
const SENTINEL: u32 = 0;
/// Link value of a node that is not in the recency list.
const UNLINKED: u32 = u32::MAX;

/// Least-recently-used replacement, O(1) per operation.
///
/// Recency is an intrusive doubly-linked list threaded through
/// page-indexed `prev`/`next` arrays, least recently used first: a
/// reference moves the page to the tail and the victim is the head. The
/// arrays grow on demand to the highest page seen (page ids are dense disk
/// ids), so steady-state operation allocates nothing.
#[derive(Debug)]
pub struct LruPolicy {
    // Node links; the sentinel (node 0) closes the list into a ring, so
    // `next[0]` is the least recently used page and `prev[0]` the most.
    prev: Vec<u32>,
    next: Vec<u32>,
}

impl Default for LruPolicy {
    fn default() -> Self {
        LruPolicy {
            prev: vec![SENTINEL],
            next: vec![SENTINEL],
        }
    }
}

impl LruPolicy {
    /// Creates an empty policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn node(page: PageId) -> usize {
        page as usize + 1
    }

    fn unlink(&mut self, node: usize) {
        let (prev, next) = (self.prev[node], self.next[node]);
        self.next[prev as usize] = next;
        self.prev[next as usize] = prev;
        self.prev[node] = UNLINKED;
        self.next[node] = UNLINKED;
    }

    /// Makes `page` the most recently used page.
    fn touch(&mut self, page: PageId) {
        let node = Self::node(page);
        if node >= self.next.len() {
            self.prev.resize(node + 1, UNLINKED);
            self.next.resize(node + 1, UNLINKED);
        } else if self.next[node] != UNLINKED {
            self.unlink(node);
        }
        let tail = self.prev[SENTINEL as usize];
        self.next[tail as usize] = node as u32;
        self.prev[node] = tail;
        self.next[node] = SENTINEL;
        self.prev[SENTINEL as usize] = node as u32;
    }
}

impl ReplacementPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn on_admit(&mut self, page: PageId) {
        self.touch(page);
    }

    fn on_access(&mut self, page: PageId) {
        self.touch(page);
    }

    fn select_victim(&mut self) -> PageId {
        let head = self.next[SENTINEL as usize];
        assert_ne!(head, SENTINEL, "LRU victim requested on empty pool");
        head - 1
    }

    fn on_evict(&mut self, page: PageId) {
        let node = Self::node(page);
        if self.next.get(node).is_some_and(|&next| next != UNLINKED) {
            self.unlink(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut p = LruPolicy::new();
        p.on_admit(1);
        p.on_admit(2);
        p.on_admit(3);
        // Reference 1: now 2 is the LRU page.
        p.on_access(1);
        assert_eq!(p.select_victim(), 2);
        p.on_evict(2);
        assert_eq!(p.select_victim(), 3);
    }

    #[test]
    fn repeated_access_keeps_page_hot() {
        let mut p = LruPolicy::new();
        for page in 0..5 {
            p.on_admit(page);
        }
        for _ in 0..10 {
            p.on_access(0);
        }
        assert_eq!(p.select_victim(), 1);
    }

    #[test]
    fn eviction_removes_page_from_index() {
        let mut p = LruPolicy::new();
        p.on_admit(7);
        p.on_admit(8);
        p.on_evict(7);
        assert_eq!(p.select_victim(), 8);
    }
}
