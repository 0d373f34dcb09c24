//! The buffer pool: frames, residency and replacement.
//!
//! This is the state the paper's Buffering Manager maintains: `BUFFSIZE`
//! frames of `PGSIZE` bytes managed under a replacement policy (`PGREP`).
//! The pool is shared by the *real* engines of `oostore` (where a miss
//! triggers an actual virtual-disk read) and by the `voodb` simulator
//! (where a miss schedules a simulated I/O) — both sides of the paper's
//! validation see the identical replacement behaviour.

use crate::policy::{PageId, PolicyKind, ReplacementPolicy};

/// Residency-table entry of a page not in the pool.
const ABSENT: u8 = 0;
/// Entry of a resident page with nothing to write back.
const CLEAN: u8 = 1;
/// Entry of a resident page that costs a write-back on eviction.
const DIRTY: u8 = 2;

/// Result of a page access against the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The page was resident; no I/O needed.
    Hit,
    /// The page was not resident; it now is. `evicted` reports the page
    /// that lost its frame, with its dirty flag (a dirty eviction costs a
    /// write I/O before the read).
    Miss {
        /// Page evicted to make room, if the pool was full.
        evicted: Option<(PageId, bool)>,
    },
}

impl AccessOutcome {
    /// True for [`AccessOutcome::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// A buffer pool of `frames` page frames under a replacement policy.
/// It counts nothing: each access reports its [`AccessOutcome`], and the
/// caller keeps whatever statistics it reports.
///
/// Residency costs O(1) per operation: a table indexed by page id, grown
/// on demand (page ids are dense disk ids, and reorganisations append
/// pages), so steady-state operation allocates nothing.
pub struct BufferPool {
    frames: usize,
    // Residency by page id: ABSENT, CLEAN or DIRTY. The flush_all scan
    // walks it in ascending page order, independent of any hash seed.
    state: Vec<u8>,
    resident: usize,
    policy: Box<dyn ReplacementPolicy>,
}

impl BufferPool {
    /// Creates a pool with `frames` frames and the given policy.
    ///
    /// # Panics
    /// Panics if `frames` is zero.
    pub fn new(frames: usize, policy: PolicyKind) -> Self {
        assert!(frames > 0, "buffer pool needs at least one frame");
        BufferPool {
            frames,
            state: Vec::new(),
            resident: 0,
            policy: policy.build(),
        }
    }

    /// Number of resident pages.
    // audit: the residency properties of `tests/properties.rs` and `tests/lru_reference.rs` read it
    pub fn resident_count(&self) -> usize {
        self.resident
    }

    /// Is `page` resident?
    pub fn contains(&self, page: PageId) -> bool {
        self.state
            .get(page as usize)
            .is_some_and(|&state| state != ABSENT)
    }

    /// Accesses `page`; `write` marks the page dirty. Returns whether the
    /// access hit and which page (if any) was evicted.
    pub fn access(&mut self, page: PageId, write: bool) -> AccessOutcome {
        if let Some(state) = self
            .state
            .get_mut(page as usize)
            .filter(|state| **state != ABSENT)
        {
            if write {
                *state = DIRTY;
            }
            self.policy.on_access(page);
            return AccessOutcome::Hit;
        }
        let evicted = self.evict_if_full();
        self.admit(page, write);
        self.policy.on_access(page);
        AccessOutcome::Miss { evicted }
    }

    /// Brings `page` in without an access (prefetch path): the policy
    /// sees an admission but no reference.
    /// Returns the eviction performed, if any; `None` also when the page
    /// was already resident.
    pub fn prefetch(&mut self, page: PageId) -> Option<(PageId, bool)> {
        if self.contains(page) {
            return None;
        }
        let evicted = self.evict_if_full();
        self.admit(page, false);
        evicted
    }

    /// Marks a resident page dirty without counting an access (a miss
    /// whose loading side-effect modified the page, e.g. Texas's pointer
    /// swizzling). No-op for non-resident pages.
    pub fn mark_dirty(&mut self, page: PageId) {
        if let Some(state) = self
            .state
            .get_mut(page as usize)
            .filter(|state| **state != ABSENT)
        {
            *state = DIRTY;
        }
    }

    /// Drops `page` from the pool (reorganisation invalidation). Returns
    /// whether the dropped page was dirty.
    pub fn invalidate(&mut self, page: PageId) -> Option<bool> {
        let dirty = self.remove(page)?;
        self.policy.on_evict(page);
        Some(dirty)
    }

    /// Empties the pool, returning the dirty pages that would need a
    /// write-back, in ascending page order.
    pub fn flush_all(&mut self) -> Vec<PageId> {
        let mut dirty_pages = Vec::new();
        for (page, state) in self.state.iter_mut().enumerate() {
            if *state != ABSENT {
                self.policy.on_evict(page as PageId);
                if *state == DIRTY {
                    dirty_pages.push(page as PageId);
                }
                *state = ABSENT;
            }
        }
        self.resident = 0;
        dirty_pages
    }

    /// Evicts the policy's victim when every frame is taken.
    fn evict_if_full(&mut self) -> Option<(PageId, bool)> {
        if self.resident < self.frames {
            return None;
        }
        let victim = self.policy.select_victim();
        let dirty = self
            .remove(victim)
            .expect("policy returned a non-resident victim");
        self.policy.on_evict(victim);
        Some((victim, dirty))
    }

    /// Makes the non-resident `page` resident and tells the policy.
    fn admit(&mut self, page: PageId, dirty: bool) {
        let index = page as usize;
        if index >= self.state.len() {
            self.state.resize(index + 1, ABSENT);
        }
        self.state[index] = if dirty { DIRTY } else { CLEAN };
        self.resident += 1;
        self.policy.on_admit(page);
    }

    /// Drops `page` from the table: whether it was dirty, or `None` when
    /// it was not resident.
    fn remove(&mut self, page: PageId) -> Option<bool> {
        let state = self.state.get_mut(page as usize)?;
        let was = std::mem::replace(state, ABSENT);
        if was == ABSENT {
            return None;
        }
        self.resident -= 1;
        Some(was == DIRTY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lru_pool(frames: usize) -> BufferPool {
        BufferPool::new(frames, PolicyKind::Lru)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut pool = lru_pool(2);
        assert!(!pool.access(1, false).is_hit());
        assert!(pool.access(1, false).is_hit());
    }

    #[test]
    fn eviction_when_full() {
        let mut pool = lru_pool(2);
        pool.access(1, false);
        pool.access(2, false);
        let outcome = pool.access(3, false);
        assert_eq!(
            outcome,
            AccessOutcome::Miss {
                evicted: Some((1, false))
            }
        );
        assert!(!pool.contains(1));
        assert!(pool.contains(2) && pool.contains(3));
        assert_eq!(pool.resident_count(), 2);
    }

    #[test]
    fn dirty_pages_reported_on_eviction() {
        let mut pool = lru_pool(1);
        pool.access(1, true);
        let outcome = pool.access(2, false);
        assert_eq!(
            outcome,
            AccessOutcome::Miss {
                evicted: Some((1, true))
            }
        );
    }

    #[test]
    fn write_hit_dirties_page() {
        let mut pool = lru_pool(1);
        pool.access(1, false);
        pool.access(1, true); // dirty via hit
        let outcome = pool.access(2, false);
        assert_eq!(
            outcome,
            AccessOutcome::Miss {
                evicted: Some((1, true))
            }
        );
    }

    #[test]
    fn prefetch_does_not_count_as_access() {
        let mut pool = lru_pool(2);
        assert!(pool.prefetch(1).is_none());
        assert!(pool.contains(1));
        assert!(pool.access(1, false).is_hit());
    }

    #[test]
    fn prefetch_evicts_when_full() {
        let mut pool = lru_pool(1);
        pool.access(1, true);
        let evicted = pool.prefetch(2);
        assert_eq!(evicted, Some((1, true)));
    }

    #[test]
    fn invalidate_removes_page() {
        let mut pool = lru_pool(2);
        pool.access(1, true);
        assert_eq!(pool.invalidate(1), Some(true));
        assert_eq!(pool.invalidate(1), None);
        assert!(!pool.contains(1));
    }

    #[test]
    fn flush_all_reports_dirty_pages() {
        let mut pool = lru_pool(4);
        pool.access(1, true);
        pool.access(2, false);
        pool.access(3, true);
        let dirty = pool.flush_all();
        assert_eq!(dirty, vec![1, 3]);
        assert_eq!(pool.resident_count(), 0);
    }

    #[test]
    fn working_set_smaller_than_pool_never_misses_after_warmup() {
        let mut pool = lru_pool(10);
        for round in 0..5 {
            for page in 0..10 {
                let outcome = pool.access(page, false);
                assert_eq!(outcome.is_hit(), round > 0, "round {round} page {page}");
            }
        }
    }

    #[test]
    fn sequential_scan_thrashes_lru() {
        // Scan of N+1 pages over N frames: classic LRU worst case, every
        // access misses.
        let mut pool = lru_pool(4);
        for _ in 0..3 {
            for page in 0..5 {
                assert!(!pool.access(page, false).is_hit());
            }
        }
    }

    #[test]
    fn every_policy_maintains_residency_invariant() {
        for kind in PolicyKind::all_default() {
            let mut pool = BufferPool::new(8, kind);
            // Deterministic mixed workload.
            let mut misses = 0;
            for i in 0..1000u32 {
                let page = (i * 7 + i / 3) % 40;
                misses += u32::from(!pool.access(page, i % 5 == 0).is_hit());
                assert!(pool.resident_count() <= 8, "{kind}: pool overflow");
            }
            assert!(misses >= 40, "{kind}: at least compulsory misses");
        }
    }
}
