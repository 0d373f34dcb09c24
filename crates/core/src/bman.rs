//! The Buffering Manager.
//!
//! Knowledge-model role (Fig. 4): "requests the page from the Buffering
//! Manager that checks if the page is present in the memory buffer. If
//! not, it requests the page from the I/O Subsystem." The buffer is
//! simulated exactly rather than approximated: residency, the replacement
//! policy and dirty flags evolve page by page, so the simulated I/O count
//! is a deterministic function of the reference string — like the real
//! engines, unlike an independent-reference approximation.
//!
//! Two modes:
//!
//! * **Standard** — a plain [`BufferPool`] under the configured `PGREP`
//!   policy (O2 and the Table 3 default);
//! * **Swizzling** — the Texas object-loading module: faulting a page
//!   swizzles its pointers, so every loaded page is *dirty* and its
//!   eviction is a swap write. Under memory pressure each miss costs two
//!   I/Os instead of one — the mechanism behind Texas's super-linear
//!   degradation (§4.3.2, Fig. 11).

use bufmgr::{AccessOutcome, BufferPool, PolicyKind};
use clustering::PageId;

/// What an access to the buffer implies for the I/O Subsystem.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BufferDemand {
    /// Pages that must be read from disk (the missed page, promotions of
    /// reserved pages, prefetches).
    pub reads: Vec<PageId>,
    /// Dirty pages that must be written back before their frame is reused.
    pub writes: Vec<PageId>,
    /// Whether the access was a hit (no read for the target page).
    pub hit: bool,
}

impl BufferDemand {
    /// Total I/O operations implied.
    pub fn total_ios(&self) -> usize {
        self.reads.len() + self.writes.len()
    }
}

/// Hit/miss accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct BmanStats {
    /// Accesses finding the page loaded.
    pub hits: u64,
    /// Accesses requiring a disk read.
    pub misses: u64,
    /// Pages dirtied by swizzling (Texas module only).
    pub swizzled: u64,
}

/// The two buffering modes.
enum Mode {
    Standard(BufferPool),
    /// Texas object loading: LRU pool where every miss dirties the loaded
    /// page (pointer swizzling).
    Swizzling(BufferPool),
}

/// The Buffering Manager component.
pub struct BufferingManager {
    mode: Mode,
    stats: BmanStats,
}

impl BufferingManager {
    /// Standard buffer under `policy` with `frames` frames.
    pub fn standard(frames: usize, policy: PolicyKind) -> Self {
        BufferingManager {
            mode: Mode::Standard(BufferPool::new(frames, policy)),
            stats: BmanStats::default(),
        }
    }

    /// Texas-style VM buffer with pointer swizzling on fault (always LRU,
    /// as the OS page cache is).
    pub fn swizzling(frames: usize) -> Self {
        assert!(frames >= 2, "need at least two VM frames");
        BufferingManager {
            mode: Mode::Swizzling(BufferPool::new(frames, PolicyKind::Lru)),
            stats: BmanStats::default(),
        }
    }

    /// Accounting counters.
    pub fn stats(&self) -> BmanStats {
        self.stats
    }

    /// Pages currently occupying frames.
    pub fn occupied(&self) -> usize {
        match &self.mode {
            Mode::Standard(pool) | Mode::Swizzling(pool) => pool.resident_count(),
        }
    }

    /// Accesses `page` (`write` dirties it). In swizzling mode, a miss
    /// additionally dirties the loaded page (Texas rewrote its pointers).
    pub fn access(&mut self, page: PageId, write: bool) -> BufferDemand {
        let mut demand = BufferDemand::default();
        demand.hit = self.access_into(page, write, &mut demand.writes, &mut demand.reads);
        demand
    }

    /// [`Self::access`] into caller-owned buffers: appends the demand's
    /// write-backs to `writes` and its reads to `reads`, and returns
    /// whether the access was a hit. The model keeps the buffers per
    /// transaction, so a miss allocates nothing.
    pub fn access_into(
        &mut self,
        page: PageId,
        write: bool,
        writes: &mut Vec<PageId>,
        reads: &mut Vec<PageId>,
    ) -> bool {
        let swizzle = matches!(self.mode, Mode::Swizzling(_));
        let pool = match &mut self.mode {
            Mode::Standard(pool) | Mode::Swizzling(pool) => pool,
        };
        match pool.access(page, write) {
            AccessOutcome::Hit => {
                self.stats.hits += 1;
                true
            }
            AccessOutcome::Miss { evicted } => {
                self.stats.misses += 1;
                if let Some((victim, true)) = evicted {
                    writes.push(victim);
                }
                reads.push(page);
                if swizzle {
                    pool.mark_dirty(page);
                    self.stats.swizzled += 1;
                }
                false
            }
        }
    }

    /// Stages `page` without hit/miss accounting (prefetch), appending
    /// the demand as [`Self::access_into`] does: a read for the page
    /// unless already present, plus its dirty write-back.
    pub fn prefetch(&mut self, page: PageId, writes: &mut Vec<PageId>, reads: &mut Vec<PageId>) {
        let pool = match &mut self.mode {
            Mode::Standard(pool) | Mode::Swizzling(pool) => pool,
        };
        if !pool.contains(page) {
            if let Some((victim, true)) = pool.prefetch(page) {
                writes.push(victim);
            }
            reads.push(page);
        }
    }

    /// Drops `page` (its content moved during reorganisation). Returns the
    /// page if it was dirty and needs a write-back.
    pub fn invalidate(&mut self, page: PageId) -> Option<PageId> {
        let pool = match &mut self.mode {
            Mode::Standard(pool) | Mode::Swizzling(pool) => pool,
        };
        match pool.invalidate(page) {
            Some(true) => Some(page),
            _ => None,
        }
    }

    /// Empties the buffer (cold restart), returning the dirty pages that
    /// need write-backs.
    pub fn flush_all(&mut self) -> Vec<PageId> {
        match &mut self.mode {
            Mode::Standard(pool) | Mode::Swizzling(pool) => pool.flush_all(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_hit_after_miss() {
        let mut bman = BufferingManager::standard(4, PolicyKind::Lru);
        let d = bman.access(1, false);
        assert!(!d.hit);
        assert_eq!(d.reads, vec![1]);
        let d = bman.access(1, false);
        assert!(d.hit);
        assert_eq!(d.total_ios(), 0);
        assert_eq!(bman.stats().hits, 1);
        assert_eq!(bman.stats().misses, 1);
    }

    #[test]
    fn standard_dirty_eviction_demands_write() {
        let mut bman = BufferingManager::standard(1, PolicyKind::Lru);
        bman.access(1, true);
        let d = bman.access(2, false);
        assert_eq!(d.writes, vec![1]);
        assert_eq!(d.reads, vec![2]);
    }

    #[test]
    fn swizzling_mode_dirties_every_miss() {
        let mut bman = BufferingManager::swizzling(2);
        // Read-only accesses, but the loaded pages are swizzled → dirty.
        let d = bman.access(1, false);
        assert_eq!(d.reads, vec![1]);
        assert!(d.writes.is_empty());
        assert_eq!(bman.stats().swizzled, 1);
        bman.access(2, false);
        // Evicting page 1 costs a swap write even though nothing wrote it.
        let d = bman.access(3, false);
        assert_eq!(d.writes, vec![1], "swizzled page must swap out");
        assert_eq!(d.reads, vec![3]);
    }

    #[test]
    fn swizzling_mode_doubles_ios_under_pressure() {
        // A cyclic scan over 4 pages with 2 frames: standard read-only LRU
        // pays only reads; swizzling pays a write per eviction too.
        let mut standard = BufferingManager::standard(2, PolicyKind::Lru);
        let mut texas = BufferingManager::swizzling(2);
        let mut standard_ios = 0;
        let mut texas_ios = 0;
        for round in 0..3 {
            for page in 0..4 {
                let _ = round;
                standard_ios += standard.access(page, false).total_ios();
                texas_ios += texas.access(page, false).total_ios();
            }
        }
        assert!(
            texas_ios > standard_ios * 3 / 2,
            "{texas_ios} vs {standard_ios}"
        );
    }

    #[test]
    fn swizzled_page_stays_hot_on_hits() {
        let mut bman = BufferingManager::swizzling(4);
        bman.access(1, false);
        let d = bman.access(1, false);
        assert!(d.hit);
        assert_eq!(bman.stats().hits, 1);
        assert_eq!(bman.stats().swizzled, 1, "swizzle once, not per access");
    }

    #[test]
    fn prefetch_loads_without_accounting() {
        let mut bman = BufferingManager::standard(4, PolicyKind::Lru);
        let (mut writes, mut reads) = (Vec::new(), Vec::new());
        bman.prefetch(9, &mut writes, &mut reads);
        assert_eq!((writes, reads), (vec![], vec![9]));
        assert_eq!(bman.stats().misses, 0);
        assert!(bman.access(9, false).hit);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut bman = BufferingManager::standard(4, PolicyKind::Lru);
        bman.access(1, true);
        bman.access(2, false);
        assert_eq!(bman.invalidate(1), Some(1));
        assert_eq!(bman.invalidate(1), None);
        bman.access(3, true);
        let dirty = bman.flush_all();
        assert_eq!(dirty, vec![3]);
        assert_eq!(bman.occupied(), 0);
    }

    #[test]
    fn swizzling_flush_reports_all_loaded_pages_dirty() {
        let mut bman = BufferingManager::swizzling(8);
        bman.access(1, false);
        bman.access(2, false);
        let dirty = bman.flush_all();
        assert_eq!(dirty, vec![1, 2], "every swizzled page swaps out");
        assert_eq!(bman.occupied(), 0);
    }
}
