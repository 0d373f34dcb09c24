//! Differential test: `BufferPool` under `PolicyKind::Lru` against the
//! stamp-ordered LRU buffer it replaced, kept here as the reference model.

use bufmgr::{AccessOutcome, BufferPool, PageId, PolicyKind};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The reference buffer: residency in a `BTreeMap` (page → dirty), and LRU
/// order as a logical reference stamp per page plus an ordered
/// `(stamp, page)` eviction index whose minimum is the victim.
struct ReferenceLru {
    frames: usize,
    resident: BTreeMap<PageId, bool>,
    stamp_of: HashMap<PageId, u64>,
    by_stamp: BTreeSet<(u64, PageId)>,
    next_stamp: u64,
}

impl ReferenceLru {
    fn new(frames: usize) -> Self {
        ReferenceLru {
            frames,
            resident: BTreeMap::new(),
            stamp_of: HashMap::new(),
            by_stamp: BTreeSet::new(),
            next_stamp: 0,
        }
    }

    fn touch(&mut self, page: PageId) {
        self.forget(page);
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.stamp_of.insert(page, stamp);
        self.by_stamp.insert((stamp, page));
    }

    fn forget(&mut self, page: PageId) {
        if let Some(stamp) = self.stamp_of.remove(&page) {
            self.by_stamp.remove(&(stamp, page));
        }
    }

    fn evict_if_full(&mut self) -> Option<(PageId, bool)> {
        if self.resident.len() < self.frames {
            return None;
        }
        let &(_, victim) = self.by_stamp.first().expect("a full pool has a victim");
        let dirty = self
            .resident
            .remove(&victim)
            .expect("the victim is resident");
        self.forget(victim);
        Some((victim, dirty))
    }

    fn access(&mut self, page: PageId, write: bool) -> AccessOutcome {
        if let Some(dirty) = self.resident.get_mut(&page) {
            *dirty |= write;
            self.touch(page);
            return AccessOutcome::Hit;
        }
        let evicted = self.evict_if_full();
        self.resident.insert(page, write);
        self.touch(page);
        AccessOutcome::Miss { evicted }
    }

    fn prefetch(&mut self, page: PageId) -> Option<(PageId, bool)> {
        if self.resident.contains_key(&page) {
            return None;
        }
        let evicted = self.evict_if_full();
        self.resident.insert(page, false);
        self.touch(page);
        evicted
    }

    fn mark_dirty(&mut self, page: PageId) {
        if let Some(dirty) = self.resident.get_mut(&page) {
            *dirty = true;
        }
    }

    fn invalidate(&mut self, page: PageId) -> Option<bool> {
        let dirty = self.resident.remove(&page)?;
        self.forget(page);
        Some(dirty)
    }

    fn flush_all(&mut self) -> Vec<PageId> {
        let dirty = self
            .resident
            .iter()
            .filter(|&(_, &dirty)| dirty)
            .map(|(&page, _)| page)
            .collect();
        self.resident.clear();
        self.stamp_of.clear();
        self.by_stamp.clear();
        dirty
    }
}

/// The page of trace step `step`: the id space widens along the trace, so
/// the pool keeps meeting pages past its grown table, and raw draws from
/// 900 up land far beyond it.
fn page_at(step: usize, raw: u32) -> PageId {
    if raw >= 900 {
        raw * 37
    } else {
        raw % (4 + step as u32 / 3)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lru_pool_matches_the_stamp_ordered_reference(
        frames in 1usize..16,
        ops in prop::collection::vec((0u8..20, 0u32..1000, prop::bool::ANY), 1..400),
    ) {
        let mut pool = BufferPool::new(frames, PolicyKind::Lru);
        let mut reference = ReferenceLru::new(frames);
        for (step, &(op, raw, write)) in ops.iter().enumerate() {
            let page = page_at(step, raw);
            match op {
                0..=10 => prop_assert_eq!(pool.access(page, write), reference.access(page, write)),
                11..=14 => prop_assert_eq!(pool.prefetch(page), reference.prefetch(page)),
                15..=16 => {
                    pool.mark_dirty(page);
                    reference.mark_dirty(page);
                }
                17..=18 => prop_assert_eq!(pool.invalidate(page), reference.invalidate(page)),
                _ => prop_assert_eq!(pool.flush_all(), reference.flush_all()),
            }
            prop_assert_eq!(pool.resident_count(), reference.resident.len());
            prop_assert_eq!(pool.contains(page), reference.resident.contains_key(&page));
        }
        // Equal counts (checked per step) make this set equality.
        prop_assert!(reference.resident.keys().all(|&page| pool.contains(page)));
        prop_assert_eq!(pool.flush_all(), reference.flush_all());
    }
}
