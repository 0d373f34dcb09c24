//! The Object Manager.
//!
//! Knowledge-model role (Fig. 4): "a given object is requested by the
//! Transaction Manager to the Object Manager that finds out which disk
//! page contains the object". In the evaluation model that is the logical
//! OID → page map — carried as model state because the headline metric
//! (I/O count) is determined by the exact page-reference string, so the
//! model tracks real pages instead of drawing page hits from a probability.
//! VOODB uses logical OIDs throughout; the map absorbs
//! reorganisations cheaply (the contrast with physical-OID Texas).

use clustering::{PageId, Placement, PAGE_HEADER_BYTES, SLOT_ENTRY_BYTES};
use ocb::{ObjectBase, Oid};
use std::collections::BTreeSet;

/// The Object Manager: logical object → page mapping.
#[derive(Debug)]
pub struct ObjectManager {
    page_of: Vec<PageId>,
    /// Objects per page (needed for swizzle-reservation lookups and
    /// reorganisation).
    pages: Vec<Vec<Oid>>,
    page_size: u32,
}

impl ObjectManager {
    /// Builds the manager from an initial placement.
    pub fn new(placement: &Placement) -> Self {
        let pages = (0..placement.page_count())
            .map(|p| placement.objects_in(p).to_vec())
            .collect();
        ObjectManager {
            page_of: (0..placement.len() as Oid)
                .map(|oid| placement.page_of(oid))
                .collect(),
            pages,
            page_size: placement.page_size(),
        }
    }

    /// The page holding `oid`.
    #[inline]
    pub fn page_of(&self, oid: Oid) -> PageId {
        self.page_of[oid as usize]
    }

    /// Number of data pages.
    pub fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Objects currently mapped to `page`.
    pub fn objects_in(&self, page: PageId) -> &[Oid] {
        &self.pages[page as usize]
    }

    /// Distinct pages referenced by the objects of `page` (excluding the
    /// page itself) — what Texas's swizzling reserves when `page` loads.
    pub fn referenced_pages(&self, base: &ObjectBase, page: PageId) -> Vec<PageId> {
        let mut targets = BTreeSet::new();
        for &oid in self.objects_in(page) {
            for &r in base.object(oid).refs.iter() {
                let p = self.page_of(r);
                if p != page {
                    targets.insert(p);
                }
            }
        }
        targets.into_iter().collect()
    }

    /// Applies a reorganisation: `moved` objects (in order) relocate into
    /// fresh pages appended at the end; unmoved objects stay put (their
    /// old pages keep holes). Returns `(source_pages, new_pages)` — the
    /// distinct pages the move reads from and the fresh pages it writes.
    pub fn relocate(&mut self, base: &ObjectBase, moved: &[Oid]) -> (Vec<PageId>, Vec<PageId>) {
        let capacity = self.page_size - PAGE_HEADER_BYTES;
        let mut source_pages: BTreeSet<PageId> = BTreeSet::new();
        // Remove from old pages.
        let mut is_moved = vec![false; self.page_of.len()];
        for &oid in moved {
            if !is_moved[oid as usize] {
                is_moved[oid as usize] = true;
                source_pages.insert(self.page_of(oid));
            }
        }
        for &page in &source_pages {
            self.pages[page as usize].retain(|&oid| !is_moved[oid as usize]);
        }
        // Pack into fresh pages.
        let mut new_pages = Vec::new();
        let mut current: Vec<Oid> = Vec::new();
        let mut used = 0u32;
        let mut seen = vec![false; self.page_of.len()];
        for &oid in moved {
            if seen[oid as usize] {
                continue;
            }
            seen[oid as usize] = true;
            let cost = base.object(oid).size + SLOT_ENTRY_BYTES;
            if used + cost > capacity && !current.is_empty() {
                let id = self.pages.len() as PageId;
                self.pages.push(std::mem::take(&mut current));
                new_pages.push(id);
                used = 0;
            }
            current.push(oid);
            used += cost;
        }
        if !current.is_empty() {
            let id = self.pages.len() as PageId;
            self.pages.push(current);
            new_pages.push(id);
        }
        // Fix page_of for all new pages (simpler than tracking inline).
        for &page in &new_pages {
            for &oid in &self.pages[page as usize] {
                self.page_of[oid as usize] = page;
            }
        }
        (source_pages.into_iter().collect(), new_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::InitialPlacement;
    use ocb::DatabaseParams;

    fn setup() -> (ObjectBase, ObjectManager) {
        let base = ObjectBase::generate(&DatabaseParams::small(), 4);
        let placement = InitialPlacement::OptimizedSequential.build(&base, 4096);
        let oman = ObjectManager::new(&placement);
        (base, oman)
    }

    #[test]
    fn page_map_matches_placement() {
        let base = ObjectBase::generate(&DatabaseParams::small(), 4);
        let placement = InitialPlacement::OptimizedSequential.build(&base, 4096);
        let oman = ObjectManager::new(&placement);
        for (oid, _) in base.iter() {
            assert_eq!(oman.page_of(oid), placement.page_of(oid));
            assert!(oman.objects_in(oman.page_of(oid)).contains(&oid));
        }
        assert_eq!(oman.page_count(), placement.page_count());
    }

    #[test]
    fn referenced_pages_cover_all_targets() {
        let (base, oman) = setup();
        let page = 0;
        let refs = oman.referenced_pages(&base, page);
        for &oid in oman.objects_in(page) {
            for &target in base.object(oid).refs.iter() {
                let tp = oman.page_of(target);
                assert!(tp == page || refs.contains(&tp));
            }
        }
    }

    #[test]
    fn relocate_moves_objects_to_fresh_pages() {
        let (base, mut oman) = setup();
        let before = oman.page_count();
        let moved = vec![0, 50, 100, 150];
        let old_pages: Vec<PageId> = moved.iter().map(|&o| oman.page_of(o)).collect();
        let (src, fresh) = oman.relocate(&base, &moved);
        assert!(!fresh.is_empty());
        assert!(oman.page_count() > before);
        for (&oid, &old) in moved.iter().zip(old_pages.iter()) {
            let now = oman.page_of(oid);
            assert!(now >= before, "object {oid} should be on a fresh page");
            assert!(!oman.objects_in(old).contains(&oid));
            assert!(oman.objects_in(now).contains(&oid));
        }
        // Source pages reported correctly.
        for &old in &old_pages {
            assert!(src.contains(&old));
        }
    }

    #[test]
    fn relocate_dedups_members() {
        let (base, mut oman) = setup();
        let (_, fresh) = oman.relocate(&base, &[7, 7, 7, 8]);
        assert_eq!(fresh.len(), 1);
        let page = oman.page_of(7);
        assert_eq!(oman.objects_in(page).iter().filter(|&&o| o == 7).count(), 1);
    }

    #[test]
    fn unmoved_objects_keep_their_page() {
        let (base, mut oman) = setup();
        let snapshot: Vec<PageId> = (0..base.len() as Oid).map(|o| oman.page_of(o)).collect();
        oman.relocate(&base, &[3, 4]);
        for (oid, &was) in snapshot.iter().enumerate() {
            if oid != 3 && oid != 4 {
                assert_eq!(oman.page_of(oid as Oid), was, "oid {oid} must not move");
            }
        }
    }
}
