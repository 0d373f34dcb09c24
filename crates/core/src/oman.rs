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
//!
//! The manager holds that map and a page count, nothing per page: a
//! reorganisation appends fresh pages by writing their members' entries,
//! and the holes it leaves in the source pages are never read.

use clustering::{PageId, Placement, PAGE_HEADER_BYTES, SLOT_ENTRY_BYTES};
use ocb::{ObjectBase, Oid};

/// The Object Manager: logical object → page mapping.
#[derive(Debug)]
pub struct ObjectManager {
    page_of: Vec<PageId>,
    page_count: u32,
    page_size: u32,
}

impl ObjectManager {
    /// Builds the manager from an initial placement.
    pub fn new(placement: &Placement) -> Self {
        ObjectManager {
            page_of: placement.page_map().to_vec(),
            page_count: placement.page_count(),
            page_size: placement.page_size(),
        }
    }

    /// The page holding `oid`.
    #[inline]
    pub fn page_of(&self, oid: Oid) -> PageId {
        self.page_of[oid as usize]
    }

    /// Number of data pages.
    #[cfg(test)]
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Applies a reorganisation: `moved` objects (in order; an object
    /// listed again stays with its first occurrence) relocate into fresh
    /// pages appended at the end; unmoved objects stay put (their old
    /// pages keep holes). Returns `(source_pages, new_pages, moved)`: the
    /// distinct pages the move reads from, in page order, the fresh pages
    /// it writes, and the number of distinct objects moved.
    pub fn relocate(
        &mut self,
        base: &ObjectBase,
        moved: impl IntoIterator<Item = Oid>,
    ) -> (Vec<PageId>, Vec<PageId>, usize) {
        let capacity = self.page_size - PAGE_HEADER_BYTES;
        // An object already on a fresh page was moved by an earlier
        // occurrence: the page map is the dedup table.
        let first_fresh = self.page_count;
        let mut source_pages = Vec::new();
        let mut used = 0u32;
        for oid in moved {
            let old = self.page_of[oid as usize];
            if old >= first_fresh {
                continue;
            }
            source_pages.push(old);
            let cost = base.object(oid).size + SLOT_ENTRY_BYTES;
            if self.page_count == first_fresh || used + cost > capacity {
                self.page_count += 1;
                used = 0;
            }
            self.page_of[oid as usize] = self.page_count - 1;
            used += cost;
        }
        let moved = source_pages.len();
        source_pages.sort_unstable();
        source_pages.dedup();
        (
            source_pages,
            (first_fresh..self.page_count).collect(),
            moved,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::InitialPlacement;
    use ocb::DatabaseParams;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn setup() -> (ObjectBase, ObjectManager) {
        let base = ObjectBase::generate(&DatabaseParams::small(), 4);
        let placement = InitialPlacement::OptimizedSequential.build(&base, 4096);
        let oman = ObjectManager::new(&placement);
        (base, oman)
    }

    /// The objects `oman` maps to `page`, in OID order.
    fn members(oman: &ObjectManager, page: PageId) -> Vec<Oid> {
        (0..oman.page_of.len() as Oid)
            .filter(|&oid| oman.page_of(oid) == page)
            .collect()
    }

    /// The Object Manager as it was kept before the flat page map: a
    /// member list per page, reorganised by list edits.
    struct ListOman {
        page_of: Vec<PageId>,
        pages: Vec<Vec<Oid>>,
        page_size: u32,
    }

    impl ListOman {
        fn new(placement: &Placement) -> Self {
            ListOman {
                page_of: placement.page_map().to_vec(),
                pages: (0..placement.page_count())
                    .map(|p| placement.objects_in(p).to_vec())
                    .collect(),
                page_size: placement.page_size(),
            }
        }

        fn relocate(&mut self, base: &ObjectBase, moved: &[Oid]) -> (Vec<PageId>, Vec<PageId>) {
            let capacity = self.page_size - PAGE_HEADER_BYTES;
            let mut source_pages: BTreeSet<PageId> = BTreeSet::new();
            let mut is_moved = vec![false; self.page_of.len()];
            for &oid in moved {
                if !is_moved[oid as usize] {
                    is_moved[oid as usize] = true;
                    source_pages.insert(self.page_of[oid as usize]);
                }
            }
            for &page in &source_pages {
                self.pages[page as usize].retain(|&oid| !is_moved[oid as usize]);
            }
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
                    new_pages.push(self.pages.len() as PageId);
                    self.pages.push(std::mem::take(&mut current));
                    used = 0;
                }
                current.push(oid);
                used += cost;
            }
            if !current.is_empty() {
                new_pages.push(self.pages.len() as PageId);
                self.pages.push(current);
            }
            for &page in &new_pages {
                for &oid in &self.pages[page as usize] {
                    self.page_of[oid as usize] = page;
                }
            }
            (source_pages.into_iter().collect(), new_pages)
        }
    }

    #[test]
    fn page_map_matches_placement() {
        let base = ObjectBase::generate(&DatabaseParams::small(), 4);
        let placement = InitialPlacement::OptimizedSequential.build(&base, 4096);
        let oman = ObjectManager::new(&placement);
        for (oid, _) in base.iter() {
            assert_eq!(oman.page_of(oid), placement.page_of(oid));
        }
        assert_eq!(oman.page_count(), placement.page_count());
        for page in 0..oman.page_count() {
            let mut placed = placement.objects_in(page).to_vec();
            placed.sort_unstable();
            assert_eq!(members(&oman, page), placed, "page {page}");
        }
    }

    #[test]
    fn relocate_moves_objects_to_fresh_pages() {
        let (base, mut oman) = setup();
        let before = oman.page_count();
        let moved = [0, 50, 100, 150];
        let old_pages: Vec<PageId> = moved.iter().map(|&o| oman.page_of(o)).collect();
        let (src, fresh, count) = oman.relocate(&base, moved.iter().copied());
        assert_eq!(count, moved.len());
        assert!(!fresh.is_empty());
        assert!(oman.page_count() > before);
        assert_eq!(fresh, (before..oman.page_count()).collect::<Vec<_>>());
        for (&oid, &old) in moved.iter().zip(old_pages.iter()) {
            let now = oman.page_of(oid);
            assert!(now >= before, "object {oid} should be on a fresh page");
            assert!(!members(&oman, old).contains(&oid));
            assert!(members(&oman, now).contains(&oid));
        }
        // Source pages reported correctly.
        for &old in &old_pages {
            assert!(src.contains(&old));
        }
    }

    #[test]
    fn relocate_dedups_members() {
        let (base, mut oman) = setup();
        let (_, fresh, count) = oman.relocate(&base, [7, 7, 7, 8]);
        assert_eq!(fresh.len(), 1);
        assert_eq!(count, 2);
        assert_eq!(members(&oman, fresh[0]), [7, 8]);
    }

    #[test]
    fn unmoved_objects_keep_their_page() {
        let (base, mut oman) = setup();
        let snapshot: Vec<PageId> = (0..base.len() as Oid).map(|o| oman.page_of(o)).collect();
        oman.relocate(&base, [3, 4]);
        for (oid, &was) in snapshot.iter().enumerate() {
            if oid != 3 && oid != 4 {
                assert_eq!(oman.page_of(oid as Oid), was, "oid {oid} must not move");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The flat page map relocates exactly as the per-page lists did:
        /// same page of every object, same members per page, same page
        /// count, same source and fresh pages, over three reorganisations
        /// of random moved sets that repeat members.
        #[test]
        fn relocate_matches_the_list_oracle(
            seed in 0u64..1_000,
            picks in prop::collection::vec(
                prop::collection::vec(0u32..500, 1..120),
                3,
            ),
        ) {
            let base = ObjectBase::generate(&DatabaseParams::small(), seed);
            let placement = InitialPlacement::OptimizedSequential.build(&base, 4096);
            let mut oman = ObjectManager::new(&placement);
            let mut oracle = ListOman::new(&placement);
            for moved in &picks {
                // Repeat every third pick later in the list.
                let mut moved = moved.clone();
                let again: Vec<Oid> = moved.iter().step_by(3).copied().collect();
                moved.extend(again);
                let (src, fresh, count) = oman.relocate(&base, moved.iter().copied());
                let (want_src, want_fresh) = oracle.relocate(&base, &moved);
                prop_assert_eq!(src, want_src);
                prop_assert_eq!(fresh, want_fresh);
                prop_assert_eq!(count, moved.iter().collect::<BTreeSet<_>>().len());
                prop_assert_eq!(oman.page_count() as usize, oracle.pages.len());
                prop_assert_eq!(&oman.page_of, &oracle.page_of);
                for (page, listed) in (0..).zip(&oracle.pages) {
                    let mut listed = listed.clone();
                    listed.sort_unstable();
                    prop_assert_eq!(members(&oman, page), listed);
                }
            }
        }
    }
}
