//! Physical object placement: OID → page mapping.
//!
//! Table 3 of the paper makes the objects' initial placement a Clustering
//! Manager parameter: `INITPL ∈ {Sequential | Optimized sequential |
//! Other}`, with *Optimized Sequential* the default and the setting used
//! for both O2 and Texas in Table 4. A [`Placement`] is the (logical) map
//! from objects to disk pages; the real engines materialise it in slotted
//! pages, the simulator carries it as model state, because the page
//! reference string — and so the I/O count — depends on the exact
//! placement rather than on a probabilistic page model.
//!
//! Objects never span pages (OCB objects are at most ~2 KB against 4 KB
//! pages); an object larger than the page size is rejected at build time.
//!
//! A placement is three flat arrays, whatever the page count: the page of
//! each object, every object in placement order, and where each page's
//! run of that order starts. [`Placement::objects_in`] is a slice of the
//! order.

use ocb::{ObjectBase, Oid};

/// Bytes reserved at the start of every page for the page header
/// (slot count, free-space pointer, checksum slack). Placement packing and
/// the slotted pages of `oostore` agree on this figure.
pub const PAGE_HEADER_BYTES: u32 = 16;

/// Bytes of slot-directory entry each stored object consumes.
pub const SLOT_ENTRY_BYTES: u32 = 4;

/// Identifier of a data page (dense, `0..page_count`).
pub type PageId = u32;

/// The physical placement of every object of a base, in compressed
/// rows: the objects in placement order, and where each page's run of
/// them starts.
#[derive(Clone, Debug)]
pub struct Placement {
    page_size: u32,
    page_of: Vec<PageId>,
    /// Every object, page after page, in slot order.
    order: Vec<Oid>,
    /// Start of each page's objects in `order`, plus the end.
    page_start: Vec<u32>,
}

impl Placement {
    /// Packs objects into pages following `order` (first-fit in order, new
    /// page when the current one is full).
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of the base's OIDs, or if an
    /// object exceeds the page size.
    pub fn from_order(base: &ObjectBase, page_size: u32, order: Vec<Oid>) -> Self {
        assert!(
            page_size > PAGE_HEADER_BYTES + SLOT_ENTRY_BYTES,
            "page size must exceed the page header"
        );
        let capacity = page_size - PAGE_HEADER_BYTES;
        let n = base.len();
        let mut page_of = vec![u32::MAX; n];
        let mut page_start = vec![0];
        let mut used = 0u32;
        for (at, &oid) in (0u32..).zip(&order) {
            let size = base.object(oid).size + SLOT_ENTRY_BYTES;
            assert!(
                size <= capacity,
                "object {oid} ({size} B with slot entry) exceeds the page \
                 capacity ({capacity} B)"
            );
            assert!(
                page_of[oid as usize] == u32::MAX,
                "oid {oid} appears twice in the placement order"
            );
            if used + size > capacity && at > 0 {
                page_start.push(at);
                used = 0;
            }
            page_of[oid as usize] = (page_start.len() - 1) as PageId;
            used += size;
        }
        assert_eq!(order.len(), n, "placement order must cover every object");
        if n > 0 {
            page_start.push(n as u32);
        }
        Placement {
            page_size,
            page_of,
            order,
            page_start,
        }
    }

    /// The page holding `oid`.
    #[inline]
    pub fn page_of(&self, oid: Oid) -> PageId {
        self.page_of[oid as usize]
    }

    /// Number of data pages.
    pub fn page_count(&self) -> u32 {
        (self.page_start.len() - 1) as u32
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Objects stored in `page`, in slot order.
    pub fn objects_in(&self, page: PageId) -> &[Oid] {
        let page = page as usize;
        &self.order[self.page_start[page] as usize..self.page_start[page + 1] as usize]
    }

    /// The page of every object, by OID.
    pub fn page_map(&self) -> &[PageId] {
        &self.page_of
    }

    /// Number of objects placed.
    pub fn len(&self) -> usize {
        self.page_of.len()
    }

    /// True when no object is placed.
    pub fn is_empty(&self) -> bool {
        self.page_of.is_empty()
    }

    /// Bytes used in `page`.
    #[cfg(test)]
    pub fn page_bytes(&self, base: &ObjectBase, page: PageId) -> u32 {
        self.objects_in(page)
            .iter()
            .map(|&oid| base.object(oid).size)
            .sum()
    }

    /// Mean page fill factor in `[0, 1]`.
    #[cfg(test)]
    pub fn fill_factor(&self, base: &ObjectBase) -> f64 {
        if self.page_count() == 0 {
            return 0.0;
        }
        let used: u64 = (0..self.page_count())
            .map(|p| self.page_bytes(base, p) as u64)
            .sum();
        used as f64 / (u64::from(self.page_count()) * self.page_size as u64) as f64
    }
}

/// The initial-placement policies of Table 3 (`INITPL`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitialPlacement {
    /// Objects packed in OID (creation) order.
    Sequential,
    /// Objects grouped by class, classes in schema order — the default of
    /// Table 3 and the setting of both validated systems (Table 4). "All
    /// instances of a class together" is the classic static optimisation.
    OptimizedSequential,
    /// Objects packed in a seeded random order (worst-case control).
    Random {
        /// Shuffle seed.
        seed: u64,
    },
}

impl InitialPlacement {
    /// Builds the placement over `base` with `page_size`-byte pages.
    pub fn build(self, base: &ObjectBase, page_size: u32) -> Placement {
        match self {
            InitialPlacement::Sequential => {
                Placement::from_order(base, page_size, (0..base.len() as Oid).collect())
            }
            InitialPlacement::OptimizedSequential => {
                let mut order = Vec::with_capacity(base.len());
                for class in 0..base.schema().len() {
                    order.extend_from_slice(base.class_instances(class as u32));
                }
                Placement::from_order(base, page_size, order)
            }
            InitialPlacement::Random { seed } => {
                let mut order: Vec<Oid> = (0..base.len() as Oid).collect();
                desp::RandomStream::new(seed).shuffle(&mut order);
                Placement::from_order(base, page_size, order)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocb::DatabaseParams;

    fn base() -> ObjectBase {
        ObjectBase::generate(&DatabaseParams::small(), 3)
    }

    #[test]
    fn every_object_is_placed_once() {
        let base = base();
        for placement in [
            InitialPlacement::Sequential.build(&base, 4096),
            InitialPlacement::OptimizedSequential.build(&base, 4096),
            InitialPlacement::Random { seed: 9 }.build(&base, 4096),
        ] {
            assert_eq!(placement.len(), base.len());
            let mut seen = vec![false; base.len()];
            for page in 0..placement.page_count() {
                for &oid in placement.objects_in(page) {
                    assert!(!seen[oid as usize], "oid {oid} placed twice");
                    seen[oid as usize] = true;
                    assert_eq!(placement.page_of(oid), page);
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn pages_respect_capacity() {
        let base = base();
        let placement = InitialPlacement::Sequential.build(&base, 4096);
        for page in 0..placement.page_count() {
            assert!(placement.page_bytes(&base, page) <= 4096);
        }
        // Tight packing: fill factor should be decent.
        assert!(placement.fill_factor(&base) > 0.5);
    }

    #[test]
    fn optimized_sequential_groups_classes() {
        let base = base();
        let placement = InitialPlacement::OptimizedSequential.build(&base, 4096);
        // Walking pages in order, the class sequence must be monotone
        // (each class's instances are contiguous).
        let mut last_class = 0;
        let mut switches = 0;
        for page in 0..placement.page_count() {
            for &oid in placement.objects_in(page) {
                let class = base.object(oid).class;
                if class != last_class {
                    switches += 1;
                    last_class = class;
                }
            }
        }
        // NC-1 switches exactly (10 classes in the small base).
        assert_eq!(switches, base.schema().len() - 1);
    }

    #[test]
    fn sequential_follows_oid_order() {
        let base = base();
        let placement = InitialPlacement::Sequential.build(&base, 4096);
        let mut prev = None;
        for page in 0..placement.page_count() {
            for &oid in placement.objects_in(page) {
                if let Some(p) = prev {
                    assert!(oid > p);
                }
                prev = Some(oid);
            }
        }
    }

    #[test]
    fn random_differs_from_sequential() {
        let base = base();
        let seq = InitialPlacement::Sequential.build(&base, 4096);
        let rnd = InitialPlacement::Random { seed: 4 }.build(&base, 4096);
        let moved = (0..base.len() as Oid)
            .filter(|&oid| seq.page_of(oid) != rnd.page_of(oid))
            .count();
        assert!(moved > base.len() / 2);
    }

    #[test]
    #[should_panic(expected = "exceeds the page capacity")]
    fn oversized_object_rejected() {
        let base = base();
        // 64-byte pages leave 48 bytes of capacity; the smallest OCB object
        // (≥ 50 bytes + slot entry) cannot fit.
        let _ = InitialPlacement::Sequential.build(&base, 64);
    }

    #[test]
    #[should_panic(expected = "page size must exceed")]
    fn degenerate_page_size_rejected() {
        let base = base();
        let _ = InitialPlacement::Sequential.build(&base, 16);
    }
}
