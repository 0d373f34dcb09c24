//! The virtual disk: page store, I/O counters, and the timing model.
//!
//! The paper reduces the secondary-storage hardware to three parameters
//! (Table 3): `DISKSEA` (search/seek time), `DISKLAT` (rotational latency)
//! and `DISKTRA` (transfer time), with the refinement of Fig. 5: **a page
//! contiguous to the previously loaded page skips search and latency** and
//! pays only the transfer time. [`VirtualDisk`] implements exactly that
//! model, counting every read and write — the "mean number of I/Os" of
//! every figure and table in the paper's evaluation comes from counters
//! like these.
//!
//! Counting and timing need no page content, so an engine's disk holds
//! its data pages as a **recipe** (the object base, the initial placement
//! and its physical-OID map) and builds them, all in one pass, on the
//! first access to their bytes — much as Texas's mapped store exists in
//! memory only once a page faults. A run that never looks inside a page
//! (the O2 engine without clustering) never builds the image.

use crate::oid::PhysicalOid;
use crate::page::SlottedPage;
use crate::storage::serialize_pages;
use clustering::{PageId, Placement};
use ocb::ObjectBase;
use std::cell::OnceCell;

/// Disk timing parameters, in milliseconds (Table 3 / Table 4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskTimings {
    /// `DISKSEA` — head search (seek) time.
    pub search_ms: f64,
    /// `DISKLAT` — rotational latency.
    pub latency_ms: f64,
    /// `DISKTRA` — page transfer time.
    pub transfer_ms: f64,
}

impl DiskTimings {
    /// Table 3 defaults (7.4 / 4.3 / 0.5 ms).
    pub fn table3_default() -> Self {
        DiskTimings {
            search_ms: 7.4,
            latency_ms: 4.3,
            transfer_ms: 0.5,
        }
    }

    /// The O2 server disk of Table 4 (6.3 / 2.99 / 0.7 ms).
    pub fn o2() -> Self {
        DiskTimings {
            search_ms: 6.3,
            latency_ms: 2.99,
            transfer_ms: 0.7,
        }
    }

    /// The Texas host disk of Table 4 (7.4 / 4.3 / 0.5 ms).
    pub fn texas() -> Self {
        DiskTimings::table3_default()
    }

    /// Cost of one random access (Fig. 5 full path).
    pub fn random_access_ms(&self) -> f64 {
        self.search_ms + self.latency_ms + self.transfer_ms
    }

    /// Cost of one contiguous access (Fig. 5 short-circuit).
    pub fn contiguous_access_ms(&self) -> f64 {
        self.transfer_ms
    }
}

/// Read/write I/O counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// Page reads.
    pub reads: u64,
    /// Page writes.
    pub writes: u64,
}

impl IoCounts {
    /// Reads plus writes.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Component-wise difference (`self - earlier`), for interval
    /// measurements.
    pub fn since(&self, earlier: IoCounts) -> IoCounts {
        IoCounts {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
        }
    }
}

/// What an engine's data pages are built from: pass 2 of
/// materialisation over the initial placement.
#[derive(Debug)]
struct Recipe<'a> {
    base: &'a ObjectBase,
    placement: Placement,
    /// The initial logical → physical map (the engine mutates its own
    /// copy as objects move).
    phys_of: Vec<PhysicalOid>,
}

/// A disk of slotted pages with the Fig. 5 cost model.
///
/// Pages `0..data_pages` are the data region, built from the recipe on
/// the first [`peek`](VirtualDisk::peek) or
/// [`peek_mut`](VirtualDisk::peek_mut) of one of them. The pages after it
/// (trailing pages given at construction, then appended pages) are held
/// built.
#[derive(Debug)]
pub struct VirtualDisk<'a> {
    data: OnceCell<Vec<SlottedPage>>,
    recipe: Option<Recipe<'a>>,
    data_pages: u32,
    tail: Vec<SlottedPage>,
    page_size: u32,
    timings: DiskTimings,
    counts: IoCounts,
    elapsed_ms: f64,
    last_page: Option<PageId>,
}

impl<'a> VirtualDisk<'a> {
    /// Creates a disk holding `pages`, every one already built.
    pub fn new(pages: Vec<SlottedPage>, page_size: u32, timings: DiskTimings) -> Self {
        debug_assert!(pages.iter().all(|p| p.page_size() == page_size));
        VirtualDisk {
            data_pages: pages.len() as u32,
            data: OnceCell::from(pages),
            recipe: None,
            tail: Vec::new(),
            page_size,
            timings,
            counts: IoCounts::default(),
            elapsed_ms: 0.0,
            last_page: None,
        }
    }

    /// Creates a disk whose data region is `placement`'s pages, serialised
    /// from `base` with the physical map `phys_of` on first content
    /// access, followed by the built `trailing` pages.
    pub(crate) fn deferred(
        base: &'a ObjectBase,
        placement: Placement,
        phys_of: Vec<PhysicalOid>,
        trailing: Vec<SlottedPage>,
        timings: DiskTimings,
    ) -> Self {
        let page_size = placement.page_size();
        debug_assert!(trailing.iter().all(|p| p.page_size() == page_size));
        VirtualDisk {
            data: OnceCell::new(),
            data_pages: placement.page_count(),
            recipe: Some(Recipe {
                base,
                placement,
                phys_of,
            }),
            tail: trailing,
            page_size,
            timings,
            counts: IoCounts::default(),
            elapsed_ms: 0.0,
            last_page: None,
        }
    }

    /// The data region, built in one pass on the first call.
    fn data(&self) -> &[SlottedPage] {
        self.data.get_or_init(|| {
            let recipe = self.recipe.as_ref().expect("unbuilt data has a recipe");
            serialize_pages(recipe.base, &recipe.placement, &recipe.phys_of)
        })
    }

    /// Data pages built so far: none, or all of them.
    #[cfg(test)]
    pub(crate) fn built_data_pages(&self) -> usize {
        self.data.get().map_or(0, Vec::len)
    }

    /// Number of pages.
    pub fn page_count(&self) -> u32 {
        self.data_pages + self.tail.len() as u32
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// The timing model.
    pub fn timings(&self) -> DiskTimings {
        self.timings
    }

    /// I/O counters so far.
    pub fn counts(&self) -> IoCounts {
        self.counts
    }

    /// Accumulated service time, in ms.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_ms
    }

    /// Resets counters and elapsed time (not the head position).
    pub fn reset_counters(&mut self) {
        self.counts = IoCounts::default();
        self.elapsed_ms = 0.0;
    }

    fn account(&mut self, page: PageId) {
        let contiguous = matches!(self.last_page, Some(last) if page == last + 1);
        self.elapsed_ms += if contiguous {
            self.timings.contiguous_access_ms()
        } else {
            self.timings.random_access_ms()
        };
        self.last_page = Some(page);
    }

    /// Performs (and counts) a page read. The content is reached through
    /// [`VirtualDisk::peek`].
    ///
    /// # Panics
    /// Panics if `page` is out of range.
    pub fn read(&mut self, page: PageId) {
        assert!(page < self.page_count(), "read past end of disk");
        self.counts.reads += 1;
        self.account(page);
    }

    /// Performs (and counts) a write of the page's current in-memory image
    /// (used after patching via [`VirtualDisk::peek_mut`]).
    pub fn write_back(&mut self, page: PageId) {
        assert!(page < self.page_count(), "write past end of disk");
        self.counts.writes += 1;
        self.account(page);
    }

    /// Uncounted access to a page image — models reading from a frame that
    /// already holds the page. Callers must have counted the fetch.
    pub fn peek(&self, page: PageId) -> &SlottedPage {
        match page.checked_sub(self.data_pages) {
            None => &self.data()[page as usize],
            Some(i) => &self.tail[i as usize],
        }
    }

    /// Uncounted mutable access (buffered modification; the write is
    /// counted when the frame is flushed).
    pub fn peek_mut(&mut self, page: PageId) -> &mut SlottedPage {
        match page.checked_sub(self.data_pages) {
            None => {
                self.data();
                &mut self.data.get_mut().expect("data region is built")[page as usize]
            }
            Some(i) => &mut self.tail[i as usize],
        }
    }

    /// Appends a fresh page at the end of the store (counted as one write),
    /// returning its id.
    pub fn append_page(&mut self, content: SlottedPage) -> PageId {
        assert_eq!(content.page_size(), self.page_size);
        let id = self.page_count();
        self.tail.push(content);
        self.counts.writes += 1;
        self.account(id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk(n: u32) -> VirtualDisk<'static> {
        let pages = (0..n).map(|_| SlottedPage::new(4096)).collect();
        VirtualDisk::new(pages, 4096, DiskTimings::table3_default())
    }

    #[test]
    fn reads_and_writes_are_counted() {
        let mut d = disk(10);
        d.read(0);
        d.read(5);
        d.write_back(3);
        assert_eq!(
            d.counts(),
            IoCounts {
                reads: 2,
                writes: 1
            }
        );
        assert_eq!(d.counts().total(), 3);
    }

    #[test]
    fn contiguous_access_skips_search_and_latency() {
        let mut d = disk(10);
        let t = DiskTimings::table3_default();
        d.read(0); // random: 12.2 ms
        d.read(1); // contiguous: 0.5 ms
        d.read(2); // contiguous: 0.5 ms
        d.read(7); // random again
        let expected = t.random_access_ms() * 2.0 + t.contiguous_access_ms() * 2.0;
        assert!((d.elapsed_ms() - expected).abs() < 1e-9);
    }

    #[test]
    fn same_page_reread_is_not_contiguous() {
        let mut d = disk(4);
        let t = DiskTimings::table3_default();
        d.read(2);
        d.read(2); // same page: full cost (head may have rotated)
        assert!((d.elapsed_ms() - 2.0 * t.random_access_ms()).abs() < 1e-9);
    }

    #[test]
    fn peek_is_uncounted() {
        let mut d = disk(3);
        d.peek(0);
        d.peek_mut(1);
        assert_eq!(d.counts().total(), 0);
        d.write_back(1);
        assert_eq!(d.counts().writes, 1);
    }

    #[test]
    fn counts_since_interval() {
        let mut d = disk(5);
        d.read(0);
        let mark = d.counts();
        d.read(1);
        d.write_back(1);
        let delta = d.counts().since(mark);
        assert_eq!(
            delta,
            IoCounts {
                reads: 1,
                writes: 1
            }
        );
    }

    #[test]
    fn reset_counters_keeps_content() {
        let mut d = disk(2);
        let mut page = SlottedPage::new(4096);
        page.insert(b"data");
        d.peek_mut(0).insert(b"data");
        d.write_back(0);
        d.reset_counters();
        assert_eq!(d.counts().total(), 0);
        assert_eq!(d.elapsed_ms(), 0.0);
        assert_eq!(d.peek(0), &page);
    }

    #[test]
    #[should_panic(expected = "past end of disk")]
    fn out_of_range_read_panics() {
        let mut d = disk(1);
        d.read(1);
    }

    #[test]
    fn table4_presets() {
        assert_eq!(DiskTimings::o2().search_ms, 6.3);
        assert_eq!(DiskTimings::texas().latency_ms, 4.3);
        assert!((DiskTimings::o2().random_access_ms() - 9.99).abs() < 1e-9);
    }
}
