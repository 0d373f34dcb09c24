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
//! its object pages as a **recipe** and renders them, all in one pass, on
//! the first access to their bytes — much as Texas's mapped store exists
//! in memory only once a page faults. The recipe is the object base, the
//! initial placement and its physical-OID map, then every reorganisation
//! logged since (`Reorganisation`: its plan and the root map it started
//! from), replayed in order. A reorganisation logged once the image is
//! rendered applies at once. A run that never looks inside a page (the O2
//! engine without clustering, Texas in release) never renders the image.

use crate::oid::PhysicalOid;
use crate::page::SlottedPage;
use crate::reorg::Reorganisation;
use crate::storage::serialize_pages;
use bufmgr::{DiskTimings, IoCounts};
use clustering::{PageId, Placement};
use ocb::ObjectBase;
use std::cell::OnceCell;

/// What an engine's object pages are rendered from: pass 2 of
/// materialisation over the initial placement, then the logged
/// reorganisations.
#[derive(Debug)]
struct Recipe<'a> {
    base: &'a ObjectBase,
    placement: Placement,
    /// The initial logical → physical map (the engine mutates its own
    /// copy as objects move).
    phys_of: Vec<PhysicalOid>,
    /// Reorganisations logged before the image was rendered, in order.
    reorganisations: Vec<Reorganisation>,
}

/// The rendered object pages: the data region, then every page a
/// reorganisation appended. The held pages between them are not in it.
#[derive(Debug)]
pub(crate) struct Image {
    pages: Vec<SlottedPage>,
    data_pages: u32,
    held: u32,
}

impl Image {
    /// Number of pages on the disk the image belongs to, held ones
    /// included.
    pub(crate) fn page_count(&self) -> u32 {
        self.pages.len() as u32 + self.held
    }

    /// Index of `page` in `pages`; `None` for a held page.
    fn index(&self, page: PageId) -> Option<usize> {
        match page.checked_sub(self.data_pages) {
            Some(i) if i < self.held => None,
            Some(_) => Some((page - self.held) as usize),
            None => Some(page as usize),
        }
    }

    /// The rendered `page`; `None` for a held page.
    ///
    /// # Panics
    /// Panics if `page` is out of range.
    pub(crate) fn page_mut(&mut self, page: PageId) -> Option<&mut SlottedPage> {
        let index = self.index(page)?;
        Some(&mut self.pages[index])
    }

    /// Appends a page at the end of the disk.
    pub(crate) fn push(&mut self, page: SlottedPage) {
        self.pages.push(page);
    }
}

/// A disk of slotted pages with the Fig. 5 cost model.
///
/// Pages `0..data_pages` are the data region. The pages after it are
/// first the *held* pages given at construction (built, and written in
/// place), then the pages reorganisations append. The data region and
/// the appended pages are rendered from the recipe on the first
/// [`peek`](VirtualDisk::peek) or [`peek_mut`](VirtualDisk::peek_mut) of
/// one of them.
#[derive(Debug)]
pub struct VirtualDisk<'a> {
    image: OnceCell<Image>,
    recipe: Option<Recipe<'a>>,
    data_pages: u32,
    held: Vec<SlottedPage>,
    /// Pages appended by reorganisations, rendered or not.
    appended: u32,
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
        let data_pages = pages.len() as u32;
        VirtualDisk {
            image: OnceCell::from(Image {
                pages,
                data_pages,
                held: 0,
            }),
            recipe: None,
            data_pages,
            held: Vec::new(),
            appended: 0,
            page_size,
            timings,
            counts: IoCounts::default(),
            elapsed_ms: 0.0,
            last_page: None,
        }
    }

    /// Creates a disk whose data region is `placement`'s pages, serialised
    /// from `base` with the physical map `phys_of` on first content
    /// access, followed by the built `held` pages.
    pub(crate) fn deferred(
        base: &'a ObjectBase,
        placement: Placement,
        phys_of: Vec<PhysicalOid>,
        held: Vec<SlottedPage>,
        timings: DiskTimings,
    ) -> Self {
        let page_size = placement.page_size();
        debug_assert!(held.iter().all(|p| p.page_size() == page_size));
        VirtualDisk {
            image: OnceCell::new(),
            data_pages: placement.page_count(),
            recipe: Some(Recipe {
                base,
                placement,
                phys_of,
                reorganisations: Vec::new(),
            }),
            held,
            appended: 0,
            page_size,
            timings,
            counts: IoCounts::default(),
            elapsed_ms: 0.0,
            last_page: None,
        }
    }

    /// The rendered object pages, built in one pass on the first call.
    fn image(&self) -> &Image {
        self.image.get_or_init(|| {
            let recipe = self
                .recipe
                .as_ref()
                .expect("an unrendered image has a recipe");
            let mut image = Image {
                pages: serialize_pages(recipe.base, &recipe.placement, &recipe.phys_of),
                data_pages: self.data_pages,
                held: self.held.len() as u32,
            };
            for reorganisation in &recipe.reorganisations {
                reorganisation.apply(recipe.base, &mut image);
            }
            image
        })
    }

    /// Index of `page` among the held pages, if it is one.
    fn held_index(&self, page: PageId) -> Option<usize> {
        let i = page.checked_sub(self.data_pages)? as usize;
        (i < self.held.len()).then_some(i)
    }

    /// Object pages rendered so far: none, or all of them.
    #[cfg(test)]
    pub(crate) fn built_data_pages(&self) -> usize {
        self.image.get().map_or(0, |image| image.pages.len())
    }

    /// Number of pages.
    pub fn page_count(&self) -> u32 {
        self.data_pages + self.held.len() as u32 + self.appended
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.page_size
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
        match self.held_index(page) {
            Some(i) => &self.held[i],
            None => {
                let image = self.image();
                &image.pages[image.index(page).expect("not a held page")]
            }
        }
    }

    /// Uncounted mutable access (buffered modification; the write is
    /// counted when the frame is flushed).
    pub fn peek_mut(&mut self, page: PageId) -> &mut SlottedPage {
        match self.held_index(page) {
            Some(i) => &mut self.held[i],
            None => {
                self.image();
                let image = self.image.get_mut().expect("the image is rendered");
                image.page_mut(page).expect("not a held page")
            }
        }
    }

    /// Logs `reorganisation` and appends its fresh pages at the end of
    /// the store (counted as one write each). Its byte edits apply at
    /// once if the image is rendered, or else when it is.
    pub(crate) fn reorganise(&mut self, reorganisation: Reorganisation) {
        let first = self.page_count();
        let fresh = reorganisation.fresh_pages();
        let recipe = self
            .recipe
            .as_mut()
            .expect("a reorganised disk has a recipe");
        match self.image.get_mut() {
            Some(image) => reorganisation.apply(recipe.base, image),
            None => recipe.reorganisations.push(reorganisation),
        }
        self.appended += fresh;
        for page in first..first + fresh {
            self.write_back(page);
        }
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
        let data = |out: &mut [u8]| out.copy_from_slice(b"data");
        page.insert_with(4, 4, data);
        d.peek_mut(0).insert_with(4, 4, data);
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
