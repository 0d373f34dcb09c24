//! Slotted data pages.
//!
//! The engines store objects in classic slotted pages: a fixed header, a
//! slot directory growing from the front, payloads growing from the back.
//! The rendered page image (offsets in bytes):
//!
//! ```text
//! 0..2    u16  slot count
//! 2..4    u16  payload floor (lowest used payload offset)
//! 4..16   reserved (checksum / LSN slack)
//! 16..    slot directory, 4 bytes per slot: u16 offset, u16 length
//! ..end   payloads, allocated downward from the page end
//! ```
//!
//! A page stores only each slot's *stored prefix*: the bytes its writer
//! marks as meaningful (an object's header and reference wires, a whole
//! OID-table payload). The rest of a payload reads as the filler byte
//! `0xA5`, the free gap between directory and payloads as 0, so the
//! image a page renders is the one a writer of every byte would leave,
//! tombstoned payloads included. Every reader of page content reads
//! only stored prefixes.
//!
//! The figures match `clustering::placement`: [`PAGE_HEADER_BYTES`] of
//! header and [`SLOT_ENTRY_BYTES`] per object, so a placement computed
//! there always materialises without overflow.

use clustering::{PAGE_HEADER_BYTES, SLOT_ENTRY_BYTES};

/// Slot index within a page.
pub type SlotId = u16;

/// The byte a payload reads as past its stored prefix (an object's
/// attribute area).
pub(crate) const FILL: u8 = 0xA5;

/// A slotted page of fixed size, holding its stored prefixes only.
///
/// Equality compares rendered page images.
#[derive(Clone, Debug)]
pub struct SlottedPage {
    page_size: u32,
    /// Lowest used payload offset.
    floor: u16,
    /// The slot directory, in slot order.
    slots: Vec<Slot>,
    /// Every slot's stored prefix, in slot order.
    stored: Vec<u8>,
}

/// One directory entry and where its stored prefix lies.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Payload offset in the page image.
    offset: u16,
    /// Full payload length, kept after deletion: a tombstoned payload
    /// still occupies its bytes.
    len: u16,
    /// Stored prefix: start in `SlottedPage::stored` and length.
    at: u32,
    stored: u16,
    live: bool,
}

impl SlottedPage {
    /// Creates an empty page of `page_size` bytes.
    ///
    /// # Panics
    /// Panics if `page_size` is not in `(PAGE_HEADER_BYTES, 32768]` (slot
    /// offsets are 16-bit).
    pub fn new(page_size: u32) -> Self {
        Self::with_capacity(page_size, 0, 0)
    }

    /// Creates an empty page with room for `slots` slots holding
    /// `stored_bytes` stored bytes in all, so that filling it to those
    /// counts allocates nothing more.
    ///
    /// # Panics
    /// As [`SlottedPage::new`].
    pub fn with_capacity(page_size: u32, slots: usize, stored_bytes: usize) -> Self {
        assert!(
            page_size > PAGE_HEADER_BYTES && page_size <= 32_768,
            "page size {page_size} out of range"
        );
        SlottedPage {
            page_size,
            // The payload floor starts at the page end.
            floor: page_size as u16,
            slots: Vec::with_capacity(slots),
            stored: Vec::with_capacity(stored_bytes),
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Number of slots (including deleted tombstones).
    pub fn slot_count(&self) -> u16 {
        self.slots.len() as u16
    }

    /// Free bytes available for one more `insert_with` of the given payload
    /// length (slot entry included).
    pub fn free_for(&self, payload_len: u32) -> bool {
        let dir_end = PAGE_HEADER_BYTES + (self.slot_count() as u32 + 1) * SLOT_ENTRY_BYTES;
        dir_end + payload_len <= u32::from(self.floor)
    }

    /// Reserves a slot of `len` payload bytes whose first `stored` bytes
    /// `write` fills in place (no intermediate buffer); the other
    /// `len - stored` read as the filler byte `0xA5`. Returns the slot.
    ///
    /// # Panics
    /// Panics if `stored > len`, or if the payload does not fit
    /// (placement bugs should fail loud).
    pub fn insert_with(&mut self, len: u32, stored: u32, write: impl FnOnce(&mut [u8])) -> SlotId {
        assert!(
            stored <= len,
            "a {len} B payload cannot hold {stored} stored bytes"
        );
        assert!(
            self.free_for(len),
            "page overflow: {len} B payload, {} slots used",
            self.slot_count()
        );
        let slot = self.slot_count();
        self.floor -= len as u16;
        let at = self.stored.len();
        self.stored.resize(at + stored as usize, 0);
        write(&mut self.stored[at..]);
        self.slots.push(Slot {
            offset: self.floor,
            len: len as u16,
            at: at as u32,
            stored: stored as u16,
            live: len != 0,
        });
        slot
    }

    /// The live directory entry of `slot`; `None` for deleted slots.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    fn live(&self, slot: SlotId) -> Option<Slot> {
        assert!(slot < self.slot_count(), "slot {slot} out of range");
        let entry = self.slots[slot as usize];
        entry.live.then_some(entry)
    }

    /// Reads the stored prefix of `slot`'s payload; `None` for deleted
    /// slots.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn get(&self, slot: SlotId) -> Option<&[u8]> {
        let entry = self.live(slot)?;
        Some(&self.stored[entry.at as usize..][..entry.stored as usize])
    }

    /// Mutable access to the stored prefix of `slot`'s payload (for
    /// in-place reference patching; its length is fixed).
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn get_mut(&mut self, slot: SlotId) -> Option<&mut [u8]> {
        let entry = self.live(slot)?;
        Some(&mut self.stored[entry.at as usize..][..entry.stored as usize])
    }

    /// The full payload length of `slot`, stored prefix and filler;
    /// `None` for deleted slots.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    // audit: page API, the length a stored prefix stands for; the materialisation tests read it
    pub fn payload_len(&self, slot: SlotId) -> Option<u32> {
        self.live(slot).map(|entry| u32::from(entry.len))
    }

    /// Deletes `slot`, leaving a tombstone (slot ids of other objects are
    /// stable; the space is not reclaimed until the page is rebuilt).
    pub fn delete(&mut self, slot: SlotId) {
        assert!(slot < self.slot_count(), "slot {slot} out of range");
        self.slots[slot as usize].live = false;
    }

    /// Stored bytes held, over every slot.
    #[cfg(test)]
    pub(crate) fn stored_bytes(&self) -> usize {
        self.stored.len()
    }

    /// The rendered page image: header, directory, a zero free gap, then
    /// every payload as its stored prefix followed by [`FILL`] (for
    /// checksum-style comparisons).
    pub(crate) fn raw(&self) -> Vec<u8> {
        let mut image = vec![0; self.page_size as usize];
        image[0..2].copy_from_slice(&self.slot_count().to_le_bytes());
        image[2..4].copy_from_slice(&self.floor.to_le_bytes());
        let directory = &mut image[PAGE_HEADER_BYTES as usize..];
        for (entry, slot) in directory
            .chunks_exact_mut(SLOT_ENTRY_BYTES as usize)
            .zip(&self.slots)
        {
            let len = if slot.live { slot.len } else { 0 };
            entry[0..2].copy_from_slice(&slot.offset.to_le_bytes());
            entry[2..4].copy_from_slice(&len.to_le_bytes());
        }
        for slot in &self.slots {
            let payload = &mut image[slot.offset as usize..][..slot.len as usize];
            let (stored, filler) = payload.split_at_mut(slot.stored as usize);
            stored.copy_from_slice(&self.stored[slot.at as usize..][..slot.stored as usize]);
            filler.fill(FILL);
        }
        image
    }
}

impl PartialEq for SlottedPage {
    /// Equal rendered page images: a prefix stored by one page may be
    /// filler implied by the other.
    fn eq(&self, other: &Self) -> bool {
        self.raw() == other.raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserts `payload`, storing every byte of it, through the writer
    /// the engines use.
    fn insert(page: &mut SlottedPage, payload: &[u8]) -> SlotId {
        let len = payload.len() as u32;
        page.insert_with(len, len, |out| out.copy_from_slice(payload))
    }

    #[test]
    fn insert_then_get_round_trips() {
        let mut page = SlottedPage::new(4096);
        let a = insert(&mut page, b"hello");
        let b = insert(&mut page, b"world!");
        assert_eq!(page.get(a), Some(&b"hello"[..]));
        assert_eq!(page.get(b), Some(&b"world!"[..]));
        assert_eq!(page.slot_count(), 2);
    }

    #[test]
    fn insert_with_writes_in_place() {
        let mut page = SlottedPage::new(4096);
        let a = insert(&mut page, b"abc");
        let b = page.insert_with(4, 4, |out| {
            assert_eq!(out.len(), 4);
            out.copy_from_slice(b"wxyz");
        });
        assert_eq!(page.get(a), Some(&b"abc"[..]));
        assert_eq!(page.get(b), Some(&b"wxyz"[..]));
        let mut copied = SlottedPage::new(4096);
        insert(&mut copied, b"abc");
        insert(&mut copied, b"wxyz");
        assert_eq!(page, copied, "same bytes as a copied payload");
    }

    #[test]
    fn unstored_bytes_render_as_filler() {
        let mut compact = SlottedPage::new(4096);
        let a = compact.insert_with(10, 3, |out| out.copy_from_slice(b"abc"));
        let b = insert(&mut compact, b"xyz");
        assert_eq!(compact.get(a), Some(&b"abc"[..]));
        assert_eq!(compact.payload_len(a), Some(10));
        assert_eq!(compact.payload_len(b), Some(3));
        assert_eq!(compact.stored_bytes(), 6);

        let mut full = SlottedPage::new(4096);
        insert(&mut full, &[&b"abc"[..], &[FILL; 7]].concat());
        insert(&mut full, b"xyz");
        assert_eq!(compact, full, "same image as storing every byte");
        let image = compact.raw();
        assert_eq!(&image[4096 - 10..], &[&b"abc"[..], &[FILL; 7]].concat()[..]);
        assert_eq!(&image[4096 - 13..4096 - 10], b"xyz");
        assert!(
            image[24..4096 - 13].iter().all(|&byte| byte == 0),
            "zero free gap"
        );

        compact.delete(a);
        full.delete(0);
        assert_eq!(compact.payload_len(a), None);
        assert_eq!(compact, full, "a tombstoned payload keeps its bytes");
        assert_ne!(compact, SlottedPage::new(4096));
    }

    #[test]
    fn payloads_do_not_overlap() {
        let mut page = SlottedPage::new(4096);
        let slots: Vec<SlotId> = (0..10)
            .map(|i| insert(&mut page, &[i as u8; 100]))
            .collect();
        for (i, &slot) in slots.iter().enumerate() {
            let payload = page.get(slot).unwrap();
            assert_eq!(payload.len(), 100);
            assert!(payload.iter().all(|&b| b == i as u8));
        }
    }

    #[test]
    fn capacity_accounting_matches_placement_constants() {
        let mut page = SlottedPage::new(4096);
        // Capacity = 4096 - 16 = 4080; each 100-byte object costs 104.
        let mut inserted = 0;
        while page.free_for(100) {
            insert(&mut page, &[0u8; 100]);
            inserted += 1;
        }
        assert_eq!(
            inserted,
            (4096 - PAGE_HEADER_BYTES) / (100 + SLOT_ENTRY_BYTES)
        );
    }

    #[test]
    #[should_panic(expected = "page overflow")]
    fn overflow_panics() {
        let mut page = SlottedPage::new(128);
        insert(&mut page, &[0u8; 100]);
        insert(&mut page, &[0u8; 100]);
    }

    #[test]
    fn delete_leaves_tombstone_with_stable_slots() {
        let mut page = SlottedPage::new(4096);
        let a = insert(&mut page, b"aaa");
        let b = insert(&mut page, b"bbb");
        let c = insert(&mut page, b"ccc");
        page.delete(b);
        assert_eq!(page.get(b), None);
        assert_eq!(page.get(a), Some(&b"aaa"[..]));
        assert_eq!(page.get(c), Some(&b"ccc"[..]));
        assert_eq!(page.slot_count(), 3);
    }

    #[test]
    fn get_mut_allows_in_place_patch() {
        let mut page = SlottedPage::new(4096);
        let slot = insert(&mut page, b"patchme!");
        page.get_mut(slot).unwrap()[0] = b'P';
        assert_eq!(page.get(slot), Some(&b"Patchme!"[..]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_slot_panics() {
        let page = SlottedPage::new(4096);
        let _ = page.get(0);
    }
}
