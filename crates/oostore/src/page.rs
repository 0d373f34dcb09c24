//! Slotted data pages.
//!
//! The engines store objects in classic slotted pages: a fixed header, a
//! slot directory growing from the front, payloads growing from the back.
//! Layout (offsets in bytes):
//!
//! ```text
//! 0..2    u16  slot count
//! 2..4    u16  payload floor (lowest used payload offset)
//! 4..16   reserved (checksum / LSN slack)
//! 16..    slot directory, 4 bytes per slot: u16 offset, u16 length
//! ..end   payloads, allocated downward from the page end
//! ```
//!
//! The figures match `clustering::placement`: [`PAGE_HEADER_BYTES`] of
//! header and [`SLOT_ENTRY_BYTES`] per object, so a placement computed
//! there always materialises without overflow.

use clustering::{PAGE_HEADER_BYTES, SLOT_ENTRY_BYTES};

/// Slot index within a page.
pub type SlotId = u16;

/// A slotted page of fixed size.
#[derive(Clone, Debug, PartialEq)]
pub struct SlottedPage {
    data: Box<[u8]>,
}

impl SlottedPage {
    /// Creates an empty page of `page_size` bytes.
    ///
    /// # Panics
    /// Panics if `page_size` is not in `(PAGE_HEADER_BYTES, 32768]` (slot
    /// offsets are 16-bit).
    pub fn new(page_size: u32) -> Self {
        assert!(
            page_size > PAGE_HEADER_BYTES && page_size <= 32_768,
            "page size {page_size} out of range"
        );
        let mut data = vec![0; page_size as usize].into_boxed_slice();
        // payload floor starts at the page end.
        let floor = page_size as u16;
        data[2..4].copy_from_slice(&floor.to_le_bytes());
        SlottedPage { data }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.data.len() as u32
    }

    /// Number of slots (including deleted tombstones).
    pub fn slot_count(&self) -> u16 {
        u16::from_le_bytes([self.data[0], self.data[1]])
    }

    fn payload_floor(&self) -> u16 {
        u16::from_le_bytes([self.data[2], self.data[3]])
    }

    fn set_slot_count(&mut self, n: u16) {
        self.data[0..2].copy_from_slice(&n.to_le_bytes());
    }

    fn set_payload_floor(&mut self, f: u16) {
        self.data[2..4].copy_from_slice(&f.to_le_bytes());
    }

    fn slot_entry(&self, slot: SlotId) -> (u16, u16) {
        let base = PAGE_HEADER_BYTES as usize + slot as usize * SLOT_ENTRY_BYTES as usize;
        let offset = u16::from_le_bytes([self.data[base], self.data[base + 1]]);
        let len = u16::from_le_bytes([self.data[base + 2], self.data[base + 3]]);
        (offset, len)
    }

    fn set_slot_entry(&mut self, slot: SlotId, offset: u16, len: u16) {
        let base = PAGE_HEADER_BYTES as usize + slot as usize * SLOT_ENTRY_BYTES as usize;
        self.data[base..base + 2].copy_from_slice(&offset.to_le_bytes());
        self.data[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Free bytes available for one more `insert` of the given payload
    /// length (slot entry included).
    pub fn free_for(&self, payload_len: u32) -> bool {
        let dir_end = PAGE_HEADER_BYTES + (self.slot_count() as u32 + 1) * SLOT_ENTRY_BYTES;
        dir_end + payload_len <= self.payload_floor() as u32
    }

    /// Inserts a payload, returning its slot.
    ///
    /// # Panics
    /// Panics if the payload does not fit (placement bugs should fail loud).
    pub fn insert(&mut self, payload: &[u8]) -> SlotId {
        self.insert_with(payload.len() as u32, |out| out.copy_from_slice(payload))
    }

    /// Reserves a slot of `len` payload bytes and lets `write` fill them
    /// in place (no intermediate buffer), returning the slot.
    ///
    /// # Panics
    /// Panics if the payload does not fit (placement bugs should fail loud).
    pub fn insert_with(&mut self, len: u32, write: impl FnOnce(&mut [u8])) -> SlotId {
        assert!(
            self.free_for(len),
            "page overflow: {len} B payload, {} slots used",
            self.slot_count()
        );
        let floor = self.payload_floor() as u32 - len;
        let slot = self.slot_count();
        write(&mut self.data[floor as usize..(floor + len) as usize]);
        self.set_slot_entry(slot, floor as u16, len as u16);
        self.set_slot_count(slot + 1);
        self.set_payload_floor(floor as u16);
        slot
    }

    /// Reads the payload of `slot`; `None` for deleted slots.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn get(&self, slot: SlotId) -> Option<&[u8]> {
        assert!(slot < self.slot_count(), "slot {slot} out of range");
        let (offset, len) = self.slot_entry(slot);
        if len == 0 {
            None
        } else {
            Some(&self.data[offset as usize..(offset + len) as usize])
        }
    }

    /// Mutable access to the payload of `slot` (for in-place reference
    /// patching; the payload length is fixed).
    pub fn get_mut(&mut self, slot: SlotId) -> Option<&mut [u8]> {
        assert!(slot < self.slot_count(), "slot {slot} out of range");
        let (offset, len) = self.slot_entry(slot);
        if len == 0 {
            None
        } else {
            Some(&mut self.data[offset as usize..(offset + len) as usize])
        }
    }

    /// Deletes `slot`, leaving a tombstone (slot ids of other objects are
    /// stable; the space is not reclaimed until the page is rebuilt).
    pub fn delete(&mut self, slot: SlotId) {
        assert!(slot < self.slot_count(), "slot {slot} out of range");
        let (offset, _) = self.slot_entry(slot);
        self.set_slot_entry(slot, offset, 0);
    }

    /// Live (non-deleted) slots.
    pub fn live_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        (0..self.slot_count()).filter(move |&s| self.slot_entry(s).1 != 0)
    }

    /// Raw page image (for checksum-style comparisons).
    pub fn raw(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_get_round_trips() {
        let mut page = SlottedPage::new(4096);
        let a = page.insert(b"hello");
        let b = page.insert(b"world!");
        assert_eq!(page.get(a), Some(&b"hello"[..]));
        assert_eq!(page.get(b), Some(&b"world!"[..]));
        assert_eq!(page.slot_count(), 2);
    }

    #[test]
    fn insert_with_writes_in_place() {
        let mut page = SlottedPage::new(4096);
        let a = page.insert(b"abc");
        let b = page.insert_with(4, |out| {
            assert_eq!(out.len(), 4);
            out.copy_from_slice(b"wxyz");
        });
        assert_eq!(page.get(a), Some(&b"abc"[..]));
        assert_eq!(page.get(b), Some(&b"wxyz"[..]));
        let mut copied = SlottedPage::new(4096);
        copied.insert(b"abc");
        copied.insert(b"wxyz");
        assert_eq!(page, copied, "same bytes as insert");
    }

    #[test]
    fn payloads_do_not_overlap() {
        let mut page = SlottedPage::new(4096);
        let slots: Vec<SlotId> = (0..10).map(|i| page.insert(&[i as u8; 100])).collect();
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
            page.insert(&[0u8; 100]);
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
        page.insert(&[0u8; 100]);
        page.insert(&[0u8; 100]);
    }

    #[test]
    fn delete_leaves_tombstone_with_stable_slots() {
        let mut page = SlottedPage::new(4096);
        let a = page.insert(b"aaa");
        let b = page.insert(b"bbb");
        let c = page.insert(b"ccc");
        page.delete(b);
        assert_eq!(page.get(b), None);
        assert_eq!(page.get(a), Some(&b"aaa"[..]));
        assert_eq!(page.get(c), Some(&b"ccc"[..]));
        assert_eq!(page.live_slots().collect::<Vec<_>>(), vec![a, c]);
        assert_eq!(page.slot_count(), 3);
    }

    #[test]
    fn get_mut_allows_in_place_patch() {
        let mut page = SlottedPage::new(4096);
        let slot = page.insert(b"patchme!");
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
