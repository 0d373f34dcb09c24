//! Property-based tests of the storage substrate: slotted pages,
//! serialisation, and the virtual disk.

use clustering::{PAGE_HEADER_BYTES, SLOT_ENTRY_BYTES};
use oostore::{
    payload_oid, payload_refs, write_object, DiskTimings, PhysicalOid, SlottedPage, VirtualDisk,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn slotted_page_round_trips_any_payload_set(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..200), 1..30)
    ) {
        let mut page = SlottedPage::new(8192);
        let mut stored = Vec::new();
        for payload in &payloads {
            if page.free_for(payload.len() as u32) {
                stored.push((page.insert(payload), payload.clone()));
            }
        }
        prop_assert!(!stored.is_empty());
        for (slot, expected) in &stored {
            prop_assert_eq!(page.get(*slot), Some(expected.as_slice()));
        }
    }

    #[test]
    fn slotted_page_capacity_formula_is_exact(len in 1u32..1000) {
        // The page accepts payloads until the documented capacity formula
        // says otherwise, and never after.
        let page_size = 4096u32;
        let mut page = SlottedPage::new(page_size);
        let mut inserted = 0u32;
        while page.free_for(len) {
            page.insert(&vec![0xAB; len as usize]);
            inserted += 1;
        }
        let expected = (page_size - PAGE_HEADER_BYTES) / (len + SLOT_ENTRY_BYTES);
        prop_assert_eq!(inserted, expected);
    }

    #[test]
    fn deletion_tombstones_do_not_disturb_neighbours(
        payload_count in 3usize..20,
        delete_index in 0usize..20,
    ) {
        let mut page = SlottedPage::new(4096);
        let slots: Vec<_> = (0..payload_count)
            .map(|i| page.insert(&[i as u8; 32]))
            .collect();
        let victim = slots[delete_index % payload_count];
        page.delete(victim);
        prop_assert_eq!(page.get(victim), None);
        for (i, &slot) in slots.iter().enumerate() {
            if slot != victim {
                prop_assert_eq!(page.get(slot), Some(&[i as u8; 32][..]));
            }
        }
        prop_assert_eq!(page.live_slots().count(), payload_count - 1);
    }

    #[test]
    fn object_serialisation_round_trips(
        oid in any::<u32>(),
        refs in prop::collection::vec((any::<u32>(), any::<u16>()), 0..12),
    ) {
        let refs: Vec<PhysicalOid> = refs
            .into_iter()
            .map(|(page, slot)| PhysicalOid { page, slot })
            .collect();
        let size = (ocb::OBJECT_HEADER_BYTES as usize
            + refs.len() * PhysicalOid::WIRE_BYTES
            + 17) as u32;
        let mut payload = vec![0; size as usize];
        write_object(oid, refs.iter().copied(), &mut payload);
        prop_assert_eq!(payload_oid(&payload), oid);
        prop_assert_eq!(payload_refs(&payload).collect::<Vec<_>>(), refs);
    }

    #[test]
    fn disk_timing_accumulates_with_contiguity(
        accesses in prop::collection::vec(0u32..64, 1..200)
    ) {
        let pages = (0..64).map(|_| SlottedPage::new(4096)).collect();
        let timings = DiskTimings::table3_default();
        let mut disk = VirtualDisk::new(pages, 4096, timings);
        let mut expected = 0.0;
        let mut last: Option<u32> = None;
        for &page in &accesses {
            disk.read(page);
            expected += if last == Some(page.wrapping_sub(1)) && page > 0 {
                timings.contiguous_access_ms()
            } else {
                timings.random_access_ms()
            };
            last = Some(page);
        }
        prop_assert!((disk.elapsed_ms() - expected).abs() < 1e-9);
        prop_assert_eq!(disk.counts().reads, accesses.len() as u64);
    }
}
