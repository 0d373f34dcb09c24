//! Object serialisation and database materialisation.
//!
//! Objects are stored with their references **embedded as physical OIDs in
//! the payload** — exactly the property that makes clustering expensive in
//! a physical-OID store: after objects move, the references in every page
//! that points at them are stale and must be patched.
//!
//! Payload layout (`size` bytes total, `size ≥ OBJECT_HEADER_BYTES +
//! nrefs·BYTES_PER_REF` guaranteed by OCB generation):
//!
//! ```text
//! 0..4        u32  logical OID (sanity / debugging)
//! 4..8        u32  reference count
//! 8..16       reserved
//! 16..16+8n   physical OIDs of the n references
//! ..size      attribute payload: implied, not stored
//! ```
//!
//! A page stores the header and the references, the payload's *stored
//! prefix*; the attribute area reads as the page's filler byte and no
//! reader looks at it. Payloads are encoded and decoded in place:
//! [`write_object`] fills the prefix that [`SlottedPage::insert_with`]
//! reserves, [`payload_refs`] decodes references lazily, and
//! [`patch_refs`] rewrites them where they lie. A page's storage is
//! reserved once from its members, so building or scanning a page
//! allocates nothing per object.

use crate::oid::PhysicalOid;
use crate::page::{SlotId, SlottedPage, FILL};
use clustering::Placement;
use ocb::{ObjectBase, Oid, OBJECT_HEADER_BYTES};

#[cfg(test)]
thread_local! {
    /// Test switch: store every payload byte, attribute filler included,
    /// so tests can check compact pages against full-byte ones.
    pub(crate) static STORE_FULL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Encodes one object in place: `refs` are the physical OIDs of its
/// reference targets, and `out` is its stored prefix (header and
/// references) or a longer prefix of its payload, whose bytes past the
/// references are written as the attribute filler.
///
/// # Panics
/// Panics if `out` cannot hold the header and every reference.
pub fn write_object(oid: Oid, refs: impl ExactSizeIterator<Item = PhysicalOid>, out: &mut [u8]) {
    let nrefs = refs.len();
    let (header, body) = out.split_at_mut(OBJECT_HEADER_BYTES as usize);
    assert!(
        body.len() >= nrefs * PhysicalOid::WIRE_BYTES,
        "object {oid}: size {} cannot hold {nrefs} references",
        header.len() + body.len()
    );
    header[0..4].copy_from_slice(&oid.to_le_bytes());
    header[4..8].copy_from_slice(&(nrefs as u32).to_le_bytes());
    header[8..].fill(0);
    let (wires, attributes) = body.split_at_mut(nrefs * PhysicalOid::WIRE_BYTES);
    for (wire, r) in wires.chunks_exact_mut(PhysicalOid::WIRE_BYTES).zip(refs) {
        r.encode(wire);
    }
    attributes.fill(FILL);
}

/// Stored bytes of an object payload with `nrefs` references: its
/// header and reference wires.
fn stored_len(nrefs: usize) -> u32 {
    OBJECT_HEADER_BYTES + (nrefs * PhysicalOid::WIRE_BYTES) as u32
}

/// An empty page with room reserved for the slots and stored prefixes
/// of `members`, so that inserting them allocates nothing.
pub(crate) fn reserve_page(base: &ObjectBase, members: &[Oid], page_size: u32) -> SlottedPage {
    let stored: u32 = members
        .iter()
        .map(|&oid| stored_len(base.refs(oid).len()))
        .sum();
    SlottedPage::with_capacity(page_size, members.len(), stored as usize)
}

/// Appends object `oid` of `size` bytes to `page`, its references
/// written as `refs`, and returns its slot.
pub(crate) fn insert_object(
    page: &mut SlottedPage,
    oid: Oid,
    size: u32,
    refs: impl ExactSizeIterator<Item = PhysicalOid>,
) -> SlotId {
    let stored = stored_len(refs.len());
    #[cfg(test)]
    let stored = if STORE_FULL.get() { size } else { stored };
    page.insert_with(size, stored, |out| write_object(oid, refs, out))
}

/// Reads the logical OID stored in a payload.
pub fn payload_oid(payload: &[u8]) -> Oid {
    u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]])
}

/// The encoded references of a payload, one `WIRE_BYTES` slice each.
fn ref_wires(payload: &[u8]) -> &[u8] {
    let nrefs = u32::from_le_bytes([payload[4], payload[5], payload[6], payload[7]]) as usize;
    &payload[OBJECT_HEADER_BYTES as usize..][..nrefs * PhysicalOid::WIRE_BYTES]
}

/// Decodes, lazily and in order, the physical reference OIDs embedded in
/// a payload.
// audit: the codec's decoder; the storage and reorganisation properties (`oostore` and root `tests/properties.rs`) check written and patched references with it
pub fn payload_refs(payload: &[u8]) -> impl ExactSizeIterator<Item = PhysicalOid> + '_ {
    ref_wires(payload)
        .chunks_exact(PhysicalOid::WIRE_BYTES)
        .map(PhysicalOid::decode)
}

/// Rewrites, in place, every reference of a payload that `relocate` maps
/// to a new target. Returns whether any reference changed.
pub fn patch_refs(
    payload: &mut [u8],
    mut relocate: impl FnMut(PhysicalOid) -> Option<PhysicalOid>,
) -> bool {
    let wires_len = ref_wires(payload).len();
    let wires = &mut payload[OBJECT_HEADER_BYTES as usize..][..wires_len];
    let mut patched = false;
    for wire in wires.chunks_exact_mut(PhysicalOid::WIRE_BYTES) {
        if let Some(fresh) = relocate(PhysicalOid::decode(wire)) {
            fresh.encode(wire);
            patched = true;
        }
    }
    patched
}

/// Pass 1 of materialisation: the logical → physical OID map of
/// `placement`.
///
/// Page layout is fully determined by the placement, so every object's
/// page and slot are known before any payload is written. Engines need
/// this map at construction; the pages themselves come from
/// [`serialize_pages`].
pub fn assign_physical_oids(base: &ObjectBase, placement: &Placement) -> Vec<PhysicalOid> {
    let mut phys_of = vec![
        PhysicalOid {
            page: u32::MAX,
            slot: u16::MAX
        };
        base.len()
    ];
    for page in 0..placement.page_count() {
        for (slot, &oid) in placement.objects_in(page).iter().enumerate() {
            phys_of[oid as usize] = PhysicalOid {
                page,
                slot: slot as u16,
            };
        }
    }
    phys_of
}

/// Pass 2 of materialisation: the slotted pages of `placement`, every
/// payload written with the physical OIDs `phys_of` (from
/// [`assign_physical_oids`]) of its reference targets.
pub fn serialize_pages(
    base: &ObjectBase,
    placement: &Placement,
    phys_of: &[PhysicalOid],
) -> Vec<SlottedPage> {
    let mut pages = Vec::with_capacity(placement.page_count() as usize);
    for page in 0..placement.page_count() {
        let members = placement.objects_in(page);
        let mut slotted = reserve_page(base, members, placement.page_size());
        for &oid in members {
            let object = base.object(oid);
            let refs = base
                .refs(oid)
                .iter()
                .map(|&target| phys_of[target as usize]);
            let slot = insert_object(&mut slotted, oid, object.size, refs);
            debug_assert_eq!(slot, phys_of[oid as usize].slot);
        }
        pages.push(slotted);
    }
    pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pageserver::{oid_table_pages, PageServerConfig, PageServerEngine};
    use crate::texas::{TexasConfig, TexasEngine, EXT2_INDIRECT_COVERAGE};
    use clustering::InitialPlacement;
    use ocb::DatabaseParams;
    use proptest::prelude::*;

    fn setup() -> (ObjectBase, Placement) {
        let base = ObjectBase::generate(&DatabaseParams::small(), 11);
        let placement = InitialPlacement::OptimizedSequential.build(&base, 4096);
        (base, placement)
    }

    /// `write_object` into a fresh `size`-byte buffer.
    fn encode(oid: Oid, refs: &[PhysicalOid], size: usize) -> Vec<u8> {
        let mut payload = vec![0; size];
        write_object(oid, refs.iter().copied(), &mut payload);
        payload
    }

    #[test]
    fn serialize_round_trip() {
        let refs = vec![
            PhysicalOid { page: 1, slot: 2 },
            PhysicalOid { page: 3, slot: 4 },
        ];
        let payload = encode(42, &refs, 128);
        assert_eq!(payload_oid(&payload), 42);
        assert_eq!(payload_refs(&payload).collect::<Vec<_>>(), refs);
        assert!(payload[8..16].iter().all(|&b| b == 0));
        assert!(payload[32..].iter().all(|&b| b == FILL));
    }

    #[test]
    fn patch_ref_updates_one_target() {
        let refs = vec![
            PhysicalOid { page: 1, slot: 2 },
            PhysicalOid { page: 3, slot: 4 },
        ];
        let mut payload = encode(7, &refs, 100);
        let moved = PhysicalOid { page: 9, slot: 9 };
        let relocate = |r: PhysicalOid| (r == refs[1]).then_some(moved);
        assert!(patch_refs(&mut payload, relocate));
        assert_eq!(payload_refs(&payload).collect::<Vec<_>>(), [refs[0], moved]);
        assert!(!patch_refs(&mut payload, relocate), "nothing left to patch");
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn undersized_object_rejected() {
        let refs = vec![PhysicalOid { page: 0, slot: 0 }; 10];
        let _ = encode(1, &refs, 32);
    }

    #[test]
    fn materialize_places_every_object_where_placement_says() {
        let (base, placement) = setup();
        let phys_of = assign_physical_oids(&base, &placement);
        let pages = serialize_pages(&base, &placement, &phys_of);
        assert_eq!(pages.len(), placement.page_count() as usize);
        for (oid, _) in base.iter() {
            let phys = phys_of[oid as usize];
            assert_eq!(phys.page, placement.page_of(oid));
            let payload = pages[phys.page as usize].get(phys.slot).unwrap();
            assert_eq!(payload_oid(payload), oid);
            let len = pages[phys.page as usize].payload_len(phys.slot);
            assert_eq!(len, Some(base.object(oid).size));
        }
    }

    #[test]
    fn materialized_refs_point_at_targets() {
        let (base, placement) = setup();
        let phys_of = assign_physical_oids(&base, &placement);
        let pages = serialize_pages(&base, &placement, &phys_of);
        for (oid, _) in base.iter().take(100) {
            let phys = phys_of[oid as usize];
            let payload = pages[phys.page as usize].get(phys.slot).unwrap();
            let refs = payload_refs(payload);
            assert_eq!(refs.len(), base.refs(oid).len());
            for (stored, &logical_target) in refs.zip(base.refs(oid)) {
                assert_eq!(stored, phys_of[logical_target as usize]);
                // Follow the stored reference: the payload there must carry
                // the target's logical OID.
                let target_payload = pages[stored.page as usize].get(stored.slot).unwrap();
                assert_eq!(payload_oid(target_payload), logical_target);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Both engines' demand-built disks hold, page for page, what the
        /// two passes build eagerly, trailing pages included.
        #[test]
        fn deferred_images_equal_eager_pass_two(seed in 0u64..10_000) {
            let base = ObjectBase::generate(&DatabaseParams::small(), seed);
            let placement = InitialPlacement::OptimizedSequential.build(&base, 4096);
            let phys_of = assign_physical_oids(&base, &placement);
            let data = serialize_pages(&base, &placement, &phys_of);

            let o2 = PageServerEngine::new(&base, PageServerConfig::with_cache_mb(1));
            let mut expected = data.clone();
            expected.extend(oid_table_pages(&phys_of, 4096));
            prop_assert_eq!(o2.page_count() as usize, expected.len());
            for (page, eager) in expected.iter().enumerate() {
                prop_assert_eq!(o2.disk_ref().peek(page as u32), eager);
            }

            let texas = TexasEngine::new(&base, TexasConfig::with_memory_mb(1));
            let meta_pages = (data.len() as u32).div_ceil(EXT2_INDIRECT_COVERAGE);
            let mut expected = data;
            expected.extend((0..meta_pages).map(|_| SlottedPage::new(4096)));
            prop_assert_eq!(texas.page_count() as usize, expected.len());
            for (page, eager) in expected.iter().enumerate() {
                prop_assert_eq!(texas.disk_ref().peek(page as u32), eager);
            }
        }
    }
}
