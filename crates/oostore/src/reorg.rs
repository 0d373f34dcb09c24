//! Physical database reorganisation (the clustering phase).
//!
//! This module is where the paper's Table 6 anomaly lives. After DSTC
//! builds its clustering units, the store must materialise them:
//!
//! 1. **Extraction** — cluster members are deleted from their source pages
//!    (read + write per distinct source page) and packed contiguously into
//!    fresh cluster pages appended to the store (one write each). Unmoved
//!    objects keep their exact page and slot.
//! 2. **Reference patching** — and here the OID model bites. Texas uses
//!    *physical* OIDs: every reference stored anywhere in the database that
//!    points at a moved object is now stale, so "the whole database must be
//!    scanned and all references toward moved objects must be updated"
//!    (§4.4) — a read of every page and a write of every page that
//!    contained at least one stale reference. A *logical*-OID system (the
//!    simulator; the page-server's OID table) skips this phase entirely and
//!    merely updates its map.

use crate::disk::IoCounts;
use crate::engine::StorageEngine;
use crate::oid::PhysicalOid;
use crate::page::SlottedPage;
use crate::storage::{patch_ref, payload_refs, serialize_object};
use crate::texas::TexasEngine;
use clustering::{ClusteringOutcome, PageId, PAGE_HEADER_BYTES, SLOT_ENTRY_BYTES};
use ocb::Oid;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Accounting of one reorganisation.
#[derive(Clone, Debug, Default)]
pub struct ReorgReport {
    /// I/Os performed by the reorganisation (the paper's "clustering
    /// overhead" row of Table 6).
    pub io: IoCounts,
    /// The clusters materialised (Table 7 reports their count and size).
    pub outcome: ClusteringOutcome,
    /// Objects physically moved.
    pub moved_objects: u64,
    /// Pages read by the reference-patch scan (0 for logical-OID stores).
    pub pages_scanned: u64,
    /// Pages rewritten because they held stale references.
    pub pages_patched: u64,
}

impl ReorgReport {
    /// Total reorganisation I/Os.
    pub fn total_ios(&self) -> u64 {
        self.io.total()
    }
}

impl TexasEngine<'_> {
    /// Runs the clustering phase: asks the strategy for clusters, extracts
    /// them into contiguous cluster pages, and — because Texas uses
    /// physical OIDs — scans the whole database patching stale references.
    ///
    /// Reorganisation runs offline (outside the VM cache): the paper
    /// measured it between two cold runs. VM frames are dropped afterwards.
    pub fn reorganize(&mut self) -> ReorgReport {
        let io_before = self.io_counts();
        let (strategy, base) = self.strategy_and_base();
        let outcome = strategy.build_clusters(base);
        if outcome.clusters.is_empty() {
            return ReorgReport {
                outcome,
                ..ReorgReport::default()
            };
        }

        let page_size = self.disk_mut().page_size();

        // ----- choose moved objects (first-occurrence dedup) -------------
        let mut moved: BTreeSet<Oid> = BTreeSet::new();
        let mut cluster_order: Vec<Oid> = Vec::new();
        for cluster in &outcome.clusters {
            for &oid in cluster {
                if moved.insert(oid) {
                    cluster_order.push(oid);
                }
            }
        }

        // ----- assign new physical locations ------------------------------
        // Cluster pages are appended at the end of the store; members are
        // packed in cluster order.
        let old_page_count = self.disk_mut().page_count();
        let capacity = page_size - PAGE_HEADER_BYTES;
        // Iterated when installing the new root table, so oid-ordered.
        let mut new_phys: BTreeMap<Oid, PhysicalOid> = BTreeMap::new();
        let mut cluster_pages: Vec<Vec<Oid>> = Vec::new();
        {
            let mut current: Vec<Oid> = Vec::new();
            let mut used = 0u32;
            for &oid in &cluster_order {
                let cost = self.base().object(oid).size + SLOT_ENTRY_BYTES;
                if used + cost > capacity && !current.is_empty() {
                    cluster_pages.push(std::mem::take(&mut current));
                    used = 0;
                }
                new_phys.insert(
                    oid,
                    PhysicalOid {
                        page: old_page_count + cluster_pages.len() as PageId,
                        slot: current.len() as u16,
                    },
                );
                current.push(oid);
                used += cost;
            }
            if !current.is_empty() {
                cluster_pages.push(current);
            }
        }

        // Map of stale physical OIDs → fresh ones, for the patch scan.
        let mut relocation: HashMap<PhysicalOid, PhysicalOid> = HashMap::new();
        for &oid in &moved {
            relocation.insert(self.physical_oid(oid), new_phys[&oid]);
        }

        // ----- phase 1: extraction ----------------------------------------
        // Source pages: read, tombstone moved slots, write back.
        let mut source_pages: BTreeMap<PageId, Vec<u16>> = BTreeMap::new();
        for &oid in &moved {
            let phys = self.physical_oid(oid);
            source_pages.entry(phys.page).or_default().push(phys.slot);
        }
        for (&page, slots) in &source_pages {
            self.disk_mut().read(page);
            for &slot in slots {
                self.disk_mut().peek_mut(page).delete(slot);
            }
            self.disk_mut().write_back(page);
        }

        // New cluster pages: serialise members with *new* target locations
        // where the target also moved, and write each page once.
        // (Serialisation uses the post-move map for refs to moved objects,
        // old locations otherwise — the scan below fixes nothing here.)
        let lookup =
            |engine: &TexasEngine<'_>, target: Oid, new_phys: &BTreeMap<Oid, PhysicalOid>| {
                new_phys
                    .get(&target)
                    .copied()
                    .unwrap_or_else(|| engine.physical_oid(target))
            };
        let mut built_pages: Vec<SlottedPage> = Vec::new();
        for members in &cluster_pages {
            let mut slotted = SlottedPage::new(page_size);
            for &oid in members {
                let object = self.base().object(oid);
                let refs: Vec<PhysicalOid> = object
                    .refs
                    .iter()
                    .map(|&t| lookup(self, t, &new_phys))
                    .collect();
                let payload = serialize_object(oid, &refs, object.size);
                let slot = slotted.insert(&payload);
                debug_assert_eq!(slot, new_phys[&oid].slot);
            }
            built_pages.push(slotted);
        }
        // Append and count one write per new page.
        for (i, page) in built_pages.into_iter().enumerate() {
            let id = self.disk_mut().append_page(page);
            debug_assert_eq!(id, old_page_count + i as u32);
        }

        // ----- phase 2: the physical-OID patch scan ------------------------
        // Every page is read; pages holding references to relocated objects
        // are patched and written back.
        let mut pages_scanned = 0u64;
        let mut pages_patched = 0u64;
        for page in 0..old_page_count {
            self.disk_mut().read(page);
            pages_scanned += 1;
            // Collect patches first (borrow discipline), then apply.
            let mut patches: Vec<(u16, usize, PhysicalOid)> = Vec::new();
            {
                let slotted = self.disk_mut().peek(page);
                for slot in slotted.live_slots() {
                    let payload = slotted.get(slot).expect("live");
                    for (i, r) in payload_refs(payload).into_iter().enumerate() {
                        if let Some(&fresh) = relocation.get(&r) {
                            patches.push((slot, i, fresh));
                        }
                    }
                }
            }
            if !patches.is_empty() {
                for (slot, index, fresh) in patches {
                    let slotted = self.disk_mut().peek_mut(page);
                    let payload = slotted.get_mut(slot).expect("live");
                    patch_ref(payload, index, fresh);
                }
                self.disk_mut().write_back(page);
                pages_patched += 1;
            }
        }

        // ----- install the new root table and drop the VM cache ------------
        for (&oid, &phys) in &new_phys {
            self.phys_of_mut()[oid as usize] = phys;
        }
        self.clear_vm();

        ReorgReport {
            io: self.io_counts().since(io_before),
            moved_objects: moved.len() as u64,
            pages_scanned,
            pages_patched,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskTimings;
    use crate::engine::{run_workload, StorageEngine};
    use crate::texas::TexasConfig;
    use clustering::{ClusteringKind, DstcParams, InitialPlacement};
    use ocb::{DatabaseParams, ObjectBase, Transaction, WorkloadGenerator, WorkloadParams};

    fn dstc_config() -> TexasConfig {
        TexasConfig {
            page_size: 4096,
            memory_pages: 10_000,
            initial_placement: InitialPlacement::OptimizedSequential,
            swizzle: true,
            os_readahead: false,
            fs_metadata: false,
            clustering: ClusteringKind::Dstc(DstcParams {
                observation_period: 2_000,
                tfa: 2.0,
                tfc: 1.0,
                tfe: 2.0,
                w: 0.8,
                max_unit_size: 32,
                trigger_threshold: 100,
            }),
            timings: DiskTimings::texas(),
        }
    }

    fn hierarchy_workload(base: &ObjectBase, n: usize, seed: u64) -> Vec<Transaction> {
        let params = WorkloadParams {
            hot_transactions: n,
            ..WorkloadParams::dstc_favorable()
        };
        let mut generator = WorkloadGenerator::new(base, params, seed);
        (0..n).map(|_| generator.next_transaction()).collect()
    }

    #[test]
    fn reorganize_without_stats_is_a_noop() {
        let base = ObjectBase::generate(&DatabaseParams::small(), 5);
        let mut engine = TexasEngine::new(&base, dstc_config());
        let report = engine.reorganize();
        assert_eq!(report.outcome.cluster_count(), 0);
        assert_eq!(report.total_ios(), 0);
        assert_eq!(report.moved_objects, 0);
    }

    #[test]
    fn reorganization_improves_traversal_locality() {
        let base = ObjectBase::generate(&DatabaseParams::small(), 6);
        let mut engine = TexasEngine::new(&base, dstc_config());
        let txs = hierarchy_workload(&base, 300, 42);

        engine.reset_counters();
        let pre = run_workload(&mut engine, &txs);
        let report = engine.reorganize();
        assert!(report.outcome.cluster_count() > 0, "DSTC built no clusters");
        assert!(report.moved_objects > 0);
        assert!(report.pages_scanned > 0, "physical OIDs force a scan");

        engine.flush_memory();
        engine.reset_counters();
        let post = run_workload(&mut engine, &txs);
        assert!(
            post.total_ios() < pre.total_ios(),
            "clustering must reduce I/Os: pre {} post {}",
            pre.total_ios(),
            post.total_ios()
        );
    }

    #[test]
    fn patch_scan_reads_whole_database() {
        let base = ObjectBase::generate(&DatabaseParams::small(), 7);
        let mut engine = TexasEngine::new(&base, dstc_config());
        let pages_before = engine.page_count();
        let txs = hierarchy_workload(&base, 300, 43);
        run_workload(&mut engine, &txs);
        let report = engine.reorganize();
        assert!(report.outcome.cluster_count() > 0);
        assert_eq!(report.pages_scanned, pages_before as u64);
        // Overhead dominated by the scan: at least one read per page.
        assert!(report.io.reads >= pages_before as u64);
    }

    #[test]
    fn references_remain_consistent_after_reorganization() {
        let base = ObjectBase::generate(&DatabaseParams::small(), 8);
        let mut engine = TexasEngine::new(&base, dstc_config());
        let txs = hierarchy_workload(&base, 300, 44);
        run_workload(&mut engine, &txs);
        let report = engine.reorganize();
        assert!(report.moved_objects > 0);

        // Every stored reference must point at a live slot holding the
        // right logical object.
        for (oid, object) in base.iter() {
            let phys = engine.physical_oid(oid);
            let payload = engine
                .disk_ref()
                .peek(phys.page)
                .get(phys.slot)
                .unwrap_or_else(|| panic!("object {oid} lost its slot"));
            assert_eq!(crate::storage::payload_oid(payload), oid);
            let refs = payload_refs(payload);
            for (stored, &logical) in refs.iter().zip(object.refs.iter()) {
                let target_payload = engine
                    .disk_ref()
                    .peek(stored.page)
                    .get(stored.slot)
                    .unwrap_or_else(|| panic!("stale reference {stored:?}"));
                assert_eq!(
                    crate::storage::payload_oid(target_payload),
                    logical,
                    "reference of {oid} points at the wrong object"
                );
            }
        }
        // Re-running the workload still works.
        engine.flush_memory();
        engine.reset_counters();
        let post = run_workload(&mut engine, &txs);
        assert!(post.total_ios() > 0);
    }

    #[test]
    fn cluster_members_are_colocated() {
        let base = ObjectBase::generate(&DatabaseParams::small(), 9);
        let mut engine = TexasEngine::new(&base, dstc_config());
        let txs = hierarchy_workload(&base, 300, 45);
        run_workload(&mut engine, &txs);
        let report = engine.reorganize();
        for cluster in &report.outcome.clusters {
            let pages: std::collections::BTreeSet<_> = cluster
                .iter()
                .map(|&oid| engine.physical_oid(oid).page)
                .collect();
            // Clusters span a contiguous run of pages.
            let min = *pages.first().unwrap();
            let max = *pages.last().unwrap();
            assert!(
                (max - min) as usize <= pages.len(),
                "cluster pages not contiguous: {pages:?}"
            );
        }
    }

    #[test]
    fn forced_and_deferred_images_reorganise_identically() {
        let base = ObjectBase::generate(&DatabaseParams::small(), 10);
        let txs = hierarchy_workload(&base, 300, 46);
        let observe = |force: bool| {
            let config = TexasConfig {
                memory_pages: 64,
                os_readahead: true,
                fs_metadata: true,
                ..dstc_config()
            };
            let mut engine = TexasEngine::new(&base, config);
            if force {
                engine.disk_ref().peek(0);
            }
            run_workload(&mut engine, &txs);
            let report = engine.reorganize();
            engine.flush_memory();
            run_workload(&mut engine, &txs);
            engine.flush_memory();
            let c = engine.counters();
            let pages: Vec<SlottedPage> = (0..engine.page_count())
                .map(|page| engine.disk_ref().peek(page).clone())
                .collect();
            (
                (c.faults, c.reservations, c.swap_outs),
                (
                    report.io,
                    report.moved_objects,
                    report.pages_scanned,
                    report.pages_patched,
                ),
                engine.io_counts(),
                engine.elapsed_ms().to_bits(),
                pages,
            )
        };
        let forced = observe(true);
        assert!(forced.1 .1 > 0, "DSTC moved no object");
        assert_eq!(forced, observe(false));
    }
}
