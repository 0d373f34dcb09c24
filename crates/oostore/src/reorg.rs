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
//!
//! Both engines execute one plan (`ReorgPlan`): the first-occurrence
//! dedup of cluster members, their packing into fresh pages and the
//! grouping of source pages, held in dense tables — new location by
//! logical OID, `(old, new)` moves sorted by old location. Texas's patch
//! scan looks stale references up by `(page, slot)` in a flat table
//! built from those moves and patches each payload in place.

use crate::disk::{IoCounts, VirtualDisk};
use crate::engine::StorageEngine;
use crate::oid::PhysicalOid;
use crate::page::SlottedPage;
use crate::storage::{patch_refs, write_object};
use crate::texas::TexasEngine;
use clustering::{ClusteringOutcome, PageId, PAGE_HEADER_BYTES, SLOT_ENTRY_BYTES};
use ocb::{ObjectBase, Oid};

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

/// Where a reorganisation moves objects, shared by both engines: cluster
/// members (an object in several clusters moves with the first) packed,
/// in cluster order, into fresh pages appended at `first_page`.
pub(crate) struct ReorgPlan {
    /// Moved objects in cluster order, so in new page then slot order.
    order: Vec<Oid>,
    /// New location by logical OID; `None` for objects that stay.
    new_of: Vec<Option<PhysicalOid>>,
    /// `(old, new)` location of every moved object, in old page then
    /// slot order.
    moves: Vec<(PhysicalOid, PhysicalOid)>,
}

impl ReorgPlan {
    /// Plans `clusters` over a store whose logical → physical map is
    /// `phys_of`, packing pages of `page_size` bytes.
    pub(crate) fn new(
        base: &ObjectBase,
        clusters: &[Vec<Oid>],
        page_size: u32,
        first_page: PageId,
        phys_of: &[PhysicalOid],
    ) -> Self {
        let capacity = page_size - PAGE_HEADER_BYTES;
        let mut plan = ReorgPlan {
            order: Vec::new(),
            new_of: vec![None; base.len()],
            moves: Vec::new(),
        };
        let mut new = PhysicalOid {
            page: first_page,
            slot: 0,
        };
        let mut used = 0u32;
        for &oid in clusters.iter().flatten() {
            if plan.new_of[oid as usize].is_some() {
                continue;
            }
            let cost = base.object(oid).size + SLOT_ENTRY_BYTES;
            if used + cost > capacity && new.slot > 0 {
                new = PhysicalOid {
                    page: new.page + 1,
                    slot: 0,
                };
                used = 0;
            }
            plan.new_of[oid as usize] = Some(new);
            plan.order.push(oid);
            plan.moves.push((phys_of[oid as usize], new));
            used += cost;
            new.slot += 1;
        }
        plan.moves.sort_unstable();
        plan
    }

    /// Number of objects moved.
    pub(crate) fn moved_count(&self) -> u64 {
        self.order.len() as u64
    }

    /// Where `oid` moves, if it does.
    pub(crate) fn new_location(&self, oid: Oid) -> Option<PhysicalOid> {
        self.new_of[oid as usize]
    }

    /// Moved objects and their new locations, in logical OID order.
    pub(crate) fn moved_by_oid(&self) -> impl Iterator<Item = (Oid, PhysicalOid)> + '_ {
        (0..)
            .zip(&self.new_of)
            .filter_map(|(oid, new)| new.map(|new| (oid, new)))
    }

    /// The members of each fresh page, in page order.
    pub(crate) fn cluster_pages(&self) -> impl Iterator<Item = &[Oid]> + '_ {
        let page = |oid: Oid| self.new_of[oid as usize].map(|new| new.page);
        self.order.chunk_by(move |&a, &b| page(a) == page(b))
    }

    /// Extraction: reads each source page in page order, tombstones the
    /// slots that leave it and writes it back, then hands the page to
    /// `extracted`.
    pub(crate) fn extract(&self, disk: &mut VirtualDisk<'_>, mut extracted: impl FnMut(PageId)) {
        for run in self.moves.chunk_by(|a, b| a.0.page == b.0.page) {
            let page = run[0].0.page;
            disk.read(page);
            let slotted = disk.peek_mut(page);
            for (old, _) in run {
                slotted.delete(old.slot);
            }
            disk.write_back(page);
            extracted(page);
        }
    }

    /// The relocation table of the patch scan over `pages` pages.
    fn relocation(&self, pages: PageId) -> Relocation {
        let mut table = Relocation {
            by_page: vec![(0, 0); pages as usize],
            fresh: Vec::new(),
        };
        for run in self.moves.chunk_by(|a, b| a.0.page == b.0.page) {
            let (last, _) = run[run.len() - 1];
            let start = table.fresh.len();
            table.fresh.resize(start + last.slot as usize + 1, None);
            table.by_page[last.page as usize] = (start as u32, last.slot as u32 + 1);
            for &(old, new) in run {
                table.fresh[start + old.slot as usize] = Some(new);
            }
        }
        table
    }
}

/// Fresh locations by stale `(page, slot)`: each source page owns a run
/// of `fresh`, as long as its highest moved slot plus one.
struct Relocation {
    /// `(start, len)` of each page's run; `len` 0 when nothing left it.
    by_page: Vec<(u32, u32)>,
    fresh: Vec<Option<PhysicalOid>>,
}

impl Relocation {
    /// Where the object a stored reference points at has moved, if it has.
    fn get(&self, stale: PhysicalOid) -> Option<PhysicalOid> {
        let (start, len) = self.by_page[stale.page as usize];
        let slot = u32::from(stale.slot);
        if slot < len {
            self.fresh[(start + slot) as usize]
        } else {
            None
        }
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
        let page_size = self.disk_ref().page_size();
        let old_page_count = self.page_count();
        let plan = ReorgPlan::new(
            base,
            &outcome.clusters,
            page_size,
            old_page_count,
            self.phys_of(),
        );

        // ----- phase 1: extraction ----------------------------------------
        plan.extract(self.disk_mut(), |_| {});
        // Fresh cluster pages, one write each. A reference to a moved
        // object is written with its new location, any other with its
        // current one: the scan below has nothing to fix here.
        let phys_of = self.phys_of();
        let built: Vec<SlottedPage> = plan
            .cluster_pages()
            .map(|members| {
                let mut slotted = SlottedPage::new(page_size);
                for &oid in members {
                    let object = base.object(oid);
                    let refs = object.refs.iter().map(|&target| {
                        plan.new_location(target)
                            .unwrap_or(phys_of[target as usize])
                    });
                    let slot = slotted.insert_with(object.size, |out| write_object(oid, refs, out));
                    debug_assert_eq!(Some(slot), plan.new_location(oid).map(|new| new.slot));
                }
                slotted
            })
            .collect();
        for page in built {
            self.disk_mut().append_page(page);
        }

        // ----- phase 2: the physical-OID patch scan ------------------------
        // Every page is read; pages holding references to relocated objects
        // are patched in place and written back.
        let relocation = plan.relocation(old_page_count);
        let mut pages_patched = 0u64;
        let disk = self.disk_mut();
        for page in 0..old_page_count {
            disk.read(page);
            let slotted = disk.peek_mut(page);
            let mut patched = false;
            for slot in 0..slotted.slot_count() {
                if let Some(payload) = slotted.get_mut(slot) {
                    patched |= patch_refs(payload, |stale| relocation.get(stale));
                }
            }
            if patched {
                disk.write_back(page);
                pages_patched += 1;
            }
        }

        // ----- install the new root table and drop the VM cache ------------
        let phys_of = self.phys_of_mut();
        for (oid, new) in plan.moved_by_oid() {
            phys_of[oid as usize] = new;
        }
        self.clear_vm();

        ReorgReport {
            io: self.io_counts().since(io_before),
            moved_objects: plan.moved_count(),
            pages_scanned: u64::from(old_page_count),
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
    use crate::pageserver::{PageServerConfig, PageServerEngine};
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
            let refs = crate::storage::payload_refs(payload);
            for (stored, &logical) in refs.zip(object.refs.iter()) {
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

    /// FNV-1a over every page image of `disk`, in page order.
    fn image_hash(disk: &VirtualDisk<'_>) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for page in 0..disk.page_count() {
            for &byte in disk.peek(page).raw() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    #[test]
    fn reorganised_bytes_pinned_for_both_engines() {
        // run -> reorganize -> cold restart -> run on both engines. The
        // image hashes, reorganisation counts and I/O counters were
        // recorded before both engines shared one reorganisation planner
        // and wrote payloads in place; a byte either engine writes
        // differently fails here.
        let base = ObjectBase::generate(
            &DatabaseParams {
                objects: 2_000,
                ..DatabaseParams::small()
            },
            12,
        );
        let txs = hierarchy_workload(&base, 600, 47);
        let dstc = ClusteringKind::Dstc(DstcParams {
            observation_period: 10_000,
            tfa: 1.0,
            tfc: 0.5,
            tfe: 1.0,
            w: 0.8,
            max_unit_size: 64,
            trigger_threshold: usize::MAX,
        });
        let counts = |report: &ReorgReport| {
            (
                report.outcome.cluster_count(),
                report.io,
                report.moved_objects,
                report.pages_scanned,
                report.pages_patched,
            )
        };
        let io = |reads, writes| IoCounts { reads, writes };

        let texas_config = TexasConfig {
            memory_pages: 64,
            os_readahead: true,
            fs_metadata: true,
            clustering: dstc.clone(),
            ..dstc_config()
        };
        let mut texas = TexasEngine::new(&base, texas_config);
        run_workload(&mut texas, &txs);
        let report = texas.reorganize();
        texas.flush_memory();
        run_workload(&mut texas, &txs);
        texas.flush_memory();
        assert_eq!(counts(&report), (15, io(581, 252), 67, 527, 183));
        assert_eq!(texas.io_counts(), io(696, 302));
        assert_eq!(texas.page_count(), 542);
        assert_eq!(image_hash(texas.disk_ref()), 0x4f0c_02ef_f8fd_5919);

        let o2_config = PageServerConfig {
            buffer_pages: 32,
            clustering: dstc,
            ..PageServerConfig::with_cache_mb(1)
        };
        let mut o2 = PageServerEngine::new(&base, o2_config);
        run_workload(&mut o2, &txs);
        let report = o2.reorganize();
        o2.flush_memory();
        run_workload(&mut o2, &txs);
        o2.flush_memory();
        assert_eq!(counts(&report), (15, io(58, 73), 67, 0, 0));
        assert_eq!(o2.io_counts(), io(881, 73));
        assert_eq!(o2.page_count(), 545);
        assert_eq!(image_hash(o2.disk_ref()), 0xb3c3_a3ef_95cf_b0ed);
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
