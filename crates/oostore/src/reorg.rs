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
//! logical OID, `(old, new)` moves sorted by old location.
//!
//! The I/Os are counted from the plan alone: no page content is read or
//! written while the reorganisation runs. Texas's patch scan reads every
//! old page and writes back a page exactly when an unmoved object on it
//! references a moved object (`ReorgPlan::stale_pages`, over the root
//! map before the move), which visits only the moved objects' referrers
//! (`ObjectBase::referrers`), not the whole base. The byte edits —
//! tombstones, cluster pages and, for physical OIDs, the reference
//! patches — are logged on the disk as one `Reorganisation` and applied
//! by `Reorganisation::apply` when the page image is rendered, or at
//! once if it already is. That replay decodes every reference of every
//! old page and asserts that the pages it patched are the pages the
//! counted scan wrote.

use crate::disk::{Image, VirtualDisk};
use crate::engine::StorageEngine;
use crate::oid::PhysicalOid;
use crate::storage::{insert_object, patch_refs, reserve_page};
use crate::texas::TexasEngine;
use bufmgr::IoCounts;
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
#[derive(Debug)]
pub(crate) struct ReorgPlan {
    /// Moved objects in cluster order, so in new page then slot order.
    order: Vec<Oid>,
    /// New location by logical OID; `None` for objects that stay.
    new_of: Vec<Option<PhysicalOid>>,
    /// `(old, new)` location of every moved object, in old page then
    /// slot order.
    moves: Vec<(PhysicalOid, PhysicalOid)>,
    /// The first fresh page: the store's page count before the move.
    first_page: PageId,
    page_size: u32,
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
            first_page,
            page_size,
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

    /// Moved objects and their new locations, in logical OID order.
    pub(crate) fn moved_by_oid(&self) -> impl Iterator<Item = (Oid, PhysicalOid)> + '_ {
        (0..)
            .zip(&self.new_of)
            .filter_map(|(oid, new)| new.map(|new| (oid, new)))
    }

    /// The members of each fresh page, in page order.
    fn cluster_pages(&self) -> impl Iterator<Item = &[Oid]> + '_ {
        let page = |oid: Oid| self.new_of[oid as usize].map(|new| new.page);
        self.order.chunk_by(move |&a, &b| page(a) == page(b))
    }

    /// Extraction's I/Os: reads each source page in page order and writes
    /// it back (its tombstones are in the logged reorganisation), then
    /// hands the page to `extracted`.
    pub(crate) fn extract(&self, disk: &mut VirtualDisk<'_>, mut extracted: impl FnMut(PageId)) {
        for run in self.moves.chunk_by(|a, b| a.0.page == b.0.page) {
            let page = run[0].0.page;
            disk.read(page);
            disk.write_back(page);
            extracted(page);
        }
    }

    /// The pages of the physical-OID patch scan, by old page: `true` where
    /// an unmoved object (located by `phys_of`, the map before the move)
    /// references a moved one. Only the referrers of moved objects are
    /// visited.
    pub(crate) fn stale_pages(&self, base: &ObjectBase, phys_of: &[PhysicalOid]) -> Vec<bool> {
        let mut stale = vec![false; self.first_page as usize];
        for &moved in &self.order {
            for &referrer in base.referrers(moved) {
                if self.new_of[referrer as usize].is_none() {
                    stale[phys_of[referrer as usize].page as usize] = true;
                }
            }
        }
        stale
    }

    /// [`ReorgPlan::stale_pages`] by the walk it replaced: every object
    /// of the base and all its references.
    #[cfg(test)]
    fn stale_pages_by_scan(&self, base: &ObjectBase, phys_of: &[PhysicalOid]) -> Vec<bool> {
        let mut stale = vec![false; self.first_page as usize];
        for ((oid, &phys), new) in (0..).zip(phys_of).zip(&self.new_of) {
            let page = phys.page as usize;
            if new.is_none()
                && !stale[page]
                && base
                    .refs(oid)
                    .iter()
                    .any(|&t| self.new_of[t as usize].is_some())
            {
                stale[page] = true;
            }
        }
        stale
    }

    /// The relocation table of the patch scan over the old pages.
    fn relocation(&self) -> Relocation {
        let mut table = Relocation {
            by_page: vec![(0, 0); self.first_page as usize],
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

/// How a store's references name objects, which decides a
/// reorganisation's byte edits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Oids {
    /// Texas: a cluster page stores each target's location after the
    /// move, and every stale reference on the old pages is patched.
    Physical,
    /// O2: a cluster page stores the OID table's entry as packing goes
    /// (a member packed later keeps its old location); nothing else is
    /// patched.
    Logical,
}

/// One reorganisation's byte edits, as logged on the disk: the plan and
/// the root map it started from (the new map is that map with the
/// plan's moves applied).
#[derive(Debug)]
pub(crate) struct Reorganisation {
    plan: ReorgPlan,
    roots: Vec<PhysicalOid>,
    oids: Oids,
}

impl Reorganisation {
    pub(crate) fn new(plan: ReorgPlan, roots: Vec<PhysicalOid>, oids: Oids) -> Self {
        Reorganisation { plan, roots, oids }
    }

    /// Number of fresh cluster pages it appends.
    pub(crate) fn fresh_pages(&self) -> u32 {
        self.plan
            .order
            .last()
            .and_then(|&oid| self.plan.new_of[oid as usize])
            .map_or(0, |last| last.page + 1 - self.plan.first_page)
    }

    /// Writes the edits into `image`, which holds the store as it was
    /// when the reorganisation was planned: tombstones on the source
    /// pages, the fresh cluster pages, then (physical OIDs) the patch of
    /// every stale reference.
    ///
    /// # Panics
    /// Panics if the pages it patches are not the pages
    /// `ReorgPlan::stale_pages` counted.
    pub(crate) fn apply(&self, base: &ObjectBase, image: &mut Image) {
        let plan = &self.plan;
        assert_eq!(image.page_count(), plan.first_page, "replayed out of order");
        for &(old, _) in &plan.moves {
            image
                .page_mut(old.page)
                .expect("moved objects leave object pages")
                .delete(old.slot);
        }

        let mut locations = self.roots.clone();
        if self.oids == Oids::Physical {
            for (oid, new) in plan.moved_by_oid() {
                locations[oid as usize] = new;
            }
        }
        for members in plan.cluster_pages() {
            let mut slotted = reserve_page(base, members, plan.page_size);
            for &oid in members {
                let object = base.object(oid);
                let refs = base.refs(oid).iter().map(|&t| locations[t as usize]);
                let slot = insert_object(&mut slotted, oid, object.size, refs);
                let new = plan.new_of[oid as usize].expect("a member moves");
                debug_assert_eq!(slot, new.slot);
                locations[oid as usize] = new;
            }
            image.push(slotted);
        }

        if self.oids == Oids::Physical {
            let relocation = plan.relocation();
            let counted = plan.stale_pages(base, &self.roots);
            #[cfg(test)]
            assert_eq!(
                counted,
                plan.stale_pages_by_scan(base, &self.roots),
                "the referrer walk and the full-base walk differ"
            );
            for (page, counted) in (0..).zip(counted) {
                let Some(slotted) = image.page_mut(page) else {
                    continue; // a held page stores no object
                };
                let mut patched = false;
                for slot in 0..slotted.slot_count() {
                    if let Some(payload) = slotted.get_mut(slot) {
                        patched |= patch_refs(payload, |stale| relocation.get(stale));
                    }
                }
                assert_eq!(
                    patched, counted,
                    "page {page}: bytes and counted scan differ"
                );
            }
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
        let old_page_count = self.page_count();
        let plan = ReorgPlan::new(
            base,
            &outcome.clusters,
            self.disk_ref().page_size(),
            old_page_count,
            self.phys_of(),
        );
        let stale = plan.stale_pages(base, self.phys_of());
        let moved_objects = plan.moved_count();

        // ----- phase 1: extraction, then the fresh cluster pages ----------
        plan.extract(self.disk_mut(), |_| {});
        // A cluster page stores every reference with its target's new
        // location: the scan below has nothing to fix there.
        let roots = self.phys_of().to_vec();
        let phys_of = self.phys_of_mut();
        for (oid, new) in plan.moved_by_oid() {
            phys_of[oid as usize] = new;
        }
        let reorganisation = Reorganisation::new(plan, roots, Oids::Physical);
        self.disk_mut().reorganise(reorganisation);

        // ----- phase 2: the physical-OID patch scan ------------------------
        // Every old page is read; the pages holding references to
        // relocated objects are written back.
        let disk = self.disk_mut();
        let mut pages_patched = 0u64;
        for (page, stale) in (0..).zip(stale) {
            disk.read(page);
            if stale {
                disk.write_back(page);
                pages_patched += 1;
            }
        }
        self.clear_vm();

        ReorgReport {
            io: self.io_counts().since(io_before),
            moved_objects,
            pages_scanned: u64::from(old_page_count),
            pages_patched,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_workload, StorageEngine};
    use crate::page::SlottedPage;
    use crate::pageserver::{PageServerConfig, PageServerEngine};
    use crate::storage::STORE_FULL;
    use crate::texas::TexasConfig;
    use bufmgr::DiskTimings;
    use clustering::{ClusteringKind, DstcParams, InitialPlacement};
    use ocb::{DatabaseParams, ObjectBase, Transaction, WorkloadGenerator, WorkloadParams};
    use proptest::prelude::*;

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
        for (oid, _) in base.iter() {
            let phys = engine.physical_oid(oid);
            let payload = engine
                .disk_ref()
                .peek(phys.page)
                .get(phys.slot)
                .unwrap_or_else(|| panic!("object {oid} lost its slot"));
            assert_eq!(crate::storage::payload_oid(payload), oid);
            let refs = crate::storage::payload_refs(payload);
            for (stored, &logical) in refs.zip(base.refs(oid)) {
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
            for &byte in &disk.peek(page).raw() {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Pages that store only payload prefixes render, byte for byte,
        /// as pages storing every byte, on both engines before and after
        /// a DSTC reorganisation.
        #[test]
        fn compact_pages_render_as_full_byte_pages(seed in 0u64..10_000) {
            let base = ObjectBase::generate(&DatabaseParams::small(), seed);
            let txs = hierarchy_workload(&base, 300, seed ^ 0x5A);
            let texas_config = TexasConfig {
                memory_pages: 64,
                ..dstc_config()
            };
            let o2_config = PageServerConfig {
                buffer_pages: 32,
                clustering: texas_config.clustering.clone(),
                ..PageServerConfig::with_cache_mb(1)
            };
            let pages = |disk: &VirtualDisk<'_>| -> Vec<SlottedPage> {
                (0..disk.page_count()).map(|page| disk.peek(page).clone()).collect()
            };
            let stored = |pages: &[SlottedPage]| -> usize {
                pages.iter().map(SlottedPage::stored_bytes).sum()
            };
            let images = |full: bool| {
                STORE_FULL.set(full);
                let mut texas = TexasEngine::new(&base, texas_config.clone());
                let texas_before = pages(texas.disk_ref());
                run_workload(&mut texas, &txs);
                let moved = texas.reorganize().moved_objects;
                let texas_after = pages(texas.disk_ref());
                let mut o2 = PageServerEngine::new(&base, o2_config.clone());
                let o2_before = pages(o2.disk_ref());
                run_workload(&mut o2, &txs);
                o2.reorganize();
                let o2_after = pages(o2.disk_ref());
                STORE_FULL.set(false);
                (moved, [texas_before, texas_after, o2_before, o2_after])
            };
            let (moved, compact) = images(false);
            let (_, full) = images(true);
            prop_assert!(moved > 0, "DSTC moved no object");
            for (compact, full) in compact.iter().zip(&full) {
                prop_assert!(stored(compact) < stored(full), "the writers differ");
                prop_assert!(compact == full, "rendered images differ");
            }
        }
    }

    /// Every page image of `disk`, in page order.
    fn images(disk: &VirtualDisk<'_>) -> Vec<SlottedPage> {
        (0..disk.page_count())
            .map(|page| disk.peek(page).clone())
            .collect()
    }

    /// What a reorganisation reports, clusters aside.
    fn report_counts(report: &ReorgReport) -> (IoCounts, u64, u64, u64) {
        (
            report.io,
            report.moved_objects,
            report.pages_scanned,
            report.pages_patched,
        )
    }

    #[test]
    fn forced_and_deferred_images_reorganise_identically() {
        // run -> reorganise -> run -> reorganise -> run on both engines,
        // the image built before the first run or left to the first peek
        // after the last: the second reorganisation moves objects out of
        // pages the first appended, and its edits replay on top.
        let base = ObjectBase::generate(&DatabaseParams::small(), 10);
        let txs = hierarchy_workload(&base, 300, 46);
        let texas_config = TexasConfig {
            memory_pages: 64,
            os_readahead: true,
            fs_metadata: true,
            ..dstc_config()
        };
        let o2_config = PageServerConfig {
            buffer_pages: 32,
            clustering: texas_config.clustering.clone(),
            ..PageServerConfig::with_cache_mb(1)
        };
        let texas = |force: bool| {
            let mut engine = TexasEngine::new(&base, texas_config.clone());
            if force {
                engine.disk_ref().peek(0);
            }
            let mut reports = Vec::new();
            for _ in 0..2 {
                run_workload(&mut engine, &txs);
                reports.push(report_counts(&engine.reorganize()));
                engine.flush_memory();
            }
            run_workload(&mut engine, &txs);
            engine.flush_memory();
            let c = engine.counters();
            (
                (c.faults, c.swap_outs),
                reports,
                engine.io_counts(),
                engine.elapsed_ms().to_bits(),
                images(engine.disk_ref()),
            )
        };
        let o2 = |force: bool| {
            let mut engine = PageServerEngine::new(&base, o2_config.clone());
            if force {
                engine.disk_ref().peek(0);
            }
            let mut reports = Vec::new();
            for _ in 0..2 {
                run_workload(&mut engine, &txs);
                reports.push(report_counts(&engine.reorganize()));
                engine.flush_memory();
            }
            run_workload(&mut engine, &txs);
            engine.flush_memory();
            (
                reports,
                engine.io_counts(),
                engine.elapsed_ms().to_bits(),
                images(engine.disk_ref()),
            )
        };

        let forced = texas(true);
        for (_, moved, _, _) in &forced.1 {
            assert!(*moved > 0, "a DSTC reorganisation moved no object");
        }
        assert_eq!(forced, texas(false));
        let forced = o2(true);
        for (_, moved, _, _) in &forced.0 {
            assert!(*moved > 0, "a DSTC reorganisation moved no object");
        }
        assert_eq!(forced, o2(false));
    }

    #[test]
    fn rendered_patches_are_the_counted_patch_scan() {
        // Rendering replays each reorganisation's reference patches and
        // asserts that they change exactly the pages the counted scan
        // wrote back, and (in tests) that the counted scan, a walk of the
        // moved objects' referrers, marks the pages a walk of the whole
        // base marks, whether the edits apply as they are logged or
        // replay at the first peek; two reorganisations also patch
        // appended pages.
        let base = ObjectBase::generate(
            &DatabaseParams {
                objects: 2_000,
                ..DatabaseParams::small()
            },
            3,
        );
        for seed in [5, 6, 7] {
            let txs = hierarchy_workload(&base, 300, seed);
            for memory_mb in [3, 64] {
                let config = TexasConfig {
                    clustering: dstc_config().clustering,
                    ..TexasConfig::with_memory_mb(memory_mb)
                };
                let mut engine = TexasEngine::new(&base, config);
                let mut patched = 0;
                for _ in 0..2 {
                    run_workload(&mut engine, &txs);
                    patched += engine.reorganize().pages_patched;
                }
                assert!(patched > 0, "seed {seed}, {memory_mb} MB: nothing patched");
                engine.disk_ref().peek(0);
            }
        }
    }
}
