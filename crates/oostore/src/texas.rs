//! The Texas-like persistent store.
//!
//! Texas (Singhal et al., POS 1992) maps the persistent store into virtual
//! memory: an object access that touches an unmapped page takes a page
//! fault, loads the page, and **swizzles** the pointers it contains —
//! which, as the paper observes (§4.3.2), "provokes the reservation in
//! memory of numerous pages even before they are actually loaded. This
//! process is clearly exponential and generates a costly swap" once the
//! database outgrows main memory (Fig. 11).
//!
//! This engine reproduces those mechanisms concretely:
//!
//! * a **centralized** architecture (Table 4: `SYSCLASS = Centralized`);
//! * page-fault-driven loading through a VM frame table: an LRU
//!   [`BufferPool`], the pool the simulator's Buffering Manager runs too;
//! * **pointer swizzling on fault**: loading a page rewrites the pointers
//!   it contains into their in-memory form — so every faulted page is
//!   *dirty* and its eviction is a swap **write**. Under memory pressure
//!   each miss therefore costs two I/Os instead of one (the paper's
//!   Fig. 11 Texas curve runs at ≈ 2× the Fig. 8 O2 curve). The
//!   address-space reservations the paper describes are not modelled:
//!   they hold no frame, and the Fig. 11 knee comes from the calibrated
//!   frames per MB ([`bufmgr::TEXAS_FRAMES_PER_MB`]);
//! * **physical OIDs**: references are stored on-page as disk locations,
//!   so the DSTC reorganisation must patch the whole database (see
//!   `reorg`).

use crate::disk::VirtualDisk;
use crate::engine::StorageEngine;
use crate::oid::PhysicalOid;
use crate::page::SlottedPage;
use crate::storage::{assign_physical_oids, payload_oid, PAGE_SIZE};
use bufmgr::{AccessOutcome, BufferPool, PolicyKind, TEXAS_FRAMES_PER_MB};
use bufmgr::{DiskTimings, IoCounts};
use clustering::{ClusteringKind, ClusteringStrategy, InitialPlacement, PageId};
use ocb::{ObjectBase, Transaction};

/// Data pages covered by one ext2 indirect block (4 KB blocks → 1024
/// 4-byte block pointers). The real Texas store lived in an ext2 file on
/// Linux 2.0: cold reads beyond the direct blocks also fetch indirect
/// blocks — metadata I/Os the VOODB model abstracts away, and a source of
/// the paper's bench-vs-sim gap.
pub const EXT2_INDIRECT_COVERAGE: u32 = 1024;

/// Configuration of the Texas-like engine. The Table 4 constants are
/// not settable: 4 KB pages, optimized-sequential initial placement, an
/// LRU VM frame table and the Texas host disk ([`DiskTimings::texas`]).
#[derive(Clone, Debug)]
pub struct TexasConfig {
    /// VM frames available to mapped data pages.
    pub memory_pages: usize,
    /// Texas's object-loading policy: faulting a page swizzles the
    /// pointers it contains (dirtying it — evictions become swap writes).
    /// Disable for ablations.
    pub swizzle: bool,
    /// OS read-ahead: on a sequential fault pattern, the kernel reads the
    /// next page too (Linux 2.0/ext2 behaviour under the real Texas). One
    /// of the mechanisms the VOODB model abstracts away — hence the
    /// paper's "lightly different in absolute value" bench-vs-sim gap.
    pub os_readahead: bool,
    /// File-system metadata faults: ext2 indirect blocks are read through
    /// the same page cache (see [`EXT2_INDIRECT_COVERAGE`]).
    pub fs_metadata: bool,
    /// Clustering policy (Table 4: DSTC; `None` to disable).
    pub clustering: ClusteringKind,
}

impl TexasConfig {
    /// The Table 4 parameterisation for a host with `memory_mb` MB of RAM.
    pub fn with_memory_mb(memory_mb: usize) -> Self {
        TexasConfig {
            memory_pages: (memory_mb * TEXAS_FRAMES_PER_MB).max(8),
            swizzle: true,
            os_readahead: true,
            fs_metadata: true,
            clustering: ClusteringKind::None,
        }
    }

    /// The paper's default host: 64 MB.
    pub fn paper_default() -> Self {
        Self::with_memory_mb(64)
    }
}

/// Running counters specific to the Texas engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct TexasCounters {
    /// Page faults taken (reads of unmapped pages).
    pub faults: u64,
    /// Dirty pages swapped out on eviction.
    pub swap_outs: u64,
    /// Object accesses executed.
    pub accesses: u64,
}

/// The Texas-like centralized persistent store.
pub struct TexasEngine<'a> {
    base: &'a ObjectBase,
    config: TexasConfig,
    disk: VirtualDisk<'a>,
    /// Logical → physical map (the engine's persistent root table).
    phys_of: Vec<PhysicalOid>,
    /// First page of the ext2 indirect-block region.
    meta_start: PageId,
    /// The VM frame table. A swizzled page is dirty: its pointers were
    /// rewritten in memory.
    vm: BufferPool,
    strategy: Box<dyn ClusteringStrategy>,
    counters: TexasCounters,
    /// Last page that took a fault, for the OS read-ahead heuristic.
    last_fault: Option<PageId>,
}

impl<'a> TexasEngine<'a> {
    /// Builds the store: places objects and mounts the virtual disk, whose
    /// data pages are built on first content access (faults and
    /// reorganisations count their I/Os without one).
    pub fn new(base: &'a ObjectBase, config: TexasConfig) -> Self {
        assert!(config.memory_pages >= 2, "need at least two VM frames");
        let placement = InitialPlacement::OptimizedSequential.build(base, PAGE_SIZE);
        let phys_of = assign_physical_oids(base, &placement);
        let meta_start = placement.page_count();
        // ext2 indirect blocks for the store file, after the data region.
        let meta_count = if config.fs_metadata {
            meta_start.div_ceil(EXT2_INDIRECT_COVERAGE).max(1)
        } else {
            0
        };
        let meta_pages = (0..meta_count)
            .map(|_| SlottedPage::new(PAGE_SIZE))
            .collect();
        let disk = VirtualDisk::deferred(
            base,
            placement,
            phys_of.clone(),
            meta_pages,
            DiskTimings::texas(),
        );
        let strategy = config.clustering.build();
        let vm = BufferPool::new(config.memory_pages, PolicyKind::Lru);
        TexasEngine {
            base,
            config,
            disk,
            phys_of,
            meta_start,
            vm,
            strategy,
            counters: TexasCounters::default(),
            last_fault: None,
        }
    }

    /// The ext2 indirect block covering data page `page`. Pages appended
    /// by reorganisations clamp to the last indirect block (the grown
    /// file's new pointers land there — an accepted approximation).
    fn meta_page_of(&self, page: PageId) -> PageId {
        let meta_count = self.disk.page_count() - self.meta_start;
        self.meta_start + (page / EXT2_INDIRECT_COVERAGE).min(meta_count.saturating_sub(1))
    }

    /// References `page` through the VM (`write` dirties it). A fault
    /// swaps the LRU victim out before reading the page. Returns whether
    /// the reference faulted.
    fn fault(&mut self, page: PageId, write: bool) -> bool {
        let AccessOutcome::Miss { evicted } = self.vm.access(page, write) else {
            return false;
        };
        self.swap_out(evicted);
        self.disk.read(page);
        self.counters.faults += 1;
        true
    }

    /// Writes back a page that lost its frame, if it was dirty.
    fn swap_out(&mut self, evicted: Option<(PageId, bool)>) {
        if let Some((victim, true)) = evicted {
            self.disk.write_back(victim);
            self.counters.swap_outs += 1;
        }
    }

    /// Texas-specific counters.
    pub fn counters(&self) -> TexasCounters {
        self.counters
    }

    /// The physical OID of a logical object (root-table lookup).
    // audit: the reorganisation property of the root `tests/properties.rs` reads it
    pub fn physical_oid(&self, oid: ocb::Oid) -> PhysicalOid {
        self.phys_of[oid as usize]
    }

    /// Number of pages on disk.
    pub fn page_count(&self) -> u32 {
        self.disk.page_count()
    }

    /// Pages currently occupying VM frames.
    #[cfg(test)]
    pub fn mapped_pages(&self) -> usize {
        self.vm.resident_count()
    }

    /// Read-only view of the virtual disk (inspection and tests).
    pub fn disk_ref(&self) -> &VirtualDisk<'a> {
        &self.disk
    }

    pub(crate) fn disk_mut(&mut self) -> &mut VirtualDisk<'a> {
        &mut self.disk
    }

    pub(crate) fn phys_of(&self) -> &[PhysicalOid] {
        &self.phys_of
    }

    pub(crate) fn phys_of_mut(&mut self) -> &mut [PhysicalOid] {
        &mut self.phys_of
    }

    pub(crate) fn strategy_and_base(&mut self) -> (&mut dyn ClusteringStrategy, &'a ObjectBase) {
        (self.strategy.as_mut(), self.base)
    }

    pub(crate) fn clear_vm(&mut self) {
        self.vm = BufferPool::new(self.config.memory_pages, PolicyKind::Lru);
    }

    /// OS read-ahead: on a sequential fault pattern, the kernel stages the
    /// next page too (one extra read, loaded clean).
    fn readahead(&mut self, faulted: PageId) {
        let sequential = matches!(self.last_fault, Some(last) if faulted == last + 1);
        self.last_fault = Some(faulted);
        if !self.config.os_readahead || !sequential {
            return;
        }
        let next = faulted + 1;
        if next < self.disk.page_count() && !self.vm.contains(next) {
            // Staged by the OS, not yet touched by Texas: clean until the
            // first access swizzles it.
            let evicted = self.vm.prefetch(next);
            self.swap_out(evicted);
            self.disk.read(next);
        }
    }

    /// Faults `page` into memory if necessary; `write` dirties it.
    fn touch_page(&mut self, page: PageId, write: bool) {
        // File-system metadata: a data-page read goes through the ext2
        // indirect block, itself cached in the same memory.
        if self.config.fs_metadata && !self.vm.contains(page) {
            let meta = self.meta_page_of(page);
            self.fault(meta, false);
        }
        let faulted = self.fault(page, write);
        if self.config.swizzle {
            // Swizzling rewrites the pointers of a faulted page, or of an
            // OS-staged page at its first touch: either way it is dirty.
            self.vm.mark_dirty(page);
        }
        if faulted {
            self.readahead(page);
        }
    }
}

impl StorageEngine for TexasEngine<'_> {
    fn name(&self) -> &'static str {
        "texas"
    }

    fn execute(&mut self, transaction: &Transaction) {
        for access in &transaction.accesses {
            self.counters.accesses += 1;
            let phys = self.phys_of[access.oid as usize];
            self.touch_page(phys.page, access.write);
            // Dereference the object (sanity: the payload is really there).
            debug_assert_eq!(
                payload_oid(
                    self.disk
                        .peek(phys.page)
                        .get(phys.slot)
                        .expect("object slot is live")
                ),
                access.oid
            );
            self.strategy.on_access(access.parent, access.oid);
        }
    }

    fn io_counts(&self) -> IoCounts {
        self.disk.counts()
    }

    fn elapsed_ms(&self) -> f64 {
        self.disk.elapsed_ms()
    }

    fn reset_counters(&mut self) {
        self.disk.reset_counters();
    }

    fn flush_memory(&mut self) {
        // Swap out dirty pages in page order; flush_all also drops every
        // frame (cold restart).
        for page in self.vm.flush_all() {
            self.disk.write_back(page);
            self.counters.swap_outs += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_workload;
    use clustering::DstcParams;
    use ocb::{DatabaseParams, WorkloadGenerator, WorkloadParams};

    fn small_base() -> ObjectBase {
        ObjectBase::generate(&DatabaseParams::small(), 77)
    }

    fn config(memory_pages: usize, swizzle: bool) -> TexasConfig {
        TexasConfig {
            memory_pages,
            swizzle,
            os_readahead: false,
            fs_metadata: false,
            clustering: ClusteringKind::None,
        }
    }

    #[test]
    fn data_region_stores_headers_and_references_only() {
        // The paper's 20,000-object base: ~18 MB of payload at this seed,
        // of which headers and reference wires are ~1 MB; the attribute
        // filler is implied, not stored.
        let base = ObjectBase::generate(&DatabaseParams::default(), 7);
        let engine = TexasEngine::new(&base, TexasConfig::with_memory_mb(64));
        let stored: usize = (0..engine.meta_start)
            .map(|page| engine.disk_ref().peek(page).stored_bytes())
            .sum();
        let payload: u64 = base.iter().map(|(_, object)| u64::from(object.size)).sum();
        assert!(payload > 15_000_000, "{payload} B of payload");
        assert!(stored <= 1_500_000, "{stored} B stored");
    }

    #[test]
    fn repeated_access_faults_once_with_ample_memory() {
        let base = small_base();
        let mut engine = TexasEngine::new(&base, config(10_000, false));
        let phys = engine.physical_oid(5);
        let t = Transaction {
            kind: ocb::TransactionKind::SetOriented,
            root: 5,
            accesses: vec![
                ocb::Access {
                    oid: 5,
                    parent: None,
                    write: false
                };
                10
            ],
        };
        engine.execute(&t);
        assert_eq!(engine.io_counts().reads, 1, "one fault, nine hits");
        assert_eq!(engine.counters().faults, 1);
        assert!(engine.mapped_pages() >= 1);
        let _ = phys;
    }

    #[test]
    fn swizzling_dirties_faulted_pages() {
        let base = small_base();
        let mut without = TexasEngine::new(&base, config(10_000, false));
        let mut with = TexasEngine::new(&base, config(10_000, true));
        let t = Transaction {
            kind: ocb::TransactionKind::SetOriented,
            root: 0,
            accesses: vec![ocb::Access {
                oid: 0,
                parent: None,
                write: false,
            }],
        };
        without.execute(&t);
        with.execute(&t);
        assert_eq!(without.mapped_pages(), 1);
        assert_eq!(with.mapped_pages(), 1, "reservations hold no frame");
        // Swizzling costs no extra read…
        assert_eq!(with.io_counts().reads, without.io_counts().reads);
        // …but the swizzled page swaps out dirty, the clean one does not.
        with.flush_memory();
        without.flush_memory();
        assert_eq!(with.counters().swap_outs, 1);
        assert_eq!(without.counters().swap_outs, 0);
    }

    #[test]
    fn memory_pressure_causes_refaults_and_swaps() {
        let base = small_base();
        let params = WorkloadParams {
            hot_transactions: 100,
            ..WorkloadParams::default()
        };
        // Plenty of memory vs. starved.
        let mut big = TexasEngine::new(&base, config(10_000, true));
        let mut small = TexasEngine::new(&base, config(8, true));
        let txs: Vec<Transaction> = {
            let mut generator = WorkloadGenerator::new(&base, params, 3);
            (0..100).map(|_| generator.next_transaction()).collect()
        };
        let big_report = run_workload(&mut big, &txs);
        let small_report = run_workload(&mut small, &txs);
        assert!(
            small_report.total_ios() > big_report.total_ios() * 2,
            "starved memory should thrash: {} vs {}",
            small_report.total_ios(),
            big_report.total_ios()
        );
        // Swizzle-dirty pages swap out under pressure: writes ≈ reads.
        assert!(small_report.io.writes > 0, "dirty swap-outs expected");
        assert!(small.counters().swap_outs > 0);
    }

    #[test]
    fn writes_cause_swap_outs_under_pressure() {
        let base = small_base();
        let params = WorkloadParams {
            hot_transactions: 50,
            p_write: 0.5,
            ..WorkloadParams::default()
        };
        let mut engine = TexasEngine::new(&base, config(8, false));
        let txs: Vec<Transaction> = {
            let mut generator = WorkloadGenerator::new(&base, params, 5);
            (0..50).map(|_| generator.next_transaction()).collect()
        };
        run_workload(&mut engine, &txs);
        assert!(engine.counters().swap_outs > 0);
        assert!(engine.io_counts().writes > 0);
    }

    #[test]
    fn flush_memory_forces_cold_faults() {
        let base = small_base();
        let mut engine = TexasEngine::new(&base, config(10_000, false));
        let t = Transaction {
            kind: ocb::TransactionKind::SetOriented,
            root: 9,
            accesses: vec![ocb::Access {
                oid: 9,
                parent: None,
                write: false,
            }],
        };
        engine.execute(&t);
        assert_eq!(engine.io_counts().reads, 1);
        engine.execute(&t);
        assert_eq!(engine.io_counts().reads, 1, "hit while warm");
        engine.flush_memory();
        engine.execute(&t);
        assert_eq!(engine.io_counts().reads, 2, "cold again after flush");
    }

    #[test]
    fn deterministic_io_counts() {
        let base = small_base();
        let params = WorkloadParams::small();
        let run = || {
            let mut engine = TexasEngine::new(&base, config(64, true));
            let txs: Vec<Transaction> = {
                let mut g = WorkloadGenerator::new(&base, params.clone(), 9);
                (0..50).map(|_| g.next_transaction()).collect()
            };
            run_workload(&mut engine, &txs).total_ios()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn counters_and_disk_time_pinned_at_3_and_64_mb() {
        // Values recorded with the engine's earlier private LRU frame
        // table. The disk time pins the order of every swap-out against
        // every read (contiguous and random accesses cost differently).
        let base = ObjectBase::generate(
            &DatabaseParams {
                objects: 4_000,
                ..DatabaseParams::default()
            },
            31,
        );
        let params = WorkloadParams {
            hot_transactions: 400,
            p_write: 0.2,
            ..WorkloadParams::default()
        };
        let txs: Vec<Transaction> = {
            let mut generator = WorkloadGenerator::new(&base, params, 17);
            (0..400).map(|_| generator.next_transaction()).collect()
        };
        // Swizzle, read-ahead and fs-metadata on; DSTC reorganises between
        // the two runs, appending pages the VM has not seen yet.
        let observe = |memory_mb: usize| {
            let config = TexasConfig {
                clustering: ClusteringKind::Dstc(DstcParams {
                    observation_period: 2_000,
                    tfa: 2.0,
                    tfc: 1.0,
                    tfe: 2.0,
                    w: 0.8,
                    max_unit_size: 32,
                    trigger_threshold: 100,
                }),
                ..TexasConfig::with_memory_mb(memory_mb)
            };
            let mut engine = TexasEngine::new(&base, config);
            run_workload(&mut engine, &txs);
            engine.reorganize();
            engine.flush_memory();
            run_workload(&mut engine, &txs);
            engine.flush_memory();
            let c = engine.counters();
            let io = engine.io_counts();
            (
                c.faults,
                c.swap_outs,
                io.reads,
                io.writes,
                engine.elapsed_ms(),
            )
        };
        assert_eq!(observe(3), (20513, 19827, 21709, 20034, 490123.40000031976));
        assert_eq!(observe(64), (2314, 1160, 3500, 1367, 32210.000000001277));
    }

    #[test]
    fn reorganisation_leaves_the_image_unbuilt_until_first_peek() {
        let base = small_base();
        let config = TexasConfig {
            fs_metadata: true,
            clustering: ClusteringKind::Dstc(DstcParams {
                observation_period: 2_000,
                tfa: 2.0,
                tfc: 1.0,
                tfe: 2.0,
                w: 0.8,
                max_unit_size: 32,
                trigger_threshold: 100,
            }),
            ..config(100, true)
        };
        let mut engine = TexasEngine::new(&base, config.clone());
        let data_pages = engine.meta_start;
        assert_eq!(engine.disk.built_data_pages(), 0);
        engine.disk.read(0);
        engine.disk.write_back(0);
        engine.disk.peek(data_pages); // an ext2 metadata page: always built
        assert_eq!(engine.disk.built_data_pages(), 0, "I/O needs no content");
        // Faults, swizzles and the reorganisation read no page content
        // either (in debug, `execute`'s payload check reads every
        // accessed object).
        let params = WorkloadParams {
            hot_transactions: 300,
            ..WorkloadParams::dstc_favorable()
        };
        let txs: Vec<Transaction> = {
            let mut generator = WorkloadGenerator::new(&base, params, 42);
            (0..300).map(|_| generator.next_transaction()).collect()
        };
        run_workload(&mut engine, &txs);
        if !cfg!(debug_assertions) {
            assert_eq!(engine.disk.built_data_pages(), 0, "faults need no content");
        }
        let report = engine.reorganize();
        assert!(report.moved_objects > 0, "DSTC moved no object");
        if !cfg!(debug_assertions) {
            assert_eq!(
                engine.disk.built_data_pages(),
                0,
                "the plan counts the I/Os"
            );
        }
        // The first peek renders the logged edits: the bytes of a store
        // whose image was built before it reorganised.
        let mut built = TexasEngine::new(&base, config);
        built.disk.peek(0);
        run_workload(&mut built, &txs);
        built.reorganize();
        let images = |engine: &TexasEngine<'_>| -> Vec<SlottedPage> {
            (0..engine.page_count())
                .map(|page| engine.disk.peek(page).clone())
                .collect()
        };
        assert_eq!(images(&engine), images(&built));
        let meta_pages = engine.page_count() - engine.disk.built_data_pages() as u32;
        assert_eq!(meta_pages, data_pages.div_ceil(EXT2_INDIRECT_COVERAGE));
    }

    #[test]
    fn frames_per_mb_matches_fig11_knee() {
        // 230 frames/MB: the Fig. 11 knee sits between the 16 MB and
        // 24 MB sweep points for the ~21 MB mid-sized base.
        let frames_bytes = |mb: usize| mb * TEXAS_FRAMES_PER_MB * 4096;
        let db_bytes = 21 * 1024 * 1024;
        assert!(frames_bytes(16) < db_bytes);
        assert!(frames_bytes(24) > db_bytes);
        let config = TexasConfig::paper_default();
        assert_eq!(config.memory_pages, 64 * TEXAS_FRAMES_PER_MB);
    }
}
