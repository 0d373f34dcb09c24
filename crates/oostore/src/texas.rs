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
//!   Fig. 11 Texas curve runs at ≈ 2× the Fig. 8 O2 curve), on top of the
//!   address-space reservations for the referenced pages;
//! * **physical OIDs**: references are stored on-page as disk locations,
//!   so the DSTC reorganisation must patch the whole database (see
//!   `reorg`).

use crate::disk::{DiskTimings, IoCounts, VirtualDisk};
use crate::engine::StorageEngine;
use crate::oid::PhysicalOid;
use crate::page::SlottedPage;
use crate::storage::{assign_physical_oids, payload_oid, payload_refs};
use bufmgr::{AccessOutcome, BufferPool, PolicyKind};
use clustering::{ClusteringKind, ClusteringStrategy, InitialPlacement, PageId};
use ocb::{ObjectBase, Transaction};

/// Pages of usable frame memory per MB of machine memory.
///
/// Calibrated to the *knee* of Fig. 11: the paper observes that Texas's
/// performance "rapidly degrades when the main memory size becomes smaller
/// than the database size (about 21 MB)" — i.e. on the 64 MB host the
/// mapped store effectively enjoys most of RAM as page cache, and
/// degradation starts between the 24 MB and 16 MB sweep points. 230
/// frames/MB (≈ 90% of RAM) places the knee exactly there. (Table 4's
/// literal `BUFFSIZE = 3275` pages ≈ 13 MB would contradict the knee the
/// paper itself reports; see EXPERIMENTS.md for the discrepancy note.)
pub const TEXAS_FRAMES_PER_MB: usize = 230;

/// Data pages covered by one ext2 indirect block (4 KB blocks → 1024
/// 4-byte block pointers). The real Texas store lived in an ext2 file on
/// Linux 2.0: cold reads beyond the direct blocks also fetch indirect
/// blocks — metadata I/Os the VOODB model abstracts away, and a source of
/// the paper's bench-vs-sim gap.
pub const EXT2_INDIRECT_COVERAGE: u32 = 1024;

/// Configuration of the Texas-like engine.
#[derive(Clone, Debug)]
pub struct TexasConfig {
    /// Disk page size in bytes (Table 4: 4096).
    pub page_size: u32,
    /// VM frames available to mapped data pages.
    pub memory_pages: usize,
    /// Initial object placement (Table 4: Optimized Sequential).
    pub initial_placement: InitialPlacement,
    /// Texas's object-loading policy: faulting a page swizzles the
    /// pointers it contains (dirtying it — evictions become swap writes)
    /// and reserves address space for every referenced page. Disable for
    /// ablations.
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
    /// Disk timing model (Table 4 Texas column).
    pub timings: DiskTimings,
}

impl TexasConfig {
    /// The Table 4 parameterisation for a host with `memory_mb` MB of RAM.
    pub fn with_memory_mb(memory_mb: usize) -> Self {
        TexasConfig {
            page_size: 4096,
            memory_pages: (memory_mb * TEXAS_FRAMES_PER_MB).max(8),
            initial_placement: InitialPlacement::OptimizedSequential,
            swizzle: true,
            os_readahead: true,
            fs_metadata: true,
            clustering: ClusteringKind::None,
            timings: DiskTimings::texas(),
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
    /// Address-space page reservations made by swizzling (no frame cost;
    /// diagnostic of the fan-out the paper describes).
    pub reservations: u64,
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
    /// Scratch list of a faulted page's reference targets, kept across
    /// faults so swizzling allocates nothing.
    targets: Vec<PageId>,
}

impl<'a> TexasEngine<'a> {
    /// Builds the store: places objects and mounts the virtual disk, whose
    /// data pages are built on first content access (in practice the
    /// first swizzle fault).
    pub fn new(base: &'a ObjectBase, config: TexasConfig) -> Self {
        assert!(config.memory_pages >= 2, "need at least two VM frames");
        let placement = config.initial_placement.build(base, config.page_size);
        let phys_of = assign_physical_oids(base, &placement);
        let meta_start = placement.page_count();
        // ext2 indirect blocks for the store file, after the data region.
        let meta_count = if config.fs_metadata {
            meta_start.div_ceil(EXT2_INDIRECT_COVERAGE).max(1)
        } else {
            0
        };
        let meta_pages = (0..meta_count)
            .map(|_| SlottedPage::new(config.page_size))
            .collect();
        let disk =
            VirtualDisk::deferred(base, placement, phys_of.clone(), meta_pages, config.timings);
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
            targets: Vec::new(),
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

    /// The object base the store holds.
    pub fn base(&self) -> &ObjectBase {
        self.base
    }

    /// The engine configuration.
    pub fn config(&self) -> &TexasConfig {
        &self.config
    }

    /// Texas-specific counters.
    pub fn counters(&self) -> TexasCounters {
        self.counters
    }

    /// The physical OID of a logical object (root-table lookup).
    pub fn physical_oid(&self, oid: ocb::Oid) -> PhysicalOid {
        self.phys_of[oid as usize]
    }

    /// Number of pages on disk.
    pub fn page_count(&self) -> u32 {
        self.disk.page_count()
    }

    /// Pages currently occupying VM frames.
    pub fn mapped_pages(&self) -> usize {
        self.vm.resident_count()
    }

    /// Direct access to the clustering strategy (experiment drivers force
    /// consolidations or inspect statistics through this).
    pub fn strategy_mut(&mut self) -> &mut dyn ClusteringStrategy {
        self.strategy.as_mut()
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

    /// Number of distinct other pages the live objects of `page` reference.
    fn referenced_pages(&mut self, page: PageId) -> usize {
        let targets = &mut self.targets;
        targets.clear();
        let slotted = self.disk.peek(page);
        for slot in slotted.live_slots() {
            let payload = slotted.get(slot).expect("live slot");
            targets.extend(payload_refs(payload).map(|r| r.page).filter(|&p| p != page));
        }
        targets.sort_unstable();
        targets.dedup();
        targets.len()
    }

    /// Swizzle step: rewrite the faulted page's pointers (it is now dirty)
    /// and reserve address space for every page it references (counted;
    /// reservations hold no physical frame).
    fn swizzle(&mut self, page: PageId) {
        if !self.config.swizzle {
            return;
        }
        self.counters.reservations += self.referenced_pages(page) as u64;
        self.vm.mark_dirty(page);
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
        if self.fault(page, write) {
            self.swizzle(page);
            self.readahead(page);
        } else if self.config.swizzle {
            // First touch of an OS-staged page: Texas swizzles it now.
            self.vm.mark_dirty(page);
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
            page_size: 4096,
            memory_pages,
            initial_placement: InitialPlacement::OptimizedSequential,
            swizzle,
            os_readahead: false,
            fs_metadata: false,
            clustering: ClusteringKind::None,
            timings: DiskTimings::texas(),
        }
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
        assert!(with.counters().reservations > 0, "address space reserved");
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
                c.reservations,
                io.reads,
                io.writes,
                engine.elapsed_ms(),
            )
        };
        assert_eq!(
            observe(3),
            (20513, 19827, 324477, 21709, 20034, 490123.40000031976)
        );
        assert_eq!(
            observe(64),
            (2314, 1160, 38029, 3500, 1367, 32210.000000001277)
        );
    }

    #[test]
    fn new_leaves_the_image_unbuilt_until_first_fault() {
        let base = small_base();
        let config = TexasConfig {
            fs_metadata: true,
            ..config(100, true)
        };
        let mut engine = TexasEngine::new(&base, config);
        let data_pages = engine.meta_start;
        assert_eq!(engine.disk.built_data_pages(), 0);
        engine.disk.read(0);
        engine.disk.write_back(0);
        engine.disk.peek(data_pages); // an ext2 metadata page: always built
        assert_eq!(engine.disk.built_data_pages(), 0, "I/O needs no content");
        // The first fault swizzles the page, reading its references.
        let t = Transaction {
            kind: ocb::TransactionKind::SetOriented,
            root: 4,
            accesses: vec![ocb::Access {
                oid: 4,
                parent: None,
                write: false,
            }],
        };
        engine.execute(&t);
        assert_eq!(engine.disk.built_data_pages(), data_pages as usize);
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
