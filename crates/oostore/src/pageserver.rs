//! The O2-like page server.
//!
//! O2 (Deux et al., CACM 1991) is the paper's page-server validation
//! target: clients request *pages* from a server that owns the disk and a
//! page buffer (Table 4: 3840 frames of 4 KB under LRU, network throughput
//! treated as infinite). Object lookups go through a resident OID table —
//! O2 uses **logical OIDs**, so a reorganisation only rewrites the pages it
//! touches and updates the map; no patch scan (contrast with
//! [`crate::texas`]).

use crate::disk::{DiskTimings, IoCounts, VirtualDisk};
use crate::engine::StorageEngine;
use crate::oid::PhysicalOid;
use crate::page::SlottedPage;
use crate::reorg::{ReorgPlan, ReorgReport};
use crate::storage::{assign_physical_oids, payload_oid, write_object};
use bufmgr::{AccessOutcome, BufferPool, PolicyKind};
use clustering::{ClusteringKind, ClusteringStrategy, InitialPlacement, PageId};
use clustering::{PAGE_HEADER_BYTES, SLOT_ENTRY_BYTES};
use ocb::{ObjectBase, Oid, Transaction};

/// Server-buffer frames per MB of cache.
///
/// Table 4 parameterises O2's 16 MB server cache as 3840 pages of 4 KB —
/// i.e. 240 frames per MB; the cache sweep of Fig. 8 scales with the same
/// calibration.
pub const O2_FRAMES_PER_MB: usize = 240;

/// Configuration of the page-server engine.
#[derive(Clone, Debug)]
pub struct PageServerConfig {
    /// Disk page size in bytes (Table 4: 4096).
    pub page_size: u32,
    /// Server buffer frames.
    pub buffer_pages: usize,
    /// Server buffer replacement policy (Table 4: LRU).
    pub policy: PolicyKind,
    /// Initial object placement (Table 4: Optimized Sequential).
    pub initial_placement: InitialPlacement,
    /// Clustering policy (Table 4 O2 column: None).
    pub clustering: ClusteringKind,
    /// Disk timing model (Table 4 O2 column).
    pub timings: DiskTimings,
}

impl PageServerConfig {
    /// The Table 4 parameterisation for a server cache of `cache_mb` MB.
    pub fn with_cache_mb(cache_mb: usize) -> Self {
        PageServerConfig {
            page_size: 4096,
            buffer_pages: (cache_mb * O2_FRAMES_PER_MB).max(8),
            policy: PolicyKind::Lru,
            initial_placement: InitialPlacement::OptimizedSequential,
            clustering: ClusteringKind::None,
            timings: DiskTimings::o2(),
        }
    }

    /// The paper's default O2 server: 16 MB cache.
    pub fn paper_default() -> Self {
        Self::with_cache_mb(16)
    }
}

/// Counters specific to the page server.
#[derive(Clone, Copy, Debug, Default)]
pub struct PageServerCounters {
    /// Pages shipped to the client (network transfers).
    pub pages_shipped: u64,
    /// Object accesses executed.
    pub accesses: u64,
}

/// The O2-like page-server engine.
pub struct PageServerEngine<'a> {
    base: &'a ObjectBase,
    config: PageServerConfig,
    disk: VirtualDisk<'a>,
    /// Logical OID table: logical → physical. The in-memory image; the
    /// table is also **persistent** (`oid_pages` on disk), faulted through
    /// the same server buffer — a real system cost the simulation's
    /// abstract OID map does not pay, and one source of the paper's
    /// "lightly different in absolute value" bench-vs-sim gap.
    oid_table: Vec<PhysicalOid>,
    /// First disk page of the persistent OID table.
    oid_pages_start: PageId,
    /// OID-table entries per page.
    oid_entries_per_page: u32,
    buffer: BufferPool,
    strategy: Box<dyn ClusteringStrategy>,
    counters: PageServerCounters,
}

impl<'a> PageServerEngine<'a> {
    /// Builds the server: places objects, mounts the disk (data pages,
    /// built on first content access, then the persistent OID table) and
    /// allocates the buffer.
    pub fn new(base: &'a ObjectBase, config: PageServerConfig) -> Self {
        let placement = config.initial_placement.build(base, config.page_size);
        let oid_table = assign_physical_oids(base, &placement);
        let oid_pages_start = placement.page_count();
        let oid_entries_per_page = oid_entries_per_page(config.page_size);
        let oid_pages = oid_table_pages(&oid_table, config.page_size);
        let disk = VirtualDisk::deferred(
            base,
            placement,
            oid_table.clone(),
            oid_pages,
            config.timings,
        );
        let buffer = BufferPool::new(config.buffer_pages, config.policy);
        let strategy = config.clustering.build();
        PageServerEngine {
            base,
            config,
            disk,
            oid_table,
            oid_pages_start,
            oid_entries_per_page,
            buffer,
            strategy,
            counters: PageServerCounters::default(),
        }
    }

    /// The disk page of the persistent OID table holding `oid`'s entry.
    fn oid_page_of(&self, oid: Oid) -> PageId {
        self.oid_pages_start + oid / self.oid_entries_per_page
    }

    /// Resolves a logical OID, faulting the persistent OID-table page
    /// through the server buffer (no network: the table is server-side).
    fn resolve_oid(&mut self, oid: Oid, write: bool) -> PhysicalOid {
        let table_page = self.oid_page_of(oid);
        match self.buffer.access(table_page, write) {
            AccessOutcome::Hit => {}
            AccessOutcome::Miss { evicted } => {
                if let Some((victim, true)) = evicted {
                    self.disk.write_back(victim);
                }
                self.disk.read(table_page);
            }
        }
        self.oid_table[oid as usize]
    }

    /// The object base served.
    pub fn base(&self) -> &ObjectBase {
        self.base
    }

    /// The engine configuration.
    pub fn config(&self) -> &PageServerConfig {
        &self.config
    }

    /// Server-specific counters.
    pub fn counters(&self) -> PageServerCounters {
        self.counters
    }

    /// Buffer statistics (hits, misses, evictions).
    pub fn buffer_stats(&self) -> bufmgr::BufferStats {
        self.buffer.stats()
    }

    /// The physical location of a logical object (OID-table lookup).
    pub fn physical_oid(&self, oid: Oid) -> PhysicalOid {
        self.oid_table[oid as usize]
    }

    /// Number of pages on disk.
    pub fn page_count(&self) -> u32 {
        self.disk.page_count()
    }

    /// Read-only view of the virtual disk.
    pub fn disk_ref(&self) -> &VirtualDisk<'a> {
        &self.disk
    }

    /// Direct access to the clustering strategy.
    pub fn strategy_mut(&mut self) -> &mut dyn ClusteringStrategy {
        self.strategy.as_mut()
    }

    /// The client requests the page holding `phys`; the server serves it
    /// from the buffer or the disk.
    fn request_page(&mut self, page: PageId, write: bool) {
        self.counters.pages_shipped += 1;
        match self.buffer.access(page, write) {
            AccessOutcome::Hit => {}
            AccessOutcome::Miss { evicted } => {
                if let Some((victim, true)) = evicted {
                    self.disk.write_back(victim);
                }
                self.disk.read(page);
            }
        }
    }

    /// Runs the logical-OID reorganisation: cluster members move into fresh
    /// pages; only the touched pages cost I/Os, the OID table absorbs the
    /// relocation — **no database scan** (the decisive contrast with the
    /// physical-OID store).
    pub fn reorganize(&mut self) -> ReorgReport {
        let io_before = self.disk.counts();
        let outcome = self.strategy.build_clusters(self.base);
        if outcome.clusters.is_empty() {
            return ReorgReport {
                outcome,
                ..ReorgReport::default()
            };
        }

        let page_size = self.config.page_size;
        let plan = ReorgPlan::new(
            self.base,
            &outcome.clusters,
            page_size,
            self.disk.page_count(),
            &self.oid_table,
        );
        plan.extract(&mut self.disk, |page| {
            self.buffer.invalidate(page);
        });

        // Pack cluster members into fresh pages; references stay *logical*
        // in spirit — the stored physical refs of other objects are not
        // touched because lookups go through the OID table. The moved
        // objects themselves are re-serialised at their new locations,
        // their references read from the OID table as packing goes (an
        // object packed earlier is already at its new home).
        for members in plan.cluster_pages() {
            let mut slotted = SlottedPage::new(page_size);
            for &oid in members {
                let object = self.base.object(oid);
                let refs = object.refs.iter().map(|&t| self.oid_table[t as usize]);
                slotted.insert_with(object.size, |out| write_object(oid, refs, out));
                self.oid_table[oid as usize] = plan.new_location(oid).expect("planned move");
            }
            self.disk.append_page(slotted);
        }

        // Persist the relocated OID-table entries: read–modify–write each
        // affected table page. Still no database scan — the whole point of
        // logical OIDs is that only the map changes.
        let (start, per_page) = (self.oid_pages_start, self.oid_entries_per_page);
        let moved: Vec<(Oid, PhysicalOid)> = plan.moved_by_oid().collect();
        for run in moved.chunk_by(|a, b| a.0 / per_page == b.0 / per_page) {
            let page = start + run[0].0 / per_page;
            self.disk.read(page);
            let slotted = self.disk.peek_mut(page);
            let payload = slotted.get_mut(0).expect("OID-table payload");
            for &(oid, entry) in run {
                let at = (oid % per_page) as usize * PhysicalOid::WIRE_BYTES;
                entry.encode(&mut payload[at..at + PhysicalOid::WIRE_BYTES]);
            }
            self.disk.write_back(page);
            self.buffer.invalidate(page);
        }

        ReorgReport {
            io: self.disk.counts().since(io_before),
            moved_objects: plan.moved_count(),
            pages_scanned: 0,
            pages_patched: 0,
            outcome,
        }
    }
}

/// Persistent OID-table entries per page: the page's one payload holds
/// fixed 8-byte entries.
fn oid_entries_per_page(page_size: u32) -> u32 {
    (page_size - PAGE_HEADER_BYTES - SLOT_ENTRY_BYTES) / PhysicalOid::WIRE_BYTES as u32
}

/// The persistent OID table's pages: the entries of `oid_table` packed
/// into one big payload per page.
pub(crate) fn oid_table_pages(oid_table: &[PhysicalOid], page_size: u32) -> Vec<SlottedPage> {
    let entry_bytes = PhysicalOid::WIRE_BYTES;
    oid_table
        .chunks(oid_entries_per_page(page_size) as usize)
        .map(|chunk| {
            let mut payload = vec![0u8; chunk.len() * entry_bytes];
            for (i, phys) in chunk.iter().enumerate() {
                phys.encode(&mut payload[i * entry_bytes..(i + 1) * entry_bytes]);
            }
            let mut page = SlottedPage::new(page_size);
            page.insert(&payload);
            page
        })
        .collect()
}

impl StorageEngine for PageServerEngine<'_> {
    fn name(&self) -> &'static str {
        "o2-pageserver"
    }

    fn execute(&mut self, transaction: &Transaction) {
        for access in &transaction.accesses {
            self.counters.accesses += 1;
            let phys = self.resolve_oid(access.oid, false);
            self.request_page(phys.page, access.write);
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
        for page in self.buffer.flush_all() {
            self.disk.write_back(page);
        }
        // Rebuild an empty buffer with the same policy.
        self.buffer = BufferPool::new(self.config.buffer_pages, self.config.policy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_workload;
    use clustering::DstcParams;
    use ocb::{DatabaseParams, WorkloadGenerator, WorkloadParams};

    fn small_base() -> ObjectBase {
        ObjectBase::generate(&DatabaseParams::small(), 55)
    }

    fn config(buffer_pages: usize) -> PageServerConfig {
        PageServerConfig {
            page_size: 4096,
            buffer_pages,
            policy: PolicyKind::Lru,
            initial_placement: InitialPlacement::OptimizedSequential,
            clustering: ClusteringKind::None,
            timings: DiskTimings::o2(),
        }
    }

    #[test]
    fn buffer_hit_avoids_io() {
        let base = small_base();
        let mut engine = PageServerEngine::new(&base, config(100));
        let t = Transaction {
            kind: ocb::TransactionKind::SetOriented,
            root: 3,
            accesses: vec![
                ocb::Access {
                    oid: 3,
                    parent: None,
                    write: false
                };
                5
            ],
        };
        engine.execute(&t);
        // Two cold reads: the persistent OID-table page and the data page.
        assert_eq!(engine.io_counts().reads, 2);
        assert_eq!(
            engine.counters().pages_shipped,
            5,
            "network still pays per request"
        );
        // Each access looks up the OID table then the data page: 10
        // lookups, 2 cold misses.
        assert_eq!(engine.buffer_stats().hits, 8);
        assert_eq!(engine.buffer_stats().misses, 2);
    }

    #[test]
    fn small_buffer_thrashes() {
        let base = small_base();
        let params = WorkloadParams {
            hot_transactions: 100,
            ..WorkloadParams::default()
        };
        let txs: Vec<Transaction> = {
            let mut g = WorkloadGenerator::new(&base, params, 8);
            (0..100).map(|_| g.next_transaction()).collect()
        };
        let mut big = PageServerEngine::new(&base, config(10_000));
        let mut small = PageServerEngine::new(&base, config(8));
        let big_report = run_workload(&mut big, &txs);
        let small_report = run_workload(&mut small, &txs);
        assert!(small_report.total_ios() > big_report.total_ios());
    }

    #[test]
    fn logical_reorg_skips_the_scan() {
        let base = small_base();
        let mut engine = PageServerEngine::new(
            &base,
            PageServerConfig {
                clustering: ClusteringKind::Dstc(DstcParams {
                    observation_period: 2_000,
                    tfa: 2.0,
                    tfc: 1.0,
                    tfe: 2.0,
                    w: 0.8,
                    max_unit_size: 32,
                    trigger_threshold: 100,
                }),
                ..config(10_000)
            },
        );
        let params = WorkloadParams {
            hot_transactions: 300,
            ..WorkloadParams::dstc_favorable()
        };
        let txs: Vec<Transaction> = {
            let mut g = WorkloadGenerator::new(&base, params, 10);
            (0..300).map(|_| g.next_transaction()).collect()
        };
        run_workload(&mut engine, &txs);
        let report = engine.reorganize();
        assert!(report.outcome.cluster_count() > 0);
        assert_eq!(report.pages_scanned, 0, "logical OIDs need no scan");
        assert_eq!(report.pages_patched, 0);
        // Accounting identity: reads = distinct source pages; writes =
        // source pages (tombstoned) + fresh cluster pages.
        assert!(report.io.writes >= report.io.reads);
        let cluster_pages = report.io.writes - report.io.reads;
        assert!(cluster_pages >= 1, "at least one cluster page written");

        // Objects remain reachable through the OID table.
        for (oid, _) in base.iter() {
            let phys = engine.physical_oid(oid);
            let payload = engine
                .disk_ref()
                .peek(phys.page)
                .get(phys.slot)
                .unwrap_or_else(|| panic!("object {oid} lost"));
            assert_eq!(crate::storage::payload_oid(payload), oid);
        }
        // And the workload still runs, faster.
        engine.flush_memory();
        engine.reset_counters();
        let post = run_workload(&mut engine, &txs);
        assert!(post.total_ios() > 0);
    }

    #[test]
    fn flush_memory_writes_dirty_pages() {
        let base = small_base();
        let mut engine = PageServerEngine::new(&base, config(100));
        let t = Transaction {
            kind: ocb::TransactionKind::SetOriented,
            root: 1,
            accesses: vec![ocb::Access {
                oid: 1,
                parent: None,
                write: true,
            }],
        };
        engine.execute(&t);
        let writes_before = engine.io_counts().writes;
        engine.flush_memory();
        assert_eq!(engine.io_counts().writes, writes_before + 1);
    }

    #[test]
    fn new_leaves_the_image_unbuilt_until_first_peek() {
        let base = small_base();
        let mut engine = PageServerEngine::new(&base, config(100));
        let data_pages = engine.oid_pages_start;
        assert_eq!(engine.disk.built_data_pages(), 0);
        engine.disk.read(0);
        engine.disk.write_back(1);
        engine.disk.peek(data_pages); // an OID-table page: always built
        assert_eq!(engine.disk.built_data_pages(), 0, "I/O needs no content");
        engine.disk.peek(0);
        assert_eq!(engine.disk.built_data_pages(), data_pages as usize);
    }

    #[test]
    fn run_without_clustering_builds_the_image_only_in_debug() {
        let base = small_base();
        let mut engine = PageServerEngine::new(&base, config(64));
        let txs: Vec<Transaction> = {
            let mut g = WorkloadGenerator::new(&base, WorkloadParams::small(), 13);
            (0..50).map(|_| g.next_transaction()).collect()
        };
        assert!(run_workload(&mut engine, &txs).total_ios() > 0);
        engine.flush_memory();
        // Only the debug build's payload check in `execute` reads content.
        let built = engine.disk.built_data_pages() > 0;
        assert_eq!(built, cfg!(debug_assertions));
    }

    #[test]
    fn frames_per_mb_matches_table4() {
        // 16 MB × 240 = 3840 pages, exactly Table 4.
        let config = PageServerConfig::paper_default();
        assert_eq!(config.buffer_pages, 3840);
    }

    #[test]
    fn deterministic_io_counts() {
        let base = small_base();
        let run = || {
            let mut engine = PageServerEngine::new(&base, config(64));
            let txs: Vec<Transaction> = {
                let mut g = WorkloadGenerator::new(&base, WorkloadParams::small(), 12);
                (0..50).map(|_| g.next_transaction()).collect()
            };
            run_workload(&mut engine, &txs).total_ios()
        };
        assert_eq!(run(), run());
    }
}
