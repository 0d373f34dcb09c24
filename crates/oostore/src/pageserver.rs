//! The O2-like page server.
//!
//! O2 (Deux et al., CACM 1991) is the paper's page-server validation
//! target: clients request *pages* from a server that owns the disk and a
//! page buffer (Table 4: 3840 frames of 4 KB under LRU, network throughput
//! treated as infinite). Object lookups go through a resident OID table —
//! O2 uses **logical OIDs**, so a reorganisation only rewrites the pages it
//! touches and updates the map; no patch scan (contrast with
//! [`crate::texas`]).

use crate::disk::VirtualDisk;
use crate::engine::StorageEngine;
use crate::oid::PhysicalOid;
use crate::page::SlottedPage;
use crate::reorg::{Oids, ReorgPlan, ReorgReport, Reorganisation};
use crate::storage::{assign_physical_oids, payload_oid, PAGE_SIZE};
use bufmgr::{AccessOutcome, BufferPool, PolicyKind, O2_FRAMES_PER_MB};
use bufmgr::{DiskTimings, IoCounts};
use clustering::{ClusteringKind, ClusteringStrategy, InitialPlacement, PageId};
use clustering::{PAGE_HEADER_BYTES, SLOT_ENTRY_BYTES};
use ocb::{ObjectBase, Oid, Transaction};

/// Configuration of the page-server engine. The Table 4 constants are
/// not settable: 4 KB pages, optimized-sequential initial placement, an
/// LRU server buffer and the O2 server disk ([`DiskTimings::o2`]).
#[derive(Clone, Debug)]
pub struct PageServerConfig {
    /// Server buffer frames.
    pub buffer_pages: usize,
    /// Clustering policy (Table 4 O2 column: None).
    pub clustering: ClusteringKind,
}

impl PageServerConfig {
    /// The Table 4 parameterisation for a server cache of `cache_mb` MB.
    pub fn with_cache_mb(cache_mb: usize) -> Self {
        PageServerConfig {
            buffer_pages: (cache_mb * O2_FRAMES_PER_MB).max(8),
            clustering: ClusteringKind::None,
        }
    }
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
}

impl<'a> PageServerEngine<'a> {
    /// Builds the server: places objects, mounts the disk (data pages,
    /// built on first content access, then the persistent OID table) and
    /// allocates the buffer.
    pub fn new(base: &'a ObjectBase, config: PageServerConfig) -> Self {
        let placement = InitialPlacement::OptimizedSequential.build(base, PAGE_SIZE);
        let oid_table = assign_physical_oids(base, &placement);
        let oid_pages_start = placement.page_count();
        let oid_entries_per_page = oid_entries_per_page(PAGE_SIZE);
        let oid_pages = oid_table_pages(&oid_table, PAGE_SIZE);
        let disk = VirtualDisk::deferred(
            base,
            placement,
            oid_table.clone(),
            oid_pages,
            DiskTimings::o2(),
        );
        let buffer = BufferPool::new(config.buffer_pages, PolicyKind::Lru);
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

    /// The physical location of a logical object (OID-table lookup).
    #[cfg(test)]
    pub fn physical_oid(&self, oid: Oid) -> PhysicalOid {
        self.oid_table[oid as usize]
    }

    /// Number of pages on disk.
    #[cfg(test)]
    pub fn page_count(&self) -> u32 {
        self.disk.page_count()
    }

    /// Read-only view of the virtual disk.
    #[cfg(test)]
    pub fn disk_ref(&self) -> &VirtualDisk<'a> {
        &self.disk
    }

    /// The client requests the page holding `phys`; the server serves it
    /// from the buffer or the disk.
    fn request_page(&mut self, page: PageId, write: bool) {
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

        let plan = ReorgPlan::new(
            self.base,
            &outcome.clusters,
            PAGE_SIZE,
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
        // object packed earlier is already at its new home): the logged
        // reorganisation writes them so.
        let moved: Vec<(Oid, PhysicalOid)> = plan.moved_by_oid().collect();
        let roots = self.oid_table.clone();
        for &(oid, new) in &moved {
            self.oid_table[oid as usize] = new;
        }
        let reorganisation = Reorganisation::new(plan, roots, Oids::Logical);
        self.disk.reorganise(reorganisation);

        // Persist the relocated OID-table entries: read–modify–write each
        // affected table page. Still no database scan — the whole point of
        // logical OIDs is that only the map changes.
        let (start, per_page) = (self.oid_pages_start, self.oid_entries_per_page);
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
            moved_objects: moved.len() as u64,
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
            let len = chunk.len() * entry_bytes;
            let mut page = SlottedPage::with_capacity(page_size, 1, len);
            page.insert_with(len as u32, len as u32, |payload| {
                for (entry, phys) in payload.chunks_exact_mut(entry_bytes).zip(chunk) {
                    phys.encode(entry);
                }
            });
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
        self.buffer = BufferPool::new(self.config.buffer_pages, PolicyKind::Lru);
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
            buffer_pages,
            clustering: ClusteringKind::None,
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
        let config = PageServerConfig::with_cache_mb(16);
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
