//! The Clustering Manager.
//!
//! Knowledge-model role (Fig. 4): "after an operation on a given object is
//! over, the Clustering Manager may update some usage statistics for the
//! database. An analysis of these statistics can trigger a reclustering
//! … Such a database reorganization can also be demanded externally by
//! the Users." The strategy inside is the interchangeable module
//! ([`ClusteringStrategy`]); everything else in the model is identical
//! whatever the algorithm (§3.1).
//!
//! VOODB uses **logical OIDs**, so a simulated reorganisation is an
//! *online* operation running through the buffer: source pages that are
//! already resident cost nothing to read, and only the fresh cluster pages
//! are written through. This is precisely why the paper's simulated
//! clustering overhead (Table 6: ~354 I/Os) is a factor ~36 below the
//! Texas measurement — the physical-OID engine must scan and patch the
//! whole database instead (see `oostore::reorg`).

use crate::bman::BufferingManager;
use crate::iosub::{IoSubsystem, SimIoCounts};
use crate::oman::ObjectManager;
use clustering::{ClusteringKind, ClusteringStrategy};
use ocb::{ObjectBase, Oid};

/// Result of one simulated reorganisation.
#[derive(Clone, Debug, Default)]
pub struct SimReorgReport {
    /// I/Os charged to the reorganisation.
    pub io: SimIoCounts,
    /// Disk service time of those I/Os, in ms.
    pub duration_ms: f64,
    /// Clusters built.
    pub cluster_count: usize,
    /// Mean objects per cluster.
    pub mean_cluster_size: f64,
    /// Objects moved.
    pub moved_objects: u64,
}

/// The Clustering Manager component.
pub struct ClusteringManager {
    strategy: Box<dyn ClusteringStrategy>,
}

impl ClusteringManager {
    /// Instantiates the configured strategy (Table 3 `CLUSTP`).
    pub fn new(kind: &ClusteringKind) -> Self {
        ClusteringManager {
            strategy: kind.build(),
        }
    }

    /// Statistics-collection hook, called after every object access.
    pub fn observe(&mut self, parent: Option<Oid>, oid: Oid) {
        self.strategy.on_access(parent, oid);
    }

    /// Automatic-triggering check (the knowledge model's analysis step).
    pub fn should_trigger(&self) -> bool {
        self.strategy.should_trigger()
    }

    /// Performs a reorganisation (automatic or externally demanded):
    /// builds clusters, relocates members through the Object Manager, and
    /// charges the *logical-OID* I/O cost through the buffer.
    pub fn reorganize(
        &mut self,
        base: &ObjectBase,
        oman: &mut ObjectManager,
        bman: &mut BufferingManager,
        iosub: &mut IoSubsystem,
    ) -> SimReorgReport {
        let io_before = iosub.counts();
        let outcome = self.strategy.build_clusters(base);
        if outcome.clusters.is_empty() {
            return SimReorgReport::default();
        }

        // First-occurrence dedup of members.
        let mut seen = vec![false; base.len()];
        let mut moved: Vec<Oid> = Vec::new();
        for cluster in &outcome.clusters {
            for &oid in cluster {
                if !seen[oid as usize] {
                    seen[oid as usize] = true;
                    moved.push(oid);
                }
            }
        }

        let (source_pages, new_pages) = oman.relocate(base, &moved);

        let mut duration = 0.0;
        // Read source pages *through the buffer*: resident pages are free;
        // the modification (extraction holes) leaves them dirty in the
        // buffer, to be written back whenever they are evicted.
        for &page in &source_pages {
            let demand = bman.access(page, true);
            duration += iosub.service_batch(&demand.writes, &demand.reads);
        }
        // Write the fresh cluster pages through.
        for &page in &new_pages {
            duration += iosub.write(page);
        }

        SimReorgReport {
            io: iosub.counts().since(io_before),
            duration_ms: duration,
            cluster_count: outcome.cluster_count(),
            mean_cluster_size: outcome.mean_cluster_size(),
            moved_objects: moved.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DiskParams;
    use bufmgr::PolicyKind;
    use clustering::{DstcParams, InitialPlacement};
    use ocb::DatabaseParams;

    fn setup() -> (ObjectBase, ObjectManager, BufferingManager, IoSubsystem) {
        let base = ObjectBase::generate(&DatabaseParams::small(), 13);
        let placement = InitialPlacement::OptimizedSequential.build(&base, 4096);
        let oman = ObjectManager::new(&placement);
        let bman = BufferingManager::standard(10_000, PolicyKind::Lru);
        let iosub = IoSubsystem::new(DiskParams::table3_default());
        (base, oman, bman, iosub)
    }

    fn dstc() -> ClusteringKind {
        ClusteringKind::Dstc(DstcParams {
            observation_period: 1_000,
            tfa: 2.0,
            tfc: 1.0,
            tfe: 2.0,
            w: 0.8,
            max_unit_size: 16,
            trigger_threshold: 50,
        })
    }

    #[test]
    fn none_strategy_never_reorganises() {
        let (base, mut oman, mut bman, mut iosub) = setup();
        let mut cman = ClusteringManager::new(&ClusteringKind::None);
        for i in 0..1000u32 {
            cman.observe(Some(i % 7), (i % 7) + 1);
        }
        assert!(!cman.should_trigger());
        let report = cman.reorganize(&base, &mut oman, &mut bman, &mut iosub);
        assert_eq!(report.cluster_count, 0);
        assert_eq!(report.io.total(), 0);
    }

    #[test]
    fn dstc_reorganisation_through_warm_buffer_is_cheap() {
        let (base, mut oman, mut bman, mut iosub) = setup();
        let mut cman = ClusteringManager::new(&dstc());
        // Observe a strong pattern and warm the buffer with its pages.
        for _ in 0..20 {
            for pair in [(1u32, 2u32), (2, 3), (10, 11), (11, 12)] {
                cman.observe(None, pair.0);
                cman.observe(Some(pair.0), pair.1);
                for oid in [pair.0, pair.1] {
                    let page = oman.page_of(oid);
                    let demand = bman.access(page, false);
                    iosub.service_batch(&demand.writes, &demand.reads);
                }
            }
        }
        let warm_io = iosub.counts();
        let report = cman.reorganize(&base, &mut oman, &mut bman, &mut iosub);
        assert!(report.cluster_count > 0);
        assert!(report.moved_objects > 0);
        // Warm source pages cost nothing; overhead ≈ the new cluster pages.
        assert!(
            report.io.reads == 0,
            "warm source pages must not cost reads: {:?}",
            report.io
        );
        assert!(report.io.writes >= 1);
        assert!(report.duration_ms > 0.0);
        let _ = warm_io;
    }

    #[test]
    fn relocated_objects_resolve_to_new_pages() {
        let (base, mut oman, mut bman, mut iosub) = setup();
        let mut cman = ClusteringManager::new(&dstc());
        for _ in 0..20 {
            cman.observe(None, 1);
            cman.observe(Some(1), 2);
        }
        let before = oman.page_count();
        let report = cman.reorganize(&base, &mut oman, &mut bman, &mut iosub);
        assert!(report.moved_objects >= 2);
        assert!(oman.page_of(1) >= before);
        assert_eq!(oman.page_of(1), oman.page_of(2), "cluster colocated");
    }
}
