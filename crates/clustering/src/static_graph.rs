//! Static reference-graph clustering baseline.
//!
//! The paper's future work names the clustering strategy of Gay &
//! Gruenwald (DEXA 1997) as the next comparison target. We cannot
//! reproduce that exact algorithm from the VOODB paper alone, so this
//! module provides the standard *static* baseline of the clustering
//! literature it belongs to: pack objects along the hierarchy reference
//! subgraph (breadth-first), ignoring runtime statistics entirely.
//!
//! Static vs. dynamic is exactly the axis the DSTC evaluation isolates:
//! this baseline needs no observation overhead but cannot adapt to the
//! actual access pattern — the `ablation_clustering` bench quantifies the
//! difference.

use crate::strategy::{ClusteringOutcome, ClusteringStrategy};
use ocb::{ObjectBase, Oid, HIERARCHY_REF_TYPE};
use std::collections::VecDeque;

/// Static clustering: BFS components of the hierarchy-reference subgraph,
/// capped at `max_cluster_size` objects per cluster.
#[derive(Debug)]
pub struct StaticGraphClustering {
    max_cluster_size: usize,
}

impl StaticGraphClustering {
    /// Creates the strategy.
    ///
    /// # Panics
    /// Panics if `max_cluster_size < 2`.
    pub fn new(max_cluster_size: usize) -> Self {
        assert!(max_cluster_size >= 2, "clusters need at least 2 objects");
        StaticGraphClustering { max_cluster_size }
    }
}

impl ClusteringStrategy for StaticGraphClustering {
    fn name(&self) -> &'static str {
        "StaticGraph"
    }

    fn on_access(&mut self, _parent: Option<Oid>, _oid: Oid) {
        // Statistics-free by design.
    }

    fn should_trigger(&self) -> bool {
        // Static: only external demands reorganise.
        false
    }

    fn build_clusters(&mut self, base: &ObjectBase) -> ClusteringOutcome {
        let n = base.len();
        let mut clustered = vec![false; n];
        let mut clusters = Vec::new();
        for root in 0..n as Oid {
            if clustered[root as usize] {
                continue;
            }
            // BFS along hierarchy references.
            let mut cluster = Vec::new();
            let mut queue = VecDeque::new();
            clustered[root as usize] = true;
            queue.push_back(root);
            while let Some(oid) = queue.pop_front() {
                cluster.push(oid);
                if cluster.len() + queue.len() >= self.max_cluster_size {
                    // Absorb whatever is already queued, then stop growing.
                    while let Some(rest) = queue.pop_front() {
                        if cluster.len() >= self.max_cluster_size {
                            clustered[rest as usize] = false;
                            continue;
                        }
                        cluster.push(rest);
                    }
                    break;
                }
                for target in base.refs_of_type(oid, HIERARCHY_REF_TYPE) {
                    if !clustered[target as usize] {
                        clustered[target as usize] = true;
                        queue.push_back(target);
                    }
                }
            }
            if cluster.len() >= 2 {
                clusters.push(cluster);
            } else {
                clustered[root as usize] = false;
            }
        }
        ClusteringOutcome { clusters }
    }

    fn stats_size(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocb::DatabaseParams;

    fn base() -> ObjectBase {
        ObjectBase::generate(&DatabaseParams::small(), 33)
    }

    #[test]
    fn clusters_follow_hierarchy_edges() {
        let base = base();
        let mut strategy = StaticGraphClustering::new(16);
        let outcome = strategy.build_clusters(&base);
        assert!(outcome.cluster_count() > 0);
        for cluster in &outcome.clusters {
            assert!(cluster.len() >= 2);
            assert!(cluster.len() <= 16);
            // Every member after the first is hierarchy-adjacent to an
            // earlier member (BFS order guarantees it).
            for (i, &oid) in cluster.iter().enumerate().skip(1) {
                let linked = cluster[..i].iter().any(|&prev| {
                    base.refs_of_type(prev, HIERARCHY_REF_TYPE)
                        .any(|t| t == oid)
                });
                assert!(linked, "object {oid} not linked into its cluster");
            }
        }
    }

    #[test]
    fn no_object_in_two_clusters() {
        let base = base();
        let mut strategy = StaticGraphClustering::new(10);
        let outcome = strategy.build_clusters(&base);
        let mut all: Vec<Oid> = outcome.clusters.concat();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "an object appears in two clusters");
    }

    #[test]
    fn never_triggers_automatically() {
        let mut strategy = StaticGraphClustering::new(8);
        for i in 0..10_000u32 {
            strategy.on_access(Some(i), i + 1);
        }
        assert!(!strategy.should_trigger());
        assert_eq!(strategy.stats_size(), 0);
    }

    #[test]
    fn deterministic() {
        let base = base();
        let a = StaticGraphClustering::new(12).build_clusters(&base);
        let b = StaticGraphClustering::new(12).build_clusters(&base);
        assert_eq!(a.clusters, b.clusters);
    }
}
