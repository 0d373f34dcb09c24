//! The clustering-strategy abstraction.
//!
//! In the VOODB knowledge model the Clustering Manager is the *only*
//! component that changes between two clustering experiments: "the only
//! treatments that differ when two distinct clustering algorithms are
//! tested are those performed by the Clustering Manager" (§3.1). The
//! [`ClusteringStrategy`] trait is that interchangeable module: it observes
//! object accesses, decides when a reorganisation is warranted, and emits
//! the clusters to materialise.
//!
//! Reorganisation *cost* is deliberately not modelled here: the Texas-like
//! engine pays physical-OID reference patching (a whole-database scan),
//! the simulator pays logical-OID bookkeeping — reproducing the Table 6
//! overhead anomaly requires the cost to live with the system, not the
//! algorithm.

use ocb::{ObjectBase, Oid};

/// Summary of one clustering decision (Table 7 of the paper reports these).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusteringOutcome {
    /// The clusters built, each an ordered list of member objects.
    pub clusters: Vec<Vec<Oid>>,
}

impl ClusteringOutcome {
    /// Number of clusters built.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Mean number of objects per cluster (0 when no cluster was built).
    pub fn mean_cluster_size(&self) -> f64 {
        if self.clusters.is_empty() {
            return 0.0;
        }
        let total: usize = self.clusters.iter().map(Vec::len).sum();
        total as f64 / self.clusters.len() as f64
    }

    /// Total objects covered by clusters.
    #[cfg(test)]
    pub fn clustered_objects(&self) -> usize {
        self.clusters.iter().map(Vec::len).sum()
    }
}

/// A dynamic clustering strategy, as plugged into the Clustering Manager.
pub trait ClusteringStrategy: Send {
    /// Human-readable strategy name.
    fn name(&self) -> &'static str;

    /// Observes one object access: `oid` was reached from `parent` (the
    /// object whose reference was followed; `None` for transaction roots).
    ///
    /// This is the "perform treatment related to clustering (statistics
    /// collection, etc.)" activity of the knowledge model.
    fn on_access(&mut self, parent: Option<Oid>, oid: Oid);

    /// Has the strategy's internal analysis decided a reorganisation is
    /// warranted (the knowledge model's *automatic triggering*)?
    fn should_trigger(&self) -> bool;

    /// Builds the clusters to materialise (called on automatic *or*
    /// external triggering) and arms the next observation cycle.
    fn build_clusters(&mut self, base: &ObjectBase) -> ClusteringOutcome;
}

/// The `None` clustering policy of Table 3: observe nothing, never trigger.
#[derive(Debug, Default)]
pub struct NoClustering;

impl ClusteringStrategy for NoClustering {
    fn name(&self) -> &'static str {
        "None"
    }

    fn on_access(&mut self, _parent: Option<Oid>, _oid: Oid) {}

    fn should_trigger(&self) -> bool {
        false
    }

    fn build_clusters(&mut self, _base: &ObjectBase) -> ClusteringOutcome {
        ClusteringOutcome::default()
    }
}

/// Factory enumeration of the built-in strategies (Table 3 `CLUSTP`).
#[derive(Clone, Debug, PartialEq)]
pub enum ClusteringKind {
    /// No clustering (Table 4's O2 setting).
    None,
    /// DSTC — the dynamic, statistical, tunable clustering of Bullat &
    /// Schneider (ECOOP 1996), the technique evaluated in §4.4.
    Dstc(crate::dstc::DstcParams),
    /// A static reference-graph packing baseline (stands in for the
    /// Gay & Gruenwald technique the paper lists as future comparison
    /// work).
    StaticGraph {
        /// Maximum objects per cluster.
        max_cluster_size: usize,
    },
}

impl ClusteringKind {
    /// Instantiates the strategy.
    pub fn build(&self) -> Box<dyn ClusteringStrategy> {
        match self {
            ClusteringKind::None => Box::new(NoClustering),
            ClusteringKind::Dstc(params) => Box::new(crate::dstc::Dstc::new(params.clone())),
            ClusteringKind::StaticGraph { max_cluster_size } => Box::new(
                crate::static_graph::StaticGraphClustering::new(*max_cluster_size),
            ),
        }
    }
}

impl std::fmt::Display for ClusteringKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusteringKind::None => write!(f, "None"),
            ClusteringKind::Dstc(_) => write!(f, "DSTC"),
            ClusteringKind::StaticGraph { .. } => write!(f, "StaticGraph"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocb::DatabaseParams;

    #[test]
    fn no_clustering_never_triggers() {
        let base = ObjectBase::generate(&DatabaseParams::small(), 1);
        let mut strategy = NoClustering;
        for oid in 0..100 {
            strategy.on_access(None, oid);
            strategy.on_access(Some(oid), (oid + 1) % 100);
        }
        assert!(!strategy.should_trigger());
        assert_eq!(strategy.build_clusters(&base), ClusteringOutcome::default());
        assert_eq!(
            std::mem::size_of::<NoClustering>(),
            0,
            "holds no statistics"
        );
    }

    #[test]
    fn outcome_statistics() {
        let outcome = ClusteringOutcome {
            clusters: vec![vec![1, 2, 3], vec![4, 5]],
        };
        assert_eq!(outcome.cluster_count(), 2);
        assert_eq!(outcome.clustered_objects(), 5);
        assert!((outcome.mean_cluster_size() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn factory_builds_all_kinds() {
        for kind in [
            ClusteringKind::None,
            ClusteringKind::Dstc(crate::dstc::DstcParams::default()),
            ClusteringKind::StaticGraph {
                max_cluster_size: 16,
            },
        ] {
            let strategy = kind.build();
            assert!(!strategy.name().is_empty());
        }
        assert_eq!(ClusteringKind::None.to_string(), "None");
    }
}
