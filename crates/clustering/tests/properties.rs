//! Property-based tests of placement and the clustering strategies.

use clustering::{
    ClusteringStrategy, Dstc, DstcParams, InitialPlacement, Placement, StaticGraphClustering,
};
use ocb::{DatabaseParams, ObjectBase};
use proptest::prelude::*;

fn arb_db() -> impl Strategy<Value = DatabaseParams> {
    (2usize..10, 40usize..300).prop_map(|(classes, objects)| DatabaseParams {
        classes,
        objects: objects.max(classes),
        ..DatabaseParams::default()
    })
}

/// Bytes used by the objects on `page`.
fn page_bytes(placement: &Placement, base: &ObjectBase, page: u32) -> u32 {
    placement
        .objects_in(page)
        .iter()
        .map(|&oid| base.object(oid).size)
        .sum()
}

/// Mean page fill factor in `[0, 1]`.
fn fill_factor(placement: &Placement, base: &ObjectBase, page_size: u32) -> f64 {
    let used: u64 = (0..placement.page_count())
        .map(|page| u64::from(page_bytes(placement, base, page)))
        .sum();
    used as f64 / (u64::from(placement.page_count()) * u64::from(page_size)) as f64
}

fn arb_trace() -> impl Strategy<Value = Vec<(Option<u32>, u32)>> {
    prop::collection::vec((prop::option::of(0u32..40), 0u32..40), 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn page_sizes_respected_for_any_page_size(
        db in arb_db(),
        seed in any::<u64>(),
        page_size in 512u32..16_384,
    ) {
        let base = ObjectBase::generate(&db, seed);
        // Skip page sizes too small for the largest object.
        let max_object = base.iter().map(|(_, o)| o.size).max().unwrap();
        prop_assume!(max_object + clustering::SLOT_ENTRY_BYTES
            <= page_size - clustering::PAGE_HEADER_BYTES);
        let placement = InitialPlacement::Sequential.build(&base, page_size);
        for page in 0..placement.page_count() {
            prop_assert!(
                page_bytes(&placement, &base, page)
                    + placement.objects_in(page).len() as u32
                        * clustering::SLOT_ENTRY_BYTES
                    <= page_size - clustering::PAGE_HEADER_BYTES
            );
        }
        // Fill factor is sane.
        let fill = fill_factor(&placement, &base, page_size);
        prop_assert!(fill > 0.0 && fill <= 1.0);
    }

    #[test]
    fn dstc_clusters_have_no_duplicates_for_any_trace(trace in arb_trace()) {
        let base = ObjectBase::generate(&DatabaseParams::small(), 1);
        let mut dstc = Dstc::new(DstcParams {
            observation_period: 50,
            tfa: 1.0,
            tfc: 0.5,
            tfe: 1.0,
            w: 0.7,
            max_unit_size: 8,
            trigger_threshold: 1_000_000,
        });
        for &(parent, oid) in &trace {
            dstc.on_access(parent, oid);
        }
        let outcome = dstc.build_clusters(&base);
        let mut all: Vec<u32> = outcome.clusters.concat();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), before, "an object appears in two clusters");
        for cluster in &outcome.clusters {
            prop_assert!(cluster.len() >= 2);
            prop_assert!(cluster.len() <= 8);
        }
    }

    #[test]
    fn dstc_is_deterministic_for_any_trace(trace in arb_trace()) {
        let base = ObjectBase::generate(&DatabaseParams::small(), 2);
        let run = |trace: &[(Option<u32>, u32)]| {
            let mut dstc = Dstc::new(DstcParams {
                observation_period: 64,
                tfa: 1.0,
                tfc: 0.5,
                tfe: 1.0,
                w: 0.5,
                max_unit_size: 12,
                trigger_threshold: 1_000_000,
            });
            for &(parent, oid) in trace {
                dstc.on_access(parent, oid);
            }
            dstc.build_clusters(&base).clusters
        };
        prop_assert_eq!(run(&trace), run(&trace));
    }

    #[test]
    fn static_graph_clusters_respect_cap(
        db in arb_db(),
        seed in any::<u64>(),
        cap in 2usize..20,
    ) {
        let base = ObjectBase::generate(&db, seed);
        let mut strategy = StaticGraphClustering::new(cap);
        let outcome = strategy.build_clusters(&base);
        let mut seen = std::collections::HashSet::new();
        for cluster in &outcome.clusters {
            prop_assert!((2..=cap).contains(&cluster.len()));
            for &oid in cluster {
                prop_assert!(seen.insert(oid), "object {} in two clusters", oid);
                prop_assert!((oid as usize) < base.len());
            }
        }
    }
}
