//! Property-based tests of the OCB generator.

use ocb::{
    hierarchy_traversal_steps, set_oriented_steps, simple_traversal_steps,
    stochastic_traversal_steps, DatabaseParams, ObjectBase, Oid, Selection, Step, TransactionKind,
    WorkloadGenerator, WorkloadParams, HIERARCHY_REF_TYPE,
};
use proptest::prelude::*;

/// The objects a traversal accesses, in order.
fn oids(steps: Vec<Step>) -> Vec<Oid> {
    steps.into_iter().map(|(oid, _)| oid).collect()
}

fn arb_db() -> impl Strategy<Value = DatabaseParams> {
    (2usize..15, 1usize..10, 2usize..6, 1u32..60, 2u32..50).prop_map(
        |(classes, max_refs, ref_types, base_size, size_factor)| DatabaseParams {
            classes,
            objects: classes * 20,
            max_refs,
            ref_types,
            base_size: base_size * 10,
            size_factor,
            ..DatabaseParams::default()
        },
    )
}

/// `(from, to)` reference pairs.
type Pairs = Vec<(Oid, Oid)>;

/// Every `(from, to)` reference pair of `base`, read from `refs` or,
/// transposed back, from `referrers`, sorted.
fn reference_pairs(base: &ObjectBase) -> (Pairs, Pairs) {
    let mut forward = Vec::new();
    let mut reverse = Vec::new();
    for (oid, _) in base.iter() {
        forward.extend(base.refs(oid).iter().map(|&to| (oid, to)));
        let referrers = base.referrers(oid);
        assert!(
            referrers.windows(2).all(|w| w[0] <= w[1]),
            "referrers of {oid} are not in OID order"
        );
        reverse.extend(referrers.iter().map(|&from| (from, oid)));
    }
    forward.sort_unstable();
    reverse.sort_unstable();
    (forward, reverse)
}

#[test]
fn referrers_are_the_transpose_of_refs() {
    for (params, seeds) in [
        (DatabaseParams::small(), 0..6u64),
        (DatabaseParams::default(), 40..42),
    ] {
        for seed in seeds {
            let base = ObjectBase::generate(&params, seed);
            let (forward, reverse) = reference_pairs(&base);
            assert!(!forward.is_empty());
            assert_eq!(
                forward, reverse,
                "{} objects, seed {seed}: the reverse rows are not the transpose",
                params.objects
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn referrers_transpose_refs_on_any_base(db in arb_db(), seed in any::<u64>()) {
        let base = ObjectBase::generate(&db, seed);
        let (forward, reverse) = reference_pairs(&base);
        prop_assert_eq!(forward, reverse);
    }

    #[test]
    fn generation_is_total_and_consistent(db in arb_db(), seed in any::<u64>()) {
        let base = ObjectBase::generate(&db, seed);
        prop_assert_eq!(base.len(), db.objects);
        prop_assert_eq!(base.schema().len(), db.classes);
        // Sizes respect both the configured range and the physical floor.
        for (oid, object) in base.iter() {
            prop_assert!(object.size >= db.base_size.min(ocb::OBJECT_HEADER_BYTES));
            prop_assert!(
                object.size
                    >= ocb::OBJECT_HEADER_BYTES
                        + ocb::BYTES_PER_REF * base.refs(oid).len() as u32
            );
        }
    }

    #[test]
    fn traversals_start_at_root_and_stay_in_bounds(
        db in arb_db(),
        seed in any::<u64>(),
        depth in 0usize..5,
    ) {
        let base = ObjectBase::generate(&db, seed);
        let root = (seed % base.len() as u64) as u32;
        let mut stream = desp::RandomStream::new(seed);
        for oids in [
            oids(set_oriented_steps(&base, root, depth)),
            oids(simple_traversal_steps(&base, root, depth.min(3))),
            oids(hierarchy_traversal_steps(&base, root, depth)),
            oids(stochastic_traversal_steps(&base, root, depth * 10, &mut stream)),
        ] {
            prop_assert!(!oids.is_empty());
            prop_assert_eq!(oids[0], root);
            for &oid in &oids {
                prop_assert!((oid as usize) < base.len());
            }
        }
    }

    #[test]
    fn set_oriented_is_a_set(db in arb_db(), seed in any::<u64>(), depth in 0usize..4) {
        let base = ObjectBase::generate(&db, seed);
        let root = (seed % base.len() as u64) as u32;
        let oids = oids(set_oriented_steps(&base, root, depth));
        let mut dedup = oids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), oids.len());
    }

    #[test]
    fn deeper_traversals_reach_at_least_as_much(
        db in arb_db(),
        seed in any::<u64>(),
    ) {
        let base = ObjectBase::generate(&db, seed);
        let root = (seed % base.len() as u64) as u32;
        let mut previous = 0;
        for depth in 0..4 {
            let reach = set_oriented_steps(&base, root, depth).len();
            prop_assert!(reach >= previous, "depth {depth} reach shrank");
            previous = reach;
        }
        let mut previous = 0;
        for depth in 0..4 {
            let reach = hierarchy_traversal_steps(&base, root, depth).len();
            prop_assert!(reach >= previous);
            previous = reach;
        }
    }

    #[test]
    fn hierarchy_traversal_is_a_subset_of_set_oriented(
        db in arb_db(),
        seed in any::<u64>(),
        depth in 0usize..4,
    ) {
        // Hierarchy edges are a subset of all edges, so the reachable set
        // can only be smaller.
        let base = ObjectBase::generate(&db, seed);
        let root = (seed % base.len() as u64) as u32;
        let all: std::collections::HashSet<u32> =
            oids(set_oriented_steps(&base, root, depth)).into_iter().collect();
        for oid in oids(hierarchy_traversal_steps(&base, root, depth)) {
            prop_assert!(all.contains(&oid));
        }
        // And hierarchy edges really are type-0 edges.
        let _ = HIERARCHY_REF_TYPE;
    }

    #[test]
    fn workload_mix_matches_configuration(
        seed in any::<u64>(),
        pure in 0usize..4,
    ) {
        // A degenerate mix (probability 1 on one kind) only produces that
        // kind.
        let db = DatabaseParams::small();
        let base = ObjectBase::generate(&db, seed);
        let mut weights = [0.0; 4];
        weights[pure] = 1.0;
        let params = WorkloadParams {
            p_set: weights[0],
            p_simple: weights[1],
            p_hierarchy: weights[2],
            p_stochastic: weights[3],
            hot_transactions: 10,
            ..WorkloadParams::default()
        };
        let expected = TransactionKind::ALL[pure];
        let mut generator = WorkloadGenerator::new(&base, params, seed);
        for _ in 0..10 {
            prop_assert_eq!(generator.next_transaction().kind, expected);
        }
    }

    #[test]
    fn lazy_source_is_byte_identical_to_materialized_generation(
        db in arb_db(),
        seed in any::<u64>(),
        p_write in 0.0f64..1.0,
        count in 1usize..40,
    ) {
        // The streaming seam's core guarantee: pulling transactions one
        // at a time through a LazySource (reused buffer, reused traversal
        // scratch) yields exactly the sequence the materializing path
        // produces for equal seeds.
        let base = ObjectBase::generate(&db, seed);
        let params = WorkloadParams {
            p_write,
            hot_transactions: count,
            ..WorkloadParams::default()
        };
        let mut eager = WorkloadGenerator::new(&base, params.clone(), seed ^ 0xA5A5);
        let materialized: Vec<_> = (0..count).map(|_| eager.next_transaction()).collect();

        let lazy_gen = WorkloadGenerator::new(&base, params, seed ^ 0xA5A5);
        let mut lazy = ocb::LazySource::bounded(lazy_gen, count);
        let mut buf = ocb::Transaction::empty();
        use ocb::TransactionSource;
        for expected in &materialized {
            prop_assert!(lazy.next_into(&mut buf));
            prop_assert_eq!(buf.kind, expected.kind);
            prop_assert_eq!(buf.root, expected.root);
            prop_assert_eq!(&buf.accesses, &expected.accesses);
        }
        prop_assert!(!lazy.next_into(&mut buf), "bounded source must exhaust");
    }

    #[test]
    fn hot_set_roots_come_from_the_hot_set(
        seed in any::<u64>(),
        fraction in 0.01f64..0.5,
    ) {
        let db = DatabaseParams::small();
        let base = ObjectBase::generate(&db, seed);
        let params = WorkloadParams {
            root_dist: Selection::HotSet { fraction, p_hot: 1.0 },
            hot_transactions: 100,
            ..WorkloadParams::default()
        };
        let hot_size = ((base.len() as f64 * fraction).ceil() as usize).max(1);
        let mut generator = WorkloadGenerator::new(&base, params, seed);
        let mut roots = std::collections::HashSet::new();
        for _ in 0..100 {
            roots.insert(generator.next_transaction().root);
        }
        prop_assert!(
            roots.len() <= hot_size,
            "{} distinct roots from a hot set of {hot_size}",
            roots.len()
        );
    }
}
