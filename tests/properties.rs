//! Property-based tests over the public API (proptest).
//!
//! Invariants that must hold for *any* parameterisation, not just the
//! paper's: object bases are well-formed, placements are permutations,
//! buffers never exceed capacity, reorganisations never lose objects, and
//! the simulator completes every workload it is given.

use clustering::{InitialPlacement, Placement};
use ocb::{DatabaseParams, ObjectBase, Selection, WorkloadGenerator, WorkloadParams};
use proptest::prelude::*;

fn arbitrary_db() -> impl Strategy<Value = DatabaseParams> {
    (2usize..12, 50usize..400, 1usize..8, 2usize..6).prop_map(
        |(classes, objects, max_refs, ref_types)| DatabaseParams {
            classes,
            objects: objects.max(classes),
            max_refs,
            ref_types,
            ..DatabaseParams::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn object_base_is_well_formed(db in arbitrary_db(), seed in 0u64..1000) {
        let base = ObjectBase::generate(&db, seed);
        prop_assert_eq!(base.len(), db.objects);
        for (_, object) in base.iter() {
            prop_assert!((object.class as usize) < db.classes);
            // References all resolve and point at the declared class.
            let class = base.schema().class(object.class);
            prop_assert_eq!(object.refs.len(), class.refs.len());
            for (cref, &target) in class.refs.iter().zip(object.refs.iter()) {
                prop_assert!((target as usize) < base.len());
                prop_assert_eq!(base.object(target).class, cref.target);
            }
        }
    }

    #[test]
    fn placements_are_permutations(
        db in arbitrary_db(),
        seed in 0u64..1000,
        which in 0usize..3,
    ) {
        let base = ObjectBase::generate(&db, seed);
        let placement = match which {
            0 => InitialPlacement::Sequential,
            1 => InitialPlacement::OptimizedSequential,
            _ => InitialPlacement::Random { seed },
        }
        .build(&base, 4096);
        let mut seen = vec![false; base.len()];
        for page in 0..placement.page_count() {
            let mut used = 0u32;
            for &oid in placement.objects_in(page) {
                prop_assert!(!seen[oid as usize]);
                seen[oid as usize] = true;
                prop_assert_eq!(placement.page_of(oid), page);
                used += base.object(oid).size + clustering::SLOT_ENTRY_BYTES;
            }
            prop_assert!(used <= 4096 - clustering::PAGE_HEADER_BYTES);
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn workload_accesses_resolve(
        db in arbitrary_db(),
        seed in 0u64..1000,
        hot in 1usize..20,
    ) {
        let base = ObjectBase::generate(&db, seed);
        let params = WorkloadParams {
            hot_transactions: hot,
            ..WorkloadParams::default()
        };
        let mut generator = WorkloadGenerator::new(&base, params, seed ^ 0xABCD);
        for _ in 0..hot {
            let transaction = generator.next_transaction();
            prop_assert!(!transaction.is_empty());
            prop_assert_eq!(transaction.accesses[0].oid, transaction.root);
            for access in &transaction.accesses {
                prop_assert!((access.oid as usize) < base.len());
                if let Some(parent) = access.parent {
                    prop_assert!(
                        base.object(parent).refs.contains(&access.oid),
                        "parent {} does not reference {}", parent, access.oid
                    );
                }
            }
        }
    }

    #[test]
    fn simulation_completes_any_workload(
        seed in 0u64..200,
        buffer_pages in 4usize..256,
        hot in 1usize..15,
        zipf in prop::bool::ANY,
    ) {
        let db = DatabaseParams {
            classes: 8,
            objects: 300,
            ..DatabaseParams::default()
        };
        let config = voodb::ExperimentConfig {
            system: voodb::VoodbParams {
                buffer_pages,
                ..voodb::VoodbParams::default()
            },
            database: db,
            workload: WorkloadParams {
                hot_transactions: hot,
                root_dist: if zipf { Selection::Zipf(1.0) } else { Selection::Uniform },
                ..WorkloadParams::default()
            },
        };
        let result = voodb::run_once(&config, seed);
        prop_assert_eq!(result.transactions, hot);
        prop_assert!(result.total_ios() > 0);
        prop_assert!(result.mean_response_ms > 0.0);
        prop_assert!((0.0..=1.0).contains(&result.hit_ratio));
    }

    #[test]
    fn texas_reorganisation_never_loses_objects(seed in 0u64..50) {
        use oostore::{run_workload, TexasConfig, TexasEngine};
        let db = DatabaseParams {
            classes: 8,
            objects: 400,
            ..DatabaseParams::default()
        };
        let base = ObjectBase::generate(&db, seed);
        let workload = WorkloadParams {
            hot_transactions: 80,
            ..WorkloadParams::dstc_favorable()
        };
        let mut generator = WorkloadGenerator::new(&base, workload, seed ^ 0x55);
        let transactions: Vec<_> = (0..80).map(|_| generator.next_transaction()).collect();
        let mut config = TexasConfig::with_memory_mb(64);
        config.clustering = clustering::ClusteringKind::Dstc(clustering::DstcParams {
            observation_period: 1_000,
            tfa: 1.0,
            tfc: 0.5,
            tfe: 1.0,
            w: 0.8,
            max_unit_size: 16,
            trigger_threshold: usize::MAX,
        });
        let mut engine = TexasEngine::new(&base, config);
        run_workload(&mut engine, &transactions);
        let _ = engine.reorganize();
        // Every object remains reachable at its (possibly new) location
        // and all stored references resolve to the right logical objects.
        for (oid, object) in base.iter() {
            let phys = engine.physical_oid(oid);
            let payload = engine
                .disk_ref()
                .peek(phys.page)
                .get(phys.slot)
                .expect("slot must be live");
            prop_assert_eq!(oostore::payload_oid(payload), oid);
            let refs = oostore::payload_refs(payload);
            prop_assert_eq!(refs.len(), object.refs.len());
            for (stored, &logical) in refs.zip(object.refs.iter()) {
                let target = engine
                    .disk_ref()
                    .peek(stored.page)
                    .get(stored.slot)
                    .expect("reference must resolve");
                prop_assert_eq!(oostore::payload_oid(target), logical);
            }
        }
    }

    #[test]
    fn recluster_preserves_population(
        db in arbitrary_db(),
        seed in 0u64..100,
        cluster_len in 2usize..20,
    ) {
        let base = ObjectBase::generate(&db, seed);
        let old = InitialPlacement::Sequential.build(&base, 4096);
        // An arbitrary (valid) cluster of distinct oids.
        let cluster: Vec<u32> = (0..cluster_len.min(base.len()))
            .map(|i| (i * base.len() / cluster_len.max(1)) as u32)
            .collect();
        let mut dedup = cluster.clone();
        dedup.sort_unstable();
        dedup.dedup();
        let new: Placement = clustering::recluster(&base, &old, &[dedup], 4096);
        prop_assert_eq!(new.len(), base.len());
        let mut seen = vec![false; base.len()];
        for page in 0..new.page_count() {
            for &oid in new.objects_in(page) {
                prop_assert!(!seen[oid as usize]);
                seen[oid as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}
