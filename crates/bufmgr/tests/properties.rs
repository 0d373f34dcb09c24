//! Property-based tests of the buffer pool and every replacement policy.

use bufmgr::{AccessOutcome, BufferPool, PolicyKind};
use proptest::prelude::*;

fn any_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        any::<u64>().prop_map(|seed| PolicyKind::Random { seed }),
        Just(PolicyKind::Fifo),
        Just(PolicyKind::Lru),
        (1usize..5).prop_map(|k| PolicyKind::LruK { k }),
        Just(PolicyKind::Lfu),
        Just(PolicyKind::Clock),
        (1u8..10).prop_map(|weight| PolicyKind::GClock { weight }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pool_invariants_hold_for_any_policy_and_trace(
        policy in any_policy(),
        frames in 1usize..32,
        trace in prop::collection::vec((0u32..100, prop::bool::ANY), 1..500),
    ) {
        let mut pool = BufferPool::new(frames, policy);
        // Resident pages, each with whether it was written since it came in.
        let mut resident: std::collections::HashMap<u32, bool> = Default::default();
        for &(page, write) in &trace {
            let outcome = pool.access(page, write);
            match outcome {
                AccessOutcome::Hit => {
                    prop_assert!(resident.contains_key(&page), "hit on non-resident page");
                }
                AccessOutcome::Miss { evicted } => {
                    prop_assert!(!resident.contains_key(&page), "miss on resident page");
                    if let Some((victim, dirty)) = evicted {
                        let written = resident.remove(&victim);
                        prop_assert!(written.is_some(), "evicted non-resident page");
                        prop_assert_eq!(Some(dirty), written, "dirty flag of the victim");
                        prop_assert_ne!(victim, page);
                    }
                }
            }
            *resident.entry(page).or_default() |= write;
            prop_assert!(pool.resident_count() <= frames, "pool overflow");
            prop_assert_eq!(pool.resident_count(), resident.len());
            prop_assert!(pool.contains(page), "accessed page must be resident");
        }
    }

    #[test]
    fn clean_read_only_trace_never_writes_back(
        policy in any_policy(),
        frames in 1usize..16,
        pages in prop::collection::vec(0u32..50, 1..300),
    ) {
        let mut pool = BufferPool::new(frames, policy);
        for &page in &pages {
            if let AccessOutcome::Miss { evicted: Some((_, dirty)) } = pool.access(page, false) {
                prop_assert!(!dirty, "read-only trace produced a dirty eviction");
            }
        }
    }

    #[test]
    fn working_set_within_capacity_stops_missing(
        policy in any_policy(),
        frames in 4usize..32,
        rounds in 2usize..6,
    ) {
        // Cycling over exactly `frames` pages: after the first round, every
        // policy must serve hits only (no policy evicts without pressure).
        let mut pool = BufferPool::new(frames, policy);
        // Warm-up round.
        for page in 0..frames as u32 {
            pool.access(page, false);
        }
        for _ in 0..rounds {
            for page in 0..frames as u32 {
                prop_assert!(pool.access(page, false).is_hit(),
                    "no policy may miss when the working set fits");
            }
        }
    }

    #[test]
    fn flush_all_returns_exactly_the_dirty_pages(
        policy in any_policy(),
        trace in prop::collection::vec((0u32..20, prop::bool::ANY), 1..100),
    ) {
        let mut pool = BufferPool::new(64, policy); // no evictions
        let mut dirty_expected: std::collections::BTreeSet<u32> = Default::default();
        for &(page, write) in &trace {
            pool.access(page, write);
            if write {
                dirty_expected.insert(page);
            }
        }
        let dirty = pool.flush_all();
        prop_assert_eq!(
            dirty,
            dirty_expected.into_iter().collect::<Vec<_>>()
        );
        prop_assert_eq!(pool.resident_count(), 0);
    }
}
