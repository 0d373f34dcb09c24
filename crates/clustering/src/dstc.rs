//! DSTC — Dynamic, Statistical, Tunable Clustering.
//!
//! Reimplementation of the technique of Bullat & Schneider, *Dynamic
//! Clustering in Object Database Exploiting Effective Use of Relationships
//! Between Objects* (ECOOP 1996) — the algorithm the paper evaluates inside
//! Texas in §4.4 (Tables 6–8).
//!
//! The algorithm runs in phases:
//!
//! 1. **Observation** — during an observation period of `observation_period`
//!    object accesses, elementary statistics are collected: per-link
//!    transition counts (object `i` reached through a reference from
//!    object `j`). Bullat & Schneider also count accesses per object;
//!    no phase below reads those counts, so they are not kept.
//! 2. **Selection/consolidation** — at the end of each period, links whose
//!    elementary count passes the elementary threshold `tfa` are folded
//!    into the *consolidated matrix* with ageing
//!    (`consolidated ← w·consolidated + count`); consolidated entries that
//!    fall below `tfc` are dropped. Objects whose consolidated
//!    neighbourhood changed are *flagged*.
//! 3. **Triggering** — when the number of flagged objects reaches
//!    `trigger_threshold`, the strategy requests a reorganisation
//!    (automatic triggering); an external demand may also force one.
//! 4. **Clustering** — clustering units are built greedily from the
//!    consolidated links in descending weight order: links below the
//!    extraction threshold `tfe` are ignored; units grow by absorbing
//!    linked objects (or merging whole units) up to `max_unit_size`
//!    members. Units are the clusters handed to physical reorganisation.

use crate::strategy::{ClusteringOutcome, ClusteringStrategy};
use ocb::{IntHash, ObjectBase, Oid};
use std::collections::HashMap;

/// Tuning parameters of DSTC ("Tunable" is in the name: the original paper
/// exposes exactly these knobs).
#[derive(Clone, Debug, PartialEq)]
pub struct DstcParams {
    /// Observation period length, in object accesses.
    pub observation_period: u64,
    /// `Tfa` — elementary filtering threshold: minimum transition count for
    /// a link to survive the observation period.
    pub tfa: f64,
    /// `Tfc` — consolidation threshold: minimum consolidated weight for a
    /// link to stay in the consolidated matrix.
    pub tfc: f64,
    /// `Tfe` — extraction threshold: minimum consolidated weight for a link
    /// to pull objects into a clustering unit.
    pub tfe: f64,
    /// `w` — ageing factor applied to consolidated weights at each
    /// consolidation (`0 ≤ w ≤ 1`; small `w` forgets quickly).
    pub w: f64,
    /// Maximum number of objects per clustering unit.
    pub max_unit_size: usize,
    /// Number of flagged objects that arms automatic triggering.
    pub trigger_threshold: usize,
}

impl Default for DstcParams {
    fn default() -> Self {
        DstcParams {
            observation_period: 10_000,
            tfa: 2.0,
            tfc: 2.0,
            tfe: 3.0,
            w: 0.5,
            max_unit_size: 64,
            trigger_threshold: 200,
        }
    }
}

impl DstcParams {
    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.observation_period == 0 {
            return Err("observation_period must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.w) {
            return Err(format!("ageing factor w must be in [0,1], got {}", self.w));
        }
        if self.tfa < 0.0 || self.tfc < 0.0 || self.tfe < 0.0 {
            return Err("thresholds must be non-negative".into());
        }
        if self.max_unit_size < 2 {
            return Err("max_unit_size must be at least 2".into());
        }
        Ok(())
    }
}

/// Running counters describing DSTC's activity (diagnostics, ablations).
#[derive(Clone, Copy, Debug, Default)]
pub struct DstcCounters {
    /// Observation periods consolidated.
    pub consolidations: u64,
    /// Links discarded by `tfa` at consolidation.
    pub links_filtered: u64,
    /// Reorganisations built.
    pub reorganisations: u64,
}

/// Objects whose consolidated neighbourhood changed since the last
/// reorganisation: one flag per oid (grown to the largest flagged oid)
/// plus their count, the only thing triggering reads.
#[derive(Default)]
struct FlagTable {
    flags: Vec<bool>,
    count: usize,
}

impl FlagTable {
    fn set(&mut self, oid: Oid) {
        let oid = oid as usize;
        if oid >= self.flags.len() {
            self.flags.resize(oid + 1, false);
        }
        if !self.flags[oid] {
            self.flags[oid] = true;
            self.count += 1;
        }
    }

    fn clear(&mut self) {
        self.flags.fill(false);
        self.count = 0;
    }
}

/// The packed link `(from << 32) | to`: its order is `(from, to)`'s.
fn pack(from: Oid, to: Oid) -> u64 {
    (u64::from(from) << 32) | u64::from(to)
}

/// The `(from, to)` of a packed link.
fn unpack(link: u64) -> (Oid, Oid) {
    ((link >> 32) as Oid, link as Oid)
}

/// The DSTC strategy state.
pub struct Dstc {
    params: DstcParams,
    /// Elementary (current observation period) transition counts, keyed
    /// by packed link. Consolidation sorts them by link before folding
    /// them in, for replay determinism (float accumulation order reaches
    /// the weights).
    observation: HashMap<u64, u32, IntHash>,
    /// The drained observation, sorted by link at consolidation (a
    /// buffer reused across periods).
    drained: Vec<(u64, u32)>,
    /// Consolidated link weights (each ≥ `tfc`), sorted by packed link.
    /// A consolidation rebuilds it as one merge with `drained`.
    consolidated: Vec<(u64, f64)>,
    /// The merge's output buffer, swapped with `consolidated` after
    /// each consolidation, so both keep their capacity.
    merged: Vec<(u64, f64)>,
    /// Objects whose consolidated neighbourhood changed since the last
    /// reorganisation.
    flagged: FlagTable,
    accesses_this_period: u64,
    counters: DstcCounters,
}

impl Dstc {
    /// Creates the strategy.
    ///
    /// # Panics
    /// Panics if the parameters are invalid.
    pub fn new(params: DstcParams) -> Self {
        params.validate().expect("invalid DSTC parameters");
        Dstc {
            params,
            observation: HashMap::default(),
            drained: Vec::new(),
            consolidated: Vec::new(),
            merged: Vec::new(),
            flagged: FlagTable::default(),
            accesses_this_period: 0,
            counters: DstcCounters::default(),
        }
    }

    /// Activity counters.
    pub fn counters(&self) -> DstcCounters {
        self.counters
    }

    /// Consolidated links currently held (weight ≥ tfc), for inspection.
    #[cfg(test)]
    pub fn consolidated_links(&self) -> usize {
        self.consolidated.len()
    }

    /// Number of currently flagged objects.
    #[cfg(test)]
    pub fn flagged_objects(&self) -> usize {
        self.flagged.count
    }

    /// Folds the current observation period into the consolidated matrix
    /// (phase 2). Public so an experiment can force a consolidation before
    /// an external clustering demand.
    ///
    /// One merge of the consolidated matrix and the link-sorted drained
    /// period: every consolidated weight is aged by `w`, an elementary
    /// count passing `tfa` is added to its link's weight (0 for a new
    /// link) and flags both ends, and weights below `tfc` are dropped.
    pub fn consolidate(&mut self) {
        self.counters.consolidations += 1;
        // audit: sorted by link on the next line
        self.drained.extend(self.observation.drain());
        self.drained.sort_unstable_by_key(|&(link, _)| link);
        let DstcParams { w, tfa, tfc, .. } = self.params;
        let mut merged = std::mem::take(&mut self.merged);
        merged.clear();
        let (old, new) = (&self.consolidated, &self.drained);
        let (mut i, mut j) = (0, 0);
        loop {
            let old_link = old.get(i).map(|&(link, _)| link);
            let new_link = new.get(j).map(|&(link, _)| link);
            let Some(link) = old_link.into_iter().chain(new_link).min() else {
                break;
            };
            let mut weight = None;
            if old_link == Some(link) {
                weight = Some(old[i].1 * w);
                i += 1;
            }
            if new_link == Some(link) {
                let count = f64::from(new[j].1);
                j += 1;
                if count < tfa {
                    self.counters.links_filtered += 1;
                } else {
                    weight = Some(weight.unwrap_or(0.0) + count);
                    let (from, to) = unpack(link);
                    self.flagged.set(from);
                    self.flagged.set(to);
                }
            }
            if let Some(weight) = weight.filter(|&weight| weight >= tfc) {
                merged.push((link, weight));
            }
        }
        self.drained.clear();
        self.merged = std::mem::replace(&mut self.consolidated, merged);
        self.accesses_this_period = 0;
    }

    /// Greedy unit construction from the consolidated matrix (phase 4),
    /// over a base of `objects` objects.
    fn construct_units(&self, objects: usize) -> Vec<Vec<Oid>> {
        // Deterministic order: weight desc, then link id.
        let mut links: Vec<(u64, f64)> = self
            .consolidated
            .iter()
            .copied()
            .filter(|&(_, weight)| weight >= self.params.tfe)
            .collect();
        links.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        const NO_UNIT: u32 = u32::MAX;
        let max = self.params.max_unit_size;
        // The unit of each object by OID; NO_UNIT while it has none.
        let mut unit_of = vec![NO_UNIT; objects];
        let mut units: Vec<Vec<Oid>> = Vec::new();
        for (link, _) in links {
            let (from, to) = unpack(link);
            if from == to {
                continue;
            }
            let unit = |oid: Oid| match unit_of[oid as usize] {
                NO_UNIT => None,
                unit => Some(unit as usize),
            };
            match (unit(from), unit(to)) {
                (None, None) => {
                    let id = units.len() as u32;
                    units.push(vec![from, to]);
                    unit_of[from as usize] = id;
                    unit_of[to as usize] = id;
                }
                (Some(u), None) => {
                    if units[u].len() < max {
                        units[u].push(to);
                        unit_of[to as usize] = u as u32;
                    }
                }
                (None, Some(u)) => {
                    if units[u].len() < max {
                        units[u].push(from);
                        unit_of[from as usize] = u as u32;
                    }
                }
                (Some(a), Some(b)) => {
                    if a != b && units[a].len() + units[b].len() <= max {
                        // Merge the smaller unit into the larger.
                        let (dst, src) = if units[a].len() >= units[b].len() {
                            (a, b)
                        } else {
                            (b, a)
                        };
                        let moved = std::mem::take(&mut units[src]);
                        for &oid in &moved {
                            unit_of[oid as usize] = dst as u32;
                        }
                        units[dst].extend(moved);
                    }
                }
            }
        }
        units.retain(|u| u.len() >= 2);
        units
    }
}

impl ClusteringStrategy for Dstc {
    fn name(&self) -> &'static str {
        "DSTC"
    }

    fn on_access(&mut self, parent: Option<Oid>, oid: Oid) {
        self.accesses_this_period += 1;
        if let Some(from) = parent {
            if from != oid {
                *self.observation.entry(pack(from, oid)).or_insert(0) += 1;
            }
        }
        if self.accesses_this_period >= self.params.observation_period {
            self.consolidate();
        }
    }

    fn should_trigger(&self) -> bool {
        self.flagged.count >= self.params.trigger_threshold
    }

    fn build_clusters(&mut self, base: &ObjectBase) -> ClusteringOutcome {
        // Fold any partial observation period so an external demand sees
        // the freshest statistics (the knowledge model allows external
        // triggering at any time).
        if self.accesses_this_period > 0 {
            self.consolidate();
        }
        let clusters = self.construct_units(base.len());
        self.counters.reorganisations += 1;
        self.flagged.clear();
        ClusteringOutcome { clusters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocb::DatabaseParams;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn tiny_params() -> DstcParams {
        DstcParams {
            observation_period: 100,
            tfa: 2.0,
            tfc: 1.0,
            tfe: 2.0,
            w: 0.5,
            max_unit_size: 8,
            trigger_threshold: 4,
        }
    }

    fn base() -> ObjectBase {
        ObjectBase::generate(&DatabaseParams::small(), 21)
    }

    #[test]
    fn repeated_transitions_form_a_cluster() {
        let mut dstc = Dstc::new(tiny_params());
        // Traverse 1→2→3 ten times.
        for _ in 0..10 {
            dstc.on_access(None, 1);
            dstc.on_access(Some(1), 2);
            dstc.on_access(Some(2), 3);
        }
        let outcome = dstc.build_clusters(&base());
        assert_eq!(outcome.cluster_count(), 1);
        let cluster = &outcome.clusters[0];
        assert!(cluster.contains(&1) && cluster.contains(&2) && cluster.contains(&3));
    }

    #[test]
    fn rare_links_are_filtered_by_tfa() {
        let mut dstc = Dstc::new(tiny_params());
        // 1→2 happens ten times, 5→6 only once (below tfa = 2).
        for _ in 0..10 {
            dstc.on_access(None, 1);
            dstc.on_access(Some(1), 2);
        }
        dstc.on_access(Some(5), 6);
        let outcome = dstc.build_clusters(&base());
        let all: Vec<Oid> = outcome.clusters.concat();
        assert!(all.contains(&1) && all.contains(&2));
        assert!(!all.contains(&5) && !all.contains(&6));
        assert!(dstc.counters().links_filtered > 0);
    }

    #[test]
    fn observation_period_triggers_consolidation() {
        let mut dstc = Dstc::new(tiny_params());
        // 100 accesses = exactly one period.
        for i in 0..50u32 {
            dstc.on_access(None, i % 5);
            dstc.on_access(Some(i % 5), (i % 5) + 1);
        }
        assert_eq!(dstc.counters().consolidations, 1);
        assert!(dstc.consolidated_links() > 0);
    }

    #[test]
    fn ageing_decays_old_links() {
        let mut params = tiny_params();
        params.observation_period = 10;
        params.tfc = 2.0;
        let mut dstc = Dstc::new(params);
        // Period 1: strong link 1→2 (5 transitions → weight 5).
        for _ in 0..5 {
            dstc.on_access(None, 1);
            dstc.on_access(Some(1), 2);
        }
        assert_eq!(dstc.counters().consolidations, 1);
        assert_eq!(dstc.consolidated_links(), 1);
        // Two idle periods: weight 5 → 2.5 → 1.25 < tfc → dropped.
        for _ in 0..2 {
            for i in 0..10u32 {
                dstc.on_access(None, 100 + i); // Root accesses, no links.
            }
        }
        assert_eq!(dstc.counters().consolidations, 3);
        assert_eq!(dstc.consolidated_links(), 0, "aged link must be dropped");
    }

    #[test]
    fn automatic_trigger_fires_on_flagged_objects() {
        let mut dstc = Dstc::new(tiny_params());
        assert!(!dstc.should_trigger());
        // Create ≥ 4 flagged objects (links among 6 objects, each ≥ tfa).
        for _ in 0..5 {
            for pair in [(1, 2), (3, 4), (5, 6)] {
                dstc.on_access(None, pair.0);
                dstc.on_access(Some(pair.0), pair.1);
            }
        }
        dstc.consolidate();
        assert!(dstc.flagged_objects() >= 4);
        assert!(dstc.should_trigger());
        // Building clusters clears the flags.
        dstc.build_clusters(&base());
        assert!(!dstc.should_trigger());
        assert_eq!(dstc.flagged_objects(), 0);
    }

    #[test]
    fn unit_size_is_capped() {
        let mut params = tiny_params();
        params.max_unit_size = 4;
        let mut dstc = Dstc::new(params);
        // A chain 0→1→…→19, all links equally strong.
        for _ in 0..5 {
            dstc.on_access(None, 0);
            for i in 0..19u32 {
                dstc.on_access(Some(i), i + 1);
            }
        }
        let outcome = dstc.build_clusters(&base());
        assert!(outcome.cluster_count() >= 2);
        for cluster in &outcome.clusters {
            assert!(cluster.len() <= 4, "unit exceeds cap: {cluster:?}");
        }
    }

    #[test]
    fn units_merge_when_links_join_them() {
        let mut dstc = Dstc::new(tiny_params());
        // Two strong pairs (1,2) and (3,4), plus a medium link 2→3
        // observed later — units must merge into one.
        for _ in 0..10 {
            dstc.on_access(None, 1);
            dstc.on_access(Some(1), 2);
            dstc.on_access(None, 3);
            dstc.on_access(Some(3), 4);
        }
        for _ in 0..5 {
            dstc.on_access(None, 2);
            dstc.on_access(Some(2), 3);
        }
        let outcome = dstc.build_clusters(&base());
        assert_eq!(outcome.cluster_count(), 1);
        assert_eq!(outcome.clusters[0].len(), 4);
    }

    #[test]
    fn deterministic_given_same_accesses() {
        let run = || {
            let mut dstc = Dstc::new(tiny_params());
            for round in 0..20u32 {
                dstc.on_access(None, round % 7);
                dstc.on_access(Some(round % 7), (round % 7) + 10);
                dstc.on_access(Some((round % 7) + 10), (round % 3) + 20);
            }
            dstc.build_clusters(&base()).clusters
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn self_transitions_ignored() {
        let mut dstc = Dstc::new(tiny_params());
        for _ in 0..10 {
            dstc.on_access(Some(5), 5);
        }
        assert_eq!(dstc.observation.len(), 0, "nothing observed");
        assert_eq!(dstc.consolidated_links(), 0);
        let outcome = dstc.build_clusters(&base());
        assert_eq!(outcome.cluster_count(), 0);
    }

    /// The ordered-map consolidation the merge replaces: ages every
    /// weight, folds the period's links passing `tfa` in link order,
    /// drops weights below `tfc`.
    struct Reference {
        params: DstcParams,
        observation: BTreeMap<(Oid, Oid), u32>,
        consolidated: BTreeMap<(Oid, Oid), f64>,
        flagged: BTreeSet<Oid>,
        accesses_this_period: u64,
        links_filtered: u64,
        /// Weights dropped by `tfc` (coverage).
        dropped: u64,
    }

    impl Reference {
        fn new(params: DstcParams) -> Self {
            Reference {
                params,
                observation: BTreeMap::new(),
                consolidated: BTreeMap::new(),
                flagged: BTreeSet::new(),
                accesses_this_period: 0,
                links_filtered: 0,
                dropped: 0,
            }
        }

        fn on_access(&mut self, parent: Option<Oid>, oid: Oid) {
            self.accesses_this_period += 1;
            if let Some(from) = parent.filter(|&from| from != oid) {
                *self.observation.entry((from, oid)).or_insert(0) += 1;
            }
            if self.accesses_this_period >= self.params.observation_period {
                self.consolidate();
            }
        }

        fn consolidate(&mut self) {
            for weight in self.consolidated.values_mut() {
                *weight *= self.params.w;
            }
            for (&(from, to), &count) in &self.observation {
                if (count as f64) < self.params.tfa {
                    self.links_filtered += 1;
                    continue;
                }
                *self.consolidated.entry((from, to)).or_insert(0.0) += count as f64;
                self.flagged.insert(from);
                self.flagged.insert(to);
            }
            self.observation.clear();
            let (tfc, before) = (self.params.tfc, self.consolidated.len());
            self.consolidated.retain(|_, weight| *weight >= tfc);
            self.dropped += (before - self.consolidated.len()) as u64;
            self.accesses_this_period = 0;
        }

        fn build_clusters(&mut self, objects: usize) -> Vec<Vec<Oid>> {
            if self.accesses_this_period > 0 {
                self.consolidate();
            }
            self.flagged.clear();
            // Phase 4 over the map's links, handed over in link order.
            let mut units = Dstc::new(self.params.clone());
            units.consolidated = self
                .consolidated
                .iter()
                .map(|(&(from, to), &weight)| (pack(from, to), weight))
                .collect();
            units.construct_units(objects)
        }
    }

    fn assert_same_state(dstc: &Dstc, reference: &Reference) {
        let weights: Vec<(u64, u64)> = dstc
            .consolidated
            .iter()
            .map(|&(link, weight)| (link, weight.to_bits()))
            .collect();
        let expected: Vec<(u64, u64)> = reference
            .consolidated
            .iter()
            .map(|(&(from, to), weight)| (pack(from, to), weight.to_bits()))
            .collect();
        assert_eq!(weights, expected);
        assert_eq!(dstc.counters().links_filtered, reference.links_filtered);
        let flagged: Vec<Oid> = (0..dstc.flagged.flags.len() as Oid)
            .filter(|&oid| dstc.flagged.flags[oid as usize])
            .collect();
        assert_eq!(
            flagged,
            reference.flagged.iter().copied().collect::<Vec<_>>()
        );
        assert_eq!(dstc.flagged_objects(), reference.flagged.len());
    }

    #[test]
    fn merge_matches_ordered_map_consolidation() {
        let base = base();
        const OBJECTS: usize = 40;
        let (mut filtered, mut dropped, mut builds) = (0, 0, 0);
        for (case, (w, tfa, tfc)) in [
            (0.5, 2.0, 1.0),
            (0.9, 1.0, 2.5),
            (0.0, 3.0, 0.5),
            (1.0, 2.0, 4.0),
            (0.3, 1.0, 0.0),
        ]
        .into_iter()
        .enumerate()
        {
            let params = DstcParams {
                observation_period: 60,
                tfa,
                tfc,
                tfe: 2.0,
                w,
                max_unit_size: 6,
                trigger_threshold: 10,
            };
            let mut dstc = Dstc::new(params.clone());
            let mut reference = Reference::new(params);
            let mut stream = desp::RandomStream::new(case as u64);
            for step in 0..3_000 {
                let oid = stream.index(OBJECTS) as Oid;
                // Half the transitions follow a fixed strong link, the
                // rest are random (mostly below tfa) or roots.
                let parent = match stream.index(4) {
                    0 | 1 => Some((oid * 7 + 3) % OBJECTS as Oid),
                    2 => Some(stream.index(OBJECTS) as Oid),
                    _ => None,
                };
                let before = dstc.counters().consolidations;
                dstc.on_access(parent, oid);
                reference.on_access(parent, oid);
                if dstc.counters().consolidations != before {
                    assert_same_state(&dstc, &reference);
                }
                assert_eq!(dstc.should_trigger(), reference.flagged.len() >= 10);
                // A reorganisation in mid-period, now and then.
                if step % 500 == 277 {
                    assert_eq!(
                        dstc.build_clusters(&base).clusters,
                        reference.build_clusters(base.len())
                    );
                    assert_same_state(&dstc, &reference);
                    builds += 1;
                }
            }
            filtered += reference.links_filtered;
            dropped += reference.dropped;
        }
        assert!(
            filtered > 0 && dropped > 0 && builds > 0,
            "{filtered} {dropped}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn held_statistics_are_bounded_by_distinct_links(
            trace in prop::collection::vec((prop::option::of(0u32..40), 0u32..40), 1..400)
        ) {
            // The statistics held can never exceed the number of distinct
            // links observed (memory-boundedness of the observation phase).
            let mut dstc = Dstc::new(DstcParams {
                observation_period: 1_000_000, // never consolidate mid-trace
                ..DstcParams::default()
            });
            let mut distinct_links = std::collections::HashSet::new();
            for &(parent, oid) in &trace {
                dstc.on_access(parent, oid);
                if let Some(p) = parent {
                    if p != oid {
                        distinct_links.insert((p, oid));
                    }
                }
            }
            prop_assert!(dstc.observation.len() + dstc.consolidated_links() <= distinct_links.len());
            dstc.consolidate();
            prop_assert!(dstc.observation.is_empty());
            prop_assert!(dstc.consolidated_links() <= distinct_links.len());
        }
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(DstcParams {
            w: 1.5,
            ..DstcParams::default()
        }
        .validate()
        .is_err());
        assert!(DstcParams {
            observation_period: 0,
            ..DstcParams::default()
        }
        .validate()
        .is_err());
        assert!(DstcParams {
            max_unit_size: 1,
            ..DstcParams::default()
        }
        .validate()
        .is_err());
    }
}
