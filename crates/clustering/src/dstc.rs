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
use ocb::{ObjectBase, Oid};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
    /// Accesses observed in total.
    pub accesses_observed: u64,
    /// Observation periods consolidated.
    pub consolidations: u64,
    /// Links discarded by `tfa` at consolidation.
    pub links_filtered: u64,
    /// Reorganisations built.
    pub reorganisations: u64,
}

/// The DSTC strategy state.
pub struct Dstc {
    params: DstcParams,
    /// Elementary (current observation period) transition counts.
    /// Consolidation iterates these, so the map must be link-ordered for
    /// replay determinism (float accumulation order reaches the weights).
    observation: BTreeMap<(Oid, Oid), u32>,
    /// Consolidated link weights, link-ordered for the same reason.
    consolidated: BTreeMap<(Oid, Oid), f64>,
    /// Objects whose consolidated neighbourhood changed since the last
    /// reorganisation.
    flagged: BTreeSet<Oid>,
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
            observation: BTreeMap::new(),
            consolidated: BTreeMap::new(),
            flagged: BTreeSet::new(),
            accesses_this_period: 0,
            counters: DstcCounters::default(),
        }
    }

    /// The tuning parameters.
    pub fn params(&self) -> &DstcParams {
        &self.params
    }

    /// Activity counters.
    pub fn counters(&self) -> DstcCounters {
        self.counters
    }

    /// Consolidated links currently held (weight ≥ tfc), for inspection.
    pub fn consolidated_links(&self) -> usize {
        self.consolidated.len()
    }

    /// Number of currently flagged objects.
    pub fn flagged_objects(&self) -> usize {
        self.flagged.len()
    }

    /// Folds the current observation period into the consolidated matrix
    /// (phase 2). Public so an experiment can force a consolidation before
    /// an external clustering demand.
    pub fn consolidate(&mut self) {
        self.counters.consolidations += 1;
        // Age every consolidated weight first.
        for weight in self.consolidated.values_mut() {
            *weight *= self.params.w;
        }
        // Fold elementary links passing Tfa.
        for (&link, &count) in &self.observation {
            if (count as f64) < self.params.tfa {
                self.counters.links_filtered += 1;
                continue;
            }
            *self.consolidated.entry(link).or_insert(0.0) += count as f64;
            self.flagged.insert(link.0);
            self.flagged.insert(link.1);
        }
        // Drop consolidated entries below Tfc.
        let tfc = self.params.tfc;
        self.consolidated.retain(|_, weight| *weight >= tfc);
        self.observation.clear();
        self.accesses_this_period = 0;
    }

    /// Greedy unit construction from the consolidated matrix (phase 4).
    fn construct_units(&self) -> Vec<Vec<Oid>> {
        // Deterministic order: weight desc, then link id.
        let mut links: Vec<((Oid, Oid), f64)> = self
            .consolidated
            .iter()
            .filter(|(_, &weight)| weight >= self.params.tfe)
            .map(|(&link, &weight)| (link, weight))
            .collect();
        links.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        let max = self.params.max_unit_size;
        let mut unit_of: HashMap<Oid, usize> = HashMap::new();
        let mut units: Vec<Vec<Oid>> = Vec::new();
        for ((from, to), _) in links {
            if from == to {
                continue;
            }
            match (unit_of.get(&from).copied(), unit_of.get(&to).copied()) {
                (None, None) => {
                    let id = units.len();
                    units.push(vec![from, to]);
                    unit_of.insert(from, id);
                    unit_of.insert(to, id);
                }
                (Some(u), None) => {
                    if units[u].len() < max {
                        units[u].push(to);
                        unit_of.insert(to, u);
                    }
                }
                (None, Some(u)) => {
                    if units[u].len() < max {
                        units[u].push(from);
                        unit_of.insert(from, u);
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
                            unit_of.insert(oid, dst);
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
        self.counters.accesses_observed += 1;
        self.accesses_this_period += 1;
        if let Some(from) = parent {
            if from != oid {
                match self.observation.entry((from, oid)) {
                    Entry::Occupied(mut e) => *e.get_mut() += 1,
                    Entry::Vacant(e) => {
                        e.insert(1);
                    }
                }
            }
        }
        if self.accesses_this_period >= self.params.observation_period {
            self.consolidate();
        }
    }

    fn should_trigger(&self) -> bool {
        self.flagged.len() >= self.params.trigger_threshold
    }

    fn build_clusters(&mut self, _base: &ObjectBase) -> ClusteringOutcome {
        // Fold any partial observation period so an external demand sees
        // the freshest statistics (the knowledge model allows external
        // triggering at any time).
        if self.accesses_this_period > 0 {
            self.consolidate();
        }
        let clusters = self.construct_units();
        self.counters.reorganisations += 1;
        self.flagged.clear();
        ClusteringOutcome { clusters }
    }

    fn stats_size(&self) -> usize {
        self.observation.len() + self.consolidated.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocb::DatabaseParams;

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
        assert_eq!(dstc.stats_size(), 0);
        let outcome = dstc.build_clusters(&base());
        assert_eq!(outcome.cluster_count(), 0);
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
