//! OCB workload: transactions over the object base.
//!
//! Table 5 of the paper fixes the validation workload: 1000 warm
//! transactions mixing the four OCB access patterns with equal probability
//! (set-oriented depth 3, simple traversal depth 3, hierarchy traversal
//! depth 5, stochastic traversal depth 50).
//!
//! A [`WorkloadGenerator`] turns a seed into a reproducible stream of
//! [`Transaction`]s; the benchmark engines (`oostore`) and the simulator
//! (`voodb`) replay *the same stream* when given the same seed, which is
//! exactly how the paper aligned its benchmark and simulation runs ("the
//! objective here was to use the same workload model in both sets of
//! experiments", §4.1).
//!
//! Every access records the object it was reached **from** (its traversal
//! parent): that object-to-object transition is precisely what dynamic
//! clustering statistics (DSTC's observation matrices) are collected on.

use crate::database::{ObjectBase, Oid};
use crate::params::{Selection, TransactionKind, WorkloadParams};
use crate::schema::RefType;
use desp::{RandomStream, Zipf};

/// Reference type followed by hierarchy traversals.
pub const HIERARCHY_REF_TYPE: RefType = 0;

/// Safety bound on accesses within one transaction (a depth-3 traversal of
/// a `MAXNREF = 10` base can touch ~1000 objects; anything near this bound
/// indicates a mis-parameterised experiment).
pub const MAX_ACCESSES_PER_TRANSACTION: usize = 100_000;

/// One traversal step: the object reached and the object it was reached
/// from (`None` for the root).
pub type Step = (Oid, Option<Oid>);

/// One object access inside a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// The object accessed.
    pub oid: Oid,
    /// The object whose reference was followed to reach it (`None` for
    /// transaction roots). Dynamic clustering statistics observe these
    /// transitions.
    pub parent: Option<Oid>,
    /// Whether the access updates the object (dirties its page).
    pub write: bool,
}

/// A complete transaction: an ordered sequence of object accesses.
#[derive(Clone, Debug)]
pub struct Transaction {
    /// Which OCB access pattern produced it.
    pub kind: TransactionKind,
    /// The root object the traversal started from.
    pub root: Oid,
    /// The accesses, in execution order (the root is first).
    pub accesses: Vec<Access>,
}

impl Transaction {
    /// An empty placeholder, the reusable buffer the `*_into` streaming
    /// paths fill ([`WorkloadGenerator::next_transaction_into`],
    /// [`crate::source::TransactionSource::next_into`]).
    pub fn empty() -> Self {
        Transaction {
            kind: TransactionKind::SetOriented,
            root: 0,
            accesses: Vec::new(),
        }
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// True when the transaction performs no access (never generated).
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }
}

/// Reusable traversal state, so a long-running generator performs no
/// steady-state allocation: visited marks are epoch-stamped (reset is a
/// counter bump, not a clear), the BFS frontiers, the DFS stack and the
/// step buffer all keep their capacity between transactions.
///
/// The traversal orders are **identical** to a fresh-allocation run —
/// the public `*_steps` functions are thin wrappers over the same
/// `*_into` bodies with a throwaway scratch (property-pinned by the
/// lazy-vs-materialized differential tests).
#[derive(Debug, Default)]
pub(crate) struct TraversalScratch {
    /// Epoch-stamped visited marks (`visited[oid] == epoch` ⇔ visited).
    visited: Vec<u64>,
    epoch: u64,
    /// Current and next BFS frontier (swapped per level).
    frontier: Vec<Oid>,
    next: Vec<Oid>,
    /// DFS stack of `(oid, parent, remaining depth)`.
    stack: Vec<(Oid, Option<Oid>, usize)>,
    /// The traversal output, in access order.
    pub(crate) steps: Vec<Step>,
}

impl TraversalScratch {
    /// Starts a new traversal over a base of `n` objects.
    fn begin(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        self.epoch += 1;
        self.steps.clear();
    }

    /// Marks `oid` visited; true iff this was the first visit.
    #[inline]
    fn visit(&mut self, oid: Oid) -> bool {
        let slot = &mut self.visited[oid as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

/// Set-oriented access into `scratch.steps`; see [`set_oriented_steps`].
pub(crate) fn set_oriented_into(
    base: &ObjectBase,
    root: Oid,
    depth: usize,
    scratch: &mut TraversalScratch,
) {
    scratch.begin(base.len());
    let mut frontier = std::mem::take(&mut scratch.frontier);
    frontier.clear();
    scratch.visit(root);
    scratch.steps.push((root, None));
    frontier.push(root);
    for _ in 0..depth {
        scratch.next.clear();
        for &oid in &frontier {
            for &target in base.object(oid).refs.iter() {
                if scratch.visit(target) {
                    scratch.steps.push((target, Some(oid)));
                    scratch.next.push(target);
                    if scratch.steps.len() >= MAX_ACCESSES_PER_TRANSACTION {
                        scratch.frontier = frontier;
                        return;
                    }
                }
            }
        }
        if scratch.next.is_empty() {
            break;
        }
        std::mem::swap(&mut frontier, &mut scratch.next);
    }
    scratch.frontier = frontier;
}

/// Set-oriented access with parent links: breadth-first expansion over
/// **all** references up to `depth`, each reachable object accessed once.
// audit: an OCB traversal definition, checked by `tests/properties.rs`
pub fn set_oriented_steps(base: &ObjectBase, root: Oid, depth: usize) -> Vec<Step> {
    let mut scratch = TraversalScratch::default();
    set_oriented_into(base, root, depth, &mut scratch);
    scratch.steps
}

/// Simple traversal into `scratch.steps`; see [`simple_traversal_steps`].
pub(crate) fn simple_traversal_into(
    base: &ObjectBase,
    root: Oid,
    depth: usize,
    scratch: &mut TraversalScratch,
) {
    scratch.steps.clear();
    // Explicit stack of (oid, parent, remaining depth) to avoid recursion.
    let mut stack = std::mem::take(&mut scratch.stack);
    stack.clear();
    stack.push((root, None, depth));
    while let Some((oid, parent, remaining)) = stack.pop() {
        scratch.steps.push((oid, parent));
        if scratch.steps.len() >= MAX_ACCESSES_PER_TRANSACTION {
            break;
        }
        if remaining > 0 {
            let object = base.object(oid);
            // Push in reverse so references are visited in declaration
            // order (stack is LIFO).
            for &target in object.refs.iter().rev() {
                stack.push((target, Some(oid), remaining - 1));
            }
        }
    }
    scratch.stack = stack;
}

/// Simple traversal with parent links: depth-first walk over **all**
/// references up to `depth`; shared sub-objects are accessed once per path
/// (OO7 raw traversal style).
// audit: an OCB traversal definition, checked by `tests/properties.rs`
pub fn simple_traversal_steps(base: &ObjectBase, root: Oid, depth: usize) -> Vec<Step> {
    let mut scratch = TraversalScratch::default();
    simple_traversal_into(base, root, depth, &mut scratch);
    scratch.steps
}

/// Hierarchy traversal into `scratch.steps`; see
/// [`hierarchy_traversal_steps`].
pub(crate) fn hierarchy_traversal_into(
    base: &ObjectBase,
    root: Oid,
    depth: usize,
    scratch: &mut TraversalScratch,
) {
    scratch.begin(base.len());
    let mut frontier = std::mem::take(&mut scratch.frontier);
    frontier.clear();
    scratch.visit(root);
    scratch.steps.push((root, None));
    frontier.push(root);
    for _ in 0..depth {
        scratch.next.clear();
        for &oid in &frontier {
            for target in base.refs_of_type(oid, HIERARCHY_REF_TYPE) {
                if scratch.visit(target) {
                    scratch.steps.push((target, Some(oid)));
                    scratch.next.push(target);
                }
            }
        }
        if scratch.next.is_empty() {
            break;
        }
        std::mem::swap(&mut frontier, &mut scratch.next);
    }
    scratch.frontier = frontier;
}

/// Hierarchy traversal with parent links: breadth-first expansion
/// restricted to references of type [`HIERARCHY_REF_TYPE`], up to `depth`,
/// each object once.
// audit: an OCB traversal definition, checked by `tests/properties.rs`
pub fn hierarchy_traversal_steps(base: &ObjectBase, root: Oid, depth: usize) -> Vec<Step> {
    let mut scratch = TraversalScratch::default();
    hierarchy_traversal_into(base, root, depth, &mut scratch);
    scratch.steps
}

/// Stochastic traversal into `scratch.steps`; see
/// [`stochastic_traversal_steps`].
pub(crate) fn stochastic_traversal_into(
    base: &ObjectBase,
    root: Oid,
    depth: usize,
    stream: &mut RandomStream,
    scratch: &mut TraversalScratch,
) {
    scratch.steps.clear();
    scratch.steps.reserve(depth + 1);
    let mut current = root;
    scratch.steps.push((current, None));
    for _ in 0..depth {
        let refs = &base.object(current).refs;
        if refs.is_empty() {
            break;
        }
        let next = refs[stream.index(refs.len())];
        scratch.steps.push((next, Some(current)));
        current = next;
    }
}

/// Stochastic traversal with parent links: a random walk of `depth` steps,
/// following one uniformly chosen reference at each step.
// audit: an OCB traversal definition, checked by `tests/properties.rs`
pub fn stochastic_traversal_steps(
    base: &ObjectBase,
    root: Oid,
    depth: usize,
    stream: &mut RandomStream,
) -> Vec<Step> {
    let mut scratch = TraversalScratch::default();
    stochastic_traversal_into(base, root, depth, stream, &mut scratch);
    scratch.steps
}

/// How roots are drawn, precomputed from [`Selection`].
enum RootSampler {
    Uniform,
    /// Zipf over a permutation decorrelating popularity from OID order
    /// (and therefore from sequential placement).
    Zipf(Zipf, Vec<Oid>),
    /// Hot/cold over a permutation: the first `hot` entries form the hot
    /// set.
    HotSet {
        perm: Vec<Oid>,
        hot: usize,
        p_hot: f64,
    },
}

/// Reproducible transaction stream over an object base.
///
/// The stream is a pure function of `(base, params, seed)` whether it is
/// materialized up front ([`WorkloadGenerator::generate_run`]) or pulled
/// one transaction at a time ([`WorkloadGenerator::next_transaction_into`],
/// the streaming path of [`crate::source::LazySource`]): both call the
/// same generation body, so the sequences are byte-identical
/// (property-tested).
pub struct WorkloadGenerator<'a> {
    base: &'a ObjectBase,
    params: WorkloadParams,
    stream: RandomStream,
    roots: RootSampler,
    scratch: TraversalScratch,
}

impl<'a> WorkloadGenerator<'a> {
    /// Creates a generator; the stream of transactions is a pure function
    /// of `(base, params, seed)`.
    pub fn new(base: &'a ObjectBase, params: WorkloadParams, seed: u64) -> Self {
        params.validate().expect("invalid workload parameters");
        assert!(
            !base.is_empty(),
            "cannot generate a workload on an empty base"
        );
        let mut stream = RandomStream::new(seed);
        let roots = match params.root_dist {
            Selection::Uniform => RootSampler::Uniform,
            Selection::Zipf(theta) => {
                let mut perm: Vec<Oid> = (0..base.len() as Oid).collect();
                stream.shuffle(&mut perm);
                RootSampler::Zipf(Zipf::new(base.len(), theta), perm)
            }
            Selection::HotSet { fraction, p_hot } => {
                let mut perm: Vec<Oid> = (0..base.len() as Oid).collect();
                stream.shuffle(&mut perm);
                let hot = ((base.len() as f64 * fraction).ceil() as usize).clamp(1, base.len());
                RootSampler::HotSet { perm, hot, p_hot }
            }
        };
        WorkloadGenerator {
            base,
            params,
            stream,
            roots,
            scratch: TraversalScratch::default(),
        }
    }

    /// The workload parameters.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    fn pick_root(&mut self) -> Oid {
        match &self.roots {
            RootSampler::Uniform => self.stream.index(self.base.len()) as Oid,
            RootSampler::Zipf(z, perm) => perm[z.sample(&mut self.stream)],
            RootSampler::HotSet { perm, hot, p_hot } => {
                if self.stream.bernoulli(*p_hot) || *hot == perm.len() {
                    perm[self.stream.index(*hot)]
                } else {
                    perm[*hot + self.stream.index(perm.len() - *hot)]
                }
            }
        }
    }

    /// Generates the next transaction.
    pub fn next_transaction(&mut self) -> Transaction {
        let mut out = Transaction::empty();
        self.next_transaction_into(&mut out);
        out
    }

    /// Generates the next transaction **into** `out`, reusing its access
    /// buffer (and the generator's internal traversal scratch): the
    /// steady-state streaming path performs no allocation. The sequence
    /// is byte-identical to repeated [`Self::next_transaction`] calls.
    pub fn next_transaction_into(&mut self, out: &mut Transaction) {
        let weights = self.params.mix_weights();
        let kind = TransactionKind::ALL[self.stream.choose_weighted(&weights)];
        let root = self.pick_root();
        match kind {
            TransactionKind::SetOriented => {
                set_oriented_into(self.base, root, self.params.set_depth, &mut self.scratch)
            }
            TransactionKind::SimpleTraversal => {
                simple_traversal_into(self.base, root, self.params.simple_depth, &mut self.scratch)
            }
            TransactionKind::HierarchyTraversal => hierarchy_traversal_into(
                self.base,
                root,
                self.params.hierarchy_depth,
                &mut self.scratch,
            ),
            TransactionKind::StochasticTraversal => stochastic_traversal_into(
                self.base,
                root,
                self.params.stochastic_depth,
                &mut self.stream,
                &mut self.scratch,
            ),
        };
        let p_write = self.params.p_write;
        out.kind = kind;
        out.root = root;
        out.accesses.clear();
        out.accesses.reserve(self.scratch.steps.len());
        for &(oid, parent) in &self.scratch.steps {
            out.accesses.push(Access {
                oid,
                parent,
                // The write draws come after the whole traversal, exactly
                // as in the original one-shot path, so the RNG sequence
                // is unchanged.
                write: p_write > 0.0 && self.stream.bernoulli(p_write),
            });
        }
    }

    /// Generates the complete measured run: `COLDN` cold transactions
    /// followed by `HOTN` hot ones. Returns `(cold, hot)`.
    pub fn generate_run(&mut self) -> (Vec<Transaction>, Vec<Transaction>) {
        let cold = (0..self.params.cold_transactions)
            .map(|_| self.next_transaction())
            .collect();
        let hot = (0..self.params.hot_transactions)
            .map(|_| self.next_transaction())
            .collect();
        (cold, hot)
    }
}

impl Iterator for WorkloadGenerator<'_> {
    type Item = Transaction;

    /// Infinite stream; bound it with `take` or use
    /// [`WorkloadGenerator::generate_run`].
    fn next(&mut self) -> Option<Transaction> {
        Some(self.next_transaction())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DatabaseParams;

    fn base() -> ObjectBase {
        ObjectBase::generate(&DatabaseParams::small(), 17)
    }

    /// The objects a traversal accesses, in order.
    fn oids(steps: Vec<Step>) -> Vec<Oid> {
        steps.into_iter().map(|(oid, _)| oid).collect()
    }

    #[test]
    fn set_oriented_accesses_are_distinct() {
        let base = base();
        let oids = oids(set_oriented_steps(&base, 0, 3));
        let mut sorted = oids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            oids.len(),
            "set access must not repeat objects"
        );
        assert_eq!(oids[0], 0);
        assert!(oids.len() > 1);
    }

    #[test]
    fn set_oriented_depth_zero_is_root_only() {
        let base = base();
        assert_eq!(oids(set_oriented_steps(&base, 5, 0)), vec![5]);
    }

    #[test]
    fn parents_are_valid_references() {
        let base = base();
        for steps in [
            set_oriented_steps(&base, 2, 3),
            simple_traversal_steps(&base, 2, 3),
            hierarchy_traversal_steps(&base, 2, 5),
        ] {
            assert_eq!(steps[0].1, None, "root has no parent");
            for &(oid, parent) in &steps[1..] {
                let parent = parent.expect("non-root step has a parent");
                assert!(
                    base.object(parent).refs.contains(&oid),
                    "{parent} does not reference {oid}"
                );
            }
        }
    }

    #[test]
    fn simple_traversal_visits_root_first_and_may_repeat() {
        let base = base();
        let oids = oids(simple_traversal_steps(&base, 3, 3));
        assert_eq!(oids[0], 3);
        // Upper bound: 1 + b + b² + b³ with b = max_refs.
        let b = 10usize;
        assert!(oids.len() <= 1 + b + b * b + b * b * b);
        assert!(oids.len() > 1);
    }

    #[test]
    fn hierarchy_traversal_follows_only_type_zero() {
        let base = base();
        let steps = hierarchy_traversal_steps(&base, 7, 5);
        assert_eq!(steps[0], (7, None));
        for &(oid, parent) in &steps[1..] {
            let parent = parent.unwrap();
            assert!(
                base.refs_of_type(parent, HIERARCHY_REF_TYPE)
                    .any(|t| t == oid),
                "edge {parent}→{oid} is not a hierarchy reference"
            );
        }
    }

    #[test]
    fn stochastic_traversal_length_is_depth_plus_one() {
        let base = base();
        let mut stream = RandomStream::new(5);
        let oids = oids(stochastic_traversal_steps(&base, 2, 50, &mut stream));
        // Every object has ≥1 reference, so the walk never stalls.
        assert_eq!(oids.len(), 51);
        // Each consecutive pair is connected by a reference.
        for w in oids.windows(2) {
            assert!(
                base.object(w[0]).refs.contains(&w[1]),
                "walk step {w:?} not a reference"
            );
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let base = base();
        let mut a = WorkloadGenerator::new(&base, WorkloadParams::small(), 23);
        let mut b = WorkloadGenerator::new(&base, WorkloadParams::small(), 23);
        for _ in 0..20 {
            let ta = a.next_transaction();
            let tb = b.next_transaction();
            assert_eq!(ta.kind, tb.kind);
            assert_eq!(ta.root, tb.root);
            assert_eq!(ta.accesses, tb.accesses);
        }
    }

    #[test]
    fn generator_respects_mix() {
        let base = base();
        let params = WorkloadParams {
            hot_transactions: 2000,
            ..WorkloadParams::default()
        };
        let mut generator = WorkloadGenerator::new(&base, params, 31);
        let mut counts = [0usize; 4];
        for _ in 0..2000 {
            let t = generator.next_transaction();
            let idx = TransactionKind::ALL
                .iter()
                .position(|&k| k == t.kind)
                .unwrap();
            counts[idx] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 2000.0;
            assert!((frac - 0.25).abs() < 0.06, "mix fraction {frac}");
        }
    }

    #[test]
    fn pure_hierarchy_mix_generates_only_hierarchy() {
        let base = base();
        let mut generator = WorkloadGenerator::new(&base, WorkloadParams::dstc_favorable(), 37);
        for _ in 0..50 {
            let t = generator.next_transaction();
            assert_eq!(t.kind, TransactionKind::HierarchyTraversal);
        }
    }

    #[test]
    fn zipf_roots_concentrate() {
        let base = base();
        let params = WorkloadParams {
            root_dist: Selection::Zipf(1.0),
            ..WorkloadParams::default()
        };
        let mut generator = WorkloadGenerator::new(&base, params, 41);
        let mut roots = Vec::new();
        for _ in 0..500 {
            roots.push(generator.next_transaction().root);
        }
        let mut distinct = roots.clone();
        distinct.sort_unstable();
        distinct.dedup();
        // Uniform over 500 objects would give ~315 distinct roots in 500
        // draws; Zipf(1) concentrates markedly below that.
        assert!(
            distinct.len() < 280,
            "Zipf roots should concentrate, got {} distinct",
            distinct.len()
        );
    }

    #[test]
    fn write_probability_produces_writes() {
        let base = base();
        let params = WorkloadParams {
            p_write: 0.5,
            ..WorkloadParams::default()
        };
        let mut generator = WorkloadGenerator::new(&base, params, 43);
        let mut reads = 0usize;
        let mut writes = 0usize;
        for _ in 0..100 {
            for a in generator.next_transaction().accesses {
                if a.write {
                    writes += 1;
                } else {
                    reads += 1;
                }
            }
        }
        let frac = writes as f64 / (reads + writes) as f64;
        assert!((frac - 0.5).abs() < 0.05, "write fraction {frac}");
    }

    #[test]
    fn read_only_default_has_no_writes() {
        let base = base();
        let mut generator = WorkloadGenerator::new(&base, WorkloadParams::small(), 47);
        for _ in 0..50 {
            assert!(generator
                .next_transaction()
                .accesses
                .iter()
                .all(|a| !a.write));
        }
    }

    #[test]
    fn generate_run_produces_cold_then_hot() {
        let base = base();
        let params = WorkloadParams {
            cold_transactions: 5,
            hot_transactions: 10,
            ..WorkloadParams::default()
        };
        let mut generator = WorkloadGenerator::new(&base, params, 53);
        let (cold, hot) = generator.generate_run();
        assert_eq!(cold.len(), 5);
        assert_eq!(hot.len(), 10);
    }

    #[test]
    fn transaction_distinct_count() {
        let t = Transaction {
            kind: TransactionKind::SetOriented,
            root: 1,
            accesses: vec![
                Access {
                    oid: 1,
                    parent: None,
                    write: false,
                },
                Access {
                    oid: 2,
                    parent: Some(1),
                    write: false,
                },
                Access {
                    oid: 1,
                    parent: Some(2),
                    write: true,
                },
            ],
        };
        assert_eq!(t.len(), 3);
    }
}
