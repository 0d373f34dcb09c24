//! The streaming workload seam: [`TransactionSource`].
//!
//! VOODB's Users sub-model *generates* transactions continuously; the
//! evaluation model should therefore **pull** them one at a time instead
//! of materializing a whole phase as a `Vec<Transaction>`. A
//! [`TransactionSource`] is that seam:
//!
//! * [`MaterializedSource`] replays a pre-built vector — the oracle the
//!   streaming paths are differentially tested against (and the natural
//!   carrier for hand-built transaction lists);
//! * [`LazySource`] draws from a [`WorkloadGenerator`] on demand,
//!   bounded (the classic `COLDN + HOTN` run) or unbounded (time-horizon
//!   phases, open-arrival workloads). Because the generator's lazy and
//!   eager paths share one generation body, a lazy stream is
//!   byte-identical to the materialized stream for equal seeds
//!   (property-tested in `tests/properties.rs`).
//!
//! Sources fill a caller-owned [`Transaction`] buffer
//! ([`TransactionSource::next_into`]), so a consumer that recycles its
//! buffer — like the simulator's transaction slab — performs no
//! per-transaction allocation in steady state and holds O(in-flight)
//! transaction state regardless of how many transactions the phase
//! executes.

use crate::workload::{Transaction, WorkloadGenerator};

/// A pull-based stream of transactions.
pub trait TransactionSource {
    /// Fills `out` with the next transaction, reusing its allocations.
    /// Returns `false` (leaving `out` untouched) when the source is
    /// exhausted; unbounded sources never are.
    fn next_into(&mut self, out: &mut Transaction) -> bool;

    /// Transactions yielded so far.
    fn yielded(&self) -> usize;

    /// Transactions left to yield, if the source is bounded.
    fn remaining(&self) -> Option<usize>;
}

/// Replays a materialized transaction vector (the differential oracle).
#[derive(Clone, Debug)]
pub struct MaterializedSource {
    transactions: Vec<Transaction>,
    next: usize,
}

impl MaterializedSource {
    /// A source replaying `transactions` in order.
    pub fn new(transactions: Vec<Transaction>) -> Self {
        MaterializedSource {
            transactions,
            next: 0,
        }
    }
}

impl TransactionSource for MaterializedSource {
    fn next_into(&mut self, out: &mut Transaction) -> bool {
        let Some(t) = self.transactions.get(self.next) else {
            return false;
        };
        self.next += 1;
        out.kind = t.kind;
        out.root = t.root;
        out.accesses.clear();
        out.accesses.extend_from_slice(&t.accesses);
        true
    }

    fn yielded(&self) -> usize {
        self.next
    }

    fn remaining(&self) -> Option<usize> {
        Some(self.transactions.len() - self.next)
    }
}

/// Generates transactions on demand from a [`WorkloadGenerator`].
pub struct LazySource<'a> {
    generator: WorkloadGenerator<'a>,
    limit: Option<usize>,
    yielded: usize,
}

impl<'a> LazySource<'a> {
    /// A source yielding at most `limit` transactions.
    pub fn bounded(generator: WorkloadGenerator<'a>, limit: usize) -> Self {
        LazySource {
            generator,
            limit: Some(limit),
            yielded: 0,
        }
    }

    /// An inexhaustible source (time-horizon and open-arrival phases).
    pub fn unbounded(generator: WorkloadGenerator<'a>) -> Self {
        LazySource {
            generator,
            limit: None,
            yielded: 0,
        }
    }
}

impl TransactionSource for LazySource<'_> {
    fn next_into(&mut self, out: &mut Transaction) -> bool {
        if let Some(limit) = self.limit {
            if self.yielded >= limit {
                return false;
            }
        }
        self.generator.next_transaction_into(out);
        self.yielded += 1;
        true
    }

    fn yielded(&self) -> usize {
        self.yielded
    }

    fn remaining(&self) -> Option<usize> {
        self.limit.map(|limit| limit - self.yielded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{DatabaseParams, WorkloadParams};
    use crate::ObjectBase;

    fn base() -> ObjectBase {
        ObjectBase::generate(&DatabaseParams::small(), 11)
    }

    fn empty() -> Transaction {
        Transaction::empty()
    }

    #[test]
    fn materialized_replays_in_order_then_exhausts() {
        let base = base();
        let mut generator = WorkloadGenerator::new(&base, WorkloadParams::small(), 3);
        let transactions: Vec<Transaction> = (0..5).map(|_| generator.next_transaction()).collect();
        let mut source = MaterializedSource::new(transactions.clone());
        assert_eq!(source.remaining(), Some(5));
        let mut buf = empty();
        for expected in &transactions {
            assert!(source.next_into(&mut buf));
            assert_eq!(buf.kind, expected.kind);
            assert_eq!(buf.root, expected.root);
            assert_eq!(buf.accesses, expected.accesses);
        }
        assert!(!source.next_into(&mut buf));
        assert_eq!(source.yielded(), 5);
        assert_eq!(source.remaining(), Some(0));
    }

    #[test]
    fn lazy_bounded_matches_materialized_and_stops() {
        let base = base();
        let mut generator = WorkloadGenerator::new(&base, WorkloadParams::small(), 7);
        let expected: Vec<Transaction> = (0..8).map(|_| generator.next_transaction()).collect();
        let generator = WorkloadGenerator::new(&base, WorkloadParams::small(), 7);
        let mut source = LazySource::bounded(generator, 8);
        let mut buf = empty();
        for t in &expected {
            assert!(source.next_into(&mut buf));
            assert_eq!(buf.accesses, t.accesses);
        }
        assert!(!source.next_into(&mut buf));
        assert_eq!(source.remaining(), Some(0));
    }

    #[test]
    fn lazy_buffer_reuse_does_not_leak_previous_accesses() {
        let base = base();
        let generator = WorkloadGenerator::new(&base, WorkloadParams::small(), 13);
        let mut source = LazySource::unbounded(generator);
        let mut buf = empty();
        let mut lengths = Vec::new();
        for _ in 0..20 {
            assert!(source.next_into(&mut buf));
            lengths.push(buf.accesses.len());
        }
        // Lengths vary across the four OCB patterns; the buffer must hold
        // exactly the current transaction each time.
        let mut oracle = WorkloadGenerator::new(&base, WorkloadParams::small(), 13);
        for len in lengths {
            assert_eq!(oracle.next_transaction().accesses.len(), len);
        }
        assert_eq!(source.remaining(), None);
    }
}
