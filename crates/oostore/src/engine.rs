//! The common storage-engine interface and workload driver.
//!
//! Both mini-engines (the Texas-like store and the O2-like page server)
//! execute OCB transactions access-by-access against their virtual disk;
//! this module gives the bench harness one interface to drive either and
//! measure the paper's headline metric — the **mean number of I/Os** per
//! workload.

use bufmgr::IoCounts;
use ocb::Transaction;

/// A storage engine executing OCB transactions.
pub trait StorageEngine {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// Executes one transaction (every access, in order).
    fn execute(&mut self, transaction: &Transaction);

    /// Disk I/O counters accumulated so far.
    fn io_counts(&self) -> IoCounts;

    /// Accumulated disk service time, in ms.
    fn elapsed_ms(&self) -> f64;

    /// Resets the I/O counters and service time.
    fn reset_counters(&mut self);

    /// Empties all volatile state (buffers / mapped memory): a cold
    /// restart, as between the paper's pre- and post-clustering runs.
    fn flush_memory(&mut self);
}

/// Result of running a workload against an engine.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadReport {
    /// Transactions executed.
    pub transactions: usize,
    /// Disk I/Os attributable to the workload.
    pub io: IoCounts,
    /// Disk service time attributable to the workload, in ms.
    pub elapsed_ms: f64,
}

impl WorkloadReport {
    /// Total I/Os (reads + writes).
    pub fn total_ios(&self) -> u64 {
        self.io.total()
    }
}

/// Runs `transactions` against `engine`, reporting the I/O delta.
pub fn run_workload<E: StorageEngine + ?Sized>(
    engine: &mut E,
    transactions: &[Transaction],
) -> WorkloadReport {
    let io_before = engine.io_counts();
    let ms_before = engine.elapsed_ms();
    for transaction in transactions {
        engine.execute(transaction);
    }
    WorkloadReport {
        transactions: transactions.len(),
        io: engine.io_counts().since(io_before),
        elapsed_ms: engine.elapsed_ms() - ms_before,
    }
}
