//! Integration tests of the two-phase-locking extension (§5's
//! "concurrency control" module).

use ocb::{DatabaseParams, ObjectBase, Selection, WorkloadGenerator, WorkloadParams};
use voodb::lockmgr::DeadlockPolicy;
use voodb::{ConcurrencyControl, Simulation, VoodbParams};

/// Wait-die two-phase locking (livelock-free under hot contention).
fn two_phase() -> ConcurrencyControl {
    ConcurrencyControl::TwoPhase {
        restart_backoff_ms: 5.0,
        deadlock: DeadlockPolicy::WaitDie,
    }
}

fn base() -> ObjectBase {
    ObjectBase::generate(&DatabaseParams::small(), 81)
}

/// A write-heavy, hot-rooted workload: maximal lock contention.
fn contended_transactions(base: &ObjectBase, n: usize, seed: u64) -> Vec<ocb::Transaction> {
    let params = WorkloadParams {
        hot_transactions: n,
        p_write: 0.5,
        root_dist: Selection::HotSet {
            fraction: 0.01,
            p_hot: 1.0,
        },
        ..WorkloadParams::default()
    };
    let mut generator = WorkloadGenerator::new(base, params, seed);
    (0..n).map(|_| generator.next_transaction()).collect()
}

fn run(
    base: &ObjectBase,
    concurrency: ConcurrencyControl,
    users: usize,
    txs: Vec<ocb::Transaction>,
    seed: u64,
) -> (voodb::PhaseResult, voodb::LockStats, u64) {
    let mut simulation = Simulation::new(
        base,
        VoodbParams {
            buffer_pages: 10_000,
            users,
            multiprogramming_level: users.max(1),
            concurrency,
            get_lock_ms: 0.0,
            release_lock_ms: 0.0,
            ..VoodbParams::default()
        },
        0.0,
        seed,
    );
    let result = simulation.run_phase(txs, 0);
    let stats = simulation.model().lock_stats();
    let aborts = simulation.model().aborts();
    (result, stats, aborts)
}

#[test]
fn single_user_two_phase_changes_nothing() {
    let base = base();
    let txs = contended_transactions(&base, 40, 1);
    let (timed, _, _) = run(&base, ConcurrencyControl::TimedOnly, 1, txs.clone(), 1);
    let (locked, stats, aborts) = run(&base, two_phase(), 1, txs, 1);
    // One user can never conflict with itself across transactions.
    assert_eq!(stats.waits, 0);
    assert_eq!(stats.deadlocks, 0);
    assert_eq!(aborts, 0);
    assert_eq!(timed.total_ios(), locked.total_ios());
    assert_eq!(timed.transactions, locked.transactions);
}

#[test]
fn contended_writers_wait_or_deadlock_but_all_commit() {
    let base = base();
    let txs = contended_transactions(&base, 60, 2);
    let n = txs.len();
    let (result, stats, aborts) = run(&base, two_phase(), 6, txs, 2);
    assert_eq!(result.transactions, n, "every transaction must commit");
    assert!(
        stats.waits > 0 || stats.deadlocks > 0,
        "hot write workload should contend: {stats:?}"
    );
    assert_eq!(stats.deadlocks, aborts, "every deadlock aborts its victim");
}

#[test]
fn contention_slows_response_times() {
    let base = base();
    let txs = contended_transactions(&base, 60, 3);
    let (timed, _, _) = run(&base, ConcurrencyControl::TimedOnly, 6, txs.clone(), 3);
    let (locked, stats, _) = run(&base, two_phase(), 6, txs, 3);
    if stats.waits > 0 {
        assert!(
            locked.mean_response_ms >= timed.mean_response_ms,
            "lock waits should not speed things up: {} vs {}",
            locked.mean_response_ms,
            timed.mean_response_ms
        );
    }
    assert_eq!(timed.transactions, locked.transactions);
}

#[test]
fn read_only_workload_never_conflicts() {
    let base = base();
    let params = WorkloadParams {
        hot_transactions: 50,
        p_write: 0.0,
        root_dist: Selection::HotSet {
            fraction: 0.01,
            p_hot: 1.0,
        },
        ..WorkloadParams::default()
    };
    let mut generator = WorkloadGenerator::new(&base, params, 4);
    let txs: Vec<_> = (0..50).map(|_| generator.next_transaction()).collect();
    let (result, stats, aborts) = run(&base, two_phase(), 6, txs, 4);
    assert_eq!(result.transactions, 50);
    assert_eq!(stats.waits, 0, "shared locks never conflict");
    assert_eq!(aborts, 0);
}

#[test]
fn two_phase_is_deterministic() {
    let base = base();
    let txs = contended_transactions(&base, 50, 5);
    let run_once = || run(&base, two_phase(), 4, txs.clone(), 5);
    let (a, sa, aa) = run_once();
    let (b, sb, ab) = run_once();
    assert_eq!(a.total_ios(), b.total_ios());
    assert_eq!(sa, sb);
    assert_eq!(aa, ab);
}

/// `run`'s result as the integers the pins below compare.
fn pinned(
    (result, stats, aborts): (voodb::PhaseResult, voodb::LockStats, u64),
) -> (usize, u64, u64, u64, u64, voodb::LockStats) {
    (
        result.transactions,
        result.io.reads,
        result.io.writes,
        result.mean_response_ms.to_bits(),
        aborts,
        stats,
    )
}

fn lock_stats(immediate_grants: u64, waits: u64, deadlocks: u64) -> voodb::LockStats {
    voodb::LockStats {
        immediate_grants,
        waits,
        deadlocks,
    }
}

// No scenario reaches two-phase locking, so these pins guard the lock
// manager's grant, wait and promotion order. Values recorded before the
// lock table moved to tid-sorted holder lists and integer-hashed maps.

#[test]
fn wait_die_contended_run_is_pinned() {
    let base = base();
    let txs = contended_transactions(&base, 60, 2);
    assert_eq!(
        pinned(run(&base, two_phase(), 6, txs, 2)),
        (
            60,
            145,
            0,
            0x40b4_7adb_c962_fc95,
            15_477,
            lock_stats(13_332, 473, 15_477)
        )
    );
}
