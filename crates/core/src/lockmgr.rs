//! Concurrency control: an object lock manager with real conflicts.
//!
//! §5 of the paper: "VOODB could even be extended to take into account
//! completely different aspects of performance in OODBs, like concurrency
//! control". The base model (faithful to the paper) charges only
//! GETLOCK/RELLOCK CPU time and limits concurrency through the scheduler's
//! multiprogramming level; this module is the named extension: two-phase
//! locking on objects with shared/exclusive modes, FIFO waiting, wait-die
//! deadlock prevention, and abort-and-restart.
//!
//! Lock compatibility is the classical matrix: S–S compatible, anything
//! with X conflicts. A transaction holding S alone on an object may
//! upgrade to X; otherwise the upgrade waits like any conflicting request.
//!
//! Deadlocks are prevented by [`DeadlockPolicy::WaitDie`], timestamp
//! ordering: an older requester waits, a younger one dies. It is
//! deadlock-free by construction (wait edges only point old → young) and
//! livelock-free (the oldest transaction never dies, so it always
//! completes and global progress follows), provided a restarted victim
//! keeps its original timestamp, which the model guarantees by reusing
//! the transaction id.
//!
//! Replay determinism rests on three orders. An object's holders are a
//! tid-sorted list, so the wait-die scan walks them by ascending tid.
//! Waiters queue FIFO. A transaction's held objects are kept in grant
//! order and sorted when it releases them, so queued waiters are
//! promoted object by object in ascending oid order.
//! The maps keyed by oid or tid are only point-looked-up; they hash the
//! integer key with one multiplication instead of SipHash.

use ocb::Oid;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Transaction identifier (matches the model's `Tid`).
pub type Tid = usize;

/// Lock modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (readers).
    Shared,
    /// Exclusive (writers).
    Exclusive,
}

impl LockMode {
    fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

/// Deadlock-handling policies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DeadlockPolicy {
    /// Wait-die timestamp ordering (livelock-free).
    #[default]
    WaitDie,
}

/// Outcome of a lock request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is held; proceed.
    Granted,
    /// The request conflicts; the transaction must park until resumed.
    Queued,
    /// Waiting could deadlock; the requester must abort.
    Deadlock,
}

/// Hashes one integer key with a multiplication (Fibonacci hashing):
/// oids and tids are the program's own dense integers, and the maps
/// keyed by them are only point-looked-up, never iterated.
#[derive(Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

type IntHash = BuildHasherDefault<IntHasher>;

/// One object's lock state.
#[derive(Debug, Default)]
struct ObjectLock {
    /// Current holders and their modes (multiple ⇒ all Shared), sorted by
    /// tid: the wait-die scan walks holders in that order.
    holders: Vec<(Tid, LockMode)>,
    /// FIFO wait queue.
    waiters: VecDeque<(Tid, LockMode)>,
}

impl ObjectLock {
    /// `tid`'s position in `holders`, or where it would be inserted.
    fn find(&self, tid: Tid) -> Result<usize, usize> {
        self.holders
            .binary_search_by_key(&tid, |&(holder, _)| holder)
    }

    fn mode_of(&self, tid: Tid) -> Option<LockMode> {
        self.find(tid).ok().map(|at| self.holders[at].1)
    }

    /// Grants `mode` to `tid`: a new holder, or an upgrade of its entry.
    /// Returns whether `tid` is a new holder.
    fn grant(&mut self, tid: Tid, mode: LockMode) -> bool {
        match self.find(tid) {
            Ok(at) => {
                self.holders[at].1 = mode;
                false
            }
            Err(at) => {
                self.holders.insert(at, (tid, mode));
                true
            }
        }
    }

    fn compatible_with_holders(&self, mode: LockMode) -> bool {
        self.holders.iter().all(|&(_, held)| held.compatible(mode))
    }

    fn holder_tids(&self) -> impl Iterator<Item = Tid> + '_ {
        self.holders.iter().map(|&(holder, _)| holder)
    }
}

/// Accounting counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Requests granted immediately.
    pub immediate_grants: u64,
    /// Requests that had to wait.
    pub waits: u64,
    /// Wait-die deaths (= aborts demanded).
    pub deadlocks: u64,
}

/// The lock manager.
#[derive(Debug, Default)]
pub struct LockManager {
    objects: HashMap<Oid, ObjectLock, IntHash>,
    /// Objects held per transaction, in grant order (an upgrade adds
    /// nothing). Release sorts them, so waiters are promoted in oid order.
    held: HashMap<Tid, Vec<Oid>, IntHash>,
    /// The object each parked transaction is waiting on.
    waiting_on: HashMap<Tid, Oid, IntHash>,
    stats: LockStats,
}

impl LockManager {
    /// An empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accounting counters.
    pub fn stats(&self) -> LockStats {
        self.stats
    }

    /// Number of objects a transaction currently holds.
    #[cfg(test)]
    pub fn held_count(&self, tid: Tid) -> usize {
        self.held.get(&tid).map_or(0, Vec::len)
    }

    /// Is the transaction parked on a lock?
    #[cfg(test)]
    pub fn is_waiting(&self, tid: Tid) -> bool {
        self.waiting_on.contains_key(&tid)
    }

    /// Requests `mode` on `oid` for `tid` under the given deadlock policy.
    ///
    /// `tid` doubles as the wait-die timestamp: smaller ids are older
    /// (the model allocates ids monotonically and restarts keep their id).
    pub fn request(
        &mut self,
        tid: Tid,
        oid: Oid,
        mode: LockMode,
        policy: DeadlockPolicy,
    ) -> LockOutcome {
        let lock = self.objects.entry(oid).or_default();
        // Re-entrant / upgrade handling.
        if let Some(held_mode) = lock.mode_of(tid) {
            if held_mode == LockMode::Exclusive || mode == LockMode::Shared {
                self.stats.immediate_grants += 1;
                return LockOutcome::Granted; // Already sufficient.
            }
            // S → X upgrade: immediate if sole holder.
            if lock.holders.len() == 1 {
                lock.grant(tid, LockMode::Exclusive);
                self.stats.immediate_grants += 1;
                return LockOutcome::Granted;
            }
            // Conflicting upgrade: falls through to the wait path.
        } else if lock.compatible_with_holders(mode) && lock.waiters.is_empty() {
            // Fairness: don't jump over queued waiters.
            lock.grant(tid, mode);
            self.held.entry(tid).or_default().push(oid);
            self.stats.immediate_grants += 1;
            return LockOutcome::Granted;
        }
        // Must wait — unless the policy says abort.
        let must_abort = match policy {
            DeadlockPolicy::WaitDie => {
                // Die if younger than ANY transaction in the blocker set
                // (holders and queued waiters other than ourselves): wait
                // edges then only run old → young, so no cycle can form.
                let lock = self.objects.get(&oid).expect("entry created above");
                lock.holder_tids()
                    .chain(lock.waiters.iter().map(|&(w, _)| w))
                    .any(|other| other != tid && other < tid)
            }
        };
        if must_abort {
            self.stats.deadlocks += 1;
            return LockOutcome::Deadlock;
        }
        let lock = self.objects.entry(oid).or_default();
        lock.waiters.push_back((tid, mode));
        self.waiting_on.insert(tid, oid);
        self.stats.waits += 1;
        LockOutcome::Queued
    }

    /// Grants as many queued waiters of `oid` as compatibility allows,
    /// appending the transactions to resume to `resumed`.
    fn promote(&mut self, oid: Oid, resumed: &mut Vec<Tid>) {
        let Some(lock) = self.objects.get_mut(&oid) else {
            return;
        };
        while let Some(&(tid, mode)) = lock.waiters.front() {
            let upgrade =
                lock.mode_of(tid) == Some(LockMode::Shared) && mode == LockMode::Exclusive;
            let compatible = if upgrade {
                lock.holders.len() == 1
            } else {
                lock.compatible_with_holders(mode)
            };
            if !compatible {
                break;
            }
            lock.waiters.pop_front();
            if lock.grant(tid, mode) {
                self.held.entry(tid).or_default().push(oid);
            }
            self.waiting_on.remove(&tid);
            resumed.push(tid);
        }
        if lock.holders.is_empty() && lock.waiters.is_empty() {
            self.objects.remove(&oid);
        }
    }

    /// Releases everything `tid` holds (commit or abort) and removes any
    /// pending wait. Returns the transactions whose locks became grantable
    /// (they must be resumed by the caller).
    pub fn release_all(&mut self, tid: Tid) -> Vec<Tid> {
        // Remove a pending wait first (abort path).
        if let Some(oid) = self.waiting_on.remove(&tid) {
            if let Some(lock) = self.objects.get_mut(&oid) {
                lock.waiters.retain(|&(w, _)| w != tid);
            }
        }
        let mut resumed = Vec::new();
        let mut touched = self.held.remove(&tid).unwrap_or_default();
        touched.sort_unstable();
        for oid in touched {
            if let Some(lock) = self.objects.get_mut(&oid) {
                if let Ok(at) = lock.find(tid) {
                    lock.holders.remove(at);
                }
                if lock.holders.is_empty() && lock.waiters.is_empty() {
                    self.objects.remove(&oid);
                    continue;
                }
            }
            self.promote(oid, &mut resumed);
        }
        resumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Wait-die lets a requester wait only when it is older (smaller tid)
    // than every holder and queued waiter, so the tests below queue
    // waiters in descending tid order.
    fn request(lm: &mut LockManager, tid: Tid, oid: Oid, mode: LockMode) -> LockOutcome {
        lm.request(tid, oid, mode, DeadlockPolicy::WaitDie)
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(
            request(&mut lm, 1, 10, LockMode::Shared),
            LockOutcome::Granted
        );
        assert_eq!(
            request(&mut lm, 2, 10, LockMode::Shared),
            LockOutcome::Granted
        );
        assert_eq!(lm.held_count(1), 1);
        assert_eq!(lm.held_count(2), 1);
        assert_eq!(lm.stats().waits, 0);
    }

    #[test]
    fn exclusive_conflicts_queue_fifo() {
        let mut lm = LockManager::new();
        assert_eq!(
            request(&mut lm, 3, 10, LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert_eq!(
            request(&mut lm, 2, 10, LockMode::Shared),
            LockOutcome::Queued
        );
        assert_eq!(
            request(&mut lm, 1, 10, LockMode::Shared),
            LockOutcome::Queued
        );
        assert!(lm.is_waiting(2));
        // Release: both shared waiters resume together, in queue order.
        let resumed = lm.release_all(3);
        assert_eq!(resumed, vec![2, 1]);
        assert!(!lm.is_waiting(2));
        assert_eq!(lm.held_count(2), 1);
        assert_eq!(lm.held_count(1), 1);
    }

    #[test]
    fn writer_behind_readers_waits_and_blocks_later_readers() {
        let mut lm = LockManager::new();
        assert_eq!(
            request(&mut lm, 3, 5, LockMode::Shared),
            LockOutcome::Granted
        );
        assert_eq!(
            request(&mut lm, 2, 5, LockMode::Exclusive),
            LockOutcome::Queued
        );
        // Fairness: a later reader must not starve the queued writer.
        assert_eq!(
            request(&mut lm, 1, 5, LockMode::Shared),
            LockOutcome::Queued
        );
        let resumed = lm.release_all(3);
        assert_eq!(resumed, vec![2], "writer first (FIFO)");
        let resumed = lm.release_all(2);
        assert_eq!(resumed, vec![1]);
    }

    #[test]
    fn reentrant_and_upgrade() {
        let mut lm = LockManager::new();
        assert_eq!(
            request(&mut lm, 1, 7, LockMode::Shared),
            LockOutcome::Granted
        );
        // Re-request is free.
        assert_eq!(
            request(&mut lm, 1, 7, LockMode::Shared),
            LockOutcome::Granted
        );
        // Sole-holder upgrade succeeds immediately.
        assert_eq!(
            request(&mut lm, 1, 7, LockMode::Exclusive),
            LockOutcome::Granted
        );
        // X subsumes S.
        assert_eq!(
            request(&mut lm, 1, 7, LockMode::Shared),
            LockOutcome::Granted
        );
        assert_eq!(lm.held_count(1), 1);
    }

    #[test]
    fn upgrade_deadlock_between_two_readers() {
        let mut lm = LockManager::new();
        assert_eq!(
            request(&mut lm, 1, 4, LockMode::Shared),
            LockOutcome::Granted
        );
        assert_eq!(
            request(&mut lm, 2, 4, LockMode::Shared),
            LockOutcome::Granted
        );
        // Both try to upgrade: the older queues, the younger dies.
        assert_eq!(
            request(&mut lm, 1, 4, LockMode::Exclusive),
            LockOutcome::Queued
        );
        assert_eq!(
            request(&mut lm, 2, 4, LockMode::Exclusive),
            LockOutcome::Deadlock
        );
        assert_eq!(lm.stats().deadlocks, 1);
        // Victim 2 aborts → 1's upgrade proceeds.
        let resumed = lm.release_all(2);
        assert_eq!(resumed, vec![1]);
    }

    #[test]
    fn abort_removes_pending_wait() {
        let mut lm = LockManager::new();
        assert_eq!(
            request(&mut lm, 2, 9, LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert_eq!(
            request(&mut lm, 1, 9, LockMode::Exclusive),
            LockOutcome::Queued
        );
        // 1 aborts while waiting.
        let resumed = lm.release_all(1);
        assert!(resumed.is_empty());
        assert!(!lm.is_waiting(1));
        // 2's release wakes nobody (queue empty).
        assert!(lm.release_all(2).is_empty());
    }

    #[test]
    fn wait_die_older_waits_younger_dies() {
        let mut lm = LockManager::new();
        // tid 5 (younger) holds X; tid 2 (older) waits.
        assert_eq!(
            lm.request(5, 10, LockMode::Exclusive, DeadlockPolicy::WaitDie),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.request(2, 10, LockMode::Exclusive, DeadlockPolicy::WaitDie),
            LockOutcome::Queued,
            "older transactions wait"
        );
        // tid 9 (youngest) must die: it is younger than holder 5 (and
        // than queued 2).
        assert_eq!(
            lm.request(9, 10, LockMode::Exclusive, DeadlockPolicy::WaitDie),
            LockOutcome::Deadlock,
            "younger transactions die"
        );
        // The oldest eventually proceeds.
        let resumed = lm.release_all(5);
        assert_eq!(resumed, vec![2]);
    }

    #[test]
    fn wait_die_cannot_deadlock() {
        // The classic two-transaction deadlock: under wait-die one side
        // dies instead of closing the cycle.
        let mut lm = LockManager::new();
        assert_eq!(
            lm.request(1, 100, LockMode::Exclusive, DeadlockPolicy::WaitDie),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.request(2, 200, LockMode::Exclusive, DeadlockPolicy::WaitDie),
            LockOutcome::Granted
        );
        // Older tx 1 waits on 200 (held by younger 2).
        assert_eq!(
            lm.request(1, 200, LockMode::Exclusive, DeadlockPolicy::WaitDie),
            LockOutcome::Queued
        );
        // Younger tx 2 requesting 100 (held by older 1) dies immediately —
        // no cycle ever forms.
        assert_eq!(
            lm.request(2, 100, LockMode::Exclusive, DeadlockPolicy::WaitDie),
            LockOutcome::Deadlock
        );
    }

    #[test]
    fn release_is_idempotent_for_unknown_tids() {
        let mut lm = LockManager::new();
        assert!(lm.release_all(99).is_empty());
    }
}
