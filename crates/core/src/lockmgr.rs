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
//!
//! The tables are pooled and index-addressed, so after warm-up a grant or
//! a release hashes no oid and allocates nothing but the list of
//! transactions to resume, when there are any:
//!
//! * a dense `oid → record` index (4 bytes per object, grown on demand,
//!   like `bufmgr::BufferPool`'s residency table);
//! * a pool of object-lock records: a record returns to the free list
//!   when its object has neither holders nor waiters, and keeps the
//!   capacity of its `holders` and `waiters` for the next object;
//! * per-transaction held lists, taken from a spare pool at a
//!   transaction's first grant and returned, emptied, at its release.
//!
//! Only the tid-keyed maps hash (the held list's owner and the object a
//! parked transaction waits on), with one multiplication instead of
//! SipHash.

use ocb::{IntHash, Oid};
use std::collections::{HashMap, VecDeque};

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

    /// Neither held nor waited on: the record can serve another object.
    fn is_free(&self) -> bool {
        self.holders.is_empty() && self.waiters.is_empty()
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

/// `LockManager::index` entry of an object nobody holds or waits on.
const UNLOCKED: u32 = u32::MAX;

/// The lock manager.
#[derive(Debug, Default)]
pub struct LockManager {
    /// Record of each locked object, by oid ([`UNLOCKED`] when free).
    index: Vec<u32>,
    /// Object-lock records, in use or free.
    records: Vec<ObjectLock>,
    /// Free records: empty, with their capacity kept.
    free_records: Vec<u32>,
    /// Objects held per transaction, in grant order (an upgrade adds
    /// nothing). Release sorts them, so waiters are promoted in oid order.
    held: HashMap<Tid, Vec<Oid>, IntHash>,
    /// Empty held lists, kept for the next transactions' first grants.
    spare_lists: Vec<Vec<Oid>>,
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

    /// The record index of `oid`, or `None` when nobody holds or waits
    /// on it.
    fn record_of(&self, oid: Oid) -> Option<usize> {
        match self.index.get(oid as usize) {
            Some(&at) if at != UNLOCKED => Some(at as usize),
            _ => None,
        }
    }

    /// Assigns a free (or new) record to the unlocked `oid`.
    fn lock_record(&mut self, oid: Oid) -> usize {
        let at = self.free_records.pop().unwrap_or_else(|| {
            self.records.push(ObjectLock::default());
            (self.records.len() - 1) as u32
        });
        let slot = oid as usize;
        if slot >= self.index.len() {
            self.index.resize(slot + 1, UNLOCKED);
        }
        self.index[slot] = at;
        at as usize
    }

    /// Returns `oid`'s record, now empty, to the free list.
    fn unlock_record(&mut self, oid: Oid, at: usize) {
        self.index[oid as usize] = UNLOCKED;
        self.free_records.push(at as u32);
    }

    /// Appends `oid` to `tid`'s held list, taking a spare list at the
    /// transaction's first grant.
    fn note_held(&mut self, tid: Tid, oid: Oid) {
        let spare = &mut self.spare_lists;
        self.held
            .entry(tid)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push(oid);
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
        let Some(at) = self.record_of(oid) else {
            // Nobody holds or waits on the object: grant at once.
            let at = self.lock_record(oid);
            self.records[at].holders.push((tid, mode));
            self.note_held(tid, oid);
            self.stats.immediate_grants += 1;
            return LockOutcome::Granted;
        };
        let lock = &mut self.records[at];
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
            self.note_held(tid, oid);
            self.stats.immediate_grants += 1;
            return LockOutcome::Granted;
        }
        // Must wait — unless the policy says abort.
        let must_abort = match policy {
            DeadlockPolicy::WaitDie => {
                // Die if younger than ANY transaction in the blocker set
                // (holders and queued waiters other than ourselves): wait
                // edges then only run old → young, so no cycle can form.
                lock.holder_tids()
                    .chain(lock.waiters.iter().map(|&(w, _)| w))
                    .any(|other| other != tid && other < tid)
            }
        };
        if must_abort {
            self.stats.deadlocks += 1;
            return LockOutcome::Deadlock;
        }
        lock.waiters.push_back((tid, mode));
        self.waiting_on.insert(tid, oid);
        self.stats.waits += 1;
        LockOutcome::Queued
    }

    /// Grants as many queued waiters of `oid` (record `at`) as
    /// compatibility allows, appending the transactions to resume to
    /// `resumed`, and frees the record once the object is unlocked.
    fn promote(&mut self, oid: Oid, at: usize, resumed: &mut Vec<Tid>) {
        while let Some(&(tid, mode)) = self.records[at].waiters.front() {
            let lock = &mut self.records[at];
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
                self.note_held(tid, oid);
            }
            self.waiting_on.remove(&tid);
            resumed.push(tid);
        }
        if self.records[at].is_free() {
            self.unlock_record(oid, at);
        }
    }

    /// Releases everything `tid` holds (commit or abort) and removes any
    /// pending wait. Returns the transactions whose locks became grantable
    /// (they must be resumed by the caller).
    pub fn release_all(&mut self, tid: Tid) -> Vec<Tid> {
        // Remove a pending wait first (abort path).
        if let Some(oid) = self.waiting_on.remove(&tid) {
            if let Some(at) = self.record_of(oid) {
                self.records[at].waiters.retain(|&(w, _)| w != tid);
            }
        }
        let mut resumed = Vec::new();
        let Some(mut touched) = self.held.remove(&tid) else {
            return resumed;
        };
        touched.sort_unstable();
        for &oid in &touched {
            let Some(at) = self.record_of(oid) else {
                continue;
            };
            let lock = &mut self.records[at];
            if let Ok(slot) = lock.find(tid) {
                lock.holders.remove(slot);
            }
            self.promote(oid, at, &mut resumed);
        }
        touched.clear();
        self.spare_lists.push(touched);
        resumed
    }
}

/// The hash-table lock manager the pooled tables replaced: the same
/// per-object logic, with each table a map. Kept as the differential
/// oracle of `tests::pooled_tables_match_the_hash_table_oracle`.
#[cfg(test)]
mod oracle {
    use super::{DeadlockPolicy, LockMode, LockOutcome, LockStats, ObjectLock, Tid};
    use ocb::{IntHash, Oid};
    use std::collections::HashMap;

    #[derive(Debug, Default)]
    pub struct HashLockManager {
        objects: HashMap<Oid, ObjectLock, IntHash>,
        held: HashMap<Tid, Vec<Oid>, IntHash>,
        waiting_on: HashMap<Tid, Oid, IntHash>,
        stats: LockStats,
    }

    impl HashLockManager {
        pub fn stats(&self) -> LockStats {
            self.stats
        }

        pub fn held_count(&self, tid: Tid) -> usize {
            self.held.get(&tid).map_or(0, Vec::len)
        }

        pub fn is_waiting(&self, tid: Tid) -> bool {
            self.waiting_on.contains_key(&tid)
        }

        pub fn request(
            &mut self,
            tid: Tid,
            oid: Oid,
            mode: LockMode,
            policy: DeadlockPolicy,
        ) -> LockOutcome {
            let lock = self.objects.entry(oid).or_default();
            if let Some(held_mode) = lock.mode_of(tid) {
                if held_mode == LockMode::Exclusive || mode == LockMode::Shared {
                    self.stats.immediate_grants += 1;
                    return LockOutcome::Granted;
                }
                if lock.holders.len() == 1 {
                    lock.grant(tid, LockMode::Exclusive);
                    self.stats.immediate_grants += 1;
                    return LockOutcome::Granted;
                }
            } else if lock.compatible_with_holders(mode) && lock.waiters.is_empty() {
                lock.grant(tid, mode);
                self.held.entry(tid).or_default().push(oid);
                self.stats.immediate_grants += 1;
                return LockOutcome::Granted;
            }
            let must_abort = match policy {
                DeadlockPolicy::WaitDie => {
                    let lock = &self.objects[&oid];
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
            if lock.is_free() {
                self.objects.remove(&oid);
            }
        }

        pub fn release_all(&mut self, tid: Tid) -> Vec<Tid> {
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
                    if lock.is_free() {
                        self.objects.remove(&oid);
                        continue;
                    }
                }
                self.promote(oid, &mut resumed);
            }
            resumed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// Mirrors every call on the pooled manager and the hash-table oracle
    /// and compares what each returns and reports.
    struct Twin {
        pooled: LockManager,
        oracle: oracle::HashLockManager,
    }

    impl Twin {
        fn release_all(&mut self, tid: Tid) -> Result<(), TestCaseError> {
            prop_assert_eq!(self.pooled.release_all(tid), self.oracle.release_all(tid));
            Ok(())
        }

        fn request(&mut self, tid: Tid, oid: Oid, mode: LockMode) -> Result<(), TestCaseError> {
            let outcome = request(&mut self.pooled, tid, oid, mode);
            prop_assert_eq!(
                outcome,
                self.oracle.request(tid, oid, mode, DeadlockPolicy::WaitDie)
            );
            if outcome == LockOutcome::Deadlock {
                // The victim aborts at once, as in the model.
                self.release_all(tid)?;
            }
            Ok(())
        }

        fn agree(&self, tids: usize) -> Result<(), TestCaseError> {
            prop_assert_eq!(self.pooled.stats(), self.oracle.stats());
            for tid in 0..tids {
                prop_assert_eq!(self.pooled.is_waiting(tid), self.oracle.is_waiting(tid));
                prop_assert_eq!(self.pooled.held_count(tid), self.oracle.held_count(tid));
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random streams over up to 12 transactions and 40 objects: both
        /// modes, re-requests and upgrades, commits, and aborts while
        /// parked. A transaction's id is reused after its release, as a
        /// restarted victim reuses its own.
        #[test]
        fn pooled_tables_match_the_hash_table_oracle(
            tids in 1..=12usize,
            objects in 1..=40u32,
            steps in prop::collection::vec((0..12usize, 0..40u32, 0..8u8), 1..240),
        ) {
            let mut twin = Twin {
                pooled: LockManager::new(),
                oracle: oracle::HashLockManager::default(),
            };
            for (tid, oid, kind) in steps {
                let (tid, oid) = (tid % tids, oid % objects);
                // A parked transaction requests nothing until it is
                // resumed; its only move is an abort.
                if kind >= 6 || twin.oracle.is_waiting(tid) {
                    twin.release_all(tid)?;
                } else if kind >= 4 {
                    twin.request(tid, oid, LockMode::Exclusive)?;
                } else {
                    twin.request(tid, oid, LockMode::Shared)?;
                }
                twin.agree(tids)?;
            }
        }
    }

    /// The length of every pool and index, the capacity of the tid maps,
    /// and the capacity of every recycled record and spare held list.
    fn footprint(lm: &LockManager) -> (Vec<usize>, Vec<(usize, usize)>, Vec<usize>) {
        (
            vec![
                lm.index.len(),
                lm.records.len(),
                lm.free_records.len(),
                lm.spare_lists.len(),
                lm.held.capacity(),
                lm.waiting_on.capacity(),
            ],
            lm.records
                .iter()
                .map(|r| (r.holders.capacity(), r.waiters.capacity()))
                .collect(),
            lm.spare_lists.iter().map(Vec::capacity).collect(),
        )
    }

    /// One contended round of four transactions on fresh ids (serials
    /// are monotone): shared holders, two parked waiters, a blocked
    /// upgrade, a wait-die death and its restart.
    fn contended_round(lm: &mut LockManager, round: usize) {
        use LockMode::{Exclusive as X, Shared as S};
        use LockOutcome::{Deadlock, Granted, Queued};
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| 4 * round + i);
        fn expect(lm: &mut LockManager, steps: &[(Tid, Oid, LockMode, LockOutcome)]) {
            for &(tid, oid, mode, outcome) in steps {
                assert_eq!(request(lm, tid, oid, mode), outcome, "{tid} on {oid}");
            }
        }
        let reads: Vec<_> = (100..140).map(|oid| (d, oid, S, Granted)).collect();
        expect(lm, &reads);
        expect(
            lm,
            &[
                (d, 1, X, Granted),
                (d, 2, S, Granted),
                (c, 2, S, Granted),
                (c, 3, S, Granted),
                (d, 3, S, Granted),
                (b, 1, X, Queued),
                (a, 1, S, Queued),
                (c, 2, X, Queued),
                (d, 3, X, Deadlock),
            ],
        );
        assert_eq!(lm.release_all(d), [b, c]);
        assert_eq!(lm.release_all(c), []);
        assert_eq!(lm.release_all(b), [a]);
        assert_eq!(lm.release_all(a), []);
        // d restarts with its own id and commits.
        let writes: Vec<_> = (100..140).rev().map(|oid| (d, oid, X, Granted)).collect();
        expect(lm, &writes);
        assert_eq!(lm.release_all(d), []);
    }

    #[test]
    fn steady_state_allocates_nothing() {
        let mut lm = LockManager::new();
        let warm_up = 4;
        for round in 0..warm_up {
            contended_round(&mut lm, round);
        }
        let warm = footprint(&lm);
        assert_eq!(warm.0[1], warm.0[2], "every record is free between rounds");
        for round in warm_up..11 * warm_up {
            contended_round(&mut lm, round);
            assert_eq!(footprint(&lm), warm, "round {round}");
        }
        assert!(lm.held.is_empty() && lm.waiting_on.is_empty());
    }
}
