//! The transaction slab: preallocated, recycled per-transaction state.
//!
//! DESP-C++ kept its simulation resources preallocated rather than
//! allocating per event; the evaluation model does the same for its
//! per-transaction bookkeeping. A `TxSlab` owns every `ActiveTx`
//! slot; a transaction's identity **during its lifetime** is its slot
//! index (the model's `Tid`), and slots are recycled through a free list
//! when transactions commit. All the slot's buffers — the access vector
//! the workload source fills, the first-touch flags — keep their capacity
//! across reuse, so a streamed phase performs no steady-state allocation
//! and holds O(in-flight) = O(MPL + admission queue) transaction state
//! no matter how many transactions it executes (`TxSlab::high_water`
//! records the peak, asserted by tests and by the end-to-end benchmark's
//! `users_1m` output check: peak ≤ MPL).
//!
//! Because slot indices are recycled, everything that needs a *monotone*
//! transaction identity uses `ActiveTx::serial` instead: trace spans
//! (so a recycled slot never merges two transactions' spans) and the
//! lock manager (whose wait-die policy orders transactions by age;
//! restarts keep their serial, preserving its livelock-freedom
//! argument).
//!
//! GETLOCK CPU time is charged when a transaction first touches an
//! object (Table 3). Which accesses are first touches is fixed by the
//! access vector alone, so `TxSlab::commit` marks them once, through
//! one epoch-stamped table indexed by oid that every slot shares; an
//! access then reads its flag by position. That is exact under
//! restarts: an access's lock is taken only after every earlier access
//! of the pass was granted, and a restart replays the pass from the top.
//!
//! On traced runs a slot also carries its transaction's `TraceMarks`:
//! one stage-start mark and the per-stage totals, an array indexed by
//! `desp::SpanStage` that the commit hands to the probe whole.

// Transaction-slab hot path: touched on every lifecycle step of every
// transaction. No unwrap/expect/panic (the `hot-panic` rule).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::lockmgr::Tid as LockTid;
use desp::{SimTime, SpanStage};
use ocb::Transaction;

/// Slot index of a live transaction (recycled across transactions).
pub type Tid = usize;

/// Model-side trace accumulation: per-stage running totals, indexed by
/// `desp::SpanStage`, that the model reports in one hook call at commit
/// (`Context::emit_span_stages`) instead of a raw point stream along the
/// way — one probe call per transaction rather than two or three per
/// access. Written only on traced runs (`Context::tracing()` guards every
/// store), so untraced runs never touch these fields.
///
/// A transaction is in at most one timed stage at a time (a lock wait,
/// a CPU hold, a disk or network wait or service: each pipeline step
/// starts after the previous one ended), so one mark serves them all:
/// [`TraceMarks::start`] stamps it and [`TraceMarks::lap`] adds
/// `now − mark` to a stage, in chronological order.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TraceMarks {
    /// Instant the timed stage in progress started (a lock request is
    /// stamped only when it waits: a lock granted at request time waits
    /// nothing).
    mark_ms: f64,
    /// Total time per stage.
    pub stages: [f64; SpanStage::COUNT],
    /// Object accesses completed by passes a restart abandoned; the
    /// commit adds the last pass's. The total *includes* work redone
    /// after a restart (restarts re-execute from the top and recount).
    pub accesses: u64,
}

impl TraceMarks {
    /// Starts a timed stage at `now_ms`.
    #[inline]
    pub fn start(&mut self, now_ms: f64) {
        self.mark_ms = now_ms;
    }

    /// Ends `stage` at `now_ms`, adding its duration to the stage's
    /// total; the next stage starts there.
    #[inline]
    pub fn lap(&mut self, stage: SpanStage, now_ms: f64) {
        self.stages[stage as usize] += now_ms - self.mark_ms;
        self.mark_ms = now_ms;
    }
}

/// Per-transaction execution state, held in a recycled slab slot.
pub(crate) struct ActiveTx {
    /// Slot occupancy (false ⇒ every other field is stale).
    pub in_use: bool,
    /// Monotone submission serial: the trace-span identity and the lock
    /// manager's wait-die timestamp.
    pub serial: LockTid,
    /// The transaction being executed (accesses in execution order); the
    /// buffer the workload source fills, recycled across transactions.
    pub tx: Transaction,
    /// Index of the current access within `tx.accesses`.
    pub pos: usize,
    /// `first[i]`: access `i` is the first of the transaction to touch
    /// its object (set by [`TxSlab::commit`]; positional, so a restart
    /// replays it unchanged).
    first: Vec<bool>,
    /// Locks taken in the current pass: the first touches among the
    /// accesses granted so far (at commit, the distinct objects).
    pub lock_count: usize,
    /// Submitting user (closed workloads; [`crate::model::OPEN_USER`]
    /// for open arrivals).
    pub user: usize,
    /// Submission instant.
    pub submitted: SimTime,
    /// Whether the transaction belongs to the measured window (count
    /// mode; horizon mode decides at commit time).
    pub measured: bool,
    /// Server site of the I/O batch between its disk request and its
    /// completion (`None` otherwise).
    pub pending_io: Option<usize>,
    /// The current access's write-backs, then its reads: the batch the
    /// disk grant services. Reused across accesses and occupants.
    pub io_writes: Vec<u32>,
    /// See `io_writes`.
    pub io_reads: Vec<u32>,
    /// Bytes awaiting the network grant.
    pub pending_net: u64,
    /// Holds the CPU resource (released on commit if still held).
    pub holding_cpu: bool,
    /// Trace-stage marks (written only on traced runs).
    pub marks: TraceMarks,
}

impl ActiveTx {
    fn empty() -> Self {
        ActiveTx {
            in_use: false,
            serial: 0,
            tx: Transaction::empty(),
            pos: 0,
            first: Vec::new(),
            lock_count: 0,
            user: 0,
            submitted: SimTime::ZERO,
            measured: false,
            pending_io: None,
            io_writes: Vec::new(),
            io_reads: Vec::new(),
            pending_net: 0,
            holding_cpu: false,
            marks: TraceMarks::default(),
        }
    }

    /// The current access.
    #[inline]
    pub fn current(&self) -> &ocb::Access {
        &self.tx.accesses[self.pos]
    }

    /// Records the current access's lock; true iff it is the first
    /// touch of its object (GETLOCK time is charged).
    #[inline]
    pub fn lock(&mut self) -> bool {
        let first = self.first[self.pos];
        self.lock_count += usize::from(first);
        first
    }
}

/// The slab: slots plus a free list.
pub(crate) struct TxSlab {
    slots: Vec<ActiveTx>,
    free: Vec<Tid>,
    live: usize,
    high_water: usize,
    /// Epoch-stamped touch marks (`touched[oid] == epoch` ⇔ the
    /// transaction being committed touched `oid` earlier); grown to the
    /// largest oid seen, 4 bytes per object.
    touched: Vec<u32>,
    epoch: u32,
}

impl TxSlab {
    pub fn new() -> Self {
        TxSlab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            high_water: 0,
            touched: Vec::new(),
            epoch: 0,
        }
    }

    /// Live transactions.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Peak simultaneous live transactions since the last [`Self::reset`].
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Slots ever allocated (the memory footprint in units of slots).
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Releases every slot and clears the peak (slot storage is kept).
    pub fn reset(&mut self) {
        self.free.clear();
        for (index, slot) in self.slots.iter_mut().enumerate().rev() {
            slot.in_use = false;
            self.free.push(index);
        }
        self.live = 0;
        self.high_water = 0;
    }

    /// Hands out a cleared slot (not yet live — follow with
    /// [`Self::commit`] or [`Self::abandon`]). The slot's buffers keep
    /// their capacity from previous occupants.
    pub fn acquire(&mut self) -> Tid {
        match self.free.pop() {
            Some(tid) => tid,
            None => {
                self.slots.push(ActiveTx::empty());
                self.slots.len() - 1
            }
        }
    }

    /// The transaction buffer of an acquired slot (for the source to
    /// fill). Split off from `&mut self`-wide access so the caller can
    /// hold its workload source mutably at the same time.
    #[inline]
    pub fn tx_buf_mut(&mut self, tid: Tid) -> &mut Transaction {
        &mut self.slots[tid].tx
    }

    /// Marks an acquired slot live, and its accesses that first touch
    /// their object.
    pub fn commit(
        &mut self,
        tid: Tid,
        serial: LockTid,
        user: usize,
        submitted: SimTime,
        measured: bool,
    ) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.touched.fill(0);
            self.epoch = 1;
        }
        let slot = &mut self.slots[tid];
        debug_assert!(!slot.in_use, "slot double-commit");
        slot.first.clear();
        for access in &slot.tx.accesses {
            let oid = access.oid as usize;
            if oid >= self.touched.len() {
                self.touched.resize(oid + 1, 0);
            }
            let stamp = &mut self.touched[oid];
            slot.first.push(*stamp != self.epoch);
            *stamp = self.epoch;
        }
        slot.in_use = true;
        slot.serial = serial;
        slot.pos = 0;
        slot.lock_count = 0;
        slot.user = user;
        slot.submitted = submitted;
        slot.measured = measured;
        slot.pending_io = None;
        slot.pending_net = 0;
        slot.holding_cpu = false;
        slot.marks = TraceMarks::default();
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
    }

    /// Returns an acquired-but-uncommitted slot to the free list (the
    /// source was exhausted).
    pub fn abandon(&mut self, tid: Tid) {
        debug_assert!(!self.slots[tid].in_use, "abandoning a live slot");
        self.free.push(tid);
    }

    /// A live slot.
    #[inline]
    pub fn get(&self, tid: Tid) -> &ActiveTx {
        let slot = &self.slots[tid];
        debug_assert!(slot.in_use, "stale tid {tid}");
        slot
    }

    /// A live slot, mutably.
    #[inline]
    pub fn get_mut(&mut self, tid: Tid) -> &mut ActiveTx {
        let slot = &mut self.slots[tid];
        debug_assert!(slot.in_use, "stale tid {tid}");
        slot
    }

    /// Frees a live slot for reuse (buffers keep their capacity).
    pub fn release(&mut self, tid: Tid) {
        let slot = &mut self.slots[tid];
        debug_assert!(slot.in_use, "double release of tid {tid}");
        slot.in_use = false;
        slot.tx.accesses.clear();
        slot.pending_io = None;
        self.free.push(tid);
        self.live -= 1;
    }

    /// Finds the live slot carrying `serial` (lock-resume resolution:
    /// the lock manager speaks serials, events speak slots). O(slots),
    /// but slots number O(in-flight) and resumes only happen under lock
    /// contention — never on the hot path.
    pub fn slot_of_serial(&self, serial: LockTid) -> Option<Tid> {
        self.slots
            .iter()
            .position(|slot| slot.in_use && slot.serial == serial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocb::Oid;

    fn spawn(slab: &mut TxSlab, serial: usize) -> Tid {
        spawn_with(slab, serial, &[serial as Oid])
    }

    /// Commits a transaction accessing `oids` in order.
    fn spawn_with(slab: &mut TxSlab, serial: usize, oids: &[Oid]) -> Tid {
        let tid = slab.acquire();
        slab.tx_buf_mut(tid)
            .accesses
            .extend(oids.iter().map(|&oid| ocb::Access {
                oid,
                parent: None,
                write: false,
            }));
        slab.commit(tid, serial, 0, SimTime::ZERO, true);
        tid
    }

    #[test]
    fn slots_recycle_and_track_high_water() {
        let mut slab = TxSlab::new();
        let a = spawn(&mut slab, 0);
        let b = spawn(&mut slab, 1);
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.high_water(), 2);
        slab.release(a);
        let c = spawn(&mut slab, 2);
        // The freed slot is reused: capacity stays at the peak.
        assert_eq!(c, a);
        assert_eq!(slab.capacity(), 2);
        assert_eq!(slab.high_water(), 2);
        assert_eq!(slab.get(c).serial, 2);
        assert_eq!(slab.get(b).serial, 1);
        slab.release(b);
        slab.release(c);
        assert_eq!(slab.live(), 0);
        assert_eq!(slab.capacity(), 2, "memory is O(peak), not O(total)");
    }

    #[test]
    fn recycled_slot_buffers_are_cleared_but_keep_capacity() {
        let mut slab = TxSlab::new();
        let a = spawn_with(&mut slab, 0, &[7, 3, 7]);
        let t = slab.get_mut(a);
        assert!(t.lock(), "first touch of 7");
        t.pos = 1;
        assert!(t.lock(), "first touch of 3");
        t.pos = 2;
        assert!(!t.lock(), "relock is not a first touch");
        assert_eq!(t.lock_count, 2);
        let cap = slab.get(a).tx.accesses.capacity();
        let first_cap = slab.get(a).first.capacity();
        slab.release(a);
        let b = spawn_with(&mut slab, 1, &[7]);
        assert_eq!(b, a);
        assert_eq!(slab.get(b).lock_count, 0);
        assert_eq!(slab.get(b).first, vec![true], "marks are per transaction");
        assert_eq!(slab.get(b).tx.accesses.len(), 1);
        assert!(slab.get(b).tx.accesses.capacity() >= cap);
        assert!(slab.get(b).first.capacity() >= first_cap);
    }

    /// The sorted lock set the positional flags replace: `lock` is true
    /// iff `oid` was not held yet.
    #[derive(Default)]
    struct SortedLockSet {
        locked: Vec<Oid>,
    }

    impl SortedLockSet {
        fn lock(&mut self, oid: Oid) -> bool {
            match self.locked.binary_search(&oid) {
                Ok(_) => false,
                Err(at) => {
                    self.locked.insert(at, oid);
                    true
                }
            }
        }
    }

    /// Runs `tid` as the model does, restarting once after `restart_at`
    /// granted accesses, and checks every `lock` answer and the commit
    /// count against the sorted set.
    fn check_against_sorted_set(slab: &mut TxSlab, tid: Tid, restart_at: usize) {
        let oids: Vec<Oid> = slab.get(tid).tx.accesses.iter().map(|a| a.oid).collect();
        let mut reference = SortedLockSet::default();
        let t = slab.get_mut(tid);
        for (pos, &oid) in oids.iter().enumerate().take(restart_at) {
            t.pos = pos;
            assert_eq!(t.lock(), reference.lock(oid), "access {pos}");
        }
        // Restart: the model resets the position and the count only.
        t.pos = 0;
        t.lock_count = 0;
        reference.locked.clear();
        for (pos, &oid) in oids.iter().enumerate() {
            t.pos = pos;
            assert_eq!(t.lock(), reference.lock(oid), "access {pos} after restart");
        }
        let mut distinct = oids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(t.lock_count, distinct.len());
        assert_eq!(t.lock_count, reference.locked.len());
    }

    #[test]
    fn first_touch_flags_match_the_sorted_lock_set() {
        let base = ocb::ObjectBase::generate(&ocb::DatabaseParams::small(), 5);
        let params = ocb::WorkloadParams {
            p_set: 0.0,
            p_simple: 0.5,
            p_hierarchy: 0.0,
            p_stochastic: 0.5,
            ..ocb::WorkloadParams::default()
        };
        let mut generator = ocb::WorkloadGenerator::new(&base, params, 11);
        let mut slab = TxSlab::new();
        let mut repeats = 0;
        for serial in 0..200 {
            let tid = slab.acquire();
            generator.next_transaction_into(slab.tx_buf_mut(tid));
            slab.commit(tid, serial, 0, SimTime::ZERO, true);
            let t = slab.get(tid);
            repeats += t.first.iter().filter(|&&first| !first).count();
            let restart_at = t.tx.accesses.len() / 2;
            check_against_sorted_set(&mut slab, tid, restart_at);
            // Keep a few slots live so transactions interleave on the
            // shared table.
            if serial % 3 != 0 {
                slab.release(tid);
            }
        }
        assert!(repeats > 0, "the traversals must revisit objects");
    }

    #[test]
    fn first_touch_flags_handle_hand_built_duplicates() {
        let mut slab = TxSlab::new();
        for (serial, oids) in [
            &[4, 4, 4][..],
            &[9, 1, 9, 1, 2, 9],
            &[0],
            &[3, 2, 1, 0, 0, 1, 2, 3],
            &[1000, 5, 1000],
        ]
        .into_iter()
        .enumerate()
        {
            let tid = spawn_with(&mut slab, serial, oids);
            for restart_at in 0..=oids.len() {
                check_against_sorted_set(&mut slab, tid, restart_at);
            }
            slab.release(tid);
        }
    }

    #[test]
    fn epoch_wrap_clears_the_touch_table() {
        let mut slab = TxSlab::new();
        let a = spawn_with(&mut slab, 0, &[2, 6]);
        slab.release(a);
        // The next commit wraps the epoch to 0: a stale stamp equal to
        // the restarted epoch must not read as touched.
        slab.epoch = u32::MAX;
        slab.touched[6] = 1;
        let b = spawn_with(&mut slab, 1, &[6, 2, 6]);
        assert_eq!(slab.epoch, 1);
        assert_eq!(slab.get(b).first, vec![true, true, false]);
    }

    #[test]
    fn serial_lookup_finds_only_live_slots() {
        let mut slab = TxSlab::new();
        let a = spawn(&mut slab, 10);
        let b = spawn(&mut slab, 11);
        assert_eq!(slab.slot_of_serial(10), Some(a));
        assert_eq!(slab.slot_of_serial(11), Some(b));
        slab.release(a);
        assert_eq!(slab.slot_of_serial(10), None);
        slab.reset();
        assert_eq!(slab.slot_of_serial(11), None);
        assert_eq!(slab.high_water(), 0);
    }
}
