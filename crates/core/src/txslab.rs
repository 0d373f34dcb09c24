//! The transaction slab: preallocated, recycled per-transaction state.
//!
//! DESP-C++ kept its simulation resources preallocated rather than
//! allocating per event; the evaluation model does the same for its
//! per-transaction bookkeeping. A `TxSlab` owns every `ActiveTx`
//! slot; a transaction's identity **during its lifetime** is its slot
//! index (the model's `Tid`), and slots are recycled through a free list
//! when transactions commit. All the slot's buffers — the access vector
//! the workload source fills, the sorted lock set — keep their capacity
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

// Transaction-slab hot path: touched on every lifecycle step of every
// transaction. No unwrap/expect/panic — enforced statically here and by
// the `hot-panic` rule of `voodb audit`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::lockmgr::Tid as LockTid;
use desp::SimTime;
use ocb::{Oid, Transaction};

/// Slot index of a live transaction (recycled across transactions).
pub type Tid = usize;

/// Model-side trace accumulation: saved instants (as [`SimTime::as_ms`]
/// values) and per-stage running totals the model keeps so it can emit
/// each lifecycle stage as a *single* valued delta (`desp::SpanStage`)
/// at commit, instead of a raw point stream along the way — a handful
/// of probe calls per transaction rather than two or three per access.
/// Written only on traced runs (`Context::tracing()` guards every
/// store), so untraced runs never touch these fields. Every increment
/// is `now − mark`, accumulated in chronological order.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TraceMarks {
    /// Instant the current lock request was queued (written only when
    /// it waits: a lock granted at request time waits nothing).
    pub lock_req_ms: f64,
    /// Instant the CPU was granted (valid while `holding_cpu`).
    pub cpu_start_ms: f64,
    /// Instant the current disk batch was requested.
    pub disk_req_ms: f64,
    /// Instant the disk grant arrived (service start).
    pub disk_start_ms: f64,
    /// Instant the current network transfer was requested.
    pub net_req_ms: f64,
    /// Instant the network grant arrived (transfer start).
    pub net_start_ms: f64,
    /// Total time parked waiting for locks (granted requests only).
    pub lock_wait_ms: f64,
    /// Total CPU holding time.
    pub cpu_ms: f64,
    /// Total wait for the disk resource.
    pub disk_wait_ms: f64,
    /// Total disk service time.
    pub disk_service_ms: f64,
    /// Total wait for the network resource.
    pub net_wait_ms: f64,
    /// Total network transfer time.
    pub net_service_ms: f64,
    /// Object accesses completed by passes a restart abandoned; the
    /// commit adds the last pass's. The total *includes* work redone
    /// after a restart (restarts re-execute from the top and recount —
    /// matching the per-access point stream this replaces).
    pub accesses: u64,
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
    /// Objects this transaction holds locks on, sorted (replaces a
    /// per-transaction `HashSet`: the set is small — distinct objects of
    /// one transaction — and a sorted vec beats hashing at that size).
    pub locked: Vec<Oid>,
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
            locked: Vec::new(),
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

    /// Records `oid` as locked; true iff it was not already held
    /// (first touch ⇒ GETLOCK time is charged).
    #[inline]
    pub fn lock(&mut self, oid: Oid) -> bool {
        match self.locked.binary_search(&oid) {
            Ok(_) => false,
            Err(at) => {
                self.locked.insert(at, oid);
                true
            }
        }
    }
}

/// The slab: slots plus a free list.
pub(crate) struct TxSlab {
    slots: Vec<ActiveTx>,
    free: Vec<Tid>,
    live: usize,
    high_water: usize,
}

impl TxSlab {
    pub fn new() -> Self {
        TxSlab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            high_water: 0,
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

    /// Marks an acquired slot live.
    pub fn commit(
        &mut self,
        tid: Tid,
        serial: LockTid,
        user: usize,
        submitted: SimTime,
        measured: bool,
    ) {
        let slot = &mut self.slots[tid];
        debug_assert!(!slot.in_use, "slot double-commit");
        slot.in_use = true;
        slot.serial = serial;
        slot.pos = 0;
        slot.locked.clear();
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
        slot.locked.clear();
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

    fn spawn(slab: &mut TxSlab, serial: usize) -> Tid {
        let tid = slab.acquire();
        slab.tx_buf_mut(tid).accesses.push(ocb::Access {
            oid: serial as u32,
            parent: None,
            write: false,
        });
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
        let a = spawn(&mut slab, 0);
        slab.get_mut(a).lock(7);
        slab.get_mut(a).lock(3);
        assert_eq!(slab.get(a).locked, vec![3, 7]);
        assert!(!slab.get_mut(a).lock(7), "relock is not a first touch");
        let cap = slab.get(a).tx.accesses.capacity();
        slab.release(a);
        let b = spawn(&mut slab, 1);
        assert_eq!(b, a);
        assert!(slab.get(b).locked.is_empty());
        assert_eq!(slab.get(b).tx.accesses.len(), 1);
        assert!(slab.get(b).tx.accesses.capacity() >= cap);
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
