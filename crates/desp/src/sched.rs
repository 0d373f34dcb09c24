//! Pluggable future-event-list schedulers.
//!
//! DESP-C++ kept its event list as a sorted linked list — fine for the
//! paper's event populations, O(n) in ours. PR 1 replaced it with a
//! binary heap ([`EventHeap`]); this module adds the throughput-oriented
//! [`CalendarQueue`] (Brown, *Calendar Queues: A Fast O(1) Priority
//! Queue Implementation for the Simulation Event Set Problem*, CACM
//! 1988) and puts both behind the [`Scheduler`] trait so the engine can
//! be instantiated with either — the heap stays around as the oracle
//! for differential tests. The hierarchical [`TimerWheel`] is no engine
//! queue: the end-to-end benchmark (`e2ebench/`) times all three queues
//! on a hold pattern (`desp.hold_ns.{calendar,heap,wheel}.*`).
//!
//! ## Determinism contract
//!
//! Every scheduler dispatches in ascending `(time, seq)` order, where
//! `seq` is the monotone per-queue insertion number and time ordering is
//! [`f64::total_cmp`]. Bucket geometry, resizes and the overflow list
//! are pure performance details: they can never reorder two events, so
//! the calendar queue is bit-identical to the heap on any schedule
//! (asserted by property tests and the scenario differential fuzz
//! test).
//!
//! ## Static and dynamic selection
//!
//! The scheduler is a *static* parameter of the engine — a
//! [`QueueKind`] implementor selects the queue type per event type via
//! a generic associated type, so the hot path monomorphises with zero
//! dispatch overhead, exactly like the [`Probe`](crate::probe::Probe)
//! seam. [`SchedulerKind`] is the runtime token; callers match on it
//! once per run and enter the matching monomorphisation.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A future event list: the total order is ascending `(time, seq)` with
/// `seq` assigned monotonically by [`Scheduler::push`].
pub trait Scheduler<E>: Default {
    /// Human-readable name (bench labels, diagnostics).
    const NAME: &'static str;

    /// Enqueues `event` at `time`, assigning the next sequence number.
    fn push(&mut self, time: SimTime, event: E);

    /// Removes and returns the earliest `(time, seq)` event.
    fn pop(&mut self) -> Option<(SimTime, E)>;

    /// The earliest pending instant, without removing the event. Takes
    /// `&mut self` so implementations may advance internal cursors.
    fn peek_time(&mut self) -> Option<SimTime>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// True when no event is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Selects a [`Scheduler`] implementation per event type; the engine's
/// static scheduler seam (see module docs).
pub trait QueueKind {
    /// The queue type this kind provides for event type `E`.
    type Queue<E>: Scheduler<E>;
}

/// [`QueueKind`] of the [`CalendarQueue`] — the default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CalendarKind;

impl QueueKind for CalendarKind {
    type Queue<E> = CalendarQueue<E>;
}

/// [`QueueKind`] of the binary-heap [`EventHeap`] — the differential
/// oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapKind;

impl QueueKind for HeapKind {
    type Queue<E> = EventHeap<E>;
}

/// Runtime scheduler selector (differential tests, benchmarks). Match
/// on it once per run, then enter the statically-typed engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The calendar queue (default).
    #[default]
    Calendar,
    /// The binary heap (differential-testing oracle).
    Heap,
}

impl SchedulerKind {
    /// All selectable kinds.
    pub const ALL: [SchedulerKind; 2] = [SchedulerKind::Calendar, SchedulerKind::Heap];

    /// Short lowercase name (test and benchmark labels).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Calendar => "calendar",
            SchedulerKind::Heap => "heap",
        }
    }
}

/// Entry in the binary-heap event list: `(time, seq)` gives the
/// deterministic total order.
struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the earliest event.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The binary-heap future event list (O(log n) push/pop): the original
/// kernel scheduler, kept as the differential-testing oracle.
pub struct EventHeap<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    seq: u64,
}

impl<E> Default for EventHeap<E> {
    fn default() -> Self {
        EventHeap {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<E> EventHeap<E> {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no event is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Scheduler<E> for EventHeap<E> {
    const NAME: &'static str = "heap";

    #[inline(always)]
    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapEntry { time, seq, event });
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    #[inline]
    fn peek_time(&mut self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Maps an event time to a `u64` whose unsigned order equals
/// [`f64::total_cmp`] order — the scheduler compares integers, not
/// floats, on the hot path. Public so other order-packed queues (the
/// model's cohort wake queues) share the exact same total order.
#[inline]
pub fn time_key(t: f64) -> u64 {
    let b = t.to_bits();
    b ^ ((((b as i64) >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// Inverse of [`time_key`]: recovers the event time from the high half
/// of a packed order, so slots need not store the time at all.
#[inline]
pub fn key_time(key: u64) -> SimTime {
    let m = ((((!key) as i64) >> 63) as u64) | 0x8000_0000_0000_0000;
    SimTime::from_ms(f64::from_bits(key ^ m))
}

/// Time of a packed `(time_key, seq)` order.
#[inline]
fn ord_time(ord: u128) -> SimTime {
    key_time((ord >> 64) as u64)
}

/// One stored event: `ord` packs `(time_key, seq)` into a single `u128`
/// so the total order is one integer comparison and the event time is
/// recoverable ([`ord_time`]) without storing it — a slot is 32 bytes
/// for a 16-byte event. The bucket-day is likewise derived on demand
/// (it depends on the current width, which resizes change anyway).
struct Slot<E> {
    ord: u128,
    event: E,
}

/// Overflow entry: a [`Slot`] with reversed ordering so the
/// `BinaryHeap` behaves as a min-heap on `ord`.
struct OverflowSlot<E>(Slot<E>);

impl<E> PartialEq for OverflowSlot<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.ord == other.0.ord
    }
}
impl<E> Eq for OverflowSlot<E> {}
impl<E> PartialOrd for OverflowSlot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for OverflowSlot<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.ord.cmp(&self.0.ord)
    }
}

/// Where the cursor settled: the source of the global minimum.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Src {
    /// The tail of `buckets[cur]` is the minimum.
    Ring,
    /// The overflow heap's head is the minimum.
    Overflow,
}

/// Ring size ceiling — beyond this, buckets just get denser.
const MAX_BUCKETS: usize = 1 << 20;
/// Ring size the queue expands to when it leaves collapsed mode.
const EXPAND_BUCKETS: usize = 32;
/// Pending-event count above which collapsed mode expands to the ring.
const EXPAND_AT: usize = 24;
/// Pending-event count below which the ring collapses to one bucket.
const COLLAPSE_AT: usize = 8;
/// Sample size for the resize width estimate.
const WIDTH_SAMPLE: usize = 16;

/// The calendar-queue future event list: a power-of-two ring of
/// day-indexed buckets with O(1) amortised push/pop, automatic
/// bucket-count/width resizing, and a min-heap overflow list for events
/// beyond the ring's horizon.
///
/// * Bucket `d & (nbuckets − 1)` holds ring events of day
///   `d = ⌊time / width⌋`; each bucket is kept sorted *descending* by
///   the packed `(time_key, seq)` order, so the bucket minimum is its
///   tail and a pop is a plain `Vec::pop`. Same-timestamp bursts
///   therefore dispatch as a FIFO batch straight off the current
///   bucket's tail with no re-searching.
/// * Events whose day lies at or beyond `cur_day + nbuckets` go to the
///   overflow min-heap; `overflow_min_ord` caches its head so the pop
///   fast path compares one integer, and order is preserved even when
///   the horizon has moved since an overflow insertion.
/// * Bucket storage is slab-like: events live inline in per-bucket
///   `Vec`s (no per-event allocation), and resizing recycles bucket
///   capacity through a spare pool instead of freeing it.
///
/// ## Invariants
///
/// * Every ring event's day is ≥ `cur_day` (pushes behind the cursor
///   rewind it), so the tail of `buckets[cur]` having day `cur_day`
///   proves it is the ring minimum.
/// * `overflow_min_ord` is the overflow head's packed order, or
///   `u128::MAX` when the overflow list is empty; every pop/peek
///   decision compares the ring candidate against it.
/// * `horizon_day == cur_day + nbuckets` (saturating); pushes at or
///   beyond it go to the overflow heap.
pub struct CalendarQueue<E> {
    buckets: Vec<Vec<Slot<E>>>,
    /// `buckets.len() - 1`; the length is a power of two.
    mask: usize,
    width: f64,
    inv_width: f64,
    /// Bucket index the search cursor is on (`== cur_day & mask`).
    cur: usize,
    /// Day the search cursor is on; every ring event's day is ≥ this.
    cur_day: u64,
    /// Pushes at or beyond this day overflow (`cur_day + nbuckets`).
    horizon_day: u64,
    /// Events in the ring (excludes overflow).
    ring_len: usize,
    overflow: BinaryHeap<OverflowSlot<E>>,
    /// Cached `overflow.peek().ord`, `u128::MAX` when empty.
    overflow_min_ord: u128,
    seq: u64,
    /// Retired bucket storage, recycled on the next grow.
    spare: Vec<Vec<Slot<E>>>,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        // Born collapsed: one bucket of infinite width (a plain sorted
        // vector). Small event populations — which dominate validation
        // models like M/M/1 — never pay for bucket geometry at all.
        CalendarQueue {
            buckets: vec![Vec::new()],
            mask: 0,
            width: f64::INFINITY,
            inv_width: 0.0,
            cur: 0,
            cur_day: 0,
            horizon_day: 1,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            overflow_min_ord: u128::MAX,
            seq: 0,
            spare: Vec::new(),
        }
    }
}

impl<E> CalendarQueue<E> {
    /// An empty queue with the default geometry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current ring size (diagnostic; exercised by resize tests).
    pub fn bucket_count(&self) -> usize {
        self.mask + 1
    }

    /// Current bucket width in ms (diagnostic).
    pub fn bucket_width(&self) -> f64 {
        self.width
    }

    /// Events parked on the overflow list (diagnostic).
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Day index of instant `t` under the current width. Monotone in
    /// `t` for `t ≥ 0` (saturating at `u64::MAX` for +∞).
    #[inline]
    fn day_of(&self, t: f64) -> u64 {
        (t * self.inv_width) as u64
    }

    /// Day index of a stored slot (derived from its packed order).
    #[inline]
    fn slot_day(&self, slot_ord: u128) -> u64 {
        self.day_of(ord_time(slot_ord).as_ms())
    }

    /// Pops the overflow head, refreshing the cached minimum.
    #[inline(never)]
    fn pop_overflow(&mut self) -> Option<(SimTime, E)> {
        let slot = self.overflow.pop()?.0;
        self.overflow_min_ord = self.overflow.peek().map_or(u128::MAX, |o| o.0.ord);
        Some((ord_time(slot.ord), slot.event))
    }

    /// Advances the cursor to the source of the global minimum (walk
    /// bounded by one ring lap and by the overflow head's day, then a
    /// direct search). Callers have handled the empty-ring and
    /// current-bucket fast paths.
    fn settle_slow(&mut self) -> Src {
        debug_assert!(self.ring_len > 0);
        let nbuckets = self.mask + 1;
        // The caller's fast path failed: either the current bucket has
        // no event of the current day, or it has one but the overflow
        // head is earlier (exact packed-order comparison) — settle the
        // second case before walking.
        if let Some(tail) = self.buckets[self.cur].last() {
            if self.slot_day(tail.ord) == self.cur_day {
                debug_assert!(tail.ord > self.overflow_min_ord);
                return Src::Overflow;
            }
        }
        let ov_day = match self.overflow.peek() {
            None => u64::MAX,
            Some(o) => self.slot_day(o.0.ord),
        };
        for _ in 0..nbuckets {
            self.cur = (self.cur + 1) & self.mask;
            self.cur_day += 1;
            self.horizon_day = self.cur_day.saturating_add(nbuckets as u64);
            // Strictly past the overflow head's day: every remaining
            // ring event is strictly later than it. (At equality the
            // bucket check below decides by exact packed order — a ring
            // event sharing the overflow head's day can still precede
            // it within the day.)
            if self.cur_day > ov_day {
                return Src::Overflow;
            }
            if let Some(tail) = self.buckets[self.cur].last() {
                if self.slot_day(tail.ord) == self.cur_day {
                    return if tail.ord < self.overflow_min_ord {
                        Src::Ring
                    } else {
                        Src::Overflow
                    };
                }
            }
        }
        // A full lap found nothing inside its window: the next ring
        // event is more than one ring-span ahead. Locate it directly.
        let mut best: Option<(usize, u128)> = None;
        for (i, bucket) in self.buckets.iter().enumerate() {
            if let Some(tail) = bucket.last() {
                if best.is_none_or(|(_, ord)| tail.ord < ord) {
                    best = Some((i, tail.ord));
                }
            }
        }
        let (i, ord) = best.expect("ring_len > 0 but no bucket tail");
        if ord > self.overflow_min_ord {
            return Src::Overflow;
        }
        self.cur = i;
        self.cur_day = self.slot_day(ord);
        self.horizon_day = self.cur_day.saturating_add(nbuckets as u64);
        Src::Ring
    }

    /// The non-fast-path arm of [`Scheduler::pop`].
    #[inline(never)]
    fn pop_slow(&mut self) -> Option<(SimTime, E)> {
        match self.settle_slow() {
            Src::Ring => {
                let slot = self.buckets[self.cur].pop().expect("settled on ring");
                self.ring_len -= 1;
                self.maybe_shrink();
                Some((ord_time(slot.ord), slot.event))
            }
            Src::Overflow => self.pop_overflow(),
        }
    }

    /// Pop-side resize policy: collapse a sparse ring back to the
    /// single sorted bucket, or halve an oversized ring.
    #[inline]
    fn maybe_shrink(&mut self) {
        let nbuckets = self.mask + 1;
        if nbuckets == 1 {
            return;
        }
        if self.ring_len < COLLAPSE_AT && self.overflow.is_empty() {
            // Collapsing merges the overflow into the single bucket, so
            // only collapse when there is none — a large far-future
            // population would otherwise thrash O(n log n) resizes.
            self.resize(1);
        } else if nbuckets > EXPAND_BUCKETS && self.ring_len < nbuckets / 4 {
            self.resize(nbuckets / 2);
        }
    }

    /// Push-side resize policy: leave collapsed mode once the
    /// population outgrows a sorted vector, then keep occupancy ≤ 2
    /// events per bucket by doubling.
    #[inline]
    fn maybe_grow(&mut self) {
        let nbuckets = self.mask + 1;
        if nbuckets == 1 {
            if self.ring_len > EXPAND_AT {
                self.resize(EXPAND_BUCKETS);
            }
        } else if self.ring_len > 2 * nbuckets && nbuckets < MAX_BUCKETS {
            self.resize(nbuckets * 2);
        }
    }

    /// Grows or shrinks the ring to `nbuckets` buckets, re-estimating
    /// the bucket width from the pending events and pulling overflow
    /// events that now fit under the new horizon.
    #[cold]
    fn resize(&mut self, nbuckets: usize) {
        debug_assert!(nbuckets.is_power_of_two());
        let mut all: Vec<Slot<E>> = Vec::with_capacity(self.ring_len + self.overflow.len());
        for bucket in &mut self.buckets {
            all.append(bucket);
        }
        // Sorting now (a) yields the width sample and the new cur_day,
        // and (b) turns every re-insert below into an O(1) back-push.
        all.sort_unstable_by_key(|s| s.ord);
        if nbuckets == 1 {
            // Collapsed mode: one bucket covering all of time.
            self.width = f64::INFINITY;
            self.inv_width = 0.0;
        } else if let Some(width) = estimate_width(&all) {
            self.width = width;
            self.inv_width = 1.0 / width;
        } else if !self.width.is_finite() {
            // Leaving collapsed mode with no usable gap sample.
            self.width = 1.0;
            self.inv_width = 1.0;
        }
        // Recycle retired buckets; reuse their capacity when growing.
        while self.buckets.len() > nbuckets {
            let bucket = self.buckets.pop().expect("len checked");
            if self.spare.len() < nbuckets {
                self.spare.push(bucket);
            }
        }
        while self.buckets.len() < nbuckets {
            self.buckets.push(self.spare.pop().unwrap_or_default());
        }
        self.mask = nbuckets - 1;
        // The cursor must start at the day of the global minimum —
        // which may live on the overflow heap (the cursor can have
        // passed overflow days before this resize), so take the min of
        // both sources BEFORE migration or the migrated event would
        // land behind the cursor and be lost until a direct search.
        let ring_day = all.first().map(|s| self.slot_day(s.ord));
        let ov_day = self.overflow.peek().map(|o| self.slot_day(o.0.ord));
        self.cur_day = match (ring_day, ov_day) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => 0,
        };
        self.cur = (self.cur_day as usize) & self.mask;
        self.horizon_day = self.cur_day.saturating_add(nbuckets as u64);
        // Overflow events inside the new horizon migrate to the ring
        // (the overflow heap pops in ascending time order, so stop at
        // the first one beyond the horizon).
        while let Some(o) = self.overflow.peek() {
            if self.slot_day(o.0.ord) >= self.horizon_day {
                break;
            }
            let slot = self.overflow.pop().expect("peeked").0;
            let i = all.partition_point(|s| s.ord < slot.ord);
            all.insert(i, slot);
        }
        // Re-bucket in reverse (descending) order so each ring insert
        // is a plain push; slots beyond the new horizon go back to the
        // overflow heap (a shrink can move the horizon below them).
        self.ring_len = 0;
        for slot in all.into_iter().rev() {
            let day = self.slot_day(slot.ord);
            if day >= self.horizon_day {
                self.overflow.push(OverflowSlot(slot));
                continue;
            }
            let bucket = &mut self.buckets[(day as usize) & self.mask];
            debug_assert!(bucket.last().is_none_or(|b| b.ord > slot.ord));
            bucket.push(slot);
            self.ring_len += 1;
        }
        self.overflow_min_ord = self.overflow.peek().map_or(u128::MAX, |o| o.0.ord);
    }
}

/// Inserts a slot into a descending-sorted bucket: a new bucket
/// minimum (the zero-delay continuation pattern) appends to the tail;
/// otherwise a linear scan from the front finds the position (buckets
/// are shallow by construction, and the scan's branch is predictable
/// where a binary search's is not).
#[inline(always)]
fn insert_desc<E>(bucket: &mut Vec<Slot<E>>, ord: u128, event: E) {
    insert_desc_slot(bucket, Slot { ord, event });
}

/// [`insert_desc`] for an already-built [`Slot`] (re-staging paths).
#[inline(always)]
fn insert_desc_slot<E>(bucket: &mut Vec<Slot<E>>, slot: Slot<E>) {
    if bucket.last().is_none_or(|tail| slot.ord < tail.ord) {
        bucket.push(slot);
    } else {
        let i = bucket
            .iter()
            .position(|s| s.ord < slot.ord)
            .unwrap_or(bucket.len());
        bucket.insert(i, slot);
    }
}

/// Width estimate from the sorted pending set: twice the mean gap over
/// the earliest 16 pending events. Brown's classic rule samples a wider
/// window, but event populations driven by exponential delays cluster
/// at the head — a head-local estimate keeps the current day's bucket
/// shallow, which is what the pop fast path cares about. `None` keeps
/// the old width (empty queue or all events simultaneous).
fn estimate_width<E>(sorted: &[Slot<E>]) -> Option<f64> {
    let sample = &sorted[..sorted.len().min(WIDTH_SAMPLE)];
    if sample.len() < 2 {
        return None;
    }
    let span =
        ord_time(sample.last().expect("non-empty").ord).as_ms() - ord_time(sample[0].ord).as_ms();
    if span <= 0.0 || !span.is_finite() {
        return None;
    }
    Some(2.0 * span / (sample.len() - 1) as f64)
}

impl<E> Scheduler<E> for CalendarQueue<E> {
    const NAME: &'static str = "calendar";

    #[inline(always)]
    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let ord = ((time_key(time.as_ms()) as u128) << 64) | seq as u128;
        if self.mask == 0 {
            // Collapsed mode: one sorted bucket, no day geometry, and
            // (by the resize(1) migration) an empty overflow list.
            // `ring_len` is not maintained here — `buckets[0].len()` is
            // the length; resize transitions re-sync the counter.
            let bucket = &mut self.buckets[0];
            insert_desc(bucket, ord, event);
            if bucket.len() > EXPAND_AT {
                self.ring_len = self.buckets[0].len();
                self.resize(EXPAND_BUCKETS);
            }
            return;
        }
        let day = self.day_of(time.as_ms());
        if day >= self.horizon_day {
            self.overflow.push(OverflowSlot(Slot { ord, event }));
            if ord < self.overflow_min_ord {
                self.overflow_min_ord = ord;
            }
            return;
        }
        if day < self.cur_day {
            // The cursor peeked ahead of the clock (run_until horizon
            // probe) and the model then scheduled behind it: rewind so
            // the walk can find the new event.
            self.cur_day = day;
            self.cur = (day as usize) & self.mask;
            self.horizon_day = day.saturating_add(self.mask as u64 + 1);
        }
        let bucket = &mut self.buckets[(day as usize) & self.mask];
        insert_desc(bucket, ord, event);
        self.ring_len += 1;
        self.maybe_grow();
    }

    #[inline(always)]
    fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.mask == 0 {
            // Collapsed mode: the single bucket's tail is the minimum
            // and the overflow list is empty (resize(1) drains it).
            let slot = self.buckets[0].pop()?;
            return Some((ord_time(slot.ord), slot.event));
        }
        if self.ring_len == 0 {
            let popped = self.pop_overflow()?;
            // Resync the cursor to the stream: without this, a queue
            // that drained its ring while far-future events were
            // parked would freeze cur_day/horizon_day in the past and
            // route every later push through the overflow heap
            // permanently (the heap it is supposed to beat).
            let day = self.day_of(popped.0.as_ms());
            if day > self.cur_day {
                self.cur_day = day;
                self.cur = (day as usize) & self.mask;
                self.horizon_day = day.saturating_add(self.mask as u64 + 1);
            }
            return Some(popped);
        }
        // Fast path: the current bucket's tail belongs to the current
        // day — it is the ring minimum — and beats the overflow head.
        let bucket = &mut self.buckets[self.cur];
        if let Some(tail) = bucket.last() {
            let ord = tail.ord;
            if self.slot_day(ord) == self.cur_day && ord < self.overflow_min_ord {
                let slot = self.buckets[self.cur].pop().expect("tail seen");
                self.ring_len -= 1;
                self.maybe_shrink();
                return Some((ord_time(slot.ord), slot.event));
            }
        }
        self.pop_slow()
    }

    #[inline]
    fn peek_time(&mut self) -> Option<SimTime> {
        if self.mask == 0 {
            return self.buckets[0].last().map(|s| ord_time(s.ord));
        }
        if self.ring_len == 0 {
            return self.overflow.peek().map(|o| ord_time(o.0.ord));
        }
        if let Some(tail) = self.buckets[self.cur].last() {
            let ord = tail.ord;
            if self.slot_day(ord) == self.cur_day {
                return Some(ord_time(ord.min(self.overflow_min_ord)));
            }
        }
        Some(match self.settle_slow() {
            Src::Ring => ord_time(self.buckets[self.cur].last().expect("settled").ord),
            Src::Overflow => ord_time(self.overflow.peek().expect("settled").0.ord),
        })
    }

    #[inline]
    fn len(&self) -> usize {
        if self.mask == 0 {
            // Collapsed mode tracks length implicitly (see push/pop).
            self.buckets[0].len()
        } else {
            self.ring_len + self.overflow.len()
        }
    }
}

/// Level-0 slot count of the timer wheel (the fine ring).
const WHEEL_L0_SLOTS: usize = 256;
/// Coarse-level slot count (levels 1 and 2).
const WHEEL_LX_SLOTS: usize = 64;
/// Bit width of a level-0 lap: level 1 stages `2^8`-tick windows.
const WHEEL_L0_BITS: u32 = 8;
/// Bit width of a level-1 lap: level 2 stages `2^14`-tick windows.
const WHEEL_L1_BITS: u32 = 14;
/// Tick spans of levels 0/1/2 (`2^8`, `2^14`, `2^20` ticks).
const WHEEL_SPAN0: u64 = 1 << WHEEL_L0_BITS;
const WHEEL_SPAN1: u64 = 1 << WHEEL_L1_BITS;
const WHEEL_SPAN2: u64 = 1 << (WHEEL_L1_BITS + 6);
/// Settle-hop budget before the cold [`TimerWheel::reanchor`] fallback.
const WHEEL_MAX_HOPS: usize = 1024;
/// Staged population that first triggers a width recalibration (≈4
/// events per level-0 slot); the trigger then doubles with each
/// rebuild, keeping recalibration amortized O(1) per push.
const WHEEL_RECAL_BASE: usize = 4 * WHEEL_L0_SLOTS;

/// The hierarchical timer-wheel future event list. No engine runs on
/// it: it is kept only for the `e2ebench` scheduler rung, which times
/// it against the other two queues (`desp.hold_ns.wheel.*`).
///
/// A 256-slot fine ring (level 0) fed by two 64-slot coarse staging
/// levels and an overflow min-heap, sized for the think-time deluge of
/// large closed user populations — a push lands in O(1), cascades down
/// at most twice as the cursor approaches it, and pops off the sorted
/// level-0 slot tail exactly like the calendar queue's fast path.
///
/// * An event `d` ticks ahead of the cursor routes to level 0
///   (`d < 2^8`, slot `tick & 255`, kept sorted descending by packed
///   `(time_key, seq)` order), level 1 (`d < 2^14`, window
///   `tick >> 8`), level 2 (`d < 2^20`, window `tick >> 14`), or the
///   overflow heap. Coarse slots are unsorted append-only vectors.
/// * When the cursor enters a new level-1 (level-2) window, that
///   window's slot is *scattered*: every event re-routes through the
///   same distance rule, so next-epoch aliases simply re-stage and the
///   slot invariants self-heal — including after a cursor rewind
///   (a push behind a peeked cursor), where the cold
///   `reanchor` search is the backstop.
/// * Like the calendar queue it is born *collapsed* (one sorted
///   vector); the tick width is estimated from the pending set when
///   the population outgrows that, and the wheel collapses back when
///   it drains. Geometry never reorders events: pops are in exact
///   ascending `(time, seq)` order, fuzz-differentialed against
///   [`EventHeap`].
pub struct TimerWheel<E> {
    /// Level 0. In collapsed mode only `l0[0]` is used, as the single
    /// all-of-time sorted bucket.
    l0: Vec<Vec<Slot<E>>>,
    l1: Vec<Vec<Slot<E>>>,
    l2: Vec<Vec<Slot<E>>>,
    len0: usize,
    len1: usize,
    len2: usize,
    width: f64,
    inv_width: f64,
    /// Tick the cursor is on; every staged event's tick is ≥ this.
    cur_tick: u64,
    collapsed: bool,
    overflow: BinaryHeap<OverflowSlot<E>>,
    /// Cached `overflow.peek().ord`, `u128::MAX` when empty.
    overflow_min_ord: u128,
    /// Staged population that triggers the next width recalibration.
    recal_at: usize,
    seq: u64,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        TimerWheel {
            l0: vec![Vec::new()],
            l1: Vec::new(),
            l2: Vec::new(),
            len0: 0,
            len1: 0,
            len2: 0,
            width: f64::INFINITY,
            inv_width: 0.0,
            cur_tick: 0,
            collapsed: true,
            overflow: BinaryHeap::new(),
            overflow_min_ord: u128::MAX,
            recal_at: WHEEL_RECAL_BASE,
            seq: 0,
        }
    }
}

impl<E> TimerWheel<E> {
    /// An empty wheel (collapsed mode).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current tick width in ms (diagnostic).
    pub fn tick_width(&self) -> f64 {
        self.width
    }

    /// Events parked on the overflow heap (diagnostic).
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Tick index of instant `t` under the current width. Monotone in
    /// `t` for `t ≥ 0` (saturating at `u64::MAX` for +∞).
    #[inline]
    fn tick_of(&self, t: f64) -> u64 {
        (t * self.inv_width) as u64
    }

    /// Tick index of a stored slot (derived from its packed order).
    #[inline]
    fn slot_tick(&self, slot_ord: u128) -> u64 {
        self.tick_of(ord_time(slot_ord).as_ms())
    }

    /// Events staged on the three levels (excludes overflow).
    #[inline]
    fn levels_len(&self) -> usize {
        self.len0 + self.len1 + self.len2
    }

    /// Routes a slot by its tick distance from the cursor — the single
    /// placement rule shared by push, scatter and reanchor.
    #[inline]
    fn place(&mut self, slot: Slot<E>) {
        let tick = self.slot_tick(slot.ord);
        debug_assert!(tick >= self.cur_tick, "place behind the cursor");
        let d = tick.saturating_sub(self.cur_tick);
        if d < WHEEL_SPAN0 {
            let bucket = &mut self.l0[(tick as usize) & (WHEEL_L0_SLOTS - 1)];
            insert_desc_slot(bucket, slot);
            self.len0 += 1;
        } else if d < WHEEL_SPAN1 {
            self.l1[((tick >> WHEEL_L0_BITS) as usize) & (WHEEL_LX_SLOTS - 1)].push(slot);
            self.len1 += 1;
        } else if d < WHEEL_SPAN2 {
            self.l2[((tick >> WHEEL_L1_BITS) as usize) & (WHEEL_LX_SLOTS - 1)].push(slot);
            self.len2 += 1;
        } else {
            if slot.ord < self.overflow_min_ord {
                self.overflow_min_ord = slot.ord;
            }
            self.overflow.push(OverflowSlot(slot));
        }
    }

    /// Re-routes every event of a coarse slot through [`Self::place`].
    /// Next-epoch aliases land back on a coarse level (possibly the
    /// same slot — the drain works on the taken vector, so that is
    /// safe) and are picked up when the cursor reaches *their* window.
    fn scatter(&mut self, level: u8, idx: usize) {
        let mut taken = match level {
            1 => std::mem::take(&mut self.l1[idx]),
            _ => std::mem::take(&mut self.l2[idx]),
        };
        match level {
            1 => self.len1 -= taken.len(),
            _ => self.len2 -= taken.len(),
        }
        for slot in taken.drain(..) {
            self.place(slot);
        }
        // Hand the emptied storage back unless a re-place refilled it.
        match level {
            1 if self.l1[idx].is_empty() => self.l1[idx] = taken,
            2 if self.l2[idx].is_empty() => self.l2[idx] = taken,
            _ => {}
        }
    }

    /// Scatters the coarse slots whose window the cursor just entered
    /// (`tick` is a level-0 lap boundary). Level 2 first: its events
    /// may re-route into the level-1 slot scattered right after.
    fn cross_boundaries(&mut self, tick: u64) {
        debug_assert_eq!(tick & (WHEEL_SPAN0 - 1), 0);
        if tick & (WHEEL_SPAN1 - 1) == 0 {
            self.scatter(2, ((tick >> WHEEL_L1_BITS) as usize) & (WHEEL_LX_SLOTS - 1));
        }
        self.scatter(1, ((tick >> WHEEL_L0_BITS) as usize) & (WHEEL_LX_SLOTS - 1));
    }

    /// Pops the overflow head, refreshing the cached minimum.
    #[inline(never)]
    fn pop_overflow(&mut self) -> Option<(SimTime, E)> {
        let slot = self.overflow.pop()?.0;
        self.overflow_min_ord = self.overflow.peek().map_or(u128::MAX, |o| o.0.ord);
        Some((ord_time(slot.ord), slot.event))
    }

    /// Advances the cursor to the source of the global minimum.
    /// Callers have handled collapsed mode, the empty-levels case and
    /// the current-slot fast path.
    fn settle_slow(&mut self) -> Src {
        debug_assert!(self.levels_len() > 0);
        // The pop fast path can fail with a current-tick tail when the
        // overflow head is earlier (exact packed-order comparison).
        if let Some(tail) = self.l0[(self.cur_tick as usize) & (WHEEL_L0_SLOTS - 1)].last() {
            if self.slot_tick(tail.ord) == self.cur_tick {
                debug_assert!(tail.ord > self.overflow_min_ord);
                return Src::Overflow;
            }
        }
        let ov_tick = match self.overflow.peek() {
            None => u64::MAX,
            Some(o) => self.slot_tick(o.0.ord),
        };
        let mut hops = 0usize;
        loop {
            hops += 1;
            if hops > WHEEL_MAX_HOPS {
                return self.reanchor();
            }
            if self.len0 == 0 {
                // Nothing fine-grained pending: jump straight to the
                // next boundary that can stage events down.
                if self.len1 == 0 && self.len2 == 0 {
                    return Src::Overflow;
                }
                let next = if self.len1 > 0 {
                    (self.cur_tick | (WHEEL_SPAN0 - 1)) + 1
                } else {
                    (self.cur_tick | (WHEEL_SPAN1 - 1)) + 1
                };
                if next > ov_tick {
                    // Every staged event's tick is ≥ `next` (the
                    // current windows were scattered on entry), so the
                    // overflow head is strictly earlier.
                    return Src::Overflow;
                }
                self.cur_tick = next;
                self.cross_boundaries(next);
            } else {
                // A level-0 event exists somewhere in the current lap;
                // walk tick by tick until its slot comes up.
                self.cur_tick += 1;
                if self.cur_tick > ov_tick {
                    return Src::Overflow;
                }
                if self.cur_tick & (WHEEL_SPAN0 - 1) == 0 {
                    self.cross_boundaries(self.cur_tick);
                }
            }
            if let Some(tail) = self.l0[(self.cur_tick as usize) & (WHEEL_L0_SLOTS - 1)].last() {
                if self.slot_tick(tail.ord) == self.cur_tick {
                    return if tail.ord < self.overflow_min_ord {
                        Src::Ring
                    } else {
                        Src::Overflow
                    };
                }
            }
        }
    }

    /// Cold backstop for cursor-rewind aliasing (a level-0 slot can
    /// then hold an event beyond the current lap, which the bounded
    /// walk cannot see): finds the global minimum across all levels
    /// directly, re-anchors the cursor on its tick, and restores the
    /// entered-window invariant by scattering the covering coarse
    /// slots — which also drops the minimum itself into level 0 if it
    /// was staged.
    #[cold]
    fn reanchor(&mut self) -> Src {
        let mut best: Option<u128> = None;
        for bucket in &self.l0 {
            if let Some(tail) = bucket.last() {
                if best.is_none_or(|b| tail.ord < b) {
                    best = Some(tail.ord);
                }
            }
        }
        for slot in self.l1.iter().chain(self.l2.iter()).flatten() {
            if best.is_none_or(|b| slot.ord < b) {
                best = Some(slot.ord);
            }
        }
        let best = best.expect("levels_len > 0 but no staged event");
        if best > self.overflow_min_ord {
            return Src::Overflow;
        }
        self.cur_tick = self.slot_tick(best);
        self.scatter(
            2,
            ((self.cur_tick >> WHEEL_L1_BITS) as usize) & (WHEEL_LX_SLOTS - 1),
        );
        self.scatter(
            1,
            ((self.cur_tick >> WHEEL_L0_BITS) as usize) & (WHEEL_LX_SLOTS - 1),
        );
        debug_assert!(self.l0[(self.cur_tick as usize) & (WHEEL_L0_SLOTS - 1)]
            .last()
            .is_some_and(|tail| tail.ord == best));
        Src::Ring
    }

    /// The non-fast-path arm of [`Scheduler::pop`].
    #[inline(never)]
    fn pop_slow(&mut self) -> Option<(SimTime, E)> {
        match self.settle_slow() {
            Src::Ring => {
                let slot = self.l0[(self.cur_tick as usize) & (WHEEL_L0_SLOTS - 1)]
                    .pop()
                    .expect("settled on ring");
                self.len0 -= 1;
                self.maybe_collapse();
                Some((ord_time(slot.ord), slot.event))
            }
            Src::Overflow => self.pop_overflow(),
        }
    }

    /// Leaves collapsed mode: allocates the rings, estimates the tick
    /// width from the pending set, and routes everything.
    #[cold]
    fn expand(&mut self) {
        debug_assert!(self.overflow.is_empty(), "collapsed mode has no overflow");
        let mut all = std::mem::take(&mut self.l0[0]);
        all.reverse(); // collapsed bucket is descending; the width sample wants ascending
        let width = estimate_width(&all).unwrap_or(1.0);
        self.width = width;
        self.inv_width = 1.0 / width;
        self.collapsed = false;
        self.l0.resize_with(WHEEL_L0_SLOTS, Vec::new);
        self.l1.resize_with(WHEEL_LX_SLOTS, Vec::new);
        self.l2.resize_with(WHEEL_LX_SLOTS, Vec::new);
        self.len0 = 0;
        self.len1 = 0;
        self.len2 = 0;
        self.cur_tick = all.first().map_or(0, |s| self.slot_tick(s.ord));
        for slot in all {
            self.place(slot);
        }
    }

    /// Push-side width recalibration, the wheel's analogue of the
    /// calendar queue's grow-side re-estimation: the tick width was
    /// sampled when the population left collapsed mode (a handful of
    /// events), so a population that keeps growing — one wake per user
    /// of a large closed population — packs thousands of events into
    /// each level-0 slot and the sorted-bucket insert goes quadratic.
    /// Re-estimate the width from the *current* pending set and
    /// re-route everything; the doubling trigger in `push` keeps the
    /// O(n) rebuilds amortized O(1) per push. Overflow events stay put:
    /// a finer width only moves the staged horizon closer.
    #[cold]
    fn recalibrate(&mut self) {
        let mut all: Vec<Slot<E>> = Vec::with_capacity(self.levels_len());
        for bucket in self
            .l0
            .iter_mut()
            .chain(self.l1.iter_mut())
            .chain(self.l2.iter_mut())
        {
            all.append(bucket);
        }
        all.sort_unstable_by_key(|s| s.ord);
        if let Some(width) = estimate_width(&all) {
            self.width = width;
            self.inv_width = 1.0 / width;
        }
        self.len0 = 0;
        self.len1 = 0;
        self.len2 = 0;
        if let Some(first) = all.first() {
            self.cur_tick = self.slot_tick(first.ord);
        }
        // Descending order makes every level-0 sorted insert an O(1)
        // tail append.
        for slot in all.into_iter().rev() {
            self.place(slot);
        }
        self.recal_at = (self.levels_len() * 2).max(WHEEL_RECAL_BASE);
    }

    /// Gathers a sparse population back into the single sorted bucket
    /// (only when the overflow heap is empty, mirroring the calendar
    /// queue's collapse policy).
    #[cold]
    fn collapse(&mut self) {
        let mut all: Vec<Slot<E>> = Vec::with_capacity(self.levels_len());
        for bucket in self
            .l0
            .iter_mut()
            .chain(self.l1.iter_mut())
            .chain(self.l2.iter_mut())
        {
            all.append(bucket);
        }
        all.sort_unstable_by_key(|s| std::cmp::Reverse(s.ord));
        self.len0 = 0;
        self.len1 = 0;
        self.len2 = 0;
        self.collapsed = true;
        self.width = f64::INFINITY;
        self.inv_width = 0.0;
        self.cur_tick = 0;
        self.recal_at = WHEEL_RECAL_BASE;
        self.l0[0] = all;
    }

    /// Pop-side shrink check.
    #[inline]
    fn maybe_collapse(&mut self) {
        if !self.collapsed && self.levels_len() < COLLAPSE_AT && self.overflow.is_empty() {
            self.collapse();
        }
    }
}

impl<E> Scheduler<E> for TimerWheel<E> {
    const NAME: &'static str = "wheel";

    #[inline(always)]
    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let ord = ((time_key(time.as_ms()) as u128) << 64) | seq as u128;
        if self.collapsed {
            let bucket = &mut self.l0[0];
            insert_desc(bucket, ord, event);
            if bucket.len() > EXPAND_AT {
                self.expand();
            }
            return;
        }
        let tick = self.tick_of(time.as_ms());
        if tick < self.cur_tick {
            // The cursor peeked ahead of the clock and the model then
            // scheduled behind it: rewind. Events staged under the old
            // cursor stay valid — scatter re-routes epoch aliases, and
            // `reanchor` is the backstop.
            self.cur_tick = tick;
        }
        self.place(Slot { ord, event });
        if self.levels_len() > self.recal_at {
            self.recalibrate();
        }
    }

    #[inline(always)]
    fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.collapsed {
            let slot = self.l0[0].pop()?;
            return Some((ord_time(slot.ord), slot.event));
        }
        if self.levels_len() == 0 {
            let popped = self.pop_overflow()?;
            // Resync the cursor across the quiet gap (same rationale
            // as the calendar queue's ring-drained resync).
            let tick = self.tick_of(popped.0.as_ms());
            if tick > self.cur_tick {
                self.cur_tick = tick;
            }
            self.maybe_collapse();
            return Some(popped);
        }
        let idx = (self.cur_tick as usize) & (WHEEL_L0_SLOTS - 1);
        if let Some(tail) = self.l0[idx].last() {
            let ord = tail.ord;
            if self.slot_tick(ord) == self.cur_tick && ord < self.overflow_min_ord {
                let slot = self.l0[idx].pop().expect("tail seen");
                self.len0 -= 1;
                self.maybe_collapse();
                return Some((ord_time(slot.ord), slot.event));
            }
        }
        self.pop_slow()
    }

    #[inline]
    fn peek_time(&mut self) -> Option<SimTime> {
        if self.collapsed {
            return self.l0[0].last().map(|s| ord_time(s.ord));
        }
        if self.levels_len() == 0 {
            return self.overflow.peek().map(|o| ord_time(o.0.ord));
        }
        if let Some(tail) = self.l0[(self.cur_tick as usize) & (WHEEL_L0_SLOTS - 1)].last() {
            let ord = tail.ord;
            if self.slot_tick(ord) == self.cur_tick {
                return Some(ord_time(ord.min(self.overflow_min_ord)));
            }
        }
        Some(match self.settle_slow() {
            Src::Ring => ord_time(
                self.l0[(self.cur_tick as usize) & (WHEEL_L0_SLOTS - 1)]
                    .last()
                    .expect("settled")
                    .ord,
            ),
            Src::Overflow => ord_time(self.overflow.peek().expect("settled").0.ord),
        })
    }

    #[inline]
    fn len(&self) -> usize {
        if self.collapsed {
            self.l0[0].len()
        } else {
            self.levels_len() + self.overflow.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<S: Scheduler<u32>>(s: &mut S) -> Vec<(f64, u32)> {
        let mut out = Vec::new();
        while let Some((t, e)) = s.pop() {
            out.push((t.as_ms(), e));
        }
        out
    }

    #[test]
    fn time_key_orders_like_total_cmp() {
        let values = [0.0, -0.0, 1.0, 1.5, f64::INFINITY, 1e300, 1e-300];
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    time_key(a).cmp(&time_key(b)),
                    a.total_cmp(&b),
                    "key order diverges for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_ms(5.0), 1);
        q.push(SimTime::from_ms(1.0), 2);
        q.push(SimTime::from_ms(5.0), 3);
        q.push(SimTime::from_ms(0.5), 4);
        assert_eq!(q.len(), 4);
        assert_eq!(drain(&mut q), vec![(0.5, 4), (1.0, 2), (5.0, 1), (5.0, 3)]);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_take_the_overflow_list() {
        // Collapsed mode absorbs any schedule into its single bucket;
        // expand to ring mode first so the horizon exists.
        let mut q = CalendarQueue::new();
        for i in 0..48u32 {
            q.push(SimTime::from_ms(i as f64 * 0.1), 100 + i);
        }
        assert!(q.bucket_count() > 1, "queue should be in ring mode");
        q.push(SimTime::from_ms(1e9), 1);
        q.push(SimTime::from_ms(f64::INFINITY), 2);
        q.push(SimTime::from_ms(0.25), 3);
        assert!(q.overflow_len() >= 2, "far-future events overflow");
        let order = drain(&mut q);
        assert!(order.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(order[order.len() - 2], (1e9, 1));
        assert_eq!(order[order.len() - 1], (f64::INFINITY, 2));
        let at_025: Vec<u32> = order
            .iter()
            .filter(|(t, _)| *t == 0.25)
            .map(|&(_, e)| e)
            .collect();
        assert!(at_025.contains(&3));
    }

    #[test]
    fn grows_and_shrinks_around_the_load() {
        let mut q = CalendarQueue::new();
        for i in 0..4096u32 {
            q.push(SimTime::from_ms(i as f64 * 0.37), i);
        }
        assert!(
            q.bucket_count() >= EXPAND_BUCKETS,
            "queue should have left collapsed mode"
        );
        let order = drain(&mut q);
        assert_eq!(order.len(), 4096);
        assert!(order.windows(2).all(|w| w[0].0 <= w[1].0));
        // Collapse is deferred while the overflow list is populated (a
        // ring pop must observe a small ring AND an empty overflow), so
        // drive a small near-future load through the drained queue.
        for i in 0..10u32 {
            q.push(SimTime::from_ms(i as f64 * 0.01), i);
        }
        for _ in 0..4 {
            q.pop();
        }
        assert_eq!(q.bucket_count(), 1, "queue should have collapsed again");
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        let times = [3.0, 0.1, 77.0, 3.0, 1e7, 0.1];
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ms(t), i as u32);
        }
        while !q.is_empty() {
            let peeked = q.peek_time().unwrap();
            let (popped, _) = q.pop().unwrap();
            assert_eq!(peeked, popped);
        }
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn breeder_pattern_stays_monotone() {
        // Regression test for two real ordering bugs caught by the
        // engine differential fuzz: (a) resize seeded the cursor from
        // the ring minimum while an earlier overflow event migrated in
        // behind it; (b) the walk ceded to the overflow head on a tied
        // day without the exact packed-order comparison. The pattern
        // (self-breeding events, zero-delay continuations, far-future
        // pushes) grows the queue through several resizes with live
        // overflow traffic, checked pop-by-pop against the heap.
        let mut rng = crate::random::RandomStream::new(3);
        let mut q = CalendarQueue::new();
        let mut now = 0.0f64;
        for i in 0..4 {
            q.push(SimTime::from_ms(rng.expo(2.0)), i);
        }
        let mut oracle = EventHeap::new();
        {
            let mut rng2 = crate::random::RandomStream::new(3);
            for i in 0..4 {
                oracle.push(SimTime::from_ms(rng2.expo(2.0)), i);
            }
        }
        let mut budget = 5000u32;
        let mut step = 0u64;
        while let Some((t, id)) = q.pop() {
            let (to, ido) = oracle.pop().unwrap();
            assert!(
                t == to && id == ido,
                "step {step}: popped ({}, {id}) but oracle says ({}, {ido}) (clock {}, buckets {}, width {}, len {}, overflow {}, cur_day {}, day_of(popped) {}, day_of(oracle) {})",
                t.as_ms(), to.as_ms(), now, q.bucket_count(), q.bucket_width(), q.len(), q.overflow_len(), q.cur_day, q.day_of(t.as_ms()), q.day_of(to.as_ms())
            );
            now = t.as_ms();
            step += 1;
            if budget == 0 {
                continue;
            }
            budget -= 1;
            match id % 3 {
                0 => {
                    q.push(SimTime::from_ms(now), id + 1);
                    oracle.push(SimTime::from_ms(now), id + 1);
                }
                1 => {
                    let at = now + rng.expo(1.5);
                    q.push(SimTime::from_ms(at), id + 1);
                    oracle.push(SimTime::from_ms(at), id + 1);
                }
                _ => {
                    let at = now + rng.expo(40.0);
                    q.push(SimTime::from_ms(at), id + 1);
                    oracle.push(SimTime::from_ms(at), id + 1);
                    q.push(SimTime::from_ms(now), id + 2);
                    oracle.push(SimTime::from_ms(now), id + 2);
                }
            }
        }
    }

    #[test]
    fn queue_recovers_after_ring_drains_with_parked_overflow() {
        // Regression: enter ring mode, park a far-future event on the
        // overflow list, drain the ring, pop across the quiet gap —
        // the cursor must resync so later near-term pushes use the
        // ring again instead of degenerating to overflow-heap mode.
        let mut q = CalendarQueue::new();
        for i in 0..48u32 {
            q.push(SimTime::from_ms(i as f64 * 0.1), i);
        }
        assert!(q.bucket_count() > 1, "ring mode expected");
        q.push(SimTime::from_ms(1e9), 999);
        while q.len() > 1 {
            q.pop();
        }
        let (t, id) = q.pop().unwrap();
        assert_eq!((t.as_ms(), id), (1e9, 999));
        // Near-term traffic at the new epoch goes through the ring.
        for i in 0..10u32 {
            q.push(SimTime::from_ms(1e9 + i as f64 * 0.05), i);
        }
        assert_eq!(q.overflow_len(), 0, "pushes must land in the ring");
        let mut last = 0.0;
        while let Some((t, _)) = q.pop() {
            assert!(t.as_ms() >= last);
            last = t.as_ms();
        }
    }

    #[test]
    fn push_behind_the_cursor_is_found() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_ms(1000.0), 1);
        // Peeking advances the cursor towards day(1000).
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(1000.0)));
        // A later push behind the cursor must still pop first.
        q.push(SimTime::from_ms(2.0), 2);
        assert_eq!(drain(&mut q), vec![(2.0, 2), (1000.0, 1)]);
    }

    #[test]
    fn wheel_pops_in_time_order_with_fifo_ties() {
        let mut q = TimerWheel::new();
        q.push(SimTime::from_ms(5.0), 1);
        q.push(SimTime::from_ms(1.0), 2);
        q.push(SimTime::from_ms(5.0), 3);
        q.push(SimTime::from_ms(0.5), 4);
        assert_eq!(q.len(), 4);
        assert_eq!(drain(&mut q), vec![(0.5, 4), (1.0, 2), (5.0, 1), (5.0, 3)]);
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_far_future_events_take_the_overflow() {
        let mut q = TimerWheel::new();
        for i in 0..48u32 {
            q.push(SimTime::from_ms(i as f64 * 0.1), 100 + i);
        }
        q.push(SimTime::from_ms(1e12), 1);
        q.push(SimTime::from_ms(f64::INFINITY), 2);
        assert!(q.overflow_len() >= 1, "far-future events overflow");
        let order = drain(&mut q);
        assert!(order.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(order[order.len() - 2], (1e12, 1));
        assert_eq!(order[order.len() - 1], (f64::INFINITY, 2));
    }

    #[test]
    fn wheel_peek_matches_pop() {
        let mut q = TimerWheel::new();
        let times = [3.0, 0.1, 77.0, 3.0, 1e7, 0.1];
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ms(t), i as u32);
        }
        // Grow past collapsed mode too.
        for i in 0..64u32 {
            q.push(SimTime::from_ms(i as f64 * 0.7), 1000 + i);
        }
        while !q.is_empty() {
            let peeked = q.peek_time().unwrap();
            let (popped, _) = q.pop().unwrap();
            assert_eq!(peeked, popped);
        }
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn wheel_push_behind_the_cursor_is_found() {
        let mut q = TimerWheel::new();
        // Leave collapsed mode with a spread-out population, then let
        // a peek advance the cursor far ahead.
        for i in 0..48u32 {
            q.push(SimTime::from_ms(100.0 + i as f64 * 5.0), i);
        }
        while q.len() > 1 {
            q.pop();
        }
        assert!(q.peek_time().is_some());
        // A push behind the settled cursor must still pop first.
        q.push(SimTime::from_ms(0.25), 500);
        let order = drain(&mut q);
        assert_eq!(order[0], (0.25, 500));
        assert!(order.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn wheel_breeder_pattern_stays_monotone() {
        // Same adversarial schedule as the calendar-queue breeder test
        // (self-breeding events, zero-delay continuations, far-future
        // pushes), checked pop-by-pop against the heap oracle — this
        // drives expand/collapse cycles, boundary scatters, cursor
        // rewinds and the reanchor backstop.
        let mut rng = crate::random::RandomStream::new(3);
        let mut q = TimerWheel::new();
        let mut now = 0.0f64;
        for i in 0..4 {
            q.push(SimTime::from_ms(rng.expo(2.0)), i);
        }
        let mut oracle = EventHeap::new();
        {
            let mut rng2 = crate::random::RandomStream::new(3);
            for i in 0..4 {
                oracle.push(SimTime::from_ms(rng2.expo(2.0)), i);
            }
        }
        let mut budget = 5000u32;
        let mut step = 0u64;
        while let Some((t, id)) = q.pop() {
            let (to, ido) = oracle.pop().unwrap();
            assert!(
                t == to && id == ido,
                "step {step}: popped ({}, {id}) but oracle says ({}, {ido}) (clock {}, width {}, len {}, overflow {})",
                t.as_ms(),
                to.as_ms(),
                now,
                q.tick_width(),
                q.len(),
                q.overflow_len(),
            );
            now = t.as_ms();
            step += 1;
            if budget == 0 {
                continue;
            }
            budget -= 1;
            match id % 3 {
                0 => {
                    q.push(SimTime::from_ms(now), id + 1);
                    oracle.push(SimTime::from_ms(now), id + 1);
                }
                1 => {
                    let at = now + rng.expo(1.5);
                    q.push(SimTime::from_ms(at), id + 1);
                    oracle.push(SimTime::from_ms(at), id + 1);
                }
                _ => {
                    let at = now + rng.expo(40.0);
                    q.push(SimTime::from_ms(at), id + 1);
                    oracle.push(SimTime::from_ms(at), id + 1);
                    q.push(SimTime::from_ms(now), id + 2);
                    oracle.push(SimTime::from_ms(now), id + 2);
                }
            }
        }
        assert!(oracle.is_empty());
    }

    #[test]
    fn wheel_think_time_deluge_matches_heap() {
        // The workload the wheel exists for: a large far-future
        // think-time population pushed up front, then a closed loop
        // re-arming a fresh think time on every wake.
        let mut rng = crate::random::RandomStream::new(7);
        let mut q = TimerWheel::new();
        let mut oracle = EventHeap::new();
        for i in 0..20_000u32 {
            let t = rng.expo(1_000.0);
            q.push(SimTime::from_ms(t), i);
            oracle.push(SimTime::from_ms(t), i);
        }
        let mut budget = 30_000u32;
        while let Some((t, id)) = q.pop() {
            let (to, ido) = oracle.pop().unwrap();
            assert!(t == to && id == ido, "wheel diverged from heap");
            if budget > 0 {
                budget -= 1;
                let at = t.as_ms() + rng.expo(1_000.0);
                q.push(SimTime::from_ms(at), id);
                oracle.push(SimTime::from_ms(at), id);
            }
        }
        assert!(oracle.is_empty());
    }

    #[test]
    fn wheel_recalibrates_as_the_population_outgrows_its_width() {
        // The width is sampled when the wheel leaves collapsed mode —
        // a handful of events with wide gaps. A population that then
        // grows 1000x packs that width's level-0 slots quadratically
        // unless the wheel re-estimates; this pins both the pop order
        // and the fact that the width actually tightened.
        let mut rng = crate::random::RandomStream::new(13);
        let mut q = TimerWheel::new();
        let mut oracle = EventHeap::new();
        // Sparse seed population: width calibrates to ~5000 ms gaps.
        for i in 0..30u32 {
            let t = 5_000.0 * f64::from(i + 1);
            q.push(SimTime::from_ms(t), i);
            oracle.push(SimTime::from_ms(t), i);
        }
        let coarse = q.tick_width();
        assert!(coarse.is_finite(), "population should have expanded");
        // Dense deluge: 30k events over the same horizon.
        for i in 30..30_030u32 {
            let t = rng.uniform01() * 150_000.0;
            q.push(SimTime::from_ms(t), i);
            oracle.push(SimTime::from_ms(t), i);
        }
        assert!(
            q.tick_width() < coarse / 8.0,
            "width should tighten with the population (was {coarse}, now {})",
            q.tick_width()
        );
        while let Some((t, id)) = q.pop() {
            let (to, ido) = oracle.pop().unwrap();
            assert!(t == to && id == ido, "wheel diverged from heap");
        }
        assert!(oracle.is_empty());
    }
}
