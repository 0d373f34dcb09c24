//! Differential and property tests of the calendar-queue and
//! timer-wheel schedulers.
//!
//! The binary heap is the oracle: every scheduler promises dispatch in
//! ascending `(time, seq)` order, so on *any* schedule — random batches,
//! same-timestamp bursts, events scheduled mid-run, far-future overflow
//! events, interleaved pops that drive resizes, hold patterns from a
//! handful to 100 000 pending events — they must produce identical pop
//! sequences and engines built on them identical dispatch traces.

use desp::sched::{CalendarQueue, EventHeap, Scheduler, TimerWheel};
use desp::{Context, Engine, HeapKind, Model, NoProbe, QueueKind, RandomStream, SimTime};
use proptest::prelude::*;

/// One raw scheduler operation of the fuzzed interleaving.
#[derive(Clone, Debug)]
enum Op {
    /// Push at `now + delay_ms` (delays are coarse so equal timestamps
    /// occur constantly).
    Push(u16),
    /// Push far beyond the ring horizon (exercises the overflow list).
    PushFar(u16),
    /// Pop one event (advances `now` to its time).
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // (The vendored proptest's prop_oneof is unweighted; bias pushes by
    // repeating the variant.)
    prop_oneof![
        any::<u16>().prop_map(|d| Op::Push(d % 500)),
        any::<u16>().prop_map(|d| Op::Push(d % 13)),
        any::<u16>().prop_map(Op::PushFar),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

/// Runs one op sequence through a scheduler, returning the pop trace.
fn run_ops<S: Scheduler<u32>>(ops: &[Op]) -> Vec<(f64, u32)> {
    let mut q = S::default();
    let mut now = 0.0f64;
    let mut next_id = 0u32;
    let mut trace = Vec::new();
    for op in ops {
        match op {
            Op::Push(delay) => {
                q.push(SimTime::from_ms(now + *delay as f64 * 0.25), next_id);
                next_id += 1;
            }
            Op::PushFar(delay) => {
                q.push(SimTime::from_ms(now + 1e6 + *delay as f64 * 1e5), next_id);
                next_id += 1;
            }
            Op::Pop => {
                if let Some((t, id)) = q.pop() {
                    now = t.as_ms();
                    trace.push((now, id));
                }
            }
        }
    }
    // Drain whatever remains.
    while let Some((t, id)) = q.pop() {
        trace.push((t.as_ms(), id));
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The core differential property: identical total order on any
    /// monotone push/pop interleaving, including overflow traffic, for
    /// the calendar queue and the timer wheel alike.
    #[test]
    fn calendar_pop_order_matches_heap(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let heap = run_ops::<EventHeap<u32>>(&ops);
        let calendar = run_ops::<CalendarQueue<u32>>(&ops);
        let wheel = run_ops::<TimerWheel<u32>>(&ops);
        prop_assert_eq!(&calendar, &heap);
        prop_assert_eq!(&wheel, &heap);
    }

    /// Same-timestamp bursts pop in FIFO (sequence-number) order.
    #[test]
    fn same_timestamp_bursts_are_fifo(
        bursts in prop::collection::vec((0u16..50, 1usize..20), 1..20)
    ) {
        let mut q = CalendarQueue::default();
        let mut expected: Vec<(u64, u32)> = Vec::new();
        let mut id = 0u32;
        for &(t, count) in &bursts {
            for _ in 0..count {
                q.push(SimTime::from_ms(t as f64), id);
                expected.push((t as u64, id));
                id += 1;
            }
        }
        expected.sort_by_key(|&(t, id)| (t, id));
        let mut got = Vec::new();
        while let Some((t, id)) = q.pop() {
            got.push((t.as_ms() as u64, id));
        }
        prop_assert_eq!(got, expected);
    }

    /// Resize invariants: the queue reports a power-of-two ring, its
    /// length tracks push/pop exactly through grows, shrinks and
    /// collapses, and order survives the geometry changes.
    #[test]
    fn resize_preserves_length_and_order(
        sizes in prop::collection::vec(1usize..200, 1..8),
        seed in any::<u64>(),
    ) {
        let mut q = CalendarQueue::default();
        let mut rng = RandomStream::new(seed);
        let mut id = 0u32;
        let mut pending = 0usize;
        for &size in &sizes {
            for _ in 0..size {
                q.push(SimTime::from_ms(1e4 * rng.uniform01()), id);
                id += 1;
                pending += 1;
                prop_assert_eq!(q.len(), pending);
                prop_assert!(q.bucket_count().is_power_of_two());
            }
            // Drain half, checking monotone times.
            let mut last = f64::NEG_INFINITY;
            for _ in 0..size / 2 {
                let (t, _) = q.pop().expect("pending > 0");
                pending -= 1;
                prop_assert!(t.as_ms() >= last);
                last = t.as_ms();
                prop_assert_eq!(q.len(), pending);
            }
            // Times only grow within a drain; a fresh batch may schedule
            // earlier again (the queue handles rewinds), so reset `last`.
        }
        let mut last = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t.as_ms() >= last);
            last = t.as_ms();
        }
        prop_assert_eq!(q.len(), 0);
        prop_assert!(q.is_empty());
    }
}

/// The classic hold pattern: `pending` events stay queued while each of
/// `holds` pops schedules its successor an exponential hold ahead. Returns
/// the whole pop sequence (times as bits), drained to empty at the end.
fn hold_pattern<S: Scheduler<u64>>(pending: usize, mean_ms: f64, holds: usize) -> Vec<(u64, u64)> {
    let mut q = S::default();
    let mut rng = RandomStream::new(42);
    for id in 0..pending as u64 {
        q.push(SimTime::from_ms(rng.expo(mean_ms)), id);
    }
    let mut trace = Vec::with_capacity(pending + holds);
    for id in pending as u64..(pending + holds) as u64 {
        let (t, e) = q.pop().expect("the hold pattern keeps the queue populated");
        trace.push((t.as_ms().to_bits(), e));
        q.push(SimTime::from_ms(t.as_ms() + rng.expo(mean_ms)), id);
    }
    while let Some((t, e)) = q.pop() {
        trace.push((t.as_ms().to_bits(), e));
    }
    trace
}

/// Calendar queue, heap and timer wheel pop the same sequence on the hold
/// pattern. Tight 1.11 ms holds pile events onto each other (ring and
/// collapse pressure); 50 s think times are the far-future regime the
/// wheel's staging levels serve. Populations run from the paper's few
/// users to a 100 000-event think-time deluge.
#[test]
fn hold_pattern_pops_identically_on_all_schedulers() {
    const HOLDS: usize = 50_000;
    for mean_ms in [1.11, 50_000.0] {
        for pending in [3usize, 1024, 100_000] {
            let heap = hold_pattern::<EventHeap<u64>>(pending, mean_ms, HOLDS);
            let calendar = hold_pattern::<CalendarQueue<u64>>(pending, mean_ms, HOLDS);
            let wheel = hold_pattern::<TimerWheel<u64>>(pending, mean_ms, HOLDS);
            for (name, trace) in [("calendar", calendar), ("wheel", wheel)] {
                assert_eq!(trace.len(), heap.len(), "{name}: pop count");
                if let Some(i) = trace.iter().zip(&heap).position(|(a, b)| a != b) {
                    panic!(
                        "{name} diverges from the heap at pop {i} \
                         (mean hold {mean_ms} ms, {pending} pending): {:?} vs {:?}",
                        trace[i], heap[i]
                    );
                }
            }
        }
    }
}

/// A self-scheduling model (events breed events, with zero-delay
/// continuations) driven under both engines; the full dispatch traces
/// must match bit for bit.
struct Breeder {
    rng: RandomStream,
    trace: Vec<(u64, u32)>,
    budget: u32,
}

impl<Q: QueueKind> Model<NoProbe, Q> for Breeder {
    type Event = u32;
    fn init(&mut self, ctx: &mut Context<'_, u32, NoProbe, Q>) {
        for i in 0..4 {
            ctx.schedule(self.rng.expo(2.0), i);
        }
    }
    fn handle(&mut self, id: u32, ctx: &mut Context<'_, u32, NoProbe, Q>) {
        self.trace.push((ctx.now().as_ms().to_bits(), id));
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        match id % 3 {
            0 => ctx.schedule_now(id + 1),
            1 => ctx.schedule(self.rng.expo(1.5), id + 1),
            _ => {
                ctx.schedule(self.rng.expo(40.0), id + 1);
                ctx.schedule(0.0, id + 2);
            }
        }
    }
}

#[test]
fn engines_dispatch_identically_on_both_schedulers() {
    for seed in 0..20u64 {
        let make = || Breeder {
            rng: RandomStream::new(seed),
            trace: Vec::new(),
            budget: 5_000,
        };
        let mut calendar = Engine::new(make());
        let calendar_outcome = calendar.run_to_completion();
        let mut heap = Engine::<_, NoProbe, HeapKind>::with_probe_on(make(), NoProbe);
        let heap_outcome = heap.run_to_completion();
        assert_eq!(
            calendar.model().trace,
            heap.model().trace,
            "dispatch traces diverge for seed {seed}"
        );
        assert_eq!(
            calendar_outcome.events_dispatched,
            heap_outcome.events_dispatched
        );
        assert_eq!(
            calendar_outcome.end_time.as_ms().to_bits(),
            heap_outcome.end_time.as_ms().to_bits()
        );
    }
}

/// `run_until` (the peek path) under both schedulers, resumed in
/// several horizon slices, stays identical — this exercises the
/// cursor-ahead-of-clock rewind in the calendar queue.
#[test]
fn run_until_slices_are_scheduler_independent() {
    let make = || Breeder {
        rng: RandomStream::new(99),
        trace: Vec::new(),
        budget: 2_000,
    };
    let mut calendar = Engine::new(make());
    let mut heap = Engine::<_, NoProbe, HeapKind>::with_probe_on(make(), NoProbe);
    for horizon in [10.0, 50.0, 200.0, 1e4, f64::INFINITY] {
        let a = calendar.run_until(SimTime::from_ms(horizon));
        let b = heap.run_until(SimTime::from_ms(horizon));
        assert_eq!(a.events_dispatched, b.events_dispatched, "at {horizon}");
        assert_eq!(calendar.model().trace, heap.model().trace, "at {horizon}");
    }
}
