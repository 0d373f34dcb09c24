//! Per-cohort wake clocks of the cohort user model (see
//! [`crate::model`]).
//!
//! A thinking user of a cohort is one 8-byte [`time_key`] of its wake
//! instant. Each key is in one of two states:
//!
//! * **sleeping**: the user is still thinking, or its wake has not been
//!   handled yet. [`CohortClock::peek`], [`CohortClock::arm`] and the
//!   model's wake drain see only these keys.
//! * **queued**: the user submitted while every MPL seat was busy and
//!   waits in the admission ring. The ring holds one run entry ("the
//!   next `n` queued keys of cohort `c`"), not the key, so the key stays
//!   here until [`CohortClock::pop_queued`] admits it.
//!
//! Queued keys are always the lowest keys a clock holds: a split
//! ([`CohortClock::queue_below`]) moves every sleeping key below a bound,
//! and a later [`CohortClock::push`] is never below that bound.
//!
//! The phase's initial wakes are never sorted as a whole. Loading
//! scatters them into buckets by wake instant in one O(n) pass. A bucket
//! is sorted only when a pop reaches it or a split boundary falls inside
//! it. A split finds its boundary bucket from the bound's instant in
//! O(1), so every bucket it passes over is counted by its offsets and
//! never ordered. In a saturated million-user phase that is almost all
//! of them.

use desp::{key_time, time_key, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Mean initial wakes per bucket, chosen by measurement. Fewer buckets
/// mean fewer write streams in the scatter of [`WakeRun::load`], and a
/// smaller offsets array; larger buckets cost more to sort when a pop or
/// a split reaches one, and a saturated phase reaches only a few. On a
/// million-wake load (2-vCPU x86-64 VM, 2 MiB L2 per core, glibc) the
/// scatter into faulted-in memory took ~8.8, 7.6, 7.6 and 7.7 ms at 32,
/// 64, 128 and 256 keys. The offsets array mattered more: at 32 keys it
/// is 250 KB, and every job then faulted in both 8 MB key buffers
/// afresh (~3-4 ms each); at 128 keys (62 KB) jobs reused earlier jobs'
/// pages. Offsets cost 8 bytes per bucket, 1/16 byte per user here.
const BUCKET_KEYS: usize = 128;

/// Wake state of one user cohort.
///
/// Users of one cohort are interchangeable, so equal keys are too.
/// Sleeping wakes pop in time order, an initial wake before a
/// resubmission at the same instant: the order in which the per-user
/// oracle dispatches the same users' `Submit` events, whose initial ones
/// are all scheduled before any resubmission. Initial wakes live in a
/// lazily ordered [`WakeRun`]; resubmissions go to a min-heap until a
/// split queues them.
#[derive(Default)]
pub(crate) struct CohortClock {
    /// The phase's initial wakes.
    run: WakeRun,
    /// Sleeping resubmission wakes (min-heap via `Reverse`).
    pending: BinaryHeap<Reverse<u64>>,
    /// Queued resubmission wakes, ascending.
    queued_pending: VecDeque<u64>,
    /// Bumped on phase reload; in-flight wakes with an old epoch are
    /// no-ops.
    pub(crate) epoch: u32,
    /// The key an engine wake is currently armed for — always the
    /// earliest sleeping key. Re-arming earlier leaves the old wake in
    /// flight; a superseded wake is dropped when it fires.
    armed: Option<u64>,
}

impl CohortClock {
    /// Phase reload: forget every key, queued or sleeping, and orphan
    /// armed wakes.
    pub(crate) fn reset(&mut self) {
        self.run = WakeRun::default();
        self.pending.clear();
        self.queued_pending.clear();
        self.epoch = self.epoch.wrapping_add(1);
        self.armed = None;
    }

    /// Loads the phase's initial wakes (into a clock fresh from
    /// [`Self::reset`]).
    pub(crate) fn load_initial(&mut self, wakes: impl ExactSizeIterator<Item = SimTime>) {
        self.run = WakeRun::load(wakes);
    }

    /// Adds one resubmission wake at `at`. It must not be below the
    /// bound of any earlier [`Self::queue_below`] since the last reset.
    pub(crate) fn push(&mut self, at: SimTime) {
        self.pending.push(Reverse(time_key(at.as_ms())));
    }

    /// The earliest sleeping wake key.
    pub(crate) fn peek(&self) -> Option<u64> {
        let run = self.run.peek();
        let heap = self.pending.peek().map(|&Reverse(key)| key);
        match (run, heap) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Removes the earliest sleeping wake key, from the initial run on a
    /// tie. Only called while no key is queued: a user is handed a seat
    /// directly only when the admission ring is empty.
    pub(crate) fn pop(&mut self) -> Option<u64> {
        debug_assert_eq!(self.queued(), 0, "sleeping pop with queued keys");
        let min = self.peek()?;
        if self.run.peek() == Some(min) {
            self.run.pop();
        } else {
            self.pending.pop();
        }
        Some(min)
    }

    /// Marks every sleeping key below `bound` as queued and returns how
    /// many it marked.
    pub(crate) fn queue_below(&mut self, bound: u64) -> usize {
        let mut moved = self.run.queue_below(bound);
        while let Some(&Reverse(key)) = self.pending.peek() {
            if key >= bound {
                break;
            }
            self.pending.pop();
            self.queued_pending.push_back(key);
            moved += 1;
        }
        moved
    }

    /// Removes and returns the earliest queued key (an admission), from
    /// the initial run on a tie.
    pub(crate) fn pop_queued(&mut self) -> Option<u64> {
        match (self.run.peek_queued(), self.queued_pending.front()) {
            (Some(a), Some(&b)) if b < a => self.queued_pending.pop_front(),
            (Some(_), _) => self.run.pop_queued(),
            (None, _) => self.queued_pending.pop_front(),
        }
    }

    /// Queued keys not yet admitted.
    pub(crate) fn queued(&self) -> usize {
        self.run.queued() + self.queued_pending.len()
    }

    /// Drops every queued key (the source ran dry: nobody waiting will
    /// be admitted).
    pub(crate) fn drop_queued(&mut self) {
        self.run.drop_queued();
        self.queued_pending.clear();
    }

    /// Initial wakes still held, queued or sleeping.
    #[cfg(test)]
    pub(crate) fn initial_left(&self) -> usize {
        self.run.keys.len() - self.run.head
    }

    /// Records an arm at the earliest sleeping key and returns its
    /// instant, or `None` when nothing sleeps or the armed wake already
    /// covers the minimum.
    pub(crate) fn arm(&mut self) -> Option<SimTime> {
        let min = self.peek()?;
        if self.armed.is_some_and(|armed| armed <= min) {
            return None;
        }
        self.armed = Some(min);
        Some(key_time(min))
    }

    /// Whether a wake firing at time key `now_key` is the armed one —
    /// the first cohort wake dispatched at the armed instant. Any other
    /// was superseded by an earlier arm.
    pub(crate) fn is_armed_at(&self, now_key: u64) -> bool {
        self.armed == Some(now_key)
    }

    /// Clears the arm after a drain, so the next [`Self::arm`] schedules
    /// the new minimum.
    pub(crate) fn disarm(&mut self) {
        self.armed = None;
    }
}

/// A cohort's initial wakes, bucketed by instant and ordered lazily.
///
/// `keys[..head]` have left (admitted or dropped), `keys[head..split]`
/// are queued and `keys[split..]` sleep. Bucket `b` is
/// `keys[ends[b - 1]..ends[b]]`; every key of a bucket is below every
/// key of a later one. Two buckets are kept sorted: the one holding
/// `split` (so the sleeping minimum is `keys[split]`) and the one holding
/// `head` (so the queued minimum is `keys[head]`).
#[derive(Default)]
struct WakeRun {
    keys: Vec<u64>,
    /// One past the last key of each bucket.
    ends: Vec<usize>,
    /// Instant of bucket 0's lower edge, ms.
    t0: f64,
    /// Buckets per ms.
    scale: f64,
    /// The largest key (a split bound above it queues everything).
    max_key: u64,
    head: usize,
    split: usize,
    /// Bucket holding `head` (`ends.len()` once the run is used up).
    head_bucket: usize,
    /// Bucket holding `split` (`ends.len()` once nothing sleeps).
    split_bucket: usize,
}

impl WakeRun {
    /// Scatters `wakes` into buckets in one counting pass, then sorts the
    /// first bucket only.
    fn load(wakes: impl ExactSizeIterator<Item = SimTime>) -> Self {
        let mut drawn = Vec::with_capacity(wakes.len());
        // The extremes are tracked as keys (integer compares), and
        // `key_time` gives their instants back.
        let (mut min_key, mut max_key) = (u64::MAX, 0);
        drawn.extend(wakes.map(|at| {
            let key = time_key(at.as_ms());
            min_key = min_key.min(key);
            max_key = max_key.max(key);
            key
        }));
        if drawn.is_empty() {
            return WakeRun::default();
        }
        let (lo, hi) = (key_time(min_key).as_ms(), key_time(max_key).as_ms());
        let buckets = (drawn.len() / BUCKET_KEYS).max(1);
        let mut run = WakeRun {
            t0: lo,
            // A zero, huge or non-finite span degrades to fewer (or one)
            // buckets: slower, never wrong.
            scale: if hi > lo {
                buckets as f64 / (hi - lo)
            } else {
                0.0
            },
            max_key,
            ends: vec![0; buckets],
            ..WakeRun::default()
        };
        // Count, turn the counts into start offsets, then scatter; each
        // start offset advances to its bucket's end.
        for &key in &drawn {
            let b = run.bucket_of(key);
            run.ends[b] += 1;
        }
        let mut start = 0;
        for end in &mut run.ends {
            let count = *end;
            *end = start;
            start += count;
        }
        let mut keys = vec![0; drawn.len()];
        for &key in &drawn {
            let b = run.bucket_of(key);
            keys[run.ends[b]] = key;
            run.ends[b] += 1;
        }
        run.keys = keys;
        run.split_bucket = run.next_bucket(0, 0);
        run.head_bucket = run.split_bucket;
        run.sort_bucket(run.split_bucket);
        run
    }

    /// The bucket of `key`'s instant. Non-decreasing in `key`, so equal
    /// keys share a bucket.
    fn bucket_of(&self, key: u64) -> usize {
        // `as usize` saturates, and maps NaN (an empty or degenerate
        // span) to bucket 0.
        let b = ((key_time(key).as_ms() - self.t0) * self.scale) as usize;
        b.min(self.ends.len() - 1)
    }

    /// First offset of bucket `b`.
    fn start(&self, b: usize) -> usize {
        if b == 0 {
            0
        } else {
            self.ends[b - 1]
        }
    }

    /// The first bucket from `b` on that holds a key at or after `pos`
    /// (`ends.len()` if none).
    fn next_bucket(&self, mut b: usize, pos: usize) -> usize {
        while b < self.ends.len() && self.ends[b] <= pos {
            b += 1;
        }
        b
    }

    fn sort_bucket(&mut self, b: usize) {
        if b < self.ends.len() {
            let range = self.start(b)..self.ends[b];
            self.keys[range].sort_unstable();
        }
    }

    fn peek(&self) -> Option<u64> {
        self.keys.get(self.split).copied()
    }

    fn peek_queued(&self) -> Option<u64> {
        (self.head < self.split).then(|| self.keys[self.head])
    }

    fn queued(&self) -> usize {
        self.split - self.head
    }

    /// Pops the sleeping minimum; nothing may be queued.
    fn pop(&mut self) {
        self.split += 1;
        self.head = self.split;
        if self.split == self.ends[self.split_bucket] {
            self.split_bucket = self.next_bucket(self.split_bucket, self.split);
            self.sort_bucket(self.split_bucket);
        }
        self.head_bucket = self.split_bucket;
        self.compact();
    }

    /// Marks every sleeping key below `bound` as queued.
    fn queue_below(&mut self, bound: u64) -> usize {
        let old = self.split;
        if old == self.keys.len() {
            return 0;
        }
        if bound > self.max_key {
            self.split = self.keys.len();
            self.split_bucket = self.ends.len();
            return self.split - old;
        }
        // Every key in a bucket before the bound's is below the bound, and
        // every key in a later one is above it: only the bound's own
        // bucket is compared, after sorting it.
        let b = self.bucket_of(bound);
        if b > self.split_bucket {
            self.split = self.start(b);
            self.split_bucket = self.next_bucket(b, self.split);
            self.sort_bucket(self.split_bucket);
        }
        if self.split_bucket == b {
            let end = self.ends[b];
            self.split += self.keys[self.split..end].partition_point(|&key| key < bound);
            if self.split == end {
                self.split_bucket = self.next_bucket(b, end);
                self.sort_bucket(self.split_bucket);
            }
        }
        self.split - old
    }

    /// Pops the queued minimum; at least one key must be queued.
    fn pop_queued(&mut self) -> Option<u64> {
        let key = self.peek_queued()?;
        self.head += 1;
        if self.head == self.ends[self.head_bucket] {
            self.head_bucket = self.next_bucket(self.head_bucket, self.head);
            // The bucket holding `split` is sorted already.
            if self.head_bucket != self.split_bucket {
                self.sort_bucket(self.head_bucket);
            }
        }
        self.compact();
        Some(key)
    }

    fn drop_queued(&mut self) {
        self.head = self.split;
        self.head_bucket = self.split_bucket;
        self.compact();
    }

    /// Gives back the memory of keys that left once they are half the
    /// run, so the heap absorbing resubmissions never doubles the
    /// population. Amortised O(1) per departure.
    fn compact(&mut self) {
        let gone = self.head;
        if gone == 0 || gone < self.keys.len() / 2 {
            return;
        }
        self.keys.drain(..gone);
        self.keys.shrink_to_fit();
        for end in &mut self.ends {
            *end = end.saturating_sub(gone);
        }
        self.head = 0;
        self.split -= gone;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference: every key the clock holds in one sorted `Vec` of
    /// `(key, resubmitted)`, so an initial wake sorts before a
    /// resubmission at the same key, and the lowest `queued` entries are
    /// the queued ones.
    #[derive(Default)]
    struct Reference {
        keys: Vec<(u64, bool)>,
        queued: usize,
    }

    impl Reference {
        fn insert(&mut self, key: u64, resubmitted: bool) {
            let at = self.keys.partition_point(|&e| e <= (key, resubmitted));
            self.keys.insert(at, (key, resubmitted));
        }

        fn peek(&self) -> Option<u64> {
            self.keys.get(self.queued).map(|&(key, _)| key)
        }

        fn initial_left(&self) -> usize {
            self.keys.iter().filter(|&&(_, resub)| !resub).count()
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// Reset, then load these initial wakes (offsets from the floor).
        Load(Vec<u8>),
        /// Push a resubmission at the floor plus this offset.
        Push(u8),
        /// Pop the sleeping minimum (only while nothing is queued, as in
        /// the model).
        Pop,
        /// Queue every sleeping key below the floor plus this offset.
        Split(u8),
        /// Admit the earliest queued key.
        PopQueued,
        /// Drop every queued key.
        DropQueued,
        Reset,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Offsets below 16 make equal keys common; a few large loads
        // spread over many buckets.
        prop_oneof![
            prop::collection::vec(0u8..16, 0..80).prop_map(Op::Load),
            prop::collection::vec(any::<u8>(), 0..400).prop_map(Op::Load),
            (0u8..16).prop_map(Op::Push),
            (0u8..16).prop_map(Op::Push),
            Just(Op::Pop),
            Just(Op::Pop),
            (0u8..24).prop_map(Op::Split),
            Just(Op::PopQueued),
            Just(Op::PopQueued),
            Just(Op::DropQueued),
            Just(Op::Reset),
        ]
    }

    /// Wake instants are `base + n / 4` ms, so keys tie often and the
    /// floor sits between representable instants.
    fn at(base: f64, offset: u8) -> SimTime {
        SimTime::from_ms(base + f64::from(offset) * 0.25)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn clock_matches_a_sorted_vec(ops in prop::collection::vec(op_strategy(), 1..120)) {
            let mut clock = CohortClock::default();
            let mut reference = Reference::default();
            // Pushes and splits never go below the highest split bound,
            // as in the model; the floor tracks it.
            let mut floor = 0.0f64;
            for op in &ops {
                match op {
                    Op::Load(offsets) => {
                        clock.reset();
                        reference = Reference::default();
                        let wakes: Vec<SimTime> =
                            offsets.iter().map(|&o| at(floor, o)).collect();
                        clock.load_initial(wakes.iter().copied());
                        for wake in wakes {
                            reference.insert(time_key(wake.as_ms()), false);
                        }
                    }
                    Op::Push(offset) => {
                        let wake = at(floor, *offset);
                        clock.push(wake);
                        reference.insert(time_key(wake.as_ms()), true);
                    }
                    Op::Pop => {
                        if reference.queued == 0 {
                            let expect = (!reference.keys.is_empty())
                                .then(|| reference.keys.remove(0).0);
                            prop_assert_eq!(clock.pop(), expect);
                        }
                    }
                    Op::Split(offset) => {
                        floor = at(floor, *offset).as_ms();
                        let bound = time_key(floor);
                        let below = reference.keys.partition_point(|&(key, _)| key < bound);
                        let moved = below.max(reference.queued) - reference.queued;
                        reference.queued += moved;
                        prop_assert_eq!(clock.queue_below(bound), moved);
                    }
                    Op::PopQueued => {
                        let expect = (reference.queued > 0).then(|| {
                            reference.queued -= 1;
                            reference.keys.remove(0).0
                        });
                        prop_assert_eq!(clock.pop_queued(), expect);
                    }
                    Op::DropQueued => {
                        reference.keys.drain(..reference.queued);
                        reference.queued = 0;
                        clock.drop_queued();
                    }
                    Op::Reset => {
                        clock.reset();
                        reference = Reference::default();
                    }
                }
                prop_assert_eq!(clock.queued(), reference.queued);
                prop_assert_eq!(clock.peek(), reference.peek());
                prop_assert_eq!(clock.initial_left(), reference.initial_left());
            }
        }
    }

    /// How a large initial run is drawn: the model's exponential think
    /// times, a zero think time (every wake at one instant), or
    /// exponential with a few far wakes, which stretch the bucket span so
    /// that the bulk shares a few buckets and most buckets are empty.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        Expo,
        Equal,
        Outliers,
    }

    /// Phase start of the large runs, ms.
    const START: f64 = 1_000.0;

    fn draw(shape: Shape, seed: u64, size: usize) -> Vec<SimTime> {
        let mut stream = desp::RandomStream::new(seed);
        let mut wakes: Vec<SimTime> = (0..size)
            .map(|_| match shape {
                Shape::Equal => SimTime::from_ms(START),
                Shape::Expo | Shape::Outliers => SimTime::from_ms(START + stream.expo(50.0)),
            })
            .collect();
        if let Shape::Outliers = shape {
            for far in [2e3, 1e4, 5e4] {
                wakes[stream.index(size)] = SimTime::from_ms(START + far);
            }
        }
        wakes
    }

    /// Loads `wakes` and drives the clock and the reference through
    /// `steps`: batched pops and admissions, splits, and a few
    /// resubmissions.
    fn check_large_run(wakes: &[SimTime], steps: &[(u8, usize)]) -> Result<(), TestCaseError> {
        let mut clock = CohortClock::default();
        clock.load_initial(wakes.iter().copied());
        let mut keys: Vec<(u64, bool)> =
            wakes.iter().map(|w| (time_key(w.as_ms()), false)).collect();
        keys.sort_unstable();
        let mut reference = Reference { keys, queued: 0 };
        let mut bound = time_key(START);
        for &(kind, n) in steps {
            match kind {
                // Pop `n` sleeping keys, or admit `n` if some are queued
                // (a sleeping pop needs an empty ring).
                0 | 1 => {
                    let sleeping = kind == 0 && reference.queued == 0;
                    let n = n.min(if sleeping {
                        reference.keys.len()
                    } else {
                        reference.queued
                    });
                    let got: Vec<Option<u64>> = (0..n)
                        .map(|_| {
                            if sleeping {
                                clock.pop()
                            } else {
                                clock.pop_queued()
                            }
                        })
                        .collect();
                    let expect: Vec<Option<u64>> = reference
                        .keys
                        .drain(..n)
                        .map(|(key, _)| Some(key))
                        .collect();
                    if !sleeping {
                        reference.queued -= n;
                    }
                    prop_assert_eq!(got, expect);
                }
                // Split `n / 200` ms past the last bound, or at the `n`-th
                // sleeping key, so the bound ties with it (past every key
                // when there are fewer).
                2 | 3 => {
                    let next = match reference.keys.get(reference.queued + n) {
                        _ if kind == 2 => time_key(key_time(bound).as_ms() + n as f64 * 0.005),
                        Some(&(key, _)) => key,
                        None => reference.keys.last().map_or(bound, |&(key, _)| key + 1),
                    };
                    bound = bound.max(next);
                    let below = reference.keys.partition_point(|&(key, _)| key < bound);
                    let moved = below.max(reference.queued) - reference.queued;
                    reference.queued += moved;
                    prop_assert_eq!(clock.queue_below(bound), moved);
                }
                // A few resubmissions at and just after the last bound.
                _ => {
                    for i in 0..n % 8 {
                        let wake =
                            SimTime::from_ms(key_time(bound).as_ms() + (i % 4) as f64 * 0.25);
                        clock.push(wake);
                        reference.insert(time_key(wake.as_ms()), true);
                    }
                }
            }
            prop_assert_eq!(clock.queued(), reference.queued);
            prop_assert_eq!(clock.peek(), reference.peek());
            prop_assert_eq!(clock.initial_left(), reference.initial_left());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Runs of the size and shape a phase loads, every shape per case.
        #[test]
        fn large_runs_match_a_sorted_vec(
            seed in any::<u64>(),
            size in 50_000usize..200_000,
            steps in prop::collection::vec((0u8..5, 0usize..4_000), 10..60),
        ) {
            for shape in [Shape::Expo, Shape::Equal, Shape::Outliers] {
                check_large_run(&draw(shape, seed, size), &steps)?;
            }
        }
    }

    #[test]
    fn a_split_past_every_bucket_orders_nothing_it_passes() {
        let mut clock = CohortClock::default();
        clock.load_initial((0..10_000).rev().map(|i| SimTime::from_ms(f64::from(i))));
        assert_eq!(clock.queue_below(time_key(5_000.5)), 5_001);
        // Only the buckets at the two frontiers were sorted: the first
        // and the one holding the bound.
        let run = &clock.run;
        let sorted = (0..run.ends.len())
            .filter(|&b| run.keys[run.start(b)..run.ends[b]].is_sorted())
            .count();
        assert!(sorted < run.ends.len() / 2, "{sorted} buckets sorted");
        for expect in 0..5_001 {
            assert_eq!(clock.pop_queued(), Some(time_key(f64::from(expect))));
        }
        assert_eq!(clock.pop_queued(), None);
        assert_eq!(clock.peek(), Some(time_key(5_001.0)));
    }
}
