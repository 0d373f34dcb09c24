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
//! The phase's initial wakes are never sorted as a whole, nor stored
//! twice. Their source is replayable ([`ExpoWakes`] clones its stream
//! position), so loading counts a clone's keys per bucket, then draws
//! them again and scatters them straight into the one key buffer. A
//! bucket is sorted only when a pop reaches it or a split boundary falls
//! inside it. A split finds its boundary bucket from the bound's instant
//! in O(1), so every bucket it passes over is counted by its offsets and
//! never ordered. In a saturated million-user phase that is almost all
//! of them.

use desp::random::EXPO_BATCH;
use desp::{key_time, time_key, RandomStream, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Mean initial wakes per bucket, chosen by measurement. Fewer buckets
/// mean fewer write streams in the scatter of [`WakeRun::load`], and a
/// smaller offsets array; larger buckets cost more to sort when a pop or
/// a split reaches one, and a saturated phase reaches only a few. On a
/// million-wake load (2-vCPU x86-64 VM, 2 MiB L2 per core, glibc) the
/// scatter into faulted-in memory took ~8.8, 7.6, 7.6 and 7.7 ms at 32,
/// 64, 128 and 256 keys. Offsets cost 8 bytes per bucket, 1/16 byte per
/// user here (62 KB for a million wakes, beside the 8 MB key buffer).
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

    /// Loads the phase's initial wake keys (into a clock fresh from
    /// [`Self::reset`]) with the buckets of [`WakeRun::load`]: bucket 0
    /// starts at `t0`, and `span_ms` is spread over the buckets.
    /// `wakes` is read to its end; a clone of it must yield the same
    /// keys.
    pub(crate) fn load_initial(
        &mut self,
        wakes: &mut (impl ExactSizeIterator<Item = u64> + Clone),
        t0: SimTime,
        span_ms: f64,
    ) {
        self.run = WakeRun::load(wakes, t0, span_ms);
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

/// The initial wake keys of a cohort of `users` thinking `mean` ms on
/// average: `now` plus one exponential draw per user, in user order,
/// drawn [`EXPO_BATCH`] at a time with [`RandomStream::fill_expo`]. The
/// keys equal those of `users` calls to [`RandomStream::expo`], and a
/// clone replays them from the same stream position: [`WakeRun::load`]
/// counts a clone's keys, then draws them again to scatter them.
#[derive(Clone)]
pub(crate) struct ExpoWakes {
    stream: RandomStream,
    now: SimTime,
    mean: f64,
    /// Draws not yet made.
    undrawn: usize,
    batch: [f64; EXPO_BATCH],
    /// The next unread delay of `batch[..filled]`.
    next: usize,
    filled: usize,
}

impl ExpoWakes {
    /// `mean` must be positive.
    pub(crate) fn new(stream: RandomStream, now: SimTime, mean: f64, users: usize) -> Self {
        ExpoWakes {
            stream,
            now,
            mean,
            undrawn: users,
            batch: [0.0; EXPO_BATCH],
            next: 0,
            filled: 0,
        }
    }

    /// The stream after every draw made so far: once the keys are read
    /// to the end, the position after the `users`-th draw.
    pub(crate) fn into_stream(self) -> RandomStream {
        self.stream
    }
}

impl Iterator for ExpoWakes {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.next == self.filled {
            if self.undrawn == 0 {
                return None;
            }
            let n = self.undrawn.min(EXPO_BATCH);
            self.stream.fill_expo(self.mean, &mut self.batch[..n]);
            self.undrawn -= n;
            self.next = 0;
            self.filled = n;
        }
        let delay = self.batch[self.next];
        self.next += 1;
        Some(time_key((self.now + delay).as_ms()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.undrawn + (self.filled - self.next);
        (left, Some(left))
    }
}

impl ExactSizeIterator for ExpoWakes {}

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
    /// Buckets the keys of `wakes` without storing them twice, then sorts
    /// the first bucket only. The buckets are fixed before the first key:
    /// bucket 0 starts at `t0` and `span_ms` is spread evenly over the
    /// buckets. A count pass reads a clone of `wakes`; the scatter pass
    /// reads `wakes` itself to its end, straight into the key buffer.
    ///
    /// A key before `t0` goes to the first bucket and a key past the span
    /// to the last. A wrong span (zero, tiny, huge, negative or NaN) only
    /// makes buckets uneven, down to one bucket: slower, never wrong.
    fn load(
        wakes: &mut (impl ExactSizeIterator<Item = u64> + Clone),
        t0: SimTime,
        span_ms: f64,
    ) -> Self {
        let len = wakes.len();
        if len == 0 {
            return WakeRun::default();
        }
        let buckets = (len / BUCKET_KEYS).max(1);
        let mut run = WakeRun {
            t0: t0.as_ms(),
            // A negative scale would reverse the bucket order; it and NaN
            // become 0, which puts every key in bucket 0.
            scale: (buckets as f64 / span_ms).max(0.0),
            ends: vec![0; buckets],
            ..WakeRun::default()
        };
        // Count, turn the counts into start offsets, then scatter; each
        // start offset advances to its bucket's end.
        for key in wakes.clone() {
            run.max_key = run.max_key.max(key);
            let b = run.bucket_of(key);
            run.ends[b] += 1;
        }
        let mut start = 0;
        for end in &mut run.ends {
            let count = *end;
            *end = start;
            start += count;
        }
        let mut keys = vec![0; len];
        for key in wakes {
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
        // `as usize` saturates (a key before `t0` goes to bucket 0, and
        // an infinite scale sends a key past `t0` to the last), and maps
        // NaN (a zero scale times an infinite offset, an infinite scale
        // times a zero one, or a NaN `t0`) to bucket 0.
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

    /// The span a load spreads its buckets over: the model's, the keys'
    /// own, and spans that are wrong on purpose.
    #[derive(Clone, Copy, Debug)]
    enum Span {
        /// `MEAN · ln n`, as the model passes for exponential wakes.
        Model,
        /// From `t0` to the largest key.
        True,
        Zero,
        Tiny,
        Huge,
        Negative,
        Nan,
    }

    impl Span {
        const ALL: [Span; 7] = [
            Span::Model,
            Span::True,
            Span::Zero,
            Span::Tiny,
            Span::Huge,
            Span::Negative,
            Span::Nan,
        ];

        fn ms(self, t0: SimTime, wakes: &[u64]) -> f64 {
            match self {
                Span::Model => MEAN * (wakes.len() as f64).ln(),
                Span::True => wakes
                    .iter()
                    .max()
                    .map_or(0.0, |&max| key_time(max).as_ms() - t0.as_ms()),
                Span::Zero => 0.0,
                Span::Tiny => 1e-9,
                Span::Huge => 1e9,
                Span::Negative => -1e3,
                Span::Nan => f64::NAN,
            }
        }
    }

    /// Mean think time of the exponential wakes, ms.
    const MEAN: f64 = 50.0;

    fn load(clock: &mut CohortClock, wakes: &[u64], t0: SimTime, span: Span) {
        clock.load_initial(&mut wakes.iter().copied(), t0, span.ms(t0, wakes));
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// Reset, then load these initial wakes (offsets from the floor)
        /// with bucket 0 at the floor plus the `u8` offset, so that some
        /// wakes may lie before it, over a span.
        Load(Vec<u8>, u8, Span),
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
        let span = || (0..Span::ALL.len()).prop_map(|i| Span::ALL[i]);
        prop_oneof![
            (prop::collection::vec(0u8..16, 0..80), 0u8..24, span())
                .prop_map(|(wakes, t0, span)| Op::Load(wakes, t0, span)),
            (prop::collection::vec(any::<u8>(), 0..400), 0u8..24, span())
                .prop_map(|(wakes, t0, span)| Op::Load(wakes, t0, span)),
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
                    Op::Load(offsets, t0, span) => {
                        clock.reset();
                        reference = Reference::default();
                        let wakes: Vec<u64> =
                            offsets.iter().map(|&o| time_key(at(floor, o).as_ms())).collect();
                        load(&mut clock, &wakes, at(floor, *t0), *span);
                        for key in wakes {
                            reference.insert(key, false);
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

    /// The wake keys of a large run.
    fn draw(shape: Shape, seed: u64, size: usize) -> Vec<u64> {
        let mut stream = RandomStream::new(seed);
        let mut wakes: Vec<u64> = (0..size)
            .map(|_| match shape {
                Shape::Equal => time_key(START),
                Shape::Expo | Shape::Outliers => time_key(START + stream.expo(MEAN)),
            })
            .collect();
        if let Shape::Outliers = shape {
            for far in [2e3, 1e4, 5e4] {
                wakes[stream.index(size)] = time_key(START + far);
            }
        }
        wakes
    }

    /// Loads `wakes` and drives the clock and the reference through
    /// `steps`: batched pops and admissions, splits, and a few
    /// resubmissions.
    fn check_large_run(
        wakes: &[u64],
        t0: SimTime,
        span: Span,
        steps: &[(u8, usize)],
    ) -> Result<(), TestCaseError> {
        let mut clock = CohortClock::default();
        load(&mut clock, wakes, t0, span);
        let mut keys: Vec<(u64, bool)> = wakes.iter().map(|&key| (key, false)).collect();
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

        /// Runs of the size and shape a phase loads, every shape and
        /// span per case, each span on one shape picked by the seed.
        /// Bucket 0 starts at the phase start or up to 40 ms later, past
        /// some of the wakes.
        #[test]
        fn large_runs_match_a_sorted_vec(
            seed in any::<u64>(),
            size in 50_000usize..200_000,
            late in prop_oneof![Just(0.0), 0.0f64..40.0],
            steps in prop::collection::vec((0u8..5, 0usize..4_000), 10..60),
        ) {
            let t0 = SimTime::from_ms(START + late);
            let runs = [Shape::Expo, Shape::Equal, Shape::Outliers].map(|s| draw(s, seed, size));
            for (i, span) in Span::ALL.into_iter().enumerate() {
                let wakes = &runs[(i + (seed % 3) as usize) % 3];
                check_large_run(wakes, t0, span, &steps)?;
            }
        }
    }

    #[test]
    fn a_split_past_every_bucket_orders_nothing_it_passes() {
        let mut clock = CohortClock::default();
        let wakes: Vec<u64> = (0..10_000).rev().map(|i| time_key(f64::from(i))).collect();
        load(&mut clock, &wakes, SimTime::ZERO, Span::True);
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

    /// The batched exponential source loads the same run as its own keys
    /// collected into a `Vec`, draws what `expo` draws, and leaves its
    /// stream where that many `expo` calls do.
    #[test]
    fn the_exponential_source_loads_like_its_keys_in_a_vec() {
        let now = SimTime::from_ms(START);
        for users in [
            0,
            1,
            EXPO_BATCH - 1,
            EXPO_BATCH,
            3 * EXPO_BATCH + 7,
            100_000,
        ] {
            let stream = RandomStream::new(users as u64);
            let mut scalar = stream.clone();
            let mut wakes = ExpoWakes::new(stream, now, MEAN, users);
            let keys: Vec<u64> = wakes.clone().collect();
            let expect: Vec<u64> = (0..users)
                .map(|_| time_key((now + scalar.expo(MEAN)).as_ms()))
                .collect();
            assert_eq!(keys, expect);

            let span = Span::Model.ms(now, &keys);
            let mut from_source = CohortClock::default();
            from_source.load_initial(&mut wakes, now, span);
            assert_eq!(wakes.len(), 0);
            assert_eq!(wakes.into_stream().uniform01(), scalar.uniform01());
            let mut from_vec = CohortClock::default();
            from_vec.load_initial(&mut keys.iter().copied(), now, span);

            // Queue the first half, admit it, then pop the rest.
            let bound = time_key(START + MEAN * std::f64::consts::LN_2);
            assert_eq!(from_source.queue_below(bound), from_vec.queue_below(bound));
            loop {
                assert_eq!(from_source.queued(), from_vec.queued());
                assert_eq!(from_source.peek(), from_vec.peek());
                let popped = if from_vec.queued() > 0 {
                    (from_source.pop_queued(), from_vec.pop_queued())
                } else {
                    (from_source.pop(), from_vec.pop())
                };
                assert_eq!(popped.0, popped.1);
                if popped.1.is_none() {
                    break;
                }
            }
        }
    }
}
