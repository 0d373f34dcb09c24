//! O(1) admission queue for the multiprogramming-level gate.
//!
//! In cohort mode (see [`crate::model`]) a submitted user that finds
//! every MPL slot busy is *not* materialized as a transaction — no
//! slab slot, no workload pull, no scheduler waiter carrying a whole
//! event. An entry of this ring is either one waiting user (its cohort
//! and the instant it submitted) or a *run*: "the next `n` queued users
//! of cohort `c`". A run's submission instants are the time keys its
//! cohort's wake clock keeps queued until admission, so a saturated
//! cohort drain appends one entry however many users it queues. At one
//! million waiting users the ring holds a few hundred 16-byte entries,
//! and a waiting user costs its 8-byte wake key in the clock, where the
//! per-user path would hold a million slab slots and a million queued
//! continuation events.
//!
//! The ring is a plain power-of-two circular buffer: FIFO order is the
//! determinism contract (admission order ≡ submission order, which is
//! what makes cohort runs bit-identical to the per-user oracle), so it
//! is pinned by a seeded differential test against the `VecDeque`
//! discipline the per-user [`desp::Resource`] wait queue uses.

use desp::SimTime;

/// One waiting closed-system user: which cohort it wakes back into and
/// when it submitted (the response-time clock starts here).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PendingArrival {
    /// Index of the cohort the user belongs to.
    pub cohort: u32,
    /// Submission instant (queue wait is charged from here).
    pub submitted: SimTime,
}

impl Default for PendingArrival {
    fn default() -> Self {
        PendingArrival {
            cohort: 0,
            submitted: SimTime::from_ms(0.0),
        }
    }
}

/// One ring entry, 16 bytes either way.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    cohort: u32,
    /// 0: one user, stamped `submitted`. `n > 0`: a run of `n` users
    /// whose stamps the cohort's clock holds (`submitted` unused).
    queued: u32,
    submitted: SimTime,
}

/// A power-of-two FIFO ring of waiting users with O(1) push/pop and
/// amortised O(1) growth (entries are `Copy`, so growth is a flat
/// re-layout, not a per-node relink). Entries are single
/// [`PendingArrival`]s or runs of queued users; [`Self::len`] and
/// [`Self::high_water`] count users, not entries.
#[derive(Debug, Default)]
pub struct AdmissionRing {
    /// Backing storage; length is zero or a power of two.
    buf: Vec<Slot>,
    /// Index of the front entry (valid when `entries > 0`).
    head: usize,
    /// Live entries.
    entries: usize,
    /// Waiting users over all live entries.
    users: usize,
    /// Peak `users` over the ring's lifetime (memory telemetry).
    high_water: usize,
}

impl AdmissionRing {
    /// An empty ring (no allocation until the first push).
    pub fn new() -> Self {
        Self::default()
    }

    /// Waiting users.
    pub fn len(&self) -> usize {
        self.users
    }

    /// True when no user is waiting.
    pub fn is_empty(&self) -> bool {
        self.users == 0
    }

    /// Peak number of users the ring ever held.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Drops all entries (phase reload, or a source that ran dry);
    /// capacity is retained. The clocks' queued keys behind any runs
    /// are the caller's to drop.
    pub fn clear(&mut self) {
        self.head = 0;
        self.entries = 0;
        self.users = 0;
    }

    /// Appends a waiting user at the back.
    #[inline]
    pub fn push_back(&mut self, entry: PendingArrival) {
        self.push_slot(Slot {
            cohort: entry.cohort,
            queued: 0,
            submitted: entry.submitted,
        });
        self.add_users(1);
    }

    /// Appends `users` queued users of `cohort` at the back, as one run
    /// (nothing for zero users). Their stamps are the next `users`
    /// queued keys of the cohort's clock, which [`Self::pop_front_with`]
    /// asks for.
    pub fn push_run(&mut self, cohort: u32, users: usize) {
        let mut left = users;
        while left > 0 {
            let chunk = left.min(u32::MAX as usize);
            self.push_slot(Slot {
                cohort,
                queued: chunk as u32,
                submitted: SimTime::ZERO,
            });
            left -= chunk;
        }
        self.add_users(users);
    }

    /// Removes and returns the front (longest-waiting) user. A run
    /// yields its cohort's next user, stamped by `run_stamp(cohort)`:
    /// the submission instant of that cohort's earliest queued user.
    #[inline]
    pub fn pop_front_with(
        &mut self,
        run_stamp: impl FnOnce(u32) -> SimTime,
    ) -> Option<PendingArrival> {
        if self.entries == 0 {
            return None;
        }
        let slot = &mut self.buf[self.head];
        let cohort = slot.cohort;
        let submitted = if slot.queued == 0 {
            slot.submitted
        } else {
            slot.queued -= 1;
            run_stamp(cohort)
        };
        if slot.queued == 0 {
            self.head = (self.head + 1) & (self.buf.len() - 1);
            self.entries -= 1;
        }
        self.users -= 1;
        Some(PendingArrival { cohort, submitted })
    }

    /// Removes and returns the front (longest-waiting) user of a ring
    /// holding single users only.
    ///
    /// # Panics
    /// Panics if the front entry is a run: use [`Self::pop_front_with`].
    #[inline]
    pub fn pop_front(&mut self) -> Option<PendingArrival> {
        self.pop_front_with(|cohort| panic!("cohort {cohort}'s run needs pop_front_with"))
    }

    fn add_users(&mut self, users: usize) {
        self.users += users;
        if self.users > self.high_water {
            self.high_water = self.users;
        }
    }

    #[inline]
    fn push_slot(&mut self, slot: Slot) {
        if self.entries == self.buf.len() {
            self.grow();
        }
        let mask = self.buf.len() - 1;
        self.buf[(self.head + self.entries) & mask] = slot;
        self.entries += 1;
    }

    /// Doubles the backing storage, re-laying the live window out flat
    /// from index 0 so the wrapped suffix stays in FIFO position.
    #[cold]
    fn grow(&mut self) {
        let old_cap = self.buf.len();
        let new_cap = (old_cap * 2).max(8);
        let mut next = vec![Slot::default(); new_cap];
        for (i, slot) in next.iter_mut().enumerate().take(self.entries) {
            *slot = self.buf[(self.head + i) & (old_cap.max(1) - 1)];
        }
        self.buf = next;
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desp::RandomStream;
    use std::collections::VecDeque;

    fn entry(cohort: u32, at: f64) -> PendingArrival {
        PendingArrival {
            cohort,
            submitted: SimTime::from_ms(at),
        }
    }

    #[test]
    fn fifo_across_wraparound_and_growth() {
        let mut ring = AdmissionRing::new();
        // Interleave pushes and pops so the window wraps while growing.
        let mut expect = 0u32;
        let mut next = 0u32;
        for round in 0..200 {
            for _ in 0..(round % 7) + 1 {
                ring.push_back(entry(next, next as f64));
                next += 1;
            }
            for _ in 0..(round % 5) {
                if let Some(e) = ring.pop_front() {
                    assert_eq!(e.cohort, expect);
                    assert_eq!(e.submitted, SimTime::from_ms(expect as f64));
                    expect += 1;
                }
            }
        }
        while let Some(e) = ring.pop_front() {
            assert_eq!(e.cohort, expect);
            expect += 1;
        }
        assert_eq!(expect, next);
        assert!(ring.is_empty());
        assert!(ring.high_water as u32 <= next);
        assert!(ring.high_water > 0);
    }

    #[test]
    fn clear_retains_capacity_and_resets_order() {
        let mut ring = AdmissionRing::new();
        for i in 0..100 {
            ring.push_back(entry(i, 0.0));
        }
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.high_water(), 100);
        ring.push_back(entry(7, 1.0));
        assert_eq!(ring.pop_front(), Some(entry(7, 1.0)));
    }

    #[test]
    fn matches_vecdeque_discipline_across_seeds() {
        // The property the model's determinism rests on: the ring is
        // observationally identical to the `VecDeque` FIFO the
        // per-user `Resource` wait queue uses, under arbitrary
        // push/pop interleavings.
        for seed in [3u64, 11, 42, 97, 1234] {
            let mut rng = RandomStream::new(seed);
            let mut ring = AdmissionRing::new();
            let mut oracle: VecDeque<PendingArrival> = VecDeque::new();
            let mut serial = 0u32;
            for _ in 0..10_000 {
                let coin = rng.uniform01();
                if coin < 0.55 {
                    let e = entry(serial, rng.expo(10.0));
                    serial += 1;
                    ring.push_back(e);
                    oracle.push_back(e);
                } else {
                    assert_eq!(ring.pop_front(), oracle.pop_front());
                }
                assert_eq!(ring.len(), oracle.len());
                assert_eq!(ring.is_empty(), oracle.is_empty());
            }
            while let Some(e) = oracle.pop_front() {
                assert_eq!(ring.pop_front(), Some(e));
            }
            assert!(ring.is_empty());
        }
    }

    #[test]
    fn runs_count_users_and_take_their_stamps_from_the_cohort() {
        // Users of a run are stamped at pop time by the caller; each
        // cohort's stamps here are 100·cohort + its pop count.
        let mut ring = AdmissionRing::new();
        let mut popped = [0u32; 3];
        let mut stamp = |cohort: u32| {
            popped[cohort as usize] += 1;
            SimTime::from_ms(f64::from(100 * cohort + popped[cohort as usize]))
        };
        ring.push_run(1, 2);
        ring.push_run(1, 1);
        ring.push_back(entry(0, 7.0));
        ring.push_run(2, 2);
        ring.push_run(2, 0); // no users, no entry
        assert_eq!(ring.len(), 6);
        assert_eq!(ring.entries, 4);
        assert_eq!(ring.high_water(), 6);
        let mut order = Vec::new();
        while let Some(e) = ring.pop_front_with(&mut stamp) {
            order.push((e.cohort, e.submitted.as_ms()));
        }
        assert_eq!(
            order,
            [
                (1, 101.0),
                (1, 102.0),
                (1, 103.0),
                (0, 7.0),
                (2, 201.0),
                (2, 202.0)
            ]
        );
        assert!(ring.is_empty());
        assert_eq!(ring.high_water(), 6);
    }
}
