//! Passive resources.
//!
//! Table 1 of the paper lists VOODB's passive resources: server processor
//! and memory, client processors, the disk controller, and the database
//! scheduler enforcing the multiprogramming level. DESP-C++ modelled all of
//! them as `Resource` objects offering *reserve* and *release* operations;
//! this module is the Rust translation.
//!
//! A [`Resource`] has `capacity` identical units. A *request* either grants
//! a unit immediately (the continuation event is scheduled at the current
//! instant) or queues the continuation first come, first served
//! (QNAP2's FIFO default). A *release* frees one unit and wakes the
//! longest waiter.
//! Utilisation (time-weighted busy units) is kept here; a tracing probe
//! also sees every queueing request, which feeds its `queue:<name>`
//! series. Waiting times are the model's to measure:
//! it knows both endpoints of each wait and reports them as span stages.

use crate::engine::Context;
use crate::probe::{Probe, ResourceId};
use crate::sched::QueueKind;
use crate::stats::TimeWeighted;
use crate::time::SimTime;
use std::collections::VecDeque;

/// A passive resource with `capacity` units and a FIFO waiting queue.
pub struct Resource<E> {
    name: String,
    capacity: usize,
    busy: usize,
    queue: VecDeque<E>,
    /// Time-weighted busy units (divide by capacity for utilisation).
    busy_units: TimeWeighted,
    /// Probe handle for this resource's name, interned lazily (or
    /// eagerly via [`Resource::rebind_probe`]) so hot-path hooks never
    /// pass a string.
    probe_id: ResourceId,
}

impl<E> Resource<E> {
    /// Creates a resource with the given unit count.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "resource capacity must be positive");
        Resource {
            name: name.into(),
            capacity,
            busy: 0,
            queue: VecDeque::new(),
            busy_units: TimeWeighted::default(),
            probe_id: ResourceId::INVALID,
        }
    }

    /// Re-interns this resource's name with the context's probe. Models
    /// call this at phase start (probes are swapped per phase) so the
    /// request/release hot path carries a pre-resolved handle.
    pub fn rebind_probe<P: Probe, Q: QueueKind>(&mut self, ctx: &mut Context<'_, E, P, Q>) {
        if P::ENABLED {
            self.probe_id = ctx.probe_mut().intern_resource(&self.name);
        }
    }

    /// The resource's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total units.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Units currently granted.
    pub fn busy(&self) -> usize {
        self.busy
    }

    /// Number of queued waiters.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    #[inline]
    fn record_state(&mut self, now: SimTime) {
        self.busy_units.update(now.as_ms(), self.busy as f64);
    }

    /// Requests one unit; `continuation` fires (at the current instant) when
    /// the unit is granted.
    #[inline]
    pub fn request<P: Probe, Q: QueueKind>(
        &mut self,
        continuation: E,
        ctx: &mut Context<'_, E, P, Q>,
    ) {
        if self.try_acquire(ctx) {
            ctx.schedule_now(continuation);
        } else {
            let now = ctx.now();
            self.queue.push_back(continuation);
            self.record_state(now);
            if P::ENABLED {
                if self.probe_id == ResourceId::INVALID {
                    self.probe_id = ctx.probe_mut().intern_resource(&self.name);
                }
                ctx.probe_mut()
                    .on_resource_enqueue(self.probe_id, now.as_ms(), self.queue.len());
            }
        }
    }

    /// Attempts to take a unit without queueing. Returns `true` on
    /// success, recorded exactly as a granting [`Resource::request`]; a
    /// refusal records nothing.
    ///
    /// Useful for polling-style admission control (e.g. "skip clustering
    /// if the analyser is already running"), and for running a granted
    /// request's continuation inline when [`Context::advance_to`] proves
    /// it would be dispatched next.
    #[inline]
    pub fn try_acquire<P: Probe, Q: QueueKind>(&mut self, ctx: &mut Context<'_, E, P, Q>) -> bool {
        if self.busy >= self.capacity {
            return false;
        }
        let now = ctx.now();
        self.busy += 1;
        self.record_state(now);
        true
    }

    /// Releases one unit; the next waiter (if any) is granted immediately.
    ///
    /// # Panics
    /// Panics if no unit is busy (a release without a matching request is a
    /// model bug).
    #[inline]
    pub fn release<P: Probe, Q: QueueKind>(&mut self, ctx: &mut Context<'_, E, P, Q>) {
        assert!(self.busy > 0, "release on idle resource '{}'", self.name);
        let now = ctx.now();
        self.busy -= 1;
        if let Some(continuation) = self.queue.pop_front() {
            self.busy += 1;
            ctx.schedule_now(continuation);
        }
        self.record_state(now);
    }

    /// Time-weighted utilisation (busy units / capacity) up to `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.busy_units.mean(now.as_ms()) / self.capacity as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Model};

    /// Three jobs contend for a single-unit resource; each holds it 10 ms.
    struct SingleServer {
        resource: Resource<Ev>,
        grant_times: Vec<f64>,
        done: usize,
    }

    #[derive(Clone, Copy)]
    enum Ev {
        Arrive,
        Granted,
        Finish,
    }

    impl Model for SingleServer {
        type Event = Ev;
        fn init(&mut self, ctx: &mut Context<'_, Ev>) {
            ctx.schedule(0.0, Ev::Arrive);
            ctx.schedule(1.0, Ev::Arrive);
            ctx.schedule(2.0, Ev::Arrive);
        }
        fn handle(&mut self, ev: Ev, ctx: &mut Context<'_, Ev>) {
            match ev {
                Ev::Arrive => self.resource.request(Ev::Granted, ctx),
                Ev::Granted => {
                    self.grant_times.push(ctx.now().as_ms());
                    ctx.schedule(10.0, Ev::Finish);
                }
                Ev::Finish => {
                    self.done += 1;
                    self.resource.release(ctx);
                }
            }
        }
    }

    #[test]
    fn serial_grants_on_unit_capacity() {
        let mut engine = Engine::new(SingleServer {
            resource: Resource::new("server", 1),
            grant_times: vec![],
            done: 0,
        });
        engine.run_to_completion();
        let m = engine.model();
        assert_eq!(m.done, 3);
        assert_eq!(m.grant_times, vec![0.0, 10.0, 20.0]);
        assert_eq!(m.resource.busy(), 0);
    }

    #[test]
    fn parallel_grants_up_to_capacity() {
        let mut engine = Engine::new(SingleServer {
            resource: Resource::new("server", 2),
            grant_times: vec![],
            done: 0,
        });
        engine.run_to_completion();
        let m = engine.model();
        // Jobs at 0 and 1 run concurrently; job at 2 waits for the first
        // release at 10.
        assert_eq!(m.grant_times, vec![0.0, 1.0, 10.0]);
    }

    #[test]
    fn try_acquire_grants_like_a_granting_request() {
        use crate::probe::CountingProbe;

        /// Takes one unit by `try_acquire` and one by `request`, and
        /// tries a third on the now-full resource.
        struct Taker {
            resource: Resource<()>,
            taken: Vec<bool>,
        }
        impl Model<CountingProbe> for Taker {
            type Event = ();
            fn init(&mut self, ctx: &mut Context<'_, (), CountingProbe>) {
                ctx.schedule(1.0, ());
            }
            fn handle(&mut self, _: (), ctx: &mut Context<'_, (), CountingProbe>) {
                if self.taken.is_empty() {
                    self.taken.push(self.resource.try_acquire(ctx));
                    self.resource.request((), ctx);
                } else {
                    self.taken.push(self.resource.try_acquire(ctx));
                }
            }
        }
        let mut engine = Engine::with_probe(
            Taker {
                resource: Resource::new("pair", 2),
                taken: vec![],
            },
            CountingProbe::default(),
        );
        engine.run_to_completion();
        assert_eq!(engine.model().taken, vec![true, false]);
        assert_eq!(engine.model().resource.busy(), 2);
        assert_eq!(engine.probe().enqueues, 0);
    }

    #[test]
    #[should_panic(expected = "release on idle resource")]
    fn release_without_request_panics() {
        struct Bad {
            resource: Resource<()>,
        }
        impl Model for Bad {
            type Event = ();
            fn init(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.schedule(0.0, ());
            }
            fn handle(&mut self, _: (), ctx: &mut Context<'_, ()>) {
                self.resource.release(ctx);
            }
        }
        Engine::new(Bad {
            resource: Resource::new("bad", 1),
        })
        .run_to_completion();
    }

    #[test]
    fn utilization_of_half_loaded_server() {
        // One job holds the unit for 10 of 20 ms.
        struct Half {
            resource: Resource<HEv>,
        }
        #[derive(Clone, Copy)]
        enum HEv {
            Start,
            Got,
            End,
            Pad,
        }
        impl Model for Half {
            type Event = HEv;
            fn init(&mut self, ctx: &mut Context<'_, HEv>) {
                ctx.schedule(0.0, HEv::Start);
                ctx.schedule(20.0, HEv::Pad);
            }
            fn handle(&mut self, ev: HEv, ctx: &mut Context<'_, HEv>) {
                match ev {
                    HEv::Start => self.resource.request(HEv::Got, ctx),
                    HEv::Got => ctx.schedule(10.0, HEv::End),
                    HEv::End => self.resource.release(ctx),
                    HEv::Pad => {}
                }
            }
        }
        let mut engine = Engine::new(Half {
            resource: Resource::new("half", 1),
        });
        engine.run_to_completion();
        let now = engine.now();
        let util = engine.model().resource.utilization(now);
        assert!((util - 0.5).abs() < 1e-9, "utilization {util}");
    }
}
