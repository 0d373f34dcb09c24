//! The discrete-event simulation engine.
//!
//! DESP-C++ was organised around a *scheduler* owning a sorted event list
//! and dispatching events to resource service methods. The Rust analog is
//! an [`Engine`] owning a pluggable future event list (a
//! [`CalendarQueue`](crate::sched::CalendarQueue) by default, the binary
//! [`EventHeap`](crate::sched::EventHeap) for differential testing — see
//! [`crate::sched`]) and a user-supplied [`Model`]; the model's
//! [`Model::handle`] method plays the role of the `SERVICE` clauses of
//! QNAP2 / the event methods of DESP-C++ (Table 2 of the paper).
//!
//! Two properties the validation methodology depends on are guaranteed
//! here:
//!
//! * **Determinism** — simultaneous events are dispatched in scheduling
//!   order (ties broken by a monotone sequence number), so a replication is
//!   a pure function of its seed *and independent of the scheduler
//!   implementation*.
//! * **Monotone clock** — an event can never be scheduled in the past;
//!   violations panic rather than silently corrupting the timeline.

// Dispatch hot path: runs once per event, so a stray unwrap would turn a
// recoverable modelling bug into an abort. Enforced statically here and
// by the `hot-panic` rule of `voodb audit`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::probe::{NoProbe, Probe, SeriesId, SpanPoint, SpanStage};
use crate::sched::{CalendarKind, QueueKind, Scheduler};
use crate::time::SimTime;

/// A simulation model: state plus an event handler.
///
/// Translation of the paper's knowledge model (Table 2): each *active
/// resource* becomes a component of the implementing type, each *functioning
/// rule* a method invoked from [`Model::handle`], and each *passive
/// resource* a [`crate::resource::Resource`] field.
///
/// The probe parameter `P` defaults to [`NoProbe`], so a plain
/// `impl Model for MyModel` is an untraced model exactly as before the
/// telemetry hooks existed. A model that wants to run under *any*
/// recorder implements `impl<P: Probe> Model<P> for MyModel` instead and
/// emits lifecycle spans via [`Context::emit_span`] /
/// [`Context::emit_sample`].
///
/// The queue parameter `Q` likewise defaults to the calendar queue; a
/// model that wants to run under *any* scheduler (e.g. for differential
/// testing against the heap oracle) implements
/// `impl<P: Probe, Q: QueueKind> Model<P, Q> for MyModel`.
pub trait Model<P: Probe = NoProbe, Q: QueueKind = CalendarKind> {
    /// The event vocabulary of the model.
    type Event;

    /// Called once before the first event is dispatched; schedules the
    /// initial events (e.g. first transaction arrivals).
    fn init(&mut self, ctx: &mut Context<'_, Self::Event, P, Q>);

    /// Handles one event occurrence at the current simulated instant.
    fn handle(&mut self, event: Self::Event, ctx: &mut Context<'_, Self::Event, P, Q>);
}

/// The model's handle on the engine during event dispatch: the clock, the
/// event list, the stop flag, and the trace probe.
///
/// The clock belongs to the handler while it runs: [`Context::advance_to`]
/// may move it forward, and the engine takes it back when the handler
/// returns, so [`Engine::now`], [`RunOutcome::end_time`] and the next
/// dispatch all see the advanced instant.
pub struct Context<'a, E, P: Probe = NoProbe, Q: QueueKind = CalendarKind> {
    now: SimTime,
    /// The latest instant the current run call dispatches: the horizon
    /// of [`Engine::run_until`], infinity for the other run calls, and
    /// the current instant during [`Model::init`].
    limit: SimTime,
    events: &'a mut Q::Queue<E>,
    stop: &'a mut bool,
    probe: &'a mut P,
}

impl<'a, E, P: Probe, Q: QueueKind> Context<'a, E, P, Q> {
    /// Current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to occur `delay_ms` milliseconds from now.
    ///
    /// # Panics
    /// Panics if `delay_ms` is negative or NaN.
    #[inline]
    pub fn schedule(&mut self, delay_ms: f64, event: E) {
        assert!(
            delay_ms >= 0.0,
            "cannot schedule an event in the past (delay {delay_ms})"
        );
        self.events.push(self.now + delay_ms, event);
    }

    /// Schedules `event` at absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current instant.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        self.events.push(at, event);
    }

    /// Schedules `event` to occur immediately (after already-pending events
    /// at the same instant).
    #[inline]
    pub fn schedule_now(&mut self, event: E) {
        self.events.push(self.now, event);
    }

    /// Requests termination of the run after the current event.
    #[inline]
    pub fn stop(&mut self) {
        *self.stop = true;
    }

    /// The instant of the earliest pending event, `None` when nothing
    /// is pending. Read-only for the timeline: no event moves, the queue
    /// may only settle its cursor (hence `&mut`). A model uses it to
    /// bound work it batches up to the next pending event; for a single
    /// event certain to be dispatched next, [`Context::advance_to`]
    /// applies the whole rule.
    #[inline]
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Moves the clock to `at` and returns `true` when an event
    /// scheduled now for `at` would certainly be the next one
    /// dispatched: no event is pending at or before `at` (one pending
    /// at exactly `at` was scheduled earlier and goes first), `at` is
    /// within the run's limit (the horizon of [`Engine::run_until`]),
    /// and [`Context::stop`] has not been called. The caller then does
    /// that event's work inline, at the advanced instant, instead of a
    /// round trip through the event list; the simulation is the same,
    /// with one dispatch fewer. Otherwise nothing changes and the
    /// caller schedules the event as usual.
    ///
    /// Only a handler's last action may advance the clock: anything it
    /// did after the event it stands in for would happen out of order.
    ///
    /// # Panics
    /// Panics if `at` is before the current instant.
    #[inline]
    pub fn advance_to(&mut self, at: SimTime) -> bool {
        assert!(at >= self.now, "cannot advance the clock into the past");
        if *self.stop || at > self.limit || self.events.peek_time().is_some_and(|next| next <= at) {
            return false;
        }
        self.now = at;
        true
    }

    /// True when a recording probe is attached. Models guard span/sample
    /// argument computation behind this so untraced runs pay nothing.
    #[inline]
    pub fn tracing(&self) -> bool {
        P::ENABLED
    }

    /// Emits a transaction lifecycle span point at the current instant.
    /// `slot` is the transaction's dense slab slot; `serial` its stable
    /// identity (see [`Probe::on_span`]).
    #[inline]
    pub fn emit_span(&mut self, slot: u32, serial: u64, point: SpanPoint) {
        self.probe.on_span(slot, serial, point, self.now.as_ms());
    }

    /// [`Context::emit_span`] back-dated to `at` (≤ now). Deferred
    /// bookkeeping paths — cohort admission materializes a transaction
    /// only when an MPL slot frees — use this to stamp the span with
    /// the instant the lifecycle point logically happened.
    #[inline]
    pub fn emit_span_at(&mut self, at: SimTime, slot: u32, serial: u64, point: SpanPoint) {
        debug_assert!(at <= self.now, "back-dated spans only");
        self.probe.on_span(slot, serial, point, at.as_ms());
    }

    /// Emits the committing transaction's stage totals (milliseconds,
    /// indexed by [`SpanStage`]) and access count (see
    /// [`Probe::on_span_stages`]).
    #[inline]
    pub fn emit_span_stages(
        &mut self,
        slot: u32,
        serial: u64,
        stages: &[f64; SpanStage::COUNT],
        accesses: u64,
    ) {
        self.probe.on_span_stages(slot, serial, stages, accesses);
    }

    /// Emits one time-series sample at the current instant. The handle
    /// comes from [`Context::intern_series`], resolved once per phase.
    #[inline]
    pub fn emit_sample(&mut self, series: SeriesId, value: f64) {
        self.probe.on_sample(series, self.now.as_ms(), value);
    }

    /// Resolves a series name to a probe handle (delegates to
    /// [`Probe::intern_series`]; not for the per-event hot path).
    #[inline]
    pub fn intern_series(&mut self, name: &str) -> SeriesId {
        self.probe.intern_series(name)
    }

    /// Direct access to the probe (used by [`crate::resource::Resource`]
    /// to report its queue).
    #[inline]
    pub fn probe_mut(&mut self) -> &mut P {
        self.probe
    }
}

/// Why a run returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The event list drained.
    Exhausted,
    /// The model called [`Context::stop`].
    Stopped,
    /// The time horizon passed to [`Engine::run_until`] was reached.
    Horizon,
}

/// Summary of a completed run.
#[derive(Clone, Copy, Debug)]
pub struct RunOutcome {
    /// Why the run returned.
    pub reason: StopReason,
    /// Clock value when the run returned.
    pub end_time: SimTime,
    /// Events dispatched during this call.
    pub events_dispatched: u64,
}

/// The simulation engine: owns the model, the clock, the event list and
/// the trace probe (a [`NoProbe`] unless built via
/// [`Engine::with_probe`]).
///
/// The event list is chosen statically by `Q` (see [`crate::sched`]):
/// the default is the calendar queue; differential tests instantiate
/// `Engine<M, P, HeapKind>` via [`Engine::with_probe_on`].
pub struct Engine<M: Model<P, Q>, P: Probe = NoProbe, Q: QueueKind = CalendarKind> {
    model: M,
    probe: P,
    events: Q::Queue<M::Event>,
    clock: SimTime,
    stop: bool,
    dispatched: u64,
    /// Dispatches left until the next `on_dispatch` call; reloaded from
    /// [`Probe::dispatch_interval`] after each sampled dispatch. Engine
    /// state (not probe state) so the tight dispatch loop keeps it in a
    /// register; persists across run calls so multi-phase drivers
    /// sample at a stable cadence.
    dispatch_countdown: u64,
    initialised: bool,
}

impl<M: Model> Engine<M> {
    /// Wraps `model` untraced on the default scheduler; the model's
    /// `init` runs on the first `run_*` call.
    pub fn new(model: M) -> Self {
        Engine::with_probe(model, NoProbe)
    }
}

impl<M: Model<P>, P: Probe> Engine<M, P> {
    /// Wraps `model` with a trace probe receiving every kernel hook and
    /// model emission.
    pub fn with_probe(model: M, probe: P) -> Self {
        Engine::with_probe_on(model, probe)
    }
}

impl<M: Model<P, Q>, P: Probe, Q: QueueKind> Engine<M, P, Q> {
    /// Wraps `model` with a trace probe on an explicitly chosen
    /// scheduler kind, e.g.
    /// `Engine::<_, _, HeapKind>::with_probe_on(model, NoProbe)`.
    pub fn with_probe_on(model: M, probe: P) -> Self {
        let dispatch_countdown = probe.dispatch_interval().max(1);
        Engine {
            model,
            probe,
            events: Q::Queue::default(),
            clock: SimTime::ZERO,
            stop: false,
            dispatched: 0,
            dispatch_countdown,
            initialised: false,
        }
    }

    /// Immutable access to the model (for reading statistics).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Immutable access to the probe (for reading telemetry).
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consumes the engine, returning the model and the probe.
    pub fn into_parts(self) -> (M, P) {
        (self.model, self.probe)
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Total events dispatched over the engine's lifetime.
    pub fn events_dispatched(&self) -> u64 {
        self.dispatched
    }

    fn ensure_init(&mut self) {
        if !self.initialised {
            self.initialised = true;
            let mut ctx = Context {
                now: self.clock,
                limit: self.clock,
                events: &mut self.events,
                stop: &mut self.stop,
                probe: &mut self.probe,
            };
            self.model.init(&mut ctx);
        }
    }

    /// Pops and dispatches the next event; the handler may advance the
    /// clock up to `limit`. Callers have already checked `stop` and run
    /// `ensure_init`.
    #[inline]
    fn dispatch_next(&mut self, limit: SimTime) -> bool {
        let Some((time, event)) = self.events.pop() else {
            return false;
        };
        debug_assert!(time >= self.clock, "event list yielded a past event");
        self.clock = time;
        self.dispatched += 1;
        if P::ENABLED {
            self.dispatch_countdown -= 1;
            if self.dispatch_countdown == 0 {
                self.dispatch_countdown = self.probe.dispatch_interval().max(1);
                self.probe.on_dispatch(time.as_ms(), self.events.len());
            }
        }
        let mut ctx = Context {
            now: self.clock,
            limit,
            events: &mut self.events,
            stop: &mut self.stop,
            probe: &mut self.probe,
        };
        self.model.handle(event, &mut ctx);
        self.clock = ctx.now;
        true
    }

    /// Dispatches a single event. Returns `false` when nothing remains.
    #[cfg(test)]
    fn step(&mut self) -> bool {
        self.ensure_init();
        if self.stop {
            return false;
        }
        self.dispatch_next(SimTime::INFINITY)
    }

    /// Runs until the event list drains or the model stops the run.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run_until(SimTime::INFINITY)
    }

    /// Runs until the clock would pass `horizon` (events strictly later are
    /// left pending), the list drains, or the model stops the run.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.ensure_init();
        let start = self.dispatched;
        let reason = loop {
            if self.stop {
                break StopReason::Stopped;
            }
            // Peek: stop before dispatching an event past the horizon.
            match self.events.peek_time() {
                None => break StopReason::Exhausted,
                Some(time) if time > horizon => {
                    self.clock = horizon;
                    break StopReason::Horizon;
                }
                Some(_) => {
                    self.dispatch_next(horizon);
                }
            }
        };
        RunOutcome {
            reason,
            end_time: self.clock,
            events_dispatched: self.dispatched - start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::HeapKind;

    /// A model that records the order in which its events fire; generic
    /// over the scheduler so both kinds can be exercised.
    struct Recorder {
        fired: Vec<(f64, u32)>,
        to_schedule: Vec<(f64, u32)>,
    }

    impl<Q: QueueKind> Model<NoProbe, Q> for Recorder {
        type Event = u32;
        fn init(&mut self, ctx: &mut Context<'_, u32, NoProbe, Q>) {
            for &(t, id) in &self.to_schedule {
                ctx.schedule(t, id);
            }
        }
        fn handle(&mut self, event: u32, ctx: &mut Context<'_, u32, NoProbe, Q>) {
            self.fired.push((ctx.now().as_ms(), event));
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let model = Recorder {
            fired: vec![],
            to_schedule: vec![(5.0, 1), (1.0, 2), (3.0, 3)],
        };
        let mut engine = Engine::new(model);
        let outcome = engine.run_to_completion();
        assert_eq!(outcome.reason, StopReason::Exhausted);
        assert_eq!(outcome.events_dispatched, 3);
        assert_eq!(engine.model().fired, vec![(1.0, 2), (3.0, 3), (5.0, 1)]);
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let model = Recorder {
            fired: vec![],
            to_schedule: vec![(2.0, 10), (2.0, 11), (2.0, 12)],
        };
        let mut engine = Engine::new(model);
        engine.run_to_completion();
        assert_eq!(engine.model().fired, vec![(2.0, 10), (2.0, 11), (2.0, 12)]);
    }

    #[test]
    fn heap_engine_dispatches_identically() {
        let schedule = vec![(5.0, 1), (1.0, 2), (3.0, 3), (3.0, 4), (0.0, 5)];
        let mut calendar = Engine::new(Recorder {
            fired: vec![],
            to_schedule: schedule.clone(),
        });
        calendar.run_to_completion();
        let mut heap = Engine::<_, NoProbe, HeapKind>::with_probe_on(
            Recorder {
                fired: vec![],
                to_schedule: schedule,
            },
            NoProbe,
        );
        heap.run_to_completion();
        assert_eq!(calendar.model().fired, heap.model().fired);
    }

    /// Records, at each dispatch, the earliest instant still pending.
    struct Peeker {
        seen: Vec<(u32, Option<f64>)>,
    }

    impl<Q: QueueKind> Model<NoProbe, Q> for Peeker {
        type Event = u32;
        fn init(&mut self, ctx: &mut Context<'_, u32, NoProbe, Q>) {
            ctx.schedule(2.0, 1);
            ctx.schedule(2.0, 2);
            ctx.schedule(5.0, 3);
        }
        fn handle(&mut self, event: u32, ctx: &mut Context<'_, u32, NoProbe, Q>) {
            if event == 1 {
                // Scheduled behind the peeked cursor: still found.
                ctx.schedule(1.0, 4);
            }
            let next = ctx.next_event_time().map(SimTime::as_ms);
            self.seen.push((event, next));
        }
    }

    fn peeks_on<Q: QueueKind>() -> Vec<(u32, Option<f64>)> {
        let mut engine = Engine::<_, NoProbe, Q>::with_probe_on(Peeker { seen: vec![] }, NoProbe);
        engine.run_to_completion();
        engine.into_parts().0.seen
    }

    #[test]
    fn next_event_time_peeks_without_dispatching() {
        let expected = vec![(1, Some(2.0)), (2, Some(3.0)), (4, Some(5.0)), (3, None)];
        assert_eq!(peeks_on::<CalendarKind>(), expected);
        assert_eq!(peeks_on::<HeapKind>(), expected);
    }

    /// On its first event, tries `advance_to` at each of `tries` (ms)
    /// in turn, optionally after calling `stop`, recording each answer
    /// and the clock it left; every event records its dispatch instant.
    struct Lookahead {
        pending: Vec<(f64, u32)>,
        tries: Vec<f64>,
        stop_first: bool,
        answers: Vec<(f64, bool, f64)>,
        fired: Vec<(u32, f64)>,
    }

    impl Lookahead {
        fn new(pending: &[(f64, u32)], tries: &[f64]) -> Self {
            Lookahead {
                pending: pending.to_vec(),
                tries: tries.to_vec(),
                stop_first: false,
                answers: vec![],
                fired: vec![],
            }
        }
    }

    impl<Q: QueueKind> Model<NoProbe, Q> for Lookahead {
        type Event = u32;
        fn init(&mut self, ctx: &mut Context<'_, u32, NoProbe, Q>) {
            // The limit during init is the current instant.
            assert!(!ctx.advance_to(SimTime::from_ms(1.0)));
            for &(t, id) in &self.pending {
                ctx.schedule(t, id);
            }
        }
        fn handle(&mut self, event: u32, ctx: &mut Context<'_, u32, NoProbe, Q>) {
            self.fired.push((event, ctx.now().as_ms()));
            if event != 0 {
                return;
            }
            if self.stop_first {
                ctx.stop();
            }
            for &at in &self.tries {
                let advanced = ctx.advance_to(SimTime::from_ms(at));
                self.answers.push((at, advanced, ctx.now().as_ms()));
            }
        }
    }

    #[test]
    fn advance_to_refuses_at_or_past_a_pending_event() {
        for scheduler in ["calendar", "heap"] {
            let model = Lookahead::new(&[(1.0, 0), (5.0, 1)], &[5.0, 6.0, 4.0, 4.0]);
            let (model, outcome) = if scheduler == "calendar" {
                let mut engine = Engine::new(model);
                let outcome = engine.run_to_completion();
                (engine.into_parts().0, outcome)
            } else {
                let mut engine = Engine::<_, NoProbe, HeapKind>::with_probe_on(model, NoProbe);
                let outcome = engine.run_to_completion();
                (engine.into_parts().0, outcome)
            };
            // A tie with the pending event at 5 is refused (it was
            // scheduled first), as is anything later; 4 is free, and
            // advancing to the current instant again is allowed.
            assert_eq!(
                model.answers,
                vec![
                    (5.0, false, 1.0),
                    (6.0, false, 1.0),
                    (4.0, true, 4.0),
                    (4.0, true, 4.0)
                ],
                "{scheduler}"
            );
            assert_eq!(model.fired, vec![(0, 1.0), (1, 5.0)], "{scheduler}");
            assert_eq!(outcome.events_dispatched, 2);
        }
    }

    #[test]
    fn advance_to_stops_at_the_run_until_horizon() {
        let mut engine = Engine::new(Lookahead::new(&[(1.0, 0)], &[10.5, 10.0]));
        let outcome = engine.run_until(SimTime::from_ms(10.0));
        assert_eq!(
            engine.model().answers,
            vec![(10.5, false, 1.0), (10.0, true, 10.0)]
        );
        // The run returns the clock the handler advanced to.
        assert_eq!(outcome.reason, StopReason::Exhausted);
        assert_eq!(outcome.end_time, SimTime::from_ms(10.0));
        assert_eq!(engine.now(), SimTime::from_ms(10.0));
    }

    #[test]
    fn advance_to_is_refused_after_stop() {
        let mut model = Lookahead::new(&[(1.0, 0), (9.0, 1)], &[1.0, 2.0]);
        model.stop_first = true;
        let mut engine = Engine::new(model);
        let outcome = engine.run_to_completion();
        assert_eq!(outcome.reason, StopReason::Stopped);
        assert_eq!(
            engine.model().answers,
            vec![(1.0, false, 1.0), (2.0, false, 1.0)]
        );
        assert_eq!(outcome.end_time, SimTime::from_ms(1.0));
    }

    #[test]
    fn the_engine_reports_the_advanced_clock() {
        /// Advances each event 2.5 ms, then schedules the next one 1 ms
        /// later: the events land on the advanced timeline.
        struct Hopper {
            fired: Vec<f64>,
        }
        impl Model for Hopper {
            type Event = u32;
            fn init(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.schedule(1.0, 0);
            }
            fn handle(&mut self, n: u32, ctx: &mut Context<'_, u32>) {
                self.fired.push(ctx.now().as_ms());
                let at = ctx.now() + 2.5;
                assert!(ctx.advance_to(at));
                if n < 3 {
                    ctx.schedule(1.0, n + 1);
                }
            }
        }
        let mut engine = Engine::new(Hopper { fired: vec![] });
        assert!(engine.step());
        assert_eq!(engine.now(), SimTime::from_ms(3.5));
        let rest = engine.run_to_completion();
        assert_eq!(engine.model().fired, vec![1.0, 4.5, 8.0, 11.5]);
        assert_eq!(rest.end_time, SimTime::from_ms(14.0));
        assert_eq!(engine.now(), SimTime::from_ms(14.0));
    }

    /// A model that reschedules itself forever (stopped via horizon or stop).
    struct Ticker {
        ticks: u64,
        period: f64,
        stop_after: Option<u64>,
    }

    impl<Q: QueueKind> Model<NoProbe, Q> for Ticker {
        type Event = ();
        fn init(&mut self, ctx: &mut Context<'_, (), NoProbe, Q>) {
            ctx.schedule(self.period, ());
        }
        fn handle(&mut self, _: (), ctx: &mut Context<'_, (), NoProbe, Q>) {
            self.ticks += 1;
            if let Some(limit) = self.stop_after {
                if self.ticks >= limit {
                    ctx.stop();
                    return;
                }
            }
            ctx.schedule(self.period, ());
        }
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut engine = Engine::new(Ticker {
            ticks: 0,
            period: 1.0,
            stop_after: None,
        });
        let outcome = engine.run_until(SimTime::from_ms(10.5));
        assert_eq!(outcome.reason, StopReason::Horizon);
        assert_eq!(engine.model().ticks, 10);
        assert_eq!(engine.now(), SimTime::from_ms(10.5));
        // Resuming continues from pending events.
        let outcome = engine.run_until(SimTime::from_ms(20.0));
        assert_eq!(outcome.reason, StopReason::Horizon);
        assert_eq!(engine.model().ticks, 20);
    }

    #[test]
    fn run_until_respects_horizon_on_heap() {
        let mut engine = Engine::<_, NoProbe, HeapKind>::with_probe_on(
            Ticker {
                ticks: 0,
                period: 1.0,
                stop_after: None,
            },
            NoProbe,
        );
        let outcome = engine.run_until(SimTime::from_ms(10.5));
        assert_eq!(outcome.reason, StopReason::Horizon);
        assert_eq!(engine.model().ticks, 10);
    }

    #[test]
    fn model_stop_terminates_run() {
        let mut engine = Engine::new(Ticker {
            ticks: 0,
            period: 1.0,
            stop_after: Some(5),
        });
        let outcome = engine.run_to_completion();
        assert_eq!(outcome.reason, StopReason::Stopped);
        assert_eq!(engine.model().ticks, 5);
        assert_eq!(engine.now(), SimTime::from_ms(5.0));
    }

    #[test]
    fn probe_sees_dispatches_and_spans() {
        use crate::probe::{CountingProbe, Probe, SpanPoint, SpanStage};

        /// A probed chain: each event emits a span point, stage totals
        /// and a sample, and reschedules.
        struct Chain {
            remaining: u32,
        }
        impl<P: Probe> Model<P> for Chain {
            type Event = ();
            fn init(&mut self, ctx: &mut Context<'_, (), P>) {
                ctx.schedule(1.0, ());
            }
            fn handle(&mut self, _: (), ctx: &mut Context<'_, (), P>) {
                if ctx.tracing() {
                    ctx.emit_span(7, 7, SpanPoint::Admitted);
                    ctx.emit_span_stages(7, 7, &[0.0; SpanStage::COUNT], 1);
                    let depth = ctx.intern_series("depth");
                    ctx.emit_sample(depth, self.remaining as f64);
                }
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.schedule(1.0, ());
                }
            }
        }

        let mut engine = Engine::with_probe(Chain { remaining: 4 }, CountingProbe::default());
        engine.run_to_completion();
        let probe = engine.probe();
        assert_eq!(probe.dispatches, 5);
        assert_eq!(probe.spans, 5);
        assert_eq!(probe.span_stages, 5);
        assert_eq!(probe.samples, 5);

        // The same model under the default NoProbe runs identically.
        let (model, _noprobe) = {
            let mut engine = Engine::new(Chain { remaining: 4 });
            engine.run_to_completion();
            engine.into_parts()
        };
        assert_eq!(model.remaining, 0);
    }

    #[test]
    fn clock_is_monotone() {
        struct Chain {
            times: Vec<f64>,
        }
        impl Model for Chain {
            type Event = u32;
            fn init(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.schedule(1.0, 0);
            }
            fn handle(&mut self, n: u32, ctx: &mut Context<'_, u32>) {
                self.times.push(ctx.now().as_ms());
                if n < 20 {
                    // Mixture of zero and positive delays.
                    ctx.schedule(if n.is_multiple_of(3) { 0.0 } else { 0.5 }, n + 1);
                }
            }
        }
        let mut engine = Engine::new(Chain { times: vec![] });
        engine.run_to_completion();
        let times = &engine.model().times;
        assert_eq!(times.len(), 21);
        for w in times.windows(2) {
            assert!(w[1] >= w[0], "clock went backwards: {w:?}");
        }
    }
}
