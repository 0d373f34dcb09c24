//! Kernel trace hooks.
//!
//! DESP-C++ collected a fixed statistics set per resource; anything
//! richer (per-transaction lifecycles, tail latencies, utilisation over
//! time) meant editing the kernel. This module inverts that: the kernel
//! and the model call a [`Probe`] at its interesting instants —
//! event scheduling, event dispatch, resource waits and grants, model
//! lifecycle span points and stages, and ad-hoc time-series samples —
//! and the probe decides what to retain.
//!
//! The probe is a *static* type parameter of
//! [`Engine`](crate::engine::Engine) and
//! [`Context`](crate::engine::Context), defaulting to [`NoProbe`] whose
//! hook bodies are empty: monomorphisation compiles every call site out
//! of untraced runs, so enabling the hook seam costs ~zero when unused
//! (measured, not asserted: the end-to-end benchmark's
//! `vtrace.overhead_pct` prices a traced sweep against an untraced one,
//! and CI caps it at 10%). A recording implementation
//! lives in the `voodb-trace` crate.
//!
//! All instants are simulated milliseconds ([`SimTime::as_ms`]
//! values); the kernel never hands a probe wall-clock time.
//!
//! [`SimTime::as_ms`]: crate::time::SimTime::as_ms

/// A point in a traced transaction's lifecycle: the instants that open,
/// split, restart and close a span. What happens between admission and
/// commit (the Fig. 4 pipeline: lock → CPU → buffer/disk → network)
/// arrives as accumulated [`SpanStage`] values instead.
///
/// Models emit these through
/// [`Context::emit_span`](crate::engine::Context::emit_span), keyed by a
/// caller-chosen transaction id; a probe that only cares about
/// end-to-end latency can watch `Submit` and `Committed` alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanPoint {
    /// The transaction was submitted by its user.
    Submit,
    /// The MPL scheduler admitted it.
    Admitted,
    /// The transaction was aborted and will restart (deadlock victim).
    Restart,
    /// The transaction committed; the span is complete.
    Committed,
}

/// One accumulated stage of a traced transaction, reported as a
/// *valued* duration via
/// [`Context::emit_span_stage`](crate::engine::Context::emit_span_stage).
///
/// The model knows both endpoints of each stage (request → grant,
/// grant → completion), so it accumulates the elapsed durations itself
/// and reports each stage as one `on_span_stage` call carrying the
/// total — a handful of hook calls per transaction instead of two or
/// three per access, which is what keeps the recording overhead in
/// budget on the per-access hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanStage {
    /// Time parked waiting for a lock (request → grant).
    LockWait,
    /// CPU holding time (grant → release).
    Cpu,
    /// Wait for the disk resource (request → grant).
    DiskWait,
    /// Disk service time (grant → completion).
    DiskService,
    /// Wait for the network resource (request → grant).
    NetWait,
    /// Network transfer time (grant → completion).
    NetService,
    /// Completed object accesses (a count, not milliseconds).
    Accesses,
}

/// Interned handle for a named time series, resolved once per phase by
/// [`Probe::intern_series`] so the per-sample hot path never touches a
/// string key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SeriesId(pub u32);

impl SeriesId {
    /// Sentinel for "not interned": probes ignore samples carrying it.
    pub const INVALID: SeriesId = SeriesId(u32::MAX);
}

/// Interned handle for a named resource, resolved once per phase by
/// [`Probe::intern_resource`] so queue/grant hooks never touch a string
/// key on the dispatch path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ResourceId(pub u32);

impl ResourceId {
    /// Sentinel for "not interned": probes ignore hooks carrying it.
    pub const INVALID: ResourceId = ResourceId(u32::MAX);
}

/// Receiver of kernel and model trace events.
///
/// Every method has an empty default body, so an implementation retains
/// only what it cares about. Implementations must not assume any
/// particular call order beyond what the emitting model guarantees.
///
/// Name resolution is split out of the hot path: callers intern a
/// series or resource name once (per phase) via [`Probe::intern_series`]
/// / [`Probe::intern_resource`] and pass the returned handle to every
/// subsequent hook. Implementations that don't retain names keep the
/// default intern bodies (returning the `INVALID` sentinels) and
/// ignore or count the id-carrying hooks as they see fit.
pub trait Probe {
    /// `false` for [`NoProbe`]. Instrumentation sites guard
    /// argument computation that is not free (hash-map walks, ratios)
    /// behind this constant so disabled probes pay nothing at all.
    const ENABLED: bool = true;

    /// Resolves a time-series name to a stable handle for this probe.
    /// Called outside the hot path (phase start, or first use).
    fn intern_series(&mut self, name: &str) -> SeriesId {
        let _ = name;
        SeriesId::INVALID
    }

    /// Resolves a resource name to a stable handle for this probe.
    /// Called outside the hot path (phase start, or first use).
    fn intern_resource(&mut self, name: &str) -> ResourceId {
        let _ = name;
        ResourceId::INVALID
    }

    /// An event was scheduled at instant `at` (current instant `now`).
    fn on_schedule(&mut self, now: f64, at: f64) {
        let _ = (now, at);
    }

    /// How often this probe wants [`Probe::on_dispatch`]: the engine
    /// invokes the hook on every `interval`-th dispatch only (1 ⇒ every
    /// dispatch). Read once at engine construction, so the decimation
    /// countdown lives in a register of the dispatch loop instead of a
    /// load-decrement-store on probe memory for every event. Probes
    /// needing exact dispatch totals get them from
    /// [`Probe::on_run_end`], not by counting this hook.
    fn dispatch_interval(&self) -> u64 {
        1
    }

    /// An event is about to be dispatched at `now`; `pending` events
    /// remain in the list after this one. Invoked on every
    /// [`Probe::dispatch_interval`]-th dispatch.
    fn on_dispatch(&mut self, now: f64, pending: usize) {
        let _ = (now, pending);
    }

    /// A request on `resource` found no free unit and queued;
    /// `queue_len` waiters are now in line (including this one).
    fn on_resource_enqueue(&mut self, resource: ResourceId, now: f64, queue_len: usize) {
        let _ = (resource, now, queue_len);
    }

    /// A unit of `resource` was granted after `waited_ms` in the queue
    /// (`0.0` for immediate grants).
    fn on_resource_grant(&mut self, resource: ResourceId, now: f64, waited_ms: f64) {
        let _ = (resource, now, waited_ms);
    }

    /// Transaction in slab slot `slot` (tagged with its stable `serial`)
    /// reached lifecycle point `point` at `now`. `slot` is dense and
    /// recycled, letting probes index open-span state by array slot;
    /// `serial` disambiguates successive occupants of the same slot.
    fn on_span(&mut self, slot: u32, serial: u64, point: SpanPoint, now: f64) {
        let _ = (slot, serial, point, now);
    }

    /// Transaction in slab slot `slot` (tagged with `serial`) accumulated
    /// `delta` of lifecycle stage `stage` — milliseconds for duration
    /// stages, a count for [`SpanStage::Accesses`]. Models skip
    /// zero-valued deltas entirely (adding `+0.0` is a bitwise no-op on
    /// the non-negative accumulators, so the folded span is identical).
    fn on_span_stage(&mut self, slot: u32, serial: u64, stage: SpanStage, delta: f64) {
        let _ = (slot, serial, stage, delta);
    }

    /// The model sampled time series `series` at `now` with `value`.
    fn on_sample(&mut self, series: SeriesId, now: f64, value: f64) {
        let _ = (series, now, value);
    }

    /// A run call (`step` / `run_to_completion` / `run_until` /
    /// `run_steps`) returned. `scheduled` and `dispatched` are the
    /// engine-lifetime totals (the event list only ever pushes and
    /// pops, so `scheduled = dispatched + still-pending`). Fires once
    /// per run call, letting probes report exact event totals without
    /// paying a counter increment inside the per-event hooks.
    fn on_run_end(&mut self, scheduled: u64, dispatched: u64) {
        let _ = (scheduled, dispatched);
    }
}

/// The do-nothing probe: every hook inlines to nothing, so an
/// `Engine<M>` (which defaults to this probe) runs the exact pre-hook
/// event loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;
}

/// A probe counting raw hook invocations, for the kernel's unit tests
/// asserting *that* instrumentation fires.
#[cfg(test)]
#[derive(Clone, Debug, Default)]
pub struct CountingProbe {
    /// `on_schedule` invocations.
    pub schedules: u64,
    /// `on_dispatch` invocations.
    pub dispatches: u64,
    /// `on_resource_enqueue` invocations.
    pub enqueues: u64,
    /// `on_resource_grant` invocations.
    pub grants: u64,
    /// `on_span` invocations.
    pub spans: u64,
    /// `on_span_stage` invocations.
    pub span_stages: u64,
    /// `on_sample` invocations.
    pub samples: u64,
}

#[cfg(test)]
impl Probe for CountingProbe {
    fn on_schedule(&mut self, _now: f64, _at: f64) {
        self.schedules += 1;
    }
    fn on_dispatch(&mut self, _now: f64, _pending: usize) {
        self.dispatches += 1;
    }
    fn on_resource_enqueue(&mut self, _resource: ResourceId, _now: f64, _queue_len: usize) {
        self.enqueues += 1;
    }
    fn on_resource_grant(&mut self, _resource: ResourceId, _now: f64, _waited_ms: f64) {
        self.grants += 1;
    }
    fn on_span(&mut self, _slot: u32, _serial: u64, _point: SpanPoint, _now: f64) {
        self.spans += 1;
    }
    fn on_span_stage(&mut self, _slot: u32, _serial: u64, _stage: SpanStage, _delta: f64) {
        self.span_stages += 1;
    }
    fn on_sample(&mut self, _series: SeriesId, _now: f64, _value: f64) {
        self.samples += 1;
    }
}
