//! # DESP-rs — a discrete-event simulation kernel in the resource view
//!
//! Rust analog of **DESP-C++**, the simulation kernel the VOODB authors
//! wrote after finding QNAP2 (an interpreted simulation language) 20–1000×
//! too slow for their experiment campaign (§3.2.1 of *VOODB: A Generic
//! Discrete-Event Random Simulation Model to Evaluate the Performances of
//! OODBs*, VLDB 1999). Its stated design goals — *validity, simplicity and
//! efficiency* — carry over:
//!
//! * **validity** — deterministic event ordering, a monotone clock, and a
//!   [`queueing`] module that cross-checks the kernel against closed-form
//!   M/M/1 and M/M/c results (the paper cross-checked against QNAP2);
//! * **simplicity** — one trait ([`Model`]) and three concepts: events,
//!   the [`Engine`] clock/event-list, and passive [`Resource`]s with
//!   reserve/release semantics (Table 1 and Table 2 of the paper);
//! * **efficiency** — a compiled, allocation-light event loop; the
//!   end-to-end benchmark (`e2ebench/`) measures it as
//!   `desp.events_per_s` and `desp.hold_ns.*`.
//!
//! On top of the kernel sit the pieces every random-simulation study needs:
//! reproducible random [`streams`](random::StreamFamily) with the usual
//! distributions, [`stats`] for output analysis (Student-t confidence
//! intervals exactly as §4.2.2), and a [`replication`] driver implementing
//! the paper's pilot-study protocol.
//!
//! ## Example: a tiny queueing model
//!
//! ```
//! use desp::{Engine, Model, Context, Resource, SimTime};
//!
//! struct Checkout {
//!     till: Resource<Ev>,
//!     served: u32,
//! }
//!
//! #[derive(Clone, Copy)]
//! enum Ev { Arrive, Serve, Done }
//!
//! impl Model for Checkout {
//!     type Event = Ev;
//!     fn init(&mut self, ctx: &mut Context<'_, Ev>) {
//!         for i in 0..3 {
//!             ctx.schedule(i as f64, Ev::Arrive);
//!         }
//!     }
//!     fn handle(&mut self, ev: Ev, ctx: &mut Context<'_, Ev>) {
//!         match ev {
//!             Ev::Arrive => self.till.request(Ev::Serve, ctx),
//!             Ev::Serve => ctx.schedule(5.0, Ev::Done),
//!             Ev::Done => { self.served += 1; self.till.release(ctx); }
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Checkout { till: Resource::new("till", 1), served: 0 });
//! engine.run_to_completion();
//! assert_eq!(engine.model().served, 3);
//! assert_eq!(engine.now(), SimTime::from_ms(15.0));
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod probe;
pub mod queueing;
pub mod random;
pub mod replication;
pub mod resource;
pub mod sched;
pub mod stats;
pub mod time;

pub use engine::{Context, Engine, Model, RunOutcome, StopReason};
pub use probe::{NoProbe, Probe, ResourceId, SeriesId, SpanPoint, SpanStage};
pub use random::{RandomStream, StreamFamily, Xoshiro256, Zipf};
pub use replication::{MetricSet, ReplicationPolicy, ReplicationReport, Replicator};
pub use resource::Resource;
pub use sched::{
    key_time, time_key, CalendarKind, CalendarQueue, EventHeap, HeapKind, QueueKind, Scheduler,
    SchedulerKind, TimerWheel,
};
pub use stats::{ConfidenceInterval, TimeWeighted, Welford};
pub use time::SimTime;
