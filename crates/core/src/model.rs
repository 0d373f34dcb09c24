//! The VOODB evaluation model.
//!
//! Systematic translation of the knowledge model (Fig. 4, Table 2): each
//! active resource is a component ([`crate::oman`], [`crate::bman`],
//! [`crate::cman`], [`crate::iosub`], the Users and Transaction Manager
//! logic below), each passive resource (Table 1) a [`desp::Resource`]
//! (the MPL scheduler, the server CPU, the disks, the network), and each
//! functioning rule a method invoked from the event handler.
//!
//! One object access flows exactly as in Fig. 4:
//!
//! ```text
//! Users ⇒ pull next transaction from the TransactionSource
//!       → Transaction Manager (admission via MPL scheduler, GETLOCK on
//!         first touch) → Object Manager (OID → page) → Buffering Manager
//!         (hit? miss → demand) → I/O Subsystem (Fig. 5 timing on the
//!         disk resource) → [network transfer for client-server classes]
//!         → access done → Clustering Manager statistics → next object
//! ```
//!
//! ## The streaming Users sub-model
//!
//! The Users component **pulls** transactions from an
//! [`ocb::TransactionSource`] one at a time instead of materializing a
//! phase up front: per-transaction state lives in a recycled
//! transaction slab ([`crate::txslab`]), so a phase holds O(in-flight)
//! transaction state — bounded by the user count (closed workloads) or
//! the arrival backlog (open workloads) — no matter how many
//! transactions it executes. Two arrival regimes ([`ocb::Arrival`])
//! drive submissions: the paper's **closed** think-time loop (`NUSERS`
//! users cycling think → submit → wait-for-commit) and **open** arrivals
//! (Poisson or deterministic interarrival, independent of completions).
//! Phases terminate either on a transaction **count** or on a simulated
//! **time horizon** with a warm-up window ([`PhaseMode`]).
//!
//! ### Scaling the user population
//!
//! Closed phases offer two representations of the same population
//! ([`ocb::UserModel`]): the **per-user** oracle (one `Submit` event and
//! one MPL wait-queue entry per user — the paper's literal sub-model)
//! and the **cohort** representation, which carries the whole
//! population as per-cohort wake clocks of 8-byte time keys — the
//! initial wakes in one run scattered into buckets by instant and
//! ordered lazily, resubmissions in a heap — with one live
//! [`Event::CohortWake`] each, an O(1) [`AdmissionRing`] of
//! submitted-but-unadmitted users, and a *deferred pull*: a waiting
//! user is not a slab slot plus a queued continuation event. A wake is
//! dispatched only while an MPL seat can be free: once users wait,
//! every wake before the next pending event is marked queued in its
//! clock and joins the ring as part of one run entry ("the next `n`
//! queued users of cohort `c`"), so a saturated million-user phase
//! dispatches thousands of events, not a million, and a waiting user
//! costs its 8-byte key. Buckets a split passes over are counted, never
//! sorted: a `users_1m` phase orders a few hundred of its million
//! initial wakes. Both representations draw
//! the think stream in the identical order, so they produce
//! bit-identical [`PhaseResult`]s (event counts aside), under either
//! concurrency control, whenever wake instants don't collide across
//! users — guaranteed for continuously distributed think times; the
//! zero-think degenerate case is pinned separately by the differential
//! tests.
//!
//! ### Events that decide nothing
//!
//! Following DESP-C++, every functioning rule is an event, but an
//! event certain to be dispatched next is not put on the event list:
//! the model does its work at once. One rule decides it,
//! [`desp::Context::advance_to`]: no event is pending at or before the
//! event's instant, the instant is within the run's horizon, and the run
//! was not stopped. Every step of an object access and of the commit
//! asks it in tail position: `StartAccess` → `LockCpu` → `LockHeld` →
//! `DiskGranted` → `DiskDone` → `NetGranted` → `NetDone` → `AccessDone`,
//! and `CommitCpu` → `Committed`. A step that requests a free resource
//! takes it with [`desp::Resource::try_acquire`] (recorded exactly as a
//! granting request) and runs the continuation inline; a timed step
//! advances the clock to `now + delay`, the instant the event would have
//! carried. The first step refused goes through the event list as
//! before. Each step function returns whether the access completed at
//! the instant the chain reached, and `run_hops` loops across accesses,
//! so a chain adds a constant depth of frames however long the
//! transaction. With one user in flight a transaction dispatches its
//! submission and its admission, nothing else.
//!
//! Saturated cohort wakes use the same proof in batch: the wakes before
//! the next pending event join the admission ring as one run
//! ([`desp::Context::next_event_time`] bounds it; see above). Either way
//! the simulation is unchanged: only [`PhaseResult::events`] counts
//! fewer dispatches.
//!
//! ### Determinism
//!
//! A phase is a pure function of `(base, params, seed)` regardless of
//! how it is driven: the workload stream and the think/arrival stream
//! are decorrelated [`RandomStream`]s, so lazy generation interleaving
//! with model events cannot perturb any draw — streamed and
//! materialized runs are bit-identical where they overlap
//! (count-based phases), as are traced and untraced runs (probes only
//! observe) and both event-list implementations (differential tests
//! assert all three). Trace spans and lock-manager timestamps use each
//! transaction's monotone submission serial, never its recycled slot
//! index, so slot reuse is invisible to every observer.
//!
//! Concurrency control has two modes ([`ConcurrencyControl`]). Under the
//! paper's `TimedOnly`, lock *conflicts* are not simulated: the model
//! charges only GETLOCK/RELLOCK CPU time, and the scheduler's
//! multiprogramming level is the concurrency limiter, per Table 1.
//! `TwoPhase` simulates them: shared/exclusive object locks with FIFO
//! waits, and wait-die deadlock victims restart after a backoff. In both
//! modes a page fetched by one transaction is immediately visible to
//! others (no in-flight fetch queue).

// Model hot path: the event handler and its rules run once per event, so
// a failure there must surface as a value, not an abort (the `hot-panic`
// rule). Construction- and load-time validation states its reason in an
// `#[expect]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::admission::AdmissionRing;
use crate::bman::BufferingManager;
use crate::cman::{ClusteringManager, SimReorgReport};
use crate::iosub::IoSubsystem;
use crate::lockmgr::{LockManager, LockMode, LockOutcome, LockStats};
use crate::oman::ObjectManager;
use crate::params::ConcurrencyControl;
use crate::params::{SystemClass, VoodbParams};
use crate::results::PhaseResult;
use crate::txslab::{Tid, TxSlab};
use crate::wakes::{CohortClock, ExpoWakes};
use bufmgr::IoCounts;
use bufmgr::PrefetchPolicy;
use desp::{
    key_time, time_key, Context, Model, Probe, QueueKind, RandomStream, Resource, SeriesId,
    SimTime, SpanPoint, SpanStage, Welford,
};
use ocb::{Arrival, MaterializedSource, ObjectBase, TransactionSource, UserCohort, UserModel};

/// `user` value marking open-arrival transactions (no user to resubmit).
pub(crate) const OPEN_USER: usize = usize::MAX;

/// Decorrelates the users' think/arrival stream from the workload
/// stream drawn under the same seed.
const THINK_SEED_SALT: u64 = 0x7454_494E_4B45_5221;

/// How a phase terminates and which window it measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PhaseMode {
    /// Execute the source to exhaustion; the first `cold` transactions
    /// are an unmeasured cold run (the paper's `COLDN`/`HOTN` protocol).
    Count {
        /// Submissions below this serial are unmeasured.
        cold: usize,
    },
    /// Run until simulated time `duration_ms`; measure commits from
    /// `warmup_ms` on. The phase may end mid-transaction: in-flight
    /// transactions are not counted, while their I/Os up to the horizon
    /// are (they happened inside the window).
    Horizon {
        /// Phase length, simulated ms.
        duration_ms: f64,
        /// Warm-up prefix excluded from measurement, simulated ms.
        warmup_ms: f64,
    },
}

/// Events of the evaluation model.
///
/// `Tid` payloads are **slot** indices into the transaction slab; no
/// event carrying a `Tid` survives past its transaction's commit, so
/// slot recycling can never route a stale event to a new transaction.
/// [`Event::LockResume`] is the one exception — the lock manager speaks
/// monotone serials — and resolves its serial to the live slot.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// A user submits its next transaction (closed workloads).
    Submit {
        /// The submitting user.
        user: usize,
    },
    /// The next open-system arrival (open workloads; reschedules itself
    /// until the source is exhausted or the horizon cuts it off).
    Arrive,
    /// The warm-up window of a [`PhaseMode::Horizon`] phase ends; the
    /// measurement marks are snapped here.
    MeasureStart,
    /// The MPL scheduler admitted the transaction.
    Admitted(Tid),
    /// Process the transaction's next access (or commit).
    StartAccess(Tid),
    /// CPU granted for lock acquisition.
    LockCpu(Tid),
    /// Lock acquisition time elapsed.
    LockHeld(Tid),
    /// Disk granted for the access's I/O batch.
    DiskGranted(Tid),
    /// The I/O batch completed.
    DiskDone(Tid),
    /// Network granted for the access's transfer.
    NetGranted(Tid),
    /// The network transfer completed.
    NetDone(Tid),
    /// The object access is complete.
    AccessDone(Tid),
    /// CPU granted for commit-time lock releases.
    CommitCpu(Tid),
    /// The transaction committed.
    Committed(Tid),
    /// Disk granted for an automatically triggered reorganisation.
    ReorgGranted {
        /// User whose next submission waits for the reorganisation.
        user: usize,
    },
    /// The reorganisation completed.
    ReorgDone {
        /// User whose next submission was waiting.
        user: usize,
    },
    /// A cohort's earliest pending think time elapses (cohort user
    /// model): every wake due now submits in time order, initial wakes
    /// before resubmissions. If every MPL seat is then busy (the
    /// admission ring is non-empty), the wakes before the next pending
    /// event join the ring in the same pass, each stamped with its own
    /// instant. The cohort then re-arms at its new minimum. One wake
    /// per cohort is live; one superseded by an earlier arm is dropped
    /// when it fires. Initial wakes come from a sorted run,
    /// resubmissions from a heap.
    CohortWake {
        /// Index into the resolved cohort table.
        cohort: u32,
        /// Arm epoch; a phase reload bumps it, orphaning in-flight wakes.
        epoch: u32,
    },
    /// A parked transaction's lock was granted; continue its access.
    /// Carries the transaction's **serial** (the lock manager's
    /// identity), resolved to its live slot at dispatch.
    LockResume(usize),
    /// A deadlock victim restarts from its first access.
    TxRestart(Tid),
}

/// A zero-delay step of one object access, run inline when it is
/// certain to be dispatched next (see `VoodbModel::run_hops`).
#[derive(Clone, Copy, Debug)]
enum AccessHop {
    /// [`Event::StartAccess`]: the next access (or the commit) starts.
    StartAccess,
    /// [`Event::AccessDone`]: the current access completed.
    AccessDone,
}

/// The VOODB evaluation model, generic over the Table 3 parameters.
///
/// Drive it through [`crate::experiment::Simulation`], which handles
/// multi-phase studies (cold/warm runs, external clustering demands).
pub struct VoodbModel<'a> {
    base: &'a ObjectBase,
    params: VoodbParams,
    /// The Users sub-model's transaction stream for the current phase.
    source: Box<dyn TransactionSource + 'a>,
    /// True once the source declined a pull.
    exhausted: bool,
    /// Termination/measurement regime of the current phase.
    mode: PhaseMode,
    /// Arrival process of the current phase.
    arrival: Arrival,
    // ----- active resources (components) -----
    oman: ObjectManager,
    bman: Vec<BufferingManager>,
    cman: ClusteringManager,
    iosub: Vec<IoSubsystem>,
    prefetcher: Box<dyn PrefetchPolicy>,
    // ----- passive resources (Table 1) -----
    scheduler: Resource<Event>,
    cpu: Resource<Event>,
    disks: Vec<Resource<Event>>,
    network: Resource<Event>,
    // ----- users -----
    think_stream: RandomStream,
    think_time_ms: f64,
    /// Representation of the closed user population.
    user_model: UserModel,
    /// Resolved cohort table — never empty: one implicit cohort of
    /// (`params.users`, `think_time_ms`) when none are configured.
    cohorts: Vec<UserCohort>,
    /// First user index of each cohort (per-user think-time lookup).
    cohort_starts: Vec<usize>,
    /// Total closed population (sum of cohort sizes).
    user_total: usize,
    /// Per-cohort wake state (cohort user model).
    clocks: Vec<CohortClock>,
    /// Submitted-but-unadmitted users (cohort user model): the O(1)
    /// FIFO standing in for the MPL scheduler's per-event wait queue.
    ring: AdmissionRing,
    /// The open half of the arrival process, resolved at phase load.
    open_arrival: Option<OpenArrival>,
    // ----- bookkeeping -----
    slab: TxSlab,
    next_serial: usize,
    completed: usize,
    measured_completed: usize,
    response: Welford,
    measure_started: bool,
    io_mark: IoCounts,
    hits_mark: (u64, u64),
    measure_start: SimTime,
    phase_end: SimTime,
    reorgs: Vec<SimReorgReport>,
    locks: LockManager,
    aborts: u64,
    /// Probe series handles, re-interned at every phase start (probes
    /// are swapped per phase) so commit-time sampling never walks a
    /// string-keyed map.
    series_ids: SeriesIds,
}

/// Interned probe handles for the commit-time sample series.
#[derive(Clone, Copy)]
struct SeriesIds {
    hit_ratio: SeriesId,
    active_transactions: SeriesId,
    mpl_queue: SeriesId,
    disk_utilization: SeriesId,
    network_utilization: SeriesId,
}

impl Default for SeriesIds {
    fn default() -> Self {
        SeriesIds {
            hit_ratio: SeriesId::INVALID,
            active_transactions: SeriesId::INVALID,
            mpl_queue: SeriesId::INVALID,
            disk_utilization: SeriesId::INVALID,
            network_utilization: SeriesId::INVALID,
        }
    }
}

/// The open half of [`Arrival`], resolved once at phase load. `None`
/// means a closed phase, whose `Arrive` loop is never started — the
/// open-arrival draw cannot observe a closed phase by construction.
#[derive(Clone, Copy, Debug)]
enum OpenArrival {
    /// Poisson arrivals with the given mean interarrival time.
    Poisson {
        /// Mean interarrival time, ms.
        mean_ms: f64,
    },
    /// A deterministic arrival pulse.
    Deterministic {
        /// Fixed interarrival time, ms.
        interarrival_ms: f64,
    },
}

impl<'a> VoodbModel<'a> {
    /// Builds the model over `base` with the Table 3 parameters and the
    /// users' think time (OCB `THINKTIME`).
    ///
    /// # Panics
    /// Panics if the parameters are invalid.
    pub fn new(base: &'a ObjectBase, params: VoodbParams, think_time_ms: f64, seed: u64) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "construction-time validation, never on the dispatch path"
        )]
        params.validate().expect("invalid VOODB parameters");
        let placement = params.initial_placement.build(base, params.page_size);
        let oman = ObjectManager::new(&placement);
        let sites = params.system_class.server_count();
        let per_site = (params.buffer_pages / sites).max(2);
        let bman = (0..sites)
            .map(|_| {
                if params.swizzle {
                    BufferingManager::swizzling(per_site)
                } else {
                    BufferingManager::standard(per_site, params.page_replacement)
                }
            })
            .collect();
        let iosub = (0..sites).map(|_| IoSubsystem::new(params.disk)).collect();
        let disks = (0..sites)
            .map(|i| Resource::new(format!("disk-{i}"), 1))
            .collect();
        let cman = ClusteringManager::new(&params.clustering);
        let prefetcher = params.prefetch.build();
        VoodbModel {
            base,
            scheduler: Resource::new("scheduler", params.multiprogramming_level),
            cpu: Resource::new("cpu", 1),
            network: Resource::new("network", 1),
            oman,
            bman,
            cman,
            iosub,
            disks,
            prefetcher,
            think_stream: RandomStream::new(seed ^ THINK_SEED_SALT),
            think_time_ms,
            user_model: UserModel::default(),
            cohorts: vec![UserCohort {
                size: params.users,
                think_time_ms,
            }],
            cohort_starts: vec![0],
            user_total: params.users,
            clocks: vec![CohortClock::default()],
            ring: AdmissionRing::new(),
            open_arrival: None,
            params,
            source: Box::new(MaterializedSource::new(Vec::new())),
            exhausted: false,
            mode: PhaseMode::Count { cold: 0 },
            arrival: Arrival::Closed,
            slab: TxSlab::new(),
            next_serial: 0,
            completed: 0,
            measured_completed: 0,
            response: Welford::default(),
            measure_started: false,
            io_mark: IoCounts::default(),
            hits_mark: (0, 0),
            measure_start: SimTime::ZERO,
            phase_end: SimTime::ZERO,
            reorgs: Vec::new(),
            locks: LockManager::new(),
            aborts: 0,
            series_ids: SeriesIds::default(),
        }
    }

    /// Lock-manager counters (meaningful under
    /// [`ConcurrencyControl::TwoPhase`]).
    // audit: the lock counters' only reader; `tests/concurrency.rs` pins them
    pub fn lock_stats(&self) -> LockStats {
        self.locks.stats()
    }

    /// Deadlock aborts (and restarts) so far.
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Selects the closed-population representation and (optionally) an
    /// explicit cohort partition. An empty `cohorts` slice keeps the
    /// single implicit cohort of (`users`, think time); a non-empty one
    /// overrides the population with the sum of cohort sizes — for
    /// **both** user models, so they stay differential.
    ///
    /// # Panics
    /// Panics if a cohort is invalid.
    pub fn set_user_population(&mut self, user_model: UserModel, cohorts: &[UserCohort]) {
        for cohort in cohorts {
            #[expect(
                clippy::expect_used,
                reason = "configuration-time validation, never on the dispatch path"
            )]
            cohort.validate().expect("invalid user cohort");
        }
        self.user_model = user_model;
        if cohorts.is_empty() {
            self.cohorts = vec![UserCohort {
                size: self.params.users,
                think_time_ms: self.think_time_ms,
            }];
        } else {
            self.cohorts = cohorts.to_vec();
        }
        self.cohort_starts.clear();
        let mut start = 0usize;
        for cohort in &self.cohorts {
            self.cohort_starts.push(start);
            start += cohort.size;
        }
        self.user_total = start;
        self.clocks = (0..self.cohorts.len())
            .map(|_| CohortClock::default())
            .collect();
    }

    /// The closed population size (sum of cohort sizes).
    pub fn user_count(&self) -> usize {
        self.user_total
    }

    /// Peak number of users simultaneously waiting for an MPL seat in
    /// the cohort admission ring (cohort user model). A waiting user
    /// costs its 8-byte wake key, kept queued in its cohort's clock.
    pub fn admission_high_water(&self) -> usize {
        self.ring.high_water()
    }

    /// Continues an access once its lock is held: GETLOCK CPU on first
    /// touch, then the storage pipeline. Returns true when the access
    /// completed at this instant (see [`Self::access_storage`]).
    #[must_use]
    fn after_lock_granted<P: Probe, Q: QueueKind>(
        &mut self,
        tid: Tid,
        ctx: &mut Context<'_, Event, P, Q>,
    ) -> bool {
        let needs_lock_time = self.slab.get_mut(tid).lock();
        if needs_lock_time && self.params.get_lock_ms > 0.0 {
            seize(&mut self.cpu, Event::LockCpu(tid), ctx) && self.lock_cpu(tid, ctx)
        } else {
            self.access_storage(tid, ctx)
        }
    }

    /// [`Event::LockResume`]: a parked lock request was granted. Its wait
    /// (grant instant minus the instant it was queued) goes into the
    /// LockWait stage; a lock granted at request time waits nothing.
    #[must_use]
    fn lock_resumed<P: Probe, Q: QueueKind>(
        &mut self,
        tid: Tid,
        ctx: &mut Context<'_, Event, P, Q>,
    ) -> bool {
        if ctx.tracing() {
            let t = self.slab.get_mut(tid);
            t.marks.lap(SpanStage::LockWait, ctx.now().as_ms());
        }
        self.after_lock_granted(tid, ctx)
    }

    /// [`Event::LockCpu`]: the CPU is granted for GETLOCK, held for
    /// `get_lock_ms`. Returns true when the access completed at the
    /// instant the step chain reached.
    #[must_use]
    fn lock_cpu<P: Probe, Q: QueueKind>(
        &mut self,
        tid: Tid,
        ctx: &mut Context<'_, Event, P, Q>,
    ) -> bool {
        let t = self.slab.get_mut(tid);
        t.holding_cpu = true;
        if ctx.tracing() {
            t.marks.start(ctx.now().as_ms());
        }
        advance_or_schedule(self.params.get_lock_ms, Event::LockHeld(tid), ctx)
            && self.lock_held(tid, ctx)
    }

    /// [`Event::LockHeld`]: the lock time elapsed; the CPU is released
    /// and the storage pipeline starts.
    #[must_use]
    fn lock_held<P: Probe, Q: QueueKind>(
        &mut self,
        tid: Tid,
        ctx: &mut Context<'_, Event, P, Q>,
    ) -> bool {
        let t = self.slab.get_mut(tid);
        t.holding_cpu = false;
        if ctx.tracing() {
            t.marks.lap(SpanStage::Cpu, ctx.now().as_ms());
        }
        self.cpu.release(ctx);
        self.access_storage(tid, ctx)
    }

    /// Deadlock victim: release everything, restart from the top after a
    /// backoff (the victim keeps its scheduler slot — a restart, not a
    /// resubmission).
    fn abort_and_restart<P: Probe, Q: QueueKind>(
        &mut self,
        tid: Tid,
        backoff_ms: f64,
        ctx: &mut Context<'_, Event, P, Q>,
    ) {
        let serial = self.slab.get(tid).serial;
        ctx.emit_span(tid as u32, serial as u64, SpanPoint::Restart);
        self.aborts += 1;
        let resumed = self.locks.release_all(serial);
        for other in resumed {
            ctx.schedule_now(Event::LockResume(other));
        }
        let t = self.slab.get_mut(tid);
        if ctx.tracing() {
            // The pass's completed accesses count: the restart redoes them.
            t.marks.accesses += t.pos as u64;
        }
        t.pos = 0;
        t.lock_count = 0;
        ctx.schedule(backoff_ms, Event::TxRestart(tid));
    }

    /// The model parameters.
    pub fn params(&self) -> &VoodbParams {
        &self.params
    }

    /// The Object Manager (page map inspection).
    pub fn oman(&self) -> &ObjectManager {
        &self.oman
    }

    /// Total I/Os over all server sites.
    pub fn total_io(&self) -> IoCounts {
        let mut total = IoCounts::default();
        for io in &self.iosub {
            total.reads += io.counts().reads;
            total.writes += io.counts().writes;
        }
        total
    }

    fn total_hits_misses(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for b in &self.bman {
            hits += b.stats().hits;
            misses += b.stats().misses;
        }
        (hits, misses)
    }

    /// Loads a phase: `transactions` with the first `cold_count` unmeasured.
    /// Resets phase bookkeeping but **keeps** buffer/placement/statistics
    /// state (a warm continuation; flush explicitly for a cold restart).
    #[cfg(test)]
    pub fn load_phase(&mut self, transactions: Vec<ocb::Transaction>, cold_count: usize) {
        assert!(cold_count <= transactions.len());
        self.load_phase_streamed(
            Box::new(MaterializedSource::new(transactions)),
            PhaseMode::Count { cold: cold_count },
            Arrival::Closed,
        );
    }

    /// Loads a streamed phase: the Users sub-model pulls from `source`
    /// under the given termination `mode` and `arrival` process. Resets
    /// phase bookkeeping but **keeps** buffer/placement/statistics state
    /// (a warm continuation; flush explicitly for a cold restart).
    ///
    /// # Panics
    /// Panics on an invalid horizon window or arrival process.
    pub fn load_phase_streamed(
        &mut self,
        source: Box<dyn TransactionSource + 'a>,
        mode: PhaseMode,
        arrival: Arrival,
    ) {
        match mode {
            PhaseMode::Horizon {
                duration_ms,
                warmup_ms,
            } => {
                assert!(
                    duration_ms > 0.0 && (0.0..duration_ms).contains(&warmup_ms),
                    "invalid horizon window (duration {duration_ms}, warmup {warmup_ms})"
                );
            }
            PhaseMode::Count { .. } => {
                assert!(
                    source.remaining().is_some(),
                    "a count-based phase needs a bounded source \
                     (use PhaseMode::Horizon for unbounded streams)"
                );
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "phase-load validation, never on the dispatch path"
        )]
        arrival.validate().expect("invalid arrival process");
        // A horizon phase may have been cut mid-transaction: the cut
        // transactions die with the slab, so their lock entries and
        // seized resource seats (MPL scheduler, CPU, disks, network)
        // must die too or they would leak into this phase. After a
        // fully drained phase all of this is already empty/idle, so
        // drained multi-phase runs are untouched bit for bit.
        self.locks = LockManager::new();
        for resource in std::iter::once(&mut self.scheduler)
            .chain(std::iter::once(&mut self.cpu))
            .chain(std::iter::once(&mut self.network))
            .chain(self.disks.iter_mut())
        {
            if resource.busy() > 0 || resource.queue_len() > 0 {
                *resource = Resource::new(resource.name().to_owned(), resource.capacity());
            }
        }
        self.source = source;
        self.exhausted = false;
        self.mode = mode;
        self.arrival = arrival;
        // Resolve the open half once: closed phases carry `None`, so
        // the open-arrival draw has no closed case to reach.
        self.open_arrival = match arrival {
            Arrival::Closed => None,
            Arrival::Poisson { rate_per_sec } => Some(OpenArrival::Poisson {
                mean_ms: 1000.0 / rate_per_sec,
            }),
            Arrival::Deterministic { interarrival_ms } => {
                Some(OpenArrival::Deterministic { interarrival_ms })
            }
        };
        self.ring.clear();
        for clock in &mut self.clocks {
            clock.reset();
        }
        self.slab.reset();
        self.next_serial = 0;
        self.completed = 0;
        self.measured_completed = 0;
        self.response = Welford::default();
        self.measure_started = false;
        self.io_mark = self.total_io();
        self.hits_mark = self.total_hits_misses();
        self.measure_start = SimTime::ZERO;
        self.phase_end = SimTime::ZERO;
        self.reorgs.clear();
    }

    /// Closes the measurement window of a [`PhaseMode::Horizon`] phase at
    /// `end` (the engine's stop instant: the horizon, or earlier if a
    /// bounded source drained). A no-op for count-based phases, whose
    /// window ends at the last commit. Call after the engine run, before
    /// [`Self::phase_result`].
    pub fn finalize_phase(&mut self, end: SimTime) {
        if matches!(self.mode, PhaseMode::Horizon { .. }) {
            self.phase_end = end;
            if !self.measure_started {
                // The run ended inside the warm-up: an empty window.
                self.measure_start = end;
            }
        }
    }

    /// Peak simultaneous in-flight transactions of the current phase —
    /// the O(MPL) memory guarantee of the streaming pipeline, in units
    /// of slab slots.
    pub fn tx_slab_high_water(&self) -> usize {
        self.slab.high_water()
    }

    /// Empties every buffer (cold restart between phases).
    pub fn flush_buffers(&mut self) {
        for site in 0..self.bman.len() {
            let dirty = self.bman[site].flush_all();
            for page in dirty {
                self.iosub[site].write(page);
            }
        }
    }

    /// Performs an externally demanded reorganisation (the knowledge
    /// model's *external triggering* path), between phases.
    pub fn external_reorganize(&mut self) -> SimReorgReport {
        self.cman.reorganize(
            self.base,
            &mut self.oman,
            &mut self.bman[0],
            &mut self.iosub[0],
        )
    }

    /// Extracts the finished phase's results. Call after the engine run.
    pub fn phase_result(&self, events: u64) -> PhaseResult {
        let io = self.total_io().since(self.io_mark);
        let (hits, misses) = self.total_hits_misses();
        let (h0, m0) = self.hits_mark;
        let (dh, dm) = (hits - h0, misses - m0);
        let window_ms = (self.phase_end.saturating_since(self.measure_start)).as_ms();
        PhaseResult {
            transactions: self.measured_completed,
            io,
            mean_response_ms: self.response.mean(),
            throughput_tps: if window_ms > 0.0 {
                self.measured_completed as f64 / (window_ms / 1000.0)
            } else {
                0.0
            },
            hit_ratio: if dh + dm == 0 {
                0.0
            } else {
                dh as f64 / (dh + dm) as f64
            },
            sim_elapsed_ms: window_ms,
            events,
            reorgs: self.reorgs.clone(),
        }
    }

    /// One think-time draw with mean `mean_ms`. A zero mean draws
    /// nothing from the stream, so zero-think cohorts stay
    /// bit-compatible with the historical `think_time_ms == 0` path.
    fn draw_think(stream: &mut RandomStream, mean_ms: f64) -> f64 {
        if mean_ms > 0.0 {
            stream.expo(mean_ms)
        } else {
            0.0
        }
    }

    /// The cohort a user index belongs to (per-user oracle lookup;
    /// cohorts are contiguous user ranges).
    fn cohort_of_user(&self, user: usize) -> usize {
        self.cohort_starts.partition_point(|&start| start <= user) - 1
    }

    /// Delay until the next open-system arrival. Draws from the users'
    /// stream (the arrival process *is* the open Users sub-model).
    fn open_delay(&mut self, open: OpenArrival) -> f64 {
        match open {
            OpenArrival::Poisson { mean_ms } => self.think_stream.expo(mean_ms),
            OpenArrival::Deterministic { interarrival_ms } => interarrival_ms,
        }
    }

    /// Users activity: pull the next transaction from the source into a
    /// recycled slab slot and submit it for admission. Returns `false`
    /// when the source is exhausted (the submitting loop stops).
    fn spawn_transaction<P: Probe, Q: QueueKind>(
        &mut self,
        user: usize,
        ctx: &mut Context<'_, Event, P, Q>,
    ) -> bool {
        if self.exhausted {
            return false;
        }
        let tid = self.slab.acquire();
        // Disjoint field borrows: the source fills the slot's buffer.
        if !self.source.next_into(self.slab.tx_buf_mut(tid)) {
            self.slab.abandon(tid);
            self.exhausted = true;
            return false;
        }
        let serial = self.next_serial;
        self.next_serial += 1;
        let measured = match self.mode {
            PhaseMode::Count { cold } => serial >= cold,
            // Horizon phases decide at commit time (warm-up window).
            PhaseMode::Horizon { .. } => false,
        };
        self.slab.commit(tid, serial, user, ctx.now(), measured);
        ctx.emit_span(tid as u32, serial as u64, SpanPoint::Submit);
        // Transaction Manager admission through the scheduler (MPL).
        self.scheduler.request(Event::Admitted(tid), ctx);
        true
    }

    /// Arms one engine [`Event::CohortWake`] at cohort `c`'s earliest
    /// pending instant, unless an armed wake already covers it.
    fn arm_cohort<P: Probe, Q: QueueKind>(&mut self, c: usize, ctx: &mut Context<'_, Event, P, Q>) {
        let clock = &mut self.clocks[c];
        if let Some(at) = clock.arm() {
            ctx.schedule_at(
                at,
                Event::CohortWake {
                    cohort: c as u32,
                    epoch: clock.epoch,
                },
            );
        }
    }

    /// Handles cohort `c`'s wakes due at `now_key`, in the order the
    /// per-user oracle would dispatch the same users' `Submit` events
    /// (see `CohortClock`). Each takes a free MPL seat, if one is left
    /// (the pull is deferred — the transaction materializes only at
    /// admission); the rest join the admission ring.
    fn drain_cohort_wakes<P: Probe, Q: QueueKind>(
        &mut self,
        c: usize,
        now_key: u64,
        ctx: &mut Context<'_, Event, P, Q>,
    ) {
        let now = ctx.now();
        while !self.exhausted
            && self.clocks[c].peek().is_some_and(|key| key <= now_key)
            && self.scheduler.try_acquire(ctx)
        {
            self.clocks[c].pop();
            self.admit_cohort_user(c as u32, now, ctx);
        }
        if self.exhausted {
            // Nobody will be admitted: the due wakes are dropped.
            while self.clocks[c].peek().is_some_and(|key| key <= now_key) {
                self.clocks[c].pop();
            }
        } else {
            self.queue_saturated_wakes(c, now_key, ctx);
        }
    }

    /// Queues cohort `c`'s wakes that would otherwise each cost a
    /// [`Event::CohortWake`] that only joins the admission ring, as one
    /// ring run; their keys stay queued in the clock until admitted.
    /// While users wait, every MPL seat is busy, so a wake dispatched
    /// before anything else happens fails its `try_acquire` (which
    /// records nothing) and joins the ring. That holds for the wakes due
    /// now that found no seat, and for every wake strictly before the
    /// next pending event (an event already pending at the same instant
    /// outranks a re-armed wake) and no later than a horizon phase's end
    /// (the engine never dispatches past it). Each is stamped with its
    /// own instant at admission, so response times and spans are those
    /// of the wake-by-wake dispatch.
    fn queue_saturated_wakes<P: Probe, Q: QueueKind>(
        &mut self,
        c: usize,
        now_key: u64,
        ctx: &mut Context<'_, Event, P, Q>,
    ) {
        let due_now = self.clocks[c].peek().is_some_and(|key| key <= now_key);
        if self.ring.is_empty() && !due_now {
            return;
        }
        let before = ctx
            .next_event_time()
            .map_or(u64::MAX, |at| time_key(at.as_ms()));
        let last = match self.mode {
            PhaseMode::Horizon { duration_ms, .. } => time_key(duration_ms),
            PhaseMode::Count { .. } => u64::MAX,
        };
        let bound = before.max(now_key + 1).min(last.saturating_add(1));
        let users = self.clocks[c].queue_below(bound);
        self.ring.push_run(c as u32, users);
    }

    /// Admission of a cohort user that holds a freshly acquired MPL
    /// seat: pull the next transaction into a slab slot and start it.
    /// The `Submit` span is back-dated to the submission instant and
    /// the slab's `user` field carries the cohort index (all a
    /// resubmission needs). If the source is exhausted, the seat goes
    /// back and the remaining ring — unservable forever — is dropped.
    fn admit_cohort_user<P: Probe, Q: QueueKind>(
        &mut self,
        cohort: u32,
        submitted: SimTime,
        ctx: &mut Context<'_, Event, P, Q>,
    ) {
        let tid = self.slab.acquire();
        if !self.source.next_into(self.slab.tx_buf_mut(tid)) {
            self.slab.abandon(tid);
            self.exhausted = true;
            self.scheduler.release(ctx);
            // Every waiting user is unservable: drop the ring's entries
            // and the queued keys behind its runs.
            self.ring.clear();
            for clock in &mut self.clocks {
                clock.drop_queued();
            }
            return;
        }
        let serial = self.next_serial;
        self.next_serial += 1;
        let measured = match self.mode {
            PhaseMode::Count { cold } => serial >= cold,
            // Horizon phases decide at commit time (warm-up window).
            PhaseMode::Horizon { .. } => false,
        };
        self.slab
            .commit(tid, serial, cohort as usize, submitted, measured);
        ctx.emit_span_at(submitted, tid as u32, serial as u64, SpanPoint::Submit);
        ctx.schedule_now(Event::Admitted(tid));
    }

    /// A commit freed an MPL seat (cohort user model): admit the
    /// longest-waiting user, if any — FIFO, exactly as the per-user wait
    /// queue would grant it. A run's next user is its cohort's earliest
    /// queued key. (The ring is empty once the source ran dry.)
    fn admit_from_ring<P: Probe, Q: QueueKind>(&mut self, ctx: &mut Context<'_, Event, P, Q>) {
        let clocks = &mut self.clocks;
        #[expect(
            clippy::expect_used,
            reason = "a run's users are queued keys of its cohort until popped here"
        )]
        let Some(entry) = self.ring.pop_front_with(|c| {
            let key = clocks[c as usize].pop_queued();
            key_time(key.expect("a ring run's cohort holds its queued keys"))
        }) else {
            return;
        };
        let granted = self.scheduler.try_acquire(ctx);
        debug_assert!(granted, "a just-released MPL seat must be grantable");
        self.admit_cohort_user(entry.cohort, entry.submitted, ctx);
    }

    /// Users activity after a commit (or a reorganisation) in a closed
    /// phase: the user thinks, then submits its next transaction. In
    /// cohort mode `user` carries the cohort index and the wake joins
    /// the cohort's resubmission heap instead of costing its own
    /// `Submit` event.
    fn resubmit_user<P: Probe, Q: QueueKind>(
        &mut self,
        user: usize,
        ctx: &mut Context<'_, Event, P, Q>,
    ) {
        match self.user_model {
            UserModel::PerUser => {
                let mean = self.cohorts[self.cohort_of_user(user)].think_time_ms;
                let delay = Self::draw_think(&mut self.think_stream, mean);
                ctx.schedule(delay, Event::Submit { user });
            }
            UserModel::Cohort => {
                let mean = self.cohorts[user].think_time_ms;
                let delay = Self::draw_think(&mut self.think_stream, mean);
                // `now + delay`: the identical float op `ctx.schedule`
                // applies, so wake instants match the oracle bitwise.
                let at = ctx.now() + delay;
                self.clocks[user].push(at);
                self.arm_cohort(user, ctx);
            }
        }
    }

    /// Buffering Manager + I/O Subsystem step for the current access.
    /// Returns true when the access completed at the instant the step
    /// chain reached (a hit needing no transfer, or a miss whose disk
    /// and network steps all ran inline): the caller owes it the
    /// [`AccessHop::AccessDone`] hop.
    #[must_use]
    fn access_storage<P: Probe, Q: QueueKind>(
        &mut self,
        tid: Tid,
        ctx: &mut Context<'_, Event, P, Q>,
    ) -> bool {
        let sites = self.bman.len();
        let t = self.slab.get_mut(tid);
        let (oid, write) = (t.current().oid, t.current().write);
        let page = self.oman.page_of(oid);
        // A single server site needs no division on the per-access path.
        let site_of = |page: u32| if sites == 1 { 0 } else { page as usize % sites };
        let site = site_of(page);
        t.io_writes.clear();
        t.io_reads.clear();
        let hit = self.bman[site].access_into(page, write, &mut t.io_writes, &mut t.io_reads);
        // Prefetching (Table 3 PREFETCH) on a miss.
        if !hit {
            let staged = self.prefetcher.after_miss(page, self.oman.page_count());
            for p in staged {
                if site_of(p) == site {
                    self.bman[site].prefetch(p, &mut t.io_writes, &mut t.io_reads);
                }
            }
        }
        if t.io_writes.is_empty() && t.io_reads.is_empty() {
            return self.leave_storage(tid, ctx);
        }
        t.pending_io = Some(site);
        if ctx.tracing() {
            t.marks.start(ctx.now().as_ms());
        }
        seize(&mut self.disks[site], Event::DiskGranted(tid), ctx) && self.disk_granted(tid, ctx)
    }

    /// [`Event::DiskGranted`]: the disk services the access's I/O batch.
    #[must_use]
    fn disk_granted<P: Probe, Q: QueueKind>(
        &mut self,
        tid: Tid,
        ctx: &mut Context<'_, Event, P, Q>,
    ) -> bool {
        let t = self.slab.get_mut(tid);
        if ctx.tracing() {
            t.marks.lap(SpanStage::DiskWait, ctx.now().as_ms());
        }
        #[expect(
            clippy::expect_used,
            reason = "the disk is requested only after pending_io is set"
        )]
        let site = t.pending_io.expect("pending I/O");
        let duration = self.iosub[site].service_batch(&t.io_writes, &t.io_reads);
        advance_or_schedule(duration, Event::DiskDone(tid), ctx) && self.disk_done(tid, ctx)
    }

    /// [`Event::DiskDone`]: the I/O batch completed; the disk is
    /// released and the page goes on to the network, if any.
    #[must_use]
    fn disk_done<P: Probe, Q: QueueKind>(
        &mut self,
        tid: Tid,
        ctx: &mut Context<'_, Event, P, Q>,
    ) -> bool {
        let t = self.slab.get_mut(tid);
        if ctx.tracing() {
            t.marks.lap(SpanStage::DiskService, ctx.now().as_ms());
        }
        #[expect(
            clippy::expect_used,
            reason = "set at the disk request, taken only here"
        )]
        let site = t.pending_io.take().expect("pending I/O site");
        self.disks[site].release(ctx);
        self.leave_storage(tid, ctx)
    }

    /// After the page is available: network shipping for client-server
    /// classes, then the access completes. Returns true when no
    /// transfer is needed, so the access completed at this instant.
    #[must_use]
    fn leave_storage<P: Probe, Q: QueueKind>(
        &mut self,
        tid: Tid,
        ctx: &mut Context<'_, Event, P, Q>,
    ) -> bool {
        let bytes = match self.params.system_class {
            SystemClass::Centralized => 0,
            SystemClass::PageServer | SystemClass::HybridMultiServer { .. } => {
                self.params.page_size as u64
            }
            SystemClass::ObjectServer | SystemClass::DbServer => {
                let t = self.slab.get(tid);
                self.base.object(t.current().oid).size as u64
            }
        };
        let ms = self.params.transfer_ms(bytes);
        if ms > 0.0 {
            let t = self.slab.get_mut(tid);
            t.pending_net = bytes;
            if ctx.tracing() {
                t.marks.start(ctx.now().as_ms());
            }
            seize(&mut self.network, Event::NetGranted(tid), ctx) && self.net_granted(tid, ctx)
        } else {
            true
        }
    }

    /// [`Event::NetGranted`]: the network ships the access's bytes.
    #[must_use]
    fn net_granted<P: Probe, Q: QueueKind>(
        &mut self,
        tid: Tid,
        ctx: &mut Context<'_, Event, P, Q>,
    ) -> bool {
        let t = self.slab.get_mut(tid);
        if ctx.tracing() {
            t.marks.lap(SpanStage::NetWait, ctx.now().as_ms());
        }
        let ms = self.params.transfer_ms(t.pending_net);
        advance_or_schedule(ms, Event::NetDone(tid), ctx) && self.net_done(tid, ctx)
    }

    /// [`Event::NetDone`]: the transfer completed, and with it the
    /// access (always true: the caller owes the access its
    /// [`AccessHop::AccessDone`] hop).
    #[must_use]
    fn net_done<P: Probe, Q: QueueKind>(
        &mut self,
        tid: Tid,
        ctx: &mut Context<'_, Event, P, Q>,
    ) -> bool {
        if ctx.tracing() {
            let t = self.slab.get_mut(tid);
            t.marks.lap(SpanStage::NetService, ctx.now().as_ms());
        }
        self.network.release(ctx);
        true
    }

    /// The transaction's next access, or its commit once all are done.
    /// Returns true when the access completed at this instant.
    #[must_use]
    fn start_access<P: Probe, Q: QueueKind>(
        &mut self,
        tid: Tid,
        ctx: &mut Context<'_, Event, P, Q>,
    ) -> bool {
        let (serial, done) = {
            let t = self.slab.get(tid);
            (t.serial, t.pos >= t.tx.accesses.len())
        };
        if done {
            self.begin_commit(tid, ctx);
            return false;
        }
        match self.params.concurrency {
            ConcurrencyControl::TimedOnly => self.after_lock_granted(tid, ctx),
            ConcurrencyControl::TwoPhase {
                restart_backoff_ms,
                deadlock,
            } => {
                let (oid, mode) = {
                    let t = self.slab.get(tid);
                    let access = t.current();
                    (
                        access.oid,
                        if access.write {
                            LockMode::Exclusive
                        } else {
                            LockMode::Shared
                        },
                    )
                };
                // The lock manager speaks serials: monotone, so
                // wait-die's age order survives slot recycling.
                match self.locks.request(serial, oid, mode, deadlock) {
                    LockOutcome::Granted => self.after_lock_granted(tid, ctx),
                    LockOutcome::Queued => {
                        // Parked: resumed by a LockResume when the
                        // conflicting holder releases.
                        if ctx.tracing() {
                            self.slab.get_mut(tid).marks.start(ctx.now().as_ms());
                        }
                        false
                    }
                    LockOutcome::Deadlock => {
                        self.abort_and_restart(tid, restart_backoff_ms, ctx);
                        false
                    }
                }
            }
        }
    }

    /// The object access is complete: advance to the next one and let
    /// the Clustering Manager observe the traversal.
    fn finish_access(&mut self, tid: Tid) {
        let t = self.slab.get_mut(tid);
        let access = *t.current();
        t.pos += 1;
        self.cman.observe(access.parent, access.oid);
    }

    /// Runs `tid`'s zero-delay access hops, starting with `hop`, inline
    /// for as long as [`Context::advance_to`] at the current instant
    /// proves each is the next event dispatched; running it here is the
    /// same simulation with one event-list round trip fewer. The first
    /// hop that would queue behind a pending event goes through the
    /// event list; a step that waits on a resource, a lock or a later
    /// event ends the chain, as does the commit. A loop, not
    /// recursion: each access adds a constant chain of step frames
    /// below this one, and unwinds it before the next, however many
    /// accesses the transaction has.
    fn run_hops<P: Probe, Q: QueueKind>(
        &mut self,
        tid: Tid,
        mut hop: AccessHop,
        ctx: &mut Context<'_, Event, P, Q>,
    ) {
        loop {
            if !ctx.advance_to(ctx.now()) {
                ctx.schedule_now(match hop {
                    AccessHop::StartAccess => Event::StartAccess(tid),
                    AccessHop::AccessDone => Event::AccessDone(tid),
                });
                return;
            }
            match hop {
                AccessHop::StartAccess => {
                    if !self.start_access(tid, ctx) {
                        return;
                    }
                    hop = AccessHop::AccessDone;
                }
                AccessHop::AccessDone => {
                    self.finish_access(tid);
                    hop = AccessHop::StartAccess;
                }
            }
        }
    }

    /// Commit: lock releases (RELLOCK CPU time), then the commit.
    fn begin_commit<P: Probe, Q: QueueKind>(
        &mut self,
        tid: Tid,
        ctx: &mut Context<'_, Event, P, Q>,
    ) {
        let locked = self.slab.get(tid).lock_count;
        if self.params.release_lock_ms > 0.0 && locked > 0 {
            if seize(&mut self.cpu, Event::CommitCpu(tid), ctx) {
                self.commit_cpu(tid, ctx);
            }
        } else if advance_or_schedule(0.0, Event::Committed(tid), ctx) {
            self.finish_transaction(tid, ctx);
        }
    }

    /// [`Event::CommitCpu`]: the CPU is granted for the commit-time lock
    /// releases, held until the commit.
    fn commit_cpu<P: Probe, Q: QueueKind>(&mut self, tid: Tid, ctx: &mut Context<'_, Event, P, Q>) {
        let t = self.slab.get_mut(tid);
        let locked = t.lock_count;
        t.holding_cpu = true;
        if ctx.tracing() {
            t.marks.start(ctx.now().as_ms());
        }
        let delay = self.params.release_lock_ms * locked as f64;
        if advance_or_schedule(delay, Event::Committed(tid), ctx) {
            self.finish_transaction(tid, ctx);
        }
    }

    /// Dispatches pipeline step `step` of `tid`; an access it completes
    /// goes on to its [`AccessHop::AccessDone`] hop.
    #[inline]
    fn resume<P: Probe, Q: QueueKind>(
        &mut self,
        tid: Tid,
        step: impl FnOnce(&mut Self, Tid, &mut Context<'_, Event, P, Q>) -> bool,
        ctx: &mut Context<'_, Event, P, Q>,
    ) {
        if step(self, tid, ctx) {
            self.run_hops(tid, AccessHop::AccessDone, ctx);
        }
    }

    fn finish_transaction<P: Probe, Q: QueueKind>(
        &mut self,
        tid: Tid,
        ctx: &mut Context<'_, Event, P, Q>,
    ) {
        let (serial, user, submitted, tx_measured, holding_cpu, mut marks) = {
            let t = self.slab.get(tid);
            let mut marks = t.marks;
            // Every access of the last pass completed.
            marks.accesses += t.pos as u64;
            (
                t.serial,
                t.user,
                t.submitted,
                t.measured,
                t.holding_cpu,
                marks,
            )
        };
        if matches!(self.params.concurrency, ConcurrencyControl::TwoPhase { .. }) {
            for other in self.locks.release_all(serial) {
                ctx.schedule_now(Event::LockResume(other));
            }
        }
        self.slab.release(tid);
        if holding_cpu {
            if ctx.tracing() {
                // Commit-time lock-release CPU: the hold ends here, at
                // the Committed instant.
                marks.lap(SpanStage::Cpu, ctx.now().as_ms());
            }
            self.cpu.release(ctx);
        }
        self.scheduler.release(ctx);
        if matches!(self.user_model, UserModel::Cohort) {
            self.admit_from_ring(ctx);
        }
        self.completed += 1;
        let measured = match self.mode {
            PhaseMode::Count { .. } => tx_measured,
            // Horizon phases measure every commit inside the window; the
            // engine stops at the horizon, so "after warm-up" suffices.
            PhaseMode::Horizon { .. } => self.measure_started,
        };
        if measured {
            self.measured_completed += 1;
            self.response
                .add(ctx.now().saturating_since(submitted).as_ms());
        }
        self.phase_end = ctx.now();
        // The whole-lifetime stage totals, before Committed closes the
        // span.
        ctx.emit_span_stages(tid as u32, serial as u64, &marks.stages, marks.accesses);
        ctx.emit_span(tid as u32, serial as u64, SpanPoint::Committed);
        if ctx.tracing() {
            // Utilisation/occupancy snapshots at every commit: cheap,
            // commit-frequency sampling of the passive resources.
            let now = ctx.now();
            let (hits, misses) = self.total_hits_misses();
            let hit_ratio = if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            };
            let ids = self.series_ids;
            ctx.emit_sample(ids.hit_ratio, hit_ratio);
            ctx.emit_sample(ids.active_transactions, self.slab.live() as f64);
            // Waiting users live in the wait queue (per-user) or the
            // admission ring (cohort); the sum covers both models.
            ctx.emit_sample(
                ids.mpl_queue,
                (self.scheduler.queue_len() + self.ring.len()) as f64,
            );
            let disk_util = self.disks.iter().map(|d| d.utilization(now)).sum::<f64>()
                / self.disks.len() as f64;
            ctx.emit_sample(ids.disk_utilization, disk_util);
            ctx.emit_sample(ids.network_utilization, self.network.utilization(now));
        }
        // Clustering Manager: automatic triggering (Fig. 4).
        if self.cman.should_trigger() {
            self.disks[0].request(Event::ReorgGranted { user }, ctx);
        } else if self.arrival.is_closed() {
            // Closed loop: the user thinks, then submits its next
            // transaction. Open arrivals flow independently of commits.
            self.resubmit_user(user, ctx);
        }
    }
}

/// Requests a unit of `resource` for `continuation`. Returns true when
/// the unit was free and nothing else is due now, so the continuation
/// would be the next event dispatched: the caller runs its work inline
/// instead. Otherwise the request is completed as usual (the grant's
/// continuation scheduled, or the request queued) and the caller stops.
#[must_use]
#[inline]
fn seize<P: Probe, Q: QueueKind>(
    resource: &mut Resource<Event>,
    continuation: Event,
    ctx: &mut Context<'_, Event, P, Q>,
) -> bool {
    if !resource.try_acquire(ctx) {
        resource.request(continuation, ctx);
        false
    } else if ctx.advance_to(ctx.now()) {
        true
    } else {
        ctx.schedule_now(continuation);
        false
    }
}

/// Advances the clock `delay_ms` when `event`, scheduled that far
/// ahead, would be the next event dispatched: the caller then runs its
/// work inline, at the instant `ctx.schedule` would have given it.
/// Otherwise schedules `event` there and returns false.
#[must_use]
#[inline]
fn advance_or_schedule<P: Probe, Q: QueueKind>(
    delay_ms: f64,
    event: Event,
    ctx: &mut Context<'_, Event, P, Q>,
) -> bool {
    let at = ctx.now() + delay_ms;
    if ctx.advance_to(at) {
        true
    } else {
        ctx.schedule_at(at, event);
        false
    }
}

impl<P: Probe, Q: QueueKind> Model<P, Q> for VoodbModel<'_> {
    type Event = Event;

    fn init(&mut self, ctx: &mut Context<'_, Event, P, Q>) {
        if ctx.tracing() {
            // Resolve every probe handle once per phase: the engine gets
            // a fresh probe per phase, so stale ids must not leak across.
            self.scheduler.rebind_probe(ctx);
            self.cpu.rebind_probe(ctx);
            for disk in &mut self.disks {
                disk.rebind_probe(ctx);
            }
            self.network.rebind_probe(ctx);
            self.series_ids = SeriesIds {
                hit_ratio: ctx.intern_series("hit_ratio"),
                active_transactions: ctx.intern_series("active_transactions"),
                mpl_queue: ctx.intern_series("mpl_queue"),
                disk_utilization: ctx.intern_series("disk_utilization"),
                network_utilization: ctx.intern_series("network_utilization"),
            };
        }
        if let Some(open) = self.open_arrival {
            let delay = self.open_delay(open);
            ctx.schedule(delay, Event::Arrive);
        } else {
            match self.user_model {
                UserModel::PerUser => {
                    for user in 0..self.user_total {
                        let mean = self.cohorts[self.cohort_of_user(user)].think_time_ms;
                        let delay = Self::draw_think(&mut self.think_stream, mean);
                        ctx.schedule(delay, Event::Submit { user });
                    }
                }
                UserModel::Cohort => {
                    // Cohorts are contiguous user ranges, so drawing
                    // cohort by cohort consumes the think stream in the
                    // exact order the per-user loop above would: the
                    // load draws a cohort's keys twice from a copy of
                    // the stream, which then takes over from it.
                    // One arm per cohort, after its whole run is loaded.
                    let now = ctx.now();
                    for c in 0..self.cohorts.len() {
                        let UserCohort {
                            size,
                            think_time_ms: mean,
                        } = self.cohorts[c];
                        if mean > 0.0 {
                            // All but ~1 of n exponential draws fall
                            // within mean·ln(n) of now.
                            let span = mean * (size as f64).ln();
                            let stream = self.think_stream.clone();
                            let mut wakes = ExpoWakes::new(stream, now, mean, size);
                            self.clocks[c].load_initial(&mut wakes, now, span);
                            self.think_stream = wakes.into_stream();
                        } else {
                            // `draw_think`'s zero think time: no draw.
                            let key = time_key(now.as_ms());
                            self.clocks[c].load_initial(
                                &mut std::iter::repeat_n(key, size),
                                now,
                                0.0,
                            );
                        }
                        self.arm_cohort(c, ctx);
                    }
                }
            }
        }
        if let PhaseMode::Horizon { warmup_ms, .. } = self.mode {
            // Scheduled first, so a commit at exactly the warm-up instant
            // is measured (init events outrank same-time later ones).
            ctx.schedule(warmup_ms, Event::MeasureStart);
        }
    }

    fn handle(&mut self, event: Event, ctx: &mut Context<'_, Event, P, Q>) {
        match event {
            Event::Submit { user } => {
                self.spawn_transaction(user, ctx);
            }
            Event::Arrive => {
                // Open system: this arrival, then schedule the next one —
                // independent of commits, bounded only by the source.
                if self.spawn_transaction(OPEN_USER, ctx) {
                    if let Some(open) = self.open_arrival {
                        let delay = self.open_delay(open);
                        ctx.schedule(delay, Event::Arrive);
                    }
                }
            }
            Event::CohortWake { cohort, epoch } => {
                let c = cohort as usize;
                let now_key = time_key(ctx.now().as_ms());
                // A wake from an old phase or a superseded arm is
                // dropped: the first wake dispatched at the armed
                // instant drains, and only it re-arms.
                if self.clocks[c].epoch != epoch || !self.clocks[c].is_armed_at(now_key) {
                    return;
                }
                self.drain_cohort_wakes(c, now_key, ctx);
                self.clocks[c].disarm();
                self.arm_cohort(c, ctx);
            }
            Event::MeasureStart => {
                self.measure_started = true;
                self.io_mark = self.total_io();
                self.hits_mark = self.total_hits_misses();
                self.measure_start = ctx.now();
            }
            Event::Admitted(tid) => {
                let t = self.slab.get(tid);
                let (serial, measured) = (t.serial, t.measured);
                if measured && !self.measure_started {
                    self.measure_started = true;
                    self.io_mark = self.total_io();
                    self.hits_mark = self.total_hits_misses();
                    self.measure_start = ctx.now();
                }
                ctx.emit_span(tid as u32, serial as u64, SpanPoint::Admitted);
                self.run_hops(tid, AccessHop::StartAccess, ctx);
            }
            Event::StartAccess(tid) => self.resume(tid, Self::start_access, ctx),
            Event::LockResume(serial) => {
                // The lock manager already holds the lock for us.
                #[expect(
                    clippy::expect_used,
                    reason = "commit/abort purge the serial's lock entries first"
                )]
                let tid = self
                    .slab
                    .slot_of_serial(serial)
                    .expect("resumed transaction is live");
                self.resume(tid, Self::lock_resumed, ctx);
            }
            Event::TxRestart(tid) => self.run_hops(tid, AccessHop::StartAccess, ctx),
            Event::LockCpu(tid) => self.resume(tid, Self::lock_cpu, ctx),
            Event::LockHeld(tid) => self.resume(tid, Self::lock_held, ctx),
            Event::DiskGranted(tid) => self.resume(tid, Self::disk_granted, ctx),
            Event::DiskDone(tid) => self.resume(tid, Self::disk_done, ctx),
            Event::NetGranted(tid) => self.resume(tid, Self::net_granted, ctx),
            Event::NetDone(tid) => self.resume(tid, Self::net_done, ctx),
            Event::AccessDone(tid) => {
                self.finish_access(tid);
                self.run_hops(tid, AccessHop::StartAccess, ctx);
            }
            Event::CommitCpu(tid) => self.commit_cpu(tid, ctx),
            Event::Committed(tid) => self.finish_transaction(tid, ctx),
            Event::ReorgGranted { user } => {
                let report = self.cman.reorganize(
                    self.base,
                    &mut self.oman,
                    &mut self.bman[0],
                    &mut self.iosub[0],
                );
                let duration = report.duration_ms;
                self.reorgs.push(report);
                ctx.schedule(duration, Event::ReorgDone { user });
            }
            Event::ReorgDone { user } => {
                self.disks[0].release(ctx);
                if self.arrival.is_closed() {
                    self.resubmit_user(user, ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desp::Engine;
    use ocb::{DatabaseParams, Transaction, WorkloadGenerator, WorkloadParams};

    fn base() -> ObjectBase {
        ObjectBase::generate(&DatabaseParams::small(), 31)
    }

    fn make_transactions(base: &ObjectBase, n: usize, seed: u64) -> Vec<Transaction> {
        let params = WorkloadParams {
            hot_transactions: n,
            ..WorkloadParams::default()
        };
        let mut generator = WorkloadGenerator::new(base, params, seed);
        (0..n).map(|_| generator.next_transaction()).collect()
    }

    fn small_params() -> VoodbParams {
        VoodbParams {
            buffer_pages: 64,
            ..VoodbParams::default()
        }
    }

    fn run_phase(
        base: &ObjectBase,
        params: VoodbParams,
        transactions: Vec<Transaction>,
    ) -> PhaseResult {
        let mut model = VoodbModel::new(base, params, 0.0, 99);
        model.load_phase(transactions, 0);
        let mut engine = Engine::with_probe(model, desp::NoProbe);
        let outcome = engine.run_to_completion();
        engine.model().phase_result(outcome.events_dispatched)
    }

    #[test]
    fn all_transactions_complete() {
        let base = base();
        let transactions = make_transactions(&base, 30, 7);
        let result = run_phase(&base, small_params(), transactions);
        assert_eq!(result.transactions, 30);
        assert!(result.total_ios() > 0);
        assert!(result.mean_response_ms > 0.0);
        assert!(result.throughput_tps > 0.0);
        assert!(result.sim_elapsed_ms > 0.0);
    }

    #[test]
    fn cold_run_is_excluded_from_measurement() {
        let base = base();
        let transactions = make_transactions(&base, 30, 7);
        let all = run_phase(&base, small_params(), transactions.clone());
        let mut model = VoodbModel::new(&base, small_params(), 0.0, 99);
        model.load_phase(transactions, 10);
        let mut engine = Engine::with_probe(model, desp::NoProbe);
        let outcome = engine.run_to_completion();
        let measured = engine.model().phase_result(outcome.events_dispatched);
        assert_eq!(measured.transactions, 20);
        assert!(
            measured.total_ios() < all.total_ios(),
            "cold I/Os must be excluded"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let base = base();
        let run = || {
            let transactions = make_transactions(&base, 25, 3);
            run_phase(&base, small_params(), transactions)
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_ios(), b.total_ios());
        assert_eq!(a.transactions, b.transactions);
        assert!((a.mean_response_ms - b.mean_response_ms).abs() < 1e-12);
    }

    #[test]
    fn larger_buffer_reduces_ios() {
        let base = base();
        let transactions = make_transactions(&base, 60, 11);
        let small = run_phase(
            &base,
            VoodbParams {
                buffer_pages: 8,
                ..VoodbParams::default()
            },
            transactions.clone(),
        );
        let large = run_phase(
            &base,
            VoodbParams {
                buffer_pages: 10_000,
                ..VoodbParams::default()
            },
            transactions,
        );
        assert!(
            large.total_ios() < small.total_ios(),
            "large {} vs small {}",
            large.total_ios(),
            small.total_ios()
        );
        assert!(large.hit_ratio > small.hit_ratio);
    }

    #[test]
    fn centralized_is_faster_than_slow_network_page_server() {
        let base = base();
        let transactions = make_transactions(&base, 30, 13);
        let centralized = run_phase(
            &base,
            VoodbParams {
                system_class: SystemClass::Centralized,
                ..small_params()
            },
            transactions.clone(),
        );
        let page_server = run_phase(
            &base,
            VoodbParams {
                system_class: SystemClass::PageServer,
                network_throughput_mbps: 0.5,
                ..small_params()
            },
            transactions,
        );
        // Same I/Os (identical buffer behaviour), different response times.
        assert_eq!(centralized.total_ios(), page_server.total_ios());
        assert!(centralized.mean_response_ms < page_server.mean_response_ms);
    }

    #[test]
    fn object_server_ships_fewer_bytes_than_page_server() {
        let base = base();
        let transactions = make_transactions(&base, 30, 17);
        let object_server = run_phase(
            &base,
            VoodbParams {
                system_class: SystemClass::ObjectServer,
                network_throughput_mbps: 1.0,
                ..small_params()
            },
            transactions.clone(),
        );
        let page_server = run_phase(
            &base,
            VoodbParams {
                system_class: SystemClass::PageServer,
                network_throughput_mbps: 1.0,
                ..small_params()
            },
            transactions,
        );
        // Mean object ≈ 1 KB < page 4 KB: object shipping responds faster.
        assert!(object_server.mean_response_ms < page_server.mean_response_ms);
    }

    #[test]
    fn swizzle_module_increases_pressure() {
        let base = base();
        let transactions = make_transactions(&base, 60, 19);
        let plain = run_phase(
            &base,
            VoodbParams {
                system_class: SystemClass::Centralized,
                buffer_pages: 32,
                swizzle: false,
                ..VoodbParams::default()
            },
            transactions.clone(),
        );
        let swizzling = run_phase(
            &base,
            VoodbParams {
                system_class: SystemClass::Centralized,
                buffer_pages: 32,
                swizzle: true,
                ..VoodbParams::default()
            },
            transactions,
        );
        assert!(
            swizzling.total_ios() > plain.total_ios(),
            "swizzle swap-outs must inflate I/Os under pressure: {} vs {}",
            swizzling.total_ios(),
            plain.total_ios()
        );
    }

    #[test]
    fn hybrid_multiserver_distributes_ios() {
        let base = base();
        let transactions = make_transactions(&base, 30, 23);
        let result = run_phase(
            &base,
            VoodbParams {
                system_class: SystemClass::HybridMultiServer { servers: 3 },
                network_throughput_mbps: f64::INFINITY,
                buffer_pages: 96,
                ..VoodbParams::default()
            },
            transactions,
        );
        assert_eq!(result.transactions, 30);
        assert!(result.total_ios() > 0);
    }

    #[test]
    fn multiuser_run_completes() {
        let base = base();
        let transactions = make_transactions(&base, 40, 29);
        let result = run_phase(
            &base,
            VoodbParams {
                users: 4,
                multiprogramming_level: 2,
                ..small_params()
            },
            transactions,
        );
        assert_eq!(result.transactions, 40);
    }

    fn run_streamed(
        base: &ObjectBase,
        params: VoodbParams,
        source: Box<dyn TransactionSource + '_>,
        mode: PhaseMode,
        arrival: Arrival,
    ) -> (PhaseResult, usize) {
        let mut model = VoodbModel::new(base, params, 0.0, 99);
        model.load_phase_streamed(source, mode, arrival);
        let mut engine = Engine::with_probe(model, desp::NoProbe);
        let outcome = match mode {
            PhaseMode::Count { .. } => engine.run_to_completion(),
            PhaseMode::Horizon { duration_ms, .. } => {
                engine.run_until(SimTime::from_ms(duration_ms))
            }
        };
        let mut model = engine.into_parts().0;
        model.finalize_phase(outcome.end_time);
        let result = model.phase_result(outcome.events_dispatched);
        (result, model.tx_slab_high_water())
    }

    fn lazy_source(base: &ObjectBase, n: usize, seed: u64) -> Box<dyn TransactionSource + '_> {
        let params = WorkloadParams {
            hot_transactions: n,
            ..WorkloadParams::default()
        };
        Box::new(ocb::LazySource::bounded(
            WorkloadGenerator::new(base, params, seed),
            n,
        ))
    }

    #[test]
    fn streamed_phase_is_bit_identical_to_materialized_oracle() {
        let base = base();
        let materialized = run_phase(&base, small_params(), make_transactions(&base, 40, 7));
        let (streamed, _) = run_streamed(
            &base,
            small_params(),
            lazy_source(&base, 40, 7),
            PhaseMode::Count { cold: 0 },
            Arrival::Closed,
        );
        assert_eq!(streamed.transactions, materialized.transactions);
        assert_eq!(streamed.io, materialized.io);
        assert_eq!(
            streamed.mean_response_ms.to_bits(),
            materialized.mean_response_ms.to_bits()
        );
        assert_eq!(
            streamed.throughput_tps.to_bits(),
            materialized.throughput_tps.to_bits()
        );
        assert_eq!(
            streamed.hit_ratio.to_bits(),
            materialized.hit_ratio.to_bits()
        );
        assert_eq!(streamed.events, materialized.events);
    }

    #[test]
    fn streamed_phase_memory_is_bounded_by_users_not_transactions() {
        let base = base();
        let params = VoodbParams {
            users: 4,
            multiprogramming_level: 2,
            ..small_params()
        };
        let (result, high_water) = run_streamed(
            &base,
            params,
            lazy_source(&base, 500, 23),
            PhaseMode::Count { cold: 0 },
            Arrival::Closed,
        );
        assert_eq!(result.transactions, 500);
        assert!(
            high_water <= 4,
            "closed system must hold at most NUSERS transactions, saw {high_water}"
        );
    }

    /// The horizon-phase window regression test: a phase ending
    /// mid-transaction must (a) count exactly the commits inside the
    /// window, (b) report their response times bit-identically to a
    /// count-based run of that transaction prefix, and (c) use the
    /// full `[warmup, horizon]` window for throughput.
    #[test]
    fn horizon_phase_matches_count_oracle_when_ending_mid_transaction() {
        let base = base();
        let transactions = make_transactions(&base, 30, 7);
        let full = run_phase(&base, small_params(), transactions.clone());
        // A horizon strictly inside the full run, so it cuts a
        // transaction off mid-flight.
        let horizon = full.sim_elapsed_ms * 0.6;
        let (cut, _) = run_streamed(
            &base,
            small_params(),
            Box::new(MaterializedSource::new(transactions.clone())),
            PhaseMode::Horizon {
                duration_ms: horizon,
                warmup_ms: 0.0,
            },
            Arrival::Closed,
        );
        let n = cut.transactions;
        assert!(0 < n && n < 30, "horizon must land mid-run, measured {n}");
        assert!(
            (cut.sim_elapsed_ms - horizon).abs() < 1e-9,
            "window must span warmup..horizon even mid-transaction: {} vs {horizon}",
            cut.sim_elapsed_ms
        );
        // Count-based oracle over exactly the committed prefix (single
        // user, think 0 ⇒ commits are sequential).
        let oracle = run_phase(&base, small_params(), transactions[..n].to_vec());
        assert_eq!(oracle.transactions, n);
        assert_eq!(
            cut.mean_response_ms.to_bits(),
            oracle.mean_response_ms.to_bits(),
            "response times of the committed prefix must match the oracle"
        );
        let expected_tps = n as f64 / (horizon / 1000.0);
        assert!(
            (cut.throughput_tps - expected_tps).abs() < 1e-9,
            "throughput must divide by the window: {} vs {expected_tps}",
            cut.throughput_tps
        );
    }

    #[test]
    fn horizon_warmup_excludes_early_commits() {
        let base = base();
        let transactions = make_transactions(&base, 30, 7);
        let full = run_phase(&base, small_params(), transactions.clone());
        let horizon = full.sim_elapsed_ms * 0.8;
        let warmup = full.sim_elapsed_ms * 0.3;
        let run = |warmup_ms: f64| {
            run_streamed(
                &base,
                small_params(),
                Box::new(MaterializedSource::new(transactions.clone())),
                PhaseMode::Horizon {
                    duration_ms: horizon,
                    warmup_ms,
                },
                Arrival::Closed,
            )
            .0
        };
        let cold = run(0.0);
        let warm = run(warmup);
        assert!(
            warm.transactions < cold.transactions,
            "warm-up must exclude early commits: {} vs {}",
            warm.transactions,
            cold.transactions
        );
        assert!(warm.transactions > 0);
        assert!((warm.sim_elapsed_ms - (horizon - warmup)).abs() < 1e-9);
        // The warm window is a strict sub-interval, and the cold-buffer
        // burst before the warm-up does I/O, so strictly fewer I/Os.
        assert!(warm.total_ios() < cold.total_ios());
    }

    #[test]
    fn horizon_shorter_than_warmup_measures_nothing() {
        let base = base();
        let transactions = make_transactions(&base, 5, 7);
        // The source drains long before the warm-up ends.
        let (result, _) = run_streamed(
            &base,
            small_params(),
            Box::new(MaterializedSource::new(transactions)),
            PhaseMode::Horizon {
                duration_ms: 1e12,
                warmup_ms: 1e11,
            },
            Arrival::Closed,
        );
        assert_eq!(result.transactions, 0);
        assert_eq!(result.throughput_tps, 0.0);
        assert_eq!(result.sim_elapsed_ms, 0.0);
    }

    #[test]
    fn open_poisson_arrivals_run_and_reproduce() {
        let base = base();
        let run = || {
            run_streamed(
                &base,
                small_params(),
                lazy_source(&base, 60, 31),
                PhaseMode::Count { cold: 0 },
                Arrival::Poisson { rate_per_sec: 5.0 },
            )
        };
        let (a, high_a) = run();
        let (b, _) = run();
        assert_eq!(a.transactions, 60, "all arrivals must complete and drain");
        assert_eq!(a.io, b.io);
        assert_eq!(a.mean_response_ms.to_bits(), b.mean_response_ms.to_bits());
        assert!(high_a >= 1);
        // An open system's elapsed time is governed by the arrival
        // process: 60 arrivals at 5/s span roughly 12 simulated seconds.
        assert!(a.sim_elapsed_ms > 6_000.0, "got {}", a.sim_elapsed_ms);
    }

    #[test]
    fn deterministic_arrivals_pace_the_run() {
        let base = base();
        let (result, _) = run_streamed(
            &base,
            small_params(),
            lazy_source(&base, 20, 37),
            PhaseMode::Count { cold: 0 },
            Arrival::Deterministic {
                interarrival_ms: 500.0,
            },
        );
        assert_eq!(result.transactions, 20);
        // First arrival at 500 ms, last at 10 s; the last commit lands at
        // or after the last arrival.
        assert!(result.sim_elapsed_ms >= 10_000.0 - 500.0 - 1e-9);
    }

    #[test]
    fn open_arrival_over_horizon_counts_only_window_commits() {
        let base = base();
        let params = WorkloadParams {
            hot_transactions: 1,
            ..WorkloadParams::default()
        };
        let generator = WorkloadGenerator::new(&base, params, 41);
        let (result, high_water) = run_streamed(
            &base,
            VoodbParams {
                multiprogramming_level: 4,
                ..small_params()
            },
            Box::new(ocb::LazySource::unbounded(generator)),
            PhaseMode::Horizon {
                duration_ms: 20_000.0,
                warmup_ms: 2_000.0,
            },
            Arrival::Poisson { rate_per_sec: 1.0 },
        );
        assert!(result.transactions > 0);
        assert!((result.sim_elapsed_ms - 18_000.0).abs() < 1e-9);
        assert!(result.throughput_tps > 0.0);
        // Unbounded source, underloaded system: in-flight state stays a
        // small constant, far below the ~20 arrivals the window admits.
        assert!(
            high_water <= 8,
            "in-flight state must not scale with arrivals, saw {high_water}"
        );
    }

    #[test]
    fn lock_times_increase_response_not_ios() {
        let base = base();
        let transactions = make_transactions(&base, 30, 31);
        let free = run_phase(
            &base,
            VoodbParams {
                get_lock_ms: 0.0,
                release_lock_ms: 0.0,
                ..small_params()
            },
            transactions.clone(),
        );
        let locky = run_phase(
            &base,
            VoodbParams {
                get_lock_ms: 2.0,
                release_lock_ms: 2.0,
                ..small_params()
            },
            transactions,
        );
        assert_eq!(free.total_ios(), locky.total_ios());
        assert!(locky.mean_response_ms > free.mean_response_ms);
    }

    /// Runs one closed, streamed, count-bounded phase of `wl` under the
    /// given user representation. Returns the finished model and the
    /// number of events dispatched.
    fn run_closed_workload<'a>(
        base: &'a ObjectBase,
        params: VoodbParams,
        think_time_ms: f64,
        user_model: UserModel,
        cohorts: &[UserCohort],
        wl: WorkloadParams,
        seed: u64,
    ) -> (VoodbModel<'a>, u64) {
        let n = wl.hot_transactions;
        let generator = WorkloadGenerator::new(base, wl, seed);
        let mut model = VoodbModel::new(base, params, think_time_ms, seed);
        model.set_user_population(user_model, cohorts);
        model.load_phase_streamed(
            Box::new(ocb::LazySource::bounded(generator, n)),
            PhaseMode::Count { cold: 0 },
            Arrival::Closed,
        );
        let mut engine = Engine::with_probe(model, desp::NoProbe);
        let outcome = engine.run_to_completion();
        (engine.into_parts().0, outcome.events_dispatched)
    }

    /// [`run_closed_workload`] of `n` read-only transactions. Returns
    /// the result, the slab high water and the admission-ring high
    /// water.
    fn run_closed_with_model(
        base: &ObjectBase,
        params: VoodbParams,
        think_time_ms: f64,
        user_model: UserModel,
        cohorts: &[UserCohort],
        n: usize,
        seed: u64,
    ) -> (PhaseResult, usize, usize) {
        let wl = WorkloadParams {
            hot_transactions: n,
            ..WorkloadParams::default()
        };
        let (model, events) =
            run_closed_workload(base, params, think_time_ms, user_model, cohorts, wl, seed);
        (
            model.phase_result(events),
            model.tx_slab_high_water(),
            model.admission_high_water(),
        )
    }

    /// Field-by-field bit equality, ignoring the engine event count
    /// (cohort mode legitimately dispatches fewer events).
    fn assert_results_bit_identical(a: &PhaseResult, b: &PhaseResult) {
        assert_eq!(a.transactions, b.transactions);
        assert_eq!(a.io.reads, b.io.reads);
        assert_eq!(a.io.writes, b.io.writes);
        assert_eq!(a.mean_response_ms.to_bits(), b.mean_response_ms.to_bits());
        assert_eq!(a.throughput_tps.to_bits(), b.throughput_tps.to_bits());
        assert_eq!(a.hit_ratio.to_bits(), b.hit_ratio.to_bits());
        assert_eq!(a.sim_elapsed_ms.to_bits(), b.sim_elapsed_ms.to_bits());
    }

    #[test]
    fn cohort_users_match_the_per_user_oracle_bitwise() {
        let base = base();
        for seed in [7, 11, 42] {
            let params = VoodbParams {
                users: 8,
                multiprogramming_level: 3,
                ..small_params()
            };
            let (oracle, oracle_slab, _) = run_closed_with_model(
                &base,
                params.clone(),
                25.0,
                UserModel::PerUser,
                &[],
                60,
                seed,
            );
            let (cohort, cohort_slab, ring_high) =
                run_closed_with_model(&base, params, 25.0, UserModel::Cohort, &[], 60, seed);
            assert_results_bit_identical(&oracle, &cohort);
            // The memory story: the per-user oracle pulls at submission
            // (slab holds waiters), cohort mode pulls at admission
            // (slab holds only the MPL in-flight set).
            assert!(cohort_slab <= 3, "cohort slab {cohort_slab} > MPL");
            assert!(oracle_slab > 3, "oracle slab should hold waiters");
            assert!(ring_high > 0, "users > MPL must exercise the ring");
        }
    }

    #[test]
    fn cohort_users_match_the_per_user_oracle_under_two_phase_locking() {
        // Two-phase locking under wait-die (see `lockmgr`).
        let base = base();
        let params = VoodbParams {
            users: 8,
            multiprogramming_level: 3,
            concurrency: ConcurrencyControl::TwoPhase {
                restart_backoff_ms: 5.0,
                deadlock: crate::lockmgr::DeadlockPolicy::WaitDie,
            },
            ..small_params()
        };
        let wl = WorkloadParams {
            hot_transactions: 80,
            p_write: 0.3,
            ..WorkloadParams::default()
        };
        for seed in [7, 11, 42, 97] {
            let run = |user_model| {
                let (model, events) = run_closed_workload(
                    &base,
                    params.clone(),
                    25.0,
                    user_model,
                    &[],
                    wl.clone(),
                    seed,
                );
                (
                    model.phase_result(events),
                    model.aborts(),
                    model.lock_stats(),
                )
            };
            let (oracle, oracle_aborts, oracle_locks) = run(UserModel::PerUser);
            let (cohort, cohort_aborts, cohort_locks) = run(UserModel::Cohort);
            assert!(
                oracle_aborts > 0,
                "seed {seed}: no lock conflicts exercised"
            );
            assert_results_bit_identical(&oracle, &cohort);
            assert_eq!(oracle_aborts, cohort_aborts, "seed {seed}");
            assert_eq!(oracle_locks, cohort_locks, "seed {seed}");
        }
    }

    #[test]
    fn explicit_cohorts_match_across_representations() {
        let base = base();
        let cohorts = [
            UserCohort {
                size: 3,
                think_time_ms: 10.0,
            },
            UserCohort {
                size: 5,
                think_time_ms: 40.0,
            },
        ];
        let params = VoodbParams {
            multiprogramming_level: 4,
            ..small_params()
        };
        let (oracle, ..) = run_closed_with_model(
            &base,
            params.clone(),
            0.0,
            UserModel::PerUser,
            &cohorts,
            50,
            13,
        );
        let (cohort, ..) =
            run_closed_with_model(&base, params, 0.0, UserModel::Cohort, &cohorts, 50, 13);
        assert_results_bit_identical(&oracle, &cohort);
    }

    #[test]
    fn zero_think_cohort_matches_oracle() {
        // The degenerate all-wakes-collide regime: no stream draws at
        // all, every submission rides commit instants.
        let base = base();
        for seed in [3, 97] {
            let params = VoodbParams {
                users: 6,
                multiprogramming_level: 2,
                ..small_params()
            };
            let (oracle, ..) = run_closed_with_model(
                &base,
                params.clone(),
                0.0,
                UserModel::PerUser,
                &[],
                40,
                seed,
            );
            let (cohort, ..) =
                run_closed_with_model(&base, params, 0.0, UserModel::Cohort, &[], 40, seed);
            assert_results_bit_identical(&oracle, &cohort);
        }
    }

    #[test]
    fn cohort_phase_reload_starts_clean() {
        // Two phases back to back on one model: the ring and the wake
        // heaps must reset, and in-flight wakes from phase one must be
        // orphaned by the epoch bump.
        let base = base();
        let params = VoodbParams {
            users: 5,
            multiprogramming_level: 2,
            ..small_params()
        };
        let mut model = VoodbModel::new(&base, params, 15.0, 77);
        model.set_user_population(UserModel::Cohort, &[]);
        for _ in 0..2 {
            let wl = WorkloadParams {
                hot_transactions: 30,
                ..WorkloadParams::default()
            };
            let generator = WorkloadGenerator::new(&base, wl, 77);
            model.load_phase_streamed(
                Box::new(ocb::LazySource::bounded(generator, 30)),
                PhaseMode::Count { cold: 0 },
                Arrival::Closed,
            );
            let mut engine = Engine::with_probe(model, desp::NoProbe);
            let outcome = engine.run_to_completion();
            let (m, _) = engine.into_parts();
            model = m;
            let result = model.phase_result(outcome.events_dispatched);
            assert_eq!(result.transactions, 30);
        }
    }

    #[test]
    fn cohort_clock_merges_run_and_heap_in_ord_order() {
        let at = SimTime::from_ms;
        let mut clock = CohortClock::default();
        clock.load_initial(
            &mut [3.0, 1.0, 2.0, 1.0].map(time_key).into_iter(),
            at(1.0),
            2.0,
        );
        clock.push(at(1.5));
        clock.push(at(1.0));
        clock.push(at(0.5));
        let mut popped = Vec::new();
        while let Some(key) = clock.pop() {
            popped.push(key_time(key).as_ms());
        }
        assert_eq!(popped, [0.5, 1.0, 1.0, 1.0, 1.5, 2.0, 3.0]);
        assert_eq!(clock.peek(), None);

        // At equal instants every initial wake pops before any
        // resubmission: the per-user oracle schedules all initial
        // `Submit`s before the first resubmission.
        let mut clock = CohortClock::default();
        clock.load_initial(&mut [1.0, 1.0].map(time_key).into_iter(), at(1.0), 0.0);
        clock.push(at(1.0));
        for run_left in [1, 0, 0] {
            assert_eq!(clock.pop().map(|key| key_time(key).as_ms()), Some(1.0));
            assert_eq!(clock.initial_left(), run_left);
        }
        assert_eq!(clock.peek(), None);
    }

    /// A closed horizon phase of `cohorts` under `user_model`, with short
    /// transactions. Returns the result and the users still waiting
    /// for an MPL seat at the horizon (the admission ring in cohort
    /// mode, the scheduler's wait queue per user).
    fn run_horizon_population(
        base: &ObjectBase,
        params: VoodbParams,
        user_model: UserModel,
        cohorts: &[UserCohort],
        window: (f64, f64),
        seed: u64,
    ) -> (PhaseResult, usize) {
        let (warmup_ms, duration_ms) = window;
        let workload = WorkloadParams {
            p_set: 0.0,
            p_simple: 0.0,
            p_hierarchy: 0.0,
            p_stochastic: 1.0,
            stochastic_depth: 5,
            ..WorkloadParams::default()
        };
        let generator = WorkloadGenerator::new(base, workload, seed);
        let mut model = VoodbModel::new(base, params, 0.0, seed);
        model.set_user_population(user_model, cohorts);
        model.load_phase_streamed(
            Box::new(ocb::LazySource::unbounded(generator)),
            PhaseMode::Horizon {
                duration_ms,
                warmup_ms,
            },
            Arrival::Closed,
        );
        let mut engine = Engine::with_probe(model, desp::NoProbe);
        let outcome = engine.run_until(SimTime::from_ms(duration_ms));
        let mut model = engine.into_parts().0;
        model.finalize_phase(outcome.end_time);
        let waiting = model.ring.len() + model.scheduler.queue_len();
        (model.phase_result(outcome.events_dispatched), waiting)
    }

    #[test]
    fn saturated_wakes_on_the_warmup_and_horizon_instants_match_the_oracle() {
        // Wakes exactly at the warm-up instant (where MeasureStart is
        // pending) and at the horizon (the last instant the engine
        // dispatches) are the edges of the saturated drain: the first
        // must wait for MeasureStart, the second must still join the
        // ring, and nothing after it may.
        let base = base();
        let seed = 21;
        // The busy cohort keeps the ring full; the slow one spreads its
        // initial wakes over seconds, so some land late in the phase.
        let cohorts = [
            UserCohort {
                size: 1_500,
                think_time_ms: 20.0,
            },
            UserCohort {
                size: 200,
                think_time_ms: 2_000.0,
            },
        ];
        // The initial wake instants, drawn exactly as `init` draws them.
        let mut stream = RandomStream::new(seed ^ THINK_SEED_SALT);
        let wakes: Vec<f64> = cohorts
            .iter()
            .flat_map(|cohort| vec![cohort.think_time_ms; cohort.size])
            .map(|mean| (SimTime::ZERO + stream.expo(mean)).as_ms())
            .collect();
        let first_after = |ms: f64| {
            wakes
                .iter()
                .copied()
                .filter(|&at| at >= ms)
                .min_by(f64::total_cmp)
                .expect("a wake that late")
        };
        let window = (first_after(200.0), first_after(1_500.0));
        // A system whose window sees commits, and one whose 0.001 MB/s
        // network keeps the first page transfer (~3.9 s) in flight past
        // the horizon, so only the horizon bounds the last drain.
        let fast = VoodbParams {
            multiprogramming_level: 2,
            ..small_params()
        };
        let slow = VoodbParams {
            network_throughput_mbps: 0.001,
            ..fast.clone()
        };
        for (params, commits) in [(fast, true), (slow, false)] {
            let run = |user_model| {
                run_horizon_population(&base, params.clone(), user_model, &cohorts, window, seed)
            };
            let (oracle, oracle_waiting) = run(UserModel::PerUser);
            let (cohort, cohort_waiting) = run(UserModel::Cohort);
            assert_results_bit_identical(&oracle, &cohort);
            assert_eq!(oracle.transactions > 0, commits, "commits in the window");
            assert_eq!(
                cohort_waiting, oracle_waiting,
                "users waiting at the horizon"
            );
            assert!(
                cohort_waiting > 1_000,
                "the phase must be saturated, {cohort_waiting} waiting"
            );
            // The oracle dispatches one `Submit` per wake, and more
            // than 1,500 users wake inside the phase; saturated cohort
            // wakes join the ring without an event.
            assert!(
                cohort.events + 1_000 < oracle.events,
                "saturated wakes must not be dispatched: cohort {} vs oracle {} events",
                cohort.events,
                oracle.events
            );
        }
    }

    #[test]
    fn inline_hops_keep_the_parents_same_instant_order() {
        // Zero think time, a tiny buffer and no network: transactions
        // meet at the same instants, and the order in which their
        // accesses reach the buffer decides its evictions. An access
        // hop run inline past an event already pending at that instant
        // reorders them. The expected values are the results of the
        // implementation that dispatched every hop as an event.
        let base = base();
        let params = VoodbParams {
            system_class: SystemClass::Centralized,
            buffer_pages: 8,
            multiprogramming_level: 4,
            users: 8,
            ..VoodbParams::default()
        };
        let wl = WorkloadParams {
            hot_transactions: 60,
            p_write: 0.3,
            ..WorkloadParams::default()
        };
        for user_model in [UserModel::PerUser, UserModel::Cohort] {
            let (model, events) =
                run_closed_workload(&base, params.clone(), 0.0, user_model, &[], wl.clone(), 5);
            let result = model.phase_result(events);
            assert_eq!(result.transactions, 60);
            assert_eq!(result.total_ios(), 9_638, "{user_model:?}");
            assert_eq!(
                result.mean_response_ms.to_bits(),
                0x40cd_60c9_62fc_926e,
                "{user_model:?}"
            );
        }
    }

    #[test]
    fn saturated_cohort_phase_dispatches_per_commit_not_per_user() {
        // 100k users against 4 seats: every wake after the first few
        // joins the admission ring. The phase dispatches the commits'
        // events, not one wake per user.
        let base = base();
        let users = 100_000;
        let cohorts = [UserCohort {
            size: users,
            think_time_ms: 50.0,
        }];
        let params = VoodbParams {
            multiprogramming_level: 4,
            ..small_params()
        };
        let (result, waiting) = run_horizon_population(
            &base,
            params,
            UserModel::Cohort,
            &cohorts,
            (0.0, 2_000.0),
            3,
        );
        assert!(result.transactions > 0);
        assert!(waiting > users / 2, "saturated: {waiting} waiting");
        // Per commit: admission, ≤ 6 accesses of ≤ 6 events each (lock
        // CPU, disk, network grants and completions), the commit, and a
        // cohort wake per event at most; plus the transactions cut at
        // the horizon, MeasureStart and the first wake.
        let per_commit = 2 * (1 + 6 * 6 + 2);
        let bound = per_commit * (result.transactions as u64 + 4) + 2;
        assert!(
            result.events <= bound,
            "{} events for {} commits (bound {bound})",
            result.events,
            result.transactions
        );
    }

    #[test]
    fn contended_page_server_results_are_pinned() {
        // Page servers over a 1 MB/s network, 8 zero-think users at
        // MPL 4 and an 8-page buffer: the CPU, the disks and the network
        // are contended, and steps of different transactions meet at
        // the same instants. A step run inline past an event due at or
        // before its instant reorders them. On two server sites that
        // moves every value pinned here (checked by letting
        // `advance_to` pass a tie); the single site keeps the
        // configuration the default page server runs. The expected
        // values are the results of the implementation that dispatched
        // every step as an event.
        let base = base();
        let wl = WorkloadParams {
            hot_transactions: 60,
            p_write: 0.3,
            ..WorkloadParams::default()
        };
        let wait_die = ConcurrencyControl::TwoPhase {
            restart_backoff_ms: 5.0,
            deadlock: crate::lockmgr::DeadlockPolicy::WaitDie,
        };
        let timed = ConcurrencyControl::TimedOnly;
        let two_sites = SystemClass::HybridMultiServer { servers: 2 };
        let no_locks = LockStats::default();
        let locks = |immediate_grants, waits, deadlocks| LockStats {
            immediate_grants,
            waits,
            deadlocks,
        };
        for (system_class, concurrency, ios, response_bits, lock_stats) in [
            (
                SystemClass::PageServer,
                timed,
                9_608,
                0x40cd_4b6f_0369_cc7f,
                no_locks,
            ),
            (
                SystemClass::PageServer,
                wait_die,
                25_434,
                0x40e4_1174_6eee_f47c,
                locks(38_277, 386, 31_667),
            ),
            (two_sites, timed, 9_668, 0x40c2_07ac_740d_a68a, no_locks),
            (
                two_sites,
                wait_die,
                26_253,
                0x40dd_51c9_3a06_d59c,
                locks(33_987, 221, 24_914),
            ),
        ] {
            for user_model in [UserModel::PerUser, UserModel::Cohort] {
                let params = VoodbParams {
                    system_class,
                    buffer_pages: 8,
                    multiprogramming_level: 4,
                    users: 8,
                    concurrency,
                    ..VoodbParams::default()
                };
                let (model, events) =
                    run_closed_workload(&base, params, 0.0, user_model, &[], wl.clone(), 5);
                let result = model.phase_result(events);
                let case = format!("{system_class:?} {concurrency:?} {user_model:?}");
                assert_eq!(result.transactions, 60, "{case}");
                assert_eq!(result.total_ios(), ios, "{case}");
                assert_eq!(result.mean_response_ms.to_bits(), response_bits, "{case}");
                assert_eq!(model.lock_stats(), lock_stats, "{case}");
            }
        }
    }

    #[test]
    fn a_single_user_count_phase_dispatches_a_few_events_per_transaction() {
        // With one user every step of a transaction is certain to be
        // dispatched next, so only its submission and admission go
        // through the event list: lock CPU, disk and network steps and
        // the commit all run inline.
        let base = base();
        let params = VoodbParams {
            buffer_pages: 16,
            ..small_params()
        };
        let wl = WorkloadParams {
            hot_transactions: 50,
            p_write: 0.3,
            ..WorkloadParams::default()
        };
        let (model, events) =
            run_closed_workload(&base, params, 10.0, UserModel::PerUser, &[], wl, 9);
        let result = model.phase_result(events);
        assert_eq!(result.transactions, 50);
        assert!(
            result.io.reads > 0 && result.io.writes > 0,
            "{:?}",
            result.io
        );
        assert!(
            events <= 3 * 50,
            "{events} events for 50 single-user transactions"
        );
    }

    /// One transaction of `accesses` reads cycling through one object on
    /// each of `pages` distinct pages, run in a 256 KiB thread: inline
    /// steps must not grow the stack per access.
    fn run_long_transaction(params: VoodbParams, pages: usize, accesses: usize) -> PhaseResult {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                let base = base();
                let model = VoodbModel::new(&base, params.clone(), 0.0, 99);
                let mut seen = Vec::new();
                let mut oids = Vec::new();
                for oid in 0..base.len() as u32 {
                    let page = model.oman().page_of(oid);
                    if oids.len() < pages && !seen.contains(&page) {
                        seen.push(page);
                        oids.push(oid);
                    }
                }
                assert_eq!(oids.len(), pages, "the base spans {pages} pages");
                let transaction = Transaction {
                    kind: ocb::TransactionKind::SimpleTraversal,
                    root: oids[0],
                    accesses: (0..accesses)
                        .map(|i| ocb::Access {
                            oid: oids[i % pages],
                            parent: None,
                            write: false,
                        })
                        .collect(),
                };
                run_phase(&base, params, vec![transaction])
            })
            .expect("thread spawns")
            .join()
            .expect("the transaction completes")
    }

    #[test]
    fn a_long_all_miss_transaction_runs_in_a_small_stack() {
        // Three pages cycled through a 2-frame LRU buffer: every access
        // misses, and its lock CPU (first pass only), disk and network
        // steps all run inline. Each access unwinds its step frames
        // before the next starts.
        let params = VoodbParams {
            buffer_pages: 2,
            ..small_params()
        };
        let outcome = run_long_transaction(params, 3, 100_000);
        assert_eq!(outcome.transactions, 1);
        assert_eq!(outcome.hit_ratio, 0.0);
        assert_eq!(outcome.io.reads, 100_000);
        assert!(
            outcome.events < 20,
            "inline misses must not be dispatched: {} events",
            outcome.events
        );
    }

    #[test]
    fn a_long_all_hit_transaction_runs_in_a_small_stack() {
        // Access hops run inline in a loop: one transaction of 100k
        // buffer hits must not grow the stack per access.
        let params = VoodbParams {
            system_class: SystemClass::Centralized,
            ..small_params()
        };
        let outcome = run_long_transaction(params, 1, 100_000);
        assert_eq!(outcome.transactions, 1);
        assert!(outcome.hit_ratio > 0.99);
        assert!(
            outcome.events < 20,
            "all-hit accesses must not be dispatched: {} events",
            outcome.events
        );
    }

    #[test]
    fn cohort_wakes_never_duplicate() {
        // A large closed horizon phase: the initial load draws ~H(n)
        // new minima per cohort, and none of those superseded arms may
        // survive as a duplicate wake. The per-user oracle dispatches
        // one `Submit` per wake; cohort mode may exceed it by at most
        // one wake per commit (a resubmission supersedes at most one
        // arm) plus one per cohort.
        let base = base();
        let cohorts = [
            UserCohort {
                size: 15_000,
                think_time_ms: 400.0,
            },
            UserCohort {
                size: 5_000,
                think_time_ms: 900.0,
            },
        ];
        let params = VoodbParams {
            multiprogramming_level: 8,
            ..small_params()
        };
        // Short transactions, so the window sees plenty of commits.
        let workload = WorkloadParams {
            p_set: 0.0,
            p_simple: 0.0,
            p_hierarchy: 0.0,
            p_stochastic: 1.0,
            stochastic_depth: 5,
            ..WorkloadParams::default()
        };
        let run = |user_model| {
            let generator = WorkloadGenerator::new(&base, workload.clone(), 5);
            let mut simulation = crate::experiment::Simulation::new(&base, params.clone(), 0.0, 5);
            simulation.configure_users(user_model, &cohorts);
            simulation
                .run_phase_source_on::<_, desp::CalendarKind>(
                    Box::new(ocb::LazySource::unbounded(generator)),
                    PhaseMode::Horizon {
                        duration_ms: 2_000.0,
                        warmup_ms: 0.0,
                    },
                    Arrival::Closed,
                    desp::NoProbe,
                )
                .0
        };
        let oracle = run(UserModel::PerUser);
        let cohort = run(UserModel::Cohort);
        assert_results_bit_identical(&oracle, &cohort);
        let bound = oracle.events + cohort.transactions as u64 + cohorts.len() as u64;
        assert!(
            cohort.events <= bound,
            "cohort mode dispatched {} events, oracle {} (bound {bound})",
            cohort.events,
            oracle.events
        );
    }
}
