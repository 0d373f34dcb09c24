//! The three workloads, their jobs, and the checks on every job's output.
//!
//! Each workload is a scenario (parsed by the `scenario` layer, so its
//! grid and seeds are exactly what `voodb run` would use) plus the
//! protocol its jobs follow:
//!
//! * `fig8_o2_cache` — one streamed count phase per job, then the
//!   identical transaction stream on `oostore::PageServerEngine`;
//! * `users_1m` — one streamed time-horizon phase with the cohort user
//!   model (no engine twin);
//! * `texas_dstc_2pl` — the §4.4 protocol of `voodb::run_dstc_study`
//!   (pre-clustering run, external reorganisation, cold restart,
//!   post-clustering run) under two-phase wait-die locking, written out
//!   with `Simulation` so the model's counters stay readable, then the
//!   same protocol on `oostore::TexasEngine`.
//!
//! A traced job additionally replays each phase's transactions, in
//! transaction order, through the layers the model calls per access
//! (`ObjectManager::page_of` → `BufferingManager::access` →
//! `IoSubsystem::service_batch`, and `LockManager::request`), each loop
//! timed as one span parented to the phase span. The replay cannot see
//! the model's interleaving at MPL > 1, so its counts are reported next
//! to the model's own.

use crate::harness::{Digest, Span, Tracer};
use desp::{NoProbe, SchedulerKind};
use ocb::{ObjectBase, Transaction, WorkloadGenerator, WorkloadParams};
use oostore::{
    run_workload, PageServerConfig, PageServerEngine, StorageEngine, TexasConfig, TexasEngine,
};
use scenario::runner::{point_seed, replication_seed, WORKLOAD_SEED_SALT};
use scenario::{Scenario, SweepPoint};
use voodb::{
    workload_phase, BufferDemand, BufferingManager, ConcurrencyControl, DeadlockPolicy,
    IoSubsystem, LockManager, LockMode, PhaseResult, SimReorgReport, Simulation, VoodbModel,
    VoodbParams,
};

/// The protocol a workload's jobs follow.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    O2Cache,
    Users,
    TexasDstc,
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Why it was chosen (one line, for `BENCHMARK.json`).
    pub why: &'static str,
    /// Its input sizes, for the manifest.
    pub inputs: &'static str,
    pub kind: Kind,
    /// The scenario text: system, base, workload and sweep axis.
    pub toml: &'static str,
    /// Replications per point in one round.
    pub reps: usize,
    /// Nominal host time of one round at two workers, in s; a run
    /// measures `seconds / round_s` rounds, so the work measured is fixed
    /// per `--seconds` and equal on both sides of a comparison.
    pub round_s: f64,
}

const FIG8_TOML: &str = r#"
# Paper Fig. 8: mean I/Os vs O2 server cache size on the mid-sized base.
[scenario]
name = "fig8_o2_cache"
description = "O2 page server, cache 8-64 MB, 20000 objects, simulated and on the engine"
replications = 2
seed = 42

[system]
system_class = "page-server"
network_throughput_mbps = inf
page_replacement = "lru"
disk = "o2"
multiprogramming_level = 10

[database]
classes = 50
objects = 20000

[workload]
hot_transactions = 1000

[[sweep]]
param = "system.cache_mb"
values = [8, 12, 16, 24, 32, 64]
"#;

const USERS_TOML: &str = r#"
# The million-user closed phase (the 1M-user, MPL 64 cell of million_users).
[scenario]
name = "users_1m"
description = "1M closed users in cohorts, MPL 64, 2 s horizon"
replications = 2
seed = 42

[system]
system_class = "page-server"
network_throughput_mbps = 8.0
buffer_pages = 256
page_replacement = "lru"
multiprogramming_level = 64

[database]
classes = 12
objects = 2000

[workload]
user_model = "cohort"
users = 1000000
think_time_ms = 50.0
duration_ms = 2000.0
warmup_ms = 200.0
"#;

const TEXAS_TOML: &str = r#"
# The 4.4 DSTC protocol on Texas (dstc_mid parameters, external trigger),
# 8 users at MPL 8 with writes; two-phase wait-die locking is set in code
# (the scenario format has no concurrency-control key).
[scenario]
name = "texas_dstc_2pl"
description = "Texas + swizzling + DSTC under 2PL wait-die, 3 vs 64 MB"
replications = 10
seed = 42

[system]
system_class = "centralized"
network_throughput_mbps = inf
page_replacement = "lru"
disk = "texas"
multiprogramming_level = 8
get_lock_ms = 0.0
release_lock_ms = 0.0
swizzle = true
clustering = "dstc"
dstc_observation_period = 10000
dstc_tfa = 1.0
dstc_tfc = 0.5
dstc_tfe = 1.0
dstc_w = 0.8
dstc_max_unit_size = 64
dstc_trigger_threshold = 9223372036854775807

[database]
classes = 50
objects = 20000

[workload]
users = 8
hot_transactions = 1000
p_set = 0.0
p_simple = 0.0
p_hierarchy = 1.0
p_stochastic = 0.0
hierarchy_depth = 3
root_dist = "hotset-0.015-1.0"
p_write = 0.2

[[sweep]]
param = "system.memory_mb"
values = [3, 64]
"#;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fig8_o2_cache",
        why: "Paper Fig. 8 grid, simulated and replayed on the O2 page-server engine: \
              buffer management dominates, caches on both sides of the base size",
        inputs: "O2 page server, 50 classes, 20000 objects (~20 MB), cache 8/12/16/24/32/64 MB, \
                 MPL 10, 1000 read-only default-mix transactions; 6 points x 2 replications per round",
        kind: Kind::O2Cache,
        toml: FIG8_TOML,
        reps: 2,
        round_s: 1.25,
    },
    Workload {
        name: "users_1m",
        why: "Million-user closed phase: cohort wakes and admission-ring traffic stress desp, \
              admission and memory; bypasses bman, oostore and clustering",
        inputs: "cohort user model, 1000000 users, 50 ms think time, MPL 64, 12 classes, 2000 objects, \
                 256 buffer pages, 2 s horizon with 200 ms warm-up; 1 point x 2 replications per round",
        kind: Kind::Users,
        toml: USERS_TOML,
        reps: 2,
        round_s: 0.9,
    },
    Workload {
        name: "texas_dstc_2pl",
        why: "Paper 4.4 DSTC protocol on Texas with swizzling under two-phase wait-die locking, \
              simulated and on the Texas engine: dirty write-backs, lock restarts, reorganisation",
        inputs: "Texas 3 and 64 MB, 50 classes, 20000 objects, DSTC (dstc_mid, external trigger), \
                 dstc_favorable mix with p_write 0.2, 8 users at MPL 8, 1000 transactions per run; \
                 2 points x 10 replications per round",
        kind: Kind::TexasDstc,
        toml: TEXAS_TOML,
        reps: 10,
        round_s: 0.5,
    },
];

/// Restart backoff of wait-die victims in `texas_dstc_2pl`, in ms.
const RESTART_BACKOFF_MS: f64 = 5.0;

/// Engine/simulation I/O ratio bands of `tests/bench_vs_sim.rs`.
const O2_RATIO_BAND: (f64, f64) = (0.95, 1.25);
const TEXAS_RATIO_BAND: (f64, f64) = (0.9, 1.3);
/// Minimum engine/simulation reorganisation I/O ratio (the Table 6
/// physical-OID anomaly), checked where Table 6 measured it: with the
/// working set cached (64 MB). At 3 MB the simulated reorganisation
/// misses the buffer too and the gap narrows.
const REORG_ANOMALY_MIN: f64 = 5.0;
const REORG_ANOMALY_MB: usize = 64;

/// A workload's grid of (point × replication) jobs for one seed.
///
/// Each point's object base derives from the scenario's own seed, so it
/// is the same for every `--seed`: the paper built each database once,
/// and the bases' shapes, not the streams, are what would otherwise make
/// one seed's run twice as long as another's. Every transaction stream
/// derives from `--seed`, and each round of a run uses fresh replication
/// indices, so a run averages over many independent streams.
pub struct Grid {
    pub workload: &'static Workload,
    pub scenario: Scenario,
    pub points: Vec<SweepPoint>,
    /// The swept size in MB per point (cache or memory; 0 without sweep).
    knob_mb: Vec<usize>,
    /// The `--seed` argument.
    pub seed: u64,
}

impl Grid {
    /// # Errors
    /// When the scenario text does not parse or validate.
    pub fn new(workload: &'static Workload, seed: u64) -> Result<Grid, String> {
        let mut scenario = Scenario::parse(workload.toml)?;
        scenario.replications = workload.reps;
        scenario.validate()?;
        let points = scenario.grid();
        let knob_mb = points
            .iter()
            .map(|point| {
                point
                    .coords
                    .iter()
                    .find(|(param, _)| param.ends_with("_mb"))
                    .map_or(Ok(0), |(param, value)| {
                        value
                            .as_usize()
                            .ok_or_else(|| format!("{param} is not a whole number of MB"))
                    })
            })
            .collect::<Result<_, _>>()?;
        Ok(Grid {
            workload,
            scenario,
            points,
            knob_mb,
            seed,
        })
    }

    pub fn kind(&self) -> Kind {
        self.workload.kind
    }

    pub fn jobs(&self) -> usize {
        self.points.len() * self.workload.reps
    }

    /// Seed of `point`'s object base.
    pub fn base_seed(&self, point: usize) -> u64 {
        point_seed(self.scenario.seed, point)
    }

    /// `(point, replication seed)` of job `job` in round `round`.
    pub fn job_seed(&self, round: usize, job: usize) -> (usize, u64) {
        let reps = self.workload.reps;
        let (point, rep) = (job / reps, job % reps);
        let stream = point_seed(self.seed, point);
        (point, replication_seed(stream, round * reps + rep))
    }

    pub fn workload_params(&self, point: usize) -> &WorkloadParams {
        &self.points[point].config.workload
    }

    /// The simulated system of `point`, with the settings the scenario
    /// format cannot express applied.
    pub fn system(&self, point: usize) -> VoodbParams {
        let mut system = self.points[point].config.effective_system();
        if self.kind() == Kind::TexasDstc {
            system.concurrency = ConcurrencyControl::TwoPhase {
                restart_backoff_ms: RESTART_BACKOFF_MS,
                deadlock: DeadlockPolicy::WaitDie,
            };
        }
        system
    }

    pub fn knob_mb(&self, point: usize) -> usize {
        self.knob_mb[point]
    }

    /// Builds the model of `point` (placement included), ready for its
    /// first phase.
    pub fn simulation<'a>(&self, point: usize, base: &'a ObjectBase, seed: u64) -> Simulation<'a> {
        let workload = self.workload_params(point);
        let mut simulation =
            Simulation::new(base, self.system(point), workload.think_time_ms, seed);
        simulation.configure_users(workload.user_model, &workload.cohorts);
        simulation
    }

    /// The page-server twin of a `fig8_o2_cache` point.
    pub fn o2_engine<'a>(&self, point: usize, base: &'a ObjectBase) -> PageServerEngine<'a> {
        PageServerEngine::new(base, PageServerConfig::with_cache_mb(self.knob_mb(point)))
    }

    /// The Texas twin of a `texas_dstc_2pl` point, clustering as the model.
    pub fn texas_engine<'a>(&self, point: usize, base: &'a ObjectBase) -> TexasEngine<'a> {
        let mut config = TexasConfig::with_memory_mb(self.knob_mb(point));
        config.clustering = self.system(point).clustering;
        TexasEngine::new(base, config)
    }
}

/// Generates the `COLDN + HOTN` run a replication seed prescribes: the
/// stream the streamed phase pulls and the engines replay.
pub fn generate_run(
    base: &ObjectBase,
    workload: &WorkloadParams,
    seed: u64,
) -> (Vec<Transaction>, usize) {
    let mut generator = WorkloadGenerator::new(base, workload.clone(), seed ^ WORKLOAD_SEED_SALT);
    let (cold, hot) = generator.generate_run();
    let cold_count = cold.len();
    let mut transactions = cold;
    transactions.extend(hot);
    (transactions, cold_count)
}

/// Counts of a traced job's layer replays.
#[derive(Clone, Copy, Default)]
pub struct Replay {
    pub transactions: u64,
    pub accesses: u64,
    pub hits: u64,
    pub misses: u64,
    pub writebacks: u64,
    pub batches: u64,
    pub ios: u64,
    pub lock_requests: u64,
}

impl Replay {
    pub fn add(&mut self, other: Replay) {
        self.transactions += other.transactions;
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
        self.batches += other.batches;
        self.ios += other.ios;
        self.lock_requests += other.lock_requests;
    }
}

/// Everything a job produced.
#[derive(Default)]
pub struct JobOut {
    /// The simulated phases (texas: pre- and post-clustering).
    pub phases: Vec<PhaseResult>,
    /// The simulated reorganisation (texas only).
    pub sim_reorg: Option<SimReorgReport>,
    /// Engine I/Os per engine phase, comparable to `phases`.
    pub engine_phase_ios: Vec<u64>,
    /// Engine reorganisation I/Os (texas only).
    pub engine_reorg_ios: u64,
    /// Peak in-flight transaction slots over the job's phases.
    pub slab_peak: usize,
    /// Peak admission-ring depth.
    pub ring_high_water: usize,
    /// Wait-die restarts.
    pub aborts: u64,
    /// Transactions generated under an `ocb.tx_gen` span.
    pub generated: u64,
    /// Layer replay counts (traced jobs only).
    pub replay: Replay,
    /// Spans (traced jobs only).
    pub spans: Vec<Span>,
}

impl JobOut {
    /// Feeds every simulated and engine result field into `digest`.
    /// Replay counts and spans are left out: they exist in traced runs
    /// only.
    pub fn digest_into(&self, digest: &mut Digest) {
        for phase in &self.phases {
            digest.u64(phase.transactions as u64);
            digest.u64(phase.io.reads);
            digest.u64(phase.io.writes);
            digest.f64(phase.mean_response_ms);
            digest.f64(phase.throughput_tps);
            digest.f64(phase.hit_ratio);
            digest.f64(phase.sim_elapsed_ms);
            digest.u64(phase.events);
            for reorg in &phase.reorgs {
                digest_reorg(digest, reorg);
            }
        }
        if let Some(reorg) = &self.sim_reorg {
            digest_reorg(digest, reorg);
        }
        for &ios in &self.engine_phase_ios {
            digest.u64(ios);
        }
        digest.u64(self.engine_reorg_ios);
        digest.u64(self.slab_peak as u64);
        digest.u64(self.ring_high_water as u64);
        digest.u64(self.aborts);
    }

    pub fn sim_ios(&self) -> u64 {
        self.phases.iter().map(PhaseResult::total_ios).sum()
    }
}

fn digest_reorg(digest: &mut Digest, reorg: &SimReorgReport) {
    digest.u64(reorg.io.reads);
    digest.u64(reorg.io.writes);
    digest.f64(reorg.duration_ms);
    digest.u64(reorg.cluster_count as u64);
    digest.f64(reorg.mean_cluster_size);
    digest.u64(reorg.moved_objects);
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// What a phase must have measured.
enum Expect {
    /// A count phase commits exactly `HOTN` transactions.
    Commits(usize),
    /// A horizon phase measures exactly the window after the warm-up, in
    /// simulated ms (its commit count is random and may be 0).
    Window(f64),
}

/// The checks every simulated phase must pass.
fn check_phase(phase: &PhaseResult, expect: Expect) -> Result<(), String> {
    match expect {
        Expect::Commits(hotn) => check(phase.transactions == hotn, || {
            format!(
                "count phase committed {} transactions, HOTN is {hotn}",
                phase.transactions
            )
        })?,
        Expect::Window(ms) => check((phase.sim_elapsed_ms - ms).abs() < 1e-6, || {
            format!(
                "horizon phase measured {} simulated ms, not the {ms} ms window",
                phase.sim_elapsed_ms
            )
        })?,
    }
    check(phase.events > 0, || "phase dispatched no event".into())?;
    check(
        phase.total_ios() == phase.io.reads + phase.io.writes,
        || "I/Os differ from reads + writes".into(),
    )?;
    check((0.0..=1.0).contains(&phase.hit_ratio), || {
        format!("hit ratio {} outside [0, 1]", phase.hit_ratio)
    })
}

fn check_ratio(engine: u64, sim: u64, band: (f64, f64), what: &str) -> Result<(), String> {
    let ratio = engine as f64 / sim.max(1) as f64;
    check((band.0..=band.1).contains(&ratio), || {
        format!(
            "{what}: engine/sim I/O ratio {ratio:.3} ({engine} vs {sim}) outside [{}, {}]",
            band.0, band.1
        )
    })
}

/// Runs job `job` of round `round` of `grid` over the round's prepared
/// bases, recording spans when `tracer` is enabled.
///
/// # Errors
/// The first output check the job fails.
pub fn run_job(
    grid: &Grid,
    bases: &[ObjectBase],
    round: usize,
    job: usize,
    mut tracer: Tracer,
) -> Result<JobOut, String> {
    let (point, seed) = grid.job_seed(round, job);
    let base = &bases[point];
    let root = tracer.open("job", None);
    let mut out = match grid.kind() {
        Kind::O2Cache | Kind::Users => streamed_job(grid, base, point, seed, &mut tracer, root)?,
        Kind::TexasDstc => dstc_job(grid, base, point, seed, &mut tracer, root)?,
    };
    tracer.close(root);
    out.spans = tracer.into_spans();
    Ok(out)
}

/// `fig8_o2_cache` and `users_1m`: one streamed phase, then (fig8) the
/// identical stream on the page-server engine.
fn streamed_job(
    grid: &Grid,
    base: &ObjectBase,
    point: usize,
    seed: u64,
    tracer: &mut Tracer,
    root: u32,
) -> Result<JobOut, String> {
    let workload = grid.workload_params(point);
    let system = grid.system(point);
    let mut simulation = tracer.span("model.build", Some(root), || {
        grid.simulation(point, base, seed)
    });
    let phase_span = tracer.open("model.phase", Some(root));
    let generator = WorkloadGenerator::new(base, workload.clone(), seed ^ WORKLOAD_SEED_SALT);
    let (source, mode) = workload_phase(generator);
    let (phase, _) = simulation.run_phase_source_sched(
        source,
        mode,
        workload.arrival,
        NoProbe,
        SchedulerKind::default(),
    );
    tracer.close(phase_span);
    let model = simulation.model();
    let mut out = JobOut {
        slab_peak: model.tx_slab_high_water(),
        ring_high_water: model.admission_high_water(),
        ..JobOut::default()
    };
    let mpl = system.multiprogramming_level;
    check(out.slab_peak <= mpl, || {
        format!("slab peak {} exceeds MPL {mpl}", out.slab_peak)
    })?;

    if grid.kind() == Kind::Users {
        check_phase(
            &phase,
            Expect::Window(workload.duration_ms - workload.warmup_ms),
        )?;
        let users = model.user_count();
        check(out.ring_high_water >= users - mpl, || {
            format!(
                "admission ring high-water {} below users - MPL = {}",
                out.ring_high_water,
                users - mpl
            )
        })?;
        if tracer.enabled() {
            // The phase pulled its stream lazily: regenerate the
            // committed count of transactions, in stream order.
            let count = phase.transactions;
            let transactions = tracer.span("ocb.tx_gen", Some(phase_span), || {
                let mut generator =
                    WorkloadGenerator::new(base, workload.clone(), seed ^ WORKLOAD_SEED_SALT);
                (0..count)
                    .map(|_| generator.next_transaction())
                    .collect::<Vec<_>>()
            });
            out.generated = transactions.len() as u64;
            out.replay = replay_layers(tracer, phase_span, root, model, &transactions);
        }
        out.phases.push(phase);
        return Ok(out);
    }

    check_phase(&phase, Expect::Commits(workload.hot_transactions))?;
    // The identical stream, materialised for the engine; in a traced job
    // it also stands in for the generation the streamed phase did.
    let (transactions, cold) = tracer.span("ocb.tx_gen", Some(phase_span), || {
        generate_run(base, workload, seed)
    });
    out.generated = transactions.len() as u64;
    if tracer.enabled() {
        out.replay = replay_layers(tracer, phase_span, root, model, &transactions);
    }
    let mut engine = tracer.span("oostore.build", Some(root), || grid.o2_engine(point, base));
    let run = tracer.open("oostore.run", Some(root));
    run_workload(&mut engine, &transactions[..cold]);
    engine.reset_counters();
    let report = run_workload(&mut engine, &transactions[cold..]);
    tracer.close(run);
    check_ratio(
        report.total_ios(),
        phase.total_ios(),
        O2_RATIO_BAND,
        "O2 page server",
    )?;
    out.engine_phase_ios.push(report.total_ios());
    out.phases.push(phase);
    Ok(out)
}

/// `texas_dstc_2pl`: the §4.4 protocol on both sides.
fn dstc_job(
    grid: &Grid,
    base: &ObjectBase,
    point: usize,
    seed: u64,
    tracer: &mut Tracer,
    root: u32,
) -> Result<JobOut, String> {
    let workload = grid.workload_params(point);
    let mpl = grid.system(point).multiprogramming_level;
    let (transactions, cold) = tracer.span("ocb.tx_gen", Some(root), || {
        generate_run(base, workload, seed)
    });
    let hot = &transactions[cold..];
    let mut simulation = tracer.span("model.build", Some(root), || {
        grid.simulation(point, base, seed)
    });
    let mut out = JobOut {
        generated: transactions.len() as u64,
        ..JobOut::default()
    };
    let mut run_phase = |simulation: &mut Simulation<'_>, tracer: &mut Tracer| {
        let span = tracer.open("model.phase", Some(root));
        let phase = simulation.run_phase(transactions.clone(), cold);
        tracer.close(span);
        let model = simulation.model();
        out.slab_peak = out.slab_peak.max(model.tx_slab_high_water());
        if tracer.enabled() {
            let replay = replay_layers(tracer, span, root, model, &transactions);
            out.replay.add(replay);
        }
        phase
    };
    let pre = run_phase(&mut simulation, tracer);
    // External demand on the warm state, then a cold restart.
    let reorg = tracer.span("cman.reorg", Some(root), || {
        simulation.external_reorganize()
    });
    simulation.flush_buffers();
    let post = run_phase(&mut simulation, tracer);
    out.aborts = simulation.model().aborts();
    for phase in [&pre, &post] {
        check_phase(phase, Expect::Commits(workload.hot_transactions))?;
    }
    check(out.slab_peak <= mpl, || {
        format!("slab peak {} exceeds MPL {mpl}", out.slab_peak)
    })?;
    check(reorg.cluster_count > 0, || "DSTC built no cluster".into())?;

    let mut engine = tracer.span("oostore.build", Some(root), || {
        grid.texas_engine(point, base)
    });
    let run = tracer.open("oostore.run", Some(root));
    run_workload(&mut engine, &transactions[..cold]);
    engine.reset_counters();
    let engine_pre = run_workload(&mut engine, hot);
    tracer.close(run);
    engine.reset_counters();
    let engine_reorg = tracer.span("oostore.reorg", Some(root), || engine.reorganize());
    engine.flush_memory();
    engine.reset_counters();
    let run = tracer.open("oostore.run", Some(root));
    let engine_post = run_workload(&mut engine, hot);
    tracer.close(run);

    check_ratio(
        engine_pre.total_ios(),
        pre.total_ios(),
        TEXAS_RATIO_BAND,
        "Texas pre-clustering",
    )?;
    let anomaly = engine_reorg.total_ios() as f64 / reorg.io.total().max(1) as f64;
    check(
        grid.knob_mb(point) != REORG_ANOMALY_MB || anomaly > REORG_ANOMALY_MIN,
        || {
            format!(
            "reorganisation anomaly {anomaly:.1}x (engine {} vs sim {}) not above {REORG_ANOMALY_MIN}x",
            engine_reorg.total_ios(),
            reorg.io.total()
        )
        },
    )?;
    out.engine_phase_ios = vec![engine_pre.total_ios(), engine_post.total_ios()];
    out.engine_reorg_ios = engine_reorg.total_ios();
    out.sim_reorg = Some(reorg);
    out.phases = vec![pre, post];
    Ok(out)
}

/// Replays `transactions`, in order, through the layers the model calls
/// per access, one span per layer loop parented to the phase span
/// `parent`. Fresh buffer, I/O and lock state, as at the start of a cold
/// phase; the placement is the model's current one. The lock manager is
/// replayed on every workload, but only a two-phase-locking model calls
/// it, so otherwise its span hangs off the job span `root` instead.
pub fn replay_layers(
    tracer: &mut Tracer,
    parent: u32,
    root: u32,
    model: &VoodbModel<'_>,
    transactions: &[Transaction],
) -> Replay {
    let params = model.params();
    let lock_parent = match params.concurrency {
        ConcurrencyControl::TwoPhase { .. } => parent,
        ConcurrencyControl::TimedOnly => root,
    };
    let oman = model.oman();
    let frames = params.buffer_pages.max(2);
    let mut bman = if params.swizzle {
        BufferingManager::swizzling(frames)
    } else {
        BufferingManager::standard(frames, params.page_replacement)
    };
    let demands: Vec<BufferDemand> = tracer.span("bman.access", Some(parent), || {
        let mut demands = Vec::new();
        for transaction in transactions {
            for access in &transaction.accesses {
                let demand = bman.access(oman.page_of(access.oid), access.write);
                if demand.total_ios() > 0 {
                    demands.push(demand);
                }
            }
        }
        demands
    });
    let mut iosub = IoSubsystem::new(params.disk);
    tracer.span("iosub.batch", Some(parent), || {
        demands
            .iter()
            .map(|demand| iosub.service_batch(&demand.writes, &demand.reads))
            .sum::<f64>()
    });
    let lock_requests = tracer.span("lockmgr.request", Some(lock_parent), || {
        let mut locks = LockManager::new();
        let mut requests = 0u64;
        for (serial, transaction) in transactions.iter().enumerate() {
            for access in &transaction.accesses {
                let mode = if access.write {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                locks.request(serial, access.oid, mode, DeadlockPolicy::WaitDie);
                requests += 1;
            }
            locks.release_all(serial);
        }
        requests
    });
    let stats = bman.stats();
    Replay {
        transactions: transactions.len() as u64,
        accesses: transactions.iter().map(|t| t.accesses.len() as u64).sum(),
        hits: stats.hits,
        misses: stats.misses,
        writebacks: demands.iter().map(|d| d.writes.len() as u64).sum(),
        batches: demands.len() as u64,
        ios: iosub.counts().total(),
        lock_requests,
    }
}
