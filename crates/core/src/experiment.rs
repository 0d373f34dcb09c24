//! Experiment drivers: phases, replications, and the DSTC study protocol.
//!
//! The paper's experimental protocol (§4.2.2): every configuration is
//! simulated as independent replications; results carry 95% Student-t
//! confidence intervals; a pilot study of 10 replications sizes the run
//! (`n* = n·(h/h*)²`), 100 replications being always sufficient.
//!
//! [`Simulation`] drives one replication through its phases (a cold run,
//! the measured warm run, external clustering demands, cold restarts);
//! [`run_replication`] is the standard single-phase replication. The
//! scenario runner (`scenario::run_sweep`) runs it once per (point ×
//! replication) and computes the intervals.

use crate::cman::SimReorgReport;
use crate::model::{PhaseMode, VoodbModel};
use crate::params::VoodbParams;
use crate::results::PhaseResult;
use clustering::ClusteringKind;
use desp::{CalendarKind, Engine, HeapKind, NoProbe, Probe, QueueKind, SchedulerKind, SimTime};
use ocb::{
    Arrival, DatabaseParams, LazySource, ObjectBase, Transaction, TransactionSource,
    WorkloadGenerator, WorkloadParams,
};

/// Salt decorrelating a replication's workload stream from its model
/// stream: the workload generator of seed `s` runs on
/// `s ^ WORKLOAD_SEED_SALT`.
pub const WORKLOAD_SEED_SALT: u64 = 0x0C0B_57A7_15EC_5EED;

/// The materialized run of replication seed `seed` over `base`: the
/// workload's cold then measured transactions as one stream, generated
/// on `seed ^ WORKLOAD_SEED_SALT`, and the cold count.
pub fn generate_workload(
    base: &ObjectBase,
    workload: &WorkloadParams,
    seed: u64,
) -> (Vec<Transaction>, usize) {
    let mut generator = WorkloadGenerator::new(base, workload.clone(), seed ^ WORKLOAD_SEED_SALT);
    let (mut transactions, hot) = generator.generate_run();
    let cold_count = transactions.len();
    transactions.extend(hot);
    (transactions, cold_count)
}

/// The streamed phase a workload prescribes: a time-horizon phase when
/// `duration_ms > 0`, else the classic `COLDN + HOTN` count-based run —
/// either way pulling lazily from `generator`, so phase memory is
/// O(in-flight) transactions rather than O(total).
pub fn workload_phase<'a>(
    generator: WorkloadGenerator<'a>,
) -> (Box<dyn TransactionSource + 'a>, PhaseMode) {
    let wl = generator.params();
    if wl.duration_ms > 0.0 {
        let mode = PhaseMode::Horizon {
            duration_ms: wl.duration_ms,
            warmup_ms: wl.warmup_ms,
        };
        (Box::new(LazySource::unbounded(generator)), mode)
    } else {
        let total = wl.cold_transactions + wl.hot_transactions;
        let mode = PhaseMode::Count {
            cold: wl.cold_transactions,
        };
        (Box::new(LazySource::bounded(generator, total)), mode)
    }
}

/// A multi-phase simulation of one replication.
pub struct Simulation<'a> {
    model: Option<VoodbModel<'a>>,
}

impl<'a> Simulation<'a> {
    /// Builds the simulation over `base` with the Table 3 parameters.
    pub fn new(base: &'a ObjectBase, params: VoodbParams, think_time_ms: f64, seed: u64) -> Self {
        Simulation {
            model: Some(VoodbModel::new(base, params, think_time_ms, seed)),
        }
    }

    /// Selects the closed-population representation (per-user oracle or
    /// cohort batching) and an optional explicit cohort partition; see
    /// [`VoodbModel::set_user_population`].
    pub fn configure_users(&mut self, user_model: ocb::UserModel, cohorts: &[ocb::UserCohort]) {
        self.model
            .as_mut()
            .expect("model present")
            .set_user_population(user_model, cohorts);
    }

    /// Runs one phase: executes `transactions`, measuring from index
    /// `cold_count` onwards. State (buffers, placement, clustering
    /// statistics) carries over between phases.
    pub fn run_phase(&mut self, transactions: Vec<Transaction>, cold_count: usize) -> PhaseResult {
        self.run_phase_probed(transactions, cold_count, NoProbe).0
    }

    /// Runs one phase with a trace probe attached (e.g. a
    /// `voodb-trace` recorder), returning the probe alongside the
    /// result. Probes only observe, so the [`PhaseResult`] is
    /// bit-identical to an untraced [`Self::run_phase`] of the same
    /// phase.
    pub fn run_phase_probed<P: Probe>(
        &mut self,
        transactions: Vec<Transaction>,
        cold_count: usize,
        probe: P,
    ) -> (PhaseResult, P) {
        assert!(cold_count <= transactions.len());
        self.run_phase_source_on::<P, CalendarKind>(
            Box::new(ocb::MaterializedSource::new(transactions)),
            PhaseMode::Count { cold: cold_count },
            Arrival::Closed,
            probe,
        )
    }

    /// Runs one **streamed** phase: the Users sub-model pulls from
    /// `source` under `arrival`, terminating per `mode` — to source
    /// exhaustion ([`PhaseMode::Count`]) or at the simulated-time
    /// horizon ([`PhaseMode::Horizon`], which may cut transactions off
    /// mid-flight; only committed ones are counted). Phase memory is
    /// O(in-flight) transactions.
    pub fn run_phase_source_on<P: Probe, Q: QueueKind>(
        &mut self,
        source: Box<dyn TransactionSource + 'a>,
        mode: PhaseMode,
        arrival: Arrival,
        probe: P,
    ) -> (PhaseResult, P) {
        let mut model = self.model.take().expect("model present");
        model.load_phase_streamed(source, mode, arrival);
        let mut engine = Engine::<_, P, Q>::with_probe_on(model, probe);
        let outcome = match mode {
            PhaseMode::Count { .. } => engine.run_to_completion(),
            PhaseMode::Horizon { duration_ms, .. } => {
                engine.run_until(SimTime::from_ms(duration_ms))
            }
        };
        let (mut model, probe) = engine.into_parts();
        model.finalize_phase(outcome.end_time);
        let result = model.phase_result(outcome.events_dispatched);
        self.model = Some(model);
        (result, probe)
    }

    /// [`Self::run_phase_source_on`] on a runtime-selected scheduler kind.
    pub fn run_phase_source_sched<P: Probe>(
        &mut self,
        source: Box<dyn TransactionSource + 'a>,
        mode: PhaseMode,
        arrival: Arrival,
        probe: P,
        sched: SchedulerKind,
    ) -> (PhaseResult, P) {
        match sched {
            SchedulerKind::Calendar => {
                self.run_phase_source_on::<P, CalendarKind>(source, mode, arrival, probe)
            }
            SchedulerKind::Heap => {
                self.run_phase_source_on::<P, HeapKind>(source, mode, arrival, probe)
            }
        }
    }

    /// Cold restart: empties every buffer (dirty pages written back).
    pub fn flush_buffers(&mut self) {
        self.model.as_mut().expect("model present").flush_buffers();
    }

    /// External clustering demand (the Users' arrow into the Clustering
    /// Manager in Fig. 4), executed between phases.
    pub fn external_reorganize(&mut self) -> SimReorgReport {
        self.model
            .as_mut()
            .expect("model present")
            .external_reorganize()
    }

    /// Read access to the model.
    pub fn model(&self) -> &VoodbModel<'a> {
        self.model.as_ref().expect("model present")
    }
}

/// One complete experiment configuration: the simulated system, the object
/// base, and the workload.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// The simulated system (Table 3 / Table 4).
    pub system: VoodbParams,
    /// The OCB object base.
    pub database: DatabaseParams,
    /// The OCB workload.
    pub workload: WorkloadParams,
}

impl ExperimentConfig {
    /// Validates all three parameter groups.
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.system.validate()?;
        self.database.validate()?;
        self.workload.validate()?;
        // The workload checked its own `users`; the population that runs
        // may be the system's NUSERS instead.
        self.workload
            .check_wake_run(self.effective_system().users)
            .map_err(|e| e.to_string())
    }

    /// The system parameters with the user population reconciled: a
    /// workload `users > 1` overrides the system's `NUSERS` (so sweeps
    /// over `workload.users` — up to the million-user scenarios — drive
    /// the closed population without touching the system table), while
    /// the historical default of 1 leaves `system.users` in charge.
    pub fn effective_system(&self) -> VoodbParams {
        let mut system = self.system.clone();
        if self.workload.users > 1 {
            system.users = self.workload.users;
        }
        system
    }
}

/// Runs one replication of `config` over `base`: **streams** the
/// workload from `seed ^ WORKLOAD_SEED_SALT` through a single phase
/// (count-based `COLDN` cold + `HOTN` measured transactions, or
/// time-horizon per the workload's `duration_ms`; phase memory is
/// O(in-flight) transactions) and runs the model on `seed`. The probe
/// only observes, so the [`PhaseResult`] is bit-identical to a
/// [`NoProbe`] run. The caller validates `config`.
pub fn run_replication<P: Probe>(
    base: &ObjectBase,
    config: &ExperimentConfig,
    seed: u64,
    probe: P,
) -> (PhaseResult, P) {
    let workload = &config.workload;
    let generator = WorkloadGenerator::new(base, workload.clone(), seed ^ WORKLOAD_SEED_SALT);
    let (source, mode) = workload_phase(generator);
    let mut simulation = Simulation::new(
        base,
        config.effective_system(),
        workload.think_time_ms,
        seed,
    );
    simulation.configure_users(workload.user_model, &workload.cohorts);
    simulation.run_phase_source_sched(
        source,
        mode,
        workload.arrival,
        probe,
        SchedulerKind::default(),
    )
}

/// Result of the §4.4 DSTC protocol: pre-clustering usage, clustering
/// overhead, post-clustering usage (Tables 6 and 8), and the cluster
/// statistics (Table 7).
#[derive(Clone, Debug)]
pub struct DstcStudyResult {
    /// The pre-clustering measured run (cold start).
    pub pre: PhaseResult,
    /// The reorganisation (its I/Os are the "clustering overhead" row).
    pub reorg: SimReorgReport,
    /// The post-clustering measured run (cold start, same transactions).
    pub post: PhaseResult,
}

/// Runs one replication of the §4.4 protocol over `base`: a cold
/// pre-clustering run (during which the strategy observes), an external
/// clustering demand, a cold restart, and a post-clustering re-run of the
/// *same* transactions. The automatic trigger is disarmed, so the
/// external demand is the protocol's only reorganisation. Without a
/// clustering strategy the demand builds nothing: the no-clustering
/// baseline of a strategy comparison.
pub fn run_dstc_study(base: &ObjectBase, config: &ExperimentConfig, seed: u64) -> DstcStudyResult {
    config.validate().expect("invalid experiment configuration");
    let (transactions, cold_count) = generate_workload(base, &config.workload, seed);

    let mut system = config.effective_system();
    if let ClusteringKind::Dstc(params) = &mut system.clustering {
        params.trigger_threshold = usize::MAX;
    }
    let mut simulation = Simulation::new(base, system, config.workload.think_time_ms, seed);
    simulation.configure_users(config.workload.user_model, &config.workload.cohorts);
    let pre = simulation.run_phase(transactions.clone(), cold_count);
    // External demand on the warm state, as after the paper's first run.
    let reorg = simulation.external_reorganize();
    // Cold restart: the paper reused "the object base in its initial and
    // clustered state" in separate runs.
    simulation.flush_buffers();
    let post = simulation.run_phase(transactions, cold_count);
    DstcStudyResult { pre, reorg, post }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::DstcParams;

    fn small_config() -> ExperimentConfig {
        ExperimentConfig {
            system: VoodbParams {
                buffer_pages: 128,
                ..VoodbParams::default()
            },
            database: DatabaseParams::small(),
            workload: WorkloadParams {
                hot_transactions: 40,
                ..WorkloadParams::default()
            },
        }
    }

    #[test]
    fn run_replication_completes() {
        let config = small_config();
        let base = ObjectBase::generate(&config.database, 5);
        let (result, _) = run_replication(&base, &config, 5, NoProbe);
        assert_eq!(result.transactions, 40);
        assert!(result.total_ios() > 0);
    }

    #[test]
    fn replications_differ_but_seeds_reproduce() {
        let config = small_config();
        let base = ObjectBase::generate(&config.database, 1);
        let run = |seed| run_replication(&base, &config, seed, NoProbe).0;
        let (a, b, a2) = (run(1), run(2), run(1));
        assert_eq!(a.total_ios(), a2.total_ios());
        assert_ne!(
            (a.total_ios(), a.mean_response_ms),
            (b.total_ios(), b.mean_response_ms),
            "different seeds should differ"
        );
    }

    #[test]
    fn count_phase_after_a_horizon_cut_starts_clean() {
        // A horizon phase cut mid-transaction abandons in-flight
        // transactions; their lock entries and resource seats (the
        // MPL scheduler seat above all) must not leak into the next
        // phase of the same simulation.
        use crate::params::ConcurrencyControl;
        use ocb::MaterializedSource;

        let base = ObjectBase::generate(&DatabaseParams::small(), 31);
        let params = VoodbParams {
            buffer_pages: 64,
            users: 2,
            multiprogramming_level: 1,
            concurrency: ConcurrencyControl::TwoPhase {
                restart_backoff_ms: 5.0,
                deadlock: Default::default(),
            },
            ..VoodbParams::default()
        };
        let workload = WorkloadParams {
            hot_transactions: 20,
            p_write: 0.5,
            ..WorkloadParams::default()
        };
        let mut generator = WorkloadGenerator::new(&base, workload, 3);
        let transactions: Vec<Transaction> =
            (0..20).map(|_| generator.next_transaction()).collect();
        // Reference: the full drained run, for its elapsed time.
        let mut reference = Simulation::new(&base, params.clone(), 0.0, 9);
        let full = reference.run_phase(transactions.clone(), 0);
        assert_eq!(full.transactions, 20);

        let mut simulation = Simulation::new(&base, params, 0.0, 9);
        let (cut, _) = simulation.run_phase_source_sched(
            Box::new(MaterializedSource::new(transactions.clone())),
            PhaseMode::Horizon {
                duration_ms: full.sim_elapsed_ms * 0.5,
                warmup_ms: 0.0,
            },
            ocb::Arrival::Closed,
            NoProbe,
            SchedulerKind::default(),
        );
        assert!(
            cut.transactions < 20,
            "the horizon must cut transactions mid-flight"
        );
        // The next phase must be admitted and complete in full: no
        // leaked scheduler seat, no stale lock holders.
        let second = simulation.run_phase(transactions, 0);
        assert_eq!(
            second.transactions, 20,
            "phase after a horizon cut must start from clean resources"
        );
    }

    #[test]
    fn dstc_study_shows_gain_and_cheap_overhead() {
        let config = ExperimentConfig {
            system: VoodbParams {
                system_class: crate::params::SystemClass::Centralized,
                buffer_pages: 10_000,
                get_lock_ms: 0.0,
                release_lock_ms: 0.0,
                multiprogramming_level: 1,
                clustering: ClusteringKind::Dstc(DstcParams {
                    observation_period: 2_000,
                    tfa: 2.0,
                    tfc: 1.0,
                    tfe: 2.0,
                    w: 0.8,
                    max_unit_size: 32,
                    trigger_threshold: usize::MAX, // external demand only
                }),
                ..VoodbParams::default()
            },
            database: DatabaseParams::small(),
            workload: WorkloadParams {
                hot_transactions: 300,
                ..WorkloadParams::dstc_favorable()
            },
        };
        let base = ObjectBase::generate(&config.database, 21);
        let study = run_dstc_study(&base, &config, 21);
        assert!(study.reorg.cluster_count > 0, "clusters must form");
        assert!(
            study.pre.total_ios() > study.post.total_ios(),
            "clustering must pay off: pre {} post {}",
            study.pre.total_ios(),
            study.post.total_ios()
        );
        // Logical OIDs through a warm buffer: overhead must be far below
        // the pre-clustering usage (the Table 6 simulation column).
        assert!(
            study.reorg.io.total() < study.pre.total_ios(),
            "overhead {} should undercut usage {}",
            study.reorg.io.total(),
            study.pre.total_ios()
        );
    }

    #[test]
    fn dstc_study_without_clustering_builds_nothing() {
        let config = small_config();
        let base = ObjectBase::generate(&config.database, 1);
        let study = run_dstc_study(&base, &config, 1);
        assert_eq!(study.reorg.cluster_count, 0);
        assert_eq!(study.reorg.io.total(), 0);
        assert!(study.pre.total_ios() > 0 && study.post.total_ios() > 0);
    }
}
