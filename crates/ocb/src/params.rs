//! OCB parameters.
//!
//! VOODB adopts the workload model of the OCB generic benchmark (Darmont
//! et al., EDBT 1998), "tunable through a thorough set of 26 parameters"
//! (§3.3). The parameters split into two groups, mirrored by the two
//! structs here:
//!
//! * [`DatabaseParams`] — shape of the object base (schema and instances);
//! * [`WorkloadParams`] — the transaction workload executed against it.
//!
//! Defaults follow the OCB defaults quoted in the paper where the paper
//! states them (NC = 50, NO = 20 000, Table 5's mix and depths), and
//! documented interpretations elsewhere (the full OCB parameter list is not
//! reproduced in the VOODB paper; each interpretation is documented on the
//! field it sets).

/// Distribution used for skewed random selections.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Selection {
    /// Uniform selection.
    Uniform,
    /// Zipf selection with the given skew θ (rank 0 most popular).
    Zipf(f64),
    /// Hot/cold selection: with probability `p_hot`, draw uniformly from a
    /// hot set of `⌈fraction·n⌉` elements; otherwise uniformly from the
    /// rest. Only supported for transaction-root selection — it models the
    /// "very characteristic transactions" of the paper's §4.4 (repeated
    /// traversals of the same structures, the conditions favourable to
    /// dynamic clustering).
    HotSet {
        /// Fraction of the population forming the hot set (clamped to at
        /// least one element).
        fraction: f64,
        /// Probability of drawing from the hot set.
        p_hot: f64,
    },
}

impl Selection {
    /// Validates the variant's parameters.
    ///
    /// # Errors
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Selection::Uniform => Ok(()),
            Selection::Zipf(theta) => {
                if *theta < 0.0 {
                    Err(format!("Zipf skew must be non-negative, got {theta}"))
                } else {
                    Ok(())
                }
            }
            Selection::HotSet { fraction, p_hot } => {
                if !(0.0 < *fraction && *fraction <= 1.0) {
                    Err(format!("HotSet fraction must be in (0,1], got {fraction}"))
                } else if !(0.0..=1.0).contains(p_hot) {
                    Err(format!("HotSet p_hot must be in [0,1], got {p_hot}"))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Parameters shaping the object base (OCB database half).
#[derive(Clone, Debug)]
pub struct DatabaseParams {
    /// `NC` — number of classes in the schema (paper experiments: 20 or
    /// 50; default 50).
    pub classes: usize,
    /// `MAXNREF` — maximum number of references per class; each class draws
    /// its reference count uniformly from `[1, MAXNREF]` (default 10).
    pub max_refs: usize,
    /// `BASESIZE` — base instance size increment in bytes (default 50).
    pub base_size: u32,
    /// `SIZEFACTOR` — a class's instance size is `BASESIZE × U[1, SIZEFACTOR]`;
    /// the default 39 yields a mean object size of ~1 KB, consistent with
    /// the paper's "50 classes, 20 000 instances ≈ 20 MB".
    pub size_factor: u32,
    /// `NO` — total number of instances (paper experiments: 500 – 20 000).
    pub objects: usize,
    /// `NREFT` — number of reference *types* (inheritance, aggregation,
    /// association, other; default 4). Hierarchy traversals follow type 0.
    pub ref_types: usize,
    /// `CLOCREF` — class locality of reference: a class's references target
    /// classes within this window of its own index (default 10).
    pub class_locality: usize,
    /// `OLOCREF` — object locality of reference: an object's references
    /// target objects within this window of ranks around its own
    /// (proportional) rank inside the target class. The default is large
    /// enough to cover any class extent, i.e. **uniform selection within
    /// the target class** — OCB's default behaviour; small windows are the
    /// locality extension exercised by the ablation benches.
    pub object_locality: usize,
    /// `DIST_CLASS` — how instances distribute over classes.
    pub instance_dist: Selection,
    /// `DIST_REF` — how an object's reference targets are picked inside the
    /// locality window.
    pub ref_dist: Selection,
}

impl Default for DatabaseParams {
    fn default() -> Self {
        DatabaseParams {
            classes: 50,
            max_refs: 10,
            base_size: 50,
            size_factor: 39,
            objects: 20_000,
            ref_types: 4,
            class_locality: 10,
            object_locality: 1_000_000,
            instance_dist: Selection::Uniform,
            ref_dist: Selection::Uniform,
        }
    }
}

impl DatabaseParams {
    /// A small base for fast tests (~500 objects).
    // audit: the small fixture base of every crate's tests and doc examples
    pub fn small() -> Self {
        DatabaseParams {
            classes: 10,
            objects: 500,
            ..DatabaseParams::default()
        }
    }

    /// Expected mean object size in bytes, `BASESIZE × (SIZEFACTOR+1)/2`.
    #[cfg(test)]
    pub fn mean_object_size(&self) -> f64 {
        self.base_size as f64 * (self.size_factor as f64 + 1.0) / 2.0
    }

    /// Expected database size in bytes.
    #[cfg(test)]
    pub fn expected_db_size(&self) -> f64 {
        self.mean_object_size() * self.objects as f64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.classes == 0 {
            return Err("classes must be positive".into());
        }
        if self.objects < self.classes {
            return Err(format!(
                "objects ({}) must be at least classes ({})",
                self.objects, self.classes
            ));
        }
        if self.max_refs == 0 {
            return Err("max_refs must be positive".into());
        }
        if self.ref_types == 0 {
            return Err("ref_types must be positive".into());
        }
        if self.base_size == 0 || self.size_factor == 0 {
            return Err("object sizes must be positive".into());
        }
        for (name, sel) in [
            ("instance_dist", self.instance_dist),
            ("ref_dist", self.ref_dist),
        ] {
            sel.validate().map_err(|e| format!("{name}: {e}"))?;
            if matches!(sel, Selection::HotSet { .. }) {
                return Err(format!(
                    "{name}: HotSet is only supported for root selection"
                ));
            }
        }
        Ok(())
    }
}

/// The four OCB transaction types (Table 5 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransactionKind {
    /// Set-oriented access: breadth-first expansion over *all* references
    /// up to `set_depth`, each reachable object accessed once.
    SetOriented,
    /// Simple traversal: depth-first walk over all references up to
    /// `simple_depth`; shared sub-objects are accessed again on every path
    /// (OO7 "raw traversal" style).
    SimpleTraversal,
    /// Hierarchy traversal: traversal restricted to references of type 0
    /// (the inheritance/derivation hierarchy), up to `hierarchy_depth`.
    HierarchyTraversal,
    /// Stochastic traversal: random walk following one random reference per
    /// step, `stochastic_depth` steps.
    StochasticTraversal,
}

impl TransactionKind {
    /// All four kinds, in Table 5 order.
    pub const ALL: [TransactionKind; 4] = [
        TransactionKind::SetOriented,
        TransactionKind::SimpleTraversal,
        TransactionKind::HierarchyTraversal,
        TransactionKind::StochasticTraversal,
    ];
}

/// How transactions arrive at the system.
///
/// The paper's Users sub-model is a **closed** system: `NUSERS` users
/// each cycle think → submit → wait-for-commit, so the in-flight
/// population is bounded by the user count. The Poisson variant models
/// an **open** system instead: transactions arrive on an external arrival
/// process independent of completions (the classic open/closed queueing
/// distinction), which is how arrival-rate-driven capacity studies are
/// run. `NUSERS` is the workload's `users` (scenario key
/// `workload.users`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// Closed system: `NUSERS` users with exponential think times.
    Closed,
    /// Open system: Poisson arrivals at `rate_per_sec` transactions per
    /// simulated second (exponential interarrival times).
    Poisson {
        /// Mean arrival rate, transactions per simulated second.
        rate_per_sec: f64,
    },
}

impl Arrival {
    /// True for the paper's closed think-time loop.
    pub fn is_closed(&self) -> bool {
        matches!(self, Arrival::Closed)
    }

    /// Validates the variant's parameters.
    ///
    /// # Errors
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Arrival::Closed => Ok(()),
            Arrival::Poisson { rate_per_sec } => {
                if rate_per_sec.is_finite() && *rate_per_sec > 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "Poisson arrival rate must be positive and finite, got {rate_per_sec}"
                    ))
                }
            }
        }
    }
}

/// How the closed-system user population is represented in the model.
///
/// Both representations draw the same think-time stream in the same
/// order, so results are bit-identical; the difference is purely what
/// the simulator carries per user (pinned by differential tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UserModel {
    /// One engine event and one wait-queue entry per user — the
    /// paper's literal Users sub-model, kept as the small-N
    /// differential oracle. Event-queue population is O(NUSERS).
    #[default]
    PerUser,
    /// Users sharing think-time parameters collapse into cohorts: a
    /// per-cohort wake queue plus a flat admission ring. Event-queue
    /// population is O(in-flight + cohorts), scaling NUSERS to 1M.
    Cohort,
}

impl UserModel {
    /// The CLI/TOML spelling.
    pub fn name(self) -> &'static str {
        match self {
            UserModel::PerUser => "per-user",
            UserModel::Cohort => "cohort",
        }
    }
}

impl std::fmt::Display for UserModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for UserModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "per-user" => Ok(UserModel::PerUser),
            "cohort" => Ok(UserModel::Cohort),
            other => Err(format!(
                "unknown user model '{other}' (known: per-user, cohort)"
            )),
        }
    }
}

/// One cohort of a partitioned closed user population: `size` users
/// sharing one mean think time. A workload with an empty cohort list
/// behaves as a single implicit cohort of (`users`, `think_time_ms`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UserCohort {
    /// Users in this cohort.
    pub size: usize,
    /// Mean think time of the cohort's users, ms (exponential).
    pub think_time_ms: f64,
}

impl UserCohort {
    /// Validates the cohort's parameters.
    ///
    /// # Errors
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.size == 0 {
            return Err("cohort size must be positive".into());
        }
        if !self.think_time_ms.is_finite() || self.think_time_ms < 0.0 {
            return Err(format!(
                "cohort think_time_ms must be non-negative and finite, got {}",
                self.think_time_ms
            ));
        }
        Ok(())
    }
}

/// Bytes a closed phase holds per user for its initial wakes: one
/// 8-byte time key (the cohort model's wake run; the per-user oracle
/// holds a whole pending event instead, so this is a floor for it).
pub const WAKE_KEY_BYTES: u64 = 8;

/// Pre-flight bound on a closed phase's initial-wake run: 4 GiB, i.e.
/// 2^29 = 536,870,912 users. That is over 500 times the largest shipped
/// population (1M); loading the run allocates it whole in one buffer,
/// and a population past the bound would otherwise end in an allocation
/// abort instead of an error.
pub const MAX_WAKE_RUN_BYTES: u64 = 4 << 30;

/// A closed population whose initial wakes exceed
/// [`MAX_WAKE_RUN_BYTES`]: refused before anything is allocated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PopulationTooLarge {
    /// Users in the closed population.
    pub users: u128,
    /// Estimated bytes of their initial wakes.
    pub bytes: u128,
}

impl std::fmt::Display for PopulationTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "closed population of {} users needs an estimated {} bytes of initial wakes \
             ({WAKE_KEY_BYTES} bytes per user), over the {MAX_WAKE_RUN_BYTES}-byte limit",
            self.users, self.bytes
        )
    }
}

impl std::error::Error for PopulationTooLarge {}

/// Pre-flight bound on the arrivals an open horizon phase expects:
/// 2^29, the largest closed population [`MAX_WAKE_RUN_BYTES`] admits.
/// The largest shipped open phase (40/s over 30 s) expects 1,200; one
/// past the bound would run for hours instead of failing fast.
pub const MAX_OPEN_ARRIVALS: u64 = 1 << 29;

/// An open horizon phase expecting more than [`MAX_OPEN_ARRIVALS`]
/// arrivals: refused before anything runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TooManyArrivals {
    /// Expected arrivals: rate × duration, or duration / interarrival.
    pub expected: f64,
    /// The phase's horizon, simulated ms.
    pub duration_ms: f64,
}

impl std::fmt::Display for TooManyArrivals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "open arrivals over a {} ms horizon expect {:.0} transactions, \
             over the {MAX_OPEN_ARRIVALS}-arrival limit",
            self.duration_ms, self.expected
        )
    }
}

impl std::error::Error for TooManyArrivals {}

/// Parameters of the transaction workload (OCB workload half).
#[derive(Clone, Debug)]
pub struct WorkloadParams {
    /// `NUSERS` — number of concurrent users (default 1, as in Table 3).
    pub users: usize,
    /// `COLDN` — transactions of the cold run, executed but not measured
    /// (Table 5: 0).
    pub cold_transactions: usize,
    /// `HOTN` — transactions of the warm (measured) run (Table 5: 1000).
    pub hot_transactions: usize,
    /// `PSET` — set-oriented access occurrence probability (Table 5: 0.25).
    pub p_set: f64,
    /// `PSIMPLE` — simple traversal occurrence probability (Table 5: 0.25).
    pub p_simple: f64,
    /// `PHIER` — hierarchy traversal occurrence probability (Table 5: 0.25).
    pub p_hierarchy: f64,
    /// `PSTOCH` — stochastic traversal occurrence probability (Table 5: 0.25).
    pub p_stochastic: f64,
    /// `SETDEPTH` — set-oriented access depth (Table 5: 3).
    pub set_depth: usize,
    /// `SIMDEPTH` — simple traversal depth (Table 5: 3).
    pub simple_depth: usize,
    /// `HIEDEPTH` — hierarchy traversal depth (Table 5: 5).
    pub hierarchy_depth: usize,
    /// `STODEPTH` — stochastic traversal depth (Table 5: 50).
    pub stochastic_depth: usize,
    /// `PWRITE` — probability that an object access also updates the object
    /// (default 0: the validation experiments measure read I/Os).
    pub p_write: f64,
    /// `ROOTDIST` — how transaction root objects are selected (default
    /// uniform; Zipf models hot-spot workloads).
    pub root_dist: Selection,
    /// `THINKTIME` — mean think time between a user's transactions, in ms,
    /// exponentially distributed (default 0).
    pub think_time_ms: f64,
    /// `ARRIVAL` — how transactions arrive: the paper's closed think-time
    /// loop (default) or an open arrival process (see [`Arrival`]). Open
    /// arrivals ignore `users`/`think_time_ms`.
    pub arrival: Arrival,
    /// `DURATION` — when positive, the phase is bounded by **simulated
    /// time** instead of a transaction count: it runs until `duration_ms`
    /// and measures from `warmup_ms` on (streaming from the generator, so
    /// memory stays O(in-flight)). When 0 (default), the phase is the
    /// classic `COLDN + HOTN` count-based run.
    pub duration_ms: f64,
    /// `WARMUP` — warm-up prefix of a time-horizon phase: transactions
    /// committing before `warmup_ms` are executed but not measured.
    /// Must be 0 for a count-based phase (`duration_ms == 0`).
    pub warmup_ms: f64,
    /// `USERMODEL` — per-user oracle (default) or cohort-batched
    /// representation of the closed user population (see [`UserModel`]).
    pub user_model: UserModel,
    /// `COHORTS` — optional explicit partition of the closed population
    /// into think-time cohorts. Empty (default): one implicit cohort of
    /// (`users`, `think_time_ms`). Non-empty: the population is the sum
    /// of cohort sizes and each cohort draws its own mean think time
    /// (honoured by *both* user models, so they stay differential).
    pub cohorts: Vec<UserCohort>,
}

impl Default for WorkloadParams {
    /// Table 5 of the paper.
    fn default() -> Self {
        WorkloadParams {
            users: 1,
            cold_transactions: 0,
            hot_transactions: 1000,
            p_set: 0.25,
            p_simple: 0.25,
            p_hierarchy: 0.25,
            p_stochastic: 0.25,
            set_depth: 3,
            simple_depth: 3,
            hierarchy_depth: 5,
            stochastic_depth: 50,
            p_write: 0.0,
            root_dist: Selection::Uniform,
            think_time_ms: 0.0,
            arrival: Arrival::Closed,
            duration_ms: 0.0,
            warmup_ms: 0.0,
            user_model: UserModel::PerUser,
            cohorts: Vec::new(),
        }
    }
}

impl WorkloadParams {
    /// The workload of §4.4: pure depth-3 hierarchy traversals, the
    /// "very characteristic transactions" favouring DSTC.
    pub fn dstc_favorable() -> Self {
        WorkloadParams {
            p_set: 0.0,
            p_simple: 0.0,
            p_hierarchy: 1.0,
            p_stochastic: 0.0,
            hierarchy_depth: 3,
            // Hot-set roots: the same structures traversed over and over,
            // giving the statistics collector something to observe — the
            // paper's "favorable conditions".
            root_dist: Selection::HotSet {
                fraction: 0.015,
                p_hot: 1.0,
            },
            ..WorkloadParams::default()
        }
    }

    /// A tiny workload for fast tests.
    // audit: the tiny fixture workload of every crate's tests and doc examples
    pub fn small() -> Self {
        WorkloadParams {
            hot_transactions: 50,
            ..WorkloadParams::default()
        }
    }

    /// Transaction-mix weights in [`TransactionKind::ALL`] order.
    pub fn mix_weights(&self) -> [f64; 4] {
        [
            self.p_set,
            self.p_simple,
            self.p_hierarchy,
            self.p_stochastic,
        ]
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("p_set", self.p_set),
            ("p_simple", self.p_simple),
            ("p_hierarchy", self.p_hierarchy),
            ("p_stochastic", self.p_stochastic),
            ("p_write", self.p_write),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0,1], got {p}"));
            }
        }
        let mix: f64 = self.mix_weights().iter().sum();
        if (mix - 1.0).abs() > 1e-9 {
            return Err(format!("transaction mix must sum to 1, got {mix}"));
        }
        if self.users == 0 {
            return Err("users must be positive".into());
        }
        if self.hot_transactions == 0 {
            return Err("hot_transactions must be positive".into());
        }
        if self.think_time_ms < 0.0 {
            return Err("think_time_ms must be non-negative".into());
        }
        self.arrival
            .validate()
            .map_err(|e| format!("arrival: {e}"))?;
        if !self.duration_ms.is_finite() || self.duration_ms < 0.0 {
            return Err(format!(
                "duration_ms must be non-negative and finite, got {}",
                self.duration_ms
            ));
        }
        if !self.warmup_ms.is_finite() || self.warmup_ms < 0.0 {
            return Err(format!(
                "warmup_ms must be non-negative and finite, got {}",
                self.warmup_ms
            ));
        }
        if self.duration_ms == 0.0 && self.warmup_ms > 0.0 {
            return Err(format!(
                "warmup_ms ({}) needs a time horizon: set duration_ms, or set warmup_ms to 0 \
                 for a count-based phase",
                self.warmup_ms
            ));
        }
        if self.duration_ms > 0.0 && self.warmup_ms >= self.duration_ms {
            return Err(format!(
                "warmup_ms ({}) must be below duration_ms ({})",
                self.warmup_ms, self.duration_ms
            ));
        }
        self.root_dist
            .validate()
            .map_err(|e| format!("root_dist: {e}"))?;
        for (i, cohort) in self.cohorts.iter().enumerate() {
            cohort
                .validate()
                .map_err(|e| format!("cohorts[{i}]: {e}"))?;
        }
        if self.cohorts.len() > u32::MAX as usize {
            return Err("too many cohorts".into());
        }
        self.check_open_arrivals().map_err(|e| e.to_string())?;
        self.check_wake_run().map_err(|e| e.to_string())
    }

    /// Pre-flight time bound of an open horizon phase (`duration_ms >
    /// 0`): its expected arrivals must not exceed [`MAX_OPEN_ARRIVALS`].
    /// Closed phases and count-bounded open phases (at most
    /// `COLDN + HOTN` arrivals) always pass.
    ///
    /// # Errors
    /// The expected arrivals and the horizon, when over the bound.
    pub fn check_open_arrivals(&self) -> Result<(), TooManyArrivals> {
        let duration_ms = self.duration_ms;
        if duration_ms <= 0.0 {
            return Ok(());
        }
        let expected = match self.arrival {
            Arrival::Closed => return Ok(()),
            Arrival::Poisson { rate_per_sec } => rate_per_sec * duration_ms / 1000.0,
        };
        if expected > MAX_OPEN_ARRIVALS as f64 {
            return Err(TooManyArrivals {
                expected,
                duration_ms,
            });
        }
        Ok(())
    }

    /// Pre-flight memory bound of a closed phase: the initial wakes of
    /// its population (the cohort sizes' sum, else `users`) must fit
    /// [`MAX_WAKE_RUN_BYTES`]. Open arrivals hold no users.
    ///
    /// # Errors
    /// The population and its estimated bytes, when over the bound.
    pub fn check_wake_run(&self) -> Result<(), PopulationTooLarge> {
        if !self.arrival.is_closed() {
            return Ok(());
        }
        let users = if self.cohorts.is_empty() {
            self.users as u128
        } else {
            self.cohorts.iter().map(|c| c.size as u128).sum()
        };
        let bytes = users * u128::from(WAKE_KEY_BYTES);
        if bytes > u128::from(MAX_WAKE_RUN_BYTES) {
            return Err(PopulationTooLarge { users, bytes });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_tables() {
        let db = DatabaseParams::default();
        assert_eq!(db.classes, 50);
        assert_eq!(db.objects, 20_000);
        assert_eq!(db.max_refs, 10);
        assert_eq!(db.ref_types, 4);
        // Mid-sized base ≈ 20 MB.
        let mb = db.expected_db_size() / (1024.0 * 1024.0);
        assert!((18.0..22.0).contains(&mb), "expected ~20 MB, got {mb}");

        let wl = WorkloadParams::default();
        assert_eq!(wl.hot_transactions, 1000);
        assert_eq!(wl.cold_transactions, 0);
        assert_eq!(wl.set_depth, 3);
        assert_eq!(wl.simple_depth, 3);
        assert_eq!(wl.hierarchy_depth, 5);
        assert_eq!(wl.stochastic_depth, 50);
        assert_eq!(wl.mix_weights(), [0.25; 4]);
    }

    #[test]
    fn closed_populations_past_the_wake_run_bound_are_refused() {
        let limit = (MAX_WAKE_RUN_BYTES / WAKE_KEY_BYTES) as usize;
        let workload = WorkloadParams {
            users: limit,
            user_model: UserModel::Cohort,
            ..WorkloadParams::default()
        };
        workload.validate().unwrap();
        let over = WorkloadParams {
            users: limit + 1,
            ..workload.clone()
        };
        let err = over.check_wake_run().unwrap_err();
        assert_eq!(err.users, limit as u128 + 1);
        assert_eq!(err.bytes, u128::from(MAX_WAKE_RUN_BYTES + WAKE_KEY_BYTES));
        assert!(over.validate().unwrap_err().contains("4294967304 bytes"));
        // Cohort sizes override `users`, and their sum cannot overflow.
        let cohorts = WorkloadParams {
            cohorts: vec![
                UserCohort {
                    size: usize::MAX,
                    think_time_ms: 1.0,
                };
                2
            ],
            ..workload.clone()
        };
        assert_eq!(
            cohorts.check_wake_run().unwrap_err().users,
            2 * usize::MAX as u128
        );
        // Open arrivals hold no users.
        let open = WorkloadParams {
            arrival: Arrival::Poisson { rate_per_sec: 10.0 },
            ..over
        };
        open.validate().unwrap();
    }

    #[test]
    fn open_horizon_phases_past_the_arrival_bound_are_refused() {
        let limit = MAX_OPEN_ARRIVALS as f64;
        let poisson = |rate_per_sec: f64, duration_ms: f64| WorkloadParams {
            arrival: Arrival::Poisson { rate_per_sec },
            duration_ms,
            ..WorkloadParams::default()
        };
        // At the bound (rate x duration), then just past it.
        poisson(limit / 100.0, 100_000.0).validate().unwrap();
        let over = poisson(1e9, 100_000.0);
        let err = over.check_open_arrivals().unwrap_err();
        assert_eq!(err.expected, 1e11);
        assert_eq!(err.duration_ms, 100_000.0);
        let message = over.validate().unwrap_err();
        assert!(
            message.contains("100000 ms horizon expect 100000000000 transactions"),
            "{message}"
        );
        // A count-bounded open phase (no horizon) and a closed horizon
        // phase are not open horizon phases.
        poisson(1e9, 0.0).validate().unwrap();
        WorkloadParams {
            duration_ms: 1e12,
            ..WorkloadParams::default()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn default_params_validate() {
        DatabaseParams::default().validate().unwrap();
        WorkloadParams::default().validate().unwrap();
        DatabaseParams::small().validate().unwrap();
        WorkloadParams::small().validate().unwrap();
        WorkloadParams::dstc_favorable().validate().unwrap();
    }

    #[test]
    fn invalid_mix_rejected() {
        let wl = WorkloadParams {
            p_set: 0.5,
            ..WorkloadParams::default()
        };
        assert!(wl.validate().is_err());
    }

    #[test]
    fn invalid_db_rejected() {
        let db = DatabaseParams {
            objects: 5,
            classes: 10,
            ..DatabaseParams::default()
        };
        assert!(db.validate().is_err());
        let db = DatabaseParams {
            max_refs: 0,
            ..DatabaseParams::default()
        };
        assert!(db.validate().is_err());
    }

    #[test]
    fn dstc_favorable_is_pure_hierarchy() {
        let wl = WorkloadParams::dstc_favorable();
        assert_eq!(wl.p_hierarchy, 1.0);
        assert_eq!(wl.hierarchy_depth, 3);
        assert!(matches!(wl.root_dist, Selection::HotSet { .. }));
    }

    #[test]
    fn selection_validation() {
        assert!(Selection::Zipf(-1.0).validate().is_err());
        assert!(Selection::HotSet {
            fraction: 0.0,
            p_hot: 0.5
        }
        .validate()
        .is_err());
        assert!(Selection::HotSet {
            fraction: 0.1,
            p_hot: 1.5
        }
        .validate()
        .is_err());
        assert!(Selection::HotSet {
            fraction: 0.1,
            p_hot: 0.9
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn arrival_and_horizon_validation() {
        assert!(Arrival::Closed.validate().is_ok());
        assert!(Arrival::Poisson { rate_per_sec: 25.0 }.validate().is_ok());
        assert!(Arrival::Poisson { rate_per_sec: 0.0 }.validate().is_err());
        assert!(Arrival::Poisson {
            rate_per_sec: f64::INFINITY
        }
        .validate()
        .is_err());

        let wl = WorkloadParams {
            duration_ms: 1000.0,
            warmup_ms: 100.0,
            ..WorkloadParams::default()
        };
        wl.validate().unwrap();
        let wl = WorkloadParams {
            duration_ms: 1000.0,
            warmup_ms: 1000.0,
            ..WorkloadParams::default()
        };
        assert!(wl.validate().is_err(), "warmup must undercut duration");
        let wl = WorkloadParams {
            duration_ms: -1.0,
            ..WorkloadParams::default()
        };
        assert!(wl.validate().is_err());
    }

    #[test]
    fn warmup_without_a_horizon_is_refused() {
        // A count-based phase (duration 0) has no window to cut.
        let wl = WorkloadParams {
            warmup_ms: 50.0,
            ..WorkloadParams::default()
        };
        let err = wl.validate().unwrap_err();
        assert!(
            err.contains("warmup_ms") && err.contains("duration_ms"),
            "{err}"
        );
        // No warm-up is fine either way.
        WorkloadParams::default().validate().unwrap();
    }

    #[test]
    fn hotset_rejected_for_database_dists() {
        let db = DatabaseParams {
            instance_dist: Selection::HotSet {
                fraction: 0.1,
                p_hot: 0.9,
            },
            ..DatabaseParams::default()
        };
        assert!(db.validate().is_err());
    }
}
