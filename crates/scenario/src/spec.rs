//! The declarative experiment spec: a [`Scenario`] is everything needed
//! to reproduce a sweep — the simulated system (Table 3), the OCB object
//! base and workload, the replication protocol, and one or more swept
//! parameter axes.
//!
//! A scenario lives in a `.toml` file (see [`crate::toml`] for the exact
//! subset) with four kinds of sections:
//!
//! ```toml
//! [scenario]               # name, description, replications, seed
//! [system]                 # VoodbParams  (Table 3 keys)
//! [database]               # DatabaseParams (OCB schema/instances)
//! [workload]               # WorkloadParams (OCB transactions)
//!
//! [[sweep]]                # one or more swept axes
//! param = "system.multiprogramming_level"
//! values = [1, 2, 5, 10]
//! ```
//!
//! Every key a section accepts is also a valid sweep `param` (prefixed
//! with its section), so *any* scalar parameter of the model can be
//! swept without writing Rust. Multiple `[[sweep]]` axes form a full
//! cartesian grid. The supported keys are listed in [`PARAM_HELP`] and
//! surfaced by `voodb validate`.

use crate::toml::{self, format_float, Table, TomlError, Value};
use bufmgr::DiskTimings;
use bufmgr::{PolicyKind, O2_FRAMES_PER_MB, TEXAS_FRAMES_PER_MB};
use clustering::{ClusteringKind, DstcParams, InitialPlacement};
use ocb::{Arrival, Selection};
use voodb::{ExperimentConfig, SystemClass, VoodbParams};

/// One swept parameter axis.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepAxis {
    /// Dotted parameter key, e.g. `system.buffer_pages` or
    /// `database.objects`.
    pub param: String,
    /// The values the axis takes, in sweep order (scalars only).
    pub values: Vec<Value>,
}

/// A declarative experiment: base configuration plus swept axes.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (used for report file names).
    pub name: String,
    /// Human-readable description.
    pub description: String,
    /// Replications per sweep point (the paper's §4.2.2 protocol).
    pub replications: usize,
    /// Base seed of the whole sweep.
    pub seed: u64,
    /// The base experiment point; sweep axes override fields of it.
    pub config: ExperimentConfig,
    /// Swept axes (cartesian product; empty = a single point).
    pub sweep: Vec<SweepAxis>,
}

/// One point of the expanded sweep grid.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// `(param, value)` coordinates, one per axis, in axis order.
    pub coords: Vec<(String, Value)>,
    /// The base config with the coordinates applied.
    pub config: ExperimentConfig,
}

impl SweepPoint {
    /// A compact `param=value` label (axis prefixes stripped).
    pub fn label(&self) -> String {
        if self.coords.is_empty() {
            return "base".to_owned();
        }
        self.coords
            .iter()
            .map(|(param, value)| {
                let short = param.rsplit('.').next().unwrap_or(param);
                format!("{short}={}", value_to_plain_string(value))
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Renders a scalar value without string quotes (for labels and CSV).
pub fn value_to_plain_string(value: &Value) -> String {
    match value {
        Value::String(s) => s.clone(),
        Value::Integer(n) => n.to_string(),
        Value::Float(f) => format_float(*f),
        Value::Bool(b) => b.to_string(),
        Value::Array(_) | Value::Table(_) => format!("{value:?}"),
    }
}

impl Scenario {
    /// Parses a scenario from TOML text.
    ///
    /// # Errors
    /// Syntax errors carry line/column; structural errors name the
    /// offending section and key.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let root = toml::parse(text).map_err(|e: TomlError| e.to_string())?;
        Scenario::from_table(root)
    }

    /// Builds a scenario from a parsed TOML root table.
    ///
    /// # Errors
    /// Returns a message naming the offending section/key.
    pub fn from_table(root: Table) -> Result<Scenario, String> {
        let mut config = ExperimentConfig {
            system: VoodbParams::default(),
            database: ocb::DatabaseParams::default(),
            workload: ocb::WorkloadParams::default(),
        };
        let mut scenario = Scenario {
            name: String::new(),
            description: String::new(),
            replications: 10,
            seed: 42,
            config: config.clone(),
            sweep: Vec::new(),
        };
        for (key, value) in &root {
            match (key.as_str(), value) {
                ("scenario", Value::Table(meta)) => {
                    for (k, v) in meta {
                        match k.as_str() {
                            "name" => {
                                scenario.name = v
                                    .as_str()
                                    .ok_or_else(|| bad("scenario", "name", "a string", v))?
                                    .to_owned();
                            }
                            "description" => {
                                scenario.description = v
                                    .as_str()
                                    .ok_or_else(|| bad("scenario", "description", "a string", v))?
                                    .to_owned();
                            }
                            "replications" => {
                                scenario.replications = v.as_usize().ok_or_else(|| {
                                    bad("scenario", "replications", "a positive integer", v)
                                })?;
                            }
                            "seed" => {
                                scenario.seed = v.as_u64().ok_or_else(|| {
                                    bad("scenario", "seed", "a non-negative integer", v)
                                })?;
                            }
                            other => {
                                return Err(format!("[scenario]: unknown key '{other}'"));
                            }
                        }
                    }
                }
                ("system", Value::Table(t))
                | ("database", Value::Table(t))
                | ("workload", Value::Table(t)) => {
                    for (k, v) in t {
                        apply_param(&mut config, &format!("{key}.{k}"), v)
                            .map_err(|e| format!("[{key}]: {e}"))?;
                    }
                }
                ("sweep", v) => {
                    let Value::Array(items) = v else {
                        return Err("'sweep' must be an array of tables ([[sweep]])".into());
                    };
                    for item in items {
                        let Value::Table(t) = item else {
                            return Err("'sweep' must be an array of tables ([[sweep]])".into());
                        };
                        scenario.sweep.push(parse_axis(t)?);
                    }
                }
                (other, _) => {
                    return Err(format!(
                        "unknown top-level section '{other}' \
                         (expected scenario/system/database/workload/sweep)"
                    ));
                }
            }
        }
        if scenario.name.is_empty() {
            return Err("[scenario]: 'name' is required".into());
        }
        scenario.config = config;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Validates the base config, the replication protocol, every sweep
    /// axis (each value must apply cleanly), and — because axes can
    /// interact (e.g. swept `database.classes` × swept
    /// `database.objects` crossing the objects ≥ classes constraint) —
    /// every **materialised grid point**.
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.replications == 0 {
            return Err("[scenario]: replications must be positive".into());
        }
        self.config
            .validate()
            .map_err(|e| format!("base configuration: {e}"))?;
        for axis in &self.sweep {
            if axis.values.is_empty() {
                return Err(format!("sweep axis '{}' has no values", axis.param));
            }
            // Shape check: the key exists and the value applies. Config
            // validity is checked per grid point below, where axis
            // combinations are visible.
            for value in &axis.values {
                let mut probe = self.config.clone();
                apply_param(&mut probe, &axis.param, value)
                    .map_err(|e| format!("sweep axis '{}': {e}", axis.param))?;
            }
        }
        let points: usize = self.sweep.iter().map(|a| a.values.len()).product();
        if points > 10_000 {
            return Err(format!("sweep grid has {points} points (max 10000)"));
        }
        for point in self.grid() {
            point
                .config
                .validate()
                .map_err(|e| format!("sweep point '{}': {e}", point.label()))?;
        }
        Ok(())
    }

    /// Expands the sweep axes into the full cartesian grid, first axis
    /// slowest (row-major), with each point's config materialised.
    pub fn grid(&self) -> Vec<SweepPoint> {
        let mut points = vec![SweepPoint {
            coords: Vec::new(),
            config: self.config.clone(),
        }];
        for axis in &self.sweep {
            let mut next = Vec::with_capacity(points.len() * axis.values.len());
            for point in &points {
                for value in &axis.values {
                    let mut config = point.config.clone();
                    apply_param(&mut config, &axis.param, value)
                        .expect("validated axis value applies");
                    let mut coords = point.coords.clone();
                    coords.push((axis.param.clone(), value.clone()));
                    next.push(SweepPoint { coords, config });
                }
            }
            points = next;
        }
        points
    }
}

fn parse_axis(t: &Table) -> Result<SweepAxis, String> {
    let mut param = None;
    let mut values = None;
    for (k, v) in t {
        match k.as_str() {
            "param" => {
                param = Some(
                    v.as_str()
                        .ok_or_else(|| bad("sweep", "param", "a string", v))?
                        .to_owned(),
                );
            }
            "values" => {
                let Value::Array(items) = v else {
                    return Err(bad("sweep", "values", "an array of scalars", v));
                };
                for item in items {
                    if matches!(item, Value::Array(_) | Value::Table(_)) {
                        return Err("[[sweep]]: 'values' entries must be scalars".into());
                    }
                }
                values = Some(items.clone());
            }
            other => return Err(format!("[[sweep]]: unknown key '{other}'")),
        }
    }
    Ok(SweepAxis {
        param: param.ok_or("[[sweep]]: 'param' is required")?,
        values: values.ok_or("[[sweep]]: 'values' is required")?,
    })
}

fn bad(section: &str, key: &str, expected: &str, got: &Value) -> String {
    format!(
        "[{section}]: '{key}' must be {expected}, got a {}",
        got.type_name()
    )
}

// ---------------------------------------------------------------------------
// Parameter application — one function shared by section parsing and
// sweep axes, so every settable key is automatically sweepable.
// ---------------------------------------------------------------------------

/// `(key, expected value, meaning)` for every supported parameter,
/// printed by `voodb validate --help` and the README.
pub const PARAM_HELP: &[(&str, &str, &str)] = &[
    // [system] — Table 3.
    (
        "system.system_class",
        "string",
        "SYSCLASS: centralized | object-server | page-server | db-server | hybrid-N (N servers)",
    ),
    (
        "system.network_throughput_mbps",
        "float|inf",
        "NETTHRU: network throughput in MB/s",
    ),
    (
        "system.page_size",
        "integer",
        "PGSIZE: disk page size in bytes",
    ),
    (
        "system.buffer_pages",
        "integer",
        "BUFFSIZE: buffer size in pages",
    ),
    (
        "system.cache_mb",
        "integer",
        "BUFFSIZE via the O2 convention (240 frames/MB)",
    ),
    (
        "system.memory_mb",
        "integer",
        "BUFFSIZE via the Texas convention (230 frames/MB)",
    ),
    (
        "system.page_replacement",
        "string",
        "PGREP: random-SEED | fifo | lru | lru-K | lfu | clock | gclock-W",
    ),
    (
        "system.clustering",
        "string",
        "CLUSTP: none | dstc | static-graph-N (max cluster size N)",
    ),
    (
        "system.dstc_observation_period",
        "integer",
        "DSTC observation period, in object accesses",
    ),
    (
        "system.dstc_tfa",
        "float",
        "DSTC elementary filtering threshold Tfa",
    ),
    (
        "system.dstc_tfc",
        "float",
        "DSTC consolidation threshold Tfc",
    ),
    ("system.dstc_tfe", "float", "DSTC extraction threshold Tfe"),
    ("system.dstc_w", "float", "DSTC ageing factor w"),
    (
        "system.dstc_max_unit_size",
        "integer",
        "DSTC maximum objects per clustering unit",
    ),
    (
        "system.dstc_trigger_threshold",
        "integer",
        "DSTC flagged-object count arming automatic reorganisation",
    ),
    (
        "system.initial_placement",
        "string",
        "INITPL: sequential | optimized-sequential | random-SEED",
    ),
    (
        "system.disk",
        "string",
        "disk timing preset: table3 | o2 | texas",
    ),
    (
        "system.disk_search_ms",
        "float",
        "DISKSEA: head search time, ms",
    ),
    (
        "system.disk_latency_ms",
        "float",
        "DISKLAT: rotational latency, ms",
    ),
    (
        "system.disk_transfer_ms",
        "float",
        "DISKTRA: page transfer time, ms",
    ),
    (
        "system.multiprogramming_level",
        "integer",
        "MULTILVL: transactions served concurrently",
    ),
    (
        "system.get_lock_ms",
        "float",
        "GETLOCK: lock acquisition time, ms",
    ),
    (
        "system.release_lock_ms",
        "float",
        "RELLOCK: lock release time, ms",
    ),
    (
        "system.swizzle",
        "boolean",
        "Texas-style pointer-swizzling loading policy",
    ),
    // [database] — OCB schema/instances.
    ("database.classes", "integer", "NC: classes in the schema"),
    (
        "database.max_refs",
        "integer",
        "MAXNREF: max references per class",
    ),
    (
        "database.base_size",
        "integer",
        "BASESIZE: base instance size increment, bytes",
    ),
    (
        "database.size_factor",
        "integer",
        "SIZEFACTOR: instance size = BASESIZE x U[1, SIZEFACTOR]",
    ),
    ("database.objects", "integer", "NO: total instances"),
    ("database.ref_types", "integer", "NREFT: reference types"),
    (
        "database.class_locality",
        "integer",
        "CLOCREF: class locality window",
    ),
    (
        "database.object_locality",
        "integer",
        "OLOCREF: object locality window",
    ),
    (
        "database.instance_dist",
        "string",
        "DIST_CLASS: uniform | zipf-THETA",
    ),
    (
        "database.ref_dist",
        "string",
        "DIST_REF: uniform | zipf-THETA",
    ),
    // [workload] — OCB transactions (Table 5).
    (
        "workload.users",
        "integer",
        "NUSERS: users of the closed system",
    ),
    (
        "workload.user_model",
        "string",
        "USERREP: per-user (small-N oracle) | cohort (O(in-flight + cohorts) memory, scales to 1M users)",
    ),
    (
        "workload.cold_transactions",
        "integer",
        "COLDN: unmeasured cold-run transactions",
    ),
    (
        "workload.hot_transactions",
        "integer",
        "HOTN: measured warm-run transactions",
    ),
    (
        "workload.p_set",
        "float",
        "PSET: set-oriented access probability",
    ),
    (
        "workload.p_simple",
        "float",
        "PSIMPLE: simple traversal probability",
    ),
    (
        "workload.p_hierarchy",
        "float",
        "PHIER: hierarchy traversal probability",
    ),
    (
        "workload.p_stochastic",
        "float",
        "PSTOCH: stochastic traversal probability",
    ),
    (
        "workload.set_depth",
        "integer",
        "SETDEPTH: set-oriented access depth",
    ),
    (
        "workload.simple_depth",
        "integer",
        "SIMDEPTH: simple traversal depth",
    ),
    (
        "workload.hierarchy_depth",
        "integer",
        "HIEDEPTH: hierarchy traversal depth",
    ),
    (
        "workload.stochastic_depth",
        "integer",
        "STODEPTH: stochastic traversal depth",
    ),
    (
        "workload.p_write",
        "float",
        "PWRITE: per-access update probability",
    ),
    (
        "workload.root_dist",
        "string",
        "ROOTDIST: uniform | zipf-THETA | hotset-FRACTION-PHOT",
    ),
    (
        "workload.think_time_ms",
        "float",
        "THINKTIME: mean think time, ms",
    ),
    (
        "workload.arrival",
        "string",
        "ARRIVAL: closed | poisson-RATE (tx/s, open system)",
    ),
    (
        "workload.duration_ms",
        "float",
        "DURATION: time-horizon phase length in simulated ms (0 = count-based COLDN/HOTN)",
    ),
    (
        "workload.warmup_ms",
        "float",
        "WARMUP: unmeasured warm-up prefix of a time-horizon phase, ms",
    ),
];

/// Renders [`PARAM_HELP`] as the `voodb params` listing: keys sorted
/// lexicographically (which groups the `[database]`/`[system]`/
/// `[workload]` sections), one section header per prefix. Deterministic
/// by construction; pinned by the CLI golden test.
pub fn params_help_text() -> String {
    let mut entries: Vec<&(&str, &str, &str)> = PARAM_HELP.iter().collect();
    entries.sort_by_key(|(key, _, _)| *key);
    let mut out =
        String::from("Supported scenario parameters (every key is also a valid sweep axis):\n");
    let mut last_section = "";
    for (key, expected, meaning) in entries {
        let section = key.split('.').next().unwrap_or("");
        if section != last_section {
            out.push_str(&format!("\n[{section}]\n"));
            last_section = section;
        }
        out.push_str(&format!("  {key:<36} {expected:<10} {meaning}\n"));
    }
    out
}

/// Applies one dotted-key parameter to an [`ExperimentConfig`]. The same
/// keys work in the `[system]`/`[database]`/`[workload]` sections and as
/// sweep-axis `param`s.
///
/// # Errors
/// Returns a message naming the key and the expected value shape.
pub fn apply_param(config: &mut ExperimentConfig, key: &str, value: &Value) -> Result<(), String> {
    let (section, field) = key.split_once('.').ok_or_else(|| {
        format!("parameter '{key}' must be section-qualified (e.g. system.{key})")
    })?;
    match section {
        "system" => apply_system(&mut config.system, field, value),
        "database" => apply_database(&mut config.database, field, value),
        "workload" => apply_workload(&mut config.workload, field, value),
        other => Err(format!(
            "unknown section '{other}' in parameter '{key}' \
             (expected system/database/workload)"
        )),
    }
    .map_err(|e| format!("'{key}': {e}"))
}

fn want<T>(value: Option<T>, expected: &str, got: &Value) -> Result<T, String> {
    value.ok_or_else(|| format!("expected {expected}, got a {}", got.type_name()))
}

fn f64_of(v: &Value) -> Result<f64, String> {
    want(v.as_f64(), "a number", v)
}

fn usize_of(v: &Value) -> Result<usize, String> {
    want(v.as_usize(), "a non-negative integer", v)
}

fn str_of(v: &Value) -> Result<&str, String> {
    want(v.as_str(), "a string", v)
}

fn bool_of(v: &Value) -> Result<bool, String> {
    want(v.as_bool(), "a boolean", v)
}

/// Parses a `name-NUMBER` suffix, e.g. `lru-2` → 2.
fn suffix_of<T: std::str::FromStr>(raw: &str, prefix: &str) -> Result<T, String> {
    raw.strip_prefix(prefix)
        .and_then(|s| s.strip_prefix('-'))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("expected '{prefix}-NUMBER', got '{raw}'"))
}

fn parse_system_class(raw: &str) -> Result<SystemClass, String> {
    match raw {
        "centralized" => Ok(SystemClass::Centralized),
        "object-server" => Ok(SystemClass::ObjectServer),
        "page-server" => Ok(SystemClass::PageServer),
        "db-server" => Ok(SystemClass::DbServer),
        other if other.starts_with("hybrid") => Ok(SystemClass::HybridMultiServer {
            servers: suffix_of(other, "hybrid")?,
        }),
        other => Err(format!(
            "unknown system class '{other}' (centralized | object-server | \
             page-server | db-server | hybrid-N)"
        )),
    }
}

fn parse_policy(raw: &str) -> Result<PolicyKind, String> {
    match raw {
        "fifo" => Ok(PolicyKind::Fifo),
        "lru" => Ok(PolicyKind::Lru),
        "lfu" => Ok(PolicyKind::Lfu),
        "clock" => Ok(PolicyKind::Clock),
        other if other.starts_with("random") => Ok(PolicyKind::Random {
            seed: suffix_of(other, "random")?,
        }),
        other if other.starts_with("lru") => Ok(PolicyKind::LruK {
            k: suffix_of(other, "lru")?,
        }),
        other if other.starts_with("gclock") => Ok(PolicyKind::GClock {
            weight: suffix_of(other, "gclock")?,
        }),
        other => Err(format!(
            "unknown replacement policy '{other}' \
             (random-SEED | fifo | lru | lru-K | lfu | clock | gclock-W)"
        )),
    }
}

fn parse_selection(raw: &str) -> Result<Selection, String> {
    if raw == "uniform" {
        return Ok(Selection::Uniform);
    }
    if let Some(theta) = raw.strip_prefix("zipf-") {
        return theta
            .parse()
            .map(Selection::Zipf)
            .map_err(|_| format!("invalid zipf skew in '{raw}'"));
    }
    if let Some(rest) = raw.strip_prefix("hotset-") {
        let parts: Vec<&str> = rest.splitn(2, '-').collect();
        if let [fraction, p_hot] = parts[..] {
            if let (Ok(fraction), Ok(p_hot)) = (fraction.parse(), p_hot.parse()) {
                return Ok(Selection::HotSet { fraction, p_hot });
            }
        }
        return Err(format!("expected 'hotset-FRACTION-PHOT', got '{raw}'"));
    }
    Err(format!(
        "unknown selection '{raw}' (uniform | zipf-THETA | hotset-FRACTION-PHOT)"
    ))
}

/// Parses an arrival process: `closed` or `poisson-RATE` (transactions
/// per simulated second).
pub fn parse_arrival(raw: &str) -> Result<Arrival, String> {
    if raw == "closed" {
        return Ok(Arrival::Closed);
    }
    if let Some(rate) = raw.strip_prefix("poisson-") {
        return rate
            .parse()
            .map(|rate_per_sec| Arrival::Poisson { rate_per_sec })
            .map_err(|_| format!("invalid poisson rate in '{raw}'"));
    }
    Err(format!("unknown arrival '{raw}' (closed | poisson-RATE)"))
}

/// Mutable access to the scenario-tunable DSTC parameters, upgrading
/// `CLUSTP` to DSTC (with [`DstcParams::default`]) on first touch.
fn dstc_params(system: &mut VoodbParams) -> &mut DstcParams {
    if !matches!(system.clustering, ClusteringKind::Dstc(_)) {
        system.clustering = ClusteringKind::Dstc(DstcParams::default());
    }
    match &mut system.clustering {
        ClusteringKind::Dstc(params) => params,
        _ => unreachable!("just set"),
    }
}

fn apply_system(system: &mut VoodbParams, field: &str, v: &Value) -> Result<(), String> {
    match field {
        "system_class" => system.system_class = parse_system_class(str_of(v)?)?,
        "network_throughput_mbps" => system.network_throughput_mbps = f64_of(v)?,
        "page_size" => system.page_size = usize_of(v)? as u32,
        "buffer_pages" => system.buffer_pages = usize_of(v)?,
        "cache_mb" => system.buffer_pages = (usize_of(v)? * O2_FRAMES_PER_MB).max(8),
        "memory_mb" => system.buffer_pages = (usize_of(v)? * TEXAS_FRAMES_PER_MB).max(8),
        "page_replacement" => system.page_replacement = parse_policy(str_of(v)?)?,
        "clustering" => {
            let raw = str_of(v)?;
            system.clustering = match raw {
                "none" => ClusteringKind::None,
                "dstc" => ClusteringKind::Dstc(match &system.clustering {
                    // Keep dstc_* keys already applied in this section.
                    ClusteringKind::Dstc(params) => params.clone(),
                    _ => DstcParams::default(),
                }),
                other if other.starts_with("static-graph") => ClusteringKind::StaticGraph {
                    max_cluster_size: suffix_of(other, "static-graph")?,
                },
                other => {
                    return Err(format!(
                        "unknown clustering '{other}' (none | dstc | static-graph-N)"
                    ))
                }
            };
        }
        "dstc_observation_period" => dstc_params(system).observation_period = usize_of(v)? as u64,
        "dstc_tfa" => dstc_params(system).tfa = f64_of(v)?,
        "dstc_tfc" => dstc_params(system).tfc = f64_of(v)?,
        "dstc_tfe" => dstc_params(system).tfe = f64_of(v)?,
        "dstc_w" => dstc_params(system).w = f64_of(v)?,
        "dstc_max_unit_size" => dstc_params(system).max_unit_size = usize_of(v)?,
        "dstc_trigger_threshold" => dstc_params(system).trigger_threshold = usize_of(v)?,
        "initial_placement" => {
            let raw = str_of(v)?;
            system.initial_placement = match raw {
                "sequential" => InitialPlacement::Sequential,
                "optimized-sequential" => InitialPlacement::OptimizedSequential,
                other if other.starts_with("random") => InitialPlacement::Random {
                    seed: suffix_of(other, "random")?,
                },
                other => {
                    return Err(format!(
                        "unknown placement '{other}' \
                         (sequential | optimized-sequential | random-SEED)"
                    ))
                }
            };
        }
        "disk" => {
            system.disk = match str_of(v)? {
                "table3" => DiskTimings::table3_default(),
                "o2" => DiskTimings::o2(),
                "texas" => DiskTimings::texas(),
                other => {
                    return Err(format!(
                        "unknown disk preset '{other}' (table3 | o2 | texas)"
                    ))
                }
            };
        }
        "disk_search_ms" => system.disk.search_ms = f64_of(v)?,
        "disk_latency_ms" => system.disk.latency_ms = f64_of(v)?,
        "disk_transfer_ms" => system.disk.transfer_ms = f64_of(v)?,
        "multiprogramming_level" => system.multiprogramming_level = usize_of(v)?,
        "get_lock_ms" => system.get_lock_ms = f64_of(v)?,
        "release_lock_ms" => system.release_lock_ms = f64_of(v)?,
        "swizzle" => system.swizzle = bool_of(v)?,
        other => return Err(format!("unknown [system] key '{other}'")),
    }
    Ok(())
}

fn apply_database(db: &mut ocb::DatabaseParams, field: &str, v: &Value) -> Result<(), String> {
    match field {
        "classes" => db.classes = usize_of(v)?,
        "max_refs" => db.max_refs = usize_of(v)?,
        "base_size" => db.base_size = usize_of(v)? as u32,
        "size_factor" => db.size_factor = usize_of(v)? as u32,
        "objects" => db.objects = usize_of(v)?,
        "ref_types" => db.ref_types = usize_of(v)?,
        "class_locality" => db.class_locality = usize_of(v)?,
        "object_locality" => db.object_locality = usize_of(v)?,
        "instance_dist" => db.instance_dist = parse_selection(str_of(v)?)?,
        "ref_dist" => db.ref_dist = parse_selection(str_of(v)?)?,
        other => return Err(format!("unknown [database] key '{other}'")),
    }
    Ok(())
}

fn apply_workload(wl: &mut ocb::WorkloadParams, field: &str, v: &Value) -> Result<(), String> {
    match field {
        "users" => wl.users = usize_of(v)?,
        "user_model" => wl.user_model = str_of(v)?.parse()?,
        "cold_transactions" => wl.cold_transactions = usize_of(v)?,
        "hot_transactions" => wl.hot_transactions = usize_of(v)?,
        "p_set" => wl.p_set = f64_of(v)?,
        "p_simple" => wl.p_simple = f64_of(v)?,
        "p_hierarchy" => wl.p_hierarchy = f64_of(v)?,
        "p_stochastic" => wl.p_stochastic = f64_of(v)?,
        "set_depth" => wl.set_depth = usize_of(v)?,
        "simple_depth" => wl.simple_depth = usize_of(v)?,
        "hierarchy_depth" => wl.hierarchy_depth = usize_of(v)?,
        "stochastic_depth" => wl.stochastic_depth = usize_of(v)?,
        "p_write" => wl.p_write = f64_of(v)?,
        "root_dist" => wl.root_dist = parse_selection(str_of(v)?)?,
        "think_time_ms" => wl.think_time_ms = f64_of(v)?,
        "arrival" => wl.arrival = parse_arrival(str_of(v)?)?,
        "duration_ms" => wl.duration_ms = f64_of(v)?,
        "warmup_ms" => wl.warmup_ms = f64_of(v)?,
        other => return Err(format!("unknown [workload] key '{other}'")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
[scenario]
name = "minimal"
replications = 3
seed = 7

[database]
classes = 10
objects = 500

[workload]
hot_transactions = 40
"#;

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = Scenario::parse(MINIMAL).unwrap();
        assert_eq!(s.name, "minimal");
        assert_eq!(s.replications, 3);
        assert_eq!(s.seed, 7);
        assert_eq!(s.config.database.objects, 500);
        assert_eq!(s.config.workload.hot_transactions, 40);
        // Untouched groups keep Table 3 / Table 5 defaults.
        assert_eq!(s.config.system.buffer_pages, 500);
        assert!(s.sweep.is_empty());
        assert_eq!(s.grid().len(), 1);
    }

    #[test]
    fn sweep_axes_build_a_cartesian_grid() {
        let text = format!(
            "{MINIMAL}\n[[sweep]]\nparam = \"system.multiprogramming_level\"\nvalues = [1, 2]\n\n\
             [[sweep]]\nparam = \"system.system_class\"\nvalues = [\"centralized\", \"page-server\", \"hybrid-4\"]\n"
        );
        let s = Scenario::parse(&text).unwrap();
        let grid = s.grid();
        assert_eq!(grid.len(), 6);
        // First axis slowest.
        assert_eq!(grid[0].config.system.multiprogramming_level, 1);
        assert_eq!(grid[3].config.system.multiprogramming_level, 2);
        assert_eq!(
            grid[2].config.system.system_class,
            SystemClass::HybridMultiServer { servers: 4 }
        );
        assert_eq!(
            grid[0].label(),
            "multiprogramming_level=1 system_class=centralized"
        );
    }

    #[test]
    fn convenience_mb_keys_scale_buffer_pages() {
        let text = format!("{MINIMAL}\n[system]\ncache_mb = 16\n");
        let s = Scenario::parse(&text).unwrap();
        assert_eq!(s.config.system.buffer_pages, 3840);
        let text = format!("{MINIMAL}\n[system]\nmemory_mb = 64\n");
        let s = Scenario::parse(&text).unwrap();
        assert_eq!(s.config.system.buffer_pages, 64 * 230);
    }

    #[test]
    fn dstc_keys_upgrade_clustering() {
        let text = format!(
            "{MINIMAL}\n[system]\nclustering = \"dstc\"\ndstc_max_unit_size = 32\ndstc_trigger_threshold = 150\n"
        );
        let s = Scenario::parse(&text).unwrap();
        match &s.config.system.clustering {
            ClusteringKind::Dstc(p) => {
                assert_eq!(p.max_unit_size, 32);
                assert_eq!(p.trigger_threshold, 150);
            }
            other => panic!("expected DSTC, got {other:?}"),
        }
    }

    #[test]
    fn errors_name_section_and_key() {
        let err = Scenario::parse(&format!("{MINIMAL}\n[system]\nbogus = 1\n")).unwrap_err();
        assert!(err.contains("system") && err.contains("bogus"), "{err}");

        let err = Scenario::parse(&format!("{MINIMAL}\n[system]\nbuffer_pages = \"lots\"\n"))
            .unwrap_err();
        assert!(
            err.contains("buffer_pages") && err.contains("integer"),
            "{err}"
        );

        let err = Scenario::parse("x = 1\n").unwrap_err();
        assert!(err.contains("unknown top-level section"), "{err}");

        let err = Scenario::parse("[scenario]\nreplications = 1\n").unwrap_err();
        assert!(err.contains("'name' is required"), "{err}");
    }

    #[test]
    fn invalid_sweep_values_are_rejected_at_validate() {
        // A 0 multiprogramming level fails VoodbParams::validate.
        let text = format!(
            "{MINIMAL}\n[[sweep]]\nparam = \"system.multiprogramming_level\"\nvalues = [2, 0]\n"
        );
        let err = Scenario::parse(&text).unwrap_err();
        assert!(err.contains("multiprogramming"), "{err}");

        let text = format!("{MINIMAL}\n[[sweep]]\nparam = \"system.nope\"\nvalues = [1]\n");
        let err = Scenario::parse(&text).unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn cross_axis_invalid_combinations_rejected() {
        // Each value is fine against the base config (classes=10,
        // objects=500), but the grid point classes=100 x objects=50
        // violates objects >= classes — only per-point validation sees
        // it.
        let text = format!(
            "{MINIMAL}\n[[sweep]]\nparam = \"database.classes\"\nvalues = [10, 100]\n\n\
             [[sweep]]\nparam = \"database.objects\"\nvalues = [50, 5000]\n"
        );
        let err = Scenario::parse(&text).unwrap_err();
        assert!(
            err.contains("sweep point") && err.contains("objects"),
            "{err}"
        );
    }

    #[test]
    fn arrival_and_horizon_keys_parse_sweep_and_round_trip() {
        let text = format!(
            "{MINIMAL}\n[workload]\narrival = \"poisson-25.5\"\nduration_ms = 30000.0\n\
             warmup_ms = 3000.0\n\n\
             [[sweep]]\nparam = \"workload.arrival\"\n\
             values = [\"poisson-10\", \"poisson-40\", \"closed\"]\n"
        );
        let s = Scenario::parse(&text).unwrap();
        assert_eq!(
            s.config.workload.arrival,
            Arrival::Poisson { rate_per_sec: 25.5 }
        );
        assert_eq!(s.config.workload.duration_ms, 30000.0);
        assert_eq!(s.config.workload.warmup_ms, 3000.0);
        let grid = s.grid();
        assert_eq!(grid.len(), 3);
        assert_eq!(grid[2].config.workload.arrival, Arrival::Closed);
        // Each swept spelling comes back out verbatim in its point label.
        let labels: Vec<String> = grid.iter().map(SweepPoint::label).collect();
        assert_eq!(
            labels,
            ["arrival=poisson-10", "arrival=poisson-40", "arrival=closed"]
        );
        // Invalid values are rejected with the key named.
        let err = Scenario::parse(&format!("{MINIMAL}\n[workload]\narrival = \"sometimes\"\n"))
            .unwrap_err();
        assert!(err.contains("arrival"), "{err}");
        let err = Scenario::parse(&format!(
            "{MINIMAL}\n[workload]\nduration_ms = 100.0\nwarmup_ms = 100.0\n"
        ))
        .unwrap_err();
        assert!(err.contains("warmup"), "{err}");
    }

    /// A valid value of each string key's own form.
    fn string_sample(key: &str) -> &'static str {
        match key {
            "system.system_class" => "hybrid-2",
            "system.page_replacement" => "gclock-3",
            "system.clustering" => "static-graph-8",
            "system.initial_placement" => "random-5",
            "system.disk" => "o2",
            "database.instance_dist" => "zipf-0.8",
            "database.ref_dist" => "uniform",
            "workload.user_model" => "cohort",
            "workload.root_dist" => "hotset-0.1-0.9",
            "workload.arrival" => "poisson-12.5",
            other => panic!("string key {other} has no sample value"),
        }
    }

    #[test]
    fn every_listed_key_applies_a_sample_of_its_listed_shape() {
        let base = Scenario::parse(MINIMAL).unwrap().config;
        for &(key, shape, _) in PARAM_HELP {
            let value = match shape {
                "integer" => Value::Integer(2),
                "float" => Value::Float(0.5),
                "float|inf" => Value::Float(f64::INFINITY),
                "boolean" => Value::Bool(true),
                "string" => Value::String(string_sample(key).to_owned()),
                other => panic!("{key}: unknown shape {other}"),
            };
            let mut config = base.clone();
            apply_param(&mut config, key, &value).unwrap_or_else(|e| panic!("{key}: {e}"));
        }
    }
}
