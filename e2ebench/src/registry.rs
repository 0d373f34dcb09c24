//! The metric and workload registry: the single source of `BENCHMARK.json`
//! and of the richer `e2ebench/manifest.json`.
//!
//! `BENCHMARK.json` carries what a benchmark runner needs (names, units,
//! directions, regression bounds). The manifest adds, for every metric,
//! the layer it belongs to and which end-to-end metric on which workload
//! it should move, and for every workload its input sizes and seed
//! argument. Both files are generated from this table (`--describe`), and
//! every run refuses to start if either committed file drifted from it.

use crate::workloads::WORKLOADS;
use vtrace::Json;

/// Whether a smaller or a larger value is the better one.
#[derive(Clone, Copy)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric (untraced runs).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// One per-layer metric (traced runs), named `<layer>.<metric>`.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric on which workload it should move.
    pub moves: &'static str,
}

impl Layer {
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub const RUN_SECONDS: u64 = 20;

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "host time of one whole grid round, set-up stage included (median over rounds, \
               at the reference host speed)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "set-up stage of a round: every point's object base, placement, model and engine \
               construction before the first event (median over rounds, at the reference host \
               speed)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
        what: "process VmHWM after the reference round, which runs the grid on one worker",
    },
    EndToEnd {
        name: "job_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median host time of one (point x replication) job, at the reference host speed",
    },
    EndToEnd {
        name: "job_ms_tail",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "highest job-time percentile with at least ten jobs beyond it, at the reference \
               host speed; the run prints the percentile and the job count",
    },
];

const FIG8_TEXAS_SETUP: &str = "setup_s on fig8_o2_cache and texas_dstc_2pl; about 0 on users_1m";

pub const PER_LAYER: &[Layer] = &[
    Layer {
        name: "ocb.base_gen_ms",
        unit: "ms",
        better: Better::Lower,
        moves: FIG8_TEXAS_SETUP,
    },
    Layer {
        name: "clustering.placement_ms",
        unit: "ms",
        better: Better::Lower,
        moves: FIG8_TEXAS_SETUP,
    },
    Layer {
        name: "model.build_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "setup_s on every workload",
    },
    Layer {
        name: "oostore.build_ms",
        unit: "ms",
        better: Better::Lower,
        moves: FIG8_TEXAS_SETUP,
    },
    Layer {
        name: "ocb.tx_gen_us",
        unit: "us",
        better: Better::Lower,
        moves: "job_ms_p50 on fig8_o2_cache",
    },
    Layer {
        name: "ocb.accesses_per_tx",
        unit: "count",
        better: Better::Lower,
        moves: "job_ms_p50 on fig8_o2_cache",
    },
    Layer {
        name: "bman.access_ns",
        unit: "ns",
        better: Better::Lower,
        moves: "wall_s and job_ms_p50 on fig8_o2_cache and texas_dstc_2pl; none on users_1m",
    },
    Layer {
        name: "bman.hit_ratio",
        unit: "ratio",
        better: Better::Higher,
        moves: "wall_s and job_ms_p50 on fig8_o2_cache and texas_dstc_2pl; none on users_1m",
    },
    Layer {
        name: "bman.model_hit_ratio",
        unit: "ratio",
        better: Better::Higher,
        moves: "none: the model's own hit ratio, next to the replayed bman.hit_ratio",
    },
    Layer {
        name: "bman.writebacks_per_miss",
        unit: "ratio",
        better: Better::Lower,
        moves: "wall_s and job_ms_p50 on texas_dstc_2pl (dirty swizzle write-backs)",
    },
    Layer {
        name: "bufmgr.policy_ns.lru",
        unit: "ns",
        better: Better::Lower,
        moves: "no end-to-end metric by itself; locates a buffer change per policy",
    },
    Layer {
        name: "bufmgr.policy_ns.fifo",
        unit: "ns",
        better: Better::Lower,
        moves: "no end-to-end metric by itself; locates a buffer change per policy",
    },
    Layer {
        name: "bufmgr.policy_ns.clock",
        unit: "ns",
        better: Better::Lower,
        moves: "no end-to-end metric by itself; locates a buffer change per policy",
    },
    Layer {
        name: "bufmgr.policy_ns.lfu",
        unit: "ns",
        better: Better::Lower,
        moves: "no end-to-end metric by itself; locates a buffer change per policy",
    },
    Layer {
        name: "bufmgr.policy_ns.lru2",
        unit: "ns",
        better: Better::Lower,
        moves: "no end-to-end metric by itself; locates a buffer change per policy",
    },
    Layer {
        name: "bufmgr.policy_ns.random",
        unit: "ns",
        better: Better::Lower,
        moves: "no end-to-end metric by itself; locates a buffer change per policy",
    },
    Layer {
        name: "iosub.batch_ns",
        unit: "ns",
        better: Better::Lower,
        moves: "job_ms_p50 on fig8_o2_cache and texas_dstc_2pl",
    },
    Layer {
        name: "iosub.ios_per_tx",
        unit: "count",
        better: Better::Lower,
        moves: "job_ms_p50 on fig8_o2_cache and texas_dstc_2pl",
    },
    Layer {
        name: "iosub.model_ios_per_tx",
        unit: "count",
        better: Better::Lower,
        moves: "none: the model's own I/Os per transaction, next to the replayed iosub.ios_per_tx",
    },
    Layer {
        name: "lockmgr.request_ns",
        unit: "ns",
        better: Better::Lower,
        moves: "job_ms_p50 on texas_dstc_2pl",
    },
    Layer {
        name: "lockmgr.commit_ratio",
        unit: "ratio",
        better: Better::Higher,
        moves: "job_ms_p50 on texas_dstc_2pl",
    },
    Layer {
        name: "cman.reorg_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "job_ms_tail on texas_dstc_2pl",
    },
    Layer {
        name: "oostore.run_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "wall_s on fig8_o2_cache (about half of each job)",
    },
    Layer {
        name: "oostore.reorg_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "job_ms_tail on texas_dstc_2pl",
    },
    Layer {
        name: "oostore.bench_sim_ios_err",
        unit: "ratio",
        better: Better::Lower,
        moves: "none: |engine I/Os / simulated I/Os - 1|, the paper's validation criterion \
                (0 on users_1m, which has no engine twin)",
    },
    Layer {
        name: "admission.op_ns",
        unit: "ns",
        better: Better::Lower,
        moves: "wall_s and peak_rss_mb on users_1m",
    },
    Layer {
        name: "admission.high_water",
        unit: "count",
        better: Better::Lower,
        moves: "wall_s and peak_rss_mb on users_1m",
    },
    Layer {
        name: "desp.hold_ns.calendar.p3",
        unit: "ns",
        better: Better::Lower,
        moves: "wall_s on users_1m",
    },
    Layer {
        name: "desp.hold_ns.calendar.p1k",
        unit: "ns",
        better: Better::Lower,
        moves: "wall_s on users_1m",
    },
    Layer {
        name: "desp.hold_ns.calendar.p1m",
        unit: "ns",
        better: Better::Lower,
        moves: "wall_s on users_1m",
    },
    Layer {
        name: "desp.hold_ns.heap.p3",
        unit: "ns",
        better: Better::Lower,
        moves: "none while the calendar queue is the default scheduler",
    },
    Layer {
        name: "desp.hold_ns.heap.p1k",
        unit: "ns",
        better: Better::Lower,
        moves: "none while the calendar queue is the default scheduler",
    },
    Layer {
        name: "desp.hold_ns.heap.p1m",
        unit: "ns",
        better: Better::Lower,
        moves: "none while the calendar queue is the default scheduler",
    },
    Layer {
        name: "desp.hold_ns.wheel.p3",
        unit: "ns",
        better: Better::Lower,
        moves: "none while the calendar queue is the default scheduler",
    },
    Layer {
        name: "desp.hold_ns.wheel.p1k",
        unit: "ns",
        better: Better::Lower,
        moves: "none while the calendar queue is the default scheduler",
    },
    Layer {
        name: "desp.hold_ns.wheel.p1m",
        unit: "ns",
        better: Better::Lower,
        moves: "none while the calendar queue is the default scheduler",
    },
    Layer {
        name: "desp.events_per_s",
        unit: "1/s",
        better: Better::Higher,
        moves: "wall_s on users_1m (a change that removes events lowers it)",
    },
    Layer {
        name: "desp.events_per_tx",
        unit: "count",
        better: Better::Lower,
        moves: "wall_s on users_1m",
    },
    Layer {
        name: "model.phase_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "job_ms_p50 on every workload",
    },
    Layer {
        name: "model.self_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "job_ms_p50 on every workload",
    },
    Layer {
        name: "scenario.parse_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "wall_s on every workload",
    },
    Layer {
        name: "scenario.report_ms",
        unit: "ms",
        better: Better::Lower,
        moves: "wall_s on every workload",
    },
    Layer {
        name: "scenario.parallel_eff",
        unit: "ratio",
        better: Better::Higher,
        moves: "wall_s on every workload",
    },
    Layer {
        name: "vtrace.overhead_pct",
        unit: "%",
        better: Better::Lower,
        moves: "none untraced; it prices voodb run --trace (fig8_o2_cache sweep)",
    },
    Layer {
        name: "bench.trace_overhead_x",
        unit: "x",
        better: Better::Lower,
        moves: "none: traced round wall time / untraced round wall time of this benchmark",
    },
];

/// How the end-to-end times are made comparable across runs.
const HOST_SPEED: &str = "End-to-end times are host times scaled to the reference host speed: \
    each is multiplied by reference / measured time of a fixed integer kernel that shares no \
    code with the measured program, run on both workers between rounds (median over the run). \
    On a shared host the machine's speed drifts by 10-25% between runs minutes apart, and the \
    kernel's time moves with it; the run prints the unscaled values and the factor.";

/// The seed argument, as recorded in the manifest.
const SEED_ARGUMENT: &str = "--seed <n>: every replication's transaction stream derives from n \
    through the scenario runner's point_seed and replication_seed, with fresh replication indices \
    in every round; the object bases derive from each scenario's own seed (the paper built each \
    database once). The same n gives the same inputs";

fn better(b: Better) -> Json {
    s(b.as_str())
}

fn s(text: &str) -> Json {
    Json::Str(text.to_owned())
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> Json {
    obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--offline",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "e2ebench/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(s)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![s("e2ebench")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", better(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", better(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `e2ebench/manifest.json` document.
pub fn manifest_json() -> Json {
    obj(vec![
        ("seed_argument", s(SEED_ARGUMENT)),
        ("host_speed", s(HOST_SPEED)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        obj(vec![
                            ("name", s(w.name)),
                            ("why", s(w.why)),
                            ("inputs", s(w.inputs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", better(m.better)),
                            ("bound", Json::Num(m.bound)),
                            ("layer", s("end_to_end")),
                            ("what", s(m.what)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", better(m.better)),
                            ("layer", s(m.layer())),
                            ("moves", s(m.moves)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Pretty-prints a JSON document with two-space indentation, one array
/// element or object member per line (the committed files' layout).
pub fn pretty(json: &Json) -> String {
    let mut out = String::new();
    write_pretty(json, 0, &mut out);
    out.push('\n');
    out
}

fn write_pretty(json: &Json, depth: usize, out: &mut String) {
    let pad = |d: usize| "  ".repeat(d);
    match json {
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad(depth + 1));
                write_pretty(item, depth + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad(depth));
            out.push(']');
        }
        Json::Obj(members) if !members.is_empty() => {
            out.push_str("{\n");
            for (i, (key, value)) in members.iter().enumerate() {
                out.push_str(&pad(depth + 1));
                vtrace::json::write_json_string(out, key);
                out.push_str(": ");
                write_pretty(value, depth + 1, out);
                out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad(depth));
            out.push('}');
        }
        other => out.push_str(&other.to_string_compact()),
    }
}

/// Checks that the committed `BENCHMARK.json` and manifest match this
/// registry, so a metric cannot be added, renamed or re-bounded in one
/// place only.
///
/// # Errors
/// Names the file that drifted.
pub fn check_committed(benchmark_text: &str, manifest_text: &str) -> Result<(), String> {
    for (file, text, expected) in [
        ("BENCHMARK.json", benchmark_text, benchmark_json()),
        ("e2ebench/manifest.json", manifest_text, manifest_json()),
    ] {
        let parsed = vtrace::json::parse(text).map_err(|e| format!("{file}: {e}"))?;
        if parsed != expected {
            return Err(format!(
                "{file} does not match the benchmark's registry; regenerate it with --describe"
            ));
        }
    }
    Ok(())
}
