//! The end-to-end benchmark of the VOODB reproduction.
//!
//! One run measures one workload (see `workloads.rs`) in its own
//! process:
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload fig8_o2_cache --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A workload is a fixed grid of (point × replication) jobs. A *round*
//! is a set-up stage (every point's object base, placement, model and
//! engine construction) followed by the whole grid as one closed batch
//! on two worker threads, each job timed on its own.
//!
//! * `--trace 0` runs one reference round on one worker, then
//!   `seconds / round_s` measured rounds on two, and reports the
//!   end-to-end metrics (medians over rounds and jobs).
//! * `--trace 1` runs untraced, traced, traced, untraced rounds, where
//!   traced jobs record spans around every call into a layer and replay
//!   each phase through the model's per-access layers; then the layer
//!   rungs (`rungs.rs`). It reports the per-layer metrics, prints the
//!   self time per layer and writes the spans to
//!   `.bench_out/<workload>.spans.jsonl`.
//!
//! Every job's outputs are checked (`workloads.rs`); a failed check or a
//! panic fails the job. Every round's `sim_digest` — a hash of every
//! job's simulated and engine results in job order — must equal the
//! reference round's: across 1 and 2 workers with `--trace 0`, across
//! traced and untraced rounds with `--trace 1`. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the exit code is 1 when anything failed.
//!
//! `--describe benchmark|manifest` prints `BENCHMARK.json` or
//! `e2ebench/manifest.json` from the registry in `registry.rs`.

mod harness;
mod registry;
mod rungs;
mod workloads;

use harness::{
    calibrate, median, peak_rss_mb, run_batch, self_times, tail, Digest, JobRun, Span, Tracer,
};
use ocb::ObjectBase;
use registry::{END_TO_END, PER_LAYER};
use scenario::{MetricEstimate, PointSummary, SweepResult};
use std::collections::BTreeMap;
use std::time::Instant;
use vtrace::Json;
use workloads::{Grid, JobOut, Kind, WORKLOADS};

/// Worker threads of a measured round.
const WORKERS: usize = 2;

/// Time of [`calibrate`] on two workers on the reference host (a 2-vCPU
/// x86-64 VM), in s: end-to-end times are reported at this host speed.
const CALIBRATION_REFERENCE_S: f64 = 0.014;

const MANIFEST: &str = include_str!("../manifest.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Command {
    Run(Args),
    Describe(String),
}

fn parse_args() -> Result<Command, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(key) = args.next() {
        let value = args.next().ok_or_else(|| format!("{key} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{key} {value}: {e}"))
        };
        match key.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            "--describe" => return Ok(Command::Describe(value)),
            _ => return Err(format!("unknown argument {key}")),
        }
    }
    let missing = |name: &str| format!("missing --{name}");
    Ok(Command::Run(Args {
        workload: workload.ok_or_else(|| missing("workload"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        seconds: seconds.unwrap_or(registry::RUN_SECONDS),
        trace: trace.ok_or_else(|| missing("trace"))?,
    }))
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    }
}

/// Returns whether the run was correct.
fn real_main() -> Result<bool, String> {
    let args = match parse_args()? {
        Command::Describe(what) => {
            let json = match what.as_str() {
                "benchmark" => registry::benchmark_json(),
                "manifest" => registry::manifest_json(),
                _ => {
                    return Err(format!(
                        "--describe takes benchmark or manifest, not {what}"
                    ))
                }
            };
            print!("{}", registry::pretty(&json));
            return Ok(true);
        }
        Command::Run(args) => args,
    };
    let benchmark = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json in the working directory: {e}"))?;
    registry::check_committed(&benchmark, MANIFEST)?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let grid = Grid::new(workload, args.seed)?;
    println!(
        "# workload {} seed {} trace {}: {} points x {} replications, {} workers (available parallelism {})",
        workload.name,
        args.seed,
        u8::from(args.trace),
        grid.points.len(),
        workload.reps,
        WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let report = if args.trace {
        per_layer(&grid, args.seed)?
    } else {
        end_to_end(&grid, args.seconds)?
    };
    report.print(if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    })
}

/// One round: the set-up stage and the whole grid.
struct Round {
    setup_ms: f64,
    wall_ms: f64,
    runs: Vec<JobRun<JobOut>>,
    digest: u64,
    /// Set-up spans (traced rounds only).
    setup_spans: Vec<Span>,
    bases: Vec<ObjectBase>,
}

impl Round {
    fn outs(&self) -> impl Iterator<Item = &JobOut> {
        self.runs.iter().filter_map(|run| run.out.as_ref().ok())
    }

    fn job_ms_sum(&self) -> f64 {
        self.runs.iter().map(|run| run.host_ms).sum()
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs round `round` (its index picks the replication streams).
fn run_round(grid: &Grid, round: usize, workers: usize, traced: bool, epoch: Instant) -> Round {
    let start = Instant::now();
    let mut tracer = Tracer::new(epoch, usize::MAX, traced);
    let bases = set_up(grid, &mut tracer);
    let setup_ms = ms_since(start);
    let runs = run_batch(grid.jobs(), workers, |job| {
        workloads::run_job(grid, &bases, round, job, Tracer::new(epoch, job, traced))
    });
    let wall_ms = ms_since(start);
    let mut digest = Digest::new();
    for run in &runs {
        match &run.out {
            Ok(out) => out.digest_into(&mut digest),
            Err(_) => digest.u64(u64::MAX),
        }
    }
    Round {
        setup_ms,
        wall_ms,
        runs,
        digest: digest.finish(),
        setup_spans: tracer.into_spans(),
        bases,
    }
}

/// The set-up stage: every point's object base (kept for the jobs), and
/// one placement, model and engine construction per point (priced, then
/// dropped: each job builds its own fresh model and engine).
fn set_up(grid: &Grid, tracer: &mut Tracer) -> Vec<ObjectBase> {
    (0..grid.points.len())
        .map(|point| {
            let database = &grid.points[point].config.database;
            let base = tracer.span("ocb.base_gen", None, || {
                ObjectBase::generate(database, grid.base_seed(point))
            });
            let system = grid.system(point);
            tracer.span("clustering.placement", None, || {
                system.initial_placement.build(&base, system.page_size)
            });
            let (_, seed) = grid.job_seed(0, point * grid.workload.reps);
            tracer.span("model.build", None, || grid.simulation(point, &base, seed));
            match grid.kind() {
                Kind::O2Cache => {
                    tracer.span("oostore.build", None, || grid.o2_engine(point, &base));
                }
                Kind::TexasDstc => {
                    tracer.span("oostore.build", None, || grid.texas_engine(point, &base));
                }
                Kind::Users => {}
            }
            base
        })
        .collect()
}

/// The outcome of a run: counts, checks, metrics.
#[derive(Default)]
struct Report {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Report {
    fn count(&mut self, label: &str, round: &Round) {
        self.attempted += round.runs.len();
        for (job, run) in round.runs.iter().enumerate() {
            if let Err(e) = &run.out {
                self.failed += 1;
                self.errors.push(format!("{label} job {job}: {e}"));
            }
        }
    }

    fn same_digest(&mut self, what: &str, reference: &Round, other: &Round) {
        if other.digest != reference.digest {
            self.errors.push(format!(
                "sim_digest differs {what}: {:016x} vs {:016x}",
                reference.digest, other.digest
            ));
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Prints the human-readable lines, then the result object as the
    /// last line. Returns whether the run was correct.
    fn print(mut self, wanted: Vec<(&str, &str)>) -> Result<bool, String> {
        for note in &self.notes {
            println!("{note}");
        }
        for error in self.errors.iter().take(20) {
            println!("FAILED {error}");
        }
        let mut members = Vec::new();
        for (name, unit) in wanted {
            let value = self
                .metrics
                .remove(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            println!("{name:<34} {value:>18.6} {unit}");
            members.push((
                name.to_owned(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            ));
        }
        let correct = self.errors.is_empty() && self.failed == 0;
        let result = Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(members)),
        ]);
        println!("{}", result.to_string_compact());
        Ok(correct)
    }
}

/// `--trace 0`: round 0 once on one worker as the reference, then the
/// measured rounds on [`WORKERS`].
fn end_to_end(grid: &Grid, seconds: u64) -> Result<Report, String> {
    let rounds = ((seconds as f64 / grid.workload.round_s).round() as usize).max(3);
    let epoch = Instant::now();
    let mut report = Report::default();
    let reference = run_round(grid, 0, 1, false, epoch);
    report.count("reference", &reference);
    // Peak memory of the grid on one worker: with two, it depends on
    // whether the host runs both jobs' allocation peaks at once (a
    // loaded host serialises them and the peak drops by a third).
    let peak_rss = peak_rss_mb()?;
    // The first rounds on fresh worker threads run slower (allocator
    // arenas, page faults): one unmeasured round warms them up.
    let warm_up = run_round(grid, 0, WORKERS, false, epoch);
    report.count("warm-up", &warm_up);
    report.same_digest("between 1 and 2 workers", &reference, &warm_up);
    let mut calibrations = vec![calibrate(WORKERS)];
    let measured: Vec<Round> = (0..rounds)
        .map(|round| {
            let measured = run_round(grid, round, WORKERS, false, epoch);
            calibrations.push(calibrate(WORKERS));
            measured
        })
        .collect();
    report.same_digest("between repeated rounds", &reference, &measured[0]);
    let mut digest = Digest::new();
    for (i, round) in measured.iter().enumerate() {
        report.count(&format!("round {i}"), round);
        digest.u64(round.digest);
    }
    // Host times are reported at the reference host speed: scaled by
    // how much slower or faster than the reference the calibration
    // kernel ran during this run.
    let calibration_s = median(&calibrations);
    let scale = CALIBRATION_REFERENCE_S / calibration_s;
    let walls: Vec<f64> = measured.iter().map(|r| r.wall_ms / 1e3).collect();
    let setups: Vec<f64> = measured.iter().map(|r| r.setup_ms / 1e3).collect();
    let jobs: Vec<f64> = measured
        .iter()
        .flat_map(|r| r.runs.iter().map(|run| run.host_ms))
        .collect();
    let (tail_ms, percentile, samples) = tail(&jobs);
    report.set("wall_s", median(&walls) * scale);
    report.set("setup_s", median(&setups) * scale);
    report.set("peak_rss_mb", peak_rss);
    report.set("job_ms_p50", median(&jobs) * scale);
    report.set("job_ms_tail", tail_ms * scale);
    report.notes.push(format!(
        "host speed: calibration kernel {:.3} ms (reference {:.3} ms), times scaled by {scale:.4}; \
         unscaled wall_s {:.6} setup_s {:.6} job_ms_p50 {:.3} job_ms_tail {:.3}",
        calibration_s * 1e3,
        CALIBRATION_REFERENCE_S * 1e3,
        median(&walls),
        median(&setups),
        median(&jobs),
        tail_ms
    ));
    report
        .notes
        .push(format!("sim_digest {:016x}", digest.finish()));
    report.notes.push(format!(
        "rounds {rounds}; job_ms_tail is p{percentile:.1} of {samples} jobs; job_fail_ratio {}",
        report.failed as f64 / report.attempted as f64
    ));
    if let Some(err) = bench_sim_err(&reference) {
        report.notes.push(format!(
            "bench_sim_ios_err {err:.6} (|engine / sim I/Os - 1|)"
        ));
    }
    Ok(report)
}

/// |Σ engine I/Os / Σ simulated I/Os − 1| over a round's phases; `None`
/// without an engine twin.
fn bench_sim_err(round: &Round) -> Option<f64> {
    let (mut engine, mut sim) = (0u64, 0u64);
    for out in round.outs() {
        engine += out.engine_phase_ios.iter().sum::<u64>();
        if !out.engine_phase_ios.is_empty() {
            sim += out.sim_ios();
        }
    }
    (sim > 0).then(|| (engine as f64 / sim as f64 - 1.0).abs())
}

/// Sum of the ms of `job`'s spans named `name`.
fn span_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::ms).sum()
}

/// Mean over the jobs (or rung spans) that have spans named `name` of
/// their summed ms.
fn mean_per_owner(owners: &[&[Span]], name: &str) -> f64 {
    let sums: Vec<f64> = owners
        .iter()
        .filter(|spans| spans.iter().any(|s| s.name == name))
        .map(|spans| span_ms(spans, name))
        .collect();
    if sums.is_empty() {
        0.0
    } else {
        sums.iter().sum::<f64>() / sums.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Aggregates a round's first simulated phase per job into the scenario
/// layer's sweep result, as `voodb run` would report it.
fn sweep_result(grid: &Grid, round: &Round) -> SweepResult {
    let reps = grid.workload.reps;
    let points = grid
        .points
        .iter()
        .enumerate()
        .map(|(p, point)| {
            let sets: Vec<_> = (0..reps)
                .filter_map(|r| round.runs[p * reps + r].out.as_ref().ok())
                .map(|out| out.phases[0].to_metrics())
                .collect();
            let names: Vec<String> = sets
                .first()
                .map(|set| set.iter().map(|(name, _)| name.to_owned()).collect())
                .unwrap_or_default();
            let metrics = names
                .into_iter()
                .map(|name| {
                    let samples: Vec<f64> = sets.iter().filter_map(|set| set.get(&name)).collect();
                    let ci = desp::ConfidenceInterval::from_samples(&samples, scenario::CONFIDENCE);
                    MetricEstimate {
                        name,
                        mean: ci.mean,
                        half_width: ci.half_width,
                        n: ci.n,
                    }
                })
                .collect();
            PointSummary {
                coords: point
                    .coords
                    .iter()
                    .map(|(param, value)| {
                        (param.clone(), scenario::spec::value_to_plain_string(value))
                    })
                    .collect(),
                label: point.label(),
                metrics,
            }
        })
        .collect();
    SweepResult {
        scenario: grid.scenario.name.clone(),
        description: grid.scenario.description.clone(),
        replications: reps,
        seed: grid.seed,
        axes: grid
            .scenario
            .sweep
            .iter()
            .map(|a| a.param.clone())
            .collect(),
        points,
    }
}

/// `--trace 1`: untraced, traced, traced, untraced rounds, then the
/// layer rungs.
fn per_layer(grid: &Grid, seed: u64) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut report = Report::default();
    // Warm-up: the process's first round pays page faults and lazy
    // allocation the others do not.
    let warm_up = run_round(grid, 0, WORKERS, false, epoch);
    report.count("warm-up", &warm_up);
    let u1 = run_round(grid, 0, WORKERS, false, epoch);
    let t1 = run_round(grid, 0, WORKERS, true, epoch);
    let t2 = run_round(grid, 1, WORKERS, true, epoch);
    let u2 = run_round(grid, 1, WORKERS, false, epoch);
    for (label, round) in [
        ("untraced", &u1),
        ("traced", &t1),
        ("traced", &t2),
        ("untraced", &u2),
    ] {
        report.count(label, round);
    }
    let what = "between traced and untraced rounds";
    report.same_digest(what, &u1, &t1);
    report.same_digest(what, &u2, &t2);
    report.same_digest("between repeated rounds", &u1, &warm_up);
    let mut digest = Digest::new();
    digest.u64(u1.digest);
    digest.u64(u2.digest);
    report
        .notes
        .push(format!("sim_digest {:016x}", digest.finish()));
    report.notes.push(format!(
        "round walls (ms): untraced {:.1}, traced {:.1}, traced {:.1}, untraced {:.1}",
        u1.wall_ms, t1.wall_ms, t2.wall_ms, u2.wall_ms
    ));
    report.set(
        "bench.trace_overhead_x",
        (t1.wall_ms + t2.wall_ms) / (u1.wall_ms + u2.wall_ms),
    );
    report.set(
        "scenario.parallel_eff",
        (u1.job_ms_sum() + u2.job_ms_sum())
            / ((u1.wall_ms - u1.setup_ms + u2.wall_ms - u2.setup_ms) * WORKERS as f64),
    );

    // The rungs, with their spans recorded beside the rounds'.
    let mut rung_tracer = Tracer::new(epoch, usize::MAX, true);
    if grid.kind() != Kind::TexasDstc {
        let base = &t1.bases[0];
        let (_, job_seed) = grid.job_seed(0, 0);
        let (transactions, _) = workloads::generate_run(base, grid.workload_params(0), job_seed);
        rungs::reorg_rung(grid, base, &transactions, seed, &mut rung_tracer)?;
        if grid.kind() == Kind::Users {
            rungs::engine_run_rung(grid, base, &transactions, &mut rung_tracer);
        }
    }
    for (name, ns) in rungs::hold_rung(seed) {
        report.set(&name, ns);
    }
    for (name, ns) in rungs::policy_rung(seed)? {
        report.set(&name, ns);
    }
    let users = Grid::new(&WORKLOADS[1], seed)?;
    let depth = users.system(0).users - users.system(0).multiprogramming_level;
    report.set("admission.op_ns", rungs::admission_rung(depth));
    report.set("scenario.parse_ms", rungs::parse_ms(grid.workload.toml)?);
    report.set(
        "scenario.report_ms",
        rungs::report_ms(&sweep_result(grid, &u1)),
    );
    report.set(
        "vtrace.overhead_pct",
        rungs::vtrace_overhead_pct(seed, WORKERS)?,
    );
    let rung_spans = rung_tracer.into_spans();

    // Span-derived metrics over both traced rounds.
    let traced = [&t1, &t2];
    let outs: Vec<&JobOut> = traced.iter().flat_map(|r| r.outs()).collect();
    let unowned: Vec<&Span> = traced
        .iter()
        .flat_map(|r| r.setup_spans.iter())
        .chain(&rung_spans)
        .collect();
    let setup_median = |name: &str| {
        let values: Vec<f64> = unowned
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ms())
            .collect();
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    report.set("ocb.base_gen_ms", setup_median("ocb.base_gen"));
    report.set(
        "clustering.placement_ms",
        setup_median("clustering.placement"),
    );
    report.set("model.build_ms", setup_median("model.build"));
    report.set("oostore.build_ms", setup_median("oostore.build"));

    let mut owners: Vec<&[Span]> = outs.iter().map(|out| out.spans.as_slice()).collect();
    let rung_owners: Vec<&[Span]> = rung_spans.iter().map(std::slice::from_ref).collect();
    owners.extend(rung_owners.iter().copied());
    let total = |name: &str| -> f64 { owners.iter().map(|spans| span_ms(spans, name)).sum() };
    let mut replay = workloads::Replay::default();
    for out in &outs {
        replay.add(out.replay);
    }
    let generated: u64 = outs.iter().map(|out| out.generated).sum();
    let phases: Vec<&voodb::PhaseResult> = outs.iter().flat_map(|out| out.phases.iter()).collect();
    let commits: f64 = phases.iter().map(|p| p.transactions as f64).sum();
    let events: f64 = phases.iter().map(|p| p.events as f64).sum();
    let aborts: f64 = outs.iter().map(|out| out.aborts as f64).sum();

    report.set(
        "ocb.tx_gen_us",
        ratio(total("ocb.tx_gen") * 1e3, generated as f64),
    );
    report.set(
        "ocb.accesses_per_tx",
        ratio(replay.accesses as f64, replay.transactions as f64),
    );
    report.set(
        "bman.access_ns",
        ratio(total("bman.access") * 1e6, replay.accesses as f64),
    );
    report.set(
        "bman.hit_ratio",
        ratio(replay.hits as f64, (replay.hits + replay.misses) as f64),
    );
    report.set(
        "bman.model_hit_ratio",
        ratio(
            phases.iter().map(|p| p.hit_ratio).sum(),
            phases.len() as f64,
        ),
    );
    report.set(
        "bman.writebacks_per_miss",
        ratio(replay.writebacks as f64, replay.misses as f64),
    );
    report.set(
        "iosub.batch_ns",
        ratio(total("iosub.batch") * 1e6, replay.batches as f64),
    );
    report.set(
        "iosub.ios_per_tx",
        ratio(replay.ios as f64, replay.transactions as f64),
    );
    report.set(
        "iosub.model_ios_per_tx",
        ratio(phases.iter().map(|p| p.total_ios() as f64).sum(), commits),
    );
    report.set(
        "lockmgr.request_ns",
        ratio(total("lockmgr.request") * 1e6, replay.lock_requests as f64),
    );
    report.set("lockmgr.commit_ratio", ratio(commits, commits + aborts));
    report.set("cman.reorg_ms", mean_per_owner(&owners, "cman.reorg"));
    report.set("oostore.run_ms", mean_per_owner(&owners, "oostore.run"));
    report.set("oostore.reorg_ms", mean_per_owner(&owners, "oostore.reorg"));
    report.set(
        "oostore.bench_sim_ios_err",
        bench_sim_err(&u1).unwrap_or(0.0),
    );
    report.set(
        "admission.high_water",
        outs.iter()
            .map(|out| out.ring_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    let phase_ms = total("model.phase");
    report.set("desp.events_per_s", ratio(events, phase_ms / 1e3));
    report.set("desp.events_per_tx", ratio(events, commits));

    // model.self_ms: each phase span minus the layer spans replayed for it.
    let mut children_ms = BTreeMap::<&str, f64>::new();
    for out in &outs {
        for span in &out.spans {
            if span
                .parent
                .is_some_and(|p| out.spans[p as usize].name == "model.phase")
            {
                *children_ms.entry(span.name).or_default() += span.ms();
            }
        }
    }
    let jobs = outs.len() as f64;
    let self_ms = phase_ms - children_ms.values().sum::<f64>();
    report.set("model.phase_ms", ratio(phase_ms, jobs));
    report.set("model.self_ms", ratio(self_ms, jobs));
    let children: Vec<String> = children_ms
        .iter()
        .map(|(name, ms)| format!("{name} {:.3}", ms / jobs))
        .collect();
    report.notes.push(format!(
        "per job: model.phase_ms {:.3} = model.self_ms {:.3} + replayed children ({})",
        phase_ms / jobs,
        self_ms / jobs,
        children.join(", ")
    ));
    report.notes.push(format!(
        "replayed {} transactions / {} accesses; the model committed {} transactions; \
         replayed hit ratio {:.4} vs model {:.4}; replayed I/Os per tx {:.3} vs model {:.3}",
        replay.transactions,
        replay.accesses,
        commits,
        ratio(replay.hits as f64, (replay.hits + replay.misses) as f64),
        ratio(
            phases.iter().map(|p| p.hit_ratio).sum(),
            phases.len() as f64
        ),
        ratio(replay.ios as f64, replay.transactions as f64),
        ratio(phases.iter().map(|p| p.total_ios() as f64).sum(), commits),
    ));
    report.notes.push(format!(
        "benchmark tracing overhead: traced / untraced round wall = {:.3}",
        (t1.wall_ms + t2.wall_ms) / (u1.wall_ms + u2.wall_ms)
    ));

    // Self time per layer, and the spans on disk.
    report.notes.push(format!(
        "{:<22} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    ));
    let mut table = BTreeMap::<&str, (usize, f64, f64)>::new();
    let groups: Vec<&[Span]> = traced
        .iter()
        .flat_map(|r| {
            std::iter::once(r.setup_spans.as_slice())
                .chain(r.outs().map(|out| out.spans.as_slice()))
        })
        .chain(std::iter::once(rung_spans.as_slice()))
        .collect();
    for spans in &groups {
        for (name, total_ms, self_ms, count) in self_times(spans) {
            let entry = table.entry(name).or_default();
            entry.0 += count;
            entry.1 += total_ms;
            entry.2 += self_ms;
        }
    }
    for (name, (count, total_ms, self_ms)) in table {
        report.notes.push(format!(
            "{name:<22} {count:>7} {total_ms:>12.3} {self_ms:>12.3}"
        ));
    }
    let path =
        std::path::PathBuf::from(".bench_out").join(format!("{}.spans.jsonl", grid.workload.name));
    harness::write_spans_jsonl(&path, &groups)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report
        .notes
        .push(format!("spans written to {}", path.display()));
    Ok(report)
}
