//! The unified `voodb` CLI: run, trace, analyze, compare, list, and
//! validate declarative scenario files, and reproduce the paper's
//! evaluation.
//!
//! ```text
//! voodb run <file.toml> [--threads N] [--reps N] [--seed S] [--out DIR]
//!           [--trace] [--trace-sample N]
//!           [--watch] [--watch-jsonl PATH] [--watch-interval MS]
//!           [--duration MS] [--warmup MS] [--arrival SPEC]
//! voodb repro [ARTIFACT...] [--reps N] [--seed S] [--out DIR] [--threads N]
//! voodb analyze <run-dir>
//! voodb compare <run-dir-a> <run-dir-b> [--threshold 0.10]
//! voodb validate <file.toml>...
//! voodb list [--dir scenarios]
//! voodb params
//! voodb audit [--json] [--root DIR]
//! voodb help
//! ```
//!
//! `run` executes the sweep in parallel (deterministic at any thread
//! count), prints a per-point summary, and writes
//! `<out>/<scenario>.csv` + `<out>/<scenario>.json`
//! (default `target/voodb-out/`); with `--trace` it also records every
//! job and writes `<out>/<scenario>.trace/` (span JSONL, series CSV,
//! `summary.json`). `--watch` / `--watch-jsonl` stream decimated live
//! telemetry (throughput, p99, MPL queue, hit ratio) out of the running
//! jobs — to the terminal or a JSONL file — and imply `--trace`.
//! `repro` runs the named entries (default: all) of the artifact table
//! ([`scenario::paper`]): each prints its CSV table and writes
//! `<out>/<stem>.csv` + `.json`.
//! `analyze` prints the percentile table of a trace directory;
//! `compare` diffs two trace directories and exits non-zero iff a
//! metric regresses beyond the threshold.
//! `validate` parses and validates each file, reporting precise
//! line/column positions for syntax errors. `params` lists every
//! supported parameter key (all of them sweepable), sorted. `audit`
//! statically checks the workspace sources against the determinism
//! rules and the `test-only-pub` API rule (see the `voodb-audit` crate
//! and README "Static guarantees & determinism invariants").

use scenario::{
    check_same_tendency, library_listing, params_help_text, run_sweep, run_sweep_traced_with,
    sweep_table, write_sweep_reports, write_trace_reports, JobKind, Report, RunOptions, Scenario,
    ARTIFACTS, DEFAULT_OUT_DIR,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vtrace::{Json, RecorderConfig, RunSummary, TraceAnalysis, WatchSample, WatchSink};

const USAGE: &str = "\
voodb — declarative VOODB experiments

USAGE:
    voodb run <file.toml> [--threads N] [--reps N] [--seed S] [--out DIR]
              [--trace] [--trace-sample N]
              [--watch] [--watch-jsonl PATH] [--watch-interval MS]
              [--duration MS] [--warmup MS] [--arrival SPEC]
    voodb repro [ARTIFACT...] [--reps N] [--seed S] [--out DIR] [--threads N]
    voodb analyze <run-dir>
    voodb compare <run-dir-a> <run-dir-b> [--threshold 0.10]
    voodb validate <file.toml>...
    voodb list [--dir scenarios]
    voodb params
    voodb audit [--json] [--root DIR]
    voodb help

COMMANDS:
    run        Run a scenario: expand its sweep grid, simulate
               (points x replications) jobs across threads, print the
               per-point summary, and write CSV + JSON reports.
    repro      Reproduce the paper's Figures 6-11 and Tables 6-8 (the
               real mini-engine and the model on one workload), then
               three simulated studies: policy_sweep, strategy_compare,
               dstc_sweep. Runs the named artifacts (e.g. fig08_o2_cache;
               default: all), prints each CSV table and writes
               <out>/<stem>.csv + .json. --reps, --seed, --out and
               --threads work as for `run`.
    analyze    Print the p50/p90/p99/max latency table of a trace
               directory written by `run --trace`.
    compare    Diff two trace directories' summary metrics; exits
               non-zero iff a metric regresses beyond the threshold
               (the summary line names each offending metric and delta).
    validate   Parse and validate scenario files (syntax errors carry
               line and column). Exits non-zero on the first failure.
    list       List the scenario library with name, description, axes
               (sorted by file name).
    params     List every supported [system]/[database]/[workload] key,
               sorted; each is also a valid sweep axis.
    audit      Statically audit the workspace sources for determinism
               violations: hash-ordered iteration in result-affecting
               crates, wall-clock/env reads, unseeded RNGs, float
               `partial_cmp`, unjustified `unsafe`/`#[allow]`, and
               hot-path panics; and for `pub` items that only tests
               use. Exits non-zero iff any rule fires.

OPTIONS (run):
    --threads N   Worker threads (default: one per core, at most 1024).
                  Results are identical at any thread count.
    --reps N      Override [scenario].replications.
    --seed S      Override [scenario].seed.
    --out DIR     Report directory (default: target/voodb-out).
    --trace       Record every job: transaction spans (JSONL), time
                  series (CSV) and summary.json under <out>/<name>.trace/.
    --trace-sample N
                  Bounded-loss span sampling: retain at most N raw span
                  records per job (uniform reservoir). Histograms and
                  percentiles still see every span; the loss is
                  reported, never silent. Requires --trace.
    --watch       Stream live telemetry lines (throughput, p99, MPL
                  queue, hit ratio) to the terminal while the run
                  executes. Implies --trace.
    --watch-jsonl PATH
                  Also (or instead) append each watch sample as a JSON
                  line to PATH. Implies --trace.
    --watch-interval MS
                  Minimum simulated ms between watch samples
                  (default 100).
    --duration MS Override workload.duration_ms: run each point as a
                  time-horizon phase of MS simulated ms (streamed; memory
                  stays O(in-flight) however long the phase).
    --warmup MS   Override workload.warmup_ms (unmeasured warm-up prefix
                  of a time-horizon phase).
    --arrival A   Override workload.arrival: closed | poisson-RATE (tx/s)
                  | deterministic-MS (fixed interarrival).

OPTIONS (compare):
    --threshold T Relative regression threshold (default 0.10 = 10%).

OPTIONS (audit):
    --root DIR    Workspace root to scan (default: current directory).
    --json        Emit the machine-readable single-line JSON report
                  instead of the file:line diagnostic text.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str);
    match command {
        Some("run") => cmd_run(&args[1..]),
        Some("repro") => cmd_repro(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some("params") => {
            print!("{}", params_help_text());
            ExitCode::SUCCESS
        }
        Some("audit") => cmd_audit(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown command '{other}'\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// `(name, value)` pairs of parsed `--key value` options.
type Options<'a> = Vec<(&'a str, &'a str)>;

/// Splits `args` into positionals, `--key value` options (validated
/// against `known`), and bare `--flag`s (validated against `flags`).
fn split_args<'a>(
    args: &'a [String],
    known: &[&str],
    flags: &[&str],
) -> Result<(Vec<&'a str>, Options<'a>, Vec<&'a str>), String> {
    let mut positionals = Vec::new();
    let mut options = Vec::new();
    let mut bare = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if flags.contains(&name) {
                bare.push(name);
                continue;
            }
            if !known.contains(&name) {
                return Err(format!(
                    "unknown option '--{name}' (known: {})",
                    known
                        .iter()
                        .chain(flags)
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            let value = iter
                .next()
                .ok_or_else(|| format!("missing value for --{name}"))?;
            options.push((name, value.as_str()));
        } else {
            positionals.push(arg.as_str());
        }
    }
    Ok((positionals, options, bare))
}

fn parse_opt<T: std::str::FromStr>(name: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("invalid value '{raw}' for --{name}"))
}

fn load(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Scenario::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}

/// Applies an option `run` and `repro` share to `run_options` or
/// `out_dir`; `None` when `name` is not one of them.
fn apply_common_option(
    name: &str,
    raw: &str,
    run_options: &mut RunOptions,
    out_dir: &mut PathBuf,
) -> Option<Result<(), String>> {
    Some(match name {
        "threads" => parse_opt(name, raw).map(|v| run_options.threads = Some(v)),
        "reps" => parse_opt(name, raw).map(|v| run_options.reps = Some(v)),
        "seed" => parse_opt(name, raw).map(|v| run_options.seed = Some(v)),
        "out" => {
            *out_dir = PathBuf::from(raw);
            Ok(())
        }
        _ => return None,
    })
}

fn cmd_run(args: &[String]) -> ExitCode {
    let (files, options, flags) = match split_args(
        args,
        &[
            "threads",
            "reps",
            "seed",
            "out",
            "duration",
            "warmup",
            "arrival",
            "trace-sample",
            "watch-jsonl",
            "watch-interval",
        ],
        &["trace", "watch"],
    ) {
        Ok(split) => split,
        Err(e) => return fail(&e),
    };
    let [file] = files[..] else {
        return fail("'run' takes exactly one scenario file");
    };
    let mut run_options = RunOptions::default();
    let mut out_dir = PathBuf::from(DEFAULT_OUT_DIR);
    let mut trace_sample: Option<usize> = None;
    let mut watch_jsonl: Option<PathBuf> = None;
    let mut watch_interval = 100.0f64;
    for (name, raw) in options {
        if let Some(result) = apply_common_option(name, raw, &mut run_options, &mut out_dir) {
            if let Err(e) = result {
                return fail(&e);
            }
            continue;
        }
        let result = match name {
            "duration" => parse_opt(name, raw).map(|v| run_options.duration_ms = Some(v)),
            "warmup" => parse_opt(name, raw).map(|v| run_options.warmup_ms = Some(v)),
            "arrival" => scenario::parse_arrival(raw).map(|v| run_options.arrival = Some(v)),
            "trace-sample" => parse_opt(name, raw).map(|v| trace_sample = Some(v)),
            "watch-jsonl" => {
                watch_jsonl = Some(PathBuf::from(raw));
                Ok(())
            }
            "watch-interval" => match parse_opt::<f64>(name, raw) {
                Ok(v) if v > 0.0 => {
                    watch_interval = v;
                    Ok(())
                }
                Ok(_) => Err("--watch-interval must be positive".to_owned()),
                Err(e) => Err(e),
            },
            _ => unreachable!("validated by split_args"),
        };
        if let Err(e) = result {
            return fail(&e);
        }
    }
    let watch_terminal = flags.contains(&"watch");
    let watching = watch_terminal || watch_jsonl.is_some();
    // Watching needs the recorder, so it implies --trace.
    let trace = flags.contains(&"trace") || watching;
    if !trace && trace_sample.is_some() {
        return fail("--trace-sample requires --trace");
    }
    let scenario = match load(file) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let grid = scenario.grid().len();
    let reps = run_options.reps.unwrap_or(scenario.replications);
    println!(
        "running '{}': {grid} sweep point{} x {reps} replication{}{}",
        scenario.name,
        if grid == 1 { "" } else { "s" },
        if reps == 1 { "" } else { "s" },
        if trace { " (traced)" } else { "" },
    );
    let (result, traces) = if trace {
        let mut config = RecorderConfig::new();
        if let Some(cap) = trace_sample {
            config = config.sample(cap);
        }
        let mut drainer = None;
        if watching {
            // Create the JSONL sink up front so a bad path fails before
            // the run, not after it.
            let sink_file = match &watch_jsonl {
                Some(path) => match std::fs::File::create(path) {
                    Ok(f) => Some(f),
                    Err(e) => return fail(&format!("{}: {e}", path.display())),
                },
                None => None,
            };
            let (tx, rx) = std::sync::mpsc::channel();
            config = config.watch(WatchSink {
                sender: tx,
                interval_ms: watch_interval,
            });
            drainer = Some(std::thread::spawn(move || {
                drain_watch(rx, sink_file, watch_terminal)
            }));
        }
        let run = run_sweep_traced_with(&scenario, &run_options, &config);
        // Every recorder has flushed (dropping its sender); dropping the
        // config's own clone lets the drainer's receive loop terminate.
        drop(config);
        if let Some(handle) = drainer {
            match handle.join() {
                Ok(Ok(samples)) => {
                    if let Some(path) = &watch_jsonl {
                        println!("watch: {samples} samples -> {}", path.display());
                    } else {
                        println!("watch: {samples} samples");
                    }
                }
                Ok(Err(e)) => return fail(&e),
                Err(_) => return fail("watch drainer panicked"),
            }
        }
        match run {
            Ok((result, traces)) => (result, Some(traces)),
            Err(e) => return fail(&e),
        }
    } else {
        match run_sweep(&scenario, &run_options) {
            Ok(result) => (result, None),
            Err(e) => return fail(&e),
        }
    };
    print_summary(&result);
    match write_sweep_reports(&result, &out_dir) {
        Ok((csv, json)) => {
            println!("wrote {}", csv.display());
            println!("wrote {}", json.display());
        }
        Err(e) => return fail(&e),
    }
    if let Some(traces) = traces {
        match write_trace_reports(&result, &traces, &out_dir) {
            Ok(dir) => {
                let offered: u64 = traces.iter().map(|t| t.recorder.spans_offered()).sum();
                let recorded: u64 = traces.iter().map(|t| t.recorder.spans_recorded()).sum();
                let loss = if recorded < offered {
                    format!(", {recorded} retained after sampling")
                } else {
                    String::new()
                };
                println!(
                    "wrote {} ({} trace jobs, {offered} spans{loss}) — inspect with `voodb analyze {}`",
                    dir.display(),
                    traces.len(),
                    dir.display()
                );
            }
            Err(e) => return fail(&e),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_repro(args: &[String]) -> ExitCode {
    let (names, options, _) = match split_args(args, &["reps", "seed", "out", "threads"], &[]) {
        Ok(split) => split,
        Err(e) => return fail(&e),
    };
    if let Some(unknown) = names
        .iter()
        .find(|name| !ARTIFACTS.iter().any(|a| a.stem == **name))
    {
        let known: Vec<&str> = ARTIFACTS.iter().map(|a| a.stem).collect();
        return fail(&format!(
            "unknown artifact '{unknown}' (known: {})",
            known.join(", ")
        ));
    }
    let mut run_options = RunOptions::default();
    let mut out_dir = PathBuf::from(DEFAULT_OUT_DIR);
    for (name, raw) in options {
        let applied = apply_common_option(name, raw, &mut run_options, &mut out_dir);
        if let Err(e) = applied.expect("validated by split_args") {
            return fail(&e);
        }
    }
    // Table order, whatever the order on the command line.
    let selected = ARTIFACTS
        .iter()
        .filter(|a| names.is_empty() || names.contains(&a.stem));
    let mut done: Vec<Report> = Vec::new();
    for artifact in selected {
        let reports = match artifact.run(&run_options) {
            Ok(reports) => reports,
            Err(e) => return fail(&e),
        };
        for report in &reports {
            if artifact.job == JobKind::Figure {
                if let Err(e) = check_same_tendency(&report.result, 0.10) {
                    eprintln!(
                        "WARNING [{}]: tendency check failed: {e}",
                        report.result.scenario
                    );
                }
            }
            let table = sweep_table(&report.result);
            println!("{}", table.to_csv());
            match table.write(&out_dir, &report.stem) {
                Ok((csv, json)) => println!("wrote {} and {}\n", csv.display(), json.display()),
                Err(e) => return fail(&e),
            }
        }
        done.extend(reports);
        let note = artifact.note.lines(&done);
        if !note.is_empty() {
            println!("{}\n", note.join("\n"));
        }
    }
    ExitCode::SUCCESS
}

/// Drains watch samples to the terminal and/or a JSONL file until every
/// sender (per-job recorders plus the run's config) has been dropped.
/// Parallel jobs send in no fixed order, so samples go out in (job,
/// simulated time) order instead: job 0's as they arrive, every later
/// job's when the run is over. Returns the number of samples seen.
fn drain_watch(
    rx: std::sync::mpsc::Receiver<WatchSample>,
    mut jsonl: Option<std::fs::File>,
    terminal: bool,
) -> Result<usize, String> {
    let mut emit = |sample: &WatchSample| -> Result<(), String> {
        if terminal {
            println!(
                "watch job={} t={:.1}ms tps={:.1} p99={:.2}ms mpl_queue={:.0} hit={:.3}",
                sample.job,
                sample.t_ms,
                sample.throughput_tps,
                sample.p99_ms,
                sample.mpl_queue,
                sample.hit_ratio
            );
        }
        if let Some(file) = &mut jsonl {
            writeln!(file, "{}", watch_sample_json(sample).to_string_compact())
                .map_err(|e| format!("watch jsonl: {e}"))?;
        }
        Ok(())
    };
    // One job's samples arrive in its own simulated-time order.
    let mut later: BTreeMap<usize, Vec<WatchSample>> = BTreeMap::new();
    let mut samples = 0usize;
    for sample in rx {
        samples += 1;
        if sample.job == 0 {
            emit(&sample)?;
        } else {
            later.entry(sample.job).or_default().push(sample);
        }
    }
    later.values().flatten().try_for_each(emit)?;
    Ok(samples)
}

/// The `--watch-jsonl` line shape; `tests/cli_watch.rs` checks exactly
/// these fields.
fn watch_sample_json(sample: &WatchSample) -> Json {
    Json::Obj(vec![
        ("job".into(), Json::Num(sample.job as f64)),
        ("t_ms".into(), Json::Num(sample.t_ms)),
        ("throughput_tps".into(), Json::Num(sample.throughput_tps)),
        ("p99_ms".into(), Json::Num(sample.p99_ms)),
        ("mpl_queue".into(), Json::Num(sample.mpl_queue)),
        ("hit_ratio".into(), Json::Num(sample.hit_ratio)),
    ])
}

fn cmd_analyze(args: &[String]) -> ExitCode {
    let (dirs, _, _) = match split_args(args, &[], &[]) {
        Ok(split) => split,
        Err(e) => return fail(&e),
    };
    let [dir] = dirs[..] else {
        return fail("'analyze' takes exactly one trace directory");
    };
    match TraceAnalysis::load(Path::new(dir)) {
        Ok(analysis) => {
            print!("{}", analysis.render());
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let (dirs, options, _) = match split_args(args, &["threshold"], &[]) {
        Ok(split) => split,
        Err(e) => return fail(&e),
    };
    let [dir_a, dir_b] = dirs[..] else {
        return fail("'compare' takes exactly two trace directories");
    };
    let mut threshold = 0.10f64;
    for (name, raw) in options {
        match parse_opt::<f64>(name, raw) {
            Ok(v) if v >= 0.0 => threshold = v,
            Ok(_) => return fail("--threshold must be non-negative"),
            Err(e) => return fail(&e),
        }
    }
    let load_summary = |dir: &str| RunSummary::load(Path::new(dir));
    let (a, b) = match (load_summary(dir_a), load_summary(dir_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let report = vtrace::compare(&a, &b, threshold);
    print!("{}", report.render());
    if report.regressions > 0 {
        // Distinct from the generic-error exit code 1.
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// Prints the per-point summary table (headline metrics only; the full
/// metric set goes to the CSV/JSON reports).
fn print_summary(result: &scenario::SweepResult) {
    println!(
        "\n# {} (seed {}, {} replications, 95% CI)",
        result.scenario, result.seed, result.replications
    );
    println!(
        "{:<42} {:>12} {:>9} {:>12} {:>12}",
        "point", "ios", "±95%", "response_ms", "hit_ratio"
    );
    for point in &result.points {
        let metric = |name: &str| {
            point
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| (m.mean, m.half_width))
                .unwrap_or((f64::NAN, f64::NAN))
        };
        let (ios, ios_hw) = metric("ios");
        let (response, _) = metric("response_ms");
        let (hit, _) = metric("hit_ratio");
        println!(
            "{:<42} {:>12.1} {:>9.1} {:>12.2} {:>12.3}",
            point.label, ios, ios_hw, response, hit
        );
    }
    println!();
}

fn cmd_validate(args: &[String]) -> ExitCode {
    let (files, _, _) = match split_args(args, &[], &[]) {
        Ok(split) => split,
        Err(e) => return fail(&e),
    };
    if files.is_empty() {
        return fail("'validate' needs at least one scenario file");
    }
    for file in files {
        match load(file) {
            Ok(scenario) => {
                let grid = scenario.grid().len();
                println!(
                    "{file}: OK — '{}', {} ax{}, {grid} point{}, {} replications",
                    scenario.name,
                    scenario.sweep.len(),
                    if scenario.sweep.len() == 1 {
                        "is"
                    } else {
                        "es"
                    },
                    if grid == 1 { "" } else { "s" },
                    scenario.replications,
                );
            }
            Err(e) => return fail(&e),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_audit(args: &[String]) -> ExitCode {
    let (positionals, options, flags) = match split_args(args, &["root"], &["json"]) {
        Ok(split) => split,
        Err(e) => return fail(&e),
    };
    if !positionals.is_empty() {
        return fail("'audit' takes no positional arguments (use --root)");
    }
    let root = options
        .iter()
        .find(|(name, _)| *name == "root")
        .map(|(_, v)| Path::new(*v))
        .unwrap_or(Path::new("."));
    match audit::audit_workspace(root) {
        Ok(report) => {
            // A wrong --root would otherwise report a vacuous "clean";
            // the CI gate must never pass on an empty scan.
            if report.files_scanned == 0 {
                return fail(&format!(
                    "audit: no .rs files found under '{}' — wrong --root?",
                    root.display()
                ));
            }
            if flags.contains(&"json") {
                println!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                // Distinct from the generic-error exit code 1, like
                // `compare`'s regression exit.
                ExitCode::from(2)
            }
        }
        Err(e) => fail(&format!("audit: {e}")),
    }
}

fn cmd_list(args: &[String]) -> ExitCode {
    let (positionals, options, _) = match split_args(args, &["dir"], &[]) {
        Ok(split) => split,
        Err(e) => return fail(&e),
    };
    if !positionals.is_empty() {
        return fail("'list' takes no positional arguments (use --dir)");
    }
    let dir = options
        .iter()
        .find(|(name, _)| *name == "dir")
        .map(|(_, v)| Path::new(*v))
        .unwrap_or(Path::new("scenarios"));
    match library_listing(dir) {
        Ok(listing) => {
            print!("{listing}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}
