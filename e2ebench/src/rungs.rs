//! Layer rungs: single layers timed in isolation at workload-matched
//! inputs, for the traced runs.
//!
//! * the `desp` scheduler hold pattern at 3, 1k and 1M pending events for
//!   the calendar queue, the heap and the timer wheel;
//! * `AdmissionRing` push/pop at `users_1m` depth;
//! * `bufmgr::BufferPool` per replacement policy on `fig8_o2_cache`'s
//!   page-reference string;
//! * the `scenario` parser and report writers, and the `vtrace` recorder
//!   overhead on the `fig8_o2_cache` sweep;
//! * for workloads whose jobs never reorganise (or have no engine twin),
//!   the clustering and engine calls on the workload's own base and
//!   stream, so every layer is priced on every workload.

use crate::harness::{median, Tracer};
use crate::workloads::{generate_run, Grid, WORKLOADS};
use bufmgr::{BufferPool, PageId, PolicyKind};
use desp::{CalendarQueue, EventHeap, RandomStream, Scheduler, SimTime, TimerWheel};
use ocb::{ObjectBase, Transaction};
use oostore::{run_workload, PageServerConfig, PageServerEngine, TexasConfig, TexasEngine};
use scenario::{sweep_table, RunOptions, Scenario, SweepResult};
use std::hint::black_box;
use std::time::Instant;
use voodb::{
    AdmissionRing, BufferingManager, ClusteringManager, IoSubsystem, ObjectManager, PendingArrival,
};

/// Mean hold of the scheduler rung, in simulated ms (a tight hold, as in
/// the `schedbench` "hold" regime).
const HOLD_MEAN_MS: f64 = 1.11;
/// Pop/push pairs per hold measurement.
const HOLD_OPS: usize = 1_000_000;
/// The scheduler populations of the hold rung.
const HOLD_PENDING: [(&str, usize); 3] = [("p3", 3), ("p1k", 1_000), ("p1m", 1_000_000)];

/// ns per pop+push pair of the hold pattern on scheduler `S` with
/// `pending` events queued.
fn hold_ns<S: Scheduler<u64>>(pending: usize, seed: u64) -> f64 {
    let mut queue = S::default();
    let mut rng = RandomStream::new(seed);
    for i in 0..pending as u64 {
        queue.push(SimTime::from_ms(rng.expo(HOLD_MEAN_MS)), i);
    }
    let mut sink = 0u64;
    let start = Instant::now();
    for i in 0..HOLD_OPS as u64 {
        let (time, event) = queue.pop().expect("the hold keeps the queue populated");
        sink = sink.wrapping_add(event);
        queue.push(SimTime::from_ms(time.as_ms() + rng.expo(HOLD_MEAN_MS)), i);
    }
    let ns = start.elapsed().as_nanos() as f64 / HOLD_OPS as f64;
    black_box(sink);
    ns
}

/// `(metric name, ns per hold)` for every scheduler and population.
pub fn hold_rung(seed: u64) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (label, pending) in HOLD_PENDING {
        out.push((
            format!("desp.hold_ns.calendar.{label}"),
            hold_ns::<CalendarQueue<u64>>(pending, seed),
        ));
        out.push((
            format!("desp.hold_ns.heap.{label}"),
            hold_ns::<EventHeap<u64>>(pending, seed),
        ));
        out.push((
            format!("desp.hold_ns.wheel.{label}"),
            hold_ns::<TimerWheel<u64>>(pending, seed),
        ));
    }
    out
}

/// ns per ring operation: fill to `depth` (the `users_1m` backlog of
/// users minus MPL), cycle `depth` pop+push pairs, drain.
pub fn admission_rung(depth: usize) -> f64 {
    let mut ring = AdmissionRing::new();
    let entry = |i: usize| PendingArrival {
        cohort: (i % 7) as u32,
        submitted: SimTime::from_ms(i as f64),
    };
    let start = Instant::now();
    for i in 0..depth {
        ring.push_back(entry(i));
    }
    for i in 0..depth {
        let front = ring.pop_front().expect("ring filled");
        ring.push_back(entry(i + front.cohort as usize));
    }
    let mut drained = 0usize;
    while let Some(front) = ring.pop_front() {
        drained += front.cohort as usize;
    }
    let ns = start.elapsed().as_nanos() as f64 / (4 * depth) as f64;
    black_box(drained);
    assert_eq!(ring.high_water(), depth, "the ring held the whole backlog");
    ns
}

/// `fig8_o2_cache`'s page-reference string at its 16 MB point, first
/// replication: `(frames, [(page, write)])`.
fn fig8_reference_string(seed: u64) -> Result<(usize, Vec<(PageId, bool)>), String> {
    let grid = Grid::new(&WORKLOADS[0], seed)?;
    let point = (0..grid.points.len())
        .find(|&p| grid.knob_mb(p) == 16)
        .ok_or("fig8_o2_cache has no 16 MB point")?;
    let base = ObjectBase::generate(&grid.points[point].config.database, grid.base_seed(point));
    let system = grid.system(point);
    let placement = system.initial_placement.build(&base, system.page_size);
    let (_, job_seed) = grid.job_seed(0, point * grid.workload.reps);
    let (transactions, _) = generate_run(&base, grid.workload_params(point), job_seed);
    let refs = transactions
        .iter()
        .flat_map(|t| t.accesses.iter())
        .map(|a| (placement.page_of(a.oid), a.write))
        .collect();
    Ok((system.buffer_pages, refs))
}

/// `(metric name, ns per BufferPool::access)` per replacement policy.
///
/// # Errors
/// When the fig8 grid cannot be built.
pub fn policy_rung(seed: u64) -> Result<Vec<(String, f64)>, String> {
    let (frames, refs) = fig8_reference_string(seed)?;
    let passes = 2_000_000usize.div_ceil(refs.len().max(1));
    let policies = [
        ("lru", PolicyKind::Lru),
        ("fifo", PolicyKind::Fifo),
        ("clock", PolicyKind::Clock),
        ("lfu", PolicyKind::Lfu),
        ("lru2", PolicyKind::LruK { k: 2 }),
        ("random", PolicyKind::Random { seed: 0xBEEF }),
    ];
    Ok(policies
        .into_iter()
        .map(|(name, kind)| {
            let start = Instant::now();
            let mut hits = 0u64;
            for _ in 0..passes {
                let mut pool = BufferPool::new(frames, kind);
                for &(page, write) in &refs {
                    hits += u64::from(pool.access(page, write).is_hit());
                }
            }
            let ns = start.elapsed().as_nanos() as f64 / (passes * refs.len()) as f64;
            black_box(hits);
            (format!("bufmgr.policy_ns.{name}"), ns)
        })
        .collect())
}

/// Median ms per parse of a workload's scenario text.
///
/// # Errors
/// When the text does not parse.
pub fn parse_ms(text: &str) -> Result<f64, String> {
    let mut samples = Vec::new();
    for _ in 0..201 {
        let start = Instant::now();
        black_box(Scenario::parse(black_box(text))?);
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&samples))
}

/// Median ms to render a sweep result as the CSV and JSON reports.
pub fn report_ms(result: &SweepResult) -> f64 {
    let samples: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            let table = sweep_table(black_box(result));
            black_box((table.to_csv(), table.to_json()));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Recorder overhead of `voodb run --trace` on the `fig8_o2_cache`
/// sweep (one replication per point), in %: `run_sweep_traced` against
/// `run_sweep` after one warm-up sweep, in untraced/traced/traced/
/// untraced cycles so linear drift cancels, as the median of the
/// cycles' paired ratios. Also checks that tracing left the sweep's
/// report unchanged.
///
/// # Errors
/// When the sweep fails or tracing changed its results.
pub fn vtrace_overhead_pct(seed: u64, workers: usize) -> Result<f64, String> {
    const CYCLES: usize = 3;
    let scenario = Scenario::parse(WORKLOADS[0].toml)?;
    let options = RunOptions {
        threads: Some(workers),
        reps: Some(1),
        seed: Some(seed),
        ..RunOptions::default()
    };
    let sweep = |traced: bool| -> Result<(f64, String), String> {
        let start = Instant::now();
        let result = if traced {
            let (result, traces) = scenario::run_sweep_traced(&scenario, &options)?;
            black_box(traces);
            result
        } else {
            scenario::run_sweep(&scenario, &options)?
        };
        Ok((start.elapsed().as_secs_f64(), sweep_table(&result).to_csv()))
    };
    let (_, reference) = sweep(false)?;
    let mut ratios = Vec::with_capacity(CYCLES);
    for _ in 0..CYCLES {
        let mut secs = [0.0; 2];
        for traced in [false, true, true, false] {
            let (elapsed, csv) = sweep(traced)?;
            if csv != reference {
                return Err("run_sweep_traced changed the fig8_o2_cache sweep results".into());
            }
            secs[usize::from(traced)] += elapsed;
        }
        ratios.push(secs[1] / secs[0]);
    }
    Ok((median(&ratios) - 1.0) * 100.0)
}

/// For workloads whose jobs never reorganise: a DSTC reorganisation (the
/// `texas_dstc_2pl` clustering parameters) through the model's
/// Clustering Manager and through the Texas engine, after observing the
/// workload's own stream on its first point's base. Spans `cman.reorg`
/// and `oostore.reorg`.
///
/// # Errors
/// When the texas grid cannot be built.
pub fn reorg_rung(
    grid: &Grid,
    base: &ObjectBase,
    transactions: &[Transaction],
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let dstc = Grid::new(&WORKLOADS[2], seed)?.system(0).clustering;
    let system = grid.system(0);
    let placement = system.initial_placement.build(base, system.page_size);
    let mut oman = ObjectManager::new(&placement);
    let mut cman = ClusteringManager::new(&dstc);
    for access in transactions.iter().flat_map(|t| t.accesses.iter()) {
        cman.observe(access.parent, access.oid);
    }
    let mut bman = BufferingManager::standard(system.buffer_pages.max(2), system.page_replacement);
    let mut iosub = IoSubsystem::new(system.disk);
    tracer.span("cman.reorg", None, || {
        cman.reorganize(base, &mut oman, &mut bman, &mut iosub)
    });

    let mut config = TexasConfig::with_memory_mb(64);
    config.clustering = dstc;
    let mut engine = TexasEngine::new(base, config);
    run_workload(&mut engine, transactions);
    tracer.span("oostore.reorg", None, || engine.reorganize());
    Ok(())
}

/// For workloads without an engine twin: the page-server engine, sized
/// like the model's buffer, built over the workload's base and run on its
/// own stream. Spans `oostore.build` and `oostore.run`.
pub fn engine_run_rung(
    grid: &Grid,
    base: &ObjectBase,
    transactions: &[Transaction],
    tracer: &mut Tracer,
) {
    let config = PageServerConfig {
        buffer_pages: grid.system(0).buffer_pages.max(8),
        ..PageServerConfig::with_cache_mb(1)
    };
    let mut engine = tracer.span("oostore.build", None, || {
        PageServerEngine::new(base, config)
    });
    tracer.span("oostore.run", None, || {
        run_workload(&mut engine, transactions)
    });
}
