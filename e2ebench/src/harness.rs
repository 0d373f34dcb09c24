//! Measurement plumbing: the closed-batch job pool, the in-memory span
//! recorder, and the order statistics the metrics are reported with.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished job of a batch.
pub struct JobRun<T> {
    /// The job's output, or why it failed (a failed check or a panic).
    pub out: Result<T, String>,
    /// Host time of the job alone, in ms.
    pub host_ms: f64,
}

/// Runs jobs `0..jobs` as one closed batch on `workers` threads: each
/// worker takes the next job index when its previous job finishes, and
/// every job is timed on its own. Results come back in job order, so
/// anything derived from them is independent of the thread count.
pub fn run_batch<T, F>(jobs: usize, workers: usize, job: F) -> Vec<JobRun<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T, String> + Sync,
{
    let slots: Vec<Mutex<Option<JobRun<T>>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, jobs.max(1)) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= jobs {
                    break;
                }
                let start = Instant::now();
                let out = catch_unwind(AssertUnwindSafe(|| job(index)))
                    .unwrap_or_else(|panic| Err(panic_message(panic.as_ref())));
                let host_ms = start.elapsed().as_secs_f64() * 1e3;
                *slots[index].lock().expect("job slot poisoned") = Some(JobRun { out, host_ms });
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("job slot poisoned")
                .expect("every job ran")
        })
        .collect()
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let text = panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    format!("panicked: {text}")
}

/// One recorded span: a call into a layer, timed from the benchmark.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`bman.access`, `model.phase`, ...).
    pub name: &'static str,
    /// Job index within the round; `usize::MAX` for set-up and rungs.
    pub job: usize,
    /// Identifier, unique within `job`.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Start and end, ns since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span id of "no span" for disabled tracers.
const NO_SPAN: u32 = u32::MAX;

/// Records spans in memory. A disabled tracer runs the closures and
/// records nothing, so traced and untraced code paths are the same code.
pub struct Tracer {
    epoch: Instant,
    job: usize,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, job: usize, enabled: bool) -> Self {
        Tracer {
            epoch,
            job,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job: self.job,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        if self.enabled {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span with no children.
    pub fn span<R>(&mut self, name: &'static str, parent: Option<u32>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name: each span's duration minus the part its
/// children's durations cover, summed by name, in ms. Children may run
/// after their parent closed (replays), so this subtracts durations, not
/// interval overlaps.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64, f64, usize)> {
    let mut child_ms = std::collections::HashMap::<(usize, u32), f64>::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *child_ms.entry((span.job, parent)).or_default() += span.ms();
        }
    }
    let mut by_name = std::collections::BTreeMap::<&'static str, (f64, f64, usize)>::new();
    for span in spans {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += span.ms();
        entry.1 += span.ms() - child_ms.get(&(span.job, span.id)).copied().unwrap_or(0.0);
        entry.2 += 1;
    }
    by_name
        .into_iter()
        .map(|(name, (total, own, count))| (name, total, own, count))
        .collect()
}

/// Writes spans as JSON lines. Span ids are unique within one group
/// (one job's spans, or one round's set-up spans), so each line carries
/// its group's index.
///
/// # Errors
/// Returns the I/O error.
pub fn write_spans_jsonl(path: &std::path::Path, groups: &[&[Span]]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (group, span) in groups
        .iter()
        .enumerate()
        .flat_map(|(g, spans)| spans.iter().map(move |s| (g, s)))
    {
        let job = if span.job == usize::MAX {
            "null".to_owned()
        } else {
            span.job.to_string()
        };
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"group\":{group},\"name\":\"{}\",\"job\":{job},\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            span.name, span.id, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it:
/// `(value, percentile, samples)`. With `n` samples that is the
/// nearest-rank value of rank `n - 10`; with ten or fewer samples no
/// such percentile exists and it falls back to the maximum.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "tail of nothing");
    let rank = if n > 10 { n - 10 } else { n };
    (sorted[rank - 1], 100.0 * rank as f64 / n as f64, n)
}

/// Peak resident set of this process in MB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .and_then(|line| line.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Host speed probe: a fixed integer kernel that shares no code with the
/// measured program, run on `workers` threads at once (as the jobs run),
/// returning its wall time in s. On a shared host the machine's speed
/// drifts by 10-25% between runs minutes apart; this kernel's time moves
/// with it. (A pointer chase over 32 MB tracked the workloads no better.)
pub fn calibrate(workers: usize) -> f64 {
    const STEPS: u64 = 5_000_000;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..workers as u64 {
            scope.spawn(move || {
                let mut x = 0x1234_5678 + worker;
                let mut acc = 0u64;
                for _ in 0..STEPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    acc = acc.wrapping_add(x.wrapping_mul(0x9E37));
                    if acc & 1 == 0 {
                        acc ^= x >> 3;
                    }
                }
                std::hint::black_box(acc);
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// FNV-1a, 64-bit: the digest of simulated results. Stable across
/// builds and platforms, unlike `std`'s randomly keyed hasher.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&values);
        assert_eq!((value, pct, n), (90.0, 90.0, 100));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0, 3));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn batch_keeps_job_order_and_catches_panics() {
        let runs = run_batch(6, 2, |i| {
            assert!(i != 4, "job four fails");
            Ok(i * 10)
        });
        let outs: Vec<_> = runs.iter().map(|r| r.out.clone()).collect();
        assert_eq!(outs[3], Ok(30));
        assert!(outs[4].as_ref().unwrap_err().contains("job four fails"));
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |id, parent: Option<u32>, start_ns, end_ns| Span {
            name: if parent.is_some() { "child" } else { "parent" },
            job: 0,
            id,
            parent,
            start_ns,
            end_ns,
        };
        let spans = [
            span(0, None, 0, 10_000_000),
            span(1, Some(0), 12_000_000, 15_000_000),
        ];
        let times = self_times(&spans);
        assert_eq!(times[1], ("parent", 10.0, 7.0, 1));
    }
}
