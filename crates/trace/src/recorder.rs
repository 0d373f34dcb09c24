//! The recording probe: assembles transaction lifecycle spans and feeds
//! the latency histograms and time-series samplers.
//!
//! A [`TraceRecorder`] plugs into `desp::Engine::with_probe` and
//! receives every kernel hook and model emission:
//!
//! * [`SpanPoint`] streams keyed by (slab slot, serial) are folded into
//!   [`SpanRecord`]s — one per committed transaction, splitting the
//!   response time into admission wait, lock wait, CPU, disk wait, disk
//!   service and network time;
//! * per-stage [`Histogram`]s accumulate the same durations across
//!   spans (the p50/p90/p99 tables of `voodb analyze`);
//! * resource waits and model samples land in handle-indexed histograms
//!   and bounded [`TimeSeries`] — names are interned once per phase via
//!   [`Probe::intern_series`]/[`Probe::intern_resource`], so the hot
//!   path never touches a string key;
//! * dispatch/schedule counts measure raw engine activity, with the
//!   pending-event count sampled once every
//!   [`TraceRecorder::DISPATCH_SAMPLE_EVERY`] dispatches (configurable
//!   via [`RecorderConfig::dispatch_sample_every`]).
//!
//! # v2 architecture
//!
//! Two span encodings share one open-span table:
//!
//! * **Lifecycle points** ([`Probe::on_span`]): `Submit` opens a span,
//!   `Committed` finalizes it, `Restart` counts and clears in-flight
//!   marks — and the full `Request`/`Start`/`End` point pairs still
//!   fold (the v1 wire format; external models and the unit tests
//!   use it unchanged).
//! * **Valued stages** ([`Probe::on_span_stage`]): a model that knows
//!   both endpoints of a stage emits one accumulated delta instead of
//!   a point pair — one hook call and one `+=` where the point stream
//!   needed two or three calls and an `Option` state machine. This is
//!   what the VOODB model emits on its per-access hot path.
//!
//! Both encodings fold *eagerly* — each hook updates the open span in
//! place, no buffering — into a dense slot-indexed table (the kernel
//! hands us the slab slot), tagged with the transaction serial so a
//! recycled slot can never corrupt a stale span.
//!
//! Spans route to shards by `serial & (shards − 1)`. Committed records
//! land in one *global* list in commit order, so shard count never
//! perturbs span export order, and per-shard stage histograms merge
//! (order-invariantly — bucket counts are integers) at
//! [`TraceRecorder::flush`]. With the default single shard the recorder
//! is byte-compatible with v1 output; above one shard only the
//! floating-point `sum`/mean of a stage histogram may differ in the
//! last ulp (the merge adds partial sums in shard order), never the
//! percentiles.
//!
//! Optional [reservoir sampling](RecorderConfig::sample) bounds the
//! retained raw records with *reported* loss: histograms still see
//! every span ([`TraceRecorder::spans_offered`] vs
//! [`TraceRecorder::spans_recorded`]), so percentile tables stay exact.
//!
//! Recording never perturbs the simulation: the recorder only observes,
//! so a traced replication produces bit-identical results to an
//! untraced one (asserted by the scenario-runner tests at 1, 2 and 8
//! shards).
//!
//! [`Probe::intern_series`]: desp::Probe::intern_series
//! [`Probe::intern_resource`]: desp::Probe::intern_resource
//! [`Probe::on_span`]: desp::Probe::on_span
//! [`RecorderConfig::dispatch_sample_every`]: crate::RecorderConfig::dispatch_sample_every
//! [`RecorderConfig::sample`]: crate::RecorderConfig::sample

use crate::config::RecorderConfig;
use crate::hist::Histogram;
use crate::series::TimeSeries;
use crate::watch::{WatchSample, WatchSink};
use desp::{Probe, ResourceId, SeriesId, SpanPoint, SpanStage};
use std::collections::BTreeMap;

/// One committed transaction's lifecycle, in simulated milliseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanRecord {
    /// Transaction id (unique within one phase).
    pub tid: u64,
    /// Submission instant.
    pub submit_ms: f64,
    /// Commit instant.
    pub end_ms: f64,
    /// End-to-end response time (`end − submit`).
    pub response_ms: f64,
    /// Wait for an MPL scheduler slot.
    pub admission_wait_ms: f64,
    /// Total time parked waiting for locks.
    pub lock_wait_ms: f64,
    /// Total CPU holding time (lock acquisition/release bookkeeping).
    pub cpu_ms: f64,
    /// Total wait for the disk resource.
    pub disk_wait_ms: f64,
    /// Total disk service time.
    pub disk_service_ms: f64,
    /// Total wait for the network resource.
    pub net_wait_ms: f64,
    /// Total network transfer time.
    pub net_service_ms: f64,
    /// Object accesses performed.
    pub accesses: u64,
    /// Deadlock restarts suffered.
    pub restarts: u64,
}

/// In-flight span state; folded into a [`SpanRecord`] on `Committed`.
#[derive(Clone, Debug, Default)]
struct OpenSpan {
    record: SpanRecord,
    admitted: bool,
    lock_req: Option<f64>,
    cpu_start: Option<f64>,
    disk_req: Option<f64>,
    disk_start: Option<f64>,
    net_req: Option<f64>,
    net_start: Option<f64>,
}

/// One slot of a shard's open-span table. The table is indexed by slab
/// slot; `serial` tags the occupant so a stale point for a previous
/// occupant of the same slot is dropped, not misfolded.
#[derive(Clone, Debug, Default)]
struct OpenSlot {
    occupied: bool,
    serial: u64,
    span: OpenSpan,
}

/// One span shard: the open-span table plus the stage histograms its
/// commits feed.
#[derive(Clone, Debug)]
struct Shard {
    open: Vec<OpenSlot>,
    open_count: usize,
    /// Indexed in [`STAGE_METRICS`] order.
    stage_hists: [Histogram; STAGE_METRICS.len()],
}

impl Shard {
    fn new() -> Self {
        Shard {
            open: Vec::new(),
            open_count: 0,
            stage_hists: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

/// Reservoir-sampling state (Algorithm R over commit order).
#[derive(Clone, Debug)]
struct Reservoir {
    cap: usize,
    rng: u64,
}

/// Live-watch state: emission cadence and inter-sample deltas.
#[derive(Clone, Debug)]
struct WatchState {
    sink: WatchSink,
    next_due_ms: f64,
    job: usize,
    commits: u64,
    last_commits: u64,
    last_t_ms: f64,
}

/// A named resource's wait histogram plus its pre-interned
/// `queue:<name>` series handle.
#[derive(Clone, Debug)]
struct ResourceEntry {
    wait_hist: Histogram,
    queue_series: u32,
}

/// The per-stage histogram names, in report order. Each is a field of
/// [`SpanRecord`]; `stage_of` maps records to values.
pub const STAGE_METRICS: &[&str] = &[
    "response_ms",
    "admission_wait_ms",
    "lock_wait_ms",
    "cpu_ms",
    "disk_wait_ms",
    "disk_service_ms",
    "net_wait_ms",
    "net_service_ms",
];

/// Extracts the named stage duration from a span record.
///
/// # Panics
/// Panics on a name outside [`STAGE_METRICS`].
pub fn stage_of(record: &SpanRecord, metric: &str) -> f64 {
    match metric {
        "response_ms" => record.response_ms,
        "admission_wait_ms" => record.admission_wait_ms,
        "lock_wait_ms" => record.lock_wait_ms,
        "cpu_ms" => record.cpu_ms,
        "disk_wait_ms" => record.disk_wait_ms,
        "disk_service_ms" => record.disk_service_ms,
        "net_wait_ms" => record.net_wait_ms,
        "net_service_ms" => record.net_service_ms,
        other => panic!("unknown stage metric '{other}'"),
    }
}

/// The stage values of a record, in [`STAGE_METRICS`] order.
fn stage_values(record: &SpanRecord) -> [f64; STAGE_METRICS.len()] {
    [
        record.response_ms,
        record.admission_wait_ms,
        record.lock_wait_ms,
        record.cpu_ms,
        record.disk_wait_ms,
        record.disk_service_ms,
        record.net_wait_ms,
        record.net_service_ms,
    ]
}

/// A recording [`Probe`]: spans, histograms, series and counters.
/// Built by [`RecorderConfig`]; call [`TraceRecorder::flush`] after the
/// run (the scenario runner does) before reading merged histograms.
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    shards: Vec<Shard>,
    /// `shards.len() - 1`; shard routing is `serial & shard_mask`.
    shard_mask: u64,
    /// Committed spans in commit order — global across shards (every
    /// point folds eagerly), so shard count never affects export order.
    finished: Vec<SpanRecord>,
    /// Handle-indexed series storage; `series_index` maps names.
    series: Vec<TimeSeries>,
    series_index: BTreeMap<String, u32>,
    series_capacity: usize,
    /// Handle-indexed resource wait histograms + queue series.
    resources: Vec<ResourceEntry>,
    resource_index: BTreeMap<String, u32>,
    /// Pre-interned handle for the engine's `pending_events` series.
    pending_events_series: u32,
    events_dispatched: u64,
    events_scheduled: u64,
    dispatch_sample_every: u64,
    /// Countdown to the next `pending_events` sample — a decrement
    /// per dispatch instead of a runtime modulo on the hot path.
    sample: Option<Reservoir>,
    /// Spans finalized (committed), whether or not retained.
    spans_offered: u64,
    watch: Option<WatchState>,
    /// Exact response-time histogram feeding the watch p99 (recorded
    /// only while a watch sink is attached).
    watch_response: Histogram,
    /// Stage histograms merged across shards by [`TraceRecorder::flush`].
    merged_stage_hists: BTreeMap<String, Histogram>,
    flushed: bool,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        RecorderConfig::new().build()
    }
}

impl TraceRecorder {
    /// `pending_events` is sampled once per this many dispatches (the
    /// default; see [`RecorderConfig::dispatch_sample_every`]).
    pub const DISPATCH_SAMPLE_EVERY: u64 = 64;

    pub(crate) fn from_config(
        shards: usize,
        sample: Option<usize>,
        sample_seed: u64,
        series_capacity: usize,
        dispatch_sample_every: u64,
        watch: Option<WatchSink>,
        job: usize,
    ) -> Self {
        debug_assert!(shards.is_power_of_two());
        let mut recorder = TraceRecorder {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            shard_mask: shards as u64 - 1,
            finished: Vec::new(),
            series: Vec::new(),
            series_index: BTreeMap::new(),
            series_capacity,
            resources: Vec::new(),
            resource_index: BTreeMap::new(),
            pending_events_series: 0,
            events_dispatched: 0,
            events_scheduled: 0,
            dispatch_sample_every,
            sample: sample.map(|cap| Reservoir {
                cap,
                rng: sample_seed,
            }),
            spans_offered: 0,
            watch: watch.map(|sink| WatchState {
                next_due_ms: sink.interval_ms,
                sink,
                job,
                commits: 0,
                last_commits: 0,
                last_t_ms: 0.0,
            }),
            watch_response: Histogram::new(),
            merged_stage_hists: BTreeMap::new(),
            flushed: false,
        };
        recorder.pending_events_series = recorder.intern_series_id("pending_events");
        recorder
    }

    /// Committed spans, in commit order. Under
    /// [sampling](RecorderConfig::sample) this is the retained
    /// reservoir; see [`TraceRecorder::spans_offered`] for the loss.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.finished
    }

    /// Transactions submitted but not yet committed (non-empty only when
    /// a run was cut short).
    pub fn open_spans(&self) -> usize {
        self.shards.iter().map(|s| s.open_count).sum()
    }

    /// Spans finalized during the run, retained or not. Equal to
    /// `spans().len()` unless sampling is on.
    pub fn spans_offered(&self) -> u64 {
        self.spans_offered
    }

    /// Raw span records retained (`spans().len()`); the sampling loss is
    /// `spans_offered() − spans_recorded()`.
    pub fn spans_recorded(&self) -> u64 {
        self.finished.len() as u64
    }

    /// The per-stage histograms ([`STAGE_METRICS`] keys; a stage no span
    /// exercised has count 0), merged across shards. Requires a prior
    /// [`TraceRecorder::flush`].
    pub fn stage_histograms(&self) -> &BTreeMap<String, Histogram> {
        debug_assert!(self.flushed, "flush() before reading stage histograms");
        &self.merged_stage_hists
    }

    /// Queueing-delay histogram for one resource name.
    pub fn resource_wait_named(&self, name: &str) -> Option<&Histogram> {
        self.resource_index
            .get(name)
            .map(|&i| &self.resources[i as usize].wait_hist)
    }

    /// All resource wait histograms, sorted by name.
    pub fn resource_waits_sorted(&self) -> Vec<(&str, &Histogram)> {
        self.resource_index
            .iter()
            .map(|(name, &i)| (name.as_str(), &self.resources[i as usize].wait_hist))
            .collect()
    }

    /// The recorded time series with the given name.
    pub fn series_named(&self, name: &str) -> Option<&TimeSeries> {
        self.series_index
            .get(name)
            .map(|&i| &self.series[i as usize])
    }

    /// All recorded time series, sorted by name.
    pub fn series_sorted(&self) -> Vec<(&str, &TimeSeries)> {
        self.series_index
            .iter()
            .map(|(name, &i)| (name.as_str(), &self.series[i as usize]))
            .collect()
    }

    /// Number of span shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Events dispatched while recording.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Events scheduled while recording.
    pub fn events_scheduled(&self) -> u64 {
        self.events_scheduled
    }

    /// Merges the per-shard stage histograms (shard index order) and
    /// closes the watch stream. Idempotent; called by the scenario
    /// runner after each job. New span activity after a flush re-arms
    /// it.
    pub fn flush(&mut self) {
        if self.flushed {
            return;
        }
        let mut merged = BTreeMap::new();
        for (i, &metric) in STAGE_METRICS.iter().enumerate() {
            let mut hist = Histogram::new();
            for shard in &self.shards {
                hist.merge(&shard.stage_hists[i]);
            }
            merged.insert(metric.to_owned(), hist);
        }
        self.merged_stage_hists = merged;
        // Dropping the sender ends the watcher's drain loop.
        self.watch = None;
        self.flushed = true;
    }

    /// Interns a series name, creating the series on first sight.
    fn intern_series_id(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.series_index.get(name) {
            return i;
        }
        let i = self.series.len() as u32;
        self.series
            .push(TimeSeries::with_capacity(name, self.series_capacity));
        self.series_index.insert(name.to_owned(), i);
        i
    }

    /// Latest offered value of a named series (0.0 when absent).
    fn series_current(&self, name: &str) -> f64 {
        self.series_named(name).map_or(0.0, TimeSeries::current)
    }

    /// Folds one span point into its shard's open-span table; the fold
    /// semantics match the v1 recorder exactly (only `Submit` opens a
    /// span; points for an absent or mismatched occupant are dropped).
    fn apply(&mut self, s: usize, slot: usize, serial: u64, point: SpanPoint, now: f64) {
        if point == SpanPoint::Submit {
            let shard = &mut self.shards[s];
            if shard.open.len() <= slot {
                shard.open.resize_with(slot + 1, OpenSlot::default);
            }
            let entry = &mut shard.open[slot];
            if !entry.occupied {
                shard.open_count += 1;
            }
            entry.occupied = true;
            entry.serial = serial;
            entry.span = OpenSpan::default();
            entry.span.record.submit_ms = now;
            return;
        }
        if point == SpanPoint::Committed {
            let record = {
                let shard = &mut self.shards[s];
                let Some(entry) = shard.open.get_mut(slot) else {
                    return; // Committed without Submit: nothing recorded.
                };
                if !entry.occupied || entry.serial != serial {
                    return;
                }
                entry.occupied = false;
                shard.open_count -= 1;
                let mut open = std::mem::take(&mut entry.span);
                // Close a CPU hold the model did not bracket
                // (commit-time releases schedule Committed directly).
                if let Some(start) = open.cpu_start.take() {
                    open.record.cpu_ms += now - start;
                }
                let mut record = open.record;
                record.tid = serial;
                record.end_ms = now;
                record.response_ms = now - record.submit_ms;
                for (hist, value) in shard.stage_hists.iter_mut().zip(stage_values(&record)) {
                    hist.record(value);
                }
                record
            };
            self.offer(record, now);
            return;
        }
        let shard = &mut self.shards[s];
        let Some(entry) = shard.open.get_mut(slot) else {
            return;
        };
        if !entry.occupied || entry.serial != serial {
            return;
        }
        let span = &mut entry.span;
        match point {
            SpanPoint::Submit | SpanPoint::Committed => unreachable!("handled above"),
            SpanPoint::Admitted => {
                if !span.admitted {
                    span.admitted = true;
                    span.record.admission_wait_ms = now - span.record.submit_ms;
                }
            }
            SpanPoint::LockRequest => span.lock_req = Some(now),
            SpanPoint::LockGranted => {
                if let Some(at) = span.lock_req.take() {
                    span.record.lock_wait_ms += now - at;
                }
            }
            SpanPoint::CpuStart => span.cpu_start = Some(now),
            SpanPoint::CpuEnd => {
                if let Some(at) = span.cpu_start.take() {
                    span.record.cpu_ms += now - at;
                }
            }
            SpanPoint::DiskRequest => span.disk_req = Some(now),
            SpanPoint::DiskStart => {
                if let Some(at) = span.disk_req.take() {
                    span.record.disk_wait_ms += now - at;
                }
                span.disk_start = Some(now);
            }
            SpanPoint::DiskEnd => {
                if let Some(at) = span.disk_start.take() {
                    span.record.disk_service_ms += now - at;
                }
            }
            SpanPoint::NetRequest => span.net_req = Some(now),
            SpanPoint::NetStart => {
                if let Some(at) = span.net_req.take() {
                    span.record.net_wait_ms += now - at;
                }
                span.net_start = Some(now);
            }
            SpanPoint::NetEnd => {
                if let Some(at) = span.net_start.take() {
                    span.record.net_service_ms += now - at;
                }
            }
            SpanPoint::AccessDone => span.record.accesses += 1,
            SpanPoint::Restart => {
                span.record.restarts += 1;
                // The victim dropped everything it held or waited for.
                span.lock_req = None;
                span.cpu_start = None;
                span.disk_req = None;
                span.disk_start = None;
                span.net_req = None;
                span.net_start = None;
            }
        }
    }

    /// Offers one finalized record to the retained list (or reservoir)
    /// and ticks the watch stream.
    fn offer(&mut self, record: SpanRecord, now: f64) {
        self.spans_offered += 1;
        let response_ms = record.response_ms;
        match &mut self.sample {
            None => self.finished.push(record),
            Some(res) => {
                // Algorithm R: uniform over the commits seen so far.
                if self.finished.len() < res.cap {
                    self.finished.push(record);
                } else if res.cap > 0 {
                    let j = splitmix_next(&mut res.rng) % self.spans_offered;
                    if (j as usize) < res.cap {
                        self.finished[j as usize] = record;
                    }
                }
            }
        }
        self.watch_commit(response_ms, now);
    }

    /// Per-commit watch accounting; emits one sample when the interval
    /// elapsed (in simulated time — never wall clock).
    fn watch_commit(&mut self, response_ms: f64, now: f64) {
        if self.watch.is_none() {
            return;
        }
        self.watch_response.record(response_ms);
        let due = match &mut self.watch {
            Some(w) => {
                w.commits += 1;
                now >= w.next_due_ms
            }
            None => false,
        };
        if !due {
            return;
        }
        let hit_ratio = self.series_current("hit_ratio");
        let mpl_queue = self.series_current("mpl_queue");
        let p99_ms = self.watch_response.p99();
        let Some(w) = self.watch.as_mut() else {
            return;
        };
        let elapsed = now - w.last_t_ms;
        let throughput_tps = if elapsed > 0.0 {
            (w.commits - w.last_commits) as f64 / elapsed * 1000.0
        } else {
            0.0
        };
        // A gone receiver only means nobody is watching anymore.
        let _ = w.sink.sender.send(WatchSample {
            job: w.job,
            t_ms: now,
            throughput_tps,
            p99_ms,
            mpl_queue,
            hit_ratio,
        });
        w.last_commits = w.commits;
        w.last_t_ms = now;
        while w.next_due_ms <= now {
            w.next_due_ms += w.sink.interval_ms;
        }
    }
}

/// SplitMix64 step: the reservoir's deterministic, seedable RNG.
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Probe for TraceRecorder {
    fn intern_series(&mut self, name: &str) -> SeriesId {
        SeriesId(self.intern_series_id(name))
    }

    fn intern_resource(&mut self, name: &str) -> ResourceId {
        if let Some(&i) = self.resource_index.get(name) {
            return ResourceId(i);
        }
        // Pre-intern the queue series so enqueue hooks index directly;
        // an untouched series emits no samples (and no export rows).
        let queue_series = self.intern_series_id(&format!("queue:{name}"));
        let i = self.resources.len() as u32;
        self.resources.push(ResourceEntry {
            wait_hist: Histogram::new(),
            queue_series,
        });
        self.resource_index.insert(name.to_owned(), i);
        ResourceId(i)
    }

    // `on_schedule` keeps its empty default: run totals arrive once
    // per run call via `on_run_end` instead of a counter increment on
    // every scheduled event.

    #[inline]
    fn dispatch_interval(&self) -> u64 {
        self.dispatch_sample_every
    }

    #[inline]
    fn on_dispatch(&mut self, now: f64, pending: usize) {
        // The engine already decimates to every
        // `dispatch_sample_every`-th dispatch (see
        // [`desp::Probe::dispatch_interval`]); every call is a sample.
        let i = self.pending_events_series as usize;
        self.series[i].record(now, pending as f64);
    }

    #[inline]
    fn on_resource_enqueue(&mut self, resource: ResourceId, now: f64, queue_len: usize) {
        let Some(entry) = self.resources.get(resource.0 as usize) else {
            return;
        };
        self.series[entry.queue_series as usize].record(now, queue_len as f64);
    }

    #[inline]
    fn on_resource_grant(&mut self, resource: ResourceId, _now: f64, waited_ms: f64) {
        let Some(entry) = self.resources.get_mut(resource.0 as usize) else {
            return;
        };
        entry.wait_hist.record(waited_ms);
    }

    #[inline]
    fn on_span(&mut self, slot: u32, serial: u64, point: SpanPoint, now: f64) {
        self.flushed = false;
        let s = (serial & self.shard_mask) as usize;
        self.apply(s, slot as usize, serial, point, now);
    }

    #[inline]
    fn on_span_stage(&mut self, slot: u32, serial: u64, stage: SpanStage, delta: f64) {
        self.flushed = false;
        let s = (serial & self.shard_mask) as usize;
        let Some(entry) = self.shards[s].open.get_mut(slot as usize) else {
            return;
        };
        if !entry.occupied || entry.serial != serial {
            return;
        }
        let record = &mut entry.span.record;
        match stage {
            SpanStage::LockWait => record.lock_wait_ms += delta,
            SpanStage::Cpu => record.cpu_ms += delta,
            SpanStage::DiskWait => record.disk_wait_ms += delta,
            SpanStage::DiskService => record.disk_service_ms += delta,
            SpanStage::NetWait => record.net_wait_ms += delta,
            SpanStage::NetService => record.net_service_ms += delta,
            SpanStage::Accesses => record.accesses += delta as u64,
        }
    }

    #[inline]
    fn on_run_end(&mut self, scheduled: u64, dispatched: u64) {
        // Engine-lifetime totals, overwritten (not accumulated) so
        // phase-at-a-time drivers stay correct across repeated run
        // calls.
        self.flushed = false;
        self.events_scheduled = scheduled;
        self.events_dispatched = dispatched;
    }

    #[inline]
    fn on_sample(&mut self, series: SeriesId, now: f64, value: f64) {
        let Some(s) = self.series.get_mut(series.0 as usize) else {
            return;
        };
        s.record(now, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit(r: &mut TraceRecorder, tid: u64, point: SpanPoint, now: f64) {
        // Tests use the serial as the slot too (small ids).
        r.on_span(tid as u32, tid, point, now);
    }

    #[test]
    fn one_span_decomposes_response_time() {
        let mut r = RecorderConfig::new().build();
        emit(&mut r, 1, SpanPoint::Submit, 0.0);
        emit(&mut r, 1, SpanPoint::Admitted, 2.0);
        emit(&mut r, 1, SpanPoint::LockRequest, 2.0);
        emit(&mut r, 1, SpanPoint::LockGranted, 5.0);
        emit(&mut r, 1, SpanPoint::CpuStart, 5.0);
        emit(&mut r, 1, SpanPoint::CpuEnd, 6.0);
        emit(&mut r, 1, SpanPoint::DiskRequest, 6.0);
        emit(&mut r, 1, SpanPoint::DiskStart, 8.0);
        emit(&mut r, 1, SpanPoint::DiskEnd, 18.0);
        emit(&mut r, 1, SpanPoint::NetRequest, 18.0);
        emit(&mut r, 1, SpanPoint::NetStart, 18.0);
        emit(&mut r, 1, SpanPoint::NetEnd, 21.0);
        emit(&mut r, 1, SpanPoint::AccessDone, 21.0);
        emit(&mut r, 1, SpanPoint::Committed, 22.0);
        r.flush();

        assert_eq!(r.spans().len(), 1);
        let s = &r.spans()[0];
        assert_eq!(s.tid, 1);
        assert_eq!(s.response_ms, 22.0);
        assert_eq!(s.admission_wait_ms, 2.0);
        assert_eq!(s.lock_wait_ms, 3.0);
        assert_eq!(s.cpu_ms, 1.0);
        assert_eq!(s.disk_wait_ms, 2.0);
        assert_eq!(s.disk_service_ms, 10.0);
        assert_eq!(s.net_wait_ms, 0.0);
        assert_eq!(s.net_service_ms, 3.0);
        assert_eq!(s.accesses, 1);
        assert_eq!(r.open_spans(), 0);
        let resp = &r.stage_histograms()["response_ms"];
        assert_eq!(resp.count(), 1);
        assert!(resp.p50() >= 22.0);
    }

    #[test]
    fn valued_stages_fold_identically_to_point_pairs() {
        // The point-pair encoding (v1 wire format)…
        let mut pairs = RecorderConfig::new().build();
        emit(&mut pairs, 1, SpanPoint::Submit, 0.0);
        emit(&mut pairs, 1, SpanPoint::Admitted, 2.0);
        emit(&mut pairs, 1, SpanPoint::LockRequest, 2.0);
        emit(&mut pairs, 1, SpanPoint::LockGranted, 5.0);
        emit(&mut pairs, 1, SpanPoint::CpuStart, 5.0);
        emit(&mut pairs, 1, SpanPoint::CpuEnd, 6.0);
        emit(&mut pairs, 1, SpanPoint::DiskRequest, 6.0);
        emit(&mut pairs, 1, SpanPoint::DiskStart, 8.0);
        emit(&mut pairs, 1, SpanPoint::DiskEnd, 18.0);
        emit(&mut pairs, 1, SpanPoint::NetRequest, 18.0);
        emit(&mut pairs, 1, SpanPoint::NetStart, 18.0);
        emit(&mut pairs, 1, SpanPoint::NetEnd, 21.0);
        emit(&mut pairs, 1, SpanPoint::AccessDone, 21.0);
        emit(&mut pairs, 1, SpanPoint::Committed, 22.0);
        pairs.flush();

        // …and the valued-stage encoding a hot-path model emits
        // (zero-valued deltas skipped) fold to the same record.
        let mut stages = RecorderConfig::new().build();
        stages.on_span(1, 1, SpanPoint::Submit, 0.0);
        stages.on_span(1, 1, SpanPoint::Admitted, 2.0);
        stages.on_span_stage(1, 1, SpanStage::LockWait, 5.0 - 2.0);
        stages.on_span_stage(1, 1, SpanStage::Cpu, 6.0 - 5.0);
        stages.on_span_stage(1, 1, SpanStage::DiskWait, 8.0 - 6.0);
        stages.on_span_stage(1, 1, SpanStage::DiskService, 18.0 - 8.0);
        stages.on_span_stage(1, 1, SpanStage::NetService, 21.0 - 18.0);
        stages.on_span_stage(1, 1, SpanStage::Accesses, 1.0);
        stages.on_span(1, 1, SpanPoint::Committed, 22.0);
        stages.flush();

        assert_eq!(pairs.spans(), stages.spans());
        for metric in STAGE_METRICS {
            let a = &pairs.stage_histograms()[*metric];
            let b = &stages.stage_histograms()[*metric];
            assert_eq!(a.count(), b.count(), "{metric}");
            assert_eq!(a.p99().to_bits(), b.p99().to_bits(), "{metric}");
        }
    }

    #[test]
    fn stage_for_absent_or_stale_occupant_is_dropped() {
        let mut r = RecorderConfig::new().build();
        r.on_span_stage(0, 1, SpanStage::Cpu, 5.0); // no Submit yet
        r.on_span(0, 1, SpanPoint::Submit, 0.0);
        r.on_span_stage(0, 9, SpanStage::Cpu, 7.0); // wrong serial
        r.on_span(0, 1, SpanPoint::Committed, 2.0);
        r.flush();
        assert_eq!(r.spans().len(), 1);
        assert_eq!(r.spans()[0].cpu_ms, 0.0, "stray stages must not fold");
    }

    #[test]
    fn restart_clears_open_marks() {
        let mut r = RecorderConfig::new().build();
        emit(&mut r, 3, SpanPoint::Submit, 0.0);
        emit(&mut r, 3, SpanPoint::Admitted, 0.0);
        emit(&mut r, 3, SpanPoint::LockRequest, 1.0);
        emit(&mut r, 3, SpanPoint::Restart, 4.0);
        emit(&mut r, 3, SpanPoint::LockRequest, 6.0);
        emit(&mut r, 3, SpanPoint::LockGranted, 7.0);
        emit(&mut r, 3, SpanPoint::Committed, 9.0);
        let s = &r.spans()[0];
        // Only the post-restart wait counts (the first request was
        // abandoned, not granted).
        assert_eq!(s.lock_wait_ms, 1.0);
        assert_eq!(s.restarts, 1);
        assert_eq!(s.response_ms, 9.0);
    }

    #[test]
    fn points_without_submit_are_dropped() {
        let mut r = RecorderConfig::new().build();
        // A foreign/partial stream: no Submit for tid 9.
        emit(&mut r, 9, SpanPoint::Admitted, 1.0);
        emit(&mut r, 9, SpanPoint::AccessDone, 2.0);
        emit(&mut r, 9, SpanPoint::Committed, 3.0);
        r.flush();
        assert_eq!(r.spans().len(), 0, "no phantom span");
        assert_eq!(r.open_spans(), 0, "no lingering open span");
        assert_eq!(r.stage_histograms()["response_ms"].count(), 0);
    }

    #[test]
    fn recycled_slot_with_stale_serial_is_dropped() {
        let mut r = RecorderConfig::new().build();
        // Serial 1 occupies slot 0, commits; serial 9 reuses slot 0.
        r.on_span(0, 1, SpanPoint::Submit, 0.0);
        r.on_span(0, 1, SpanPoint::Committed, 5.0);
        r.on_span(0, 9, SpanPoint::Submit, 6.0);
        // A stale point for the previous occupant must not fold into
        // serial 9's span.
        r.on_span(0, 1, SpanPoint::AccessDone, 7.0);
        r.on_span(0, 9, SpanPoint::Committed, 8.0);
        r.flush();
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].tid, 9);
        assert_eq!(r.spans()[1].accesses, 0);
    }

    #[test]
    fn resource_and_sample_hooks_accumulate() {
        let mut r = RecorderConfig::new().build();
        let disk = r.intern_resource("disk-0");
        let hit = Probe::intern_series(&mut r, "hit_ratio");
        r.on_resource_grant(disk, 1.0, 0.0);
        r.on_resource_enqueue(disk, 2.0, 1);
        r.on_resource_grant(disk, 5.0, 3.0);
        r.on_sample(hit, 10.0, 0.75);
        r.on_sample(hit, 20.0, 0.85);
        assert_eq!(r.resource_wait_named("disk-0").unwrap().count(), 2);
        assert_eq!(r.series_named("queue:disk-0").unwrap().samples().len(), 1);
        assert_eq!(r.series_named("hit_ratio").unwrap().current(), 0.85);
        // Interning is idempotent.
        assert_eq!(r.intern_resource("disk-0"), disk);
        assert_eq!(Probe::intern_series(&mut r, "hit_ratio"), hit);
    }

    #[test]
    fn dispatch_sampling_is_decimated() {
        // The engine honours `dispatch_interval` and only forwards every
        // N-th dispatch; each forwarded call is recorded verbatim.
        let mut r = RecorderConfig::new().build();
        assert_eq!(
            Probe::dispatch_interval(&r),
            TraceRecorder::DISPATCH_SAMPLE_EVERY
        );
        let sampled = 256 / TraceRecorder::DISPATCH_SAMPLE_EVERY;
        for i in 0..sampled {
            r.on_dispatch(i as f64, 10);
        }
        r.on_run_end(300, 256);
        assert_eq!(r.events_dispatched(), 256);
        assert_eq!(r.events_scheduled(), 300);
        let pending = r.series_named("pending_events").unwrap();
        assert_eq!(pending.offered(), sampled);
    }

    #[test]
    fn sharded_spans_keep_commit_order() {
        let mut one = RecorderConfig::new().build();
        let mut eight = RecorderConfig::new().shards(8).build();
        for r in [&mut one, &mut eight] {
            for serial in 0..32u64 {
                let slot = (serial % 4) as u32;
                r.on_span(slot, serial, SpanPoint::Submit, serial as f64);
                r.on_span(slot, serial, SpanPoint::AccessDone, serial as f64 + 0.25);
                r.on_span(slot, serial, SpanPoint::Committed, serial as f64 + 0.5);
            }
            r.flush();
        }
        assert_eq!(one.spans(), eight.spans());
        for metric in STAGE_METRICS {
            let a = &one.stage_histograms()[*metric];
            let b = &eight.stage_histograms()[*metric];
            assert_eq!(a.count(), b.count(), "{metric}");
            assert_eq!(a.p99().to_bits(), b.p99().to_bits(), "{metric}");
        }
    }

    #[test]
    fn reservoir_bounds_retention_and_reports_loss() {
        let mut r = RecorderConfig::new().sample(8).build();
        for serial in 0..100u64 {
            emit(&mut r, serial, SpanPoint::Submit, serial as f64);
            emit(&mut r, serial, SpanPoint::Committed, serial as f64 + 1.0);
        }
        r.flush();
        assert_eq!(r.spans().len(), 8);
        assert_eq!(r.spans_offered(), 100);
        assert_eq!(r.spans_recorded(), 8);
        // Percentiles see every span despite the sampled raw records.
        assert_eq!(r.stage_histograms()["response_ms"].count(), 100);
        // Deterministic: same seed, same reservoir.
        let mut r2 = RecorderConfig::new().sample(8).build();
        for serial in 0..100u64 {
            emit(&mut r2, serial, SpanPoint::Submit, serial as f64);
            emit(&mut r2, serial, SpanPoint::Committed, serial as f64 + 1.0);
        }
        r2.flush();
        assert_eq!(r.spans(), r2.spans());
    }

    #[test]
    fn watch_emits_decimated_samples() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut r = RecorderConfig::new()
            .watch(WatchSink {
                sender: tx,
                interval_ms: 10.0,
            })
            .build();
        let hit = Probe::intern_series(&mut r, "hit_ratio");
        for serial in 0..100u64 {
            let now = serial as f64;
            emit(&mut r, serial, SpanPoint::Submit, now);
            r.on_sample(hit, now + 0.5, 0.5);
            emit(&mut r, serial, SpanPoint::Committed, now + 0.5);
        }
        r.flush(); // drops the sender: the drain below terminates
        let samples: Vec<WatchSample> = rx.iter().collect();
        assert!(
            samples.len() >= 8 && samples.len() <= 11,
            "one sample per ~10ms of 100ms, got {}",
            samples.len()
        );
        assert!(samples[0].throughput_tps > 0.0);
        assert!(samples[0].p99_ms > 0.0);
        assert_eq!(samples[0].hit_ratio, 0.5);
        for w in samples.windows(2) {
            assert!(w[1].t_ms - w[0].t_ms >= 10.0 - 1e-9);
        }
    }
}
