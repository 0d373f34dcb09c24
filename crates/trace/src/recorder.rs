//! The recording probe: assembles transaction lifecycle spans and feeds
//! the latency histograms and time-series samplers.
//!
//! A [`TraceRecorder`] plugs into `desp::Engine::with_probe` and
//! receives every kernel hook and model emission:
//!
//! * span points and stage totals keyed by (slab slot, serial) are
//!   folded into [`SpanRecord`]s — one per committed transaction,
//!   splitting the response time into the admission wait and the
//!   model's [`SpanStage`]s (lock wait, CPU, disk wait, disk service,
//!   network wait and transfer);
//! * per-stage [`Histogram`]s accumulate the same durations across
//!   spans (the p50/p90/p99 tables of `voodb analyze`);
//! * resource queue lengths and model samples land in handle-indexed,
//!   bounded [`TimeSeries`] — names are interned once per phase via
//!   [`Probe::intern_series`]/[`Probe::intern_resource`], so the hot
//!   path never touches a string key;
//! * the pending-event count is sampled once every
//!   [`TraceRecorder::DISPATCH_SAMPLE_EVERY`] dispatches.
//!
//! [`STAGE_METRICS`] names the span's durations once, in the order that
//! indexes every per-stage array — [`SpanRecord::stages`], the
//! histograms, the span file's columns and the summary's percentile
//! columns: the response time, the admission wait, then the model's
//! stages in [`SpanStage`] order.
//!
//! # Span folding
//!
//! A span arrives through two hooks:
//!
//! * **Lifecycle points** ([`Probe::on_span`]): `Submit` opens a span,
//!   `Admitted` fixes its admission wait, `Restart` counts a deadlock
//!   restart and `Committed` finalizes it.
//! * **Stage totals** ([`Probe::on_span_stages`]): the model knows both
//!   endpoints of every stage, so it reports the whole lifetime's totals
//!   and access count once, just before `Committed` — one hook call and
//!   one array copy per span.
//!
//! Both fold *eagerly* — each hook updates the open span in place, no
//! buffering — into a dense slot-indexed table (the kernel hands us the
//! slab slot), tagged with the transaction serial so a recycled slot can
//! never corrupt a stale span. Committed records land in one list in
//! commit order.
//!
//! Optional [reservoir sampling](RecorderConfig::sample) bounds the
//! retained raw records with *reported* loss: histograms still see
//! every span ([`TraceRecorder::spans_offered`] vs
//! [`TraceRecorder::spans_recorded`]), so percentile tables stay exact.
//!
//! Recording never perturbs the simulation: the recorder only observes,
//! so a traced replication produces bit-identical results to an
//! untraced one (asserted by the scenario-runner tests).
//!
//! [`Probe::intern_series`]: desp::Probe::intern_series
//! [`Probe::intern_resource`]: desp::Probe::intern_resource
//! [`Probe::on_span`]: desp::Probe::on_span
//! [`Probe::on_span_stages`]: desp::Probe::on_span_stages
//! [`RecorderConfig::sample`]: crate::RecorderConfig::sample

use crate::config::RecorderConfig;
use crate::hist::Histogram;
use crate::series::TimeSeries;
use crate::watch::{WatchSample, WatchSink};
use desp::{Probe, ResourceId, SeriesId, SpanPoint, SpanStage};
use std::collections::BTreeMap;

/// The per-stage durations of a span, in the order of every per-stage
/// array: the end-to-end response time (commit − submit) at
/// [`RESPONSE`], the wait for an MPL scheduler slot at
/// [`ADMISSION_WAIT`], then from [`MODEL_STAGES`] on the model's
/// [`SpanStage`] totals in enum order. The one place their names are
/// spelled: the span file's columns, the histogram tables and the
/// summary's percentile columns all come from here.
pub const STAGE_METRICS: [&str; MODEL_STAGES + SpanStage::COUNT] = [
    "response_ms",
    "admission_wait_ms",
    "lock_wait_ms",
    "cpu_ms",
    "disk_wait_ms",
    "disk_service_ms",
    "net_wait_ms",
    "net_service_ms",
];

/// [`STAGE_METRICS`] index of the end-to-end response time.
pub const RESPONSE: usize = 0;
/// [`STAGE_METRICS`] index of the admission wait.
pub const ADMISSION_WAIT: usize = 1;
/// [`STAGE_METRICS`] index of the first [`SpanStage`]: stage `s` sits at
/// `MODEL_STAGES + s as usize`.
pub const MODEL_STAGES: usize = 2;

/// One committed transaction's lifecycle, in simulated milliseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanRecord {
    /// Transaction id (unique within one phase).
    pub tid: u64,
    /// Submission instant.
    pub submit_ms: f64,
    /// Commit instant.
    pub end_ms: f64,
    /// The span's durations, in [`STAGE_METRICS`] order.
    pub stages: [f64; STAGE_METRICS.len()],
    /// Object accesses performed.
    pub accesses: u64,
    /// Deadlock restarts suffered.
    pub restarts: u64,
}

/// One slot of the open-span table. The table is indexed by slab slot;
/// `serial` tags the occupant so a stale point for a previous occupant
/// of the same slot is dropped, not misfolded. `record` is folded into
/// the committed list on `Committed`.
#[derive(Clone, Debug, Default)]
struct OpenSlot {
    occupied: bool,
    serial: u64,
    admitted: bool,
    record: SpanRecord,
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

/// A recording [`Probe`]: spans, histograms and series.
/// Built by [`RecorderConfig`]; call [`TraceRecorder::flush`] after the
/// run (the scenario runner does) to close a watch stream.
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    /// Open spans, indexed by slab slot.
    open: Vec<OpenSlot>,
    open_count: usize,
    /// Indexed in [`STAGE_METRICS`] order.
    stage_hists: [Histogram; STAGE_METRICS.len()],
    /// Committed spans in commit order.
    finished: Vec<SpanRecord>,
    /// Handle-indexed series storage; `series_index` maps names.
    series: Vec<TimeSeries>,
    series_index: BTreeMap<String, u32>,
    /// `queue:<name>` series handles, indexed by resource handle.
    resource_queues: Vec<u32>,
    resource_index: BTreeMap<String, u32>,
    /// Pre-interned handle for the engine's `pending_events` series.
    pending_events_series: u32,
    sample: Option<Reservoir>,
    /// Spans finalized (committed), whether or not retained.
    spans_offered: u64,
    watch: Option<WatchState>,
    /// Exact response-time histogram feeding the watch p99 (recorded
    /// only while a watch sink is attached).
    watch_response: Histogram,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        RecorderConfig::new().build()
    }
}

impl TraceRecorder {
    /// `pending_events` is sampled once per this many dispatches.
    pub const DISPATCH_SAMPLE_EVERY: u64 = 64;

    pub(crate) fn from_config(
        sample: Option<usize>,
        sample_seed: u64,
        watch: Option<WatchSink>,
        job: usize,
    ) -> Self {
        let mut recorder = TraceRecorder {
            open: Vec::new(),
            open_count: 0,
            stage_hists: std::array::from_fn(|_| Histogram::new()),
            finished: Vec::new(),
            series: Vec::new(),
            series_index: BTreeMap::new(),
            resource_queues: Vec::new(),
            resource_index: BTreeMap::new(),
            pending_events_series: 0,
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
    // audit: the trace differential and tracing tests assert every span closes
    pub fn open_spans(&self) -> usize {
        self.open_count
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

    /// The per-stage histograms over every committed span, in
    /// [`STAGE_METRICS`] order (a stage no span exercised has count 0).
    pub fn stage_histograms(&self) -> &[Histogram; STAGE_METRICS.len()] {
        &self.stage_hists
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

    /// Closes the watch stream: dropping the sender ends the watcher's
    /// drain loop. Idempotent; called by the scenario runner after each
    /// job.
    pub fn flush(&mut self) {
        self.watch = None;
    }

    /// Interns a series name, creating the series on first sight.
    fn intern_series_id(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.series_index.get(name) {
            return i;
        }
        let i = self.series.len() as u32;
        self.series.push(TimeSeries::default());
        self.series_index.insert(name.to_owned(), i);
        i
    }

    /// Latest offered value of a named series (0.0 when absent).
    fn series_current(&self, name: &str) -> f64 {
        self.series_named(name).map_or(0.0, TimeSeries::current)
    }

    /// The open span in `slot` if `serial` occupies it; points and
    /// stages for an absent or mismatched occupant are dropped.
    fn occupant(&mut self, slot: u32, serial: u64) -> Option<&mut OpenSlot> {
        self.open
            .get_mut(slot as usize)
            .filter(|entry| entry.occupied && entry.serial == serial)
    }

    /// Opens `serial`'s span in `slot` (only `Submit` opens a span).
    fn open_span(&mut self, slot: u32, serial: u64, now: f64) {
        let slot = slot as usize;
        if self.open.len() <= slot {
            self.open.resize_with(slot + 1, OpenSlot::default);
        }
        let entry = &mut self.open[slot];
        if !entry.occupied {
            self.open_count += 1;
        }
        *entry = OpenSlot {
            occupied: true,
            serial,
            admitted: false,
            record: SpanRecord {
                submit_ms: now,
                ..SpanRecord::default()
            },
        };
    }

    /// Finalizes `serial`'s span in `slot`: records its stages and
    /// offers the record.
    fn commit_span(&mut self, slot: u32, serial: u64, now: f64) {
        let Some(entry) = self.occupant(slot, serial) else {
            return; // Committed without Submit: nothing recorded.
        };
        entry.occupied = false;
        let mut record = std::mem::take(&mut entry.record);
        self.open_count -= 1;
        record.tid = serial;
        record.end_ms = now;
        record.stages[RESPONSE] = now - record.submit_ms;
        for (hist, value) in self.stage_hists.iter_mut().zip(record.stages) {
            hist.record(value);
        }
        self.offer(record, now);
    }

    /// Offers one finalized record to the retained list (or reservoir)
    /// and ticks the watch stream.
    fn offer(&mut self, record: SpanRecord, now: f64) {
        self.spans_offered += 1;
        let response_ms = record.stages[RESPONSE];
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
        let i = self.resource_queues.len() as u32;
        self.resource_queues.push(queue_series);
        self.resource_index.insert(name.to_owned(), i);
        ResourceId(i)
    }

    #[inline]
    fn dispatch_interval(&self) -> u64 {
        Self::DISPATCH_SAMPLE_EVERY
    }

    #[inline]
    fn on_dispatch(&mut self, now: f64, pending: usize) {
        // The engine already decimates to every
        // `DISPATCH_SAMPLE_EVERY`-th dispatch (see
        // [`desp::Probe::dispatch_interval`]); every call is a sample.
        let i = self.pending_events_series as usize;
        self.series[i].record(now, pending as f64);
    }

    #[inline]
    fn on_resource_enqueue(&mut self, resource: ResourceId, now: f64, queue_len: usize) {
        let Some(&series) = self.resource_queues.get(resource.0 as usize) else {
            return;
        };
        self.series[series as usize].record(now, queue_len as f64);
    }

    #[inline]
    fn on_span(&mut self, slot: u32, serial: u64, point: SpanPoint, now: f64) {
        match point {
            SpanPoint::Submit => self.open_span(slot, serial, now),
            SpanPoint::Admitted => {
                if let Some(entry) = self.occupant(slot, serial) {
                    if !entry.admitted {
                        entry.admitted = true;
                        entry.record.stages[ADMISSION_WAIT] = now - entry.record.submit_ms;
                    }
                }
            }
            SpanPoint::Restart => {
                if let Some(entry) = self.occupant(slot, serial) {
                    entry.record.restarts += 1;
                }
            }
            SpanPoint::Committed => self.commit_span(slot, serial, now),
        }
    }

    #[inline]
    fn on_span_stages(
        &mut self,
        slot: u32,
        serial: u64,
        stages: &[f64; SpanStage::COUNT],
        accesses: u64,
    ) {
        let Some(entry) = self.occupant(slot, serial) else {
            return;
        };
        entry.record.stages[MODEL_STAGES..].copy_from_slice(stages);
        entry.record.accesses = accesses;
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
        // The stage totals a model emits, in `SpanStage` order: lock
        // wait, CPU, disk wait, disk service, network wait and transfer.
        let stages = [
            5.0 - 2.0,
            6.0 - 5.0,
            8.0 - 6.0,
            18.0 - 8.0,
            0.0,
            21.0 - 18.0,
        ];
        r.on_span_stages(1, 1, &stages, 1);
        emit(&mut r, 1, SpanPoint::Committed, 22.0);

        assert_eq!(r.spans().len(), 1);
        let s = &r.spans()[0];
        assert_eq!(s.tid, 1);
        // Response, admission wait, then the model's stages.
        assert_eq!(s.stages, [22.0, 2.0, 3.0, 1.0, 2.0, 10.0, 0.0, 3.0]);
        assert_eq!(s.accesses, 1);
        assert_eq!(r.open_spans(), 0);
        // The histograms need no flush: each saw its stage's value.
        for (hist, value) in r.stage_histograms().iter().zip(s.stages) {
            assert_eq!(hist.count(), 1);
            assert_eq!(hist.max(), value);
        }
        assert!(r.stage_histograms()[RESPONSE].p50() >= 22.0);
    }

    #[test]
    fn stage_for_absent_or_stale_occupant_is_dropped() {
        let mut r = RecorderConfig::new().build();
        let cpu = |ms| {
            let mut stages = [0.0; SpanStage::COUNT];
            stages[SpanStage::Cpu as usize] = ms;
            stages
        };
        r.on_span_stages(0, 1, &cpu(5.0), 1); // no Submit yet
        r.on_span(0, 1, SpanPoint::Submit, 0.0);
        r.on_span_stages(0, 9, &cpu(7.0), 2); // wrong serial
        r.on_span(0, 1, SpanPoint::Committed, 2.0);
        assert_eq!(r.spans().len(), 1);
        assert_eq!(
            r.spans()[0].stages[MODEL_STAGES..],
            [0.0; SpanStage::COUNT],
            "stray stages must not fold"
        );
        assert_eq!(r.spans()[0].accesses, 0);
    }

    #[test]
    fn restarts_are_counted_on_the_open_span() {
        let mut r = RecorderConfig::new().build();
        emit(&mut r, 3, SpanPoint::Submit, 0.0);
        emit(&mut r, 3, SpanPoint::Admitted, 0.0);
        emit(&mut r, 3, SpanPoint::Restart, 4.0);
        emit(&mut r, 3, SpanPoint::Restart, 5.0);
        let mut stages = [0.0; SpanStage::COUNT];
        stages[SpanStage::LockWait as usize] = 1.0;
        r.on_span_stages(3, 3, &stages, 0);
        emit(&mut r, 3, SpanPoint::Committed, 9.0);
        // A restart for a foreign serial in the same slot is dropped.
        r.on_span(3, 4, SpanPoint::Restart, 9.5);
        let s = &r.spans()[0];
        assert_eq!(s.restarts, 2);
        assert_eq!(s.stages[MODEL_STAGES + SpanStage::LockWait as usize], 1.0);
        assert_eq!(s.stages[ADMISSION_WAIT], 0.0);
        assert_eq!(s.stages[RESPONSE], 9.0);
        assert_eq!(r.open_spans(), 0);
    }

    #[test]
    fn points_without_submit_are_dropped() {
        let mut r = RecorderConfig::new().build();
        // A foreign/partial stream: no Submit for tid 9.
        emit(&mut r, 9, SpanPoint::Admitted, 1.0);
        emit(&mut r, 9, SpanPoint::Restart, 2.0);
        emit(&mut r, 9, SpanPoint::Committed, 3.0);
        assert_eq!(r.spans().len(), 0, "no phantom span");
        assert_eq!(r.open_spans(), 0, "no lingering open span");
        assert_eq!(r.stage_histograms()[RESPONSE].count(), 0);
    }

    #[test]
    fn recycled_slot_with_stale_serial_is_dropped() {
        let mut r = RecorderConfig::new().build();
        // Serial 1 occupies slot 0, commits; serial 9 reuses slot 0.
        r.on_span(0, 1, SpanPoint::Submit, 0.0);
        r.on_span(0, 1, SpanPoint::Committed, 5.0);
        r.on_span(0, 9, SpanPoint::Submit, 6.0);
        // Stale emissions for the previous occupant must not fold into
        // serial 9's span.
        r.on_span(0, 1, SpanPoint::Restart, 7.0);
        r.on_span_stages(0, 1, &[0.0; SpanStage::COUNT], 1);
        r.on_span(0, 9, SpanPoint::Committed, 8.0);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].tid, 9);
        assert_eq!(r.spans()[1].accesses, 0);
        assert_eq!(r.spans()[1].restarts, 0);
    }

    #[test]
    fn resource_and_sample_hooks_accumulate() {
        let mut r = RecorderConfig::new().build();
        let disk = r.intern_resource("disk-0");
        let hit = Probe::intern_series(&mut r, "hit_ratio");
        r.on_resource_enqueue(disk, 2.0, 1);
        r.on_sample(hit, 10.0, 0.75);
        r.on_sample(hit, 20.0, 0.85);
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
        let pending = r.series_named("pending_events").unwrap();
        assert_eq!(pending.samples().len() as u64, sampled);
    }

    #[test]
    fn reservoir_bounds_retention_and_reports_loss() {
        let mut r = RecorderConfig::new().sample(8).build();
        for serial in 0..100u64 {
            emit(&mut r, serial, SpanPoint::Submit, serial as f64);
            emit(&mut r, serial, SpanPoint::Committed, serial as f64 + 1.0);
        }
        assert_eq!(r.spans().len(), 8);
        assert_eq!(r.spans_offered(), 100);
        assert_eq!(r.spans_recorded(), 8);
        // Percentiles see every span despite the sampled raw records.
        assert_eq!(r.stage_histograms()[RESPONSE].count(), 100);
        // Deterministic: same seed, same reservoir.
        let mut r2 = RecorderConfig::new().sample(8).build();
        for serial in 0..100u64 {
            emit(&mut r2, serial, SpanPoint::Submit, serial as f64);
            emit(&mut r2, serial, SpanPoint::Committed, serial as f64 + 1.0);
        }
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
