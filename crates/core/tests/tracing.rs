//! Telemetry integration: the trace recorder observes the VOODB model
//! without perturbing it.

use desp::{Probe, ResourceId, SpanPoint, SpanStage};
use ocb::{DatabaseParams, ObjectBase, WorkloadGenerator, WorkloadParams};
use voodb::{Simulation, SystemClass, VoodbParams};
use vtrace::{RecorderConfig, MODEL_STAGES, RESPONSE};

fn setup(users: usize) -> (ObjectBase, Vec<ocb::Transaction>, VoodbParams) {
    let base = ObjectBase::generate(&DatabaseParams::small(), 17);
    let wl = WorkloadParams {
        hot_transactions: 40,
        ..WorkloadParams::default()
    };
    let mut generator = WorkloadGenerator::new(&base, wl, 99);
    let transactions: Vec<_> = (0..40).map(|_| generator.next_transaction()).collect();
    let params = VoodbParams {
        buffer_pages: 64,
        users,
        multiprogramming_level: users.min(2),
        system_class: SystemClass::PageServer,
        network_throughput_mbps: 2.0,
        ..VoodbParams::default()
    };
    (base, transactions, params)
}

#[test]
fn traced_phase_matches_untraced_phase_exactly() {
    let (base, transactions, params) = setup(4);
    let mut plain = Simulation::new(&base, params.clone(), 1.0, 7);
    let untraced = plain.run_phase(transactions.clone(), 0);

    let mut probed = Simulation::new(&base, params, 1.0, 7);
    let (traced, mut recorder) =
        probed.run_phase_probed(transactions, 0, RecorderConfig::new().build());
    recorder.flush();

    assert_eq!(untraced.transactions, traced.transactions);
    assert_eq!(untraced.total_ios(), traced.total_ios());
    assert_eq!(
        untraced.mean_response_ms.to_bits(),
        traced.mean_response_ms.to_bits(),
        "recording must not perturb the simulation"
    );
    assert_eq!(untraced.events, traced.events);
    assert_eq!(recorder.spans().len(), 40, "one span per transaction");
    assert_eq!(recorder.open_spans(), 0, "every span committed");
}

#[test]
fn spans_decompose_response_and_feed_histograms() {
    let (base, transactions, params) = setup(4);
    let mut simulation = Simulation::new(&base, params, 1.0, 7);
    let (result, recorder) =
        simulation.run_phase_probed(transactions, 0, RecorderConfig::new().build());

    // Stage sums never exceed the span's end-to-end response, and disk
    // service shows up for a cold buffer.
    let mut saw_disk = false;
    for span in recorder.spans() {
        let [response, parts @ ..] = span.stages;
        let parts: f64 = parts.iter().sum();
        assert!(
            parts <= response + 1e-9,
            "stages {parts} exceed response {response} (tid {})",
            span.tid
        );
        assert!(span.accesses > 0, "tid {} performed no access", span.tid);
        saw_disk |= span.stages[MODEL_STAGES + SpanStage::DiskService as usize] > 0.0;
    }
    assert!(saw_disk, "a cold run must hit the disk");

    let hists = recorder.stage_histograms();
    let response = &hists[RESPONSE];
    assert_eq!(response.count(), 40);
    assert!(response.p50() > 0.0);
    assert!(response.p99() >= response.p50());
    // The histogram mean is exact; the model's Welford mean covers the
    // same population (cold_count = 0), so they must agree.
    assert!(
        (response.mean() - result.mean_response_ms).abs() < 1e-9,
        "histogram mean {} vs model mean {}",
        response.mean(),
        result.mean_response_ms
    );
    // A page-server run ships pages: network service must be recorded.
    assert!(hists[MODEL_STAGES + SpanStage::NetService as usize].count() > 0);

    // Commit-frequency samples exist for the core series.
    for series in [
        "hit_ratio",
        "disk_utilization",
        "network_utilization",
        "mpl_queue",
    ] {
        assert!(
            recorder.series_named(series).is_some(),
            "missing series '{series}'"
        );
    }
    let hit = recorder.series_named("hit_ratio").unwrap();
    assert_eq!(hit.offered(), 40, "one sample per commit");
}

/// Counts the kernel hooks `counting_probe_sees_kernel_traffic` checks.
#[derive(Default)]
struct CountingProbe {
    dispatches: u64,
    enqueues: u64,
    spans: u64,
}

impl Probe for CountingProbe {
    fn on_dispatch(&mut self, _now: f64, _pending: usize) {
        self.dispatches += 1;
    }
    fn on_resource_enqueue(&mut self, _resource: ResourceId, _now: f64, _queue_len: usize) {
        self.enqueues += 1;
    }
    fn on_span(&mut self, _slot: u32, _serial: u64, _point: SpanPoint, _now: f64) {
        self.spans += 1;
    }
}

#[test]
fn counting_probe_sees_kernel_traffic() {
    let (base, transactions, params) = setup(2);
    let mut simulation = Simulation::new(&base, params, 0.0, 3);
    let (result, probe) = simulation.run_phase_probed(transactions, 0, CountingProbe::default());
    assert_eq!(probe.dispatches, result.events);
    assert!(probe.spans > 0);
    // Two admitted transactions contend for the disk and the network.
    assert!(probe.enqueues > 0);
}
