//! Golden tests pinning the deterministic CLI output.
//!
//! `voodb params` and `voodb list` must render identically on every
//! machine and every run: `params` sorts the key table
//! lexicographically, `list` sorts the library by file name (never
//! directory order). These tests pin the exact text, so any drift —
//! reordering, a renamed preset, a changed description — shows up as a
//! reviewable diff. When a preset or parameter legitimately changes,
//! update the expected strings below to match the new output.

use scenario::{library_listing, params_help_text};
use std::path::PathBuf;

const EXPECTED_PARAMS: &str = concat!(
    "Supported scenario parameters (every key is also a valid sweep axis):\n",
    "\n",
    "[database]\n",
    "  database.base_size                   integer    BASESIZE: base instance size increment, bytes\n",
    "  database.class_locality              integer    CLOCREF: class locality window\n",
    "  database.classes                     integer    NC: classes in the schema\n",
    "  database.instance_dist               string     DIST_CLASS: uniform | zipf-THETA\n",
    "  database.max_refs                    integer    MAXNREF: max references per class\n",
    "  database.object_locality             integer    OLOCREF: object locality window\n",
    "  database.objects                     integer    NO: total instances\n",
    "  database.ref_dist                    string     DIST_REF: uniform | zipf-THETA\n",
    "  database.ref_types                   integer    NREFT: reference types\n",
    "  database.size_factor                 integer    SIZEFACTOR: instance size = BASESIZE x U[1, SIZEFACTOR]\n",
    "\n",
    "[system]\n",
    "  system.buffer_pages                  integer    BUFFSIZE: buffer size in pages\n",
    "  system.cache_mb                      integer    BUFFSIZE via the O2 convention (240 frames/MB)\n",
    "  system.clustering                    string     CLUSTP: none | dstc | static-graph-N (max cluster size N)\n",
    "  system.disk                          string     disk timing preset: table3 | o2 | texas\n",
    "  system.disk_latency_ms               float      DISKLAT: rotational latency, ms\n",
    "  system.disk_search_ms                float      DISKSEA: head search time, ms\n",
    "  system.disk_transfer_ms              float      DISKTRA: page transfer time, ms\n",
    "  system.dstc_max_unit_size            integer    DSTC maximum objects per clustering unit\n",
    "  system.dstc_observation_period       integer    DSTC observation period, in object accesses\n",
    "  system.dstc_tfa                      float      DSTC elementary filtering threshold Tfa\n",
    "  system.dstc_tfc                      float      DSTC consolidation threshold Tfc\n",
    "  system.dstc_tfe                      float      DSTC extraction threshold Tfe\n",
    "  system.dstc_trigger_threshold        integer    DSTC flagged-object count arming automatic reorganisation\n",
    "  system.dstc_w                        float      DSTC ageing factor w\n",
    "  system.get_lock_ms                   float      GETLOCK: lock acquisition time, ms\n",
    "  system.initial_placement             string     INITPL: sequential | optimized-sequential | random-SEED\n",
    "  system.memory_mb                     integer    BUFFSIZE via the Texas convention (230 frames/MB)\n",
    "  system.multiprogramming_level        integer    MULTILVL: transactions served concurrently\n",
    "  system.network_throughput_mbps       float|inf  NETTHRU: network throughput in MB/s\n",
    "  system.page_replacement              string     PGREP: random-SEED | fifo | lru | lru-K | lfu | clock | gclock-W\n",
    "  system.page_size                     integer    PGSIZE: disk page size in bytes\n",
    "  system.release_lock_ms               float      RELLOCK: lock release time, ms\n",
    "  system.swizzle                       boolean    Texas-style pointer-swizzling loading policy\n",
    "  system.system_class                  string     SYSCLASS: centralized | object-server | page-server | db-server | hybrid-N (N servers)\n",
    "\n",
    "[workload]\n",
    "  workload.arrival                     string     ARRIVAL: closed | poisson-RATE (tx/s, open system)\n",
    "  workload.cold_transactions           integer    COLDN: unmeasured cold-run transactions\n",
    "  workload.duration_ms                 float      DURATION: time-horizon phase length in simulated ms (0 = count-based COLDN/HOTN)\n",
    "  workload.hierarchy_depth             integer    HIEDEPTH: hierarchy traversal depth\n",
    "  workload.hot_transactions            integer    HOTN: measured warm-run transactions\n",
    "  workload.p_hierarchy                 float      PHIER: hierarchy traversal probability\n",
    "  workload.p_set                       float      PSET: set-oriented access probability\n",
    "  workload.p_simple                    float      PSIMPLE: simple traversal probability\n",
    "  workload.p_stochastic                float      PSTOCH: stochastic traversal probability\n",
    "  workload.p_write                     float      PWRITE: per-access update probability\n",
    "  workload.root_dist                   string     ROOTDIST: uniform | zipf-THETA | hotset-FRACTION-PHOT\n",
    "  workload.set_depth                   integer    SETDEPTH: set-oriented access depth\n",
    "  workload.simple_depth                integer    SIMDEPTH: simple traversal depth\n",
    "  workload.stochastic_depth            integer    STODEPTH: stochastic traversal depth\n",
    "  workload.think_time_ms               float      THINKTIME: mean think time, ms\n",
    "  workload.user_model                  string     USERREP: per-user (small-N oracle) | cohort (O(in-flight + cohorts) memory, scales to 1M users)\n",
    "  workload.users                       integer    NUSERS: users of the closed system\n",
    "  workload.warmup_ms                   float      WARMUP: unmeasured warm-up prefix of a time-horizon phase, ms\n",
);

const EXPECTED_LISTING: &str = concat!(
    "dstc_mid.toml                DSTC under favorable conditions: auto-triggered clustering, 64 vs 3 MB [2 x10 reps] sweeps: system.memory_mb\n",
    "million_users.toml           Closed-system user scaling to 1M via cohort batching, page server [8 x3 reps] sweeps: workload.users, system.multiprogramming_level\n",
    "multiserver_mpl.toml         Multiprogramming level x system class, 8 users with think time [16 x10 reps] sweeps: system.multiprogramming_level, system.system_class\n",
    "o2_base_size.toml            O2 (Table 4): mean I/Os vs. number of instances, 50 classes [6 x10 reps] sweeps: database.objects\n",
    "o2_cache.toml                O2 (Table 4): mean I/Os vs. server cache size, mid-sized base [6 x10 reps] sweeps: system.cache_mb\n",
    "open_arrival.toml            Open Poisson arrivals x MPL over a time-horizon phase, page server [9 x5 reps] sweeps: workload.arrival, system.multiprogramming_level\n",
    "smoke.toml                   Tiny end-to-end sweep for CI and tests [2 x3 reps] sweeps: system.buffer_pages\n",
    "texas_base_size.toml         Texas (Table 4): mean I/Os vs. number of instances, 50 classes [6 x10 reps] sweeps: database.objects\n",
    "texas_memory.toml            Texas (Table 4): mean I/Os vs. available memory, mid-sized base [6 x10 reps] sweeps: system.memory_mb\n",
    "trace_demo.toml              Traced page-server run: lifecycle spans, tail latencies, utilization [2 x3 reps] sweeps: system.multiprogramming_level\n",
);

#[test]
fn params_output_is_pinned_and_sorted() {
    let text = params_help_text();
    assert_eq!(text, EXPECTED_PARAMS, "`voodb params` output drifted");
    // Within each section the keys are sorted.
    let keys: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|k| k.contains('.'))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "parameter keys must be sorted");
}

#[test]
fn library_listing_is_pinned_and_sorted() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let listing = library_listing(&dir).expect("scenarios/ readable");
    assert_eq!(listing, EXPECTED_LISTING, "`voodb list` output drifted");
    let files: Vec<&str> = listing
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let mut sorted = files.clone();
    sorted.sort_unstable();
    assert_eq!(files, sorted, "listing must be sorted by file name");
}
