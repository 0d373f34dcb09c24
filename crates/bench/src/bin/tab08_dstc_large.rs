//! Table 8 — effects of DSTC on the performances of Texas, "large" base.
//!
//! The paper could not build a truly large base (Texas/DSTC technical
//! problems), so it made the mid-sized base *effectively* large by
//! shrinking the memory until the working set no longer fit (64 MB →
//! 8 MB for their ~1890-page working set, §4.4). Our favorable workload
//! touches ~1170 pages, so the equivalent pressure point with our
//! frames-per-MB calibration is 3 MB
//! (`crates/bench/scenarios/tab08_dstc_large.toml`). Same protocol as
//! Table 6. Expected shape: the gain grows by several-fold because page
//! replacements make good clustering far more valuable.
//!
//! ```text
//! cargo run --release -p voodb-bench --bin tab08_dstc_large -- [--reps 10] [--seed 42]
//! ```

use voodb_bench::{dstc_table, mean_of, print_report, run_options, scenarios, Args, COMMON_KEYS};

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        return Args::print_help("tab08_dstc_large", &COMMON_KEYS);
    }
    let result = dstc_table(scenarios::TAB08, &run_options(&args));
    print_report(&result, None);
    let point = &result.points[0];
    println!(
        "gain under memory pressure: bench {:.1}x, sim {:.1}x (paper: 29.5x / 28.4x)",
        mean_of(point, "bench_gain"),
        mean_of(point, "sim_gain")
    );
}
