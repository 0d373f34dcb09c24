//! Figures 6 & 7 — mean number of I/Os depending on the number of
//! instances (O2, 20 and 50 classes).
//!
//! Sweep: NO ∈ {500, 1000, 2000, 5000, 10000, 20000}, Table 5 workload,
//! O2 parameterised per Table 4 (page server, 16 MB cache, LRU), on the
//! page-server engine and in the model
//! (`crates/bench/scenarios/fig06_o2_base_size_20c.toml`,
//! `scenarios/o2_base_size.toml`).
//!
//! ```text
//! cargo run --release -p voodb-bench --bin fig06_07_o2_base_size -- [--reps 10] [--seed 42]
//! ```

use voodb_bench::{figure, print_report, run_options, scenarios, Args, COMMON_KEYS};

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        return Args::print_help("fig06_07_o2_base_size", &COMMON_KEYS);
    }
    let options = run_options(&args);
    for text in [scenarios::FIG06, scenarios::FIG07] {
        print_report(&figure(text, &options), None);
    }
}
