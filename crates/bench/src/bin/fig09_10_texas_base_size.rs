//! Figures 9 & 10 — mean number of I/Os depending on the number of
//! instances (Texas, 20 and 50 classes).
//!
//! Sweep: NO ∈ {500, 1000, 2000, 5000, 10000, 20000}, Table 5 workload,
//! Texas parameterised per Table 4 (centralized, 64 MB host, LRU-replaced
//! VM frames, page reservation on swizzle), on the Texas engine and in
//! the model (`crates/bench/scenarios/fig09_texas_base_size_20c.toml`,
//! `scenarios/texas_base_size.toml`).
//!
//! ```text
//! cargo run --release -p voodb-bench --bin fig09_10_texas_base_size -- [--reps 10] [--seed 42]
//! ```

use voodb_bench::{figure, print_report, run_options, scenarios, Args, COMMON_KEYS};

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        return Args::print_help("fig09_10_texas_base_size", &COMMON_KEYS);
    }
    let options = run_options(&args);
    for text in [scenarios::FIG09, scenarios::FIG10] {
        print_report(&figure(text, &options), None);
    }
}
