//! Figure 8 — mean number of I/Os depending on the server cache size
//! (O2).
//!
//! Sweep: cache ∈ {8, 12, 16, 24, 32, 64} MB on a fixed mid-sized base
//! (NC = 50, NO = 20 000, ~20 MB), Table 5 workload, on the page-server
//! engine and in the model (`scenarios/o2_cache.toml`). The paper's
//! shape: performance degrades once the database outgrows the cache,
//! roughly linearly in the shortfall.
//!
//! ```text
//! cargo run --release -p voodb-bench --bin fig08_o2_cache -- [--reps 10] [--seed 42]
//! ```

use voodb_bench::{figure, print_report, run_options, scenarios, Args, COMMON_KEYS};

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        return Args::print_help("fig08_o2_cache", &COMMON_KEYS);
    }
    print_report(&figure(scenarios::FIG08, &run_options(&args)), None);
}
