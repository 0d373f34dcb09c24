//! Figure 11 — mean number of I/Os depending on the available main memory
//! (Texas).
//!
//! Sweep: memory ∈ {8, 12, 16, 24, 32, 64} MB on the mid-sized base
//! (NC = 50, NO = 20 000), Table 5 workload, on the Texas engine and in
//! the model (`scenarios/texas_memory.toml`). The paper's shape: once the
//! memory falls below the database size, Texas's page-reservation
//! loading policy balloons the working set and I/Os grow super-linearly
//! ("clearly exponential … a costly swap", §4.3.2).
//!
//! ```text
//! cargo run --release -p voodb-bench --bin fig11_texas_memory -- [--reps 10] [--seed 42]
//! ```

use voodb_bench::{figure, mean_of, print_report, run_options, scenarios, Args, COMMON_KEYS};

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        return Args::print_help("fig11_texas_memory", &COMMON_KEYS);
    }
    let result = figure(scenarios::FIG11, &run_options(&args));
    print_report(&result, None);
    // The exponential blow-up: the 8 MB point must dwarf the 64 MB point.
    if let (Some(first), Some(last)) = (result.points.first(), result.points.last()) {
        let blowup = |name| mean_of(first, name) / mean_of(last, name).max(1.0);
        println!(
            "blow-up factor 8MB/64MB: bench {:.1}x, sim {:.1}x",
            blowup("bench_ios"),
            blowup("sim_ios")
        );
    }
}
