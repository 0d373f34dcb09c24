//! Tables 6 & 7 — effects of DSTC on the performances of Texas,
//! mid-sized base.
//!
//! Protocol of §4.4: pure depth-3 hierarchy traversals with hot-set roots
//! ("favorable conditions") on the mid-sized base (NC = 50, NO = 20 000,
//! ~20 MB) with 64 MB of memory
//! (`crates/bench/scenarios/tab06_07_dstc_mid.toml`). Measured, per the
//! paper, on the Texas engine and in the model:
//!
//! * pre-clustering usage (cold run),
//! * clustering overhead — where the physical-OID engine pays the
//!   whole-database reference-patch scan the simulation (logical OIDs)
//!   does not, the paper's flagged 36× anomaly (`overhead_ratio`),
//! * post-clustering usage (cold run of the same transactions),
//! * gain, and the Table 7 cluster statistics.
//!
//! ```text
//! cargo run --release -p voodb-bench --bin tab06_07_dstc_mid -- [--reps 10] [--seed 42]
//! ```

use voodb_bench::{dstc_table, mean_of, print_report, run_options, scenarios, Args, COMMON_KEYS};

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        return Args::print_help("tab06_07_dstc_mid", &COMMON_KEYS);
    }
    let result = dstc_table(scenarios::TAB06, &run_options(&args));
    print_report(&result, None);
    println!(
        "physical-OID overhead anomaly (bench/sim): {:.1}x \
         (paper: 36.1x — driven by the whole-database reference patch scan)",
        mean_of(&result.points[0], "overhead_ratio")
    );
}
