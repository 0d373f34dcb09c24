//! Regenerates every table and figure of the paper's evaluation in one
//! run (Figures 6–11, Tables 6–8).
//!
//! ```text
//! cargo run --release -p voodb-bench --bin repro_all -- \
//!     [--reps 10] [--seed 42] [--out target/voodb-out]
//! ```
//!
//! With `--reps 100` this is the paper's full 100-replication protocol;
//! the default of 10 replications reproduces every shape in under a
//! minute. Besides the stdout record, every artifact is persisted as
//! `<out>/<stem>.csv` + `.json` via the scenario report writers, so CI
//! can upload the whole evaluation.

use scenario::DEFAULT_OUT_DIR;
use std::path::PathBuf;
use voodb_bench::{
    dstc_table, figure, mean_of, print_report, run_options, scenarios, Args, COMMON_KEYS,
};

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        let mut keys = COMMON_KEYS.to_vec();
        keys.extend([(
            "out",
            "artifact directory for CSV/JSON reports (default target/voodb-out)",
        )]);
        return Args::print_help("repro_all", &keys);
    }
    let options = run_options(&args);
    let out = args.get("out", PathBuf::from(DEFAULT_OUT_DIR));

    for (stem, text) in [
        ("fig06_o2_base_size_20c", scenarios::FIG06),
        ("fig07_o2_base_size_50c", scenarios::FIG07),
        ("fig08_o2_cache", scenarios::FIG08),
        ("fig09_texas_base_size_20c", scenarios::FIG09),
        ("fig10_texas_base_size_50c", scenarios::FIG10),
        ("fig11_texas_memory", scenarios::FIG11),
    ] {
        print_report(&figure(text, &options), Some((&out, stem)));
    }

    let mid = dstc_table(scenarios::TAB06, &options);
    print_report(&mid, Some((&out, "tab06_07_dstc_mid")));
    let large = dstc_table(scenarios::TAB08, &options);
    print_report(&large, Some((&out, "tab08_dstc_large")));

    let (mid, large) = (&mid.points[0], &large.points[0]);
    println!("summary:");
    println!(
        "  table6 gain: bench {:.2}x sim {:.2}x (paper 5.71 / 5.36); overhead anomaly {:.1}x (paper 36.1x)",
        mean_of(mid, "bench_gain"),
        mean_of(mid, "sim_gain"),
        mean_of(mid, "overhead_ratio")
    );
    println!(
        "  table8 gain: bench {:.2}x sim {:.2}x (paper 29.47 / 28.42)",
        mean_of(large, "bench_gain"),
        mean_of(large, "sim_gain")
    );
}
