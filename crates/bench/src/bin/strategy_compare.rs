//! Clustering-strategy comparison — the paper's ultimate goal.
//!
//! §5: "The ultimate goal is to compare different clustering strategies,
//! to determine which one performs best in a given set of conditions."
//! This binary does exactly that through the simulator: the same object
//! base and transaction stream run the §4.4 protocol under every
//! built-in strategy (None, DSTC, the static reference-graph baseline),
//! across two memory regimes, reporting usage I/Os, reorganisation
//! overhead, and gain (`crates/bench/scenarios/strategy_compare.toml`).
//!
//! ```text
//! cargo run --release -p voodb-bench --bin strategy_compare -- [--reps 5] [--seed 42]
//! ```

use desp::MetricSet;
use voodb_bench::{
    dstc_sim_job, print_report, push_ratio, run, run_options, scenarios, Args, COMMON_KEYS,
};

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        return Args::print_help("strategy_compare", &COMMON_KEYS);
    }
    let (mut result, _) = run(
        scenarios::STRATEGY_COMPARE,
        &run_options(&args),
        dstc_sim_job,
        MetricSet::clone,
    );
    push_ratio(&mut result, "gain", "pre_ios", "post_ios");
    print_report(&result, None);
    println!(
        "reading: DSTC clusters what the workload actually touches; the \
         static baseline clusters the whole reference graph blindly (huge \
         overhead, diluted benefit); under tight memory the differences \
         amplify — the comparison the paper set out to enable."
    );
}
