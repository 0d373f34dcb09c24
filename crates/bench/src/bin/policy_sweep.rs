//! Ablation — buffer replacement policies under the Table 5 workload.
//!
//! Not a paper artifact: the paper lists the policy spectrum (Table 3
//! `PGREP`) and flags buffering strategies as a prime extension target
//! (§5). This sweep exercises every built-in policy through the simulator
//! under identical conditions (`crates/bench/scenarios/policy_sweep.toml`),
//! demonstrating VOODB's stated purpose of comparing optimisation
//! choices without building a system. Besides the scalar metrics it
//! reports response-time percentiles of the merged replications.
//!
//! ```text
//! cargo run --release -p voodb-bench --bin policy_sweep -- [--reps 5] [--seed 42]
//! ```

use voodb_bench::{
    latency_job, print_report, push_latency, run, run_options, scenarios, Args, COMMON_KEYS,
};

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        return Args::print_help("policy_sweep", &COMMON_KEYS);
    }
    let (mut result, outcomes) = run(
        scenarios::POLICY_SWEEP,
        &run_options(&args),
        latency_job,
        |(phase, _)| phase.to_metrics(),
    );
    push_latency(&mut result, outcomes.iter().map(|(_, hist)| hist));
    print_report(&result, None);
}
