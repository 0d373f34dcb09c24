//! DSTC parameter study — the paper's stated next step.
//!
//! §5: "Future work concerning this study is first performing intensive
//! simulation experiments with DSTC … it would be interesting to know the
//! right value for DSTC's parameters in various conditions." This study
//! runs the Table 6 protocol through the simulator on the base
//! configuration of `crates/bench/scenarios/dstc_sweep.toml`, then once
//! per `[[sweep]]` axis of that file (elementary threshold `Tfa`,
//! extraction threshold `Tfe`, ageing `w`, maximum unit size, observation
//! period) with the other axes at their base values, reporting overhead,
//! post-clustering usage, cluster shape and gain for each setting.
//!
//! ```text
//! cargo run --release -p voodb-bench --bin dstc_sweep -- [--reps 5] [--seed 42]
//! ```

use desp::MetricSet;
use scenario::{run_sweep_jobs, Scenario};
use voodb_bench::{
    dstc_sim_job, print_report, push_ratio, run_options, scenarios, Args, COMMON_KEYS,
};

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        return Args::print_help("dstc_sweep", &COMMON_KEYS);
    }
    let options = run_options(&args);
    let study = Scenario::parse(scenarios::DSTC_SWEEP).expect("embedded scenario parses");
    let one_at_a_time =
        std::iter::once(Vec::new()).chain(study.sweep.iter().map(|a| vec![a.clone()]));
    for sweep in one_at_a_time {
        let scenario = Scenario {
            sweep,
            ..study.clone()
        };
        let (mut result, _) = run_sweep_jobs(
            &scenario,
            &options,
            |_, base, point, seed| dstc_sim_job(base, point, seed),
            MetricSet::clone,
        )
        .expect("embedded scenario validates");
        push_ratio(&mut result, "gain", "pre_ios", "post_ios");
        print_report(&result, None);
    }
    println!(
        "reading: higher thresholds cluster less (lower overhead, lower gain); \
         ageing w trades adaptivity against stability; unit size trades \
         intra-cluster locality against packing."
    );
}
