//! The paper's evaluation as one fixed artifact table, run by
//! `voodb repro`.
//!
//! Each [`Artifact`] is an embedded scenario file and the job that runs
//! it on the sweep runner (see [`JobKind`] and [`crate::harness`]). The
//! paper's Figures 6–11 and Tables 6–8 come first, in the paper's order
//! (eight tables: Table 7 shares Table 6's); three simulated studies
//! that go beyond the paper follow. Every other knob — base size, buffer or memory size, DSTC
//! tuning — lives in the scenario file.

use crate::harness::{
    dstc_sim_job, dstc_twin_job, latency_job, mean_of, push_latency, push_ratio, twin_job, Twin,
};
use crate::{run_sweep_jobs, RunOptions, Scenario, SweepResult};
use desp::MetricSet;

/// How an artifact's replications run, and the derived columns its
/// table adds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// A figure twin ([`twin_job`]): `bench_ios` and `sim_ios`, their
    /// bench/sim `ratio` of means and the model's response-time
    /// percentiles.
    Figure,
    /// A DSTC table twin ([`dstc_twin_job`]): the §4.4 rows of both
    /// sides, `bench_gain`, `sim_gain` (pre/post) and `overhead_ratio`
    /// (bench/sim reorganisation I/Os, the physical-OID anomaly).
    DstcTable,
    /// A simulated §4.4 study ([`dstc_sim_job`]) and its pre/post `gain`.
    DstcStudy,
    /// The model as `voodb run` runs it ([`latency_job`]), plus the
    /// response-time percentiles of the merged replications.
    Latency,
    /// A [`JobKind::DstcStudy`] on the base configuration, then one per
    /// `[[sweep]]` axis with the other axes at their base values
    /// (`voodb run` would cross the axes instead).
    DstcOneAtATime,
}

/// What prints after an artifact's tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Note {
    /// Nothing.
    None,
    /// Fig. 11's blow-up: first over last point, on both columns.
    Blowup,
    /// Table 6's physical-OID overhead anomaly.
    Anomaly,
    /// The Table 6 and Table 8 gains next to the paper's.
    Summary,
    /// A fixed reading of the table.
    Reading(&'static str),
}

/// One reproducible artifact.
#[derive(Clone, Copy, Debug)]
pub struct Artifact {
    /// Report stem: the artifact persists as `<out>/<stem>.csv` and
    /// `.json` (a [`JobKind::DstcOneAtATime`] artifact as one
    /// `<stem>_<axis>` pair per table).
    pub stem: &'static str,
    /// The embedded scenario file.
    pub scenario: &'static str,
    /// The job that runs it.
    pub job: JobKind,
    /// What prints after its tables.
    pub note: Note,
}

/// Every artifact `voodb repro` knows, in run order.
pub const ARTIFACTS: [Artifact; 11] = [
    Artifact {
        stem: "fig06_o2_base_size_20c",
        scenario: include_str!("../artifacts/fig06_o2_base_size_20c.toml"),
        job: JobKind::Figure,
        note: Note::None,
    },
    Artifact {
        stem: "fig07_o2_base_size_50c",
        scenario: include_str!("../../../scenarios/o2_base_size.toml"),
        job: JobKind::Figure,
        note: Note::None,
    },
    Artifact {
        stem: "fig08_o2_cache",
        scenario: include_str!("../../../scenarios/o2_cache.toml"),
        job: JobKind::Figure,
        note: Note::None,
    },
    Artifact {
        stem: "fig09_texas_base_size_20c",
        scenario: include_str!("../artifacts/fig09_texas_base_size_20c.toml"),
        job: JobKind::Figure,
        note: Note::None,
    },
    Artifact {
        stem: "fig10_texas_base_size_50c",
        scenario: include_str!("../../../scenarios/texas_base_size.toml"),
        job: JobKind::Figure,
        note: Note::None,
    },
    Artifact {
        stem: "fig11_texas_memory",
        scenario: include_str!("../../../scenarios/texas_memory.toml"),
        job: JobKind::Figure,
        note: Note::Blowup,
    },
    Artifact {
        stem: "tab06_07_dstc_mid",
        scenario: include_str!("../artifacts/tab06_07_dstc_mid.toml"),
        job: JobKind::DstcTable,
        note: Note::Anomaly,
    },
    Artifact {
        stem: "tab08_dstc_large",
        scenario: include_str!("../artifacts/tab08_dstc_large.toml"),
        job: JobKind::DstcTable,
        note: Note::Summary,
    },
    Artifact {
        stem: "policy_sweep",
        scenario: include_str!("../artifacts/policy_sweep.toml"),
        job: JobKind::Latency,
        note: Note::None,
    },
    Artifact {
        stem: "strategy_compare",
        scenario: include_str!("../artifacts/strategy_compare.toml"),
        job: JobKind::DstcStudy,
        note: Note::Reading(
            "reading: DSTC clusters what the workload actually touches; the \
             static baseline clusters the whole reference graph blindly (huge \
             overhead, diluted benefit); under tight memory the differences \
             amplify — the comparison the paper set out to enable.",
        ),
    },
    Artifact {
        stem: "dstc_sweep",
        scenario: include_str!("../artifacts/dstc_sweep.toml"),
        job: JobKind::DstcOneAtATime,
        note: Note::Reading(
            "reading: higher thresholds cluster less (lower overhead, lower gain); \
             ageing w trades adaptivity against stability; unit size trades \
             intra-cluster locality against packing.",
        ),
    },
];

/// One table of an artifact run.
#[derive(Debug)]
pub struct Report {
    /// Its report stem.
    pub stem: String,
    /// Its sweep result, derived columns included.
    pub result: SweepResult,
}

impl Artifact {
    /// The artifact's tables before running: each one's stem and
    /// scenario.
    ///
    /// # Errors
    /// Returns the embedded scenario's parse error.
    fn tables(&self) -> Result<Vec<(String, Scenario)>, String> {
        let scenario = Scenario::parse(self.scenario).map_err(|e| format!("{}: {e}", self.stem))?;
        if self.job != JobKind::DstcOneAtATime {
            return Ok(vec![(self.stem.to_owned(), scenario)]);
        }
        let one_axis = |stem: String, sweep| {
            let scenario = Scenario {
                sweep,
                ..scenario.clone()
            };
            (stem, scenario)
        };
        let mut tables = vec![one_axis(format!("{}_base", self.stem), Vec::new())];
        for axis in &scenario.sweep {
            let name = axis.param.rsplit('.').next().unwrap_or(&axis.param);
            tables.push(one_axis(
                format!("{}_{name}", self.stem),
                vec![axis.clone()],
            ));
        }
        Ok(tables)
    }

    /// Runs every table of the artifact under `options`.
    ///
    /// # Errors
    /// Returns the first parse or validation error.
    pub fn run(&self, options: &RunOptions) -> Result<Vec<Report>, String> {
        self.tables()?
            .into_iter()
            .map(|(stem, scenario)| {
                let result = self.run_table(&scenario, options)?;
                Ok(Report { stem, result })
            })
            .collect()
    }

    fn run_table(&self, scenario: &Scenario, options: &RunOptions) -> Result<SweepResult, String> {
        Ok(match self.job {
            JobKind::Figure => {
                let (mut result, twins) = run_sweep_jobs(
                    scenario,
                    options,
                    |_, base, point, seed| twin_job(base, point, seed),
                    |t: &Twin| t.metrics.clone(),
                )?;
                push_ratio(&mut result, "ratio", "bench_ios", "sim_ios");
                push_latency(&mut result, twins.iter().map(|t| &t.latency));
                result
            }
            JobKind::DstcTable => {
                let (mut result, _) = run_sweep_jobs(
                    scenario,
                    options,
                    |_, base, point, seed| dstc_twin_job(base, point, seed),
                    MetricSet::clone,
                )?;
                push_ratio(&mut result, "bench_gain", "bench_pre_ios", "bench_post_ios");
                push_ratio(&mut result, "sim_gain", "sim_pre_ios", "sim_post_ios");
                push_ratio(
                    &mut result,
                    "overhead_ratio",
                    "bench_overhead_ios",
                    "sim_overhead_ios",
                );
                result
            }
            JobKind::DstcStudy | JobKind::DstcOneAtATime => {
                let (mut result, _) = run_sweep_jobs(
                    scenario,
                    options,
                    |_, base, point, seed| dstc_sim_job(base, point, seed),
                    MetricSet::clone,
                )?;
                push_ratio(&mut result, "gain", "pre_ios", "post_ios");
                result
            }
            JobKind::Latency => {
                let (mut result, outcomes) = run_sweep_jobs(
                    scenario,
                    options,
                    |_, base, point, seed| latency_job(base, point, seed),
                    |(phase, _)| phase.to_metrics(),
                )?;
                push_latency(&mut result, outcomes.iter().map(|(_, hist)| hist));
                result
            }
        })
    }
}

impl Note {
    /// The lines to print once an artifact's tables are done; `done`
    /// holds every table of the run so far, the artifact's own last.
    pub fn lines(&self, done: &[Report]) -> Vec<String> {
        let table = |stem: &str| done.iter().find(|r| r.stem == stem);
        let Some(own) = done.last() else {
            return Vec::new();
        };
        let points = &own.result.points;
        match self {
            Note::None => Vec::new(),
            Note::Blowup => {
                let (first, last) = (&points[0], &points[points.len() - 1]);
                let blowup = |name| mean_of(first, name) / mean_of(last, name).max(1.0);
                vec![format!(
                    "blow-up factor 8MB/64MB: bench {:.1}x, sim {:.1}x",
                    blowup("bench_ios"),
                    blowup("sim_ios")
                )]
            }
            Note::Anomaly => vec![format!(
                "physical-OID overhead anomaly (bench/sim): {:.1}x \
                 (paper: 36.1x — driven by the whole-database reference patch scan)",
                mean_of(&points[0], "overhead_ratio")
            )],
            Note::Summary => {
                let mut lines = vec!["summary:".to_owned()];
                if let Some(mid) = table("tab06_07_dstc_mid") {
                    let mid = &mid.result.points[0];
                    lines.push(format!(
                        "  table6 gain: bench {:.2}x sim {:.2}x (paper 5.71 / 5.36); \
                         overhead anomaly {:.1}x (paper 36.1x)",
                        mean_of(mid, "bench_gain"),
                        mean_of(mid, "sim_gain"),
                        mean_of(mid, "overhead_ratio")
                    ));
                }
                if let Some(large) = table("tab08_dstc_large") {
                    let large = &large.result.points[0];
                    lines.push(format!(
                        "  table8 gain: bench {:.2}x sim {:.2}x (paper 29.47 / 28.42)",
                        mean_of(large, "bench_gain"),
                        mean_of(large, "sim_gain")
                    ));
                }
                lines
            }
            Note::Reading(text) => vec![(*text).to_owned()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufmgr::{DiskTimings, PolicyKind};
    use clustering::InitialPlacement;
    use std::collections::BTreeSet;
    use voodb::SystemClass;

    #[test]
    fn every_artifact_parses_validates_and_has_a_unique_stem() {
        let mut stems = BTreeSet::new();
        for artifact in &ARTIFACTS {
            assert!(
                stems.insert(artifact.stem.to_owned()),
                "duplicate {}",
                artifact.stem
            );
            let tables = artifact.tables().unwrap();
            for (stem, scenario) in &tables {
                scenario
                    .validate()
                    .unwrap_or_else(|e| panic!("{stem}: {e}"));
                if tables.len() > 1 {
                    assert!(stems.insert(stem.clone()), "duplicate {stem}");
                }
            }
        }
        assert_eq!(stems.len(), ARTIFACTS.len() + 6);
    }

    /// The engines hard-code Table 4 (4 KB pages, optimized-sequential
    /// placement, LRU, the O2 or Texas disk, swizzling on Texas only),
    /// so a twin artifact that set anything else would compare the model
    /// against an engine that does not run its settings.
    #[test]
    fn every_twin_artifact_matches_the_engine_it_runs_on() {
        let mut twins = 0;
        for artifact in &ARTIFACTS {
            if !matches!(artifact.job, JobKind::Figure | JobKind::DstcTable) {
                continue;
            }
            twins += 1;
            for (stem, scenario) in artifact.tables().unwrap() {
                for point in scenario.grid() {
                    let system = &point.config.system;
                    let at = format!("{stem} [{}]", point.label());
                    // DSTC tables run on Texas; figures on either engine.
                    let centralized = match system.system_class {
                        SystemClass::Centralized => true,
                        SystemClass::PageServer if artifact.job == JobKind::Figure => false,
                        other => panic!("{at}: no engine twin for {other}"),
                    };
                    let disk = if centralized {
                        DiskTimings::texas()
                    } else {
                        DiskTimings::o2()
                    };
                    assert_eq!(system.page_size, 4096, "{at}");
                    assert_eq!(
                        system.initial_placement,
                        InitialPlacement::OptimizedSequential,
                        "{at}"
                    );
                    assert_eq!(system.page_replacement, PolicyKind::Lru, "{at}");
                    assert_eq!(system.disk, disk, "{at}");
                    assert_eq!(system.swizzle, centralized, "{at}");
                }
            }
        }
        assert_eq!(twins, 8);
    }
}
