//! CSV and JSON report writers.
//!
//! Sweep results (and any other tabular artifact — `voodb repro` reuses
//! these writers for the paper's figures and tables) are persisted under
//! `target/voodb-out/` as `<name>.csv` and `<name>.json`, so CI can
//! upload them and plotting scripts can consume them without scraping
//! stdout. [`check_same_tendency`] is the shape check of the figure
//! tables.
//!
//! Both writers are hand-rolled (no serde in the offline workspace) and
//! deterministic: the same [`ReportTable`] always yields byte-identical
//! files, which is what the 1-vs-8-thread determinism test asserts.

use crate::harness::mean_of;
use crate::runner::SweepResult;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use vtrace::json::write_json_string;

/// Default output directory, relative to the working directory.
pub const DEFAULT_OUT_DIR: &str = "target/voodb-out";

/// One cell of a report table.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A text cell.
    Text(String),
    /// A numeric cell (non-finite values serialize as `null` in JSON).
    Num(f64),
    /// An integer cell.
    Int(i64),
}

impl Cell {
    fn csv(&self) -> String {
        match self {
            Cell::Text(s) => csv_escape(s),
            Cell::Num(f) => format_num(*f),
            Cell::Int(n) => n.to_string(),
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Cell::Text(s) => write_json_string(out, s),
            Cell::Num(f) if f.is_finite() => out.push_str(&format_num(*f)),
            Cell::Num(_) => out.push_str("null"),
            Cell::Int(n) => {
                let _ = write!(out, "{n}");
            }
        }
    }
}

/// A titled table: the unit both writers consume.
#[derive(Clone, Debug, Default)]
pub struct ReportTable {
    /// Table title (becomes the JSON `title` field and a CSV comment).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows; each must have `columns.len()` cells.
    pub rows: Vec<Vec<Cell>>,
}

impl ReportTable {
    /// Appends a row (must match the column count).
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(row);
    }

    /// Renders as CSV (leading `# title` comment, header row, data rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| csv_escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(Cell::csv).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Renders as a pretty-printed JSON object
    /// `{"title": …, "columns": […], "rows": [[…], …]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"title\": ");
        write_json_string(&mut out, &self.title);
        out.push_str(",\n  \"columns\": [");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(&mut out, c);
        }
        out.push_str("],\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    [");
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                cell.write_json(&mut out);
            }
            out.push_str(if i + 1 == self.rows.len() {
                "]\n"
            } else {
                "],\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `<dir>/<stem>.csv` and `<dir>/<stem>.json`, creating the
    /// directory as needed. Returns the two paths.
    ///
    /// # Errors
    /// Propagates I/O errors as strings.
    pub fn write(&self, dir: &Path, stem: &str) -> Result<(PathBuf, PathBuf), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let csv_path = dir.join(format!("{stem}.csv"));
        let json_path = dir.join(format!("{stem}.json"));
        std::fs::write(&csv_path, self.to_csv())
            .map_err(|e| format!("writing {}: {e}", csv_path.display()))?;
        std::fs::write(&json_path, self.to_json())
            .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
        Ok((csv_path, json_path))
    }
}

/// Flattens a sweep result into the wide per-point table: one row per
/// sweep point, the axis coordinates first, then `mean`/`ci95` column
/// pairs per metric, then the replication count.
pub fn sweep_table(result: &SweepResult) -> ReportTable {
    let metric_names: Vec<String> = result
        .points
        .first()
        .map(|p| p.metrics.iter().map(|m| m.name.clone()).collect())
        .unwrap_or_default();
    let mut columns: Vec<String> = vec!["point".to_owned()];
    columns.extend(result.axes.iter().cloned());
    for name in &metric_names {
        columns.push(format!("{name}_mean"));
        columns.push(format!("{name}_ci95"));
    }
    columns.push("reps".to_owned());
    let mut table = ReportTable {
        title: format!(
            "{} — {} (seed {}, {} replications, 95% CI)",
            result.scenario, result.description, result.seed, result.replications
        ),
        columns,
        rows: Vec::new(),
    };
    for point in &result.points {
        let mut row = vec![Cell::Text(point.label.clone())];
        for axis in &result.axes {
            let coord = point
                .coords
                .iter()
                .find(|(param, _)| param == axis)
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            row.push(Cell::Text(coord));
        }
        for name in &metric_names {
            let m = point
                .metrics
                .iter()
                .find(|m| &m.name == name)
                .expect("metric present at every point");
            row.push(Cell::Num(m.mean));
            row.push(Cell::Num(m.half_width));
        }
        row.push(Cell::Int(result.replications as i64));
        table.push_row(row);
    }
    table
}

/// Writes the sweep's CSV and JSON reports to `dir` (usually
/// [`DEFAULT_OUT_DIR`]), named after the scenario.
///
/// # Errors
/// Propagates I/O errors as strings.
pub fn write_sweep_reports(result: &SweepResult, dir: &Path) -> Result<(PathBuf, PathBuf), String> {
    sweep_table(result).write(dir, &result.scenario)
}

/// Checks the tendency the paper's figures show: the `bench_ios` and
/// `sim_ios` series of a sweep must be monotone in the same direction
/// (within `slack` relative tolerance for replication noise). Returns an
/// error message when the shapes disagree.
pub fn check_same_tendency(result: &SweepResult, slack: f64) -> Result<(), String> {
    let points = &result.points;
    if points.len() < 2 {
        return Ok(());
    }
    let direction = |name: &str| {
        if mean_of(&points[points.len() - 1], name) > mean_of(&points[0], name) {
            1
        } else {
            -1
        }
    };
    if direction("bench_ios") != direction("sim_ios") {
        return Err("benchmark and simulation trend in opposite directions".into());
    }
    // Within each series, successive points may wiggle by the slack but
    // the overall direction must hold pairwise across the span.
    for name in ["bench_ios", "sim_ios"] {
        let d = direction(name) as f64;
        for w in points.windows(2) {
            let (a, b) = (mean_of(&w[0], name), mean_of(&w[1], name));
            if d * (b - a) < -slack * a.abs() {
                return Err(format!(
                    "{name} series reverses tendency between {} and {}",
                    w[0].label, w[1].label
                ));
            }
        }
    }
    Ok(())
}

/// Formats a float compactly but losslessly (shortest round-trip repr;
/// `inf`/`nan` spelled out — CSV consumers see the same tokens TOML
/// uses).
fn format_num(f: f64) -> String {
    if f.is_nan() {
        "nan".to_owned()
    } else if f.is_infinite() {
        if f > 0.0 { "inf" } else { "-inf" }.to_owned()
    } else {
        format!("{f}")
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricEstimate, PointSummary};

    fn demo_table() -> ReportTable {
        let mut t = ReportTable {
            title: "Demo, table".into(),
            columns: ["x", "mean", "note"].map(String::from).to_vec(),
            rows: Vec::new(),
        };
        t.push_row(vec![
            Cell::Int(1),
            Cell::Num(10.5),
            Cell::Text("plain".into()),
        ]);
        t.push_row(vec![
            Cell::Int(2),
            Cell::Num(f64::INFINITY),
            Cell::Text("with, comma and \"quotes\"".into()),
        ]);
        t
    }

    #[test]
    fn csv_escapes_and_formats() {
        let csv = demo_table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# Demo, table");
        assert_eq!(lines[1], "x,mean,note");
        assert_eq!(lines[2], "1,10.5,plain");
        assert_eq!(lines[3], "2,inf,\"with, comma and \"\"quotes\"\"\"");
    }

    #[test]
    fn json_is_wellformed_and_nulls_nonfinite() {
        let json = demo_table().to_json();
        assert!(json.contains("\"title\": \"Demo, table\""));
        assert!(json.contains("[1, 10.5, \"plain\"]"));
        assert!(json.contains("[2, null, "));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }

    #[test]
    fn writes_both_files() {
        let dir = std::env::temp_dir().join(format!("voodb-report-test-{}", std::process::id()));
        let (csv, json) = demo_table().write(&dir, "demo").unwrap();
        assert!(csv.exists() && json.exists());
        let content = std::fs::read_to_string(&csv).unwrap();
        assert!(content.starts_with("# Demo, table"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = ReportTable {
            title: "t".into(),
            columns: ["a", "b"].map(String::from).to_vec(),
            rows: Vec::new(),
        };
        t.push_row(vec![Cell::Int(1)]);
    }

    fn sweep(series: &[(f64, f64, f64)]) -> SweepResult {
        let estimate = |name: &str, mean: f64| MetricEstimate {
            name: name.to_owned(),
            mean,
            half_width: 1.0,
            n: 10,
        };
        SweepResult {
            scenario: "test".into(),
            description: String::new(),
            replications: 10,
            seed: 42,
            axes: vec!["x".into()],
            points: series
                .iter()
                .map(|&(x, bench, sim)| PointSummary {
                    coords: vec![("x".into(), x.to_string())],
                    label: format!("x={x}"),
                    metrics: vec![estimate("bench_ios", bench), estimate("sim_ios", sim)],
                })
                .collect(),
        }
    }

    #[test]
    fn same_tendency_accepts_monotone_series() {
        let result = sweep(&[(1.0, 10.0, 12.0), (2.0, 20.0, 22.0), (3.0, 30.0, 33.0)]);
        assert!(check_same_tendency(&result, 0.05).is_ok());
    }

    #[test]
    fn same_tendency_accepts_decreasing_series() {
        let result = sweep(&[(8.0, 50.0, 55.0), (16.0, 20.0, 22.0), (64.0, 5.0, 6.0)]);
        assert!(check_same_tendency(&result, 0.05).is_ok());
    }

    #[test]
    fn opposite_directions_rejected() {
        let result = sweep(&[(1.0, 10.0, 30.0), (2.0, 20.0, 15.0)]);
        assert!(check_same_tendency(&result, 0.05).is_err());
    }

    #[test]
    fn big_reversal_rejected_small_wiggle_tolerated() {
        // Wiggle within slack.
        let result = sweep(&[(1.0, 10.0, 10.0), (2.0, 9.9, 10.1), (3.0, 30.0, 31.0)]);
        assert!(check_same_tendency(&result, 0.05).is_ok());
        // Hard reversal.
        let result = sweep(&[(1.0, 10.0, 10.0), (2.0, 5.0, 11.0), (3.0, 30.0, 31.0)]);
        assert!(check_same_tendency(&result, 0.05).is_err());
    }
}
