//! Static auditor for the VOODB workspace: determinism rules plus one
//! API rule.
//!
//! Byte-identical replay is the contract every result in this repro
//! rests on: the scheduler differential tests, the streamed ≡
//! materialized pipeline checks, and any future parallel-DES work all
//! compare runs that must be bit-reproducible. The differential tests
//! enforce that contract *dynamically* — for the seeds they happen to
//! sample. This crate enforces it *statically*: a hand-rolled lexer
//! ([`lex`]) and a brace/item-aware rule pass ([`rules`]) scan the
//! workspace sources and flag the constructs that make replay depend
//! on anything other than the scenario and its seed — randomized
//! `HashMap`/`HashSet` iteration order, wall-clock and environment
//! reads, environment-seeded RNGs, NaN-unsound float orderings,
//! unjustified `unsafe`/`#[allow]`, and aborts on the event hot path.
//!
//! The `test-only-pub` rule keeps the product API small: it looks at
//! the whole workspace at once and flags a `pub` item in `crates/*/src`
//! that only tests name, or nothing does.
//!
//! In the spirit of the repo's hand-rolled TOML and JSON parsers, the
//! pass uses no external parser (no `syn`): the offline/vendored
//! dependency policy applies to the tooling too. The trade-off is that
//! the analysis is token-level — see `rules` for its documented
//! limits — which is exactly why the differential tests stay in CI as
//! the dynamic backstop.
//!
//! Entry points: [`FileContext::check`] runs the per-file rules on one
//! in-memory file (the fixture corpus uses this), [`audit_workspace`]
//! runs every rule on the on-disk tree (the `voodb audit` subcommand
//! and the CI gate use this).

pub mod lex;
pub mod rules;

pub use rules::{FileContext, Violation, HOT_PATH_FILES, RESULT_CRATES, RULE_NAMES};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Outcome of auditing a set of files.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All violations, sorted by `(file, line, rule)`.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable report: one `file:line: [rule] message` line per
    /// violation, then a one-line summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        if self.is_clean() {
            out.push_str(&format!(
                "audit: clean — {} files scanned, {} rules, 0 violations\n",
                self.files_scanned,
                RULE_NAMES.len()
            ));
        } else {
            out.push_str(&format!(
                "audit: {} violation{} ({} files scanned, {} rules)\n",
                self.violations.len(),
                if self.violations.len() == 1 { "" } else { "s" },
                self.files_scanned,
                RULE_NAMES.len()
            ));
        }
        out
    }

    /// Machine-readable report, single line. Hand-rolled like the
    /// trace crate's JSON writer; key order is fixed so the output is
    /// golden-testable.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"version\":1,");
        out.push_str(&format!("\"files_scanned\":{},", self.files_scanned));
        out.push_str("\"rules\":[");
        for (i, r) in RULE_NAMES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, r);
        }
        out.push_str("],\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            json_string(&mut out, v.rule);
            out.push_str(",\"file\":");
            json_string(&mut out, &v.file);
            out.push_str(&format!(",\"line\":{},\"message\":", v.line));
            json_string(&mut out, &v.message);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Audits the workspace rooted at `root`. The per-file rules cover
/// every `.rs` file under the facade `src/` and under each
/// `crates/<name>/src/`: the first-party library code whose behaviour
/// determines simulation results. `test-only-pub` also reads
/// `examples/` and `e2ebench/src/`, because code there is what keeps a
/// `pub` item in the product API. Vendored dependencies, tests,
/// benches and fixtures are out of scope.
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    let mut dirs = vec![root.join("src")];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates)?
            .map(|e| e.map(|e| e.path().join("src")))
            .collect::<io::Result<_>>()?;
        entries.sort();
        dirs.extend(entries);
    }
    dirs.push(root.join("examples"));
    dirs.push(root.join("e2ebench").join("src"));
    let mut sources = Vec::new();
    for dir in dirs.into_iter().filter(|dir| dir.is_dir()) {
        let mut files = Vec::new();
        collect_rs(&dir, &mut files)?;
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            sources.push((rel, fs::read_to_string(&file)?));
        }
    }
    let files: Vec<FileContext> = sources
        .iter()
        .map(|(rel, src)| FileContext::new(rel, src))
        .collect();
    let mut report = AuditReport {
        files_scanned: files.len(),
        violations: rules::test_only_pub(&files),
    };
    for file in &files {
        if file.path.starts_with("src/") || file.path.starts_with("crates/") {
            report.violations.extend(file.check());
        }
    }
    report.violations.sort();
    Ok(report)
}

/// Recursively collects `.rs` files, directory entries sorted by name
/// so the scan order (and therefore the report) is deterministic.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_renders_summary_line() {
        let r = AuditReport {
            files_scanned: 3,
            violations: vec![],
        };
        assert!(r.is_clean());
        assert_eq!(
            r.render_text(),
            "audit: clean — 3 files scanned, 8 rules, 0 violations\n"
        );
    }

    #[test]
    fn dirty_report_lists_violations_then_summary() {
        let r = AuditReport {
            files_scanned: 1,
            violations: vec![Violation {
                file: "crates/core/src/x.rs".into(),
                line: 9,
                rule: "hash-iter",
                message: "iteration over hash-ordered `m`".into(),
            }],
        };
        let text = r.render_text();
        assert!(text.starts_with("crates/core/src/x.rs:9: [hash-iter] "));
        assert!(text.ends_with("audit: 1 violation (1 files scanned, 8 rules)\n"));
    }

    #[test]
    fn json_shape_is_stable_and_escaped() {
        let r = AuditReport {
            files_scanned: 2,
            violations: vec![Violation {
                file: "crates/core/src/x.rs".into(),
                line: 4,
                rule: "float-ord",
                message: "needs \"total_cmp\"".into(),
            }],
        };
        let json = r.render_json();
        assert!(json.starts_with("{\"version\":1,\"files_scanned\":2,\"rules\":[\"hash-iter\","));
        assert!(json.contains(
            "\"violations\":[{\"rule\":\"float-ord\",\"file\":\"crates/core/src/x.rs\",\
             \"line\":4,\"message\":\"needs \\\"total_cmp\\\"\"}]}"
        ));
    }
}
