//! Fixture-corpus and workspace-golden tests for the determinism
//! auditor.
//!
//! Each per-file rule has a known-bad snippet that must trip it and a
//! known-clean twin that must pass all rules. The fixtures live under
//! `fixtures/` (not `src/`, so the workspace scan never touches them)
//! and are audited under synthetic workspace paths that put them in the
//! crate the rule governs. The fixtures of the rules clippy enforces
//! are checked by `.github/clippy_fixtures.sh` instead. The
//! workspace-wide `test-only-pub` rule has a fixture workspace of its
//! own, `fixtures/workspace/`. `workspace_audits_clean` is the gate: the
//! workspace itself audits clean.

use audit::{audit_workspace, FileContext, Violation, RULE_NAMES};
use std::path::PathBuf;

/// Runs the per-file rules over one in-memory source at a synthetic
/// workspace path.
fn audit_source(path: &str, src: &str) -> Vec<Violation> {
    FileContext::new(path, src).check()
}

/// (rule, synthetic path, known-bad source, known-clean source).
const CASES: &[(&str, &str, &str, &str)] = &[
    (
        "hash-iter",
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/bad/hash_iter.rs"),
        include_str!("../fixtures/clean/hash_iter.rs"),
    ),
    (
        "unseeded-rng",
        "crates/scenario/src/fixture.rs",
        include_str!("../fixtures/bad/unseeded_rng.rs"),
        include_str!("../fixtures/clean/unseeded_rng.rs"),
    ),
    (
        "float-ord",
        "crates/trace/src/fixture.rs",
        include_str!("../fixtures/bad/float_ord.rs"),
        include_str!("../fixtures/clean/float_ord.rs"),
    ),
];

#[test]
fn every_rule_has_a_corpus_case() {
    // The per-file rules come first; `test-only-pub` has the fixture
    // workspace below.
    let mut covered: Vec<&str> = CASES.iter().map(|(rule, ..)| *rule).collect();
    covered.push("test-only-pub");
    assert_eq!(covered, RULE_NAMES, "corpus must cover the rules in order");
}

#[test]
fn bad_fixtures_trip_exactly_their_rule() {
    for (rule, path, bad, _) in CASES {
        let violations = audit_source(path, bad);
        assert!(
            !violations.is_empty(),
            "[{rule}] bad fixture produced no violations"
        );
        for v in &violations {
            assert_eq!(
                v.rule, *rule,
                "[{rule}] bad fixture tripped a different rule: {v}"
            );
            assert_eq!(v.file, *path);
            assert!(v.line > 0, "[{rule}] violation must carry a line: {v}");
        }
    }
}

#[test]
fn clean_fixtures_pass_every_rule() {
    for (rule, path, _, clean) in CASES {
        let violations = audit_source(path, clean);
        assert!(
            violations.is_empty(),
            "[{rule}] clean fixture flagged: {violations:?}"
        );
    }
}

#[test]
fn bad_fixtures_are_position_sorted() {
    for (rule, path, bad, _) in CASES {
        let violations = audit_source(path, bad);
        let lines: Vec<u32> = violations.iter().map(|v| v.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "[{rule}] diagnostics must be line-sorted");
    }
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `test-only-pub` on a fixture workspace whose item names say where
/// each item is used: only the items that no product code names are
/// flagged.
#[test]
fn test_only_pub_flags_items_only_tests_name() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/workspace");
    let report = audit_workspace(&root).expect("fixture workspace readable");
    // The crate, the example and the benchmark; `tests/` is never read.
    assert_eq!(report.files_scanned, 3);
    let flagged: Vec<(&str, u32, &str)> = report
        .violations
        .iter()
        .map(|v| {
            let item = v.message.split('`').nth(1).unwrap_or_default();
            (v.file.as_str(), v.line, item)
        })
        .collect();
    let lib = "crates/fixture/src/lib.rs";
    assert_eq!(
        flagged,
        [
            (lib, 5, "pub fn only_in_tests"),
            (lib, 9, "pub const ONLY_IN_TEST_CODE"),
            (lib, 13, "pub struct OnlyReexported"),
            (lib, 52, "pub struct OnlyInOwnImpl"),
        ],
        "{}",
        report.render_text()
    );
    assert!(report.violations.iter().all(|v| v.rule == "test-only-pub"));
}

/// The gate: the workspace itself audits clean. If this fails, either
/// fix the flagged site (preferred) or carry a `// audit: <reason>`
/// justification the reviewer can judge.
#[test]
fn workspace_audits_clean() {
    let report = audit_workspace(&workspace_root()).expect("workspace readable");
    assert!(
        report.is_clean(),
        "workspace has determinism violations:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 50, "scan looks truncated");
    let text = report.render_text();
    assert!(text.starts_with("audit: clean — "));
    assert!(text.ends_with(" files scanned, 4 rules, 0 violations\n"));
}

/// The report text renders one clickable `file:line: [rule]` line per
/// violation.
#[test]
fn text_diagnostics_are_clickable() {
    let violations: Vec<Violation> = audit_source(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/bad/hash_iter.rs"),
    );
    for v in violations {
        let rendered = v.to_string();
        assert!(
            rendered.starts_with(&format!(
                "crates/core/src/fixture.rs:{}: [hash-iter] ",
                v.line
            )),
            "diagnostic format drifted: {rendered}"
        );
    }
}
