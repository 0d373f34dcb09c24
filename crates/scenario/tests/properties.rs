//! Property-based tests of the scenario subsystem: every knob a
//! scenario file spells lands in the parsed config, the hand-rolled
//! readers return `Ok` or `Err` on any input without panicking, and
//! grid arithmetic.

use bufmgr::PolicyKind;
use clustering::{ClusteringKind, DstcParams};
use ocb::Selection;
use proptest::prelude::*;
use scenario::{parse, Scenario, PARAM_HELP};
use std::path::Path;
use std::sync::OnceLock;
use voodb::SystemClass;

// ---------------------------------------------------------------------------
// Scenario-level parsing
// ---------------------------------------------------------------------------

/// A knob's scenario-file spelling and the value it must parse to.
type Knob<T> = (String, T);

fn knob<T: Clone + 'static>(spelling: &str, parsed: T) -> BoxedStrategy<Knob<T>> {
    Just((spelling.to_owned(), parsed)).boxed()
}

fn arb_system_class() -> impl Strategy<Value = Knob<SystemClass>> {
    prop_oneof![
        knob("centralized", SystemClass::Centralized),
        knob("object-server", SystemClass::ObjectServer),
        knob("page-server", SystemClass::PageServer),
        knob("db-server", SystemClass::DbServer),
        (1usize..8).prop_map(|servers| (
            format!("hybrid-{servers}"),
            SystemClass::HybridMultiServer { servers }
        )),
    ]
}

fn arb_policy() -> impl Strategy<Value = Knob<PolicyKind>> {
    prop_oneof![
        knob("fifo", PolicyKind::Fifo),
        knob("lru", PolicyKind::Lru),
        knob("lfu", PolicyKind::Lfu),
        knob("clock", PolicyKind::Clock),
        (2usize..5).prop_map(|k| (format!("lru-{k}"), PolicyKind::LruK { k })),
        (1u8..8).prop_map(|weight| (format!("gclock-{weight}"), PolicyKind::GClock { weight })),
        any::<u64>().prop_map(|seed| (format!("random-{seed}"), PolicyKind::Random { seed })),
    ]
}

fn arb_clustering() -> impl Strategy<Value = Knob<ClusteringKind>> {
    prop_oneof![
        knob("none", ClusteringKind::None),
        knob("dstc", ClusteringKind::Dstc(DstcParams::default())),
        (2usize..64).prop_map(|max_cluster_size| (
            format!("static-graph-{max_cluster_size}"),
            ClusteringKind::StaticGraph { max_cluster_size }
        )),
    ]
}

fn arb_root_dist() -> impl Strategy<Value = Knob<Selection>> {
    prop_oneof![
        knob("uniform", Selection::Uniform),
        (1u32..30).prop_map(|t| {
            let theta = t as f64 / 10.0;
            (format!("zipf-{theta}"), Selection::Zipf(theta))
        }),
        ((1u32..99), (1u32..99)).prop_map(|(f, p)| {
            let (fraction, p_hot) = (f as f64 / 100.0, p as f64 / 100.0);
            (
                format!("hotset-{fraction}-{p_hot}"),
                Selection::HotSet { fraction, p_hot },
            )
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Knobs → scenario text → parsed config: every generated knob lands
    /// where it belongs, so each enum spelling's parse is covered.
    #[test]
    fn scenario_round_trip(
        (class, policy, clustering, root_dist) in
            (arb_system_class(), arb_policy(), arb_clustering(), arb_root_dist()),
        (objs, pages, mpl) in (1usize..200, 8usize..4096, 1usize..20),
        (reps, seed) in (1usize..50, any::<u32>().prop_map(u64::from)),
    ) {
        let objects = objs * 10;
        let classes = 5.min(objects);
        let text = format!(
            "[scenario]\nname = \"prop\"\nreplications = {reps}\nseed = {seed}\n\n\
             [system]\nsystem_class = \"{}\"\npage_replacement = \"{}\"\n\
             clustering = \"{}\"\nbuffer_pages = {pages}\n\
             multiprogramming_level = {mpl}\n\n\
             [database]\nclasses = {classes}\nobjects = {objects}\n\n\
             [workload]\nhot_transactions = 25\nroot_dist = \"{}\"\n\n\
             [[sweep]]\nparam = \"system.buffer_pages\"\nvalues = [{pages}, {}]\n",
            class.0, policy.0, clustering.0, root_dist.0, pages * 2
        );
        let scenario = Scenario::parse(&text)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n--- document ---\n{text}"));
        let system = &scenario.config.system;
        prop_assert_eq!(&scenario.name, "prop");
        prop_assert_eq!(scenario.replications, reps);
        prop_assert_eq!(scenario.seed, seed);
        prop_assert_eq!(system.system_class, class.1);
        prop_assert_eq!(system.page_replacement, policy.1);
        prop_assert_eq!(&system.clustering, &clustering.1);
        prop_assert_eq!(system.buffer_pages, pages);
        prop_assert_eq!(system.multiprogramming_level, mpl);
        prop_assert_eq!(scenario.config.database.objects, objects);
        prop_assert_eq!(scenario.config.workload.root_dist, root_dist.1);
        let grid = scenario.grid();
        prop_assert_eq!(grid.len(), 2);
        prop_assert_eq!(grid[1].config.system.buffer_pages, pages * 2);
    }

    /// The grid is the full cartesian product, first axis slowest.
    #[test]
    fn grid_is_cartesian(a in 1usize..5, b in 1usize..5) {
        let values = |n: usize, base: usize| {
            (0..n).map(|i| ((base + i) * 64).to_string()).collect::<Vec<_>>().join(", ")
        };
        let text = format!(
            "[scenario]\nname = \"grid\"\n\n[database]\nclasses = 5\nobjects = 100\n\n\
             [workload]\nhot_transactions = 10\n\n\
             [[sweep]]\nparam = \"system.buffer_pages\"\nvalues = [{}]\n\n\
             [[sweep]]\nparam = \"system.multiprogramming_level\"\nvalues = [{}]\n",
            values(a, 1),
            (1..=b).map(|v| v.to_string()).collect::<Vec<_>>().join(", "),
        );
        let scenario = Scenario::parse(&text).unwrap();
        let grid = scenario.grid();
        prop_assert_eq!(grid.len(), a * b);
        // First axis slowest: consecutive chunks of size b share buffer_pages.
        for (i, point) in grid.iter().enumerate() {
            prop_assert_eq!(point.config.system.buffer_pages, (1 + i / b) * 64);
            prop_assert_eq!(point.config.system.multiprogramming_level, 1 + i % b);
        }
    }
}

// ---------------------------------------------------------------------------
// The readers never panic
// ---------------------------------------------------------------------------

/// Fragments of the TOML subset and of scenario files.
const TOML_TOKENS: &[&str] = &[
    "[",
    "]",
    "[[",
    "]]",
    "=",
    "\"",
    "\\",
    "\\u",
    ",",
    ".",
    "#",
    "\n",
    "\r",
    " ",
    "\t",
    "+",
    "-",
    "_",
    "e",
    "E",
    "inf",
    "nan",
    "true",
    "false",
    "0",
    "1.5",
    "1e999",
    "9223372036854775808",
    "é",
    "☃",
    "[scenario]",
    "[system]",
    "[database]",
    "[workload]",
    "[[sweep]]",
    "\nk = ",
    "k = \"",
    "name",
    "param",
    "values",
    "\"lru-2\"",
    "\"hybrid-0\"",
    "\"poisson-1e9\"",
    "\"hotset-0.1-\"",
];

/// Fragments of JSON documents.
const JSON_TOKENS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud800", "d800", "00e9", "-", "+", ".", "e",
    "E", "0", "1", "1e999", "true", "false", "null", "nan", " ", "\n", "é", "☃", "\"job\"",
    "\"t_ms\"",
];

/// JSON documents to mutate: a `--watch-jsonl` line and nested values.
const JSON_DOCS: &[&str] = &[
    r#"{"job":0,"t_ms":250.5,"throughput_tps":12.25,"p99_ms":3.5,"mpl_queue":0,"hit_ratio":0.75}"#,
    r#"{"a":[1,2.5e-1,-3,{"b":null}],"c":"xA\n\"é","d":true,"e":false}"#,
    r#"[[],{},"",0,-0.0,1E+2]"#,
];

/// Every shipped scenario file (`scenarios/` and the paper artifacts),
/// sorted by path.
fn scenario_files() -> &'static [String] {
    static FILES: OnceLock<Vec<String>> = OnceLock::new();
    FILES.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut paths = Vec::new();
        for dir in [root.join("../../scenarios"), root.join("artifacts")] {
            for entry in std::fs::read_dir(&dir).expect("scenario directory") {
                let path = entry.expect("directory entry").path();
                if path.extension().is_some_and(|ext| ext == "toml") {
                    paths.push(path);
                }
            }
        }
        paths.sort();
        paths
            .iter()
            .map(|path| std::fs::read_to_string(path).expect("scenario file"))
            .collect()
    })
}

/// A token soup: fragments from `tokens`, integers, floats and
/// arbitrary characters, concatenated.
fn arb_soup(tokens: &'static [&'static str]) -> impl Strategy<Value = String> {
    let token = prop_oneof![
        (0..tokens.len()).prop_map(move |i| tokens[i].to_owned()),
        (0..PARAM_HELP.len()).prop_map(|i| PARAM_HELP[i].0.to_owned()),
        any::<i64>().prop_map(|n| n.to_string()),
        any::<f64>().prop_map(|f| f.to_string()),
        any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('?').to_string()),
    ];
    prop::collection::vec(token, 0..48).prop_map(|parts| parts.concat())
}

/// Edits applied in turn to a document: `(kind, position, token)`,
/// with the position taken modulo the current length (in characters).
fn arb_edits() -> impl Strategy<Value = Vec<(u8, u32, usize)>> {
    prop::collection::vec((0u8..4, any::<u32>(), 0usize..64), 0..8)
}

/// Truncates, deletes a run of characters, inserts a token or replaces
/// one character, per edit.
fn mutate(doc: &str, edits: &[(u8, u32, usize)], tokens: &[&str]) -> String {
    let mut chars: Vec<char> = doc.chars().collect();
    for &(kind, pos, token) in edits {
        let at = pos as usize % (chars.len() + 1);
        let token = tokens[token % tokens.len()].chars();
        match kind {
            0 => chars.truncate(at),
            1 => {
                chars.drain(at..(at + 1 + token.count()).min(chars.len()));
            }
            2 => {
                chars.splice(at..at, token);
            }
            _ => {
                let end = (at + 1).min(chars.len());
                chars.splice(at..end, token);
            }
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The TOML and scenario readers return on any token soup.
    #[test]
    fn toml_readers_never_panic_on_token_soup(text in arb_soup(TOML_TOKENS)) {
        let _ = parse(&text);
        let _ = Scenario::parse(&text);
    }

    /// The TOML and scenario readers return on truncated or mutated
    /// shipped scenario files.
    #[test]
    fn toml_readers_never_panic_on_mutated_scenarios(
        file in any::<u32>(),
        edits in arb_edits(),
    ) {
        let files = scenario_files();
        prop_assert!(files.len() >= 10, "found {} scenario files", files.len());
        let original = &files[file as usize % files.len()];
        prop_assert!(Scenario::parse(original).is_ok());
        let text = mutate(original, &edits, TOML_TOKENS);
        let _ = parse(&text);
        let _ = Scenario::parse(&text);
    }

    /// The JSON reader returns on token soups and on truncated or
    /// mutated documents.
    #[test]
    fn json_reader_never_panics(
        soup in arb_soup(JSON_TOKENS),
        doc in 0..JSON_DOCS.len(),
        edits in arb_edits(),
    ) {
        let _ = vtrace::json::parse(&soup);
        prop_assert!(vtrace::json::parse(JSON_DOCS[doc]).is_ok());
        let _ = vtrace::json::parse(&mutate(JSON_DOCS[doc], &edits, JSON_TOKENS));
    }
}
