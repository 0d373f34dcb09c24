//! The audit rules and the brace/item-aware walker they share.
//!
//! Every determinism rule is a named pass over the token stream of one
//! file, producing [`Violation`]s with `file:line` positions;
//! `test-only-pub` ([`test_only_pub`]) reads the token streams of the
//! whole workspace at once. The walker pre-computes the context the
//! rules need:
//!
//! * which tokens sit inside `#[cfg(test)]` items or `#[test]`
//!   functions (test code is exempt from every rule),
//! * which lines carry an `// audit: <reason>` justification comment
//!   (the escape hatch: a justified line, or the line right below a
//!   justification, is never flagged).
//!
//! The pass is deliberately token-level, not type-level: it cannot see
//! through aliases (`type Map = HashMap<…>`) or flag iteration on a
//! hash map returned from a method chain. Those limits are documented
//! in the README; the differential tests remain the dynamic backstop.

use crate::lex::{tokenize, Tok, TokKind};
use std::collections::BTreeSet;
use std::fmt;

/// Crates whose code determines simulation results: a nondeterministic
/// iteration order here changes replay output byte-for-byte.
const RESULT_CRATES: &[&str] = &["desp", "core", "ocb", "bufmgr", "clustering", "oostore"];

/// Iteration methods whose order is arbitrary on `HashMap`/`HashSet`.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// RNG constructors that seed from the environment instead of a
/// replayable `u64`.
const UNSEEDED_RNG: &[&str] = &["thread_rng", "from_entropy", "OsRng", "ThreadRng"];

/// The names of every rule, in diagnostic order. All but the last are
/// per-file passes ([`FileContext::check`]); `test-only-pub` looks at
/// the whole workspace at once ([`test_only_pub`]).
pub const RULE_NAMES: &[&str] = &["hash-iter", "unseeded-rng", "float-ord", "test-only-pub"];

/// Item keywords whose `pub` definitions `test-only-pub` checks.
const PUB_ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// One diagnostic: a rule violated at a position.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-indexed source line.
    pub line: u32,
    /// Rule identifier (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Pre-lexed, context-annotated view of one source file.
pub struct FileContext<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    src: &'a str,
    /// All tokens, comments included.
    toks: Vec<Tok>,
    /// Indices into `toks` of the non-comment tokens.
    code: Vec<usize>,
    /// Per-`toks` index: inside a `#[cfg(test)]` item or `#[test]` fn.
    in_test: Vec<bool>,
    /// Lines excused by an `// audit: <reason>` comment (the comment's
    /// own line and the line after it).
    justified: BTreeSet<u32>,
    crate_name: &'a str,
}

impl<'a> FileContext<'a> {
    /// Lexes `src` and computes the rule context. `path` must be the
    /// workspace-relative path (it determines the crate).
    pub fn new(path: &'a str, src: &'a str) -> Self {
        let toks = tokenize(src);
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let mut justified = BTreeSet::new();
        for t in &toks {
            if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
                && t.text(src).contains("audit:")
            {
                justified.insert(t.line);
                justified.insert(t.line + 1);
            }
        }
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("");
        let mut ctx = FileContext {
            path,
            src,
            in_test: vec![false; toks.len()],
            toks,
            code,
            justified,
            crate_name,
        };
        ctx.mark_test_regions();
        ctx
    }

    /// Runs every rule over the file.
    pub fn check(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        self.rule_hash_iter(&mut out);
        self.rule_unseeded_rng(&mut out);
        self.rule_float_ord(&mut out);
        out.sort();
        out
    }

    // ---- shared token helpers -------------------------------------------

    fn tok(&self, ci: usize) -> &Tok {
        &self.toks[self.code[ci]]
    }

    fn text(&self, ci: usize) -> &str {
        self.tok(ci).text(self.src)
    }

    fn is_ident(&self, ci: usize, word: &str) -> bool {
        let t = self.tok(ci);
        t.kind == TokKind::Ident && t.text(self.src) == word
    }

    fn is_punct(&self, ci: usize, p: char) -> bool {
        let t = self.tok(ci);
        t.kind == TokKind::Punct && self.src.as_bytes()[t.start] == p as u8
    }

    fn in_test(&self, ci: usize) -> bool {
        self.in_test[self.code[ci]]
    }

    fn is_justified(&self, line: u32) -> bool {
        self.justified.contains(&line)
    }

    fn flag(&self, out: &mut Vec<Violation>, ci: usize, rule: &'static str, message: String) {
        out.push(Violation {
            file: self.path.to_owned(),
            line: self.tok(ci).line,
            rule,
            message,
        });
    }

    /// Marks every token belonging to a `#[cfg(test)]` item or a
    /// `#[test]`/`#[bench]` function. An item extends to the first `;`
    /// before any brace, or to the matching `}` of its first block.
    fn mark_test_regions(&mut self) {
        let mut ci = 0;
        while ci < self.code.len() {
            if self.is_punct(ci, '#') && self.attr_is_test(ci) {
                let start = ci;
                let end = self.item_end(ci);
                for &ti in &self.code[start..end] {
                    self.in_test[ti] = true;
                }
                ci = end;
            } else {
                ci += 1;
            }
        }
    }

    /// Is the attribute starting at `#` a test marker? Matches
    /// `#[test]`, `#[cfg(test)]`, and any `#[cfg(...)]` whose argument
    /// list mentions `test` (`all(test, …)`).
    fn attr_is_test(&self, hash_ci: usize) -> bool {
        let mut ci = hash_ci + 1;
        if ci < self.code.len() && self.is_punct(ci, '!') {
            ci += 1;
        }
        if ci >= self.code.len() || !self.is_punct(ci, '[') {
            return false;
        }
        // Scan the bracketed attribute body.
        let mut depth = 0usize;
        let mut saw_cfg = false;
        let mut first_ident = true;
        for at in ci..self.code.len() {
            if self.is_punct(at, '[') {
                depth += 1;
            } else if self.is_punct(at, ']') {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            } else if self.tok(at).kind == TokKind::Ident {
                let word = self.text(at);
                if first_ident {
                    first_ident = false;
                    match word {
                        "test" | "bench" => return true,
                        "cfg" => saw_cfg = true,
                        _ => return false,
                    }
                } else if saw_cfg && word == "test" {
                    return true;
                }
            }
        }
        false
    }

    /// Code-token index one past the item introduced at `ci` (an
    /// attribute `#`): skips consecutive attributes, then runs to the
    /// first top-level `;` or the matching `}` of the first block.
    fn item_end(&self, mut ci: usize) -> usize {
        // Skip the stack of attributes.
        while ci < self.code.len() && self.is_punct(ci, '#') {
            let mut at = ci + 1;
            if at < self.code.len() && self.is_punct(at, '!') {
                at += 1;
            }
            if at >= self.code.len() || !self.is_punct(at, '[') {
                break;
            }
            let mut depth = 0usize;
            while at < self.code.len() {
                if self.is_punct(at, '[') {
                    depth += 1;
                } else if self.is_punct(at, ']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                at += 1;
            }
            ci = at + 1;
        }
        // The item body.
        let mut depth = 0usize;
        while ci < self.code.len() {
            if self.is_punct(ci, '{') {
                depth += 1;
            } else if self.is_punct(ci, '}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return ci + 1;
                }
            } else if self.is_punct(ci, ';') && depth == 0 {
                return ci + 1;
            }
            ci += 1;
        }
        self.code.len()
    }

    /// Identifiers this file binds to a `HashMap`/`HashSet`: struct
    /// fields and typed bindings (`name: HashMap<…>`, through `&`,
    /// `mut` and path prefixes) plus inferred lets
    /// (`let name = HashMap::new()`).
    fn hash_names(&self) -> BTreeSet<&str> {
        let mut names = BTreeSet::new();
        for ci in 0..self.code.len() {
            // `name : [& 'a mut std :: collections ::] Hash{Map,Set}`
            if self.is_punct(ci, ':')
                && ci > 0
                && self.tok(ci - 1).kind == TokKind::Ident
                && !(ci >= 2 && self.is_punct(ci - 2, ':'))
            {
                let mut at = ci + 1;
                // A second ':' means the path separator `::`, not a
                // type ascription.
                if at < self.code.len() && self.is_punct(at, ':') {
                    continue;
                }
                while at < self.code.len() {
                    if self.is_punct(at, '&')
                        || self.is_punct(at, ':')
                        || self.tok(at).kind == TokKind::Lifetime
                        || self.is_ident(at, "mut")
                        || self.is_ident(at, "std")
                        || self.is_ident(at, "collections")
                    {
                        at += 1;
                        continue;
                    }
                    break;
                }
                if at < self.code.len()
                    && (self.is_ident(at, "HashMap") || self.is_ident(at, "HashSet"))
                {
                    names.insert(self.text(ci - 1));
                }
            }
            // `let [mut] name = … Hash{Map,Set} :: ctor … ;`
            if self.is_ident(ci, "let") {
                let mut at = ci + 1;
                if at < self.code.len() && self.is_ident(at, "mut") {
                    at += 1;
                }
                if at >= self.code.len() || self.tok(at).kind != TokKind::Ident {
                    continue;
                }
                let name = self.text(at);
                if at + 1 >= self.code.len() || !self.is_punct(at + 1, '=') {
                    continue; // Typed lets are handled above.
                }
                let mut scan = at + 2;
                while scan < self.code.len() && !self.is_punct(scan, ';') {
                    if (self.is_ident(scan, "HashMap") || self.is_ident(scan, "HashSet"))
                        && scan + 1 < self.code.len()
                        && self.is_punct(scan + 1, ':')
                    {
                        names.insert(name);
                        break;
                    }
                    scan += 1;
                }
            }
        }
        names
    }

    // ---- rule 1: hash-iter ----------------------------------------------

    /// No iteration over `HashMap`/`HashSet` in result-affecting
    /// crates: SipHash seeds differ between processes, so iteration
    /// order there is not a function of the simulation seed.
    fn rule_hash_iter(&self, out: &mut Vec<Violation>) {
        if !RESULT_CRATES.contains(&self.crate_name) {
            return;
        }
        let names = self.hash_names();
        if names.is_empty() {
            return;
        }
        let receiver = |ci: usize| -> Option<&str> {
            // `name . method` or `self . name . method`; `ci` is `.`.
            if ci == 0 || self.tok(ci - 1).kind != TokKind::Ident {
                return None;
            }
            let name = self.text(ci - 1);
            names.get(name).copied()
        };
        for ci in 0..self.code.len() {
            if self.in_test(ci) || self.is_justified(self.tok(ci).line) {
                continue;
            }
            // `recv.iter()`-style calls.
            if self.is_punct(ci, '.')
                && ci + 2 < self.code.len()
                && self.tok(ci + 1).kind == TokKind::Ident
                && ITER_METHODS.contains(&self.text(ci + 1))
                && self.is_punct(ci + 2, '(')
            {
                if let Some(name) = receiver(ci) {
                    self.flag(
                        out,
                        ci + 1,
                        "hash-iter",
                        format!(
                            "iteration over hash-ordered `{name}` via `.{}()` — order \
                             depends on the SipHash seed, not the simulation seed; use \
                             `BTreeMap`/`BTreeSet`, sort first, or justify with \
                             `// audit: sorted <why>`",
                            self.text(ci + 1)
                        ),
                    );
                }
            }
            // `for pat in [&[mut]] [self.]name {`.
            if self.is_ident(ci, "for") {
                let mut at = ci + 1;
                let mut depth = 0usize;
                let mut found_in = None;
                while at < self.code.len() {
                    if self.is_punct(at, '(') || self.is_punct(at, '[') {
                        depth += 1;
                    } else if self.is_punct(at, ')') || self.is_punct(at, ']') {
                        depth = depth.saturating_sub(1);
                    } else if self.is_punct(at, '{') {
                        break; // `impl … for T {` or loop body reached.
                    } else if depth == 0 && self.is_ident(at, "in") {
                        found_in = Some(at);
                        break;
                    }
                    at += 1;
                }
                let Some(in_at) = found_in else { continue };
                // Expression tokens up to the body brace.
                let mut expr = Vec::new();
                let mut at = in_at + 1;
                while at < self.code.len() && !self.is_punct(at, '{') {
                    expr.push(at);
                    at += 1;
                }
                // Strip `&`, `mut`, leading `self .`.
                let core: Vec<usize> = expr
                    .into_iter()
                    .filter(|&e| {
                        !(self.is_punct(e, '&')
                            || self.is_ident(e, "mut")
                            || self.is_ident(e, "self")
                            || self.is_punct(e, '.'))
                    })
                    .collect();
                if let [single] = core[..] {
                    if self.tok(single).kind == TokKind::Ident {
                        if let Some(name) = names.get(self.text(single)) {
                            self.flag(
                                out,
                                single,
                                "hash-iter",
                                format!(
                                    "`for … in` over hash-ordered `{name}` — order depends \
                                     on the SipHash seed, not the simulation seed; use \
                                     `BTreeMap`/`BTreeSet`, sort first, or justify with \
                                     `// audit: sorted <why>`"
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    // ---- rule 2: unseeded-rng -------------------------------------------

    /// Every RNG must be constructed from an explicit `u64` seed.
    fn rule_unseeded_rng(&self, out: &mut Vec<Violation>) {
        for ci in 0..self.code.len() {
            if self.in_test(ci) || self.is_justified(self.tok(ci).line) {
                continue;
            }
            if self.tok(ci).kind != TokKind::Ident {
                continue;
            }
            let word = self.text(ci);
            let def = ci > 0 && self.is_ident(ci - 1, "fn");
            if UNSEEDED_RNG.contains(&word) && !def {
                self.flag(
                    out,
                    ci,
                    "unseeded-rng",
                    format!(
                        "`{word}` constructs an environment-seeded RNG — replications \
                         must derive every stream from the scenario's `u64` seed \
                         (`RandomStream::new` / `seed_from_u64`)"
                    ),
                );
            }
            if word == "rand"
                && ci + 3 < self.code.len()
                && self.is_punct(ci + 1, ':')
                && self.is_punct(ci + 2, ':')
                && self.is_ident(ci + 3, "random")
            {
                self.flag(
                    out,
                    ci,
                    "unseeded-rng",
                    "`rand::random` draws from the thread-local RNG — replications \
                     must derive every stream from the scenario's `u64` seed"
                        .to_owned(),
                );
            }
        }
    }

    // ---- rule 3: float-ord ----------------------------------------------

    /// Float comparisons must use `total_cmp`: `partial_cmp(..)` on
    /// floats panics on NaN or silently yields `None`-driven orders
    /// that differ from the packed-key orders the schedulers use.
    fn rule_float_ord(&self, out: &mut Vec<Violation>) {
        for ci in 0..self.code.len() {
            if self.in_test(ci) || self.is_justified(self.tok(ci).line) {
                continue;
            }
            if self.is_ident(ci, "partial_cmp")
                && ci > 0
                && self.is_punct(ci - 1, '.')
                && !(ci > 1 && self.is_ident(ci - 2, "fn"))
            {
                self.flag(
                    out,
                    ci,
                    "float-ord",
                    "`.partial_cmp(..)` call — float orderings must use `total_cmp` \
                     (the packed-u128 time key in `desp::sched` is the precedent); \
                     `PartialOrd` impls delegating to `Ord` are exempt"
                        .to_owned(),
                );
            }
        }
    }

    // ---- rule 4: test-only-pub (workspace-wide, see `test_only_pub`) -----

    /// The `pub` items this file defines outside test code, as
    /// (code-token index of `pub`, of the name, kind keyword).
    /// Restricted visibility (`pub(crate)`, `pub(super)`) is not
    /// product API and never matches.
    fn pub_items(&self) -> Vec<(usize, usize, &str)> {
        let mut items = Vec::new();
        for ci in 0..self.code.len() {
            if !self.is_ident(ci, "pub") || self.in_test(ci) {
                continue;
            }
            // Skip qualifiers: `const fn`, `async`, `unsafe`, `extern "C"`.
            let mut at = ci + 1;
            while at + 1 < self.code.len()
                && (["async", "unsafe", "extern"].contains(&self.text(at))
                    || self.tok(at).kind == TokKind::Literal
                    || (self.is_ident(at, "const")
                        && ["fn", "async", "unsafe", "extern"].contains(&self.text(at + 1))))
            {
                at += 1;
            }
            let kind = if at < self.code.len() {
                self.text(at)
            } else {
                ""
            };
            if !PUB_ITEM_KINDS.contains(&kind) {
                continue;
            }
            let mut name = at + 1;
            if kind == "static" && name < self.code.len() && self.is_ident(name, "mut") {
                name += 1;
            }
            if name < self.code.len() && self.tok(name).kind == TokKind::Ident {
                items.push((ci, name, kind));
            }
        }
        items
    }

    /// Adds the identifiers this file's product code mentions: code
    /// tokens outside test code, outside `use`/`pub use` declarations,
    /// not the name an item definition introduces, and not a type's
    /// name within its own `impl` header and body.
    fn collect_uses(&self, uses: &mut BTreeSet<&'a str>) {
        // The enclosing impl blocks: (code-token end, self type name).
        let mut impls: Vec<(usize, &'a str)> = Vec::new();
        let mut ci = 0;
        while ci < self.code.len() {
            if self.is_ident(ci, "use") {
                while ci < self.code.len() && !self.is_punct(ci, ';') {
                    ci += 1;
                }
                continue;
            }
            impls.retain(|&(end, _)| end > ci);
            if let Some(found) = self.impl_self_type(ci) {
                impls.push(found);
            }
            let t = self.tok(ci);
            let text = t.text(self.src);
            let defines = ci > 0
                && (PUB_ITEM_KINDS.contains(&self.text(ci - 1))
                    || (self.is_ident(ci - 1, "mut") && ci > 1 && self.is_ident(ci - 2, "static")));
            let own_impl = impls.iter().any(|&(_, name)| name == text);
            if t.kind == TokKind::Ident && !self.in_test(ci) && !defines && !own_impl {
                uses.insert(text);
            }
            ci += 1;
        }
    }

    /// For an `impl` item starting at `ci`: the code-token index one
    /// past the item and the name of its self type, the last path
    /// segment outside angle brackets after `for` (or after the
    /// generics of an inherent impl). `None` anywhere else, including
    /// `impl Trait` in type position.
    fn impl_self_type(&self, ci: usize) -> Option<(usize, &'a str)> {
        if !self.is_ident(ci, "impl") {
            return None;
        }
        let item_start = ci == 0
            || ['}', ';', '{', ']']
                .iter()
                .any(|&p| self.is_punct(ci - 1, p))
            || self.is_ident(ci - 1, "unsafe");
        if !item_start {
            return None;
        }
        let mut name = None;
        let mut depth = 0usize;
        let mut at = ci + 1;
        while at < self.code.len() {
            if self.is_punct(at, '<') {
                depth += 1;
            } else if self.is_punct(at, '>') && !self.is_punct(at - 1, '-') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && (self.is_punct(at, '{') || self.is_ident(at, "where")) {
                break;
            } else if depth == 0 && self.is_ident(at, "for") {
                name = None;
            } else if depth == 0
                && self.tok(at).kind == TokKind::Ident
                && !self.is_ident(at, "dyn")
                && !self.is_ident(at, "mut")
            {
                name = Some(self.tok(at).text(self.src));
            }
            at += 1;
        }
        name.map(|name| (self.item_end(at), name))
    }
}

/// The `test-only-pub` rule over a whole workspace: flags every `pub`
/// fn, struct, enum, trait, type, const or static defined in
/// `crates/*/src` that no product code names. `files` is every source
/// that counts as product code (`crates/*/src`, `src/`, `examples/`,
/// `e2ebench/src`); integration tests are simply not in it, and
/// within it test code, comments and `use`/`pub use` declarations do
/// not count as mentions. A name is matched, not resolved: an item
/// whose name collides with a used one passes.
pub fn test_only_pub(files: &[FileContext<'_>]) -> Vec<Violation> {
    let mut uses = BTreeSet::new();
    for f in files {
        f.collect_uses(&mut uses);
    }
    let mut out = Vec::new();
    for f in files {
        if !(f.path.starts_with("crates/") && f.path.contains("/src/")) {
            continue;
        }
        for (pub_ci, name_ci, kind) in f.pub_items() {
            let name = f.text(name_ci);
            let justified =
                f.is_justified(f.tok(pub_ci).line) || f.is_justified(f.tok(name_ci).line);
            if !justified && !uses.contains(name) {
                f.flag(
                    &mut out,
                    name_ci,
                    "test-only-pub",
                    format!(
                        "`pub {kind} {name}` is named by no product code, only by tests \
                         or by nothing — delete it, move it behind `#[cfg(test)]` or into \
                         test support, or justify with `// audit: <reason>`"
                    ),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Violation> {
        FileContext::new(path, src).check()
    }

    const CORE: &str = "crates/core/src/x.rs";

    #[test]
    fn hash_iteration_flagged_in_result_crates_only() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   impl S { fn f(&self) { for k in self.m.keys() { let _ = k; } } }\n";
        let v = check(CORE, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hash-iter");
        assert_eq!(v[0].line, 2);
        assert!(check("crates/trace/src/x.rs", src).is_empty());
    }

    #[test]
    fn for_loop_over_hash_field_flagged() {
        let src = "struct S { set: HashSet<u32> }\n\
                   impl S { fn f(&self) { for k in &self.set { let _ = k; } } }\n";
        let v = check(CORE, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hash-iter");
    }

    #[test]
    fn btree_iteration_is_clean() {
        let src = "struct S { m: BTreeMap<u32, u32> }\n\
                   impl S { fn f(&self) { for k in self.m.keys() { let _ = k; } } }\n";
        assert!(check(CORE, src).is_empty());
    }

    #[test]
    fn justification_comment_excuses_the_line() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   impl S { fn f(&self) -> Vec<u32> {\n\
                   // audit: sorted — collected then sort_unstable'd below\n\
                   let mut v: Vec<u32> = self.m.keys().copied().collect();\n\
                   v.sort_unstable(); v } }\n";
        assert!(check(CORE, src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn f(s: &super::S) { for k in s.m.keys() { let _ = k; } }\n\
                   }\n";
        assert!(check(CORE, src).is_empty());
    }

    #[test]
    fn inferred_let_binding_is_tracked() {
        let src = "fn f() { let mut m = HashMap::new(); m.insert(1, 2);\n\
                   for (k, v) in &m { let _ = (k, v); } }\n";
        let v = check(CORE, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unseeded_rng_flagged_everywhere_but_tests() {
        let src = "fn f() { let mut rng = thread_rng(); let _ = &mut rng; }\n";
        let v = check("crates/scenario/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unseeded-rng");
        let test_src = "#[cfg(test)] mod t { fn f() { let _ = thread_rng(); } }\n";
        assert!(check("crates/scenario/src/x.rs", test_src).is_empty());
    }

    #[test]
    fn partial_cmp_call_flagged_but_impl_exempt() {
        let src = "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let v = check("crates/desp/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "float-ord");
        let impl_src = "impl PartialOrd for T {\n\
             fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) }\n}\n";
        assert!(check("crates/desp/src/x.rs", impl_src).is_empty());
    }

    #[test]
    fn strings_and_comments_never_trigger() {
        let src = "fn f() -> &'static str {\n\
                   // HashMap iteration and Instant::now are discussed here only\n\
                   \"for k in map.keys() { Instant::now() }\"\n}\n";
        assert!(check(CORE, src).is_empty());
    }

    #[test]
    fn test_only_pub_sees_qualified_items_and_skips_use_lines() {
        let lib = "pub const fn a() {}\npub unsafe fn b() {}\npub static mut C: u8 = 0;\n\
                   pub type D = u8;\npub(super) fn e() {}\npub use self::a as _;\n";
        let user = "use lib::b;\nfn main() { let _: lib::D = 0; }\n";
        let files = [
            FileContext::new("crates/lib/src/lib.rs", lib),
            FileContext::new("examples/x.rs", user),
        ];
        let flagged: Vec<(u32, String)> = test_only_pub(&files)
            .into_iter()
            .map(|v| {
                (
                    v.line,
                    v.message.split('`').nth(1).unwrap_or_default().to_owned(),
                )
            })
            .collect();
        assert_eq!(
            flagged,
            [
                (1, "pub fn a".to_owned()),
                (2, "pub fn b".to_owned()),
                (3, "pub static C".to_owned()),
            ]
        );
    }

    #[test]
    fn violations_sort_by_position() {
        // Rules run in `RULE_NAMES` order: `unseeded-rng` reports line 2
        // before `float-ord` reports line 1.
        let src = "fn f(a: f64, b: f64) { let _ = a.partial_cmp(&b); }\n\
                   fn g() { let _ = thread_rng(); }\n";
        let v = check("crates/desp/src/x.rs", src);
        assert_eq!(v.len(), 2);
        assert!(v[0].line < v[1].line);
    }
}
