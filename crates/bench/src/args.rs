//! Minimal `--key value` argument parsing for the bench binaries.
//!
//! No external CLI crate is sanctioned for this reproduction, and the
//! binaries only need a handful of overrides such as `--reps`, `--seed`,
//! `--out` and `--smoke`, so a tiny parser suffices.
//!
//! Supported forms:
//!
//! * `--key value` — a valued option, read with [`Args::get`];
//! * `--flag` — a bare boolean (the next token, if any, must itself
//!   start with `--`), read with [`Args::flag`]. Reading a bare flag
//!   through `get` still panics ("needs a value"), so forgetting the
//!   value of a valued option fails loudly instead of silently parsing
//!   a stringly-typed default;
//! * `--help` / `-h` — sets [`Args::help_requested`]; binaries print
//!   their known keys via [`Args::print_help`] and exit instead of
//!   panicking.

use std::collections::{BTreeMap, BTreeSet};

/// Parsed `--key value` pairs and bare `--flag`s.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    bare: BTreeSet<String>,
    help: bool,
}

impl Args {
    /// Parses the process arguments (panics on a positional argument so
    /// CI fails loudly on typos).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument list.
    pub fn parse<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut values = BTreeMap::new();
        let mut bare = BTreeSet::new();
        let mut help = false;
        let mut iter = iter.into_iter().peekable();
        while let Some(key) = iter.next() {
            if key == "-h" || key == "--help" {
                help = true;
                continue;
            }
            let Some(name) = key.strip_prefix("--") else {
                panic!("unexpected argument '{key}' (expected --key [value])");
            };
            // A valued option when the next token is not itself a flag;
            // otherwise a bare boolean.
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    values.insert(name.to_owned(), iter.next().expect("just peeked"));
                }
                _ => {
                    bare.insert(name.to_owned());
                }
            }
        }
        Args { values, bare, help }
    }

    /// Fetches a typed value with a default.
    ///
    /// # Panics
    /// Panics if the value does not parse as `T`, or if the key was
    /// given as a bare flag (i.e. its value was forgotten).
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        if self.bare.contains(name) {
            panic!("--{name} needs a value");
        }
        match self.values.get(name) {
            None => default,
            Some(raw) => raw
                .parse()
                .unwrap_or_else(|e| panic!("--{name} {raw}: {e}")),
        }
    }

    /// Whether a bare boolean flag was supplied (also accepts the
    /// explicit forms `--flag true` / `--flag false`).
    ///
    /// # Panics
    /// Panics on an explicit value that is not a boolean.
    pub fn flag(&self, name: &str) -> bool {
        self.bare.contains(name) || self.get(name, false)
    }

    /// Whether the key was supplied at all (valued or bare).
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name) || self.bare.contains(name)
    }

    /// Whether `--help`/`-h` was supplied.
    pub fn help_requested(&self) -> bool {
        self.help
    }

    /// Prints a usage banner listing the binary's known keys. Binaries
    /// call this and return when [`Args::help_requested`] is set:
    ///
    /// ```
    /// # let args = voodb_bench::Args::parse(["--help".to_string()]);
    /// if args.help_requested() {
    ///     return voodb_bench::Args::print_help(
    ///         "fig08_o2_cache",
    ///         &[("reps", "replications (default 10)")],
    ///     );
    /// }
    /// ```
    pub fn print_help(bin: &str, keys: &[(&str, &str)]) {
        println!("usage: {bin} [--key value]...\n");
        println!("known keys:");
        for (key, meaning) in keys {
            println!("  --{key:<12} {meaning}");
        }
        println!("  --{:<12} print this help", "help");
    }
}

/// The `(key, meaning)` pairs shared by every sweep binary. Defaults
/// vary per binary (see each binary's module docs), so none are quoted
/// here.
pub const COMMON_KEYS: [(&str, &str); 2] = [
    (
        "reps",
        "replications per point (the paper's full protocol used 100)",
    ),
    ("seed", "base seed of the replication protocol (default 42)"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_pairs_with_defaults() {
        let a = args(&["--reps", "25", "--classes", "20"]);
        assert_eq!(a.get("reps", 10usize), 25);
        assert_eq!(a.get("classes", 50usize), 20);
        assert_eq!(a.get("objects", 20_000usize), 20_000);
        assert!(a.has("reps"));
        assert!(!a.has("objects"));
    }

    #[test]
    fn bare_flags_are_booleans() {
        let a = args(&["--verbose", "--reps", "5", "--trailing"]);
        assert!(a.has("verbose"));
        assert!(a.flag("verbose"));
        assert_eq!(a.get("reps", 10usize), 5);
        assert!(a.flag("trailing"));
        assert!(!a.flag("absent"));
        assert!(!args(&["--explicit", "false"]).flag("explicit"));
        assert!(args(&["--explicit", "true"]).flag("explicit"));
        assert!(!a.help_requested());
    }

    #[test]
    #[should_panic(expected = "--out needs a value")]
    fn forgotten_value_for_valued_key_panics() {
        let a = args(&["--out", "--reps", "5"]);
        let _ = a.get("out", std::path::PathBuf::from("target/voodb-out"));
    }

    #[test]
    fn help_is_recognized_not_panicking() {
        assert!(args(&["--help"]).help_requested());
        assert!(args(&["-h"]).help_requested());
        let a = args(&["--reps", "3", "--help"]);
        assert!(a.help_requested());
        assert_eq!(a.get("reps", 10usize), 3);
        // Printing help must not panic.
        Args::print_help("demo", &COMMON_KEYS);
    }

    #[test]
    #[should_panic(expected = "unexpected argument")]
    fn positional_rejected() {
        let _ = args(&["reps"]);
    }

    #[test]
    #[should_panic(expected = "--reps abc")]
    fn bad_number_panics() {
        let a = args(&["--reps", "abc"]);
        let _ = a.get("reps", 1usize);
    }
}
