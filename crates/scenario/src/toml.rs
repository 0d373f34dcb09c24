//! A hand-rolled parser for the TOML subset scenario files use.
//!
//! No external TOML crate is sanctioned for this reproduction (the
//! product builds fully offline, from workspace code only), and
//! scenario files need only a small, regular slice of the format:
//!
//! * `key = value` pairs with bare keys (`[A-Za-z0-9_-]+`);
//! * values: basic `"strings"` (with `\\ \" \n \t \r` escapes), integers
//!   (optional sign, `_` separators), floats (decimal point, exponent,
//!   `inf`/`-inf`/`nan`), booleans, and (possibly nested, possibly
//!   multi-line) arrays;
//! * `[table]` and `[dotted.table]` section headers;
//! * `[[array.of.tables]]` headers;
//! * `#` comments and blank lines.
//!
//! Errors carry the precise **line and column** (1-based) where parsing
//! stopped, so a typo in a scenario file points at itself. Scenario
//! files are only ever read: nothing writes one back out. The parser
//! returns `Ok` or `Err` on any input, never panicking (property-tested
//! in `tests/properties.rs`).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A basic string.
    String(String),
    /// A 64-bit signed integer.
    Integer(i64),
    /// A float (including `inf` and `nan`).
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An inline array of values.
    Array(Vec<Value>),
    /// A (sub-)table, from a `[header]` or dotted key path.
    Table(Table),
}

/// A table: ordered map from bare keys to values (a BTreeMap, so a
/// scenario's keys are applied and checked in key order, whatever their
/// order in the file).
pub type Table = BTreeMap<String, Value>;

impl Value {
    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::String(_) => "string",
            Value::Integer(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }

    /// The value as a float, coercing integers (TOML writes `500` where
    /// a parameter is conceptually numeric).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Integer(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Integer(n) if *n >= 0 => Some(*n as usize),
            _ => None,
        }
    }

    /// The value as a u64.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Integer(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parse error with its 1-based source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line of the offending character.
    pub line: usize,
    /// 1-based column of the offending character.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for TomlError {}

/// Parses a TOML-subset document into its root table.
///
/// # Errors
/// Returns the first syntax or structure error with its line/column.
pub fn parse(input: &str) -> Result<Table, TomlError> {
    Parser::new(input).parse_document()
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
}

impl Parser {
    fn new(input: &str) -> Self {
        Parser {
            chars: input.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> TomlError {
        TomlError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Skips spaces and tabs (not newlines).
    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(' ') | Some('\t')) {
            self.bump();
        }
    }

    /// Skips whitespace, newlines, and comments (used inside arrays and
    /// between top-level statements).
    fn skip_ws_and_comments(&mut self) {
        loop {
            match self.peek() {
                Some(' ') | Some('\t') | Some('\n') | Some('\r') => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    /// Consumes to end of line, allowing only whitespace and a comment.
    fn expect_eol(&mut self) -> Result<(), TomlError> {
        self.skip_inline_ws();
        match self.peek() {
            None | Some('\n') => {
                self.bump();
                Ok(())
            }
            Some('\r') => {
                self.bump();
                if self.peek() == Some('\n') {
                    self.bump();
                }
                Ok(())
            }
            Some('#') => {
                while let Some(c) = self.peek() {
                    if c == '\n' {
                        break;
                    }
                    self.bump();
                }
                Ok(())
            }
            Some(c) => Err(self.error(format!("expected end of line, found '{c}'"))),
        }
    }

    fn is_bare_key_char(c: char) -> bool {
        c.is_ascii_alphanumeric() || c == '_' || c == '-'
    }

    fn parse_bare_key(&mut self) -> Result<String, TomlError> {
        let mut key = String::new();
        while let Some(c) = self.peek() {
            if Self::is_bare_key_char(c) {
                key.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if key.is_empty() {
            return Err(self.error("expected a bare key ([A-Za-z0-9_-]+)"));
        }
        Ok(key)
    }

    /// Parses a dotted key path like `system.clustering`.
    fn parse_key_path(&mut self) -> Result<Vec<String>, TomlError> {
        let mut path = vec![self.parse_bare_key()?];
        while self.peek() == Some('.') {
            self.bump();
            path.push(self.parse_bare_key()?);
        }
        Ok(path)
    }

    fn parse_document(&mut self) -> Result<Table, TomlError> {
        let mut root = Table::new();
        // Path of the section currently being filled; empty = root.
        let mut section: Vec<String> = Vec::new();
        loop {
            self.skip_ws_and_comments();
            match self.peek() {
                None => break,
                Some('[') => {
                    let (stmt_line, stmt_col) = (self.line, self.col);
                    let here = |message: String| TomlError {
                        line: stmt_line,
                        col: stmt_col,
                        message,
                    };
                    self.bump();
                    let is_array = self.peek() == Some('[');
                    if is_array {
                        self.bump();
                    }
                    self.skip_inline_ws();
                    let path = self.parse_key_path()?;
                    self.skip_inline_ws();
                    for _ in 0..(if is_array { 2 } else { 1 }) {
                        if self.peek() != Some(']') {
                            return Err(self.error(if is_array {
                                "expected ']]' closing the array-of-tables header"
                            } else {
                                "expected ']' closing the table header"
                            }));
                        }
                        self.bump();
                    }
                    self.expect_eol()?;
                    if is_array {
                        Self::push_array_table(&mut root, &path).map_err(here)?;
                    } else {
                        Self::ensure_table(&mut root, &path).map_err(here)?;
                    }
                    section = path;
                }
                Some(_) => {
                    let (stmt_line, stmt_col) = (self.line, self.col);
                    let path = self.parse_key_path()?;
                    self.skip_inline_ws();
                    if self.peek() != Some('=') {
                        return Err(self.error("expected '=' after key"));
                    }
                    self.bump();
                    self.skip_inline_ws();
                    let value = self.parse_value()?;
                    self.expect_eol()?;
                    let target = Self::resolve_section(&mut root, &section);
                    Self::insert_path(target, &path, value).map_err(|message| TomlError {
                        line: stmt_line,
                        col: stmt_col,
                        message,
                    })?;
                }
            }
        }
        Ok(root)
    }

    /// Walks to the table a `[section]` header opened (the last element
    /// when the path crosses an array-of-tables).
    fn resolve_section<'t>(root: &'t mut Table, section: &[String]) -> &'t mut Table {
        let mut current = root;
        for part in section {
            let entry = current
                .get_mut(part)
                .expect("section tables were created by the header");
            current = match entry {
                Value::Table(t) => t,
                Value::Array(items) => match items
                    .last_mut()
                    .expect("array-of-tables has at least one element")
                {
                    Value::Table(t) => t,
                    _ => unreachable!("array-of-tables holds tables"),
                },
                _ => unreachable!("section path resolves to tables"),
            };
        }
        current
    }

    /// Creates intermediate tables for `[a.b.c]`, erroring on redefinition
    /// of a non-table.
    fn ensure_table(root: &mut Table, path: &[String]) -> Result<(), String> {
        let mut current = root;
        for (i, part) in path.iter().enumerate() {
            let entry = current
                .entry(part.clone())
                .or_insert_with(|| Value::Table(Table::new()));
            current = match entry {
                Value::Table(t) => t,
                Value::Array(items) => {
                    if i + 1 == path.len() {
                        return Err(format!(
                            "cannot redefine array-of-tables '{part}' as a plain table"
                        ));
                    }
                    match items.last_mut() {
                        Some(Value::Table(t)) => t,
                        _ => return Err(format!("'{part}' is not a table")),
                    }
                }
                other => {
                    return Err(format!(
                        "key '{part}' already holds a {}, not a table",
                        other.type_name()
                    ))
                }
            };
        }
        Ok(())
    }

    /// Appends a fresh element to the `[[path]]` array-of-tables.
    fn push_array_table(root: &mut Table, path: &[String]) -> Result<(), String> {
        let (last, parents) = path.split_last().expect("header path is non-empty");
        Self::ensure_table(root, parents)?;
        let mut current = &mut *root;
        for part in parents {
            current = match current.get_mut(part).expect("just ensured") {
                Value::Table(t) => t,
                Value::Array(items) => match items.last_mut() {
                    Some(Value::Table(t)) => t,
                    _ => return Err(format!("'{part}' is not a table")),
                },
                _ => unreachable!(),
            };
        }
        match current
            .entry(last.clone())
            .or_insert_with(|| Value::Array(Vec::new()))
        {
            Value::Array(items) => {
                items.push(Value::Table(Table::new()));
                Ok(())
            }
            other => Err(format!(
                "key '{last}' already holds a {}, not an array of tables",
                other.type_name()
            )),
        }
    }

    /// Inserts `value` at a dotted key path under `table`.
    fn insert_path(table: &mut Table, path: &[String], value: Value) -> Result<(), String> {
        let (last, parents) = path.split_last().expect("key path is non-empty");
        let mut current = table;
        for part in parents {
            let entry = current
                .entry(part.clone())
                .or_insert_with(|| Value::Table(Table::new()));
            current = match entry {
                Value::Table(t) => t,
                other => {
                    return Err(format!(
                        "key '{part}' already holds a {}, not a table",
                        other.type_name()
                    ))
                }
            };
        }
        if current.contains_key(last) {
            return Err(format!("duplicate key '{last}'"));
        }
        current.insert(last.clone(), value);
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Value, TomlError> {
        match self.peek() {
            None => Err(self.error("expected a value, found end of input")),
            Some('"') => self.parse_string().map(Value::String),
            Some('[') => self.parse_array(),
            Some(c) if c == 't' || c == 'f' => self.parse_keyword(),
            Some(c) if c == '+' || c == '-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) if c == 'i' || c == 'n' => self.parse_number(), // inf / nan
            Some(c) => Err(self.error(format!("unexpected character '{c}' in value"))),
        }
    }

    fn parse_keyword(&mut self) -> Result<Value, TomlError> {
        let word = self.take_symbol_chars();
        match word.as_str() {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Err(self.error(format!("unknown keyword '{word}'"))),
        }
    }

    /// Consumes the run of characters a number/keyword token may contain.
    fn take_symbol_chars(&mut self) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.' | '_') {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        s
    }

    fn parse_number(&mut self) -> Result<Value, TomlError> {
        let start_line = self.line;
        let start_col = self.col;
        let raw = self.take_symbol_chars();
        let err = |message: String| TomlError {
            line: start_line,
            col: start_col,
            message,
        };
        let unsigned = raw.trim_start_matches(['+', '-']);
        let is_float = unsigned.contains('.')
            || unsigned == "inf"
            || unsigned == "nan"
            || (unsigned.contains(['e', 'E']) && !unsigned.starts_with(['e', 'E']));
        let cleaned: String = raw.chars().filter(|&c| c != '_').collect();
        if is_float {
            cleaned
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| err(format!("invalid float '{raw}'")))
        } else {
            cleaned
                .parse::<i64>()
                .map(Value::Integer)
                .map_err(|_| err(format!("invalid integer '{raw}'")))
        }
    }

    fn parse_string(&mut self) -> Result<String, TomlError> {
        debug_assert_eq!(self.peek(), Some('"'));
        self.bump();
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some('\n') => return Err(self.error("newline in basic string")),
                Some('"') => {
                    self.bump();
                    return Ok(s);
                }
                Some('\\') => {
                    self.bump();
                    match self.bump() {
                        Some('"') => s.push('"'),
                        Some('\\') => s.push('\\'),
                        Some('n') => s.push('\n'),
                        Some('t') => s.push('\t'),
                        Some('r') => s.push('\r'),
                        Some(c) => return Err(self.error(format!("unknown escape '\\{c}'"))),
                        None => return Err(self.error("unterminated escape")),
                    }
                }
                Some(c) => {
                    self.bump();
                    s.push(c);
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, TomlError> {
        debug_assert_eq!(self.peek(), Some('['));
        self.bump();
        let mut items = Vec::new();
        loop {
            self.skip_ws_and_comments();
            match self.peek() {
                None => return Err(self.error("unterminated array")),
                Some(']') => {
                    self.bump();
                    return Ok(Value::Array(items));
                }
                _ => {
                    items.push(self.parse_value()?);
                    self.skip_ws_and_comments();
                    match self.peek() {
                        Some(',') => {
                            self.bump();
                        }
                        Some(']') => {}
                        _ => return Err(self.error("expected ',' or ']' in array")),
                    }
                }
            }
        }
    }
}

/// Formats a float so it reads as a float (never as an integer), for
/// sweep-point labels: Rust's shortest round-trip `Display`, with `.0`
/// appended when the representation has no decimal point or exponent.
pub fn format_float(f: f64) -> String {
    if f.is_nan() {
        return "nan".to_owned();
    }
    if f.is_infinite() {
        return if f > 0.0 { "inf" } else { "-inf" }.to_owned();
    }
    let s = format!("{f}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_sections() {
        let doc = r#"
# top comment
name = "demo"
count = 42
ratio = 0.5
big = 1_000_000
on = true
inf_val = inf
neg = -inf

[system]
class = "page-server"   # trailing comment
nested.key = 7

[system.disk]
search_ms = 7.4
"#;
        let root = parse(doc).unwrap();
        assert_eq!(root["name"], Value::String("demo".into()));
        assert_eq!(root["count"], Value::Integer(42));
        assert_eq!(root["ratio"], Value::Float(0.5));
        assert_eq!(root["big"], Value::Integer(1_000_000));
        assert_eq!(root["on"], Value::Bool(true));
        assert_eq!(root["inf_val"], Value::Float(f64::INFINITY));
        assert_eq!(root["neg"], Value::Float(f64::NEG_INFINITY));
        let Value::Table(system) = &root["system"] else {
            panic!("system is a table")
        };
        assert_eq!(system["class"], Value::String("page-server".into()));
        let Value::Table(nested) = &system["nested"] else {
            panic!("nested is a table")
        };
        assert_eq!(nested["key"], Value::Integer(7));
        let Value::Table(disk) = &system["disk"] else {
            panic!("disk is a table")
        };
        assert_eq!(disk["search_ms"], Value::Float(7.4));
    }

    #[test]
    fn parses_arrays_including_multiline() {
        let doc = "xs = [1, 2, 3]\nys = [\n  1.5, # comment\n  2.5,\n]\nmixed = [[1, 2], [3]]\n";
        let root = parse(doc).unwrap();
        assert_eq!(
            root["xs"],
            Value::Array(vec![
                Value::Integer(1),
                Value::Integer(2),
                Value::Integer(3)
            ])
        );
        assert_eq!(
            root["ys"],
            Value::Array(vec![Value::Float(1.5), Value::Float(2.5)])
        );
        assert_eq!(
            root["mixed"],
            Value::Array(vec![
                Value::Array(vec![Value::Integer(1), Value::Integer(2)]),
                Value::Array(vec![Value::Integer(3)])
            ])
        );
    }

    #[test]
    fn parses_array_of_tables() {
        let doc =
            "[[sweep]]\nparam = \"a\"\nvalues = [1]\n\n[[sweep]]\nparam = \"b\"\nvalues = [2]\n";
        let root = parse(doc).unwrap();
        let Value::Array(items) = &root["sweep"] else {
            panic!("sweep is an array")
        };
        assert_eq!(items.len(), 2);
        let Value::Table(first) = &items[0] else {
            panic!()
        };
        assert_eq!(first["param"], Value::String("a".into()));
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse("ok = 1\nbad = @\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.col, 7);
        assert!(err.message.contains("unexpected character"), "{err}");

        let err = parse("a = 1\na = 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("duplicate key"), "{err}");

        let err = parse("x = \"unterminated\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("string"), "{err}");

        let err = parse("x 1\n").unwrap_err();
        assert!(err.message.contains("expected '='"), "{err}");

        let err = parse("[t\n").unwrap_err();
        assert!(err.message.contains("']'"), "{err}");
    }

    #[test]
    fn junk_after_value_is_rejected() {
        let err = parse("x = 1 y = 2\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("end of line"), "{err}");
    }

    #[test]
    fn float_formatting_keeps_floats_floats() {
        assert_eq!(format_float(2.0), "2.0");
        assert_eq!(format_float(0.1), "0.1");
        assert_eq!(format_float(f64::INFINITY), "inf");
        assert_eq!(format_float(f64::NEG_INFINITY), "-inf");
        // Every formatted float re-parses as Float, not Integer.
        for f in [2.0, -7.0, 0.5, 1e300, std::f64::consts::PI] {
            let root = parse(&format!("x = {}\n", format_float(f))).unwrap();
            assert_eq!(root["x"], Value::Float(f));
        }
    }
}
