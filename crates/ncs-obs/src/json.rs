//! The workspace's one JSON value type, parser and tree writer (the
//! workspace is dependency-free by design — no serde).
//!
//! [`parse`] reads a document into a [`Json`] tree; [`Json::render`]
//! writes one back. Everything that *reads* JSON — the benchmark's
//! comparison, `ncs-launch`'s telemetry merge, tests — goes through this
//! parser.
//!
//! The telemetry plane's own emitters (`MetricsSnapshot::render_json`,
//! `FlightRecorder::dump_json*`) deliberately stay streaming string
//! writers: they carry `u64` counters that must not round through the
//! `f64` of [`Json::Num`]. They share [`escape`] with the tree writer.

use std::collections::BTreeMap;

/// Nesting depth [`parse`] accepts. Every artifact in the workspace is
/// under ten levels deep; the bound exists because the parser recurses
/// and reads bytes that came off a socket.
pub const MAX_DEPTH: usize = 64;

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (kept as `f64`: integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted map; duplicate keys keep the last value).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Compact, single-line rendering. Non-finite numbers render as
    /// `null` (JSON has no spelling for them).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        let string = |out: &mut String, s: &str| {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) if v.is_finite() => out.push_str(&v.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Why [`parse`] refused a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The text is not JSON.
    Syntax {
        /// What was wrong.
        why: String,
        /// Byte offset of the problem.
        at: usize,
    },
    /// Arrays/objects nest deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the bracket that crossed the bound.
        at: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Syntax { why, at } => write!(f, "{why} at byte {at}"),
            ParseError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {at}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, why: &str) -> ParseError {
        ParseError::Syntax {
            why: why.to_owned(),
            at: self.at,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.at += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.at += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.err("non-ASCII \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            self.at += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(self.err(&format!("unknown escape '\\{}'", other as char)))
                        }
                    }
                }
                _ => {
                    // Copy the run up to the next quote or escape in one
                    // piece (both are ASCII, so the run ends on a scalar
                    // boundary).
                    let rest = &self.bytes[self.at..];
                    let run = rest
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .unwrap_or(rest.len());
                    let chunk = self
                        .text
                        .get(self.at..self.at + run)
                        .ok_or_else(|| self.err("string splits a UTF-8 scalar"))?;
                    out.push_str(chunk);
                    self.at += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.at;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }

    /// Enters an array/object: consumes the bracket, charges the depth.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError::TooDeep { at: self.at });
        }
        self.depth += 1;
        self.at += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => {
                self.descend()?;
                let mut m = BTreeMap::new();
                self.skip_ws();
                if self.peek() != Some(b'}') {
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.skip_ws();
                        self.expect(b':')?;
                        let v = self.value()?;
                        m.insert(key, v);
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.at += 1,
                            Some(b'}') => break,
                            _ => return Err(self.err("expected ',' or '}'")),
                        }
                    }
                }
                self.at += 1;
                self.depth -= 1;
                Ok(Json::Obj(m))
            }
            b'[' => {
                self.descend()?;
                let mut a = Vec::new();
                self.skip_ws();
                if self.peek() != Some(b']') {
                    loop {
                        a.push(self.value()?);
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.at += 1,
                            Some(b']') => break,
                            _ => return Err(self.err("expected ',' or ']'")),
                        }
                    }
                }
                self.at += 1;
                self.depth -= 1;
                Ok(Json::Arr(a))
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }
}

/// Parses one JSON document (rejecting trailing garbage).
///
/// # Errors
///
/// [`ParseError::Syntax`] describing the first syntax problem, or
/// [`ParseError::TooDeep`] when nesting exceeds [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        at: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn parses_values_and_rejects_malformed_text() {
        let v = parse(r#"{ "a": -1.5e3, "b": [0.25, 99], "c": "q\"uote\n", "d": null }"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_num), Some(-1500.0));
        assert_eq!(
            v.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("c").and_then(Json::as_str), Some("q\"uote\n"));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(parse("\"\\u00e9\\u0041\"").unwrap(), Json::Str("éA".into()));
        for bad in ["{", "{} trailing", r#"{"a" 1}"#, "[1,]", "\"\\ud800\"", ""] {
            assert!(
                matches!(parse(bad), Err(ParseError::Syntax { .. })),
                "{bad:?}"
            );
        }
    }

    /// One document in two spellings: the writer's compact one, and an
    /// indented one that the parser reads to the same tree.
    #[test]
    fn renders_compact_and_indented() {
        let v = Json::Obj(
            [
                ("b", Json::Arr(vec![Json::Num(1.0), Json::Null])),
                ("a", Json::Str("x\"y".into())),
                ("nan", Json::Num(f64::NAN)),
                ("empty", Json::Obj(BTreeMap::new())),
            ]
            .map(|(k, v)| (k.to_owned(), v))
            .into(),
        );
        let compact = r#"{"a":"x\"y","b":[1,null],"empty":{},"nan":null}"#;
        assert_eq!(v.render(), compact);
        let indented = "{\n  \"a\": \"x\\\"y\",\n  \"b\": [\n    1,\n    null\n  ],\n  \"empty\": {},\n  \"nan\": null\n}\n";
        assert_eq!(parse(indented).map(|t| t.render()), Ok(compact.to_owned()));
    }

    /// The parser recurses, so unbounded nesting used to overflow the
    /// stack (an abort, not an `Err`) — run on a 2 MiB thread like any
    /// spawned worker would.
    #[test]
    fn depth_bomb_is_an_error_not_a_stack_overflow() {
        let verdicts = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
                (
                    parse(&"[".repeat(100_000)),
                    parse(&"{\"k\":".repeat(100_000)),
                    parse(&nested(MAX_DEPTH + 1)),
                    parse(&nested(MAX_DEPTH)),
                )
            })
            .expect("spawn")
            .join()
            .expect("parser must not overflow the stack");
        assert_eq!(verdicts.0, Err(ParseError::TooDeep { at: MAX_DEPTH }));
        assert!(matches!(verdicts.1, Err(ParseError::TooDeep { .. })));
        assert!(matches!(verdicts.2, Err(ParseError::TooDeep { .. })));
        assert!(verdicts.3.is_ok());
    }

    /// Strings that exercise the escaper: quotes, backslashes, controls
    /// and non-ASCII next to plain text.
    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                any::<char>(),
                (0u8..0x20).prop_map(char::from),
                Just('"'),
                Just('\\'),
                Just('\u{1F980}'),
            ],
            0..12,
        )
        .prop_map(String::from_iter)
    }

    /// Trees of every variant (finite numbers only: the writer turns the
    /// rest into `null` on purpose), at most `self.0` containers deep.
    struct Tree(u32);

    impl Strategy for Tree {
        type Value = Json;
        fn generate(&self, rng: &mut TestRng) -> Json {
            let children = 0..6usize;
            match rng.below(if self.0 == 0 { 5 } else { 7 }) {
                0 => Json::Null,
                1 => Json::Bool(any::<bool>().generate(rng)),
                2 => Json::Num(
                    Some(any::<f64>().generate(rng))
                        .filter(|v| v.is_finite())
                        .unwrap_or(0.5),
                ),
                3 => Json::Num(f64::from(any::<i32>().generate(rng))),
                4 => Json::Str(text().generate(rng)),
                5 => Json::Arr(proptest::collection::vec(Tree(self.0 - 1), children).generate(rng)),
                _ => Json::Obj(
                    proptest::collection::vec((text(), Tree(self.0 - 1)), children)
                        .generate(rng)
                        .into_iter()
                        .collect(),
                ),
            }
        }
    }

    proptest! {
        #[test]
        fn render_then_parse_is_identity(v in Tree(4)) {
            prop_assert_eq!(parse(&v.render()), Ok(v));
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }

        /// A valid document with a few bytes overwritten, cut or doubled
        /// stays inside `Result`.
        #[test]
        fn mutated_documents_never_panic(
            v in Tree(4),
            edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..6),
            cut in any::<usize>(),
        ) {
            let mut bytes = v.render().into_bytes();
            for (at, b) in edits {
                let at = at % bytes.len();
                bytes[at] = b;
            }
            bytes.truncate(cut % (bytes.len() + 1));
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
