//! A small, dependency-free JSON writer and its inverse, [`parse`].
//!
//! The workspace runs in hermetic environments with no crates.io access, so
//! metric export carries its own writer instead of `serde_json`. Output is
//! deterministic: object fields print in insertion order (the telemetry
//! registry inserts in sorted path order), floats use Rust's shortest
//! round-trip formatting, and non-finite floats emit `null` (JSON has no
//! NaN/Infinity). The simulation never parses; tests read the results
//! goldens back with [`parse`], and [`Json::pretty`] re-renders them exactly.

use std::fmt;
use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, printed exactly (no float rounding).
    U64(u64),
    /// A signed integer, printed exactly.
    I64(i64),
    /// A double; non-finite values print as `null`.
    F64(f64),
    /// A string, escaped per RFC 8259.
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object; fields print in the order given.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience object constructor from `(&str, Json)` pairs.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (String::from(k), v)).collect())
    }

    /// Compact rendering (no whitespace).
    #[allow(clippy::inherent_to_string_shadow_display)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Object(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i, d| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                });
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string())
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
}

fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    // Rust's shortest round-trip Display; force a fractional marker so the
    // value stays typed as a float when read back by strict parsers.
    let s = format!("{v}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting depth past which [`parse`] refuses a document, not recursing.
const MAX_DEPTH: usize = 64;

/// Parse one JSON document (whitespace may follow it). An integer reads back
/// as `U64`, or `I64` when negative, and a fraction or an exponent as `F64`,
/// so what the writer emits re-renders to the same text. Malformed input and
/// nesting past 64 levels are errors naming the byte offset; nothing panics.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { src: text.as_bytes(), pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < p.src.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON error at byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    /// The byte at `pos`, consumed.
    fn next(&mut self) -> Option<u8> {
        let byte = self.peek();
        self.pos += usize::from(byte.is_some());
        byte
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, word: &str) -> Result<(), String> {
        if !self.src[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.error(&format!("expected `{word}`")));
        }
        self.pos += word.len();
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("document nested too deeply"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self
                .items(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.consume(":")?;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Json::Object),
            Some(b'[') => self.items(b']', |p| p.value(depth + 1)).map(Json::Array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.consume("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.consume("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.consume("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    /// The items after the bracket at `pos` up to `close`, each read by `item`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.next() {
                Some(b',') => {}
                Some(byte) if byte == close => return Ok(items),
                _ => return Err(self.error(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        // ASCII, so exact; an integer parse takes no fraction or exponent.
        let text = String::from_utf8_lossy(&self.src[start..self.pos]);
        (text.parse().map(Json::U64).or_else(|_| text.parse().map(Json::I64)))
            .or_else(|_| text.parse().map(Json::F64))
            .map_err(|_| self.error("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume("\"")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            // A run of a `str` that stops at an ASCII byte is whole characters.
            out.push_str(&String::from_utf8_lossy(&self.src[start..self.pos]));
            if self.next().ok_or_else(|| self.error("unterminated string"))? == b'"' {
                return Ok(out);
            }
            out.push(match self.next() {
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(esc @ (b'"' | b'\\' | b'/')) => esc as char,
                Some(b'u') => {
                    let hex = self.src.get(self.pos..self.pos + 4);
                    let code = hex
                        .and_then(|h| u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok());
                    let code = code.ok_or_else(|| self.error("malformed \\u escape"))?;
                    self.pos += 4;
                    // The writer escapes only control characters, so a
                    // surrogate half never comes from it: U+FFFD stands in.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(self.error("unknown or dangling escape")),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::U64(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::I64(-42).to_string(), "-42");
        assert_eq!(Json::F64(1.5).to_string(), "1.5");
        assert_eq!(Json::F64(3.0).to_string(), "3.0");
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn string_escaping() {
        assert_eq!(Json::str("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::str("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn containers() {
        let j = Json::object([
            ("xs", Json::Array(vec![Json::U64(1), Json::U64(2)])),
            ("empty", Json::Array(vec![])),
        ]);
        assert_eq!(j.to_string(), "{\"xs\":[1,2],\"empty\":[]}");
    }

    #[test]
    fn pretty_indents() {
        let j = Json::object([("a", Json::U64(1))]);
        assert_eq!(j.pretty(), "{\n  \"a\": 1\n}");
    }

    #[test]
    fn field_order_preserved() {
        let j = Json::object([("z", Json::U64(1)), ("a", Json::U64(2))]);
        assert_eq!(j.to_string(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn parse_inverts_both_renderings() {
        // Every value kind and escape the writer emits, nested.
        let doc = Json::object([
            ("name", Json::str("a \"quoted\"\n\tname \\ µs \u{1}")),
            ("count", Json::U64(u64::MAX)),
            ("delta", Json::I64(-42)),
            (
                "floats",
                Json::Array([1.0000000000000002, 3.0, 1e-300, 1e300, -0.5].map(Json::F64).into()),
            ),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::Array(vec![Json::U64(1), Json::F64(2.5), Json::Array(vec![])])),
            ("empty", Json::Object(vec![])),
            ("nested", Json::object([("inner", Json::object([("x", Json::U64(0))]))])),
        ]);
        for text in [doc.to_string(), doc.pretty()] {
            let back = parse(&text).unwrap();
            assert_eq!(
                (&back, back.to_string(), back.pretty()),
                (&doc, doc.to_string(), doc.pretty())
            );
        }
        assert_eq!(
            parse("[-7, 7e2, 18446744073709551616]").unwrap().to_string(),
            "[-7,700.0,18446744073709552000.0]"
        );
        assert_eq!(parse(r#"" \u00e9\/\b\f\r""#).unwrap(), Json::str(" é/\u{8}\u{c}\r"));
        // The benchmark runner's document.
        let doc = parse(r#"{"a": {"b": [1, 2.5, "x"]}, "n": 7}"#).unwrap();
        let b = Json::Array(vec![Json::U64(1), Json::F64(2.5), Json::str("x")]);
        assert_eq!(doc, Json::object([("a", Json::object([("b", b)])), ("n", Json::U64(7))]));
    }

    #[test]
    fn parse_refuses_malformed_and_deeply_nested_documents() {
        // The benchmark runner's cases first.
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open", "{\"a\":1,}", "-"]
            .into_iter()
            .chain(["}", "{1: 2}", "[\"\\q\"]", "\"\\u12\"", "\"\\", "1.2.3", "1e", "+1", "[1, 2"])
        {
            let err = parse(bad).expect_err(bad);
            assert!(err.starts_with("JSON error at byte "), "{bad:?}: {err}");
        }
        let nested = |levels: usize| "[".repeat(levels) + "0" + &"]".repeat(levels);
        assert!(parse(&nested(64)).is_ok());
        assert!(parse(&(("{\"k\":".repeat(64) + "0") + &"}".repeat(64))).is_ok());
        for deep in [nested(65), nested(100_000), "[".repeat(100) + &"]".repeat(100)] {
            assert!(parse(&deep).unwrap_err().contains("nested too deeply"));
        }
    }
}
