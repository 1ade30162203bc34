//! JSON reading for the runner.
//!
//! `simkit` carries a JSON *writer* (the workspace has no crates.io access);
//! the runner also has to read documents back — a child's result line, two
//! result files for `compare`, `BENCHMARK.json` in the tests — so this is
//! the matching parser into the same [`Json`] tree, plus typed accessors.

pub use simkit::telemetry::json::Json;

/// Parse one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { src: text.as_bytes(), pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

/// Nesting depth past which a document is refused rather than recursed into.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.src.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.src.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("document nested too deeply"));
        }
        self.skip_ws();
        match self.src.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.src.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    fields.push((key, self.value_at(depth + 1)?));
                    self.skip_ws();
                    match self.src.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Object(fields));
                        }
                        _ => return Err(self.error("expected `,` or `}`")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.src.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value_at(depth + 1)?);
                    self.skip_ws();
                    match self.src.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(self.error("expected `,` or `]`")),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.src.get(self.pos), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ASCII digits");
        let integral = !text.contains(['.', 'e', 'E']);
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| self.error("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.src.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.error("string is not UTF-8"))?,
            );
            match self.src.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self.src.get(self.pos).ok_or_else(|| self.error("dangling `\\`"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("malformed \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs never appear in this
                            // benchmark's documents; map them to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }
}

/// Field `key` of an object (`None` for a missing key or a non-object).
pub fn get<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Any JSON number as `f64`.
pub fn as_f64(value: &Json) -> Option<f64> {
    match value {
        Json::U64(v) => Some(*v as f64),
        Json::I64(v) => Some(*v as f64),
        Json::F64(v) => Some(*v),
        _ => None,
    }
}

/// A non-negative JSON integer.
pub fn as_u64(value: &Json) -> Option<u64> {
    match value {
        Json::U64(v) => Some(*v),
        _ => None,
    }
}

/// A JSON string.
pub fn as_str(value: &Json) -> Option<&str> {
    match value {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// The fields of an object, in document order.
pub fn fields(value: &Json) -> &[(String, Json)] {
    match value {
        Json::Object(fields) => fields,
        _ => &[],
    }
}

/// The items of an array.
pub fn items(value: &Json) -> &[Json] {
    match value {
        Json::Array(items) => items,
        _ => &[],
    }
}

/// Required-field lookup with the path in the error.
pub fn need<'a>(value: &'a Json, key: &str) -> Result<&'a Json, String> {
    get(value, key).ok_or_else(|| format!("missing field `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_what_the_writer_emits() {
        let doc = Json::object([
            ("name", Json::str("a \"quoted\"\n\tname")),
            ("count", Json::U64(18_446_744_073_709_551_615)),
            ("delta", Json::I64(-42)),
            ("ratio", Json::F64(1.0000000000000002)),
            ("whole", Json::F64(3.0)),
            ("tiny", Json::F64(1e-300)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::Array(vec![Json::U64(1), Json::F64(2.5), Json::Array(vec![])])),
            ("empty", Json::Object(vec![])),
        ]);
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
        assert_eq!(parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn accessors() {
        let doc = parse(r#"{"a": {"b": [1, 2.5, "x"]}, "n": 7}"#).unwrap();
        let list = items(get(get(&doc, "a").unwrap(), "b").unwrap());
        assert_eq!(as_u64(&list[0]), Some(1));
        assert_eq!(as_f64(&list[1]), Some(2.5));
        assert_eq!(as_str(&list[2]), Some("x"));
        assert_eq!(as_f64(need(&doc, "n").unwrap()), Some(7.0));
        assert!(need(&doc, "missing").is_err());
        assert_eq!(fields(&doc).len(), 2);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open", "{\"a\":1,}", "-"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }
}
