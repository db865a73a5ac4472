//! Minimal JSON reader for `ssdtrace diff`.
//!
//! The workspace is std-only, so this is a small recursive-descent parser
//! covering exactly what the diff inputs need: objects, arrays, strings
//! with the common escapes, numbers, booleans, and null. Numbers are read
//! as `f64` — every metric the diff compares is one. Not a general JSON
//! library: no streaming, no serde-style mapping, input must fit in
//! memory.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (first match), `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub(crate) fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

/// Flattens every numeric leaf into `(dotted.path, value)` pairs, arrays
/// indexed numerically (`tenants.0.read.p99_ns`). Order is document
/// order, so output built from the same schema diffs stably.
pub(crate) fn flatten_numbers(v: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk(v, String::new(), &mut out);
    out
}

fn walk(v: &Json, path: String, out: &mut Vec<(String, f64)>) {
    match v {
        Json::Num(n) => out.push((path, *n)),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                walk(item, join(&path, &i.to_string()), out);
            }
        }
        Json::Obj(members) => {
            for (k, item) in members {
                walk(item, join(&path, k), out);
            }
        }
        _ => {}
    }
}

fn join(path: &str, seg: &str) -> String {
    if path.is_empty() {
        seg.to_string()
    } else {
        format!("{path}.{seg}")
    }
}

/// Deepest container nesting [`parse`] accepts. The parser recurses once
/// per level, so the cap keeps a hostile document from overflowing the
/// stack; every document this crate reads is a few levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'{') {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after key")?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000C}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by any diff
                            // input; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            pos: start,
            msg: "invalid number",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_schema() {
        let doc = r#"{
            "bench": "sim_throughput",
            "baseline": { "events": 90000, "events_per_sec": 567132.1 },
            "phases": { "wait_unit_mean_ns": 1.15e10, "neg": -3 },
            "flags": [true, false, null]
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("baseline").unwrap().get("events_per_sec"),
            Some(&Json::Num(567132.1))
        );
        assert_eq!(
            v.get("phases").unwrap().get("neg").unwrap().as_num(),
            Some(-3.0)
        );
        let flat = flatten_numbers(&v);
        assert!(flat.contains(&("baseline.events".to_string(), 90000.0)));
        assert!(flat.contains(&("phases.wait_unit_mean_ns".to_string(), 1.15e10)));
    }

    #[test]
    fn flatten_indexes_arrays() {
        let v = parse(r#"{"tenants": [{"p99_ns": 7}, {"p99_ns": 9}]}"#).unwrap();
        assert_eq!(
            flatten_numbers(&v),
            vec![
                ("tenants.0.p99_ns".to_string(), 7.0),
                ("tenants.1.p99_ns".to_string(), 9.0),
            ]
        );
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        // Quote/backslash/control escapes, a \u escape, and a raw
        // multi-byte UTF-8 character.
        let input = "\"a\\\"b\\\\c\\nd\\u0041é\"";
        let v = parse(input).unwrap();
        assert_eq!(v, Json::Str("a\"b\\c\ndAé".to_string()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "{\"a\":1} x",
            "\"unterminated",
            "{\"a\":}",
            "[,]",
            "01a",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    /// A document nested far past the depth cap is an error, not a stack
    /// overflow; nesting at the cap still parses.
    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err.msg, "nesting too deep");
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let past_cap = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&past_cap).is_err());
    }

    /// Seeded mutation fuzzing (bit flips, truncations, splices of
    /// valid documents, made UTF-8 lossily): parsing never panics, and a
    /// rejection is a `JsonError` pointing inside the input.
    #[test]
    fn mutated_documents_never_panic() {
        let corpus: [&[u8]; 3] = [
            include_bytes!("../../../tests/golden/ssdtrace_summary.json"),
            br#"{"a": [1, -2.5e3, true, false, null], "b": {"c": "d\u0041\n"}}"#,
            "[\"é\\\"\", {}, [[]], 0.1]".as_bytes(),
        ];
        assert!(corpus
            .iter()
            .all(|doc| parse(std::str::from_utf8(doc).unwrap()).is_ok()));
        let mut rng = simrng::SimRng::seed_from_u64(0x4a53_4f4e);
        let (mut ok, mut err) = (0, 0);
        for _ in 0..5_000 {
            let text = String::from_utf8_lossy(&simrng::mutate(&mut rng, &corpus)).into_owned();
            match parse(&text) {
                Ok(v) => {
                    flatten_numbers(&v);
                    ok += 1;
                }
                Err(e) => {
                    assert!(e.pos <= text.len() && !e.msg.is_empty(), "{e}");
                    err += 1;
                }
            }
        }
        assert!(ok > 100 && err > 100, "{ok} parsed, {err} rejected");
    }

    #[test]
    fn nested_empty_containers() {
        let v = parse(r#"{"a": [], "b": {}, "c": [[]]}"#).unwrap();
        assert_eq!(flatten_numbers(&v), vec![]);
        assert_eq!(v.get("a"), Some(&Json::Arr(vec![])));
    }
}
