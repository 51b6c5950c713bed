//! A minimal JSON writer and reader — just enough to serialize run
//! manifests (and read them back for baseline diffing) without pulling
//! serde into the dependency-free build.

/// Escapes `s` for use inside a JSON string literal (no surrounding
/// quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Incremental writer for one JSON object/array tree.
///
/// The caller is responsible for structural correctness (matching
/// `begin_*`/`end_*` calls); the writer handles commas and escaping.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// A fresh writer.
    #[must_use]
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn pre_value(&mut self) {
        if let Some(last) = self.needs_comma.last_mut() {
            if *last {
                self.out.push(',');
            }
            *last = true;
        }
    }

    fn key(&mut self, key: &str) {
        self.pre_value();
        self.out.push('"');
        self.out.push_str(&escape(key));
        self.out.push_str("\":");
    }

    /// Opens the root object or a nested object value under `key`
    /// (pass `None` for array elements / the root).
    pub fn begin_object(&mut self, key: Option<&str>) {
        match key {
            Some(k) => self.key(k),
            None => self.pre_value(),
        }
        self.out.push('{');
        self.needs_comma.push(false);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.needs_comma.pop();
        self.out.push('}');
    }

    /// Opens an array value under `key` (or an anonymous array).
    pub fn begin_array(&mut self, key: Option<&str>) {
        match key {
            Some(k) => self.key(k),
            None => self.pre_value(),
        }
        self.out.push('[');
        self.needs_comma.push(false);
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.needs_comma.pop();
        self.out.push(']');
    }

    /// Writes a string field.
    pub fn string(&mut self, key: &str, value: &str) {
        self.key(key);
        self.out.push('"');
        self.out.push_str(&escape(value));
        self.out.push('"');
    }

    /// Writes an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) {
        self.key(key);
        self.out.push_str(&value.to_string());
    }

    /// Writes a float field (non-finite values serialize as `null`).
    pub fn f64(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            self.out.push_str(&format!("{value}"));
        } else {
            self.out.push_str("null");
        }
    }

    /// Finishes and returns the JSON text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// A parsed JSON value.
///
/// Numbers keep their source lexeme so 64-bit integers (fingerprints,
/// nanosecond totals) round-trip exactly instead of through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its lexeme (see [`JsonValue::as_u64`]).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (duplicate keys keep the last).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member `key` of an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array value (empty slice otherwise).
    #[must_use]
    pub fn items(&self) -> &[JsonValue] {
        match self {
            JsonValue::Arr(items) => items,
            _ => &[],
        }
    }

    /// String payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Exact unsigned integer, if this is a non-negative integer number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(lex) => lex.parse().ok(),
            _ => None,
        }
    }

    /// Floating-point value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(lex) => lex.parse().ok(),
            _ => None,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected {:?}", b as char))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(&format!("expected {word:?}"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let lex = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // Validate the lexeme once so `Num` always holds a real number.
        if lex.parse::<f64>().is_err() {
            return Err(format!("bad number {lex:?} at byte {start}"));
        }
        Ok(JsonValue::Num(lex.to_owned()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4()?;
                            // Surrogate pairs: peek for the low half.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos + 1..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.unwrap_or('\u{FFFD}'));
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return self.err("control character in string"),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).expect("utf8");
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads the 4 hex digits after `\u` (cursor on the `u`).
    fn hex4(&mut self) -> Result<u32, String> {
        let start = self.pos + 1;
        let Some(hex) = self
            .bytes
            .get(start..start + 4)
            .and_then(|b| std::str::from_utf8(b).ok())
        else {
            return self.err("truncated \\u escape");
        };
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape at {start}"))?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nfeed\ttab"), "line\\nfeed\\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn writer_produces_valid_structure() {
        let mut w = JsonWriter::new();
        w.begin_object(None);
        w.string("name", "x\"y");
        w.u64("n", 3);
        w.f64("ratio", 0.5);
        w.f64("bad", f64::NAN);
        w.begin_array(Some("items"));
        w.begin_object(None);
        w.u64("a", 1);
        w.end_object();
        w.begin_object(None);
        w.u64("a", 2);
        w.end_object();
        w.end_array();
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"name":"x\"y","n":3,"ratio":0.5,"bad":null,"items":[{"a":1},{"a":2}]}"#
        );
    }
}
